//! Span-integrity properties of the pool's tracing (observability
//! tentpole).
//!
//! The contract these tests pin down:
//! 1. every span a traced pool opens is closed exactly once — a
//!    completed run leaves `unclosed == 0` and `orphan_closes == 0`
//!    no matter how jobs split, batch or fail,
//! 2. per-job span counts are a pure function of the job's route:
//!    an unsplit successful job records 7 spans (job, compile, queue,
//!    dispatch, execute, finalize, report), a job scattered into `P`
//!    parts records `6 + 2P` (one dispatch/execute pair per part plus
//!    one gather), and a terminally-rejected submission records 3
//!    (job, compile, report — it never queued),
//! 3. nesting balances: compile/queue/finalize/report hang off the job
//!    root, every execute hangs off its part's dispatch, and resident
//!    queries never open a `dataset_load` span of their own,
//! 4. a program the admission verifier checks (every raw stream, every
//!    program under `verify_all_programs`) adds exactly one `verify`
//!    span under the root, right after `compile`, carrying the
//!    program's instruction count and a `clean`/`rejected` outcome.
//!
//! The mixed-queue property runs over the same scenario shapes as
//! `split_jobs.rs` (unsplit Q6, scattered Q6, XOR, oversized bulk
//! reductions), so the routes exercised here are exactly the ones the
//! scatter-gather tests prove bit-exact.

use cim_repro::cim_bitmap_db::tpch::Q6Params;
use cim_repro::cim_core::isa::CimInstruction;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_nn::binarized::BinarizedMlp;
use cim_repro::cim_obs::{RingRecorder, Snapshot, SpanNode, Value};
use cim_repro::cim_runtime::{
    DatasetSpec, JobError, JobReport, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use proptest::prelude::*;
use std::sync::Arc;

/// A pool tracing into a fresh ring recorder, on the default geometry
/// (4 digital tiles x 1024 entries per shard).
fn traced_pool(shards: usize) -> (Arc<RingRecorder>, RuntimePool) {
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let pool = RuntimePool::with_sink(PoolConfig::with_shards(shards), ring.clone());
    (ring, pool)
}

/// The `job` root span belonging to `report`, matched by job-id
/// attribute.
fn root_of<'a>(snap: &'a Snapshot, report: &JobReport) -> &'a SpanNode {
    snap.roots_named("job")
        .find(|r| matches!(r.attr("job"), Some(Value::U64(id)) if *id == report.job.0))
        .unwrap_or_else(|| panic!("no job root for {}", report.job))
}

/// Children of `node` with a given stage name.
fn children_named<'a>(node: &'a SpanNode, name: &str) -> Vec<&'a SpanNode> {
    node.children.iter().filter(|c| c.name == name).collect()
}

/// Asserts the full route contract for one completed job: stage
/// multiplicities, dispatch/execute nesting and the total span count
/// (7 unsplit, `6 + 2P` when scattered into `P` parts).
fn assert_job_route(snap: &Snapshot, report: &JobReport) {
    let root = root_of(snap, report);
    let parts = report.shards.len();
    assert_eq!(children_named(root, "compile").len(), 1, "{}", report.job);
    assert_eq!(children_named(root, "queue").len(), 1, "{}", report.job);
    assert_eq!(children_named(root, "report").len(), 1, "{}", report.job);
    assert_eq!(children_named(root, "finalize").len(), 1, "{}", report.job);
    let dispatches = children_named(root, "dispatch");
    assert_eq!(dispatches.len(), parts.max(1), "{}", report.job);
    for dispatch in &dispatches {
        assert_eq!(
            children_named(dispatch, "execute").len(),
            1,
            "every dispatch wraps exactly one execute ({})",
            report.job
        );
    }
    let gathers = children_named(root, "gather");
    if parts >= 2 {
        assert_eq!(gathers.len(), 1, "split jobs gather once ({})", report.job);
        match gathers[0].attr("parts") {
            Some(Value::U64(n)) => assert_eq!(*n as usize, parts, "{}", report.job),
            other => panic!("gather span lacks a parts attr: {other:?}"),
        }
        assert_eq!(root.span_count(), 6 + 2 * parts, "{}", report.job);
    } else {
        assert!(gathers.is_empty(), "unsplit jobs never gather");
        assert_eq!(root.span_count(), 7, "{}", report.job);
    }
    match root.attr("outcome") {
        Some(Value::Str("ok")) => assert!(report.output.is_ok()),
        Some(Value::Str("err")) => assert!(report.output.is_err()),
        other => panic!("job root lacks an outcome attr: {other:?}"),
    }
}

/// An unsplit successful job traces the canonical 7-span route, with
/// the simulated time attributed to the root matching the report.
#[test]
fn unsplit_job_traces_seven_spans() {
    let (ring, pool) = traced_pool(1);
    let report = pool
        .client(TenantId(1))
        .submit(&WorkloadSpec::XorEncrypt {
            message: (0..128u32).map(|b| b as u8).collect(),
            key_seed: 3,
        })
        .unwrap()
        .wait();
    assert!(report.output.is_ok());
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    assert_eq!(snap.roots_named("job").count(), 1);
    assert_job_route(&snap, &report);
    let root = root_of(&snap, &report);
    assert!(
        (root.sim_seconds - report.stats.busy_time.0).abs() < 1e-12,
        "root sim time {} must match the report's busy time {}",
        root.sim_seconds,
        report.stats.busy_time.0
    );
}

/// A Q6 select scattered across shards traces one dispatch/execute
/// pair per part plus exactly one gather: `6 + 2P` spans.
#[test]
fn split_job_traces_one_execute_per_part_plus_gather() {
    let (ring, pool) = traced_pool(4);
    let report = pool
        .client(TenantId(1))
        .submit(&WorkloadSpec::Q6Select {
            rows: 2 * 4 * 1024, // 8 tiles: 2x one shard
            table_seed: 33,
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    assert!(report.output.is_ok());
    assert!(report.shards.len() >= 2, "the select actually scattered");
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    assert_job_route(&snap, &report);
}

/// A workload that can never fit the pool is rejected terminally at
/// submission: its trace is just job → compile → report (it never
/// queued, so no queue/dispatch/execute spans exist), closed with an
/// `err` outcome.
#[test]
fn terminal_rejection_traces_three_spans_without_queueing() {
    let (ring, pool) = traced_pool(2);
    let report = pool
        .client(TenantId(1))
        .submit(&WorkloadSpec::Q6Select {
            rows: 3 * 4 * 1024, // 12 tiles on an 8-tile pool
            table_seed: 1,
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    assert!(matches!(
        report.output,
        Err(JobError::WorkloadTooLarge { .. })
    ));
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    let root = root_of(&snap, &report);
    assert_eq!(root.span_count(), 3, "job + compile + report only");
    assert_eq!(children_named(root, "compile").len(), 1);
    assert_eq!(children_named(root, "report").len(), 1);
    assert!(children_named(root, "queue").is_empty(), "never queued");
    assert!(children_named(root, "dispatch").is_empty());
    assert!(matches!(root.attr("outcome"), Some(Value::Str("err"))));
}

/// Resident queries ride the dataset's one `dataset_load` root: the
/// load span appears exactly once no matter how many queries follow,
/// and each query job still traces the full 7-span route carrying its
/// dataset attribution.
#[test]
fn resident_queries_reuse_one_dataset_load_span() {
    let (ring, pool) = traced_pool(2);
    let session = pool.client(TenantId(7));
    let table = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 2000,
            table_seed: 42,
        })
        .unwrap();
    let mut reports = Vec::new();
    for _ in 0..3 {
        let report = session
            .submit(&WorkloadSpec::Q6Query {
                dataset: table.id(),
                params: Q6Params::tpch_default(),
            })
            .unwrap()
            .wait();
        assert!(report.output.is_ok());
        reports.push(report);
    }
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    assert_eq!(
        snap.roots_named("dataset_load").count(),
        1,
        "the load is traced once, not per query"
    );
    let load = snap.roots_named("dataset_load").next().unwrap();
    assert!(matches!(load.attr("outcome"), Some(Value::Str("ok"))));
    assert_eq!(children_named(load, "load_execute").len(), 1);
    for report in &reports {
        assert_job_route(&snap, report);
        let root = root_of(&snap, report);
        assert!(
            matches!(root.attr("dataset"), Some(Value::U64(id)) if *id == table.id().0),
            "query roots carry their dataset id"
        );
    }
}

/// A dataset release is traced on the shard that scrubs it: one
/// `dataset_scrub` root per placement, carrying the dataset and shard,
/// with the scrub's maintenance latency as its simulated seconds.
#[test]
fn dataset_release_traces_one_scrub_span_per_placement() {
    let (ring, pool) = traced_pool(1);
    let session = pool.client(TenantId(3));
    let weights = session
        .register_dataset(&DatasetSpec::NnWeights {
            network: BinarizedMlp::random(&[64, 16, 4], 5),
        })
        .unwrap();
    let id = weights.id().0;
    let before = pool.telemetry().maintenance.latency.0;
    drop(weights);
    // The shard scrubs before it runs the next job, so the job's
    // report is folded in after the scrub's maintenance.
    let report = session
        .submit(&WorkloadSpec::XorEncrypt {
            message: vec![7; 16],
            key_seed: 1,
        })
        .unwrap()
        .wait();
    assert!(report.output.is_ok());
    let released = pool.telemetry().maintenance.latency.0 - before - report.maintenance.latency.0;
    drop(pool); // joins the shard workers, so every span has closed
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    let scrubs: Vec<&SpanNode> = snap.roots_named("dataset_scrub").collect();
    assert_eq!(scrubs.len(), 1, "one scrub per placement");
    let scrub = scrubs[0];
    assert!(matches!(scrub.attr("dataset"), Some(Value::U64(d)) if *d == id));
    assert!(matches!(scrub.attr("shard"), Some(Value::U64(0))));
    assert!(scrub.sim_seconds > 0.0, "analog scrubs take simulated time");
    assert!(
        (scrub.sim_seconds - released).abs() <= 1e-9 * released,
        "span {} vs released maintenance {released}",
        scrub.sim_seconds
    );
}

/// Verified programs trace one `verify` span after `compile`: a clean
/// raw stream runs the full route plus the verify span (8 spans), a
/// rejected one ends job → compile → verify → queue → report, and a
/// compiled program is verified only under `verify_all_programs`.
#[test]
fn verified_programs_trace_one_verify_span() {
    let (ring, pool) = traced_pool(1);
    let session = pool.client(TenantId(4));
    let raw = |instructions: Vec<CimInstruction>| WorkloadSpec::Raw {
        digital_tiles: 1,
        analog_tiles: 0,
        instructions,
    };
    let write = CimInstruction::WriteRow {
        tile: 0,
        row: 0,
        bits: BitVec::ones(1024),
    };
    let read = |row| CimInstruction::ReadRow { tile: 0, row };
    let clean = session
        .submit(&raw(vec![write.clone(), read(0)]))
        .unwrap()
        .wait();
    assert!(clean.output.is_ok());
    let rejected = session
        .submit(&raw(vec![write, read(0), read(5)]))
        .unwrap()
        .wait();
    assert!(matches!(
        rejected.output,
        Err(JobError::RejectedByVerifier { .. })
    ));
    let compiled = session
        .submit(&WorkloadSpec::XorEncrypt {
            message: vec![1; 16],
            key_seed: 2,
        })
        .unwrap()
        .wait();

    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    let verify_of = |report: &JobReport| {
        let spans = children_named(root_of(&snap, report), "verify");
        assert_eq!(spans.len(), 1, "{}", report.job);
        (
            spans[0].attr("instructions").cloned(),
            spans[0].attr("outcome").cloned(),
        )
    };
    assert_eq!(
        verify_of(&clean),
        (Some(Value::U64(2)), Some(Value::Str("clean")))
    );
    assert_eq!(root_of(&snap, &clean).span_count(), 8);
    assert_eq!(
        verify_of(&rejected),
        (Some(Value::U64(3)), Some(Value::Str("rejected")))
    );
    let root = root_of(&snap, &rejected);
    assert_eq!(root.span_count(), 5, "job, compile, verify, queue, report");
    assert!(children_named(root, "dispatch").is_empty());
    // A compiled program skips the verifier on a default pool.
    assert_job_route(&snap, &compiled);
    assert!(children_named(root_of(&snap, &compiled), "verify").is_empty());

    // Under verify-all, compiled programs are verified too.
    let mut cfg = PoolConfig::with_shards(1);
    cfg.verify_all_programs = true;
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let pool = RuntimePool::with_sink(cfg, ring.clone());
    let report = pool
        .client(TenantId(4))
        .submit(&WorkloadSpec::XorEncrypt {
            message: vec![1; 16],
            key_seed: 2,
        })
        .unwrap()
        .wait();
    assert!(report.output.is_ok());
    let snap = ring.snapshot();
    let root = root_of(&snap, &report);
    let verify = children_named(root, "verify");
    assert_eq!(verify.len(), 1);
    assert!(matches!(
        verify[0].attr("outcome"),
        Some(Value::Str("clean"))
    ));
    assert_eq!(root.span_count(), 8, "the 7-span route plus verify");
}

/// One scenario job for the mixed-queue property, indexed by the same
/// shapes `split_jobs.rs` proves bit-exact.
fn scenario_spec(choice: u8, seed: u64) -> WorkloadSpec {
    match choice % 4 {
        0 => WorkloadSpec::Q6Select {
            rows: 1500, // fits one shard: stays unsplit
            table_seed: seed,
            params: Q6Params::tpch_default(),
        },
        1 => WorkloadSpec::Q6Select {
            rows: 6 * 1024, // 6 tiles: splits on 4-tile shards
            table_seed: seed,
            params: Q6Params::tpch_default(),
        },
        2 => WorkloadSpec::XorEncrypt {
            message: (0..64u64).map(|b| (b ^ seed) as u8).collect(),
            key_seed: seed,
        },
        _ => WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            // 700 rows need 5 tiles: splits on 4-tile shards.
            rows: (0..700)
                .map(|i| BitVec::from_fn(256, |j| (i + j + seed as usize).is_multiple_of(13)))
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Property: for any mixed queue of split_jobs scenarios served
    /// through a traced 4-shard pool, every span closes exactly once
    /// and every job's span count matches its route — `7` unsplit,
    /// `6 + 2P` scattered into `P` parts — with dispatch/execute
    /// nesting balanced throughout.
    #[test]
    fn mixed_queues_trace_balanced_routes(
        choices in prop::collection::vec(any::<u8>(), 1..5),
        seed in any::<u64>(),
    ) {
        let (ring, pool) = traced_pool(4);
        let handles: Vec<_> = choices
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let tenant = TenantId(1 + (i % 3) as u32);
                let spec = scenario_spec(*c, seed.wrapping_add(i as u64));
                pool.client(tenant).submit(&spec).unwrap()
            })
            .collect();
        let reports = pool.client(TenantId(0)).wait_all(handles);
        prop_assert!(reports.iter().all(|r| r.output.is_ok()));

        let snap = ring.snapshot();
        prop_assert_eq!(snap.unclosed, 0);
        prop_assert_eq!(snap.orphan_closes, 0);
        prop_assert_eq!(snap.roots_named("job").count(), reports.len());
        for report in &reports {
            assert_job_route(&snap, report);
        }
        // The plan-time gauges fired: at least one flush observed the
        // queue before placement.
        prop_assert!(snap.gauges.contains_key("queue_depth"));
    }
}
