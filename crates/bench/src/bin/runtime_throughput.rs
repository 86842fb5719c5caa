//! Serving-path throughput: jobs/sec through the `cim-runtime` pool at
//! 1, 2, 4 and 8 shards, plus the resident-dataset amortization.
//!
//! Each configuration serves the same mixed multi-tenant job set (TPC-H
//! Q6 selects, one-time-pad encryptions, bulk scouting reductions and
//! one HDC classification burst) through per-tenant `PoolClient`
//! sessions and reports:
//!
//! * **sim makespan / jobs/sec** — jobs divided by the *simulated
//!   makespan*: shards execute in parallel, so the pool finishes when
//!   its busiest shard does. This is the architectural throughput and
//!   the number expected to scale with shard count.
//! * **wall makespan / jobs/sec** — host wall-clock from flush to the
//!   last report. The simulator itself is CPU-bound, so this scales
//!   only with host cores (a single-core host shows flat wall-clock
//!   regardless of shards).
//!
//! The second table registers one Q6 table as a resident dataset and
//! serves repeated queries against it, versus the same queries each
//! cold-loading their own bins: the per-query row writes and simulated
//! time show the amortization directly.
//!
//! The serving runs are traced through [`cim_obs`]: every `BENCH.json`
//! serving group carries wall-clock latency percentiles (p50/p95/p99
//! over per-job [`cim_runtime::JobTiming`]) and queue-depth gauge
//! stats, and the `observability` group additionally writes a Chrome
//! trace (`runtime_trace.json`) plus a deterministic snapshot
//! (`runtime_snapshot.json`) and asserts the null-sink overhead bound.
//!
//! Run with `--release`; the debug simulator is an order of magnitude
//! slower.

use cim_bitmap_db::tpch::Q6Params;
use cim_core::accelerator::CimAcceleratorBuilder;
use cim_core::isa::CimInstruction;
use cim_crossbar::analog::{AnalogParams, DifferentialCrossbar};
use cim_crossbar::cam::{host_match, CamArray, MatchKind as CamMatchKind, RuleSet};
use cim_crossbar::digital::DigitalArray;
use cim_crossbar::reference::{ReferenceDifferentialCrossbar, ReferenceDigitalArray};
use cim_crossbar::scouting::ScoutOp;
use cim_device::reram::ReramParams;
use cim_lint::{CostModel, Geometry, LintTarget};
use cim_nn::binarized::BinarizedMlp;
use cim_obs::{Histogram, RingRecorder, Snapshot, SpanId, Value};
use cim_runtime::{
    DatasetSpec, JobHandle, JobOutput, JobReport, JobRoute, MatchKind, OffloadPolicy, PoolConfig,
    RuntimePool, TenantId, Tracer, WorkloadSpec,
};
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::rng::seeded;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// One machine-readable benchmark row, collected into `BENCH.json` so the
/// perf trajectory is tracked across PRs.
struct BenchEntry {
    group: String,
    /// Simulated (architectural) makespan of the measured work, seconds.
    sim_makespan: f64,
    /// Host wall-clock of the measured work, milliseconds.
    wall_ms: f64,
    /// The group's headline ratio (scaling or speedup vs its baseline).
    speedup: f64,
    /// Group-specific extra fields (latency percentiles, queue-depth
    /// stats, device cost drivers), serialized alongside the fixed
    /// trio.
    extras: Vec<(&'static str, f64)>,
}

impl BenchEntry {
    fn new(group: impl Into<String>, sim_makespan: f64, wall_ms: f64, speedup: f64) -> Self {
        BenchEntry {
            group: group.into(),
            sim_makespan,
            wall_ms,
            speedup,
            extras: Vec::new(),
        }
    }

    fn extra(mut self, key: &'static str, value: f64) -> Self {
        self.extras.push((key, value));
        self
    }
}

/// Wall-clock latency percentiles of a report set, in milliseconds,
/// from the per-job [`cim_runtime::JobTiming`] stamped at completion.
fn latency_percentiles_ms(reports: &[JobReport]) -> (f64, f64, f64) {
    let mut hist = Histogram::new();
    for report in reports {
        hist.record(report.timing.total.as_nanos() as u64);
    }
    (
        hist.p50() as f64 / 1e6,
        hist.p95() as f64 / 1e6,
        hist.p99() as f64 / 1e6,
    )
}

/// Serializes the collected entries as `BENCH.json` in the working
/// directory: `{"groups": {name: {sim_makespan, wall_ms, speedup,
/// ...extras}}}`.
fn write_bench_json(entries: &[BenchEntry]) {
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            let mut fields = vec![
                format!(
                    "\"sim_makespan\": {}",
                    cim_obs::json::number(e.sim_makespan)
                ),
                format!("\"wall_ms\": {:.3}", e.wall_ms),
                format!("\"speedup\": {:.3}", e.speedup),
            ];
            for (key, value) in &e.extras {
                fields.push(format!("\"{key}\": {}", cim_obs::json::number(*value)));
            }
            format!("    \"{}\": {{{}}}", e.group, fields.join(", "))
        })
        .collect();
    let json = format!("{{\n  \"groups\": {{\n{}\n  }}\n}}\n", rows.join(",\n"));
    cim_obs::json::validate(&json).expect("BENCH.json must be valid JSON");
    std::fs::write("BENCH.json", &json).expect("write BENCH.json");
    println!("\nwrote BENCH.json ({} groups)", entries.len());
}

fn job_set() -> Vec<(TenantId, WorkloadSpec)> {
    let mut jobs = Vec::new();
    for i in 0..8u64 {
        jobs.push((
            TenantId(1),
            WorkloadSpec::Q6Select {
                rows: 2000,
                table_seed: 100 + i,
                params: Q6Params::tpch_default(),
            },
        ));
        jobs.push((
            TenantId(2),
            WorkloadSpec::XorEncrypt {
                message: (0..512u32)
                    .map(|b| (b as u8).wrapping_add(i as u8))
                    .collect(),
                key_seed: 7 + i,
            },
        ));
        jobs.push((
            TenantId(3),
            WorkloadSpec::ScoutBulk {
                op: cim_crossbar::scouting::ScoutOp::Or,
                rows: (0..12)
                    .map(|r| BitVec::from_fn(1024, |j| (j + r) % 7 == i as usize % 7))
                    .collect(),
            },
        ));
    }
    // Eight classification bursts rather than one monolith: a single
    // indivisible job would bound the pool makespan from below and mask
    // shard scaling.
    for _ in 0..8 {
        jobs.push((
            TenantId(4),
            WorkloadSpec::HdcClassify {
                classes: 8,
                d: 2048,
                ngram: 3,
                train_len: 800,
                samples: 6,
                sample_len: 200,
            },
        ));
    }
    jobs
}

fn shard_scaling() -> Vec<BenchEntry> {
    println!("# SERVING — jobs/sec through the cim-runtime pool vs shard count\n");
    println!(
        "{:>6} {:>6} {:>8} {:>13} {:>10} {:>13} {:>13} {:>10} {:>10}",
        "shards",
        "jobs",
        "batches",
        "sim mksp (s)",
        "sim j/s",
        "sim scaling",
        "wall mksp (s)",
        "wall j/s",
        "est spdup"
    );

    let jobs = job_set();
    let mut entries = Vec::new();
    let mut sim_baseline = None;
    for shards in [1usize, 2, 4, 8] {
        // Trace the run into a ring recorder: the per-config BENCH rows
        // carry the queue-depth gauge stats sampled at each plan.
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let pool = RuntimePool::with_sink(PoolConfig::with_shards(shards), ring.clone());
        let handles: Vec<JobHandle> = jobs
            .iter()
            .map(|(tenant, spec)| pool.client(*tenant).submit(spec).expect("job fits pool"))
            .collect();
        let collector = pool.client(TenantId(0));
        let start = Instant::now();
        let reports = collector.wait_all(handles);
        let wall_makespan = start.elapsed().as_secs_f64();
        assert!(
            reports.iter().all(|r| r.output.is_ok()),
            "all jobs must complete"
        );
        let t = pool.telemetry();
        let sim_makespan = t.simulated_makespan().0;
        let sim_throughput = t.jobs as f64 / sim_makespan;
        let wall_throughput = reports.len() as f64 / wall_makespan;
        let base = *sim_baseline.get_or_insert(sim_throughput);
        println!(
            "{:>6} {:>6} {:>8} {:>13.3e} {:>10.2e} {:>12.2}x {:>13.3e} {:>10.1} {:>9.1}x",
            shards,
            t.jobs,
            t.batches,
            sim_makespan,
            sim_throughput,
            sim_throughput / base,
            wall_makespan,
            wall_throughput,
            t.mean_speedup()
        );
        let (p50_ms, p95_ms, p99_ms) = latency_percentiles_ms(&reports);
        let snap = ring.snapshot();
        assert_eq!(snap.unclosed, 0, "every span must close exactly once");
        assert_eq!(snap.orphan_closes, 0, "no close without a matching open");
        let (depth_max, depth_mean) = snap
            .gauges
            .get("queue_depth")
            .map(|g| (g.max_or_zero(), g.mean()))
            .unwrap_or((0.0, 0.0));
        entries.push(
            BenchEntry::new(
                format!("shards_{shards}"),
                sim_makespan,
                wall_makespan * 1e3,
                sim_throughput / base,
            )
            .extra("p50_ms", p50_ms)
            .extra("p95_ms", p95_ms)
            .extra("p99_ms", p99_ms)
            .extra("queue_depth_max", depth_max)
            .extra("queue_depth_mean", depth_mean),
        );
    }
    entries
}

fn resident_amortization() -> BenchEntry {
    println!("\n# RESIDENT DATASET — amortized vs cold-load Q6 throughput (1 shard)\n");
    const QUERIES: u64 = 16;
    const ROWS: usize = 2000;

    // Cold path: every query re-writes its own bins into a fresh lease.
    let cold = RuntimePool::new(PoolConfig::with_shards(1));
    let cold_session = cold.client(TenantId(1));
    let cold_handles: Vec<JobHandle> = (0..QUERIES)
        .map(|_| {
            cold_session
                .submit(&WorkloadSpec::Q6Select {
                    rows: ROWS,
                    table_seed: 42,
                    params: Q6Params::tpch_default(),
                })
                .expect("job fits pool")
        })
        .collect();
    let cold_start = Instant::now();
    let cold_reports = cold_session.wait_all(cold_handles);
    let cold_wall = cold_start.elapsed().as_secs_f64();
    assert!(cold_reports.iter().all(|r| r.output.is_ok()));
    let cold_t = cold.telemetry();

    // Amortized path: bins pinned once, queries carry reductions only.
    let warm = RuntimePool::new(PoolConfig::with_shards(1));
    let warm_session = warm.client(TenantId(1));
    let warm_start = Instant::now();
    let table = warm_session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: ROWS,
            table_seed: 42,
        })
        .expect("dataset fits pool");
    let warm_handles: Vec<JobHandle> = (0..QUERIES)
        .map(|_| {
            warm_session
                .submit(&WorkloadSpec::Q6Query {
                    dataset: table.id(),
                    params: Q6Params::tpch_default(),
                })
                .expect("query fits pool")
        })
        .collect();
    let warm_reports = warm_session.wait_all(warm_handles);
    let warm_wall = warm_start.elapsed().as_secs_f64();
    assert!(warm_reports.iter().all(|r| r.output.is_ok()));
    let warm_t = warm.telemetry();
    let usage = &warm_t.datasets[&table.id().0];

    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>14} {:>13}",
        "path", "queries", "writes/query", "sim s/query", "wall s/query", "speedup"
    );
    let cold_writes = cold_t.pool.row_writes as f64 / QUERIES as f64;
    let cold_sim = cold_t.pool.busy_time.0 / QUERIES as f64;
    println!(
        "{:>10} {:>8} {:>14.1} {:>14.3e} {:>14.3e} {:>13}",
        "cold",
        QUERIES,
        cold_writes,
        cold_sim,
        cold_wall / QUERIES as f64,
        "1.00x"
    );
    // Warm per-query cost includes the one-time load share.
    let warm_writes =
        (usage.load_stats.row_writes + usage.query_stats.row_writes) as f64 / QUERIES as f64;
    let warm_sim = (usage.load_stats.busy_time.0 + usage.query_stats.busy_time.0) / QUERIES as f64;
    println!(
        "{:>10} {:>8} {:>14.1} {:>14.3e} {:>14.3e} {:>12.2}x",
        "resident",
        usage.queries,
        warm_writes,
        warm_sim,
        warm_wall / QUERIES as f64,
        cold_sim / warm_sim
    );
    println!(
        "\nload paid once: {} row writes ({:.3e} J); query side only: {:.1} writes/query",
        usage.load_stats.row_writes,
        usage.load_stats.energy.0,
        usage.query_stats.row_writes as f64 / usage.queries.max(1) as f64
    );
    let (p50_ms, p95_ms, p99_ms) = latency_percentiles_ms(&warm_reports);
    BenchEntry::new(
        "resident_q6",
        warm_sim * QUERIES as f64,
        warm_wall * 1e3,
        cold_sim / warm_sim,
    )
    .extra("p50_ms", p50_ms)
    .extra("p95_ms", p95_ms)
    .extra("p99_ms", p99_ms)
}

/// The resident-vs-cold comparison for NN weights: ≥ 8 batched
/// binarized inferences against one registered `NnWeights` dataset vs
/// the same inferences each reprogramming the weight matrices into a
/// fresh lease. Weight programming dominates the cold path (every
/// device is program-and-verified), so pinning the matrices is the
/// single biggest amortization in the pool.
fn nn_resident_amortization() -> BenchEntry {
    println!("\n# RESIDENT NN WEIGHTS — amortized vs cold-load binarized inference (1 shard)\n");
    const INFERENCES: u64 = 8;
    let network = BinarizedMlp::random(&[256, 32, 8], 11);
    let mut rng = seeded(3);
    // One inference per job: the per-job MVM work stays small next to
    // the weight programming the resident path amortizes away.
    let inputs: Vec<BitVec> = vec![BitVec::from_fn(256, |_| rng.gen::<f64>() < 0.5)];

    // Cold path: every inference job programs both layers itself.
    let cold = RuntimePool::new(PoolConfig::with_shards(1));
    let cold_session = cold.client(TenantId(1));
    let cold_handles: Vec<JobHandle> = (0..INFERENCES)
        .map(|_| {
            cold_session
                .submit(&WorkloadSpec::NnInfer {
                    network: network.clone(),
                    inputs: inputs.clone(),
                })
                .expect("job fits pool")
        })
        .collect();
    let cold_start = Instant::now();
    let cold_reports = cold_session.wait_all(cold_handles);
    let cold_wall = cold_start.elapsed().as_secs_f64();
    assert!(cold_reports.iter().all(|r| r.output.is_ok()));
    let cold_sim = cold.telemetry().pool.busy_time.0 / INFERENCES as f64;

    // Amortized path: weights pinned once, queries carry only MVMs.
    let warm = RuntimePool::new(PoolConfig::with_shards(1));
    let warm_session = warm.client(TenantId(1));
    let warm_start = Instant::now();
    let weights = warm_session
        .register_dataset(&DatasetSpec::NnWeights {
            network: network.clone(),
        })
        .expect("dataset fits pool");
    let warm_handles: Vec<JobHandle> = (0..INFERENCES)
        .map(|_| {
            warm_session
                .submit(&WorkloadSpec::NnQuery {
                    dataset: weights.id(),
                    inputs: inputs.clone(),
                })
                .expect("query fits pool")
        })
        .collect();
    let warm_reports = warm_session.wait_all(warm_handles);
    let warm_wall = warm_start.elapsed().as_secs_f64();
    for (w, c) in warm_reports.iter().zip(&cold_reports) {
        assert_eq!(
            w.output.as_ref().unwrap(),
            c.output.as_ref().unwrap(),
            "resident inference must be bit-identical to cold"
        );
    }
    let warm_t = warm.telemetry();
    let usage = &warm_t.datasets[&weights.id().0];
    let warm_sim =
        (usage.load_stats.busy_time.0 + usage.query_stats.busy_time.0) / INFERENCES as f64;
    let speedup = cold_sim / warm_sim;

    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>14} {:>13}",
        "path", "infers", "programs/job", "sim s/infer", "wall s/infer", "speedup"
    );
    println!(
        "{:>10} {:>8} {:>14.1} {:>14.3e} {:>14.3e} {:>13}",
        "cold",
        INFERENCES,
        cold_reports[0].stats.matrix_programs,
        cold_sim,
        cold_wall / INFERENCES as f64,
        "1.00x"
    );
    println!(
        "{:>10} {:>8} {:>14.1} {:>14.3e} {:>14.3e} {:>12.2}x",
        "resident",
        usage.queries,
        0.0,
        warm_sim,
        warm_wall / INFERENCES as f64,
        speedup
    );
    println!(
        "\nweights programmed once: {} matrix programs ({:.3e} J); queries carry {} MVMs total",
        usage.load_stats.matrix_programs, usage.load_stats.energy.0, usage.query_stats.mvms
    );
    assert!(
        speedup >= 3.0,
        "resident NN speedup {speedup:.2}x below the 3x acceptance bar"
    );

    // Device-tier cost drivers (ROADMAP item 1): the claim is that
    // program-and-verify pulses dominate the cold NN path while resident
    // queries carry only per-MVM read-noise sampling. The counters either
    // confirm or refute that directly: cold jobs must draw pulses, warm
    // queries must draw none.
    let cold_device = &cold.telemetry().device;
    let cold_pulses = cold_device.program_pulses as f64 / INFERENCES as f64;
    let cold_noise = cold_device.noise_samples as f64 / INFERENCES as f64;
    let query_pulses = usage.query_device.program_pulses;
    let query_noise = usage.query_device.noise_samples as f64 / INFERENCES as f64;
    assert!(
        cold_device.program_pulses > 0 && query_pulses == 0,
        "resident queries must carry zero program-and-verify pulses \
         (cold {} vs query {query_pulses})",
        cold_device.program_pulses
    );
    println!(
        "cost drivers/infer — cold: {cold_pulses:.0} program pulses + {cold_noise:.0} noise \
         samples; resident: {query_pulses} pulses + {query_noise:.0} noise samples \
         (load amortizes to {:.1} pulses/query)",
        usage.amortized_load_pulses_per_query()
    );

    let (p50_ms, p95_ms, p99_ms) = latency_percentiles_ms(&warm_reports);
    BenchEntry::new(
        "resident_nn",
        warm_sim * INFERENCES as f64,
        warm_wall * 1e3,
        speedup,
    )
    .extra("p50_ms", p50_ms)
    .extra("p95_ms", p95_ms)
    .extra("p99_ms", p99_ms)
    .extra("cold_program_pulses_per_infer", cold_pulses)
    .extra("cold_noise_samples_per_infer", cold_noise)
    .extra(
        "load_program_pulses",
        usage.load_device.program_pulses as f64,
    )
    .extra("query_program_pulses", query_pulses as f64)
    .extra("query_noise_samples_per_infer", query_noise)
}

/// The scatter-gather scaling story: one Q6 select sized to 2x a
/// shard's digital tiles, served (a) split across a 4-shard pool — the
/// runtime scatters per-tile chunks to shards and gathers host-side —
/// versus (b) the client-side workaround the split obsoletes: chunking
/// the table into shard-sized selects and serializing them through one
/// shard. Sub-programs run on shards in parallel, so the split path's
/// simulated makespan must beat the serialized chunking.
fn oversized_q6() -> BenchEntry {
    println!("\n# OVERSIZED Q6 — cross-shard split vs serialized single-shard chunking\n");
    const ROWS: usize = 2 * 4 * 1024; // 8 tiles on 4-tile shards
    let params = Q6Params::tpch_default();

    // Split path: one oversized select, scattered by the pool.
    let split_pool = RuntimePool::new(PoolConfig::with_shards(4));
    let session = split_pool.client(TenantId(1));
    let start = Instant::now();
    let report = session
        .submit(&WorkloadSpec::Q6Select {
            rows: ROWS,
            table_seed: 77,
            params,
        })
        .expect("splits across the pool")
        .wait();
    let split_wall = start.elapsed().as_secs_f64();
    assert!(report.output.is_ok(), "{:?}", report.output);
    assert!(report.shards.len() >= 2, "the select actually scattered");
    let split_makespan = split_pool.telemetry().simulated_makespan().0;

    // Serialized chunking: the same total work as shard-sized selects
    // drained one after another through a single shard.
    let serial_pool = RuntimePool::new(PoolConfig::with_shards(1));
    let serial_session = serial_pool.client(TenantId(1));
    let start = Instant::now();
    for chunk in 0..2u64 {
        let chunk_report = serial_session
            .submit(&WorkloadSpec::Q6Select {
                rows: ROWS / 2,
                table_seed: 77 ^ chunk,
                params,
            })
            .expect("each chunk fits one shard")
            .wait();
        assert!(chunk_report.output.is_ok());
    }
    let serial_wall = start.elapsed().as_secs_f64();
    let serial_makespan = serial_pool.telemetry().simulated_makespan().0;

    println!(
        "{:>22} {:>8} {:>13} {:>13} {:>9}",
        "path", "shards", "sim mksp (s)", "wall (s)", "speedup"
    );
    println!(
        "{:>22} {:>8} {:>13.3e} {:>13.3e} {:>9}",
        "serialized chunks", 1, serial_makespan, serial_wall, "1.00x"
    );
    println!(
        "{:>22} {:>8} {:>13.3e} {:>13.3e} {:>8.2}x",
        "split scatter-gather",
        report.shards.len(),
        split_makespan,
        split_wall,
        serial_makespan / split_makespan
    );
    assert!(
        split_makespan < serial_makespan,
        "split makespan {split_makespan:.3e}s must beat serialized chunking \
         {serial_makespan:.3e}s"
    );
    let (p50_ms, p95_ms, p99_ms) = latency_percentiles_ms(std::slice::from_ref(&report));
    BenchEntry::new(
        "oversized_q6",
        split_makespan,
        split_wall * 1e3,
        serial_makespan / split_makespan,
    )
    .extra("p50_ms", p50_ms)
    .extra("p95_ms", p95_ms)
    .extra("p99_ms", p99_ms)
}

/// Resident CAM rule search vs the host scalar scan — the paper's
/// associative-search claim measured end to end. A 400-rule × 48-bit
/// ternary table is pinned once as CAM entries; the pool then answers
/// each key in one `MatchSearch` match-line access per resident tile,
/// versus `RuleSet::matches` walking every rule's cared bits on the
/// host. The headline ratio is architectural: measured host wall-clock
/// per scan over *simulated* pool time per search (the same
/// measured-host-vs-modeled-CIM comparison the paper's §II-C speedup
/// figures make). Outputs must be bit-identical and the resident
/// searches must carry zero row writes before the ratio counts; the
/// floor is asserted so CI catches a regression of the match-line path.
const CAM_SEARCH_FLOOR: f64 = 5.0;

fn cam_search_vs_host_scan() -> BenchEntry {
    println!("\n# CAM SEARCH — resident ternary rule search vs host scalar scan\n");
    const RULES: usize = 400;
    const WIDTH: usize = 48;
    const KEYS: usize = 64;
    const HOST_ITERS: usize = 50;
    let host = RuleSet::generate(RULES, WIDTH, 0.4, 31);
    let mut rng = seeded(0xCA3);
    let keys: Vec<BitVec> = (0..KEYS).map(|_| host.sample_packet(&mut rng)).collect();

    // Host baseline: a scalar scan of every rule per key, repeated so
    // the per-scan wall time is measurable.
    let host_start = Instant::now();
    let mut expected = Vec::new();
    for _ in 0..HOST_ITERS {
        expected = keys.iter().map(|k| host.matches(k)).collect::<Vec<_>>();
    }
    let host_wall = host_start.elapsed().as_secs_f64() / (HOST_ITERS * KEYS) as f64;

    // Pool path: the table resident once, every key one match-line
    // access per tile.
    let pool = RuntimePool::new(PoolConfig::default());
    let session = pool.client(TenantId(1));
    let start = Instant::now();
    let table = session
        .register_dataset(&DatasetSpec::CamRules {
            rules: RULES,
            width: WIDTH,
            wildcard_density: 0.4,
            seed: 31,
        })
        .expect("dataset fits pool");
    let report = session
        .submit(&WorkloadSpec::CamSearch {
            dataset: table.id(),
            kind: MatchKind::Ternary,
            keys: keys.clone(),
        })
        .expect("search fits pool")
        .wait();
    let wall = start.elapsed().as_secs_f64();

    match report.output.as_ref().expect("search serves") {
        JobOutput::Matches(sets) => {
            assert_eq!(sets, &expected, "CAM match sets must equal the host scan")
        }
        other => panic!("unexpected output {other:?}"),
    }
    assert_eq!(
        report.stats.row_writes, 0,
        "resident searches must carry zero row writes"
    );
    let sim_total = report.stats.busy_time.0;
    let sim_per_search = sim_total / KEYS as f64;
    let speedup = host_wall / sim_per_search;

    println!(
        "{:>22} {:>8} {:>16} {:>9}",
        "path", "keys", "time/search (s)", "speedup"
    );
    println!(
        "{:>22} {:>8} {:>16.3e} {:>9}",
        "host scalar scan", KEYS, host_wall, "1.00x"
    );
    println!(
        "{:>22} {:>8} {:>16.3e} {:>8.1}x",
        "resident CAM (sim)", KEYS, sim_per_search, speedup
    );
    println!(
        "\n{} match pulses over {} searches; load paid once: {} key writes",
        report.device.match_pulses,
        report.stats.searches,
        pool.telemetry().datasets[&table.id().0]
            .load_stats
            .key_writes
    );
    assert!(
        speedup >= CAM_SEARCH_FLOOR,
        "CAM search speedup {speedup:.2}x regressed below the {CAM_SEARCH_FLOOR}x floor"
    );
    BenchEntry::new("cam_search", sim_total, wall * 1e3, speedup)
        .extra("host_ns_per_search", host_wall * 1e9)
        .extra("sim_ns_per_search", sim_per_search * 1e9)
        .extra("match_pulses", report.device.match_pulses as f64)
}

/// The word-parallel digital-tile fast path vs the pre-refactor
/// bit-serial inner loop, on the Scouting/Q6 access mix.
///
/// Both implementations are fabricated from the same seed and driven
/// through the identical access script shaped like the Q6 plan's inner
/// loop: wide-fan-in OR reductions over bin rows with scratch
/// write-backs, the final 3-row AND, one XOR (the cipher access) and a
/// plain row read. The fast path must be at least [`FASTPATH_FLOOR`]×
/// faster in wall clock — the assertion the CI perf-smoke job rides on.
const FASTPATH_FLOOR: f64 = 5.0;

fn scout_q6_fastpath() -> BenchEntry {
    println!("\n# FAST PATH — word-parallel digital tile vs bit-serial reference\n");
    const ROWS: usize = 160;
    const COLS: usize = 2048;
    const ITERS: usize = 300;
    let params = ReramParams::default();

    let mut fast = DigitalArray::new(ROWS, COLS, params, &mut seeded(0x50A));
    let mut reference = ReferenceDigitalArray::new(ROWS, COLS, params, &mut seeded(0x50A));
    let bins: Vec<BitVec> = (0..16)
        .map(|r| BitVec::from_fn(COLS, |j| (j * 31 + r * 17) % (r + 2) == 0))
        .collect();
    for (r, bits) in bins.iter().enumerate() {
        fast.write_row(r, bits);
        reference.write_row(r, bits);
    }

    // One wall-clocked run of the Q6-shaped access mix against either
    // array (both expose the same access surface).
    macro_rules! q6_mix {
        ($arr:expr, $rng:expr) => {{
            let start = Instant::now();
            for _ in 0..ITERS {
                for (slot, window) in [(0usize, 0usize), (1, 4), (2, 8)] {
                    let rows: Vec<usize> = (window..window + 8).collect();
                    let or = $arr.scout(ScoutOp::Or, &rows, $rng);
                    $arr.write_row(16 + slot, &or);
                }
                let _ = $arr.scout(ScoutOp::And, &[16, 17, 18], $rng);
                let _ = $arr.scout(ScoutOp::Xor, &[0, 1], $rng);
                let _ = $arr.read_row(3, $rng);
            }
            start.elapsed().as_secs_f64()
        }};
    }

    let mut rng = seeded(0xF00D);
    let fast_wall = q6_mix!(fast, &mut rng);
    let sim_makespan = fast.stats().busy_time.0;
    let mut rng = seeded(0xF00D);
    let ref_wall = q6_mix!(reference, &mut rng);

    // Same accesses, same simulated cost, same sensed bits — only the
    // host time differs.
    for slot in 16..19 {
        assert_eq!(
            fast.stored_row(slot),
            reference.stored_row(slot),
            "scratch row {slot} diverged"
        );
    }
    let speedup = ref_wall / fast_wall;
    println!(
        "{:>22} {:>10} {:>13} {:>13} {:>9}",
        "path", "accesses", "sim mksp (s)", "wall (s)", "speedup"
    );
    println!(
        "{:>22} {:>10} {:>13.3e} {:>13.3e} {:>9}",
        "bit-serial reference",
        ITERS * 9,
        reference.stats().busy_time.0,
        ref_wall,
        "1.00x"
    );
    println!(
        "{:>22} {:>10} {:>13.3e} {:>13.3e} {:>8.1}x",
        "word-parallel SoA",
        ITERS * 9,
        sim_makespan,
        fast_wall,
        speedup
    );
    assert!(
        speedup >= FASTPATH_FLOOR,
        "fast-path speedup {speedup:.2}x regressed below the {FASTPATH_FLOOR}x floor"
    );
    BenchEntry::new("scout_q6_fastpath", sim_makespan, fast_wall * 1e3, speedup)
}

/// The word-parallel analog fast path vs the per-device reference
/// crossbar, on the MVM shapes the pool actually serves.
///
/// Both differential pairs hold the same weights under default (noisy)
/// PCM parameters. Four lanes are measured:
///
/// * **serving MVMs** (the headline) — repeated reads against a resident
///   128×128 matrix: the SoA path does one contiguous dot product plus a
///   single aggregate noise draw per output line, the reference one RNG
///   draw per device. Floor: [`ANALOG_MVM_FLOOR`]×.
/// * **cold programming** — a fresh pair program-and-verified from
///   scratch each round (the dominant cost of the cold NN path): batched
///   masked rounds vs the per-device pulse loop. Floor:
///   [`ANALOG_PROGRAM_FLOOR`]×.
/// * **resident-NN serving** — the `[256, 32, 8]` binarized cascade (two
///   chained layer MVMs per inference) against resident weights.
/// * **HDC serving** — one 8×2048 class-prototype score MVM per query,
///   the associative-memory shape of the HDC classifier.
///
/// Both floors are asserted so the CI perf-smoke job catches a
/// regression of the vectorized path.
const ANALOG_MVM_FLOOR: f64 = 5.0;
const ANALOG_PROGRAM_FLOOR: f64 = 3.0;

fn analog_mvm() -> BenchEntry {
    println!("\n# ANALOG FAST PATH — SoA vectorized crossbar vs per-device reference\n");
    const ROWS: usize = 128;
    const COLS: usize = 128;
    const MVM_ITERS: usize = 300;
    const PROGRAM_ROUNDS: usize = 6;
    let params = AnalogParams::default();
    let w = Matrix::from_fn(ROWS, COLS, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 / 96.0 - 0.5
    });
    let x: Vec<f64> = (0..COLS).map(|j| (j % 13) as f64 / 12.0 - 0.5).collect();

    // Cold programming: a fresh pair programmed from scratch per round.
    let mut rng = seeded(0xA9);
    let start = Instant::now();
    let mut fast = {
        let mut pair = DifferentialCrossbar::new(ROWS, COLS, params);
        pair.program_matrix(&w, &mut rng);
        for _ in 1..PROGRAM_ROUNDS {
            pair = DifferentialCrossbar::new(ROWS, COLS, params);
            pair.program_matrix(&w, &mut rng);
        }
        pair
    };
    let fast_prog = start.elapsed().as_secs_f64() / PROGRAM_ROUNDS as f64;
    let mut rng = seeded(0xA9);
    let start = Instant::now();
    let mut reference = {
        let mut pair = ReferenceDifferentialCrossbar::new(ROWS, COLS, params);
        pair.program_matrix(&w, &mut rng);
        for _ in 1..PROGRAM_ROUNDS {
            pair = ReferenceDifferentialCrossbar::new(ROWS, COLS, params);
            pair.program_matrix(&w, &mut rng);
        }
        pair
    };
    let ref_prog = start.elapsed().as_secs_f64() / PROGRAM_ROUNDS as f64;
    let program_speedup = ref_prog / fast_prog;

    // Serving: repeated MVMs against the resident matrix.
    let mut rng = seeded(0xF00D);
    let start = Instant::now();
    for _ in 0..MVM_ITERS {
        std::hint::black_box(fast.matvec(&x, &mut rng));
    }
    let fast_mvm_wall = start.elapsed().as_secs_f64();
    let mut rng = seeded(0xF00D);
    let start = Instant::now();
    for _ in 0..MVM_ITERS {
        std::hint::black_box(reference.matvec(&x, &mut rng));
    }
    let ref_mvm_wall = start.elapsed().as_secs_f64();
    let speedup = ref_mvm_wall / fast_mvm_wall;
    let sim_makespan = fast.stats().busy_time.0;

    // Resident-NN lane: the [256, 32, 8] binarized cascade, two chained
    // layer MVMs per inference with a sign activation between them.
    const INFERS: usize = 200;
    let l1 = Matrix::from_fn(
        32,
        256,
        |i, j| if (i * 7 + j) % 2 == 0 { 1.0 } else { -1.0 },
    );
    let l2 = Matrix::from_fn(8, 32, |i, j| if (i * 5 + j) % 3 == 0 { 1.0 } else { -1.0 });
    let nn_in: Vec<f64> = (0..256)
        .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let sign = |v: &f64| if *v >= 0.0 { 1.0 } else { -1.0 };
    let nn_lane = |wall: &mut f64, mv: &mut dyn FnMut(&[f64], bool) -> Vec<f64>| {
        let start = Instant::now();
        for _ in 0..INFERS {
            let hidden: Vec<f64> = mv(&nn_in, true).iter().map(sign).collect();
            std::hint::black_box(mv(&hidden, false));
        }
        *wall = start.elapsed().as_secs_f64();
    };
    let (mut fast_nn_wall, mut ref_nn_wall) = (0.0, 0.0);
    {
        let mut fa = DifferentialCrossbar::new(32, 256, params);
        let mut fb = DifferentialCrossbar::new(8, 32, params);
        let mut rng = seeded(0x11A);
        fa.program_matrix(&l1, &mut rng);
        fb.program_matrix(&l2, &mut rng);
        nn_lane(&mut fast_nn_wall, &mut |x, first| {
            if first {
                fa.matvec(x, &mut rng)
            } else {
                fb.matvec(x, &mut rng)
            }
        });
        let mut ra = ReferenceDifferentialCrossbar::new(32, 256, params);
        let mut rb = ReferenceDifferentialCrossbar::new(8, 32, params);
        let mut rng = seeded(0x11A);
        ra.program_matrix(&l1, &mut rng);
        rb.program_matrix(&l2, &mut rng);
        nn_lane(&mut ref_nn_wall, &mut |x, first| {
            if first {
                ra.matvec(x, &mut rng)
            } else {
                rb.matvec(x, &mut rng)
            }
        });
    }
    let nn_speedup = ref_nn_wall / fast_nn_wall;

    // Serving's write cycle on the pool tile shape: a release scrub of a
    // used 32x2048 pair holding the padded first layer, then the next
    // load programming that layer again. Unlike the cold rounds above,
    // every device the scrub moved must be driven back.
    const REPROGRAM_ROUNDS: usize = 6;
    let padded_l1 = Matrix::from_fn(32, 2048, |i, j| if j < 256 { l1.get(i, j) } else { 0.0 });
    let mut tiles = CimAcceleratorBuilder::new()
        .analog_tiles(1, 32, 2048)
        .analog_params(params)
        .build();
    let program = CimInstruction::ProgramMatrix {
        tile: 0,
        matrix: padded_l1,
    };
    let mut rng = seeded(0x5C12);
    tiles.execute_with_rng(program.clone(), &mut rng);
    let programs = vec![program; REPROGRAM_ROUNDS];
    let start = Instant::now();
    for program in programs {
        tiles.scrub_analog_tile(0, &mut rng);
        tiles.execute_with_rng(program, &mut rng);
    }
    let reprogram = start.elapsed().as_secs_f64() / REPROGRAM_ROUNDS as f64;

    // HDC lane: one wide class-score MVM (8 classes × d = 2048) per
    // query against resident bipolar prototypes.
    const HDC_QUERIES: usize = 50;
    const HDC_D: usize = 2048;
    let proto = Matrix::from_fn(
        8,
        HDC_D,
        |i, j| if (i * 13 + j * 7) % 2 == 0 { 1.0 } else { -1.0 },
    );
    let query: Vec<f64> = (0..HDC_D)
        .map(|j| if (j * 3) % 5 < 2 { 1.0 } else { -1.0 })
        .collect();
    let mut fast_hdc = DifferentialCrossbar::new(8, HDC_D, params);
    let mut rng = seeded(0x11D);
    fast_hdc.program_matrix(&proto, &mut rng);
    let start = Instant::now();
    for _ in 0..HDC_QUERIES {
        std::hint::black_box(fast_hdc.matvec(&query, &mut rng));
    }
    let fast_hdc_wall = start.elapsed().as_secs_f64();
    let mut ref_hdc = ReferenceDifferentialCrossbar::new(8, HDC_D, params);
    let mut rng = seeded(0x11D);
    ref_hdc.program_matrix(&proto, &mut rng);
    let start = Instant::now();
    for _ in 0..HDC_QUERIES {
        std::hint::black_box(ref_hdc.matvec(&query, &mut rng));
    }
    let ref_hdc_wall = start.elapsed().as_secs_f64();
    let hdc_speedup = ref_hdc_wall / fast_hdc_wall;

    println!(
        "{:>22} {:>14} {:>14} {:>9}",
        "lane", "fast", "reference", "speedup"
    );
    println!(
        "{:>22} {:>11.2} us {:>11.2} us {:>8.1}x",
        "128x128 MVM",
        fast_mvm_wall / MVM_ITERS as f64 * 1e6,
        ref_mvm_wall / MVM_ITERS as f64 * 1e6,
        speedup
    );
    println!(
        "{:>22} {:>11.2} ms {:>11.2} ms {:>8.1}x",
        "cold program",
        fast_prog * 1e3,
        ref_prog * 1e3,
        program_speedup
    );
    println!(
        "{:>22} {:>11.2} ms",
        "32x2048 scrub+program",
        reprogram * 1e3
    );
    println!(
        "{:>22} {:>11.2} us {:>11.2} us {:>8.1}x",
        "NN inference",
        fast_nn_wall / INFERS as f64 * 1e6,
        ref_nn_wall / INFERS as f64 * 1e6,
        nn_speedup
    );
    println!(
        "{:>22} {:>11.2} us {:>11.2} us {:>8.1}x",
        "HDC query",
        fast_hdc_wall / HDC_QUERIES as f64 * 1e6,
        ref_hdc_wall / HDC_QUERIES as f64 * 1e6,
        hdc_speedup
    );
    assert!(
        speedup >= ANALOG_MVM_FLOOR,
        "analog MVM speedup {speedup:.2}x regressed below the {ANALOG_MVM_FLOOR}x floor"
    );
    assert!(
        program_speedup >= ANALOG_PROGRAM_FLOOR,
        "cold program speedup {program_speedup:.2}x regressed below the \
         {ANALOG_PROGRAM_FLOOR}x floor"
    );
    BenchEntry::new("analog_mvm", sim_makespan, fast_mvm_wall * 1e3, speedup)
        .extra("program_speedup", program_speedup)
        .extra("fast_mvm_us", fast_mvm_wall / MVM_ITERS as f64 * 1e6)
        .extra("ref_mvm_us", ref_mvm_wall / MVM_ITERS as f64 * 1e6)
        .extra("fast_program_ms", fast_prog * 1e3)
        .extra("ref_program_ms", ref_prog * 1e3)
        .extra("reprogram_ms", reprogram * 1e3)
        .extra("nn_serving_speedup", nn_speedup)
        .extra("nn_infer_per_s", INFERS as f64 / fast_nn_wall)
        .extra("hdc_serving_speedup", hdc_speedup)
        .extra("hdc_query_per_s", HDC_QUERIES as f64 / fast_hdc_wall)
}

/// Measured accuracy of analog `Range` CAM matching versus window width
/// (ROADMAP item 4's open question: how wide a mismatch window survives
/// device-to-device variation).
///
/// A seeded CAM under default ReRAM variation answers `Range { lo: 0,
/// hi: w }` searches for widening `w`; every match line is scored
/// against the exact host baseline [`host_match`]. The aggregate
/// match-line current spread grows like √(conducting cells)·σ_d2d while
/// the decision gap stays one LRS current, so wide windows near the
/// typical mismatch count start misdeciding — the measured curve lands
/// in `BENCH.json` as `acc_w{w}` plus the headline
/// `widest_exact_window`, the largest measured width with a perfect
/// match set. Width 1 (the window the word tier certifies) must stay
/// exact.
fn cam_range_accuracy() -> BenchEntry {
    println!("\n# CAM RANGE ACCURACY — analog window match vs exact host baseline\n");
    const ENTRIES: usize = 64;
    const WIDTH: usize = 64;
    const KEYS: usize = 200;
    const WIDTHS: [u32; 9] = [1, 2, 4, 8, 16, 24, 32, 40, 48];
    let mut rng = seeded(0xCA4E);
    let mut cam = CamArray::new(ENTRIES, WIDTH, ReramParams::default(), &mut rng);
    let care = BitVec::ones(WIDTH);
    let stored: Vec<BitVec> = (0..ENTRIES)
        .map(|_| BitVec::from_fn(WIDTH, |_| rng.gen()))
        .collect();
    for (slot, value) in stored.iter().enumerate() {
        cam.write_key(slot, value, &care);
    }
    let keys: Vec<BitVec> = (0..KEYS)
        .map(|_| BitVec::from_fn(WIDTH, |_| rng.gen()))
        .collect();

    let start = Instant::now();
    let mut curve = Vec::new();
    for &hi in &WIDTHS {
        let kind = CamMatchKind::Range { lo: 0, hi };
        let mut correct = 0usize;
        for key in &keys {
            let (hits, _) = cam.search(key, kind, &mut rng);
            for (slot, value) in stored.iter().enumerate() {
                if hits.get(slot) == host_match(value, &care, key, kind) {
                    correct += 1;
                }
            }
        }
        curve.push((hi, correct as f64 / (KEYS * ENTRIES) as f64));
    }
    let wall = start.elapsed().as_secs_f64();
    let sim_makespan = cam.stats().busy_time.0;

    println!("{:>12} {:>10}", "window [0,w]", "accuracy");
    for &(w, acc) in &curve {
        println!("{:>12} {:>10.4}", w, acc);
    }
    let widest_exact = curve
        .iter()
        .take_while(|&&(_, acc)| acc == 1.0)
        .last()
        .map(|&(w, _)| w)
        .unwrap_or(0);
    println!("\nwidest exactly-decided window: [0, {widest_exact}]");
    assert_eq!(
        curve[0].1, 1.0,
        "width-1 range windows (the certified tier) must decide exactly"
    );
    let mut entry = BenchEntry::new(
        "cam_range_accuracy",
        sim_makespan,
        wall * 1e3,
        widest_exact as f64,
    );
    for &(w, acc) in &curve {
        entry = entry.extra(
            match w {
                1 => "acc_w1",
                2 => "acc_w2",
                4 => "acc_w4",
                8 => "acc_w8",
                16 => "acc_w16",
                24 => "acc_w24",
                32 => "acc_w32",
                40 => "acc_w40",
                _ => "acc_w48",
            },
            acc,
        );
    }
    entry.extra("widest_exact_window", widest_exact as f64)
}

/// One seeded serving run traced into a ring recorder: a resident Q6
/// table with queries (dataset-load spans), a small encryption, and an
/// oversized select that scatters across both shards (per-part
/// dispatch/execute spans plus the gather span). Jobs run one at a
/// time so the planner sees an identical queue on every invocation —
/// the snapshot must come out byte-identical across runs.
fn traced_run() -> (String, String, Snapshot, f64) {
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let pool = RuntimePool::with_sink(PoolConfig::with_shards(2), ring.clone());
    let session = pool.client(TenantId(1));
    let table = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 2000,
            table_seed: 42,
        })
        .expect("dataset fits pool");
    for _ in 0..2 {
        let report = session
            .submit(&WorkloadSpec::Q6Query {
                dataset: table.id(),
                params: Q6Params::tpch_default(),
            })
            .expect("query fits pool")
            .wait();
        assert!(report.output.is_ok(), "{:?}", report.output);
    }
    let report = session
        .submit(&WorkloadSpec::XorEncrypt {
            message: (0..256u32).map(|b| b as u8).collect(),
            key_seed: 9,
        })
        .expect("job fits pool")
        .wait();
    assert!(report.output.is_ok(), "{:?}", report.output);
    // Six tiles against two free + four free: must scatter-gather.
    let report = session
        .submit(&WorkloadSpec::Q6Select {
            rows: 6 * 1024,
            table_seed: 77,
            params: Q6Params::tpch_default(),
        })
        .expect("splits across the pool")
        .wait();
    assert!(report.output.is_ok(), "{:?}", report.output);
    assert!(report.shards.len() >= 2, "the select actually scattered");
    let sim_makespan = pool.telemetry().simulated_makespan().0;
    drop(table);
    // Dropping the pool joins its workers after they drain the release
    // scrub, so the trace is complete and deterministic.
    drop(pool);
    let snap = ring.snapshot();
    (ring.chrome_trace_json(), snap.to_json(), snap, sim_makespan)
}

/// The observability story itself: a traced seeded run exports a valid
/// Chrome trace (`runtime_trace.json`) and a deterministic snapshot
/// (`runtime_snapshot.json` — byte-identical across two identical
/// runs), every span closes exactly once, and the default null-sink
/// tracer stays under [`NULL_SINK_NS_PER_OP`] per open/close pair —
/// the bound the CI perf-smoke job rides on.
const NULL_SINK_NS_PER_OP: f64 = 100.0;

/// Verify-all serving overhead: the same mixed job set served with the
/// `cim-lint` admission verifier extended to *every* compiled program
/// (`PoolConfig::verify_all_programs`) versus the default raw-only
/// mode. The verifier is one linear abstract-interpretation pass per
/// instruction stream, so it must stay in the measurement noise next
/// to compilation and simulation: the entry asserts < 5% wall-clock
/// overhead and records the measured fraction as `verify_overhead`.
fn verify_all_overhead() -> BenchEntry {
    println!("\n# VERIFY-ALL — admission-verifier overhead on the mixed job set (2 shards)\n");
    let jobs = job_set();
    // Serves the job set `reps` times, each on a fresh pool, and
    // returns the summed wall time and the last serve's makespan.
    let serve = |verify_all: bool, reps: usize| -> (f64, f64) {
        let (mut wall, mut sim) = (0.0, 0.0);
        for _ in 0..reps {
            let mut cfg = PoolConfig::with_shards(2);
            cfg.verify_all_programs = verify_all;
            let pool = RuntimePool::new(cfg);
            // Submission included in the measured window: the verifier
            // runs at admission, timing `wait_all` alone would hide it.
            let start = Instant::now();
            let handles: Vec<JobHandle> = jobs
                .iter()
                .map(|(tenant, spec)| pool.client(*tenant).submit(spec).expect("job fits pool"))
                .collect();
            let reports = pool.client(TenantId(0)).wait_all(handles);
            wall += start.elapsed().as_secs_f64();
            assert!(
                reports.iter().all(|r| r.output.is_ok()),
                "all jobs must verify clean and complete"
            );
            sim = pool.telemetry().simulated_makespan().0;
        }
        (wall, sim)
    };
    // One discarded warm-up (allocator + page-cache effects land on the
    // first serve), then interleaved best-of-6 per mode: interleaving
    // cancels slow host drift and minima damp scheduler noise, which
    // single back-to-back runs at a 5% bar are hostage to. The mode that
    // serves first alternates between rounds, so neither mode always
    // pays (or dodges) whatever the previous round left behind. The set
    // serves in about 0.1 s, where one serve's jitter alone exceeds the
    // bar, so each sample serves it enough times to take about 1 s.
    let reps = (1.0 / serve(false, 1).0).ceil().max(1.0) as usize;
    let (mut wall_base, mut wall_verify, mut sim) = (f64::INFINITY, f64::INFINITY, 0.0);
    for round in 0..6 {
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for verify_all in order {
            let (wall, s) = serve(verify_all, reps);
            if verify_all {
                wall_verify = wall_verify.min(wall);
                sim = s;
            } else {
                wall_base = wall_base.min(wall);
            }
        }
    }
    let overhead = (wall_verify - wall_base) / wall_base;
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "serves", "base (s)", "verify (s)", "overhead"
    );
    println!(
        "{:>6} {:>12.3} {:>12.3} {:>9.2}%",
        reps,
        wall_base,
        wall_verify,
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "verify-all overhead {:.2}% exceeds the 5% serving bar",
        overhead * 100.0
    );
    BenchEntry::new(
        "verify_all_overhead",
        sim,
        wall_verify * 1e3 / reps as f64,
        wall_base / wall_verify,
    )
    .extra("verify_overhead", overhead)
    .extra("serves_per_sample", reps as f64)
}

/// Ceiling on the admission verifier's cost relative to the cost pass
/// over the same stream, asserted by CI on the `lint_resident` group.
const LINT_RATIO_CEILING: f64 = 4.0;

/// The two static passes over one stream shaped like a resident
/// `RuleClassify` query: 64 ternary searches, 32 packets over each of
/// two 80-entry resident CAM tiles at the pool's tile geometry. Under
/// `verify_all_programs` both passes run on every such query at
/// admission, so the safety pass should cost about what the cost pass
/// does. Each timing is the fastest of 100 interleaved batches of 200
/// calls: short batches let the minimum find quiet moments on a shared
/// host.
fn lint_resident() -> BenchEntry {
    println!("\n# LINT RESIDENT — safety pass vs cost pass on a RuleClassify-shaped stream\n");
    let cfg = PoolConfig::default();
    let entries = cfg.tile_rows / 2;
    let geometry = Geometry {
        digital_tiles: 2,
        tile_rows: cfg.tile_rows,
        tile_cols: cfg.tile_cols,
        analog_tiles: 0,
        analog_rows: cfg.analog_rows,
        analog_cols: cfg.analog_cols,
        scout_fan_in: cfg.scout_fan_in,
    };
    let target = LintTarget::new(geometry)
        .with_resident_rows(0, 0..2 * entries)
        .with_resident_rows(1, 0..2 * entries);
    let mut rng = seeded(0x11E7);
    let program: Vec<CimInstruction> = (0..32)
        .flat_map(|_| {
            let key = BitVec::from_fn(cfg.tile_cols, |j| j < 48 && rng.gen_bool(0.5));
            (0..2).map(move |tile| CimInstruction::MatchSearch {
                tile,
                entries,
                key: key.clone(),
                kind: MatchKind::Ternary,
            })
        })
        .collect();
    let outputs: Vec<usize> = (0..program.len()).collect();
    let model = CostModel::default();
    let report = cim_lint::lint(&program, &outputs, &target);
    assert!(report.is_clean(), "{}", report.to_text());

    const CALLS: usize = 200;
    let per_call_us = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..CALLS {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / CALLS as f64
    };
    let mut check = || {
        std::hint::black_box(cim_lint::lint(&program, &outputs, &target));
    };
    let mut cost = || {
        std::hint::black_box(cim_lint::cost(&program, &geometry, &model));
    };
    let (mut check_us, mut cost_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..100 {
        check_us = check_us.min(per_call_us(&mut check));
        cost_us = cost_us.min(per_call_us(&mut cost));
    }
    let ratio = check_us / cost_us;
    println!(
        "{:>8} {:>10} {:>10} {:>8}",
        "instrs", "check us", "cost us", "ratio"
    );
    println!(
        "{:>8} {:>10.3} {:>10.3} {:>7.2}x  (CI ceiling {LINT_RATIO_CEILING}x)",
        program.len(),
        check_us,
        cost_us,
        ratio
    );
    BenchEntry::new("lint_resident", 0.0, check_us * 1e-3, ratio)
        .extra("check_us", check_us)
        .extra("cost_us", cost_us)
        .extra("ratio", ratio)
        .extra("ratio_ceiling", LINT_RATIO_CEILING)
        .extra("instructions", program.len() as f64)
}

/// The offload planner's wall-clock case: a swarm of tiny host-winning
/// jobs around a few accelerator-scale selects, served under
/// `CostDriven` versus `AlwaysCim`. The planner compares each job's
/// certified cost-envelope latency bound against the analytical host
/// estimate at admission and serves the tiny jobs from the host lane —
/// skipping compile-side simulation work entirely — so the cost-driven
/// pool must beat the all-CIM pool in wall clock by at least
/// [`HOST_OFFLOAD_FLOOR`], with bit-identical outputs. The floor is
/// asserted so CI catches a planner regression.
const HOST_OFFLOAD_FLOOR: f64 = 1.1;

fn host_offload() -> BenchEntry {
    println!(
        "\n# HOST OFFLOAD — cost-driven planner vs always-CIM on a tiny/large mix (2 shards)\n"
    );
    let params = Q6Params::tpch_default();
    let mut jobs = Vec::new();
    for i in 0..64u64 {
        jobs.push(WorkloadSpec::XorEncrypt {
            message: (0..512u32)
                .map(|b| (b as u8).wrapping_add(i as u8))
                .collect(),
            key_seed: 1000 + i,
        });
        jobs.push(WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            rows: (0..12)
                .map(|r| BitVec::from_fn(1024, |j| (j + r) % 5 == i as usize % 5))
                .collect(),
        });
    }
    for i in 0..2u64 {
        jobs.push(WorkloadSpec::Q6Select {
            rows: 1000,
            table_seed: 500 + i,
            params,
        });
    }

    let serve = |policy: OffloadPolicy| -> (f64, Vec<JobReport>, f64, f64) {
        let mut cfg = PoolConfig::with_shards(2);
        cfg.offload_policy = policy;
        let pool = RuntimePool::new(cfg);
        let session = pool.client(TenantId(1));
        let start = Instant::now();
        let handles: Vec<JobHandle> = jobs
            .iter()
            .map(|spec| session.submit(spec).expect("job fits pool"))
            .collect();
        let reports = session.wait_all(handles);
        let wall = start.elapsed().as_secs_f64();
        assert!(reports.iter().all(|r| r.output.is_ok()));
        let t = pool.telemetry();
        (
            wall,
            reports,
            t.host_routed.jobs as f64,
            t.simulated_makespan().0,
        )
    };

    // Warm-up, then interleaved best-of-3 per policy (same protocol as
    // the verify-all overhead entry: minima damp scheduler noise).
    serve(OffloadPolicy::AlwaysCim);
    let driven_policy = OffloadPolicy::CostDriven { threshold: 1.0 };
    let (mut wall_cim, mut wall_driven) = (f64::INFINITY, f64::INFINITY);
    let (mut cim_reports, mut driven_reports) = (Vec::new(), Vec::new());
    let (mut host_routed, mut sim) = (0.0, 0.0);
    for _ in 0..3 {
        let (wall, reports, _, _) = serve(OffloadPolicy::AlwaysCim);
        wall_cim = wall_cim.min(wall);
        cim_reports = reports;
        let (wall, reports, routed, s) = serve(driven_policy);
        wall_driven = wall_driven.min(wall);
        (driven_reports, host_routed, sim) = (reports, routed, s);
    }

    // Routing is a pure performance decision: not one output bit moves.
    for (c, d) in cim_reports.iter().zip(&driven_reports) {
        assert_eq!(c.kind, d.kind);
        assert_eq!(
            c.output, d.output,
            "cost-driven routing changed an output on {:?}",
            c.kind
        );
        assert!(c.route == JobRoute::Cim, "always-CIM pool routed host");
        if d.route == JobRoute::Host {
            assert!(d.shards.is_empty(), "host job claims shards");
        }
    }
    assert!(
        host_routed > 0.0,
        "the cost-driven planner never used the host lane"
    );
    let speedup = wall_cim / wall_driven;
    println!(
        "{:>16} {:>6} {:>12} {:>10} {:>9}",
        "policy", "jobs", "host-routed", "wall (s)", "speedup"
    );
    println!(
        "{:>16} {:>6} {:>12} {:>10.3} {:>9}",
        "always-CIM",
        cim_reports.len(),
        0,
        wall_cim,
        "1.00x"
    );
    println!(
        "{:>16} {:>6} {:>12} {:>10.3} {:>8.2}x",
        "cost-driven",
        driven_reports.len(),
        host_routed,
        wall_driven,
        speedup
    );
    assert!(
        speedup >= HOST_OFFLOAD_FLOOR,
        "host-offload speedup {speedup:.2}x regressed below the {HOST_OFFLOAD_FLOOR}x floor"
    );
    BenchEntry::new("host_offload", sim, wall_driven * 1e3, speedup)
        .extra("host_routed", host_routed)
        .extra("cim_wall_ms", wall_cim * 1e3)
        .extra("jobs", driven_reports.len() as f64)
}

fn observability() -> BenchEntry {
    println!("\n# OBSERVABILITY — traced serving run, exports, and null-sink overhead\n");
    let start = Instant::now();
    let (trace_json, snap_json, snap, sim_makespan) = traced_run();
    let wall = start.elapsed().as_secs_f64();

    // Span integrity: every lifecycle stage closed exactly once.
    assert_eq!(snap.unclosed, 0, "every span must close exactly once");
    assert_eq!(snap.orphan_closes, 0, "no close without a matching open");
    let job_roots = snap.roots_named("job").count();
    let load_roots = snap.roots_named("dataset_load").count();
    assert_eq!(job_roots, 4, "2 queries + 1 encrypt + 1 split select");
    assert_eq!(load_roots, 1, "one resident dataset load");
    assert_eq!(
        snap.roots_named("dataset_scrub").count(),
        1,
        "one release scrub"
    );

    // Exports: both files must be well-formed JSON, and the snapshot
    // (which excludes wall-clock fields by construction) must be
    // byte-identical on a second identically-seeded run.
    cim_obs::json::validate(&trace_json).expect("Chrome trace must be valid JSON");
    cim_obs::json::validate(&snap_json).expect("snapshot must be valid JSON");
    let (_, snap_json_again, _, _) = traced_run();
    assert_eq!(
        snap_json, snap_json_again,
        "seeded snapshots must be byte-identical across runs"
    );
    std::fs::write("runtime_trace.json", &trace_json).expect("write runtime_trace.json");
    std::fs::write("runtime_snapshot.json", &snap_json).expect("write runtime_snapshot.json");

    // Null-sink overhead: the default pool traces into a null sink, so
    // an open/close pair on the disabled path must stay near-free.
    let tracer = Tracer::disabled();
    assert!(!tracer.enabled());
    const OPS: u64 = 2_000_000;
    let bench_start = Instant::now();
    for i in 0..OPS {
        let span = tracer.open("bench", SpanId::NONE, &[("i", Value::U64(i))]);
        tracer.close(std::hint::black_box(span), 0.0, &[]);
    }
    let ns_per_op = bench_start.elapsed().as_nanos() as f64 / OPS as f64;

    println!(
        "{:>10} spans across {job_roots} jobs + {load_roots} dataset load (unclosed: {})",
        snap.span_count(),
        snap.unclosed
    );
    println!(
        "{:>10} wrote runtime_trace.json ({} B) and runtime_snapshot.json ({} B, deterministic)",
        "",
        trace_json.len(),
        snap_json.len()
    );
    println!("{:>10} null-sink open/close pair: {ns_per_op:.1} ns", "");
    assert!(
        ns_per_op < NULL_SINK_NS_PER_OP,
        "null-sink overhead {ns_per_op:.1} ns/op broke the {NULL_SINK_NS_PER_OP} ns bound"
    );

    BenchEntry::new("observability", sim_makespan, wall * 1e3, 1.0)
        .extra("spans", snap.span_count() as f64)
        .extra("null_sink_ns_per_op", ns_per_op)
        .extra("snapshot_bytes", snap_json.len() as f64)
}

fn main() {
    let mut entries = Vec::new();
    entries.push(scout_q6_fastpath());
    entries.push(analog_mvm());
    entries.push(cam_range_accuracy());
    entries.extend(shard_scaling());
    entries.push(resident_amortization());
    entries.push(nn_resident_amortization());
    entries.push(cam_search_vs_host_scan());
    entries.push(oversized_q6());
    entries.push(lint_resident());
    entries.push(verify_all_overhead());
    entries.push(host_offload());
    entries.push(observability());
    write_bench_json(&entries);
}
