//! `dataset_churn`: two closed-loop sessions that keep registering,
//! querying and dropping datasets.
//!
//! Each cycle registers a seeded dataset (rotating `Q6Table`,
//! `NnWeights`, `CamRules`, `CamKeys`), runs a few queries against it,
//! then drops the handle so its tiles are scrubbed. It uses the same
//! tiles and dataset code as `resident_stream`, but for writes beside
//! reads: row writes, analog program-and-verify, CAM key writes, scrubs,
//! pinning and unpinning.

use crate::cold_mixed::{random_q6_params, NN_DIMS};
use crate::harness::{self, ThreadResult, CLIENT_THREADS};
use crate::ops::{self, Op};
use crate::resident_stream::{DATASET_KINDS, KEY_WIDTH, Q6_ROWS, RULE_WIDTH, RULE_WILDCARDS};
use crate::Pass;
use cim_crossbar::cam::{key_bits, RuleSet};
use cim_nn::binarized::BinarizedMlp;
use cim_runtime::{
    DatasetId, DatasetSpec, MatchKind, OffloadPolicy, PoolConfig, TenantId, WorkloadSpec,
};
use cim_simkit::bitvec::BitVec;
use cim_simkit::rng::seeded;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

/// Cycles per session deck.
const DECK: usize = 32;
/// Queries per registered dataset.
const QUERIES: usize = 3;
/// Entries of the churned CAM datasets (one tile each).
const CAM_ENTRIES: usize = 80;

/// The pool: always on the accelerator.
pub fn pool_config() -> PoolConfig {
    PoolConfig {
        offload_policy: OffloadPolicy::AlwaysCim,
        ..PoolConfig::with_shards(2)
    }
}

/// One churn cycle: a dataset and the queries run against it. Query
/// specs name a placeholder dataset id, filled in once registered.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// The dataset kind (metric label).
    pub kind: &'static str,
    /// The dataset.
    pub spec: DatasetSpec,
    /// Queries with their references.
    pub queries: Vec<Op>,
}

/// Points a query spec at the registered dataset.
fn with_dataset(spec: &WorkloadSpec, id: DatasetId) -> WorkloadSpec {
    let mut s = spec.clone();
    match &mut s {
        WorkloadSpec::Q6Query { dataset, .. }
        | WorkloadSpec::NnQuery { dataset, .. }
        | WorkloadSpec::CamSearch { dataset, .. }
        | WorkloadSpec::RuleClassify { dataset, .. }
        | WorkloadSpec::KeyLookup { dataset, .. } => *dataset = id,
        _ => {}
    }
    s
}

fn cycle(kind: usize, session: usize, rng: &mut StdRng) -> Cycle {
    let none = DatasetId(u64::MAX);
    let op = |spec, expect| Op {
        session,
        spec,
        expect,
    };
    match kind {
        0 => {
            let table_seed = rng.gen();
            let queries = (0..QUERIES)
                .map(|_| {
                    let params = random_q6_params(rng);
                    op(
                        WorkloadSpec::Q6Query {
                            dataset: none,
                            params,
                        },
                        ops::q6_expect(Q6_ROWS, table_seed, &params),
                    )
                })
                .collect();
            Cycle {
                kind: DATASET_KINDS[0],
                spec: DatasetSpec::Q6Table {
                    rows: Q6_ROWS,
                    table_seed,
                },
                queries,
            }
        }
        1 => {
            let network = BinarizedMlp::random(&NN_DIMS, rng.gen());
            let queries = (0..QUERIES)
                .map(|_| {
                    let inputs = vec![BitVec::from_fn(NN_DIMS[0], |_| rng.gen_bool(0.5))];
                    op(
                        WorkloadSpec::NnQuery {
                            dataset: none,
                            inputs: inputs.clone(),
                        },
                        ops::nn_expect(&network, &inputs),
                    )
                })
                .collect();
            Cycle {
                kind: DATASET_KINDS[1],
                spec: DatasetSpec::NnWeights { network },
                queries,
            }
        }
        2 => {
            let seed = rng.gen();
            let rules = RuleSet::generate(CAM_ENTRIES, RULE_WIDTH, RULE_WILDCARDS, seed);
            let entries: Vec<(BitVec, BitVec)> = rules
                .rules()
                .iter()
                .map(|r| (r.value.clone(), r.care.clone()))
                .collect();
            let queries = (0..QUERIES)
                .map(|q| {
                    if q == 0 {
                        let keys: Vec<BitVec> = (0..4).map(|_| rules.sample_packet(rng)).collect();
                        op(
                            WorkloadSpec::CamSearch {
                                dataset: none,
                                kind: MatchKind::Ternary,
                                keys: keys.clone(),
                            },
                            ops::cam_expect(&entries, &keys, MatchKind::Ternary),
                        )
                    } else {
                        let packets: Vec<u64> = (0..8)
                            .map(|_| rules.sample_packet(rng).words()[0])
                            .collect();
                        op(
                            WorkloadSpec::RuleClassify {
                                dataset: none,
                                packets: packets.clone(),
                            },
                            ops::rule_expect(&rules, &packets),
                        )
                    }
                })
                .collect();
            Cycle {
                kind: DATASET_KINDS[2],
                spec: DatasetSpec::CamRules {
                    rules: CAM_ENTRIES,
                    width: RULE_WIDTH,
                    wildcard_density: RULE_WILDCARDS,
                    seed,
                },
                queries,
            }
        }
        _ => {
            let mask = (1u64 << KEY_WIDTH) - 1;
            let mut keys: Vec<u64> = Vec::with_capacity(CAM_ENTRIES);
            while keys.len() < CAM_ENTRIES {
                let k = rng.gen::<u64>() & mask;
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            let entries: Vec<(BitVec, BitVec)> = keys
                .iter()
                .map(|&k| (key_bits(k, KEY_WIDTH), BitVec::ones(KEY_WIDTH)))
                .collect();
            let probe = |rng: &mut StdRng| {
                if rng.gen_bool(0.5) {
                    keys[rng.gen_range(0..CAM_ENTRIES)]
                } else {
                    rng.gen::<u64>() & mask
                }
            };
            let queries = (0..QUERIES)
                .map(|q| {
                    if q == 0 {
                        let probe_keys: Vec<BitVec> =
                            (0..4).map(|_| key_bits(probe(rng), KEY_WIDTH)).collect();
                        op(
                            WorkloadSpec::CamSearch {
                                dataset: none,
                                kind: MatchKind::Exact,
                                keys: probe_keys.clone(),
                            },
                            ops::cam_expect(&entries, &probe_keys, MatchKind::Exact),
                        )
                    } else {
                        let probes: Vec<u64> = (0..8).map(|_| probe(rng)).collect();
                        op(
                            WorkloadSpec::KeyLookup {
                                dataset: none,
                                probes: probes.clone(),
                            },
                            ops::lookup_expect(&keys, KEY_WIDTH, &probes),
                        )
                    }
                })
                .collect();
            Cycle {
                kind: DATASET_KINDS[3],
                spec: DatasetSpec::CamKeys {
                    keys,
                    width: KEY_WIDTH,
                },
                queries,
            }
        }
    }
}

/// One seeded deck of cycles per session; session 1's rotation is
/// offset by two kinds so the sessions rarely register the same kind at
/// once.
fn decks(seed: u64) -> Vec<Vec<Cycle>> {
    (0..CLIENT_THREADS)
        .map(|t| {
            let mut rng = seeded(seed ^ (0xC4C1_E000 + t as u64));
            (0..DECK)
                .map(|i| cycle((i + 2 * t) % 4, t, &mut rng))
                .collect()
        })
        .collect()
}

/// Registers, queries and drops one cycle; `pos` is the deck position.
fn play(
    client: &cim_runtime::PoolClient,
    c: &Cycle,
    t: usize,
    pos: usize,
    op_base: u64,
    r: &mut ThreadResult,
) {
    let t0 = Instant::now();
    let handle = r.blocking(|| client.register_dataset(&c.spec));
    let t1 = Instant::now();
    r.log.record(op_base, "register", c.kind, t0, t1);
    r.log.record(op_base, "op", c.kind, t0, t1);
    r.mark(t0, t1);
    let handle = match handle {
        Ok(h) => {
            r.tally
                .record_plain(t1.duration_since(t0).as_secs_f64() * 1e3);
            h
        }
        Err(e) => {
            eprintln!("perfbench: register refused: {e}");
            r.tally.record_refused();
            return;
        }
    };
    for (q, query) in c.queries.iter().enumerate() {
        let op = Op {
            spec: with_dataset(&query.spec, handle.id()),
            ..query.clone()
        };
        harness::submit_wait(
            client,
            &op,
            op_base + 1 + q as u64,
            (t, pos * QUERIES + q),
            r,
        );
    }
    let t2 = Instant::now();
    drop(handle);
    r.log.record(op_base, "drop", c.kind, t2, Instant::now());
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Pass {
    let decks = decks(seed);
    let ((pool, ring), setup_s) =
        harness::repeated_setup(|| harness::build_pool(pool_config(), trace));
    let sessions: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| pool.client(TenantId(t as u32 + 1)))
        .collect();
    let before = pool.telemetry();
    let merged = harness::closed_loop(
        &pool,
        seconds,
        trace,
        epoch,
        |t, deadline, r: &mut ThreadResult| {
            let deck = &decks[t];
            let mut k = 0usize;
            while Instant::now() < deadline {
                let op_base = ((t as u64 + 1) << 40) | ((k as u64) << 8);
                play(
                    &sessions[t],
                    &deck[k % deck.len()],
                    t,
                    k % deck.len(),
                    op_base,
                    r,
                );
                k += 1;
            }
        },
    );
    let (load_s, load_j) = harness::dataset_load_delta(&before, &pool.telemetry());
    let peak_rss_mb = harness::peak_rss_mb();
    let pool_events = ring.map(|r| r.events()).unwrap_or_default();
    drop(sessions);
    drop(pool);

    // Replay: one session walks both decks' cycles in order on a fresh
    // pool; every query output must equal the concurrent run's.
    let (replay_pool, _) = harness::build_pool(pool_config(), false);
    let replay_session = replay_pool.client(TenantId(1));
    let mut replay_mismatches = 0;
    for (t, deck) in decks.iter().enumerate() {
        for (pos, c) in deck.iter().enumerate() {
            if !merged.outputs.contains_key(&(t, pos * QUERIES)) {
                continue;
            }
            let Ok(handle) = replay_session.register_dataset(&c.spec) else {
                replay_mismatches += 1;
                continue;
            };
            let ops: Vec<((usize, usize), Op)> = c
                .queries
                .iter()
                .enumerate()
                .map(|(q, query)| {
                    let op = Op {
                        spec: with_dataset(&query.spec, handle.id()),
                        ..query.clone()
                    };
                    ((t, pos * QUERIES + q), op)
                })
                .collect();
            replay_mismatches += harness::replay_mismatches(
                ops.iter().map(|(k, op)| (*k, op)),
                &merged.outputs,
                |_| &replay_session,
            );
        }
    }
    drop(replay_session);
    drop(replay_pool);

    Pass {
        merged,
        setup_s,
        load_s,
        load_j,
        replay_mismatches,
        pool_events,
        peak_rss_mb,
    }
}
