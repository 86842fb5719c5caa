//! `resident_stream`: light queries against resident datasets.
//!
//! Four tenants each own one resident dataset. Compile is microseconds
//! here, so scheduling, the `cim-lint` pass (every program is verified)
//! and device reads dominate; there is no HDC encoding and no device
//! write after set-up.
//!
//! The end-to-end figures come from two closed-loop sessions ([`run`]).
//! The traced run adds an open-loop rate ladder ([`ladder`]): one
//! generator thread submits (and flushes) on a seeded Poisson schedule,
//! one collector thread takes the reports **in submission order**, and
//! latency runs from each op's due time, so a stall is charged to every
//! later op. On a 2-vCPU host the open-loop tail swings with host CPU
//! steal far beyond any bound the end-to-end metrics may have, so the
//! ladder is reported per layer.

use crate::cold_mixed::{random_q6_params, NN_DIMS};
use crate::harness::{self, CLIENT_THREADS};
use crate::ops::{self, Op, Tally};
use crate::stats::{p99_windowed, percentile};
use crate::trace::SpanLog;
use crate::Pass;
use cim_crossbar::cam::{key_bits, RuleSet};
use cim_nn::binarized::BinarizedMlp;
use cim_obs::RingRecorder;
use cim_runtime::{
    CompileError, DatasetHandle, DatasetSpec, JobHandle, MatchKind, OffloadPolicy, PoolClient,
    PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_simkit::bitvec::BitVec;
use cim_simkit::rng::seeded;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rates (ops/s) of the ladder, climbed in order.
pub const LADDER: [f64; 4] = [250.0, 500.0, 2000.0, 4000.0];
/// Index of the reference rate, the rung played longest.
pub const REFERENCE: usize = 1;
/// Share of the ladder spent at the reference rate (the rest is split
/// evenly over the other rungs).
const REFERENCE_SHARE: f64 = 0.4;
/// Latency limit on a rung's p99, milliseconds.
pub const LIMIT_MS: f64 = 100.0;

/// Q6 table rows resident for tenant 1.
pub const Q6_ROWS: usize = 2000;
/// Rules resident for tenant 3 (two tiles of 80 entries).
pub const RULES: usize = 160;
/// Rule width in bits.
pub const RULE_WIDTH: usize = 48;
/// Rule wildcard density.
pub const RULE_WILDCARDS: f64 = 0.4;
/// Keys resident for tenant 4.
pub const KEYS: usize = 160;
/// Key width in bits.
pub const KEY_WIDTH: usize = 32;
/// Inputs per light `NnQuery`.
const NN_INPUTS: usize = 2;
/// Inputs per batched `NnQuery`: about 8 ms of analog MVMs.
const NN_BATCH_INPUTS: usize = 16;
/// One deck op in this many is a batched `NnQuery`. Its latency is the
/// deck's p99 (2% of ops), so the tail measures a modelled heavy query
/// rather than how often the host stalls a sub-millisecond one.
const HEAVY_EVERY: usize = 50;
/// Packets per `RuleClassify`, probes per `KeyLookup`.
pub const PROBES: usize = 32;
/// Keys per `CamSearch`.
const SEARCH_KEYS: usize = 16;
/// Distinct ops in the deck the schedule draws from.
const DECK: usize = 500;

/// The pool: always on the accelerator, every compiled program verified.
pub fn pool_config() -> PoolConfig {
    PoolConfig {
        offload_policy: OffloadPolicy::AlwaysCim,
        verify_all_programs: true,
        ..PoolConfig::with_shards(2)
    }
}

/// The four resident datasets of a run, owned by tenants 1..=4.
pub struct Data {
    /// Q6 table seed.
    pub table_seed: u64,
    /// Resident network.
    pub network: BinarizedMlp,
    /// Rule table seed.
    pub rules_seed: u64,
    /// Key dictionary.
    pub keys: Vec<u64>,
}

impl Data {
    /// Seeded dataset contents.
    pub fn new(seed: u64) -> Self {
        let mut rng = seeded(seed ^ 0x5E5_1DE7);
        let mut keys: Vec<u64> = Vec::with_capacity(KEYS);
        while keys.len() < KEYS {
            let k = rng.gen::<u64>() & ((1 << KEY_WIDTH) - 1);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        Data {
            table_seed: rng.gen(),
            network: BinarizedMlp::random(&NN_DIMS, rng.gen()),
            rules_seed: rng.gen(),
            keys,
        }
    }

    /// The dataset specs in registration order (tenant `i + 1` owns `i`).
    pub fn specs(&self) -> [DatasetSpec; 4] {
        [
            DatasetSpec::Q6Table {
                rows: Q6_ROWS,
                table_seed: self.table_seed,
            },
            DatasetSpec::NnWeights {
                network: self.network.clone(),
            },
            DatasetSpec::CamRules {
                rules: RULES,
                width: RULE_WIDTH,
                wildcard_density: RULE_WILDCARDS,
                seed: self.rules_seed,
            },
            DatasetSpec::CamKeys {
                keys: self.keys.clone(),
                width: KEY_WIDTH,
            },
        ]
    }
}

/// Dataset kind names, in [`Data::specs`] order.
pub const DATASET_KINDS: [&str; 4] = ["Q6Table", "NnWeights", "CamRules", "CamKeys"];

/// A pool with the four datasets registered.
pub struct Served {
    /// Dataset leases (drop before the pool).
    pub handles: Vec<DatasetHandle>,
    /// One session per tenant.
    pub sessions: Vec<PoolClient>,
    /// The pool.
    pub pool: RuntimePool,
    /// The pool's trace ring, when traced.
    pub ring: Option<Arc<RingRecorder>>,
}

/// Builds the pool and registers every dataset, recording a `register`
/// span around each registration into `log`.
pub fn serve(data: &Data, trace: bool, log: &mut SpanLog) -> Served {
    let (pool, ring) = harness::build_pool(pool_config(), trace);
    let sessions: Vec<PoolClient> = (1..=4).map(|t| pool.client(TenantId(t))).collect();
    let handles = data
        .specs()
        .iter()
        .zip(DATASET_KINDS)
        .enumerate()
        .map(|(i, (spec, kind))| {
            let t0 = Instant::now();
            let h = sessions[i]
                .register_dataset(spec)
                .expect("resident dataset fits the pool");
            log.record(0, "register", kind, t0, Instant::now());
            h
        })
        .collect();
    Served {
        handles,
        sessions,
        pool,
        ring,
    }
}

/// The seeded op deck against the served datasets.
fn deck(seed: u64, data: &Data, served: &Served) -> Vec<Op> {
    let mut rng = seeded(seed ^ 0x0D_EC4);
    let ids: Vec<_> = served.handles.iter().map(DatasetHandle::id).collect();
    let rules = RuleSet::generate(RULES, RULE_WIDTH, RULE_WILDCARDS, data.rules_seed);
    let rule_entries: Vec<(BitVec, BitVec)> = rules
        .rules()
        .iter()
        .map(|r| (r.value.clone(), r.care.clone()))
        .collect();
    let key_entries: Vec<(BitVec, BitVec)> = data
        .keys
        .iter()
        .map(|&k| (key_bits(k, KEY_WIDTH), BitVec::ones(KEY_WIDTH)))
        .collect();
    let probe = |rng: &mut StdRng| -> u64 {
        if rng.gen_bool(0.5) {
            data.keys[rng.gen_range(0..KEYS)]
        } else {
            rng.gen::<u64>() & ((1 << KEY_WIDTH) - 1)
        }
    };
    // Kinds 0-5 are the light queries in equal shares; kind 6, a batched
    // NnQuery, is one op in HEAVY_EVERY.
    let heavy = DECK / HEAVY_EVERY;
    let mut kinds: Vec<usize> = (0..DECK - heavy).map(|i| i % 6).collect();
    kinds.extend(std::iter::repeat_n(6, heavy));
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    kinds
        .into_iter()
        .map(|k| match k {
            0 => {
                let params = random_q6_params(&mut rng);
                Op {
                    session: 0,
                    spec: WorkloadSpec::Q6Query {
                        dataset: ids[0],
                        params,
                    },
                    expect: ops::q6_expect(Q6_ROWS, data.table_seed, &params),
                }
            }
            1 | 6 => {
                let n = if k == 1 { NN_INPUTS } else { NN_BATCH_INPUTS };
                let inputs: Vec<BitVec> = (0..n)
                    .map(|_| BitVec::from_fn(NN_DIMS[0], |_| rng.gen_bool(0.5)))
                    .collect();
                Op {
                    session: 1,
                    expect: ops::nn_expect(&data.network, &inputs),
                    spec: WorkloadSpec::NnQuery {
                        dataset: ids[1],
                        inputs,
                    },
                }
            }
            2 => {
                let packets: Vec<u64> = (0..PROBES)
                    .map(|_| rules.sample_packet(&mut rng).words()[0])
                    .collect();
                Op {
                    session: 2,
                    expect: ops::rule_expect(&rules, &packets),
                    spec: WorkloadSpec::RuleClassify {
                        dataset: ids[2],
                        packets,
                    },
                }
            }
            3 => {
                let probes: Vec<u64> = (0..PROBES).map(|_| probe(&mut rng)).collect();
                Op {
                    session: 3,
                    expect: ops::lookup_expect(&data.keys, KEY_WIDTH, &probes),
                    spec: WorkloadSpec::KeyLookup {
                        dataset: ids[3],
                        probes,
                    },
                }
            }
            4 => {
                let keys: Vec<BitVec> = (0..SEARCH_KEYS)
                    .map(|_| rules.sample_packet(&mut rng))
                    .collect();
                Op {
                    session: 2,
                    expect: ops::cam_expect(&rule_entries, &keys, MatchKind::Ternary),
                    spec: WorkloadSpec::CamSearch {
                        dataset: ids[2],
                        kind: MatchKind::Ternary,
                        keys,
                    },
                }
            }
            _ => {
                let keys: Vec<BitVec> = (0..SEARCH_KEYS)
                    .map(|_| key_bits(probe(&mut rng), KEY_WIDTH))
                    .collect();
                Op {
                    session: 3,
                    expect: ops::cam_expect(&key_entries, &keys, MatchKind::Exact),
                    spec: WorkloadSpec::CamSearch {
                        dataset: ids[3],
                        kind: MatchKind::Exact,
                        keys,
                    },
                }
            }
        })
        .collect()
}

/// A rung's seeded Poisson schedule: (due offset in seconds, deck index).
fn schedule(seed: u64, rung: usize, rate: f64, seconds: f64, deck_len: usize) -> Vec<(f64, usize)> {
    let mut rng = seeded(seed ^ (0x5C4E_D000 + rung as u64));
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t, rng.gen_range(0..deck_len)));
    }
}

/// One rung's outcome.
#[derive(Debug)]
struct Rung {
    rate: f64,
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    achieved: f64,
    backlog_grew: bool,
    failed: u64,
}

impl Rung {
    fn p99(&self) -> f64 {
        p99_windowed(&self.lat_ms)
    }

    fn passes(&self) -> bool {
        self.failed == 0 && !self.backlog_grew && self.p99() <= LIMIT_MS
    }
}

struct Sent {
    key: usize,
    due: Instant,
    handle: Result<JobHandle, CompileError>,
}

/// Plays one rung: the generator runs here, the collector on a thread.
///
/// The backlog counts as growing when, at the rung's last submission,
/// more ops are outstanding than the rate offers within the latency
/// limit. A rung more than a second of work behind (outstanding ops or
/// generator lateness) stops early and fails, so an overloaded rung
/// costs neither unbounded time nor unbounded memory; shorter stalls
/// only move that rung's latency windows.
fn play(
    deck: &[Op],
    sessions: &[PoolClient],
    plan: &[(f64, usize)],
    rate: f64,
    tally: &mut Tally,
) -> Rung {
    let mut late_ms = Vec::with_capacity(plan.len());
    let completed = AtomicUsize::new(0);
    let failed_before = tally.failed;
    let within_limit = (rate * LIMIT_MS / 1e3).ceil() as usize;
    let one_second = rate.ceil() as usize;
    let (tx, rx) = channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(2);
    let mut backlog_grew = false;
    let (lat_ms, last_done) = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut lat = Vec::with_capacity(plan.len());
            let mut last = start;
            for m in rx {
                match m.handle {
                    Ok(h) => {
                        let report = h.wait();
                        last = Instant::now();
                        let ms = last.saturating_duration_since(m.due).as_secs_f64() * 1e3;
                        tally.record(&deck[m.key], &report, ms);
                        lat.push(*tally.lat_ms.last().expect("just recorded"));
                    }
                    Err(e) => {
                        eprintln!("perfbench: submit refused: {e}");
                        tally.record_refused();
                        lat.push(f64::INFINITY);
                    }
                }
                completed.fetch_add(1, Ordering::Relaxed);
            }
            (lat, last)
        });
        for (i, &(due_s, key)) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let session = &sessions[deck[key].session];
            let late = due.elapsed().as_secs_f64() * 1e3;
            late_ms.push(late);
            let handle = session.submit(&deck[key].spec);
            session.flush();
            tx.send(Sent { key, due, handle }).expect("collector alive");
            let outstanding = i + 1 - completed.load(Ordering::Relaxed);
            let last_op = i + 1 == plan.len();
            if outstanding > one_second || late > 1e3 || (last_op && outstanding > within_limit) {
                backlog_grew = true;
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let span = last_done.saturating_duration_since(start).as_secs_f64();
    Rung {
        rate,
        achieved: crate::stats::ratio(lat_ms.len() as f64, span),
        lat_ms,
        late_ms,
        backlog_grew,
        failed: tally.failed - failed_before,
    }
}

/// Runs the workload for `seconds`: two closed-loop sessions, each
/// walking the deck from its own offset and submitting every op through
/// the session of the tenant that owns the op's dataset.
pub fn run(seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Pass {
    let data = Data::new(seed);
    let mut setup_log = SpanLog::new(trace, epoch);
    let (served, setup_s) = harness::repeated_setup(|| serve(&data, trace, &mut setup_log));
    let deck = deck(seed, &data, &served);
    if trace {
        harness::verify_spans(
            deck.iter(),
            |op| &served.sessions[op.session],
            &mut setup_log,
        );
    }
    let before = served.pool.telemetry();
    let mut merged = harness::closed_loop(&served.pool, seconds, trace, epoch, |t, deadline, r| {
        let mut k = t * deck.len() / CLIENT_THREADS;
        let mut n = 0u64;
        while Instant::now() < deadline {
            let pos = k % deck.len();
            let op = &deck[pos];
            let id = ((t as u64 + 1) << 40) | n;
            harness::submit_wait(&served.sessions[op.session], op, id, (0, pos), r);
            k += 1;
            n += 1;
        }
    });
    merged.log.absorb(setup_log);
    let (load_s, load_j) = harness::dataset_load_delta(&before, &served.pool.telemetry());
    let peak_rss_mb = harness::peak_rss_mb();
    let pool_events = served.ring.as_ref().map(|r| r.events()).unwrap_or_default();
    drop(served);

    // Replay: every deck op that ran, one at a time, on a fresh pool
    // with the same datasets registered in the same order.
    let replay = serve(&data, false, &mut SpanLog::new(false, epoch));
    let replay_mismatches = harness::replay_mismatches(
        deck.iter().enumerate().map(|(k, op)| ((0, k), op)),
        &merged.outputs,
        |op| &replay.sessions[op.session],
    );
    drop(replay);

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

/// The open-loop rate ladder's outcome.
#[derive(Debug)]
pub struct Ladder {
    /// Achieved rate of the highest rung meeting the latency limit
    /// without a growing backlog, ops/s.
    pub slo_ops_per_s: f64,
    /// How late the generator submitted against each op's due time, p99
    /// over the passing rungs (an overloaded rung's generator falls
    /// behind by design), ms.
    pub late_p99_ms: f64,
    /// One line per rung played.
    pub notes: Vec<String>,
    /// Ops the ladder attempted.
    pub attempted: u64,
    /// Ladder ops failed, refused or wrong.
    pub failed: u64,
}

/// Plays the open-loop ladder for `seconds` on a fresh untraced pool.
pub fn ladder(seed: u64, seconds: f64, epoch: Instant) -> Ladder {
    let data = Data::new(seed);
    let served = serve(&data, false, &mut SpanLog::new(false, epoch));
    let deck = deck(seed, &data, &served);
    let other = seconds * (1.0 - REFERENCE_SHARE) / (LADDER.len() - 1) as f64;
    let mut tally = Tally::default();
    let mut rungs: Vec<Rung> = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let secs = if i == REFERENCE {
            seconds * REFERENCE_SHARE
        } else {
            other
        };
        let plan = schedule(seed, i, rate, secs, deck.len());
        let rung = play(&deck, &served.sessions, &plan, rate, &mut tally);
        let stop = !rung.passes() && i >= REFERENCE;
        rungs.push(rung);
        if stop {
            break;
        }
    }
    drop(served);
    let passed = rungs.iter().take_while(|r| r.passes());
    let passed_late: Vec<f64> = passed
        .clone()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let passing = passed.last();
    Ladder {
        slo_ops_per_s: passing.map_or(0.0, |r| r.achieved),
        attempted: tally.attempted,
        failed: tally.failed,
        late_p99_ms: percentile(&passed_late, 0.99),
        notes: rungs
            .iter()
            .map(|r| {
                format!(
                    "rung {:>6.0} ops/s offered: achieved {:>8.1} ops/s, p99 {:>8.3} ms, \
                     n {:>6}, backlog {}, {}",
                    r.rate,
                    r.achieved,
                    r.p99(),
                    r.lat_ms.len(),
                    if r.backlog_grew { "grew" } else { "steady" },
                    if r.passes() {
                        "meets limit"
                    } else {
                        "misses limit"
                    },
                )
            })
            .collect(),
    }
}
