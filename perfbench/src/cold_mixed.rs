//! `cold_mixed`: self-contained jobs from two closed-loop sessions.
//!
//! Every job carries its own data (no resident datasets), so host-side
//! compile dominates: HDC training and encoding, Q6 table and index
//! build, weight preparation, plus the cost-driven planner's host lane.
//! At most two jobs are in flight, so shard scheduling barely matters.

use crate::harness::{self, ThreadResult, CLIENT_THREADS};
use crate::ops::{self, Expect, Op};
use crate::Pass;
use cim_bitmap_db::tpch::Q6Params;
use cim_crossbar::ScoutOp;
use cim_imgproc::image::GrayImage;
use cim_nn::binarized::BinarizedMlp;
use cim_runtime::{ImgFilterOp, OffloadPolicy, PoolConfig, TenantId, WorkloadSpec};
use cim_simkit::bitvec::BitVec;
use cim_simkit::rng::seeded;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops per session deck; each session cycles its own deck.
const DECK: usize = 100;
/// Q6 table rows per `Q6Select` job.
pub const Q6_ROWS: usize = 2000;
/// HDC sizes: 4 classes × 400 training symbols keeps most of the
/// caller-thread time in HDC training while a run stays short.
pub const HDC_CLASSES: usize = 4;
/// Training symbols per HDC class.
pub const HDC_TRAIN_LEN: usize = 400;
/// Symbols per HDC query.
pub const HDC_SAMPLE_LEN: usize = 100;
/// `HdcClassify` hypervector dimension.
pub const HDC_D: usize = 2048;
/// `HdcAssoc` dimension: one digital tile's width.
const HDC_ASSOC_D: usize = 1024;
/// Binarized MLP shape of the `NnInfer` jobs (and the resident weights).
pub const NN_DIMS: [usize; 3] = [256, 32, 8];

/// The pool: cost-driven host offload, compiled programs not re-verified.
pub fn pool_config() -> PoolConfig {
    PoolConfig {
        offload_policy: OffloadPolicy::CostDriven { threshold: 1.0 },
        verify_all_programs: false,
        ..PoolConfig::with_shards(2)
    }
}

/// Per-deck op counts: 2 + 2 HDC jobs among 100 ops.
///
/// Sorted by latency, the deck is 25 XOR and scout jobs (under 0.1 ms),
/// 10 box filters, 35 `NnInfer` jobs, then guided filters, Q6 and HDC.
/// `NnInfer` has one fixed shape, so its latencies form a single mode,
/// and the median op (rank 50 of 100) lies inside that mode, with 14
/// `NnInfer` ranks below it and 20 above. A median that sits where two
/// kinds meet flips between them with small shifts of either, and moves
/// far more than the host's speed does.
const MIX: [(&str, usize); 8] = [
    ("hdc_classify", 2),
    ("hdc_assoc", 2),
    ("q6", 16),
    ("xor", 12),
    ("scout", 13),
    ("img_box", 10),
    ("img_guided", 10),
    ("nn", 35),
];

fn random_bits(len: usize, density: f64, rng: &mut StdRng) -> BitVec {
    BitVec::from_fn(len, |_| rng.gen_bool(density))
}

/// A random Q6 parameter set.
pub fn random_q6_params(rng: &mut StdRng) -> Q6Params {
    Q6Params {
        year: rng.gen_range(0..7u16),
        discount: rng.gen_range(1..10u8),
        max_quantity: rng.gen_range(2..51u8),
    }
}

/// Op `nth` of its kind in a deck. The seed draws the data; the shape
/// parameters that set an op's cost are fixed or alternate with `nth`.
fn make_op(kind: &str, nth: usize, session: usize, rng: &mut StdRng) -> Op {
    let (spec, expect) = match kind {
        "hdc_classify" => (
            WorkloadSpec::HdcClassify {
                classes: HDC_CLASSES,
                d: HDC_D,
                ngram: 3,
                train_len: HDC_TRAIN_LEN,
                samples: 4,
                sample_len: HDC_SAMPLE_LEN,
            },
            Expect::Hdc,
        ),
        "hdc_assoc" => (
            WorkloadSpec::HdcAssoc {
                classes: HDC_CLASSES,
                d: HDC_ASSOC_D,
                ngram: 3,
                train_len: HDC_TRAIN_LEN,
                samples: 4,
                sample_len: HDC_SAMPLE_LEN,
            },
            Expect::Hdc,
        ),
        "q6" => {
            let table_seed = rng.gen();
            let params = random_q6_params(rng);
            (
                WorkloadSpec::Q6Select {
                    rows: Q6_ROWS,
                    table_seed,
                    params,
                },
                ops::q6_expect(Q6_ROWS, table_seed, &params),
            )
        }
        "xor" => {
            let message: Vec<u8> = (0..512).map(|_| rng.gen()).collect();
            let key_seed = rng.gen();
            let expect = ops::xor_expect(&message, key_seed);
            (WorkloadSpec::XorEncrypt { message, key_seed }, expect)
        }
        "scout" => {
            let (op, n) = match rng.gen_range(0..3) {
                0 => (ScoutOp::Or, rng.gen_range(2..9)),
                1 => (ScoutOp::And, rng.gen_range(2..9)),
                _ => (ScoutOp::Xor, 2),
            };
            let rows: Vec<BitVec> = (0..n).map(|_| random_bits(1024, 0.5, rng)).collect();
            let expect = ops::scout_expect(op, &rows);
            (WorkloadSpec::ScoutBulk { op, rows }, expect)
        }
        "img_box" | "img_guided" => {
            let image = GrayImage::from_fn(48, 48, |x, y| {
                (((x * 7 + y * 13) % 32) as f64 / 32.0 + rng.gen::<f64>() * 0.25).min(1.0)
            });
            let radius = 1 + nth % 2;
            let filter = if kind == "img_box" {
                ImgFilterOp::Box { radius }
            } else {
                ImgFilterOp::Guided {
                    radius,
                    epsilon: 0.01,
                }
            };
            let expect = ops::img_expect(&image, &filter);
            (WorkloadSpec::ImgFilter { image, filter }, expect)
        }
        "nn" => {
            let network = BinarizedMlp::random(&NN_DIMS, rng.gen());
            let inputs: Vec<BitVec> = (0..4).map(|_| random_bits(NN_DIMS[0], 0.5, rng)).collect();
            let expect = ops::nn_expect(&network, &inputs);
            (WorkloadSpec::NnInfer { network, inputs }, expect)
        }
        other => unreachable!("unknown op kind {other}"),
    };
    Op {
        session,
        spec,
        expect,
    }
}

/// One seeded deck per session: fixed kind counts in a seeded order.
fn decks(seed: u64) -> Vec<Vec<Op>> {
    (0..CLIENT_THREADS)
        .map(|t| {
            let mut rng = seeded(seed ^ (0xC01D_0000 + t as u64));
            let mut kinds: Vec<&str> = MIX
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .collect();
            debug_assert_eq!(kinds.len(), DECK);
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.gen_range(0..=i));
            }
            let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
            kinds
                .iter()
                .map(|&k| {
                    let nth = seen.entry(k).or_default();
                    *nth += 1;
                    make_op(k, *nth - 1, t, &mut rng)
                })
                .collect()
        })
        .collect()
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Pass {
    let decks = decks(seed);
    let ((pool, ring), setup_s) =
        harness::repeated_setup(|| harness::build_pool(pool_config(), trace));
    let sessions: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| pool.client(TenantId(t as u32 + 1)))
        .collect();
    let mut verify_log = crate::trace::SpanLog::new(trace, epoch);
    if trace {
        harness::verify_spans(
            decks.iter().flatten(),
            |op| &sessions[op.session],
            &mut verify_log,
        );
    }
    let before = pool.telemetry();
    let mut merged = harness::closed_loop(
        &pool,
        seconds,
        trace,
        epoch,
        |t, deadline, r: &mut ThreadResult| {
            let deck = &decks[t];
            let mut k = 0usize;
            while Instant::now() < deadline {
                let op = &deck[k % deck.len()];
                let id = ((t as u64 + 1) << 40) | k as u64;
                harness::submit_wait(&sessions[t], op, id, (t, k % deck.len()), r);
                k += 1;
            }
        },
    );
    merged.log.absorb(verify_log);
    let (load_s, load_j) = harness::dataset_load_delta(&before, &pool.telemetry());
    let peak_rss_mb = harness::peak_rss_mb();
    let pool_events = ring.map(|r| r.events()).unwrap_or_default();
    drop(sessions);
    drop(pool);

    // Replay every exact-contract op that ran through one sequential
    // session on a fresh pool.
    let (replay_pool, _) = harness::build_pool(pool_config(), false);
    let replay_session = replay_pool.client(TenantId(1));
    let all = decks
        .iter()
        .enumerate()
        .flat_map(|(t, d)| d.iter().enumerate().map(move |(k, op)| ((t, k), op)));
    let replay_mismatches = harness::replay_mismatches(all, &merged.outputs, |_| &replay_session);

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
