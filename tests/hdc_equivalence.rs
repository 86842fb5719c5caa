//! Property suite pinning the word-parallel HDC host encoder against the
//! bit-serial algorithm it replaced.
//!
//! The oracles below are private to this file and are the only copy of
//! the old code: a per-bit `rotate`, a per-bit `majority`, a bundler
//! that keeps one `u32` counter per component and fills it by walking
//! set bits, and an n-gram encoder that rotates every item vector per
//! n-gram. They build vectors one `set` per bit, never through the
//! word-parallel constructors under test. The suite asserts bit identity
//! for
//!
//! * `BitVec::from_fn` and `Hypervector::random` — same bits from the
//!   same RNG draws;
//! * `BitVec::rotate` — any length (including `len % 64 != 0`) and any
//!   shift (including `k ≥ len`);
//! * `BitVec::majority` — odd input counts;
//! * `Bundler` — odd and even bundle sizes, so exact ties read the
//!   tie-break vector;
//! * `NgramEncoder::encode_sequence` — d ∈ {77, 130, 1000, 1024, 2048,
//!   4096} and n ∈ {1, …, 5};
//! * `BiosignalEncoder::encode_recording`.

use cim_repro::cim_hdc::encoder::{BiosignalEncoder, NgramEncoder};
use cim_repro::cim_hdc::hypervector::{Bundler, Hypervector};
use cim_repro::cim_hdc::item_memory::{ContinuousItemMemory, ItemMemory};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// Hypervector dimensions the encoder is pinned at: word-aligned and not.
const DIMS: [usize; 6] = [77, 130, 1000, 1024, 2048, 4096];

/// Bundler tie-break seeds the encoders use.
const NGRAM_TIEBREAK: u64 = 0x9e37;
const TIMESTEP_TIEBREAK: u64 = 0xb105;
const RECORDING_TIEBREAK: u64 = 0x5e9;

/// Builds a vector one `set` per bit, calling `f` in index order.
fn per_bit(len: usize, f: impl FnMut(usize) -> bool) -> BitVec {
    BitVec::from_bools(&(0..len).map(f).collect::<Vec<_>>())
}

/// One `gen::<bool>()` draw per component, component 0 first.
fn random_ref(d: usize, seed: u64) -> BitVec {
    let mut rng = seeded(seed);
    per_bit(d, |_| rng.gen::<bool>())
}

/// Bit-serial rotation: bit `i` of the result is bit `(i + len - k) % len`.
fn rotate_ref(v: &BitVec, k: usize) -> BitVec {
    let len = v.len();
    if len == 0 {
        return v.clone();
    }
    let k = k % len;
    per_bit(len, |i| v.get((i + len - k) % len))
}

/// Bit-serial majority: bit `i` is set when more than half the inputs set it.
fn majority_ref(vs: &[&BitVec]) -> BitVec {
    let threshold = vs.len() / 2;
    per_bit(vs[0].len(), |i| {
        vs.iter().filter(|v| v.get(i)).count() > threshold
    })
}

/// The per-component `u32` counter bundler.
struct BundlerRef {
    counts: Vec<u32>,
    n: u32,
    tiebreak: BitVec,
}

impl BundlerRef {
    fn new(d: usize, tiebreak_seed: u64) -> Self {
        BundlerRef {
            counts: vec![0; d],
            n: 0,
            tiebreak: random_ref(d, tiebreak_seed),
        }
    }

    fn add(&mut self, v: &BitVec) {
        for i in v.iter_ones() {
            self.counts[i] += 1;
        }
        self.n += 1;
    }

    fn finalize(&self) -> BitVec {
        let n = self.n;
        per_bit(self.counts.len(), |i| {
            let c = 2 * self.counts[i];
            if c == n {
                self.tiebreak.get(i)
            } else {
                c > n
            }
        })
    }
}

/// Rotate-per-n-gram sequence encoding:
/// `G = ρ^{n−1}(L₁) ⊗ ρ^{n−2}(L₂) ⊗ … ⊗ Lₙ`, bundled over all windows.
fn encode_sequence_ref(items: &ItemMemory, n: usize, symbols: &[usize]) -> BitVec {
    let mut bundler = BundlerRef::new(items.dim(), NGRAM_TIEBREAK);
    for window in symbols.windows(n) {
        let mut acc = BitVec::zeros(items.dim());
        for (i, &s) in window.iter().enumerate() {
            acc = acc.xor(&rotate_ref(items.get(s).bits(), n - 1 - i));
        }
        bundler.add(&acc);
    }
    bundler.finalize()
}

/// Bundle over channels of `channel ⊗ level(sample)` per time step, then
/// over time steps.
fn encode_recording_ref(
    channels: &ItemMemory,
    levels: &ContinuousItemMemory,
    recording: &[Vec<f64>],
) -> BitVec {
    let d = channels.dim();
    let mut outer = BundlerRef::new(d, RECORDING_TIEBREAK);
    for step in recording {
        let mut inner = BundlerRef::new(d, TIMESTEP_TIEBREAK);
        for (ch, &v) in step.iter().enumerate() {
            inner.add(&channels.get(ch).bits().xor(levels.encode(v).bits()));
        }
        outer.add(&inner.finalize());
    }
    outer.finalize()
}

/// A random `len`-bit vector whose density is `ones_per_8 / 8`.
fn biased_vec(len: usize, ones_per_8: u64, seed: u64) -> BitVec {
    let mut rng = seeded(seed);
    per_bit(len, |_| rng.gen_range(0..8u64) < ones_per_8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_fn_and_random_match_per_bit_construction(
        len in 1usize..300,
        d_idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = seeded(seed);
        let mut calls = Vec::new();
        let v = BitVec::from_fn(len, |i| {
            calls.push(i);
            rng.gen::<bool>()
        });
        prop_assert_eq!(calls, (0..len).collect::<Vec<_>>());
        prop_assert_eq!(v, random_ref(len, seed));
        let d = DIMS[d_idx];
        let hv = Hypervector::random(d, &mut seeded(seed));
        prop_assert_eq!(hv.bits(), &random_ref(d, seed));
    }

    #[test]
    fn rotate_matches_bit_serial(
        len in 0usize..300,
        k in 0usize..700,
        density in 0u64..9,
        seed in any::<u64>(),
    ) {
        let v = biased_vec(len, density, seed);
        prop_assert_eq!(v.rotate(k), rotate_ref(&v, k));
    }

    #[test]
    fn rotate_matches_bit_serial_at_every_word_boundary(
        words in 1usize..5,
        tail in 0usize..64,
        seed in any::<u64>(),
    ) {
        let len = words * 64 + tail;
        let v = biased_vec(len, 4, seed);
        for k in [0, 1, 63, 64, 65, len - 1, len, len + 1, 2 * len + 7] {
            prop_assert_eq!(v.rotate(k), rotate_ref(&v, k), "len {} k {}", len, k);
        }
    }

    #[test]
    fn majority_matches_bit_serial(
        len in 1usize..300,
        half in 0usize..8,
        density in 0u64..9,
        seed in any::<u64>(),
    ) {
        let count = 2 * half + 1;
        let vs: Vec<BitVec> = (0..count)
            .map(|i| biased_vec(len, density, seed ^ (i as u64).wrapping_mul(0x9e37_79b9)))
            .collect();
        let refs: Vec<&BitVec> = vs.iter().collect();
        prop_assert_eq!(BitVec::majority(&refs), majority_ref(&refs));
    }

    #[test]
    fn bundler_matches_u32_counters(
        d_idx in 0usize..6,
        count in 1usize..40,
        density in 0u64..9,
        tiebreak_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let d = DIMS[d_idx];
        let mut fast = Bundler::new(d, tiebreak_seed);
        let mut oracle = BundlerRef::new(d, tiebreak_seed);
        for i in 0..count {
            let v = biased_vec(d, density, seed.wrapping_add(i as u64));
            fast.add(&Hypervector::from_bits(v.clone()));
            oracle.add(&v);
        }
        prop_assert_eq!(fast.len() as usize, count);
        let bundled = fast.finalize();
        prop_assert_eq!(bundled.bits(), &oracle.finalize());
    }

    #[test]
    fn ngram_encoder_matches_rotate_per_ngram(
        d_idx in 0usize..6,
        n in 1usize..6,
        extra in 0usize..60,
        symbols in 1usize..28,
        im_seed in any::<u64>(),
        text_seed in any::<u64>(),
    ) {
        let d = DIMS[d_idx];
        let items = ItemMemory::new(symbols, d, im_seed);
        let encoder = NgramEncoder::new(items.clone(), n);
        let mut rng = seeded(text_seed);
        let text: Vec<usize> = (0..n + extra)
            .map(|_| rng.gen_range(0..symbols))
            .collect();
        let fast = encoder.encode_sequence(&text);
        prop_assert_eq!(fast.bits(), &encode_sequence_ref(&items, n, &text));
    }

    #[test]
    fn biosignal_encoder_matches_bit_serial(
        d_idx in 0usize..6,
        channels in 1usize..7,
        steps in 1usize..12,
        levels in 2usize..16,
        seed in any::<u64>(),
    ) {
        let d = DIMS[d_idx];
        let channel_memory = ItemMemory::new(channels, d, seed);
        let level_memory = ContinuousItemMemory::new(levels, d, 0.0, 1.0, seed ^ 0x1e7e1);
        let encoder = BiosignalEncoder::new(channel_memory.clone(), level_memory.clone());
        let mut rng = seeded(seed.wrapping_add(1));
        let recording: Vec<Vec<f64>> = (0..steps)
            .map(|_| (0..channels).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let fast = encoder.encode_recording(&recording);
        prop_assert_eq!(
            fast.bits(),
            &encode_recording_ref(&channel_memory, &level_memory, &recording)
        );
    }
}

#[test]
fn ngram_encoder_matches_at_every_pinned_dimension_and_order() {
    // The deterministic sweep behind the property above: every listed
    // dimension with every n-gram order, over a natural-language-sized
    // alphabet.
    for &d in &DIMS {
        for n in 1..=5 {
            let items = ItemMemory::new(27, d, 0x1e77e4);
            let encoder = NgramEncoder::new(items.clone(), n);
            let mut rng = seeded((d * 31 + n) as u64);
            let text: Vec<usize> = (0..120).map(|_| rng.gen_range(0..27)).collect();
            assert_eq!(
                encoder.encode_sequence(&text).bits(),
                &encode_sequence_ref(&items, n, &text),
                "d = {d}, n = {n}"
            );
        }
    }
}
