//! The hypervector algebra: the MAP operations.
//!
//! * **Multiplication** = componentwise XOR (`⊗`): binds two
//!   hypervectors into one that is quasi-orthogonal to both, and is its
//!   own inverse (`(a ⊗ b) ⊗ b = a`).
//! * **Addition** = componentwise majority (`[a + b + …]`): bundles a
//!   set into a vector *similar* to every member; ties (even counts) are
//!   broken by a pseudo-random tiebreak vector, matching the paper's
//!   "ties broken at random".
//! * **Permutation** (`ρ`) = cyclic rotation: encodes sequence position;
//!   preserves distances and distributes over XOR.
//!
//! All operations return vectors of the same dimension — hypervectors
//! are fixed-width, which is what makes them memory-friendly.

use cim_simkit::bitvec::{BitCounter, BitVec};
use rand::Rng;

/// A d-dimensional binary hypervector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hypervector {
    bits: BitVec,
}

impl Hypervector {
    /// Draws a uniform random hypervector of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn random<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Self {
        assert!(d > 0, "dimension must be nonzero");
        Hypervector {
            bits: BitVec::from_fn(d, |_| rng.gen::<bool>()),
        }
    }

    /// Wraps an existing bit vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector is empty.
    pub fn from_bits(bits: BitVec) -> Self {
        assert!(!bits.is_empty(), "empty hypervector");
        Hypervector { bits }
    }

    /// The all-zeros hypervector (identity of XOR binding).
    pub fn zeros(d: usize) -> Self {
        assert!(d > 0, "dimension must be nonzero");
        Hypervector {
            bits: BitVec::zeros(d),
        }
    }

    /// Dimension d.
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// The underlying bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// MAP multiplication: componentwise XOR binding.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn bind(&self, other: &Self) -> Self {
        Hypervector {
            bits: self.bits.xor(&other.bits),
        }
    }

    /// In-place MAP multiplication: `self ⊗= other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn bind_assign(&mut self, other: &Self) {
        self.bits.xor_assign(&other.bits);
    }

    /// MAP permutation ρ^k: cyclic rotation by `k` positions.
    pub fn permute(&self, k: usize) -> Self {
        Hypervector {
            bits: self.bits.rotate(k),
        }
    }

    /// Hamming distance to another hypervector.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hamming(&self, other: &Self) -> usize {
        self.bits.hamming(&other.bits)
    }

    /// Hamming distance normalized to `[0, 1]` (0.5 ⇒ quasi-orthogonal).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        self.hamming(other) as f64 / self.dim() as f64
    }

    /// Integer dot product of the 0/1 vectors (the overlap an analog
    /// crossbar column reports).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &Self) -> usize {
        self.bits.dot(&other.bits)
    }

    /// MAP addition of an odd number of hypervectors: exact
    /// componentwise majority.
    ///
    /// # Panics
    ///
    /// Panics if `vs` is empty, even-sized, or dimensions differ.
    pub fn majority(vs: &[&Self]) -> Self {
        let bit_refs: Vec<&BitVec> = vs.iter().map(|v| &v.bits).collect();
        Hypervector {
            bits: BitVec::majority(&bit_refs),
        }
    }
}

/// Incremental majority bundling with deterministic pseudo-random tie
/// breaking — the practical form of MAP addition for large, possibly
/// even, bundle sizes. Per-component counts live in bit-sliced
/// carry-save planes ([`BitCounter`]), so adding a vector is a few word
/// operations per 64 components.
#[derive(Debug, Clone)]
pub struct Bundler {
    counts: BitCounter,
    tiebreak: Hypervector,
}

impl Bundler {
    /// Creates a bundler for dimension `d`; `tiebreak_seed` fixes the
    /// random tie-break vector so bundling is reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: usize, tiebreak_seed: u64) -> Self {
        assert!(d > 0, "dimension must be nonzero");
        let mut rng = cim_simkit::rng::seeded(tiebreak_seed);
        Bundler {
            counts: BitCounter::new(d),
            tiebreak: Hypervector::random(d, &mut rng),
        }
    }

    /// Adds one hypervector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimension differs.
    pub fn add(&mut self, hv: &Hypervector) {
        assert_eq!(hv.dim(), self.tiebreak.dim(), "dimension mismatch");
        self.counts.add(&hv.bits);
    }

    /// Number of vectors bundled so far.
    pub fn len(&self) -> u32 {
        self.counts.added() as u32
    }

    /// `true` if nothing was added yet.
    pub fn is_empty(&self) -> bool {
        self.counts.added() == 0
    }

    /// Finalizes the bundle: bit `i` is 1 when strictly more than half
    /// of the added vectors set it; exact ties follow the tie-break
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if the bundle is empty.
    pub fn finalize(&self) -> Hypervector {
        let n = self.counts.added();
        assert!(n > 0, "cannot finalize an empty bundle");
        // 2c > n ⇔ c > ⌊n/2⌋; a tie 2c == n exists only for even n.
        let (mut bits, at_half) = self.counts.compare(n / 2);
        if n.is_multiple_of(2) {
            bits.or_assign(&at_half.and(&self.tiebreak.bits));
        }
        Hypervector { bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_simkit::rng::seeded;

    const D: usize = 4096;

    #[test]
    fn random_vectors_are_dense_and_balanced() {
        let mut rng = seeded(1);
        let hv = Hypervector::random(D, &mut rng);
        let ones = hv.bits().count_ones() as f64 / D as f64;
        assert!((ones - 0.5).abs() < 0.05, "density {ones}");
    }

    #[test]
    fn quasi_orthogonality() {
        let mut rng = seeded(2);
        let vs: Vec<Hypervector> = (0..20).map(|_| Hypervector::random(D, &mut rng)).collect();
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                let d = vs[i].normalized_hamming(&vs[j]);
                assert!((d - 0.5).abs() < 0.05, "pair ({i},{j}) distance {d}");
            }
        }
    }

    #[test]
    fn binding_is_self_inverse_and_commutative() {
        let mut rng = seeded(3);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        assert_eq!(a.bind(&b).bind(&b), a);
        assert_eq!(a.bind(&b), b.bind(&a));
        assert_eq!(a.bind(&Hypervector::zeros(D)), a);
    }

    #[test]
    fn binding_is_distance_preserving() {
        let mut rng = seeded(4);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        let c = Hypervector::random(D, &mut rng);
        assert_eq!(a.hamming(&b), a.bind(&c).hamming(&b.bind(&c)));
    }

    #[test]
    fn bound_vector_is_dissimilar_to_both_factors() {
        let mut rng = seeded(5);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        let ab = a.bind(&b);
        assert!((ab.normalized_hamming(&a) - 0.5).abs() < 0.05);
        assert!((ab.normalized_hamming(&b) - 0.5).abs() < 0.05);
    }

    #[test]
    fn permutation_preserves_weight_and_inverts() {
        let mut rng = seeded(6);
        let a = Hypervector::random(D, &mut rng);
        let p = a.permute(17);
        assert_eq!(p.bits().count_ones(), a.bits().count_ones());
        assert_eq!(p.permute(D - 17), a);
        // A rotated vector is quasi-orthogonal to the original.
        assert!((p.normalized_hamming(&a) - 0.5).abs() < 0.05);
    }

    #[test]
    fn permutation_distributes_over_binding() {
        let mut rng = seeded(7);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        assert_eq!(a.bind(&b).permute(5), a.permute(5).bind(&b.permute(5)));
    }

    #[test]
    fn majority_is_similar_to_members() {
        let mut rng = seeded(8);
        let vs: Vec<Hypervector> = (0..5).map(|_| Hypervector::random(D, &mut rng)).collect();
        let refs: Vec<&Hypervector> = vs.iter().collect();
        let m = Hypervector::majority(&refs);
        let outsider = Hypervector::random(D, &mut rng);
        for v in &vs {
            let d_member = m.normalized_hamming(v);
            let d_out = m.normalized_hamming(&outsider);
            assert!(
                d_member < d_out - 0.05,
                "member {d_member} vs outsider {d_out}"
            );
        }
    }

    #[test]
    fn bundler_matches_exact_majority_for_odd_sets() {
        let mut rng = seeded(9);
        let vs: Vec<Hypervector> = (0..7).map(|_| Hypervector::random(D, &mut rng)).collect();
        let refs: Vec<&Hypervector> = vs.iter().collect();
        let exact = Hypervector::majority(&refs);
        let mut bundler = Bundler::new(D, 0);
        for v in &vs {
            bundler.add(v);
        }
        assert_eq!(bundler.finalize(), exact);
    }

    #[test]
    fn bundler_handles_even_sets_deterministically() {
        let mut rng = seeded(10);
        let vs: Vec<Hypervector> = (0..6).map(|_| Hypervector::random(D, &mut rng)).collect();
        let run = |seed| {
            let mut b = Bundler::new(D, seed);
            for v in &vs {
                b.add(v);
            }
            b.finalize()
        };
        assert_eq!(run(1), run(1));
        // Different tiebreak seeds may differ, but only on tie positions:
        // both bundles stay similar to all members.
        let m = run(1);
        for v in &vs {
            assert!(m.normalized_hamming(v) < 0.45);
        }
        assert!(Bundler::new(D, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty bundle")]
    fn empty_bundle_rejected() {
        let _ = Bundler::new(16, 0).finalize();
    }
}
