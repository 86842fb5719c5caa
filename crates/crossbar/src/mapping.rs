//! Value ↔ conductance mapping for analog crossbars.
//!
//! Matrix coefficients must be encoded as device conductances inside the
//! physical window `[g_min, g_max]`. [`ConductanceMapping`] handles the
//! affine map for non-negative weights; signed matrices are split into a
//! positive and a negative part programmed on separate arrays whose column
//! currents are subtracted (the paper's "positive and negative elements …
//! coded on separate devices together with a subtraction circuit").
//!
//! The `g_min` offset every zero-weight device still conducts is removed
//! exactly by the simulator's reference-column subtraction, mirroring the
//! standard dummy-column technique in silicon.

use cim_simkit::linalg::Matrix;
use cim_simkit::units::Siemens;

/// Affine mapping between weight magnitude `[0, w_max]` and conductance
/// `[g_min, g_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConductanceMapping {
    g_min: Siemens,
    g_max: Siemens,
    w_max: f64,
}

impl ConductanceMapping {
    /// Creates a mapping for weights in `[0, w_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `w_max <= 0` or the conductance window is empty.
    pub fn new(g_min: Siemens, g_max: Siemens, w_max: f64) -> Self {
        assert!(w_max > 0.0, "w_max must be positive, got {w_max}");
        assert!(
            g_min.0 >= 0.0 && g_max.0 > g_min.0,
            "invalid conductance window [{}, {}]",
            g_min.0,
            g_max.0
        );
        ConductanceMapping {
            g_min,
            g_max,
            w_max,
        }
    }

    /// The weight magnitude mapped to full conductance.
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// Lower end of the conductance window (the zero-weight level).
    pub fn g_min(&self) -> Siemens {
        self.g_min
    }

    /// Upper end of the conductance window.
    pub fn g_max(&self) -> Siemens {
        self.g_max
    }

    /// Maps a weight magnitude to its target conductance, clipping to
    /// `[0, w_max]`.
    pub fn weight_to_conductance(&self, w: f64) -> Siemens {
        let t = (w / self.w_max).clamp(0.0, 1.0);
        Siemens(self.g_min.0 + t * (self.g_max.0 - self.g_min.0))
    }

    /// Maps a conductance back to the weight it encodes (inverse of
    /// [`Self::weight_to_conductance`], without clipping so read noise can
    /// produce slightly out-of-range weights).
    pub fn conductance_to_weight(&self, g: Siemens) -> f64 {
        (g.0 - self.g_min.0) / (self.g_max.0 - self.g_min.0) * self.w_max
    }

    /// Chooses `w_max` from the largest absolute entry of a matrix,
    /// with 10 % headroom so program-and-verify never targets the exact
    /// window edge.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is all zeros.
    pub fn for_matrix(g_min: Siemens, g_max: Siemens, m: &Matrix) -> Self {
        ConductanceMapping::for_max_abs(g_min, g_max, m.max_abs())
    }

    /// [`Self::for_matrix`] for a matrix whose largest absolute entry is
    /// `max_abs`.
    ///
    /// # Panics
    ///
    /// Panics if `max_abs` is zero.
    pub fn for_max_abs(g_min: Siemens, g_max: Siemens, max_abs: f64) -> Self {
        let w_max = max_abs * 1.1;
        assert!(
            w_max > 0.0,
            "cannot derive a mapping from an all-zero matrix"
        );
        ConductanceMapping::new(g_min, g_max, w_max)
    }
}

/// Splits a signed matrix into `(positive_part, negative_part)` where
/// `m = positive_part - negative_part` and both parts are non-negative —
/// the differential-pair encoding.
pub fn split_signed(m: &Matrix) -> (Matrix, Matrix) {
    let part = |f: fn(f64) -> f64| {
        Matrix::from_vec(
            m.rows(),
            m.cols(),
            m.as_slice().iter().copied().map(f).collect(),
        )
    };
    (part(positive_part), part(negative_part))
}

/// The positive half of a signed weight, `max(w, 0)`.
pub(crate) fn positive_part(w: f64) -> f64 {
    w.max(0.0)
}

/// The magnitude of a signed weight's negative half, `max(−w, 0)`.
pub(crate) fn negative_part(w: f64) -> f64 {
    (-w).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> ConductanceMapping {
        ConductanceMapping::new(Siemens(0.1e-6), Siemens(20e-6), 2.0)
    }

    #[test]
    fn endpoints_map_to_window_edges() {
        let m = mapping();
        assert_eq!(m.weight_to_conductance(0.0), Siemens(0.1e-6));
        assert_eq!(m.weight_to_conductance(2.0), Siemens(20e-6));
    }

    #[test]
    fn round_trip_is_identity() {
        let m = mapping();
        for i in 0..=20 {
            let w = 2.0 * i as f64 / 20.0;
            let g = m.weight_to_conductance(w);
            assert!((m.conductance_to_weight(g) - w).abs() < 1e-12);
        }
    }

    #[test]
    fn clipping_beyond_w_max() {
        let m = mapping();
        assert_eq!(m.weight_to_conductance(5.0), Siemens(20e-6));
        assert_eq!(m.weight_to_conductance(-1.0), Siemens(0.1e-6));
    }

    #[test]
    fn inverse_extrapolates_for_noisy_reads() {
        let m = mapping();
        // A read slightly above g_max decodes to slightly above w_max.
        let w = m.conductance_to_weight(Siemens(20.2e-6));
        assert!(w > 2.0);
    }

    #[test]
    fn for_matrix_adds_headroom() {
        let mat = Matrix::from_rows(&[&[1.0, -3.0], &[0.5, 2.0]]);
        let m = ConductanceMapping::for_matrix(Siemens(0.1e-6), Siemens(20e-6), &mat);
        assert!((m.w_max() - 3.3).abs() < 1e-12);
    }

    #[test]
    fn split_signed_reconstructs() {
        let mat = Matrix::from_rows(&[&[1.0, -3.0], &[0.0, 2.0]]);
        let (p, n) = split_signed(&mat);
        for i in 0..2 {
            for j in 0..2 {
                assert!(p.get(i, j) >= 0.0 && n.get(i, j) >= 0.0);
                assert_eq!(p.get(i, j) - n.get(i, j), mat.get(i, j));
                // At most one of the two parts is nonzero.
                assert!(p.get(i, j) == 0.0 || n.get(i, j) == 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "all-zero matrix")]
    fn zero_matrix_has_no_mapping() {
        let _ =
            ConductanceMapping::for_matrix(Siemens(0.1e-6), Siemens(20e-6), &Matrix::zeros(2, 2));
    }
}
