//! Struct-of-arrays storage for an array of multi-level PCM devices.
//!
//! [`PcmBank`] is the analog counterpart of [`crate::bank::ReramBank`]: it
//! holds the state of a `rows × cols` array of [`crate::pcm::PcmDevice`]
//! cells as flat row-major vectors — programmed conductance and the
//! per-device lifetime pulse ledger — in fabrication order, so that
//! array-level simulators can run vectorized matrix-vector products over
//! contiguous conductance slices instead of chasing per-device structs.
//!
//! Two contracts tie the bank to the behavioural device model:
//!
//! * **State identity.** A fresh bank holds every device in the
//!   fully-RESET state (`g_min`), exactly like `PcmDevice::new`; PCM
//!   fabrication in this model is deterministic, so no RNG is consumed.
//! * **Programming equivalence.** [`PcmBank::program_and_verify`] keeps
//!   the per-device law of `PcmDevice::program_and_verify` exactly — with
//!   `sigma_prog == 0` the stored state is bit-identical to the
//!   behavioural model — but samples the noisy case in *closed form*
//!   rather than pulse by pulse. The sequential loop draws one normal per
//!   pulse until the clamped write lands within tolerance; equivalently,
//!   the pulse count is geometric in the acceptance probability of the
//!   clamped-normal write, and the final conductance is that write
//!   conditioned on acceptance (or on rejection when the pulse budget
//!   runs out), independent of the count. The bank samples exactly that
//!   joint distribution — a geometric draw by inversion plus one
//!   inverse-CDF draw of the conditioned normal — spending two uniforms
//!   per device instead of one normal per pulse. Pulse counts, wear
//!   ledger, clamping and convergence marginals are identical in
//!   distribution to the per-device loop; the raw RNG stream is consumed
//!   differently, so noisy trajectories are not draw-for-draw identical.
//!
//! Three shortcuts keep the sampler cheap without changing a single draw
//! or stored bit. Every device still consumes its two uniforms in
//! fabrication order; only arithmetic whose result is already decided
//! is skipped.
//!
//! * **Per-target memo.** A device's law depends on its target alone:
//!   the clamp positions, the acceptance interval `[pa, pa + p]` and the
//!   geometric factor `1/ln(1−p)`. Targets come in long runs (zero
//!   padding, ±1 weights, uniform scrub patterns), so the constants are
//!   memoised on the previous target's bits and recomputed only when the
//!   target changes.
//! * **Rail shortcut.** For a target exactly on `g_min`, a converged
//!   quantile `pa + v·p ≤ 0.5` gives `z ≤ 0` (the inverse normal CDF is
//!   non-positive on `[0, 0.5]`), so the write lands at or below the rail
//!   and the clamp stores `g_min` whatever `z` is; the inverse CDF is not
//!   evaluated. Targets exactly on `g_max` mirror this for quantiles
//!   `≥ 0.5`. Zero weights map exactly onto `g_min`, so this covers every
//!   padding device and every negative-half device of a ±1 layer.
//! * **One-pulse threshold.** A device takes one pulse exactly when its
//!   count uniform `u` is at least `1 − p`. Each law also stores a bound
//!   a relative margin of `2⁻²⁰` (in `ln u`) above that threshold, far
//!   beyond the rounding error of `ln`, `exp` and a product. A uniform
//!   at or above the bound therefore gets the count the logarithm would
//!   give, and it skips the logarithm. This covers a fraction `p` of the
//!   devices, which is most of the devices driven onto a rail.

use crate::pcm::PcmParams;
use cim_simkit::rng::{normal_cdf, normal_inverse_cdf};
use cim_simkit::units::{Joules, Seconds};
use rand::Rng;

/// Outcome of one batched program-and-verify pass over a whole bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankProgramReport {
    /// Total program pulses issued across all devices in this pass.
    pub pulses: u64,
    /// Largest per-device pulse count in this pass — the number of
    /// verify rounds executed, and the latency-critical device.
    pub max_device_pulses: u32,
    /// Whether every device met the tolerance within the pulse budget.
    pub converged: bool,
    /// Largest final relative error `|G − G_target| / G_range` over the
    /// bank after the last verify.
    pub max_rel_error: f64,
    /// Total programming energy spent (`pulse_energy × pulses`).
    pub energy: Joules,
    /// Programming latency: rows of a bank program in lock-step rounds,
    /// so the pass takes as long as its slowest device
    /// (`pulse_latency × max_device_pulses`).
    pub latency: Seconds,
}

/// Which window rail a target sits exactly on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rail {
    None,
    Min,
    Max,
}

/// Relative margin below the one-pulse threshold, far wider than the
/// ulp-level error of `ln` and `exp` (see [`TargetLaw::draws`]).
const ONE_PULSE_MARGIN: f64 = 1.0 / (1u64 << 20) as f64;

/// The per-target constants of the closed-form program-and-verify law.
#[derive(Debug, Clone, Copy)]
struct TargetLaw {
    /// Lower end of the accepted quantile interval.
    pa: f64,
    /// Acceptance mass of one pulse.
    p: f64,
    /// `1 / ln(1 − p)`, the geometric inversion factor (unused when
    /// `p >= 1`).
    inv_ln_q: f64,
    /// Uniforms at or above this draw exactly one pulse, see
    /// [`TargetLaw::draws`] (`∞` when `p` is too small to bound).
    one_pulse: f64,
    rail: Rail,
}

impl TargetLaw {
    /// The law of a target whose acceptance interval is `[pa, pb]`.
    fn with_interval(pa: f64, pb: f64, rail: Rail) -> Self {
        let p = pb - pa;
        let inv_ln_q = (1.0 - p).ln().recip();
        // ln(1 − p), recovered from the factor the exact path uses.
        let ln_q = inv_ln_q.recip();
        let one_pulse = if ln_q < -1e-6 {
            ((1.0 - ONE_PULSE_MARGIN) * ln_q).exp()
        } else {
            f64::INFINITY
        };
        TargetLaw {
            pa,
            p,
            inv_ln_q,
            one_pulse,
            rail,
        }
    }

    /// The pulse draw count `max(1, ⌈ln(u) / ln(1 − p)⌉)` of a uniform
    /// `u ∈ (0, 1]`.
    ///
    /// The count is one exactly when `u ≥ 1 − p`. A uniform at or above
    /// `one_pulse = (1 − p)^(1 − ONE_PULSE_MARGIN)` clears that
    /// threshold by a relative margin of `ln u` far beyond the rounding
    /// of `ln`, `exp` and the product, so the logarithm would round to
    /// the same count: the first pulse's acceptance (probability `p`)
    /// is decided by one comparison.
    fn draws(&self, u: f64) -> f64 {
        if self.p >= 1.0 || u >= self.one_pulse {
            1.0
        } else {
            (u.ln() * self.inv_ln_q).ceil().max(1.0)
        }
    }
}

/// A `rows × cols` PCM array in struct-of-arrays form.
#[derive(Debug, Clone, PartialEq)]
pub struct PcmBank {
    params: PcmParams,
    rows: usize,
    cols: usize,
    /// Programmed conductance in siemens, row-major fabrication order.
    g_programmed: Vec<f64>,
    /// Lifetime program pulses per device (wear ledger), row-major.
    pulses: Vec<u64>,
}

impl PcmBank {
    /// Creates a bank of `rows × cols` devices, all in the fully-RESET
    /// (minimum conductance) state with zero lifetime pulses.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, params: PcmParams) -> Self {
        assert!(rows > 0 && cols > 0, "bank dimensions must be nonzero");
        PcmBank {
            params,
            rows,
            cols,
            g_programmed: vec![params.g_min.0; rows * cols],
            pulses: vec![0; rows * cols],
        }
    }

    /// Bank dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The shared device parameters.
    pub fn params(&self) -> &PcmParams {
        &self.params
    }

    /// Programmed (pre-drift, noise-free) conductances in siemens,
    /// row-major fabrication order — the contiguous slice the vectorized
    /// MVM fast path dots against.
    pub fn conductances(&self) -> &[f64] {
        &self.g_programmed
    }

    /// The programmed conductances of one row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row_conductances(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of range");
        &self.g_programmed[row * self.cols..(row + 1) * self.cols]
    }

    /// Programmed conductance of device `(row, col)` in siemens.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn conductance(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "device out of range");
        self.g_programmed[row * self.cols + col]
    }

    /// Lifetime program pulses of device `(row, col)` — the wear ledger.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn pulse_count(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.rows && col < self.cols, "device out of range");
        self.pulses[row * self.cols + col]
    }

    /// Total lifetime program pulses across the bank.
    pub fn total_pulses(&self) -> u64 {
        self.pulses.iter().sum()
    }

    /// The multiplicative drift factor `(t/t₀)^(−ν)` every conductance in
    /// the bank sees `elapsed` after programming (device parameters are
    /// shared, so drift is a single scalar for the whole bank). Returns
    /// exactly `1.0` with no drift or before the reference time, matching
    /// `PcmDevice::drifted_conductance`.
    pub fn drift_factor(&self, elapsed: Seconds) -> f64 {
        if self.params.drift_nu == 0.0 || elapsed.0 <= 0.0 {
            return 1.0;
        }
        let ratio = (elapsed.0 / self.params.drift_t0.0).max(1.0);
        ratio.powf(-self.params.drift_nu)
    }

    /// Batched program-and-verify: drives every device toward its entry
    /// of `targets` (siemens, row-major) until the verified conductance
    /// is within `rel_tolerance` of the target relative to the
    /// conductance window, or the per-device pulse budget is exhausted.
    /// The noisy case samples each device's pulse count and final state
    /// from the exact joint law of the sequential pulse loop (see the
    /// module docs), so per-device pulse counts, the wear ledger and
    /// stored conductances match the per-device loop in distribution
    /// while spending two uniform draws per device.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != rows × cols`, `rel_tolerance <= 0`, or
    /// a target that requires pulsing lies outside `[g_min, g_max]`.
    pub fn program_and_verify<R: Rng + ?Sized>(
        &mut self,
        targets: &[f64],
        rel_tolerance: f64,
        rng: &mut R,
    ) -> BankProgramReport {
        assert_eq!(
            targets.len(),
            self.g_programmed.len(),
            "target count mismatch"
        );
        assert!(rel_tolerance > 0.0, "tolerance must be positive");
        let range = self.params.g_range().0;
        let g_min = self.params.g_min.0;
        let g_max = self.params.g_max.0;

        // Convergence mask: devices whose verified error still exceeds the
        // tolerance. Devices already on target never pulse (and, as in the
        // per-device model, never hit the window assertion).
        let mut active: Vec<u32> = Vec::new();
        for (i, (&g, &t)) in self.g_programmed.iter().zip(targets).enumerate() {
            if (g - t).abs() / range > rel_tolerance {
                assert!(
                    t >= g_min && t <= g_max,
                    "target conductance {t} outside window [{g_min}, {g_max}]"
                );
                active.push(i as u32);
            }
        }

        let sigma = self.params.sigma_prog * range;
        let mut total_pulses = 0u64;
        let mut rounds = 0u32;
        let mut all_converged = true;
        if sigma == 0.0 {
            // Noise-free pulses land exactly on target: one pulse converges
            // every out-of-tolerance device, no RNG is consumed.
            if !active.is_empty() {
                rounds = 1;
                total_pulses = active.len() as u64;
                for &i in &active {
                    let i = i as usize;
                    self.g_programmed[i] = targets[i].clamp(g_min, g_max);
                    self.pulses[i] += 1;
                }
            }
        } else {
            // Closed-form sampling of the sequential pulse loop. A pulse
            // writes `clamp(t + σ·z, g_min, g_max)` and verifies
            // `|g − t| ≤ tol·range`; with σ = sigma_prog·range the
            // accepted z-interval is `[−τ, τ]`, τ = tol/sigma_prog —
            // widened to a whole tail when the window clamp itself lands
            // within tolerance (then every z beyond the clamp accepts).
            // The pulse count is geometric in that acceptance mass and
            // the final state is the clamped write conditioned on
            // acceptance (or rejection when the budget runs out),
            // independent of the count.
            let tau = rel_tolerance / self.params.sigma_prog;
            let cap = self.params.max_program_pulses;
            let phi_lo = normal_cdf(-tau);
            let phi_hi = normal_cdf(tau);
            // Devices whose window edges sit beyond ±τ·σ of the target
            // (the common case) share one acceptance interval.
            let interior = TargetLaw::with_interval(phi_lo, phi_hi, Rail::None);
            let law_of = |t: f64| {
                let lo = (g_min - t) / sigma; // z driven to the g_min clamp
                let hi = (g_max - t) / sigma; // z driven to the g_max clamp
                if lo <= -tau && hi >= tau {
                    return interior;
                }
                let rail = if t == g_min {
                    Rail::Min
                } else if t == g_max {
                    Rail::Max
                } else {
                    Rail::None
                };
                TargetLaw::with_interval(
                    if lo <= -tau { phi_lo } else { 0.0 },
                    if hi >= tau { phi_hi } else { 1.0 },
                    rail,
                )
            };
            // Targets repeat in long runs (zero padding, ±1 weights,
            // uniform scrubs), so the law is memoised on the last
            // target's bits.
            let mut memo: Option<(u64, TargetLaw)> = None;
            for &i in &active {
                let i = i as usize;
                let t = targets[i];
                let law = match memo {
                    Some((bits, law)) if bits == t.to_bits() => law,
                    _ => {
                        let law = law_of(t);
                        memo = Some((t.to_bits(), law));
                        law
                    }
                };
                // Pulse count by geometric inversion: P(K > n) = (1−p)ⁿ.
                let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                let draws = law.draws(u);
                let (k, converged) = if draws <= cap as f64 {
                    (draws as u32, true)
                } else {
                    (cap, false)
                };
                // Final state: the clamped write conditioned on the pass
                // outcome. ±∞ quantiles at the interval ends collapse
                // onto the window clamp, which is exactly the point mass
                // the clamped write puts there.
                let v: f64 = rng.gen::<f64>();
                let TargetLaw { pa, p, rail, .. } = law;
                self.g_programmed[i] = if converged {
                    let x = pa + v * p;
                    match rail {
                        // A quantile on the rail's side of the median
                        // writes at or beyond the rail, which the clamp
                        // maps back onto it: the inverse CDF's value
                        // cannot change the stored state.
                        Rail::Min if x <= 0.5 => g_min,
                        Rail::Max if x >= 0.5 => g_max,
                        _ => (t + sigma * normal_inverse_cdf(x)).clamp(g_min, g_max),
                    }
                } else {
                    all_converged = false;
                    let w = v * (1.0 - p);
                    let z = normal_inverse_cdf(if w < pa { w } else { w + p });
                    (t + sigma * z).clamp(g_min, g_max)
                };
                self.pulses[i] += k as u64;
                total_pulses += k as u64;
                rounds = rounds.max(k);
            }
        }

        // Division by the positive range is monotone, so the largest
        // quotient is the quotient of the largest error.
        let max_rel_error = self
            .g_programmed
            .iter()
            .zip(targets)
            .map(|(&g, &t)| (g - t).abs())
            .fold(0.0f64, f64::max)
            / range;
        BankProgramReport {
            pulses: total_pulses,
            max_device_pulses: rounds,
            converged: all_converged,
            max_rel_error,
            energy: self.params.program_pulse_energy * total_pulses as f64,
            latency: self.params.program_pulse_latency * rounds as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcm::PcmDevice;
    use cim_simkit::rng::seeded;
    use cim_simkit::units::Siemens;

    fn targets(params: &PcmParams, n: usize) -> Vec<f64> {
        let range = params.g_range().0;
        (0..n)
            .map(|i| params.g_min.0 + range * (i as f64 + 0.5) / n as f64)
            .collect()
    }

    #[test]
    fn fresh_bank_is_reset() {
        let params = PcmParams::default();
        let bank = PcmBank::new(3, 5, params);
        assert_eq!(bank.shape(), (3, 5));
        assert!(bank.conductances().iter().all(|&g| g == params.g_min.0));
        assert_eq!(bank.total_pulses(), 0);
    }

    #[test]
    fn noise_free_programming_is_bit_identical_to_device_model() {
        let params = PcmParams::ideal();
        let mut bank = PcmBank::new(4, 4, params);
        let t = targets(&params, 16);
        let mut rng = seeded(1);
        let report = bank.program_and_verify(&t, 1e-6, &mut rng);
        assert!(report.converged);
        assert_eq!(report.pulses, 16);
        assert_eq!(report.max_device_pulses, 1);
        let mut dev_rng = seeded(2);
        for (i, &target) in t.iter().enumerate() {
            let mut d = PcmDevice::new(params);
            let rep = d.program_and_verify(Siemens(target), 1e-6, &mut dev_rng);
            assert_eq!(rep.pulses, 1);
            assert_eq!(d.programmed_conductance().0, bank.conductances()[i]);
            assert_eq!(bank.pulse_count(i / 4, i % 4), 1);
        }
    }

    #[test]
    fn on_target_devices_take_zero_pulses() {
        let params = PcmParams::ideal();
        let mut bank = PcmBank::new(2, 2, params);
        // Every fresh device already sits at g_min == its target.
        let t = vec![params.g_min.0; 4];
        let mut rng = seeded(3);
        let report = bank.program_and_verify(&t, 1e-6, &mut rng);
        assert_eq!(report.pulses, 0);
        assert_eq!(report.max_device_pulses, 0);
        assert!(report.converged);
        assert_eq!(bank.total_pulses(), 0);
    }

    #[test]
    fn noisy_programming_converges_and_accounts() {
        let params = PcmParams::default();
        let mut bank = PcmBank::new(8, 8, params);
        let t = targets(&params, 64);
        let mut rng = seeded(4);
        let report = bank.program_and_verify(&t, 0.01, &mut rng);
        assert!(report.converged, "err {}", report.max_rel_error);
        assert!(report.max_rel_error <= 0.01);
        assert!(report.pulses >= 64, "pulses {}", report.pulses);
        assert_eq!(bank.total_pulses(), report.pulses);
        let expected_energy = params.program_pulse_energy.0 * report.pulses as f64;
        assert!((report.energy.0 - expected_energy).abs() <= 1e-18);
        let expected_latency = params.program_pulse_latency.0 * report.max_device_pulses as f64;
        assert!((report.latency.0 - expected_latency).abs() <= 1e-15);
        // The slowest device bounds every other device's pulse count.
        let max = (0..8)
            .flat_map(|r| (0..8).map(move |c| (r, c)))
            .map(|(r, c)| bank.pulse_count(r, c))
            .max();
        assert_eq!(max, Some(report.max_device_pulses as u64));
    }

    #[test]
    fn pulse_statistics_match_device_model() {
        // Mean pulses per device over an ensemble agrees with the
        // per-device loop (the samplers differ draw-for-draw but share
        // the marginal distribution).
        let params = PcmParams::default();
        let t = targets(&params, 32);
        let mut bank_pulses = 0u64;
        let mut dev_pulses = 0u64;
        for seed in 0..40 {
            let mut bank = PcmBank::new(4, 8, params);
            let mut rng = seeded(seed);
            bank_pulses += bank.program_and_verify(&t, 0.01, &mut rng).pulses;
            let mut rng = seeded(1000 + seed);
            for &target in &t {
                let mut d = PcmDevice::new(params);
                dev_pulses += d.program_and_verify(Siemens(target), 0.01, &mut rng).pulses as u64;
            }
        }
        let ratio = bank_pulses as f64 / dev_pulses as f64;
        assert!((ratio - 1.0).abs() < 0.05, "pulse ratio {ratio}");
    }

    #[test]
    fn one_pulse_threshold_matches_the_logarithm() {
        let mut rng = seeded(7);
        let (phi_lo, phi_hi) = (normal_cdf(-1.0 / 3.0), normal_cdf(1.0 / 3.0));
        let intervals = [
            (phi_lo, phi_hi),
            (0.0, phi_hi),
            (phi_lo, 1.0),
            (0.0, 0.999_999),
            (0.0, 0.9),
            (0.0, 0.01),
            (0.0, 1e-5),
            (0.0, 1e-9),
        ];
        for (pa, pb) in intervals {
            let law = TargetLaw::with_interval(pa, pb, Rail::None);
            let exact = |u: f64| (u.ln() * law.inv_ln_q).ceil().max(1.0);
            let mut us: Vec<f64> = (0..200_000).map(|_| 1.0 - rng.gen::<f64>()).collect();
            // Uniforms on and a few ulps around the exact one-pulse
            // threshold and the shortcut's bound.
            for centre in [1.0 - law.p, law.one_pulse] {
                let mut u = centre.min(1.0);
                for _ in 0..4 {
                    u = u.next_down();
                }
                for _ in 0..9 {
                    us.push(u.min(1.0));
                    u = u.next_up();
                }
            }
            us.extend([1.0, f64::EPSILON / 2.0]);
            for &u in &us {
                assert_eq!(
                    law.draws(u).to_bits(),
                    exact(u).to_bits(),
                    "p {} u {u:e}",
                    law.p
                );
            }
        }
    }

    #[test]
    fn drift_factor_matches_device_model() {
        let params = PcmParams::default();
        let bank = PcmBank::new(2, 2, params);
        let d = PcmDevice::new(params);
        for elapsed in [0.0, 0.5, 1.0, 10.0, 1e6] {
            let factor = bank.drift_factor(Seconds(elapsed));
            let expected = d.drifted_conductance(Seconds(elapsed)).0 / params.g_min.0;
            assert!(
                (factor - expected).abs() <= 1e-15,
                "elapsed {elapsed}: {factor} vs {expected}"
            );
        }
        assert_eq!(bank.drift_factor(Seconds(0.5)), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn out_of_window_target_panics() {
        let params = PcmParams::default();
        let mut bank = PcmBank::new(1, 2, params);
        let mut rng = seeded(5);
        bank.program_and_verify(&[params.g_min.0, 100e-6], 0.01, &mut rng);
    }

    #[test]
    #[should_panic(expected = "target count mismatch")]
    fn wrong_target_count_panics() {
        let params = PcmParams::default();
        let mut bank = PcmBank::new(2, 2, params);
        let mut rng = seeded(6);
        bank.program_and_verify(&[params.g_min.0; 3], 0.01, &mut rng);
    }
}
