//! Golden bit-identity pin for the device write path.
//!
//! Program-and-verify, the release scrubs and the matrix plumbing under
//! them are performance-critical and fully deterministic for a given
//! seed. These scripts drive them at the pool's tile shape and hash
//! everything a write leaves behind — stored conductances, the
//! per-device pulse ledger, every `BankProgramReport` and
//! `OperationCost`, `CrossbarStats`, accelerator statistics and the
//! products read back afterwards — into one FNV-1a digest per script.
//! A digest that moves means a write-path change altered the simulation
//! (an RNG draw added, dropped or reordered, or a float computed
//! differently), not just its speed.
//!
//! The scripts cover:
//! * the pool tile shape (32×2048 analog pairs) holding zero-padded ±1
//!   layers of a 256-32-8 network, programmed, scrubbed and
//!   re-programmed, under `AnalogParams::default()` and under a two-pulse
//!   budget that reaches the non-converged branch;
//! * a bare `PcmBank` whose targets sit exactly on `g_min` and `g_max`
//!   next to interior and near-rail targets;
//! * digital row scrubs, which must leave row energies, and therefore
//!   every later read and scouting cost, bit-equal to a fresh array.

use cim_repro::cim_core::accelerator::{CimAccelerator, CimAcceleratorBuilder};
use cim_repro::cim_core::isa::CimInstruction;
use cim_repro::cim_crossbar::analog::{AnalogCrossbar, AnalogParams};
use cim_repro::cim_crossbar::mapping::{split_signed, ConductanceMapping};
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_device::pcm::PcmParams;
use cim_repro::cim_device::pcm_bank::PcmBank;
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::linalg::Matrix;
use cim_repro::cim_simkit::rng::seeded;

/// The default pool's analog tile shape.
const ROWS: usize = 32;
const COLS: usize = 2048;

/// 64-bit FNV-1a over words and debug renderings.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn floats(&mut self, xs: &[f64]) {
        for &x in xs {
            self.word(x.to_bits());
        }
    }

    /// Hashes a value's `Debug` rendering. Rust prints every `f64` in
    /// its shortest round-tripping form, so two renderings are equal
    /// exactly when the float fields are bit-equal.
    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

/// A ±1 matrix with an irregular, closed-form sign pattern.
fn signs(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        if (i * 7 + j * 3 + salt).is_multiple_of(5) || (i + j * salt).is_multiple_of(3) {
            -1.0
        } else {
            1.0
        }
    })
}

/// A layer zero-padded to the tile shape, the way the pool lowers it.
fn padded(layer: &Matrix) -> Matrix {
    Matrix::from_fn(ROWS, COLS, |r, c| {
        if r < layer.rows() && c < layer.cols() {
            layer.get(r, c)
        } else {
            0.0
        }
    })
}

/// The 256-32-8 layers, each padded to the tile shape.
fn layers() -> [Matrix; 2] {
    [padded(&signs(32, 256, 1)), padded(&signs(8, 32, 2))]
}

fn two_pulse_params() -> AnalogParams {
    AnalogParams {
        pcm: PcmParams {
            max_program_pulses: 2,
            ..PcmParams::default()
        },
        ..AnalogParams::default()
    }
}

/// One single-ended tile's full device state.
fn hash_tile(d: &mut Digest, tile: &AnalogCrossbar) {
    let bank = tile.bank();
    d.floats(bank.conductances());
    let (rows, cols) = bank.shape();
    for r in 0..rows {
        for c in 0..cols {
            d.word(bank.pulse_count(r, c));
        }
    }
    d.debug(tile.stats());
    d.debug(&tile.mapping());
}

/// Programs a signed matrix on an explicit positive/negative pair with
/// one shared mapping, the way a differential pair does, so the
/// per-device state of both halves is observable.
fn program_pair(
    pos: &mut AnalogCrossbar,
    neg: &mut AnalogCrossbar,
    m: &Matrix,
    rng: &mut rand::rngs::StdRng,
    d: &mut Digest,
) {
    let pcm = pos.params().pcm;
    let mapping = ConductanceMapping::for_matrix(pcm.g_min, pcm.g_max, m);
    let (p, n) = split_signed(m);
    let cp = pos.program_matrix_with_mapping(&p, mapping, rng);
    let cn = neg.program_matrix_with_mapping(&n, mapping, rng);
    d.debug(&cp);
    d.debug(&cn);
    hash_tile(d, pos);
    hash_tile(d, neg);
}

/// Program → scrub → re-program → scrub on a bare tile pair, hashing
/// both halves' conductances and pulse ledgers after every pass.
fn pair_script(params: AnalogParams) -> u64 {
    let mut d = Digest::new();
    let [l1, l2] = layers();
    let uniform = Matrix::from_fn(ROWS, COLS, |_, _| 1.0);
    let mut pos = AnalogCrossbar::new(ROWS, COLS, params);
    let mut neg = AnalogCrossbar::new(ROWS, COLS, params);
    let mut rng = seeded(0x60_1D);
    for m in [&l1, &uniform, &l2, &uniform, &l1] {
        program_pair(&mut pos, &mut neg, m, &mut rng, &mut d);
    }
    d.0
}

fn accelerator(params: AnalogParams) -> CimAccelerator {
    CimAcceleratorBuilder::new()
        .digital_tiles(1, 16, 1024)
        .analog_tiles(2, ROWS, COLS)
        .analog_params(params)
        .seed(0x5EED)
        .build()
}

fn hash_accelerator(d: &mut Digest, acc: &CimAccelerator) {
    d.debug(acc.stats());
    d.debug(&acc.device_counters());
    for t in 0..acc.analog_tile_count() {
        let tile = acc.analog_tile(t);
        d.debug(&tile.stats());
        d.floats(tile.stored_matrix().as_slice());
    }
}

/// The serving cycle on an accelerator: dataset loads program padded
/// layers, releases scrub them, the next tenant's load re-programs the
/// scrubbed tiles, and products read the result back.
fn accelerator_script(params: AnalogParams) -> u64 {
    let mut d = Digest::new();
    let [l1, l2] = layers();
    let mut acc = accelerator(params);
    let mut rng = seeded(0xA11);
    let mut scrub_rng = seeded(0x5C12);
    let x: Vec<f64> = (0..COLS)
        .map(|j| if j < 256 && j % 3 != 0 { 1.0 } else { -1.0 })
        .collect();
    for (a, b) in [(&l1, &l2), (&l2, &l1), (&l1, &l2)] {
        for (tile, m) in [(0, a), (1, b)] {
            let (_, cost) = acc.execute_with_rng(
                CimInstruction::ProgramMatrix {
                    tile,
                    matrix: m.clone(),
                },
                &mut rng,
            );
            d.debug(&cost);
        }
        for tile in 0..2 {
            let (y, cost) =
                acc.execute_with_rng(CimInstruction::Mvm { tile, x: x.clone() }, &mut rng);
            d.debug(&y);
            d.debug(&cost);
        }
        hash_accelerator(&mut d, &acc);
        for tile in 0..2 {
            d.debug(&acc.scrub_analog_tile(tile, &mut scrub_rng));
        }
        hash_accelerator(&mut d, &acc);
    }
    d.0
}

/// A bank driven onto and off both rails, through interior and
/// near-rail targets (whose acceptance interval is cut by the clamp).
fn bank_script(pcm: PcmParams) -> u64 {
    let mut d = Digest::new();
    let (g_min, g_max) = (pcm.g_min.0, pcm.g_max.0);
    let range = g_max - g_min;
    let n = 64 * 48;
    let pick = |i: usize, phase: usize| match (i * 5 + phase * 3) % 8 {
        0..=2 => g_min,
        3 | 4 => g_max,
        5 => g_min + 0.004 * range,
        6 => g_max - 0.004 * range,
        _ => g_min + range * ((i % 97) as f64 + 0.5) / 97.0,
    };
    let mut bank = PcmBank::new(64, 48, pcm);
    let mut rng = seeded(0xBA4C);
    for phase in 0..6 {
        let targets: Vec<f64> = match phase {
            4 => vec![g_max; n],
            5 => vec![g_min; n],
            _ => (0..n).map(|i| pick(i, phase)).collect(),
        };
        let report = bank.program_and_verify(&targets, 0.01, &mut rng);
        d.debug(&report);
        d.floats(bank.conductances());
        for i in 0..n {
            d.word(bank.pulse_count(i / 48, i % 48));
        }
    }
    d.0
}

#[test]
fn pool_tile_pair_program_scrub_reprogram_is_pinned() {
    assert_eq!(
        pair_script(AnalogParams::default()),
        3_157_123_475_280_124_898,
        "default params"
    );
    assert_eq!(
        pair_script(two_pulse_params()),
        10_483_811_732_626_189_928,
        "two-pulse budget"
    );
}

#[test]
fn accelerator_serving_cycle_is_pinned() {
    assert_eq!(
        accelerator_script(AnalogParams::default()),
        123_297_607_415_938_310,
        "default params"
    );
    assert_eq!(
        accelerator_script(two_pulse_params()),
        7_560_829_703_533_186_845,
        "two-pulse budget"
    );
}

#[test]
fn bank_rail_targets_are_pinned() {
    assert_eq!(
        bank_script(PcmParams::default()),
        13_380_308_050_200_905_185,
        "default params"
    );
    assert_eq!(
        bank_script(PcmParams {
            max_program_pulses: 2,
            ..PcmParams::default()
        }),
        12_369_427_282_046_789_265,
        "two-pulse budget"
    );
}

/// A scrubbed digital row costs exactly what a never-written row costs:
/// reads, scouting over scrubbed rows and the scrub's own cost match a
/// fresh accelerator fabricated from the same seed, bit for bit.
#[test]
fn digital_scrub_restores_fresh_row_costs() {
    let mut used = accelerator(AnalogParams::default());
    let mut fresh = accelerator(AnalogParams::default());
    let mut d = Digest::new();
    for row in 0..16 {
        used.execute(CimInstruction::WriteRow {
            tile: 0,
            row,
            bits: BitVec::from_fn(1024, |j| (j * 7 + row * 13) % 5 < 2),
        });
    }
    for row in 0..12 {
        d.debug(&used.scrub_digital_row(0, row));
    }
    d.debug(used.digital_tile(0).stats());
    let mut rng_used = seeded(0xD16);
    let mut rng_fresh = seeded(0xD16);
    let reads = (0..12).map(|row| CimInstruction::ReadRow { tile: 0, row });
    let scouts = [
        CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::Or,
            rows: vec![0, 5, 11],
        },
        CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::Xor,
            rows: vec![3, 4],
        },
    ];
    for instr in reads.chain(scouts) {
        let (out_used, cost_used) = used.execute_with_rng(instr.clone(), &mut rng_used);
        let (out_fresh, cost_fresh) = fresh.execute_with_rng(instr, &mut rng_fresh);
        assert_eq!(out_used, out_fresh);
        assert_eq!(
            cost_used.energy.0.to_bits(),
            cost_fresh.energy.0.to_bits(),
            "scrubbed rows must cost what fresh rows cost"
        );
        assert_eq!(
            cost_used.latency.0.to_bits(),
            cost_fresh.latency.0.to_bits()
        );
        d.debug(&cost_used);
    }
    assert_eq!(d.0, 3_840_861_918_452_535_319, "scrub and read costs");
}
