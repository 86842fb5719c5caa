//! Oracle for the `cim-lint` passes: random programs checked by the
//! shipped analyzer and by a reference implementation must produce
//! byte-identical reports and cost envelopes.
//!
//! The reference (module [`reference`]) is the original set-based
//! design, kept here as a test oracle the way the bit-serial and
//! per-device simulators are kept for the tiles: every instruction's
//! effects are materialized as `Vec<usize>` row lists, initialized and
//! resident rows live in one `BTreeSet` per tile, and every per-rule
//! row list is collected through a temporary `BTreeSet`. It favours
//! obviousness over speed; the shipped checker folds packed row words
//! instead.
//!
//! The random programs cover digital and analog instructions,
//! out-of-bounds tiles and rows, duplicate operand rows, latch chains
//! (reads and logic followed by stores), resident CAM row pairs, a Q6
//! style resident prefix with writes around its scratch boundary,
//! resident rows past the tile end, tile heights that are not a
//! multiple of 64, resident analog tiles, and output lists that are
//! unsorted, repeated or out of range.

use cim_repro::cim_arch::cim::CimUnitParams;
use cim_repro::cim_core::isa::{CimInstruction, MatchKind, ScoutOp};
use cim_repro::cim_lint::{self, CostModel, Geometry, LintTarget, RuleCode};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::linalg::Matrix;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// The original set-based analyzer, kept as the oracle.
mod reference {
    use cim_repro::cim_core::isa::{CimInstruction, ScoutOp};
    use cim_repro::cim_lint::{
        CostEnvelope, CostModel, Diagnostic, Geometry, LintReport, RuleCode,
    };
    use cim_repro::cim_simkit::units::{Joules, Seconds};
    use std::collections::BTreeSet;

    /// Which tile family an instruction addresses.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Family {
        Digital,
        Analog,
    }

    /// An instruction's effects with every row listed.
    pub struct Effects {
        pub family: Family,
        pub tile: usize,
        pub rows_read: Vec<usize>,
        pub rows_written: Vec<usize>,
        pub defines_latch: bool,
        pub consumes_latch: bool,
    }

    /// The effect summary with every row materialized.
    pub fn effects(instr: &CimInstruction) -> Effects {
        let digital = |tile: usize, read: Vec<usize>, written: Vec<usize>| Effects {
            family: Family::Digital,
            tile,
            rows_read: read,
            rows_written: written,
            defines_latch: false,
            consumes_latch: false,
        };
        let analog = |tile: usize| Effects {
            family: Family::Analog,
            tile,
            rows_read: Vec::new(),
            rows_written: Vec::new(),
            defines_latch: false,
            consumes_latch: false,
        };
        match instr {
            CimInstruction::WriteRow { tile, row, .. } => digital(*tile, vec![], vec![*row]),
            CimInstruction::ReadRow { tile, row } => Effects {
                defines_latch: true,
                ..digital(*tile, vec![*row], vec![])
            },
            CimInstruction::Logic { tile, rows, .. } => Effects {
                defines_latch: true,
                ..digital(*tile, rows.clone(), vec![])
            },
            CimInstruction::StoreLast { tile, row } => Effects {
                defines_latch: true,
                consumes_latch: true,
                ..digital(*tile, vec![], vec![*row])
            },
            CimInstruction::WriteKey { tile, slot, .. } => {
                digital(*tile, vec![], vec![2 * slot, 2 * slot + 1])
            }
            CimInstruction::MatchSearch { tile, entries, .. } => {
                digital(*tile, (0..2 * entries).collect(), vec![])
            }
            CimInstruction::ProgramMatrix { tile, .. }
            | CimInstruction::Mvm { tile, .. }
            | CimInstruction::MvmT { tile, .. } => analog(*tile),
        }
    }

    /// The target with resident rows held as sets.
    pub struct Target {
        pub geometry: Geometry,
        pub resident_digital: Vec<BTreeSet<usize>>,
        pub resident_analog: Vec<bool>,
    }

    impl Target {
        pub fn new(geometry: Geometry) -> Self {
            Target {
                geometry,
                resident_digital: vec![BTreeSet::new(); geometry.digital_tiles],
                resident_analog: vec![false; geometry.analog_tiles],
            }
        }

        pub fn with_resident_rows(mut self, tile: usize, rows: &[usize]) -> Self {
            if tile < self.resident_digital.len() {
                self.resident_digital[tile].extend(rows.iter().copied());
            }
            self
        }

        pub fn with_resident_analog(mut self, tile: usize) -> Self {
            if tile < self.resident_analog.len() {
                self.resident_analog[tile] = true;
            }
            self
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum AnalogState {
        Unprogrammed,
        Resident,
        Programmed(usize, usize),
    }

    #[derive(Debug, Clone, Copy)]
    struct LatchDef {
        index: usize,
        used: bool,
    }

    /// The set-based safety pass.
    pub fn lint(program: &[CimInstruction], outputs: &[usize], target: &Target) -> LintReport {
        let geo = target.geometry;
        let outputs: BTreeSet<usize> = outputs.iter().copied().collect();
        let mut diags: Vec<Diagnostic> = Vec::new();
        let mut init: Vec<BTreeSet<usize>> = (0..geo.digital_tiles)
            .map(|t| target.resident_digital.get(t).cloned().unwrap_or_default())
            .collect();
        let mut analog: Vec<AnalogState> = (0..geo.analog_tiles)
            .map(|t| {
                if target.resident_analog.get(t).copied().unwrap_or(false) {
                    AnalogState::Resident
                } else {
                    AnalogState::Unprogrammed
                }
            })
            .collect();
        let mut latch: Option<LatchDef> = None;

        for (i, instr) in program.iter().enumerate() {
            let fx = effects(instr);
            let mn = instr.mnemonic();
            let granted = match fx.family {
                Family::Digital => geo.digital_tiles,
                Family::Analog => geo.analog_tiles,
            };
            if fx.tile >= granted {
                let family = match fx.family {
                    Family::Digital => "digital",
                    Family::Analog => "analog",
                };
                diags.push(Diagnostic::new(
                    RuleCode::TileBounds,
                    i,
                    format!(
                        "{mn} addresses {family} tile {t} but the program demands {granted} \
                         {family} tile(s)",
                        t = fx.tile
                    ),
                ));
                continue;
            }

            match fx.family {
                Family::Digital => {
                    check_digital_widths(instr, i, geo.tile_cols, &mut diags);
                    check_row_bounds(
                        instr,
                        &fx.rows_read,
                        &fx.rows_written,
                        i,
                        geo.tile_rows,
                        &mut diags,
                    );
                    if let CimInstruction::Logic { op, rows, .. } = instr {
                        check_arity(*op, rows, i, geo.scout_fan_in, &mut diags);
                    }
                    let uninit: Vec<usize> = fx
                        .rows_read
                        .iter()
                        .copied()
                        .filter(|&r| r < geo.tile_rows && !init[fx.tile].contains(&r))
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    if !uninit.is_empty() {
                        diags.push(Diagnostic::new(
                            RuleCode::UninitRead,
                            i,
                            format!(
                                "{mn} senses uninitialized row(s) {uninit:?} of tile {t}",
                                t = fx.tile
                            ),
                        ));
                    }
                    let protected: Vec<usize> = fx
                        .rows_written
                        .iter()
                        .copied()
                        .filter(|r| {
                            target
                                .resident_digital
                                .get(fx.tile)
                                .is_some_and(|rows| rows.contains(r))
                        })
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    if !protected.is_empty() {
                        diags.push(Diagnostic::new(
                            RuleCode::ResidentWrite,
                            i,
                            format!(
                                "{mn} writes resident dataset row(s) {protected:?} of tile {t}",
                                t = fx.tile
                            ),
                        ));
                    }
                    if fx.consumes_latch {
                        match latch.as_mut() {
                            None => diags.push(Diagnostic::new(
                                RuleCode::LatchUndef,
                                i,
                                format!(
                                    "{mn} consumes the last_bits latch but no prior \
                                     instruction defined it"
                                ),
                            )),
                            Some(def) => def.used = true,
                        }
                        if fx.defines_latch {
                            latch = Some(LatchDef {
                                index: i,
                                used: true,
                            });
                        }
                    } else if fx.defines_latch {
                        if let Some(prev) = latch {
                            if !prev.used && !outputs.contains(&prev.index) {
                                diags.push(dead_latch(prev.index, i));
                            }
                        }
                        latch = Some(LatchDef {
                            index: i,
                            used: outputs.contains(&i),
                        });
                    }
                    for &w in &fx.rows_written {
                        if w < geo.tile_rows {
                            init[fx.tile].insert(w);
                        }
                    }
                }
                Family::Analog => check_analog(instr, i, fx.tile, geo, &mut analog, &mut diags),
            }
        }

        if let Some(prev) = latch {
            if !prev.used && !outputs.contains(&prev.index) {
                diags.push(dead_latch(prev.index, program.len()));
            }
        }
        diags.sort_by(|a, b| {
            a.instr_index
                .cmp(&b.instr_index)
                .then_with(|| a.rule.code().cmp(b.rule.code()))
        });
        LintReport { diagnostics: diags }
    }

    fn dead_latch(defined_at: usize, died_at: usize) -> Diagnostic {
        Diagnostic::new(
            RuleCode::LatchDead,
            defined_at,
            format!(
                "last_bits defined here but neither stored nor returned before instruction \
                 {died_at}"
            ),
        )
    }

    fn check_digital_widths(
        instr: &CimInstruction,
        i: usize,
        tile_cols: usize,
        diags: &mut Vec<Diagnostic>,
    ) {
        let mut bad = |what: &str, width: usize| {
            diags.push(Diagnostic::new(
                RuleCode::WidthMismatch,
                i,
                format!(
                    "{mn} {what} is {width} bits wide, the tile is {tile_cols}",
                    mn = instr.mnemonic()
                ),
            ));
        };
        match instr {
            CimInstruction::WriteRow { bits, .. } if bits.len() != tile_cols => {
                bad("operand", bits.len());
            }
            CimInstruction::WriteKey { value, care, .. } => {
                if value.len() != tile_cols {
                    bad("value", value.len());
                }
                if care.len() != tile_cols {
                    bad("care mask", care.len());
                }
            }
            CimInstruction::MatchSearch { key, .. } if key.len() != tile_cols => {
                bad("search key", key.len());
            }
            _ => {}
        }
    }

    fn check_row_bounds(
        instr: &CimInstruction,
        rows_read: &[usize],
        rows_written: &[usize],
        i: usize,
        tile_rows: usize,
        diags: &mut Vec<Diagnostic>,
    ) {
        match instr {
            CimInstruction::WriteKey { slot, .. } => {
                if 2 * slot + 1 >= tile_rows {
                    diags.push(Diagnostic::new(
                        RuleCode::RowBounds,
                        i,
                        format!(
                            "CAM.WK slot {slot} needs row pair ({}, {}), the tile has \
                             {tile_rows} rows ({} slots)",
                            2 * slot,
                            2 * slot + 1,
                            tile_rows / 2
                        ),
                    ));
                }
            }
            CimInstruction::MatchSearch { entries, .. } => {
                if 2 * entries > tile_rows {
                    diags.push(Diagnostic::new(
                        RuleCode::RowBounds,
                        i,
                        format!(
                            "{mn} searches {entries} entries (rows 0..{}), the tile has \
                             {tile_rows} rows ({} slots)",
                            2 * entries,
                            tile_rows / 2,
                            mn = instr.mnemonic()
                        ),
                    ));
                }
            }
            _ => {
                let oob: Vec<usize> = rows_read
                    .iter()
                    .chain(rows_written)
                    .copied()
                    .filter(|&r| r >= tile_rows)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                if !oob.is_empty() {
                    diags.push(Diagnostic::new(
                        RuleCode::RowBounds,
                        i,
                        format!(
                            "{mn} addresses row(s) {oob:?}, the tile has {tile_rows} rows",
                            mn = instr.mnemonic()
                        ),
                    ));
                }
            }
        }
    }

    fn check_arity(
        op: ScoutOp,
        rows: &[usize],
        i: usize,
        fan_in: usize,
        diags: &mut Vec<Diagnostic>,
    ) {
        let mut bad = |message: String| diags.push(Diagnostic::new(RuleCode::BadArity, i, message));
        if !op.supports_fan_in(rows.len()) {
            bad(format!(
                "{op:?} does not support fan-in {} (OR/AND need ≥ 2 rows, XOR exactly 2)",
                rows.len()
            ));
        } else if rows.len() > fan_in {
            bad(format!(
                "fan-in {} exceeds the scouting limit {fan_in}",
                rows.len()
            ));
        }
        let distinct: BTreeSet<usize> = rows.iter().copied().collect();
        if distinct.len() != rows.len() {
            bad(format!(
                "duplicate activated rows {rows:?} (a row can only be activated once per access)"
            ));
        }
    }

    fn check_analog(
        instr: &CimInstruction,
        i: usize,
        tile: usize,
        geo: Geometry,
        analog: &mut [AnalogState],
        diags: &mut Vec<Diagnostic>,
    ) {
        match instr {
            CimInstruction::ProgramMatrix { matrix, .. } => {
                if matrix.rows() != geo.analog_rows || matrix.cols() != geo.analog_cols {
                    diags.push(Diagnostic::new(
                        RuleCode::WidthMismatch,
                        i,
                        format!(
                            "CIM.PROG programs a {}x{} matrix, the tile is {}x{}",
                            matrix.rows(),
                            matrix.cols(),
                            geo.analog_rows,
                            geo.analog_cols
                        ),
                    ));
                }
                if !matrix.as_slice().iter().any(|w| w.abs() > 0.0) {
                    diags.push(Diagnostic::new(
                        RuleCode::ZeroMatrix,
                        i,
                        "CIM.PROG programs a matrix with no nonzero weight".to_string(),
                    ));
                }
                if analog[tile] == AnalogState::Resident {
                    diags.push(Diagnostic::new(
                        RuleCode::ResidentWrite,
                        i,
                        format!(
                            "CIM.PROG reprograms analog tile {tile}, which holds a resident \
                             dataset matrix"
                        ),
                    ));
                } else {
                    analog[tile] = AnalogState::Programmed(matrix.rows(), matrix.cols());
                }
            }
            CimInstruction::Mvm { x, .. } => match analog[tile] {
                AnalogState::Unprogrammed => diags.push(unprogrammed_mvm(i, tile, "CIM.MVM")),
                AnalogState::Programmed(_, cols) if x.len() != cols => {
                    diags.push(Diagnostic::new(
                        RuleCode::WidthMismatch,
                        i,
                        format!(
                            "CIM.MVM input has length {}, the programmed matrix has {cols} \
                             columns",
                            x.len()
                        ),
                    ));
                }
                _ => {}
            },
            CimInstruction::MvmT { z, .. } => match analog[tile] {
                AnalogState::Unprogrammed => diags.push(unprogrammed_mvm(i, tile, "CIM.MVMT")),
                AnalogState::Programmed(rows, _) if z.len() != rows => {
                    diags.push(Diagnostic::new(
                        RuleCode::WidthMismatch,
                        i,
                        format!(
                            "CIM.MVMT input has length {}, the programmed matrix has {rows} rows",
                            z.len()
                        ),
                    ));
                }
                _ => {}
            },
            _ => {}
        }
    }

    fn unprogrammed_mvm(i: usize, tile: usize, mn: &str) -> Diagnostic {
        Diagnostic::new(
            RuleCode::UninitRead,
            i,
            format!("{mn} senses analog tile {tile} but no matrix was programmed or resident"),
        )
    }

    fn scheduler_weight(instr: &CimInstruction) -> u64 {
        match instr {
            CimInstruction::WriteRow { .. }
            | CimInstruction::ReadRow { .. }
            | CimInstruction::StoreLast { .. } => 1,
            CimInstruction::WriteKey { .. } => 2,
            CimInstruction::MatchSearch { entries, .. } => *entries as u64,
            CimInstruction::Logic { rows, .. } => rows.len() as u64,
            CimInstruction::Mvm { .. } | CimInstruction::MvmT { .. } => 100,
            CimInstruction::ProgramMatrix { matrix, .. } => {
                (matrix.rows() * matrix.cols()) as u64 / 64
            }
        }
    }

    /// The cost pass with the wear ledger folded from listed rows.
    pub fn cost(
        program: &[CimInstruction],
        geometry: &Geometry,
        model: &CostModel,
    ) -> CostEnvelope {
        let mut env = CostEnvelope::default();
        for instr in program {
            match instr {
                CimInstruction::WriteRow { .. } => env.row_writes += 1,
                CimInstruction::StoreLast { .. } => env.store_writes += 1,
                CimInstruction::ReadRow { .. } => {
                    env.row_reads += 1;
                    env.word_access_bound += 1;
                    env.sampled_column_bound += geometry.tile_cols as u64;
                }
                CimInstruction::Logic { rows, .. } => {
                    env.scout_ops += 1;
                    env.scout_row_activations += rows.len() as u64;
                    env.word_access_bound += 1;
                    env.sampled_column_bound += geometry.tile_cols as u64;
                }
                CimInstruction::WriteKey { .. } => {
                    env.key_writes += 1;
                    env.key_write_pulses += 2;
                }
                CimInstruction::MatchSearch { entries, .. } => {
                    env.searches += 1;
                    env.match_pulses += *entries as u64;
                    env.word_access_bound += 1;
                    env.sampled_column_bound += *entries as u64;
                }
                CimInstruction::ProgramMatrix { matrix, .. } => {
                    env.matrix_programs += 1;
                    let devices = 2 * (matrix.rows() * matrix.cols()) as u64;
                    env.programmed_devices += devices;
                    env.program_pulse_bound += devices * model.max_program_pulses;
                }
                CimInstruction::Mvm { .. } => {
                    env.mvms += 1;
                    env.noise_sample_bound += 2 * geometry.analog_rows as u64;
                }
                CimInstruction::MvmT { .. } => {
                    env.mvms += 1;
                    env.noise_sample_bound += 2 * geometry.analog_cols as u64;
                }
            }
            let fx = effects(instr);
            if fx.family == Family::Digital {
                for row in &fx.rows_written {
                    *env.row_wear.entry((fx.tile, *row)).or_insert(0) += 1;
                }
            }
            env.cost_units += scheduler_weight(instr);
        }
        env.cost_units += 1;
        let pulses = env.device_pulse_bound();
        env.latency_bound = Seconds(
            model.offload_overhead.0
                + model.op_latency.0 * (pulses as f64 / model.effective_parallelism),
        );
        env.energy_bound = Joules(
            model.energy_per_op.0 * pulses as f64
                + model.adc_energy_per_sample.0 * env.sampled_column_bound as f64,
        );
        env
    }
}

/// One random verification problem: a geometry, resident state given
/// to both targets identically, a program and its output list.
#[derive(Debug)]
struct Case {
    geometry: Geometry,
    /// `(tile, rows)` resident-row grants, in call order. Tiles may lie
    /// past the geometry and rows past the tile end.
    resident_rows: Vec<(usize, Vec<usize>)>,
    /// Analog tiles marked resident (some past the geometry).
    resident_analog: Vec<usize>,
    program: Vec<CimInstruction>,
    outputs: Vec<usize>,
}

impl Case {
    fn targets(&self) -> (LintTarget, reference::Target) {
        let mut shipped = LintTarget::new(self.geometry);
        let mut oracle = reference::Target::new(self.geometry);
        for (tile, rows) in &self.resident_rows {
            shipped = shipped.with_resident_rows(*tile, rows.iter().copied());
            oracle = oracle.with_resident_rows(*tile, rows);
        }
        for &tile in &self.resident_analog {
            shipped = shipped.with_resident_analog(tile);
            oracle = oracle.with_resident_analog(tile);
        }
        (shipped, oracle)
    }
}

/// Draws a row near the interesting edges: inside the tile, at the
/// resident boundary, at and past the tile end.
fn row(rng: &mut StdRng, tile_rows: usize, boundary: usize) -> usize {
    match rng.gen_range(0..8u32) {
        0 => boundary.saturating_sub(1),
        1 => boundary,
        2 => boundary + 1,
        3 => tile_rows.saturating_sub(1),
        4 => tile_rows + rng.gen_range(0..70usize),
        _ => rng.gen_range(0..tile_rows.max(1)),
    }
}

/// A width that is usually the tile's and sometimes off by a few.
fn width(rng: &mut StdRng, cols: usize) -> usize {
    if rng.gen_bool(0.9) {
        cols
    } else {
        cols + rng.gen_range(1..4usize)
    }
}

fn random_case(seed: u64) -> Case {
    let mut rng = seeded(seed);
    let tile_rows = [8usize, 16, 63, 64, 65, 100, 128, 130, 160][rng.gen_range(0..9usize)];
    let geometry = Geometry {
        digital_tiles: rng.gen_range(1..4usize),
        tile_rows,
        tile_cols: [8usize, 16, 64][rng.gen_range(0..3usize)],
        analog_tiles: rng.gen_range(0..3usize),
        analog_rows: rng.gen_range(2..5usize),
        analog_cols: rng.gen_range(2..5usize),
        scout_fan_in: rng.gen_range(2..6usize),
    };

    // Resident state: CAM row pairs or a Q6 style prefix per tile, with
    // the odd stray row, tile past the demand, or row past the tile.
    let mut resident_rows = Vec::new();
    let mut boundary = rng.gen_range(0..=tile_rows);
    if rng.gen_bool(0.6) {
        for tile in 0..geometry.digital_tiles + 1 {
            if rng.gen_bool(0.3) {
                continue;
            }
            let rows: Vec<usize> = if rng.gen_bool(0.5) {
                // CAM entries: (value, care) pairs from row 0 up.
                let entries = rng.gen_range(0..=tile_rows / 2);
                boundary = 2 * entries;
                (0..2 * entries).collect()
            } else {
                // A Q6 style prefix below the scratch rows.
                (0..boundary).collect()
            };
            resident_rows.push((tile, rows));
            if rng.gen_bool(0.2) {
                let stray = (0..rng.gen_range(1..4usize))
                    .map(|_| rng.gen_range(0..tile_rows + 80))
                    .collect();
                resident_rows.push((tile, stray));
            }
        }
    }
    let resident_analog: Vec<usize> = (0..geometry.analog_tiles + 1)
        .filter(|_| rng.gen_bool(0.3))
        .collect();

    let digital_tile = |rng: &mut StdRng| {
        if rng.gen_bool(0.93) {
            rng.gen_range(0..geometry.digital_tiles)
        } else {
            geometry.digital_tiles + rng.gen_range(0..2usize)
        }
    };
    let analog_tile = |rng: &mut StdRng| {
        if geometry.analog_tiles > 0 && rng.gen_bool(0.9) {
            rng.gen_range(0..geometry.analog_tiles)
        } else {
            geometry.analog_tiles + rng.gen_range(0..2usize)
        }
    };
    let cols = geometry.tile_cols;
    let len = rng.gen_range(0..48usize);
    let mut program = Vec::with_capacity(len);
    while program.len() < len {
        let tile = digital_tile(&mut rng);
        let instr = match rng.gen_range(0..12u32) {
            0 | 1 => CimInstruction::WriteRow {
                tile,
                row: row(&mut rng, tile_rows, boundary),
                bits: BitVec::zeros(width(&mut rng, cols)),
            },
            2 => CimInstruction::ReadRow {
                tile,
                row: row(&mut rng, tile_rows, boundary),
            },
            3 | 4 => {
                let op = [ScoutOp::Or, ScoutOp::And, ScoutOp::Xor][rng.gen_range(0..3usize)];
                let fan_in = rng.gen_range(0..8usize);
                let mut rows: Vec<usize> = (0..fan_in)
                    .map(|_| row(&mut rng, tile_rows, boundary))
                    .collect();
                if fan_in > 1 && rng.gen_bool(0.2) {
                    rows[fan_in - 1] = rows[0];
                }
                CimInstruction::Logic { tile, op, rows }
            }
            5 => CimInstruction::StoreLast {
                tile,
                row: row(&mut rng, tile_rows, boundary),
            },
            6 => CimInstruction::WriteKey {
                tile,
                slot: rng.gen_range(0..tile_rows / 2 + 3),
                value: BitVec::zeros(width(&mut rng, cols)),
                care: BitVec::ones(width(&mut rng, cols)),
            },
            7 | 8 => CimInstruction::MatchSearch {
                tile,
                entries: rng.gen_range(0..tile_rows / 2 + 4),
                key: BitVec::zeros(width(&mut rng, cols)),
                kind: match rng.gen_range(0..3u32) {
                    0 => MatchKind::Exact,
                    1 => MatchKind::Ternary,
                    _ => MatchKind::Range { lo: 0, hi: 3 },
                },
            },
            9 => {
                let (r, c) = if rng.gen_bool(0.8) {
                    (geometry.analog_rows, geometry.analog_cols)
                } else {
                    (rng.gen_range(1..6usize), rng.gen_range(1..6usize))
                };
                let zero = rng.gen_bool(0.15);
                CimInstruction::ProgramMatrix {
                    tile: analog_tile(&mut rng),
                    matrix: Matrix::from_fn(r, c, |i, j| if zero { 0.0 } else { (i + j) as f64 }),
                }
            }
            10 => CimInstruction::Mvm {
                tile: analog_tile(&mut rng),
                x: vec![1.0; width(&mut rng, geometry.analog_cols)],
            },
            _ => CimInstruction::MvmT {
                tile: analog_tile(&mut rng),
                z: vec![1.0; width(&mut rng, geometry.analog_rows)],
            },
        };
        // Latch chains: a sensing instruction is often stored at once.
        let senses = matches!(
            instr,
            CimInstruction::ReadRow { .. } | CimInstruction::Logic { .. }
        );
        program.push(instr);
        if senses && rng.gen_bool(0.4) {
            program.push(CimInstruction::StoreLast {
                tile,
                row: row(&mut rng, tile_rows, boundary),
            });
        }
    }

    // Outputs: every index, none, or a random unsorted list that may
    // repeat and run past the program.
    let outputs = match rng.gen_range(0..3u32) {
        0 => (0..program.len()).collect(),
        1 => Vec::new(),
        _ => (0..rng.gen_range(0..program.len() + 3))
            .map(|_| rng.gen_range(0..program.len() + 3))
            .collect(),
    };
    Case {
        geometry,
        resident_rows,
        resident_analog,
        program,
        outputs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Property: the shipped safety pass and the set-based oracle
    /// agree byte for byte on every random program, and so do the
    /// shipped cost pass and the oracle's listed-row wear fold.
    #[test]
    fn shipped_passes_match_the_set_based_oracle(seed in any::<u64>()) {
        let case = random_case(seed);
        let (shipped, oracle) = case.targets();
        let report = cim_lint::lint(&case.program, &case.outputs, &shipped);
        let expected = reference::lint(&case.program, &case.outputs, &oracle);
        prop_assert_eq!(report.to_json(), expected.to_json(), "seed {}: {:?}", seed, case);

        for model in [
            CostModel::default(),
            CostModel::from_models(&CimUnitParams::default(), 3),
        ] {
            let got = cim_lint::cost(&case.program, &case.geometry, &model);
            let want = reference::cost(&case.program, &case.geometry, &model);
            prop_assert_eq!(&got.row_wear, &want.row_wear, "seed {}", seed);
            prop_assert_eq!(got.to_json(), want.to_json(), "seed {}", seed);
            prop_assert_eq!(
                report.to_json_with(Some(&got)),
                expected.to_json_with(Some(&want)),
                "seed {}",
                seed
            );
        }
    }
}

/// The generator reaches every rule, clean non-empty programs, and the
/// corner where one write is both out of the tile and resident (rows
/// granted past the tile end stay protected).
#[test]
fn random_programs_reach_every_rule() {
    let mut seen = [0usize; RuleCode::ALL.len()];
    let (mut clean, mut resident_past_end) = (0, 0);
    for seed in 0..600 {
        let case = random_case(seed);
        let (shipped, _) = case.targets();
        let report = cim_lint::lint(&case.program, &case.outputs, &shipped);
        clean += usize::from(!case.program.is_empty() && report.is_clean());
        for (n, rule) in seen.iter_mut().zip(RuleCode::ALL) {
            *n += report.diagnostics.iter().filter(|d| d.rule == rule).count();
        }
        resident_past_end += report
            .diagnostics
            .windows(2)
            .filter(|w| {
                w[0].instr_index == w[1].instr_index
                    && w[0].rule == RuleCode::RowBounds
                    && w[1].rule == RuleCode::ResidentWrite
            })
            .count();
    }
    for (n, rule) in seen.iter().zip(RuleCode::ALL) {
        assert!(*n > 0, "{} never fired", rule.code());
    }
    assert!(clean > 0, "no clean non-empty program");
    assert!(resident_past_end > 0, "no resident write past the tile end");
}
