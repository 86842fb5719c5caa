//! The abstract interpreter: walks a program once, folding each
//! instruction's [`cim_core::EffectSummary`] into an abstract machine
//! state and emitting [`Diagnostic`]s where the program would fault,
//! waste work, or touch resident data.
//!
//! Row state is held as packed row sets ([`BitVec`], bit `r` = row
//! `r`): the initialized rows of each digital tile and the resident
//! rows of the target. A rule over a span of rows — a match search
//! senses every value+care row of its entries — is one masked word
//! fold per 64 rows, and a diagnostic's row list is only built when the
//! fold finds a row.

use crate::diag::{Diagnostic, LintReport, RuleCode};
use cim_core::isa::ScoutOp;
use cim_core::{CimInstruction, EffectSummary, Rows, TileFamily};
use cim_simkit::bitvec::BitVec;
use std::sync::Arc;

/// The tile geometry a program is verified against.
///
/// Tile counts are the program's *declared demand* (its virtual tile
/// space — the runtime leases exactly this many physical tiles), not
/// the whole pool: an instruction addressing a tile beyond the demand
/// would escape its lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Digital tiles the program may address.
    pub digital_tiles: usize,
    /// Rows per digital tile.
    pub tile_rows: usize,
    /// Columns (bit width) per digital tile.
    pub tile_cols: usize,
    /// Analog tiles the program may address.
    pub analog_tiles: usize,
    /// Rows per analog tile.
    pub analog_rows: usize,
    /// Columns per analog tile.
    pub analog_cols: usize,
    /// Maximum simultaneously activated rows of a scouting operation.
    pub scout_fan_in: usize,
}

/// What a program runs against: the geometry plus the resident state a
/// pinned dataset established before the program starts.
///
/// Resident digital rows (and resident analog tiles) count as
/// *initialized* — reading them is the whole point of a query — and as
/// *write-protected*: the dataset outlives the job, so storing over
/// them would corrupt every later query ([`RuleCode::ResidentWrite`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintTarget {
    /// The tile geometry.
    pub geometry: Geometry,
    /// Per digital tile, indexed by virtual tile: the rows resident
    /// (initialized and protected) before the program runs, as a row
    /// set with bit `r` standing for row `r`. Rows past a set's end
    /// are not resident, and tiles past the list's end hold no
    /// resident rows; a set may also run past the tile, and rows
    /// granted there stay protected. The sets sit behind an [`Arc`] so
    /// a dataset builds them once and every query's target shares them
    /// ([`LintTarget::with_resident_row_sets`]).
    pub resident_digital: Arc<Vec<BitVec>>,
    /// Per analog tile: whether a matrix is resident (programmed and
    /// protected) before the program runs.
    pub resident_analog: Vec<bool>,
}

impl LintTarget {
    /// A target with no resident state (fresh-lease programs).
    pub fn new(geometry: Geometry) -> Self {
        LintTarget {
            geometry,
            resident_digital: Arc::default(),
            resident_analog: vec![false; geometry.analog_tiles],
        }
    }

    /// Marks `rows` of digital tile `tile` resident. A tile outside
    /// the geometry is ignored.
    ///
    /// # Panics
    ///
    /// Panics if a row is too large for its row set to be allocated.
    pub fn with_resident_rows(
        mut self,
        tile: usize,
        rows: impl IntoIterator<Item = usize>,
    ) -> Self {
        if tile < self.geometry.digital_tiles {
            let rows: Vec<usize> = rows.into_iter().collect();
            let sets = Arc::make_mut(&mut self.resident_digital);
            if sets.len() <= tile {
                sets.resize(tile + 1, BitVec::default());
            }
            let set = &mut sets[tile];
            let len = rows.iter().map(|&r| r + 1).max().unwrap_or(0);
            if len > set.len() {
                let mut words = set.words().to_vec();
                words.resize(len.div_ceil(64), 0);
                *set = BitVec::from_words(words, len);
            }
            for row in rows {
                set.set(row, true);
            }
        }
        self
    }

    /// Replaces the resident digital rows with `sets`, indexed by
    /// virtual tile (see [`LintTarget::resident_digital`]). Sets past
    /// the geometry's tiles are never consulted: the tile bound is
    /// checked before any row rule.
    pub fn with_resident_row_sets(mut self, sets: Arc<Vec<BitVec>>) -> Self {
        self.resident_digital = sets;
        self
    }

    /// Marks analog tile `tile`'s matrix resident.
    pub fn with_resident_analog(mut self, tile: usize) -> Self {
        if tile < self.resident_analog.len() {
            self.resident_analog[tile] = true;
        }
        self
    }
}

/// What the interpreter knows about one analog tile's matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnalogState {
    /// Nothing programmed: an MVM would sense an undefined matrix.
    Unprogrammed,
    /// A resident dataset programmed it before the stream runs; the
    /// shape is not visible to the analyzer, so MVM widths are not
    /// checked, and reprogramming it is a resident-write violation.
    Resident,
    /// Programmed in-stream with a known `(rows, cols)` shape.
    Programmed(usize, usize),
}

/// One live definition of the accelerator-global `last_bits` latch.
#[derive(Debug, Clone, Copy)]
struct LatchDef {
    /// Index of the defining instruction.
    index: usize,
    /// Whether anything consumed the definition (a `StoreLast`, or the
    /// defining instruction's response being a program output).
    used: bool,
}

/// Statically verifies `program` against `target`.
///
/// `outputs` lists the instruction indices whose responses the job
/// returns to the host (a compiled job's output set); a latch
/// definition that is neither stored nor listed there is dead work.
/// The returned report is deterministic: diagnostics are sorted by
/// instruction index, then rule code.
pub fn lint(program: &[CimInstruction], outputs: &[usize], target: &LintTarget) -> LintReport {
    let geo = target.geometry;
    // Returned instructions as a set over the program (only indices
    // inside it can be latch definitions), built at the first latch
    // definition: a search-only stream never needs it.
    let mut returned: Option<BitVec> = None;
    let mut is_returned = |index: usize| {
        returned
            .get_or_insert_with(|| {
                let mut set = BitVec::zeros(program.len());
                for &o in outputs.iter().filter(|&&o| o < program.len()) {
                    set.set(o, true);
                }
                set
            })
            .get(index)
    };
    let mut diags: Vec<Diagnostic> = Vec::new();
    // Rows written in-stream, every tile in one row set: tile `t`'s row
    // `r` is bit `64 * stride * t + r`. Allocated at the first write, so
    // a read-only query stream never allocates it. A row is initialized
    // when it is resident or written.
    let stride = geo.tile_rows.div_ceil(64);
    let mut written = BitVec::default();
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
        let fx = instr.effects();

        // Tile bounds first: everything else indexes per-tile state.
        let granted = match fx.family {
            TileFamily::Digital => geo.digital_tiles,
            TileFamily::Analog => geo.analog_tiles,
        };
        if fx.tile >= granted {
            let family = match fx.family {
                TileFamily::Digital => "digital",
                TileFamily::Analog => "analog",
            };
            diags.push(Diagnostic::new(
                RuleCode::TileBounds,
                i,
                format!(
                    "{mn} addresses {family} tile {t} but the program demands {granted} \
                     {family} tile(s)",
                    mn = instr.mnemonic(),
                    t = fx.tile
                ),
            ));
            continue;
        }

        match fx.family {
            TileFamily::Digital => {
                check_operands(instr, &fx, i, geo, &mut diags);

                // Reads of rows nothing initialized:
                // `read & !(resident | written)`, in-bounds only, to
                // avoid doubling up on the bounds diagnostic.
                let resident = target
                    .resident_digital
                    .get(fx.tile)
                    .map_or(&[][..], BitVec::words);
                let base = stride * fx.tile;
                let init = |w: usize| word(resident, w) | word(written.words(), base + w);
                if any_where(&fx.rows_read, geo.tile_rows, false, init) {
                    let uninit = rows_where(&fx.rows_read, geo.tile_rows, false, init);
                    diags.push(Diagnostic::new(
                        RuleCode::UninitRead,
                        i,
                        format!(
                            "{mn} senses uninitialized row(s) {uninit:?} of tile {t}",
                            mn = instr.mnemonic(),
                            t = fx.tile
                        ),
                    ));
                }

                if !fx.rows_written.is_empty() {
                    // Writes over the resident dataset's pinned rows:
                    // `written & resident`.
                    let (end, pinned) = (64 * resident.len(), |w| word(resident, w));
                    if any_where(&fx.rows_written, end, true, pinned) {
                        let protected = rows_where(&fx.rows_written, end, true, pinned);
                        diags.push(Diagnostic::new(
                            RuleCode::ResidentWrite,
                            i,
                            format!(
                                "{mn} writes resident dataset row(s) {protected:?} of tile {t}",
                                mn = instr.mnemonic(),
                                t = fx.tile
                            ),
                        ));
                    }
                    if written.is_empty() {
                        written = BitVec::zeros(64 * stride * geo.digital_tiles);
                    }
                    for w in fx.rows_written.iter().filter(|&w| w < geo.tile_rows) {
                        written.set(64 * base + w, true);
                    }
                }

                // Latch def-use.
                if fx.consumes_latch {
                    match latch.as_mut() {
                        None => diags.push(Diagnostic::new(
                            RuleCode::LatchUndef,
                            i,
                            format!(
                                "{mn} consumes the last_bits latch but no prior instruction \
                                 defined it",
                                mn = instr.mnemonic()
                            ),
                        )),
                        Some(def) => def.used = true,
                    }
                    if fx.defines_latch {
                        // StoreLast re-defines the latch with the value
                        // it just stored: live, and already consumed.
                        latch = Some(LatchDef {
                            index: i,
                            used: true,
                        });
                    }
                } else if fx.defines_latch {
                    if let Some(prev) = latch {
                        if !prev.used && !is_returned(prev.index) {
                            diags.push(dead_latch(prev.index, i));
                        }
                    }
                    latch = Some(LatchDef {
                        index: i,
                        used: is_returned(i),
                    });
                }
            }
            TileFamily::Analog => {
                check_analog(instr, i, fx.tile, geo, &mut analog, &mut diags);
            }
        }
    }

    if let Some(prev) = latch {
        if !prev.used && !is_returned(prev.index) {
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

/// Word `w` of a packed row set; words past its end read as clear.
fn word(set: &[u64], w: usize) -> u64 {
    set.get(w).copied().unwrap_or(0)
}

/// Whether a row of `rows` below `end` has bit `want` in the packed row
/// set whose words `word_at` reads. A span folds one masked word per 64
/// rows.
fn any_where(rows: &Rows<'_>, end: usize, want: bool, word_at: impl Fn(usize) -> u64) -> bool {
    match rows {
        Rows::Listed(listed) => listed
            .iter()
            .any(|&r| r < end && (word_at(r / 64) >> (r % 64) & 1 == 1) == want),
        Rows::Span(span) => {
            let end = span.end.min(end);
            let mut lo = span.start;
            while lo < end {
                let w = lo / 64;
                let hi = end.min(w * 64 + 64);
                let mask = (!0u64 >> (64 - (hi - lo))) << (lo % 64);
                let bits = word_at(w);
                if mask & if want { bits } else { !bits } != 0 {
                    return true;
                }
                lo = hi;
            }
            false
        }
    }
}

/// The rows [`any_where`] looks for, ascending and distinct: built only
/// once it found one, for the diagnostic's message.
#[cold]
fn rows_where(
    rows: &Rows<'_>,
    end: usize,
    want: bool,
    word_at: impl Fn(usize) -> u64,
) -> Vec<usize> {
    let hit = |&r: &usize| r < end && (word_at(r / 64) >> (r % 64) & 1 == 1) == want;
    let mut hits: Vec<usize> = match rows {
        Rows::Listed(listed) => listed.iter().copied().filter(hit).collect(),
        Rows::Span(span) => (span.start..span.end.min(end)).filter(hit).collect(),
    };
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// A dead-latch warning anchored at the defining instruction,
/// mentioning where the definition died.
fn dead_latch(defined_at: usize, died_at: usize) -> Diagnostic {
    Diagnostic::new(
        RuleCode::LatchDead,
        defined_at,
        format!(
            "last_bits defined here but neither stored nor returned before instruction {died_at}"
        ),
    )
}

/// Operand shapes the tile cannot execute: bit vectors narrower or
/// wider than the tile (the tile asserts widths at execution), rows,
/// CAM slots and entry ranges outside the tile, and logic operand
/// lists the sense amplifier cannot realize.
fn check_operands(
    instr: &CimInstruction,
    fx: &EffectSummary<'_>,
    i: usize,
    geo: Geometry,
    diags: &mut Vec<Diagnostic>,
) {
    let (tile_rows, tile_cols) = (geo.tile_rows, geo.tile_cols);
    match instr {
        CimInstruction::WriteKey {
            slot, value, care, ..
        } => {
            if value.len() != tile_cols {
                diags.push(width_mismatch(instr, i, "value", value.len(), tile_cols));
            }
            if care.len() != tile_cols {
                diags.push(width_mismatch(instr, i, "care mask", care.len(), tile_cols));
            }
            if 2 * slot + 1 >= tile_rows {
                diags.push(Diagnostic::new(
                    RuleCode::RowBounds,
                    i,
                    format!(
                        "CAM.WK slot {slot} needs row pair ({}, {}), the tile has {tile_rows} rows \
                         ({} slots)",
                        2 * slot,
                        2 * slot + 1,
                        tile_rows / 2
                    ),
                ));
            }
        }
        CimInstruction::MatchSearch { entries, key, .. } => {
            if key.len() != tile_cols {
                diags.push(width_mismatch(instr, i, "search key", key.len(), tile_cols));
            }
            if 2 * entries > tile_rows {
                diags.push(Diagnostic::new(
                    RuleCode::RowBounds,
                    i,
                    format!(
                        "{mn} searches {entries} entries (rows 0..{}), the tile has {tile_rows} \
                         rows ({} slots)",
                        2 * entries,
                        tile_rows / 2,
                        mn = instr.mnemonic()
                    ),
                ));
            }
        }
        _ => {
            if let CimInstruction::WriteRow { bits, .. } = instr {
                if bits.len() != tile_cols {
                    diags.push(width_mismatch(instr, i, "operand", bits.len(), tile_cols));
                }
            }
            let mut rows = fx.rows_read.iter().chain(fx.rows_written.iter());
            if rows.any(|r| r >= tile_rows) {
                diags.push(out_of_bounds(instr, fx, i, tile_rows));
            }
            if let CimInstruction::Logic { op, rows, .. } = instr {
                check_arity(*op, rows, i, geo.scout_fan_in, diags);
            }
        }
    }
}

/// The width diagnostic of a bit-vector operand that is not
/// `tile_cols` bits wide.
#[cold]
fn width_mismatch(
    instr: &CimInstruction,
    i: usize,
    what: &str,
    width: usize,
    tile_cols: usize,
) -> Diagnostic {
    Diagnostic::new(
        RuleCode::WidthMismatch,
        i,
        format!(
            "{mn} {what} is {width} bits wide, the tile is {tile_cols}",
            mn = instr.mnemonic()
        ),
    )
}

/// The row-bounds diagnostic of an instruction addressing rows past
/// the tile, listing them ascending and distinct.
#[cold]
fn out_of_bounds(
    instr: &CimInstruction,
    fx: &EffectSummary<'_>,
    i: usize,
    tile_rows: usize,
) -> Diagnostic {
    let mut oob: Vec<usize> = fx
        .rows_read
        .iter()
        .chain(fx.rows_written.iter())
        .filter(|&r| r >= tile_rows)
        .collect();
    oob.sort_unstable();
    oob.dedup();
    Diagnostic::new(
        RuleCode::RowBounds,
        i,
        format!(
            "{mn} addresses row(s) {oob:?}, the tile has {tile_rows} rows",
            mn = instr.mnemonic()
        ),
    )
}

/// Operand lists the sense amplifier cannot realize.
fn check_arity(op: ScoutOp, rows: &[usize], i: usize, fan_in: usize, diags: &mut Vec<Diagnostic>) {
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
    if has_duplicate(rows) {
        bad(format!(
            "duplicate activated rows {rows:?} (a row can only be activated once per access)"
        ));
    }
}

/// Whether an operand list names a row twice: pairwise for the short
/// lists the scouting fan-in allows, through a sorted copy for longer
/// ones.
fn has_duplicate(rows: &[usize]) -> bool {
    if rows.len() <= 16 {
        rows.iter().enumerate().any(|(k, r)| rows[..k].contains(r))
    } else {
        let mut sorted = rows.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == w[1])
    }
}

/// Analog-side checks: matrix shapes against the tile, MVM operand
/// lengths against the programmed shape, senses of unprogrammed tiles,
/// reprogramming of resident tiles.
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
            // A tile programs every device, so only its exact shape fits.
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
            // The conductance mapping scales by the largest magnitude,
            // which a matrix of zeros does not have.
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
                    format!("CIM.PROG reprograms analog tile {tile}, which holds a resident dataset matrix"),
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
                        "CIM.MVM input has length {}, the programmed matrix has {cols} columns",
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

/// An MVM over a tile no one programmed.
fn unprogrammed_mvm(i: usize, tile: usize, mn: &str) -> Diagnostic {
    Diagnostic::new(
        RuleCode::UninitRead,
        i,
        format!("{mn} senses analog tile {tile} but no matrix was programmed or resident"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_core::isa::MatchKind;
    use cim_simkit::bitvec::BitVec;
    use cim_simkit::linalg::Matrix;

    fn geometry() -> Geometry {
        Geometry {
            digital_tiles: 2,
            tile_rows: 8,
            tile_cols: 16,
            analog_tiles: 1,
            analog_rows: 4,
            analog_cols: 4,
            scout_fan_in: 4,
        }
    }

    fn run(program: Vec<CimInstruction>, target: &LintTarget) -> LintReport {
        let outputs: Vec<usize> = (0..program.len()).collect();
        lint(&program, &outputs, target)
    }

    fn wr(tile: usize, row: usize) -> CimInstruction {
        CimInstruction::WriteRow {
            tile,
            row,
            bits: BitVec::zeros(16),
        }
    }

    #[test]
    fn clean_reduction_program_passes() {
        let target = LintTarget::new(geometry());
        let program = vec![
            wr(0, 0),
            wr(0, 1),
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows: vec![0, 1],
            },
            CimInstruction::StoreLast { tile: 0, row: 2 },
            CimInstruction::ReadRow { tile: 0, row: 2 },
        ];
        let report = run(program, &target);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn uninit_read_is_flagged() {
        let target = LintTarget::new(geometry());
        let report = run(vec![CimInstruction::ReadRow { tile: 0, row: 3 }], &target);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].rule, RuleCode::UninitRead);
    }

    #[test]
    fn resident_rows_are_readable_but_not_writable() {
        let target = LintTarget::new(geometry()).with_resident_rows(0, 0..4);
        let ok = run(
            vec![CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::And,
                rows: vec![0, 3],
            }],
            &target,
        );
        assert!(ok.is_clean(), "{}", ok.to_text());
        let bad = run(vec![wr(0, 2)], &target);
        assert_eq!(bad.diagnostics[0].rule, RuleCode::ResidentWrite);
        // Scratch rows above the resident range stay writable.
        let scratch = run(vec![wr(0, 6)], &target);
        assert!(scratch.is_clean());
    }

    #[test]
    fn store_last_without_definition() {
        let target = LintTarget::new(geometry());
        let report = run(vec![CimInstruction::StoreLast { tile: 0, row: 0 }], &target);
        assert_eq!(report.diagnostics[0].rule, RuleCode::LatchUndef);
    }

    #[test]
    fn dead_latch_is_a_warning_only_when_unreturned() {
        let program = vec![
            wr(0, 0),
            wr(0, 1),
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows: vec![0, 1],
            },
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::And,
                rows: vec![0, 1],
            },
            CimInstruction::StoreLast { tile: 0, row: 2 },
        ];
        let target = LintTarget::new(geometry());
        // Returned to the host: instruction 2 is an output, not dead.
        let all_out = lint(&program, &[2, 3], &target);
        assert!(all_out.is_clean(), "{}", all_out.to_text());
        // Not an output and clobbered by instruction 3: dead.
        let report = lint(&program, &[3], &target);
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
        let warn = &report.diagnostics[0];
        assert_eq!(warn.rule, RuleCode::LatchDead);
        assert_eq!(warn.instr_index, 2);
    }

    #[test]
    fn dead_latch_at_end_of_program() {
        let program = vec![wr(0, 0), CimInstruction::ReadRow { tile: 0, row: 0 }];
        let target = LintTarget::new(geometry());
        let report = lint(&program, &[], &target);
        assert_eq!(report.warning_count(), 1);
        assert_eq!(report.diagnostics[0].instr_index, 1);
    }

    #[test]
    fn tile_and_row_bounds() {
        let target = LintTarget::new(geometry());
        let report = run(
            vec![
                CimInstruction::ReadRow { tile: 5, row: 0 },
                wr(0, 200),
                CimInstruction::Mvm {
                    tile: 3,
                    x: vec![0.0; 4],
                },
            ],
            &target,
        );
        let rules: Vec<RuleCode> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![
                RuleCode::TileBounds,
                RuleCode::RowBounds,
                RuleCode::TileBounds
            ]
        );
    }

    #[test]
    fn cam_slot_and_entry_bounds() {
        let target = LintTarget::new(geometry());
        // 8 rows = 4 slots; slot 4 and a 5-entry search both overflow.
        let report = run(
            vec![
                CimInstruction::WriteKey {
                    tile: 0,
                    slot: 4,
                    value: BitVec::zeros(16),
                    care: BitVec::ones(16),
                },
                CimInstruction::MatchSearch {
                    tile: 0,
                    entries: 5,
                    key: BitVec::zeros(16),
                    kind: MatchKind::Exact,
                },
            ],
            &target,
        );
        assert!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.rule == RuleCode::RowBounds)
                .count()
                >= 2
        );
    }

    #[test]
    fn arity_rules() {
        let target = LintTarget::new(geometry());
        let logic = |op, rows| CimInstruction::Logic { tile: 0, op, rows };
        let program = vec![
            wr(0, 0),
            wr(0, 1),
            wr(0, 2),
            logic(ScoutOp::Xor, vec![0, 1, 2]), // XOR needs exactly 2
            logic(ScoutOp::And, vec![0]),       // fewer than 2
            logic(ScoutOp::Or, vec![0, 1, 2, 0, 1]), // above fan-in 4
            logic(ScoutOp::Or, vec![0, 0]),     // duplicate rows
        ];
        let report = run(program, &target);
        let arity: Vec<usize> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleCode::BadArity)
            .map(|d| d.instr_index)
            .collect();
        assert_eq!(arity, vec![3, 4, 5, 5, 6]);
    }

    #[test]
    fn width_mismatches() {
        let target = LintTarget::new(geometry());
        let report = run(
            vec![
                CimInstruction::WriteRow {
                    tile: 0,
                    row: 0,
                    bits: BitVec::ones(3),
                },
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    matrix: Matrix::from_fn(9, 2, |_, _| 1.0),
                },
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    matrix: Matrix::from_fn(2, 3, |_, _| 1.0),
                },
                CimInstruction::Mvm {
                    tile: 0,
                    x: vec![0.0; 7],
                },
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    matrix: Matrix::from_fn(4, 4, |_, _| 1.0),
                },
                CimInstruction::Mvm {
                    tile: 0,
                    x: vec![0.0; 4],
                },
            ],
            &target,
        );
        let widths: Vec<usize> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleCode::WidthMismatch)
            .map(|d| d.instr_index)
            .collect();
        // A matrix smaller than the tile mismatches as much as a larger one.
        assert_eq!(widths, vec![0, 1, 2, 3], "{}", report.to_text());
    }

    #[test]
    fn zero_matrix_rejected() {
        let target = LintTarget::new(geometry());
        let program = |w: f64| {
            vec![CimInstruction::ProgramMatrix {
                tile: 0,
                matrix: Matrix::from_fn(4, 4, |i, j| if i == 3 && j == 2 { w } else { 0.0 }),
            }]
        };
        let zero = run(program(0.0), &target);
        let codes: Vec<RuleCode> = zero.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(codes, vec![RuleCode::ZeroMatrix], "{}", zero.to_text());
        assert!(run(program(-0.5), &target).is_clean());
    }

    #[test]
    fn analog_resident_protection_and_uninit_sense() {
        let fresh = LintTarget::new(geometry());
        let report = run(
            vec![CimInstruction::Mvm {
                tile: 0,
                x: vec![0.0; 4],
            }],
            &fresh,
        );
        assert_eq!(report.diagnostics[0].rule, RuleCode::UninitRead);

        let resident = LintTarget::new(geometry()).with_resident_analog(0);
        let ok = run(
            vec![CimInstruction::Mvm {
                tile: 0,
                x: vec![0.0; 4],
            }],
            &resident,
        );
        assert!(ok.is_clean());
        let reprogram = run(
            vec![CimInstruction::ProgramMatrix {
                tile: 0,
                matrix: Matrix::from_fn(4, 4, |_, _| 1.0),
            }],
            &resident,
        );
        assert_eq!(reprogram.diagnostics[0].rule, RuleCode::ResidentWrite);
    }

    #[test]
    fn cam_round_trip_is_clean() {
        let target = LintTarget::new(geometry());
        let program = vec![
            CimInstruction::WriteKey {
                tile: 0,
                slot: 0,
                value: BitVec::zeros(16),
                care: BitVec::ones(16),
            },
            CimInstruction::WriteKey {
                tile: 0,
                slot: 1,
                value: BitVec::ones(16),
                care: BitVec::ones(16),
            },
            CimInstruction::MatchSearch {
                tile: 0,
                entries: 2,
                key: BitVec::zeros(16),
                kind: MatchKind::Ternary,
            },
        ];
        let report = run(program, &target);
        assert!(report.is_clean(), "{}", report.to_text());
        // Searching a third, never-written entry senses uninit rows.
        let over = run(
            vec![CimInstruction::MatchSearch {
                tile: 0,
                entries: 3,
                key: BitVec::zeros(16),
                kind: MatchKind::Exact,
            }],
            &target,
        );
        assert_eq!(over.diagnostics[0].rule, RuleCode::UninitRead);
    }

    #[test]
    fn reports_are_deterministic_and_sorted() {
        let target = LintTarget::new(geometry());
        let program = vec![
            CimInstruction::StoreLast { tile: 0, row: 99 },
            CimInstruction::ReadRow { tile: 9, row: 0 },
        ];
        let outputs: Vec<usize> = (0..program.len()).collect();
        let a = lint(&program, &outputs, &target);
        let b = lint(&program, &outputs, &target);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let indices: Vec<usize> = a.diagnostics.iter().map(|d| d.instr_index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }
}
