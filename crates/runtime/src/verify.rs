//! Admission-time static verification: the bridge between the pool and
//! the `cim-lint` analyzer.
//!
//! The pool verifies raw instruction streams ([`crate::WorkloadSpec::Raw`]
//! and [`crate::WorkloadSpec::RawQuery`]) unconditionally, and every
//! compiled workload when [`crate::PoolConfig::verify_all_programs`] is
//! set. A program with error-severity findings is rejected with a
//! terminal [`crate::JobError::RejectedByVerifier`] report *before* any
//! device state is touched — the shard never sees the stream.
//!
//! This module's job is building the [`LintTarget`]: the compiled job's
//! declared tile demand plus whatever the queried dataset already made
//! resident (Q6 bin rows, CAM entry row pairs, programmed prototype or
//! weight matrices), so reads of resident data verify clean while
//! writes over it are rejected. A dataset's resident rows are packed
//! into row sets once, when it registers ([`resident_row_sets`]); every
//! query's target shares them.

use crate::compile::{q6_row_bases, CompiledJob, TileDemand};
use crate::dataset::{ResidentPayload, ResidentView};
use crate::schedule::PoolConfig;
use cim_arch::cim::CimUnitParams;
use cim_core::isa::CimInstruction;
use cim_lint::{CostEnvelope, CostModel, Geometry, LintReport, LintTarget};
use cim_simkit::bitvec::BitVec;
use std::sync::Arc;

/// The per-tile analysis geometry of a job with `demand` tiles under
/// the pool's configuration — shared by the safety and cost passes so
/// both analyze the identical machine.
pub(crate) fn lint_geometry(demand: TileDemand, cfg: &PoolConfig) -> Geometry {
    Geometry {
        digital_tiles: demand.digital,
        tile_rows: cfg.tile_rows,
        tile_cols: cfg.tile_cols,
        analog_tiles: demand.analog,
        analog_rows: cfg.analog_rows,
        analog_cols: cfg.analog_cols,
        scout_fan_in: cfg.scout_fan_in,
    }
}

/// Runs the `cim-lint` cost pass over an instruction stream against
/// the pool geometry: the certified [`CostEnvelope`] every compiled
/// job (and every split part) is sealed with. The model prices pulses
/// with the paper-default CIM unit parameters and bounds
/// program-and-verify by the pool's own PCM pulse budget, so the
/// envelope is sound for the exact devices the shards simulate.
pub(crate) fn envelope_of(
    instructions: &[CimInstruction],
    demand: TileDemand,
    cfg: &PoolConfig,
) -> CostEnvelope {
    let model = CostModel::from_models(
        &CimUnitParams::default(),
        cfg.analog_params.pcm.max_program_pulses,
    );
    cim_lint::cost(instructions, &lint_geometry(demand, cfg), &model)
}

/// The rows a dataset pins, as one row set per virtual digital tile:
/// built once, at registration, and shared by the lint target of every
/// query against the dataset.
pub(crate) fn resident_row_sets(payload: &ResidentPayload) -> Arc<Vec<BitVec>> {
    Arc::new(match payload {
        // Q6 bins occupy every row below the scratch region on each
        // pinned tile; queries may only write the scratch rows above.
        ResidentPayload::Q6 { widths, .. } => {
            let (_, _, _, scratch_base) = q6_row_bases();
            vec![BitVec::ones(scratch_base); widths.len()]
        }
        // CAM entries are (value, care) row pairs from row 0 up.
        ResidentPayload::CamRules { entries, .. } | ResidentPayload::CamKeys { entries, .. } => {
            entries.iter().map(|&n| BitVec::ones(2 * n)).collect()
        }
        // Prototype and weight datasets pin analog tiles only.
        ResidentPayload::Hdc { .. } | ResidentPayload::Nn { .. } => Vec::new(),
    })
}

/// Builds the lint target a job with `demand` runs against: the pool's
/// per-tile geometry with the job's own tile counts, plus the resident
/// rows/matrices of the dataset it queries, if any.
pub(crate) fn lint_target(
    demand: TileDemand,
    cfg: &PoolConfig,
    resident: Option<&ResidentView>,
) -> LintTarget {
    let mut target = LintTarget::new(lint_geometry(demand, cfg));
    let Some(view) = resident else {
        return target;
    };
    target = target.with_resident_row_sets(Arc::clone(&view.resident_rows));
    // Prototype / weight matrices: every analog tile the job demands is
    // programmed by the dataset.
    if matches!(
        view.payload,
        ResidentPayload::Hdc { .. } | ResidentPayload::Nn { .. }
    ) {
        for tile in 0..demand.analog {
            target = target.with_resident_analog(tile);
        }
    }
    target
}

/// Statically verifies a compiled job against the pool geometry and its
/// resident dataset. Deterministic: same job, same config, same report.
pub(crate) fn verify_compiled(
    compiled: &CompiledJob,
    cfg: &PoolConfig,
    resident: Option<&ResidentView>,
) -> LintReport {
    let target = lint_target(compiled.demand, cfg, resident);
    cim_lint::lint(&compiled.instructions, &compiled.outputs, &target)
}
