//! The compile layer: lowering application workloads to instruction
//! streams.
//!
//! The (crate-internal) `compile` entry point turns a [`WorkloadSpec`]
//! into a [`CompiledJob`]: a
//! straight-line [`CimInstruction`] stream over *virtual* tile indices
//! (`0..demand`), the indices of the instructions whose responses are
//! the job's outputs, a [`Finalizer`] that decodes those responses on
//! the host, and the job's resident-data placement as a
//! [`cim_core::AddressMap`] window in the extended address space.
//!
//! Virtual tile indices keep compilation independent of placement: the
//! scheduler relocates the stream onto whichever physical tiles the
//! admission layer leases, and the same compiled job can run on any
//! shard. Multi-step reductions use [`CimInstruction::StoreLast`]
//! (Pinatubo-style write-back) so whole reduction trees execute without
//! host round-trips, alternating between two scratch rows per predicate
//! so an access never reads the row it is about to overwrite — the same
//! discipline as `cim_bitmap_db::query::Q6CimEngine`.

use crate::dataset::{DatasetSpec, ResidentPayload, ResidentView};
use crate::job::{
    DatasetId, HdcOutcome, ImgFilterOp, JobId, JobKind, JobOutput, NnOutcome, TenantId,
    WorkloadSpec,
};
use crate::schedule::PoolConfig;
use cim_bitmap_db::query::{q6_result_from_selection, q6_scan, Q6Indexes};
use cim_bitmap_db::tpch::{LineItemTable, Q6Params, DISCOUNT_LEVELS, MAX_QUANTITY, SHIP_MONTHS};
use cim_core::isa::{CimInstruction, CimResponse, MatchKind, TileFamily};
use cim_core::AddressMap;
use cim_crossbar::cam::{host_match, key_bits, RuleSet};
use cim_crossbar::scouting::ScoutOp;
use cim_hdc::lang::LanguageTask;
use cim_hdc::Hypervector;
use cim_imgproc::image::GrayImage;
use cim_lint::CostEnvelope;
use cim_nn::binarized::{argmax_scores, snap_to_parity, BinarizedMlp};
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::rng::seeded;
use cim_xor_cipher::otp::OneTimePad;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Digital tiles and analog tiles a job needs simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileDemand {
    /// Digital (Scouting-Logic) tiles.
    pub digital: usize,
    /// Analog (matrix-vector) tiles.
    pub analog: usize,
}

/// Cache/offload profile used for the `cim-arch` host-vs-CIM estimate;
/// a constant per workload family ([`JobKind::host_profile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostProfile {
    /// Fraction of dynamic instructions the CIM core absorbs.
    pub accel_fraction: f64,
    /// L1 miss rate of the host running the same kernel.
    pub l1_miss: f64,
    /// L2 miss rate of the host running the same kernel.
    pub l2_miss: f64,
}

/// Host-side decoding of a job's output responses.
#[derive(Debug, Clone)]
pub enum Finalizer {
    /// Reassemble per-tile selections and aggregate revenue on the host.
    Q6 {
        /// The table the query ran over (aggregation is host-side float
        /// work, exactly as in the paper's execution model). Shared so
        /// resident-dataset queries don't copy the table per job.
        table: Arc<LineItemTable>,
        /// Query parameters.
        params: Q6Params,
        /// Entry count per tile, in virtual tile order.
        widths: Vec<usize>,
    },
    /// Argmax each score vector over the first `classes` entries.
    Hdc {
        /// Stored classes (rows beyond this are padding).
        classes: usize,
        /// Ground-truth labels.
        expected: Vec<usize>,
    },
    /// Concatenate ciphertext bits and trim to `len` bytes.
    Xor {
        /// Plaintext length in bytes.
        len: usize,
    },
    /// Merge the per-tile partial rows of a bulk reduction with `op`
    /// host-side and trim to `width`. A single-tile reduction carries
    /// one response and the merge is the identity; a reduction chunked
    /// over several tiles (possibly on several shards) combines the
    /// partials exactly — every [`ScoutOp`] is associative, so the
    /// host-side fold equals the in-array result over all operands.
    Bits {
        /// Original operand width before padding to the tile width.
        width: usize,
        /// The reduction operation, reapplied across partials.
        op: ScoutOp,
    },
    /// Decode final-layer MVM responses of a binarized network: snap
    /// each entry onto the ±1×±1 parity lattice of the layer's fan-in
    /// (recovering the exact integer score under bounded analog noise),
    /// then argmax into a class prediction.
    Nn {
        /// Stored classes (response entries beyond this are padding).
        classes: usize,
        /// Fan-in of the final layer (defines the parity lattice).
        fan_in: usize,
    },
    /// Reassemble the resident image rows from row-read responses and
    /// run the filter arithmetic on the host.
    Img {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
        /// The filter to apply.
        filter: ImgFilterOp,
        /// Image row index carried by each output response, in order.
        reads: Vec<usize>,
    },
    /// Reassemble per-tile match-line responses into one match set per
    /// key. Responses are tile-major (all keys of virtual tile 0, then
    /// tile 1, …), so a scatter-gathered search concatenates into the
    /// identical sequence as an unsplit one.
    Matches {
        /// Number of search keys.
        keys: usize,
        /// CAM entry count per tile, in virtual tile order.
        entries: Vec<usize>,
    },
    /// Reassemble per-tile match sets like [`Finalizer::Matches`], then
    /// resolve each key to its lowest-index matching entry — the
    /// priority encoder of a classification/lookup CAM.
    Resolve {
        /// Number of probe keys.
        keys: usize,
        /// CAM entry count per tile, in virtual tile order.
        entries: Vec<usize>,
    },
    /// Decode an HDC associative-memory window sweep: per query, an
    /// expanding sequence of Hamming-window searches over the class
    /// prototypes. Candidates accumulate across windows until the
    /// certified-stop rule proves the best candidate's overlap beats
    /// every class still outside the window; the exact host re-rank
    /// over the candidates then reproduces [`Finalizer::Hdc`]'s
    /// lowest-index argmax bit for bit (falling back to an all-class
    /// re-rank if the sweep never certifies).
    Assoc {
        /// Class prototypes as `d`-bit vectors, in class order.
        prototypes: Vec<BitVec>,
        /// Encoded queries as `d`-bit vectors, in sample order.
        queries: Vec<BitVec>,
        /// Ground-truth labels.
        expected: Vec<usize>,
        /// The `hi` bound of each sweep window, in emission order.
        windows: Vec<u32>,
    },
    /// Return every response verbatim.
    Raw,
}

/// Decodes a bits response. Finalizers only consume outputs their own
/// compiler emitted, so any other shape is a compiler bug — a runtime
/// invariant, not a tenant-reachable state.
fn bits_of(resp: CimResponse) -> BitVec {
    match resp.into_bits() {
        Some(bits) => bits,
        None => unreachable!("compiled output promised a bit vector"),
    }
}

/// Decodes a vector response; see [`bits_of`] for why failure is
/// unreachable.
fn vector_of(resp: CimResponse) -> Vec<f64> {
    match resp.into_vector() {
        Some(v) => v,
        None => unreachable!("compiled output promised a vector"),
    }
}

/// Reassembles tile-major match-line responses (`entries.len()` tiles ×
/// `keys` keys) into one concatenated match set per key.
fn assemble_match_sets(outputs: Vec<CimResponse>, keys: usize, entries: &[usize]) -> Vec<BitVec> {
    let total: usize = entries.iter().sum();
    let mut bases = Vec::with_capacity(entries.len());
    let mut base = 0usize;
    for &n in entries {
        bases.push(base);
        base += n;
    }
    let mut sets = vec![BitVec::zeros(total); keys];
    for (i, resp) in outputs.into_iter().enumerate() {
        let (t, q) = (i / keys, i % keys);
        let bits = bits_of(resp);
        for s in bits.iter_ones() {
            sets[q].set(bases[t] + s, true);
        }
    }
    sets
}

impl Finalizer {
    /// Decodes the collected output responses into the job's output.
    ///
    /// # Panics
    ///
    /// Panics if the responses do not match what the compiled stream
    /// promised (a runtime invariant, not a tenant-reachable state).
    pub fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        match self {
            Finalizer::Q6 {
                table,
                params,
                widths,
            } => {
                let mut selection = BitVec::zeros(table.rows());
                let mut start = 0;
                for (resp, &width) in outputs.into_iter().zip(widths) {
                    let bits = bits_of(resp);
                    for j in bits.iter_ones() {
                        if j < width {
                            selection.set(start + j, true);
                        }
                    }
                    start += width;
                }
                JobOutput::Q6(q6_result_from_selection(table, params, &selection))
            }
            Finalizer::Hdc { classes, expected } => {
                let predictions = outputs
                    .into_iter()
                    .map(|resp| {
                        let scores = vector_of(resp);
                        let mut best = 0;
                        for (c, &s) in scores.iter().enumerate().take(*classes) {
                            if s > scores[best] {
                                best = c;
                            }
                        }
                        best
                    })
                    .collect();
                JobOutput::Hdc(HdcOutcome {
                    predictions,
                    expected: expected.clone(),
                })
            }
            Finalizer::Xor { len } => {
                let mut bits = BitVec::zeros(len * 8);
                let mut cursor = 0;
                for resp in outputs {
                    let chunk = bits_of(resp);
                    for j in 0..chunk.len() {
                        if cursor + j < len * 8 && chunk.get(j) {
                            bits.set(cursor + j, true);
                        }
                    }
                    cursor += chunk.len();
                }
                let mut bytes = bits.to_bytes();
                bytes.truncate(*len);
                JobOutput::Cipher(bytes)
            }
            Finalizer::Bits { width, op } => {
                let mut merged: Option<BitVec> = None;
                for resp in outputs {
                    let partial = bits_of(resp);
                    merged = Some(match merged {
                        None => partial,
                        Some(acc) => match op {
                            ScoutOp::Or => acc.or(&partial),
                            ScoutOp::And => acc.and(&partial),
                            ScoutOp::Xor => acc.xor(&partial),
                        },
                    });
                }
                let full = match merged {
                    Some(full) => full,
                    None => unreachable!("a reduction always has at least one output"),
                };
                JobOutput::Bits(BitVec::from_fn(*width, |j| full.get(j)))
            }
            Finalizer::Nn { classes, fan_in } => {
                let mut predictions = Vec::with_capacity(outputs.len());
                let mut scores = Vec::with_capacity(outputs.len());
                for resp in outputs {
                    let y = vector_of(resp);
                    let s: Vec<i64> = y
                        .iter()
                        .take(*classes)
                        .map(|&v| snap_to_parity(v, *fan_in))
                        .collect();
                    predictions.push(argmax_scores(&s));
                    scores.push(s);
                }
                JobOutput::Nn(NnOutcome {
                    predictions,
                    scores,
                })
            }
            Finalizer::Img {
                width,
                height,
                filter,
                reads,
            } => {
                // Rebuild the 8-bit image from the row reads (windows
                // re-read rows; identical copies overwrite harmlessly).
                let mut rows: Vec<Vec<f64>> = vec![Vec::new(); *height];
                for (resp, &y) in outputs.into_iter().zip(reads) {
                    let bits = bits_of(resp);
                    let bytes = bits.to_bytes();
                    rows[y] = bytes[..*width].iter().map(|&b| b as f64 / 255.0).collect();
                }
                assert!(
                    rows.iter().all(|r| r.len() == *width),
                    "every image row read back"
                );
                let img = GrayImage::from_fn(*width, *height, |x, y| rows[y][x]);
                JobOutput::Image(filter.apply(&img))
            }
            Finalizer::Matches { keys, entries } => {
                JobOutput::Matches(assemble_match_sets(outputs, *keys, entries))
            }
            Finalizer::Resolve { keys, entries } => {
                let resolved = assemble_match_sets(outputs, *keys, entries)
                    .into_iter()
                    .map(|set| set.iter_ones().next().map(|s| s as u32))
                    .collect();
                JobOutput::Lookups(resolved)
            }
            Finalizer::Assoc {
                prototypes,
                queries,
                expected,
                windows,
            } => {
                let classes = prototypes.len();
                let w = windows.len();
                let responses: Vec<BitVec> = outputs.into_iter().map(bits_of).collect();
                assert_eq!(
                    responses.len(),
                    queries.len() * w,
                    "one response per window"
                );
                let p_max = prototypes.iter().map(BitVec::count_ones).max().unwrap_or(0);
                let predictions = queries
                    .iter()
                    .enumerate()
                    .map(|(i, query)| {
                        let q_ones = query.count_ones();
                        let overlap = |c: usize| prototypes[c].and(query).count_ones();
                        // Ascending-index scan with strict `>` keeps the
                        // lowest class index on overlap ties — the same
                        // rule as `Finalizer::Hdc`'s argmax.
                        let best_of = |set: &BitVec| {
                            let mut best: Option<(usize, usize)> = None;
                            for c in set.iter_ones().filter(|&c| c < classes) {
                                let o = overlap(c);
                                if best.is_none_or(|(_, bo)| o > bo) {
                                    best = Some((c, o));
                                }
                            }
                            best
                        };
                        let mut candidates = BitVec::zeros(classes);
                        for (wi, &h) in windows.iter().enumerate() {
                            for c in responses[i * w + wi].iter_ones() {
                                if c < classes {
                                    candidates.set(c, true);
                                }
                            }
                            if let Some((bc, bo)) = best_of(&candidates) {
                                // Every class still outside a `[0, h]`
                                // Hamming window has overlap at most
                                // `(p_max + q_ones - h - 1) / 2`; once the
                                // best candidate provably beats that, the
                                // global argmax (ties included) is already
                                // in the candidate set.
                                if 2 * bo + h as usize >= p_max + q_ones {
                                    return bc;
                                }
                            }
                        }
                        // The sweep never certified (possible only under
                        // sense noise): exact re-rank over every class.
                        best_of(&BitVec::ones(classes)).map_or(0, |(bc, _)| bc)
                    })
                    .collect();
                JobOutput::Hdc(HdcOutcome {
                    predictions,
                    expected: expected.clone(),
                })
            }
            Finalizer::Raw => JobOutput::Responses(outputs),
        }
    }
}

/// A workload lowered to an executable form.
#[derive(Debug, Clone)]
pub struct CompiledJob {
    /// The job id.
    pub job: JobId,
    /// The owning tenant.
    pub tenant: TenantId,
    /// Workload family (drives batch compatibility).
    pub kind: JobKind,
    /// The resident dataset the job runs against, if any: the
    /// scheduler routes the job to the dataset's shard and maps its
    /// virtual tiles onto the dataset's pinned tiles instead of
    /// granting a fresh lease.
    pub dataset: Option<DatasetId>,
    /// Tiles the job must hold while executing.
    pub demand: TileDemand,
    /// The instruction stream, over virtual tile indices `0..demand`.
    pub instructions: Vec<CimInstruction>,
    /// Indices of instructions whose responses the finalizer consumes.
    pub outputs: Vec<usize>,
    /// Host-side output decoder.
    pub finalizer: Finalizer,
    /// The job's resident-data window in the extended address space
    /// (`None` for jobs with no digital-resident data).
    pub placement: Option<AddressMap>,
    /// Bytes resident in CIM tiles while the job runs.
    pub resident_bytes: u64,
    /// Seed of the job's private noise stream.
    pub seed: u64,
    /// Whether the job is digital-tile-parallel: every instruction
    /// touches exactly one digital tile and the tiles never exchange
    /// data, so the scheduler may partition the virtual tiles into
    /// contiguous chunks and scatter them across shards, gathering the
    /// chunk responses host-side before the (single) finalizer runs.
    /// This is what lets a job bigger than any one shard still serve
    /// from the pool's aggregate capacity.
    pub splittable: bool,
    /// The certified cost envelope of the instruction stream — the
    /// `cim_lint::cost` pass over this job against the pool geometry,
    /// sealed at compile time (and per part when a job splits). The one
    /// cost authority: batching, balancing and the offload planner all
    /// read it.
    pub envelope: CostEnvelope,
}

impl CompiledJob {
    /// Deterministic load estimate for shard balancing, in units of one
    /// digital row access: the [`CostEnvelope::cost_units`] scalar of
    /// the job's sealed envelope. Analog operations are weighted by
    /// their simulated-latency ratio (a 1 µs MVM cycle vs a 10 ns row
    /// write), matrix programming by its device count, and logic
    /// accesses by the rows they activate: a Scouting access fans
    /// current through every selected row simultaneously, so a wide raw
    /// reduction costs what it touches, not one — otherwise a single
    /// wide-fan-in job could slip a whole shard's worth of work past
    /// [`PoolConfig::max_batch_cost`] as "one instruction". The
    /// analyzer is the single cost authority; this accessor exists so
    /// batching and balancing read the same scalar everywhere.
    pub fn estimated_cost(&self) -> u64 {
        self.envelope.cost_units
    }
}

/// Why a workload cannot be compiled for a given pool configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The workload needs more digital tiles than are available. For
    /// tile-parallel (splittable) workloads `available` is pool-wide —
    /// the pool's capacity when raised at compile time, its currently
    /// free tiles when raised by admission; for single-shard workloads
    /// it is the best shard's.
    NeedsMoreDigitalTiles {
        /// Tiles required.
        required: usize,
        /// Tiles available (see above for the scope).
        available: usize,
    },
    /// The workload needs more rows per tile than the configured geometry.
    NeedsMoreTileRows {
        /// Rows required.
        required: usize,
        /// Rows per configured tile.
        available: usize,
    },
    /// The workload needs more analog tiles than one shard owns.
    NeedsMoreAnalogTiles {
        /// Tiles required.
        required: usize,
        /// Tiles one shard owns.
        available: usize,
    },
    /// Prototype matrix exceeds the analog tile geometry.
    AnalogShapeTooSmall {
        /// (classes, dimension) required.
        required: (usize, usize),
        /// (rows, cols) of a configured analog tile.
        available: (usize, usize),
    },
    /// The workload carries no work (empty message, zero rows…).
    EmptyWorkload,
    /// Bulk operand rows have inconsistent or oversized widths.
    BadOperandWidth {
        /// Offending width.
        width: usize,
        /// Maximum (tile) width.
        max: usize,
    },
    /// The operation does not support the requested fan-in (XOR is
    /// exactly two rows).
    UnsupportedFanIn {
        /// The operation.
        op: ScoutOp,
        /// The requested fan-in.
        fan_in: usize,
    },
    /// A query referenced a dataset id the pool has never seen (or one
    /// already fully released).
    UnknownDataset {
        /// The offending id.
        dataset: DatasetId,
    },
    /// A query referenced a dataset owned by another tenant. Datasets
    /// are isolation domains: only the registering tenant may read one.
    DatasetAccessDenied {
        /// The dataset.
        dataset: DatasetId,
        /// Its owner.
        owner: TenantId,
    },
    /// A query's workload family does not match the dataset's kind
    /// (e.g. a [`WorkloadSpec::Q6Query`] against HDC prototypes).
    DatasetKindMismatch {
        /// The dataset.
        dataset: DatasetId,
    },
    /// The dataset's load program failed on the shard; the registration
    /// is rolled back.
    DatasetLoadFailed {
        /// The captured failure message.
        message: String,
    },
    /// The dataset can never fit, regardless of current admission
    /// pressure: its digital pin outgrows the *whole pool* (digital
    /// datasets split across shards), or its analog pin outgrows one
    /// shard (weight matrices are not yet split). Callers should size
    /// the dataset down; retrying or waiting for leases to free cannot
    /// help, which is what distinguishes this from the transient
    /// `NeedsMore…Tiles` errors.
    DatasetTooLarge {
        /// Tiles the dataset's load program needs.
        needed: TileDemand,
        /// The most the pool can ever pin for one dataset: pool-wide
        /// digital tiles, one shard's analog tiles.
        pool_capacity: TileDemand,
    },
    /// An inference input's length does not match the network's input
    /// width.
    InputLengthMismatch {
        /// Offending input length.
        got: usize,
        /// The network's input width.
        expected: usize,
    },
    /// The [`crate::RuntimePool`] was dropped: a session that outlives
    /// its pool can no longer submit or register.
    PoolShutDown,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NeedsMoreDigitalTiles {
                required,
                available,
            } => write!(f, "needs {required} digital tiles, shard has {available}"),
            CompileError::NeedsMoreAnalogTiles {
                required,
                available,
            } => write!(f, "needs {required} analog tiles, shard has {available}"),
            CompileError::NeedsMoreTileRows {
                required,
                available,
            } => write!(f, "needs {required} rows per tile, tiles have {available}"),
            CompileError::AnalogShapeTooSmall {
                required,
                available,
            } => write!(
                f,
                "needs a {}x{} analog tile, shard tiles are {}x{}",
                required.0, required.1, available.0, available.1
            ),
            CompileError::EmptyWorkload => write!(f, "workload carries no work"),
            CompileError::BadOperandWidth { width, max } => {
                write!(f, "operand width {width} exceeds tile width {max}")
            }
            CompileError::UnsupportedFanIn { op, fan_in } => {
                write!(f, "{op:?} does not support fan-in {fan_in}")
            }
            CompileError::UnknownDataset { dataset } => {
                write!(f, "{dataset} is not registered with this pool")
            }
            CompileError::DatasetAccessDenied { dataset, owner } => {
                write!(f, "{dataset} is owned by {owner}")
            }
            CompileError::DatasetKindMismatch { dataset } => {
                write!(f, "query kind does not match what {dataset} holds")
            }
            CompileError::DatasetLoadFailed { message } => {
                write!(f, "dataset load program failed: {message}")
            }
            CompileError::DatasetTooLarge {
                needed,
                pool_capacity,
            } => write!(
                f,
                "dataset needs {} digital + {} analog tiles, the pool can ever pin {} digital \
                 (pool-wide) + {} analog (one shard): size the dataset down",
                needed.digital, needed.analog, pool_capacity.digital, pool_capacity.analog
            ),
            CompileError::InputLengthMismatch { got, expected } => {
                write!(f, "input has length {got}, the network expects {expected}")
            }
            CompileError::PoolShutDown => write!(f, "the pool has shut down"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Scratch rows reserved at the top of a Q6 tile: two per predicate.
const Q6_SCRATCH_ROWS: usize = 6;

/// Row bases of the Q6 tile layout: `(month, discount, quantity,
/// scratch)`. Resident bins occupy `month..scratch`; queries reduce
/// into `scratch..scratch + Q6_SCRATCH_ROWS`.
pub(crate) fn q6_row_bases() -> (usize, usize, usize, usize) {
    let month_base = 0usize;
    let discount_base = SHIP_MONTHS as usize;
    let quantity_base = discount_base + DISCOUNT_LEVELS as usize;
    let scratch_base = quantity_base + MAX_QUANTITY as usize;
    (month_base, discount_base, quantity_base, scratch_base)
}

/// What a workload's lowering decides. [`compile`] derives the rest of
/// the [`CompiledJob`] from the spec, its own arguments and, for dataset
/// queries, the [`ResidentView`].
struct Lowered {
    demand: TileDemand,
    instructions: Vec<CimInstruction>,
    outputs: Vec<usize>,
    finalizer: Finalizer,
    /// Bytes the job keeps resident. Query lowerings leave this at 0: a
    /// query reports its dataset's bytes, taken from the view.
    resident_bytes: u64,
    splittable: bool,
}

impl Lowered {
    /// Runs this query lowering cold: `load` (the load program of the
    /// query's dataset twin) first, then the query over the tiles it
    /// just wrote. The job keeps the load's tiles and bytes resident.
    fn after_load(mut self, load: DatasetProgram) -> Lowered {
        let offset = load.instructions.len();
        let mut instructions = load.instructions;
        instructions.append(&mut self.instructions);
        self.outputs.iter_mut().for_each(|o| *o += offset);
        Lowered {
            demand: load.demand,
            instructions,
            resident_bytes: load.resident_bytes,
            ..self
        }
    }
}

/// Lowers a workload into a [`CompiledJob`].
///
/// `seed` is the job's private noise stream; `window_base` is where the
/// scheduler placed the job's resident window in the extended address
/// space. `resident` is the record of the dataset a query spec runs
/// against (the scheduler resolves and validates it before compiling;
/// plain workloads pass `None`).
///
/// Every workload kind has exactly one lowering. The cold kinds with a
/// dataset twin reuse it: [`WorkloadSpec::HdcClassify`] and
/// [`WorkloadSpec::NnInfer`] are their twin's load program followed by
/// the twin query's lowering, and [`WorkloadSpec::Q6Select`] emits each
/// tile's query reductions right after that tile's bin writes.
pub(crate) fn compile(
    spec: &WorkloadSpec,
    job: JobId,
    tenant: TenantId,
    cfg: &PoolConfig,
    seed: u64,
    window_base: u64,
    resident: Option<&ResidentView>,
) -> Result<CompiledJob, CompileError> {
    let payload = || &resident_view(resident).payload;
    let mismatch = |dataset: &DatasetId| CompileError::DatasetKindMismatch { dataset: *dataset };
    let lowered = match spec {
        WorkloadSpec::Q6Select {
            rows,
            table_seed,
            params,
        } => {
            let mut outputs = Vec::new();
            let load = load_q6_table(*rows, *table_seed, cfg, |instructions, t| {
                emit_q6_query(instructions, &mut outputs, params, t, cfg);
            })?;
            let ResidentPayload::Q6 { table, widths } = load.payload else {
                unreachable!("a Q6 table load holds its table")
            };
            Lowered {
                demand: load.demand,
                instructions: load.instructions,
                outputs,
                finalizer: Finalizer::Q6 {
                    table,
                    params: *params,
                    widths,
                },
                resident_bytes: load.resident_bytes,
                splittable: true,
            }
        }
        WorkloadSpec::Q6Query { dataset, params } => match payload() {
            ResidentPayload::Q6 { table, widths } => lower_q6_query(table, widths, *params, cfg),
            _ => return Err(mismatch(dataset)),
        },
        WorkloadSpec::HdcClassify {
            classes,
            d,
            ngram,
            train_len,
            samples,
            sample_len,
        } => {
            // Empty work is reported before the prototype shape check.
            if *samples == 0 || *sample_len == 0 {
                return Err(CompileError::EmptyWorkload);
            }
            let load = load_hdc_prototypes(*classes, *d, *ngram, *train_len, cfg, seed)?;
            let ResidentPayload::Hdc { task, .. } = &load.payload else {
                unreachable!("an HDC prototype load holds its task")
            };
            let query = lower_hdc_query(task, *classes, *d, *samples, *sample_len, cfg, seed)?;
            query.after_load(load)
        }
        WorkloadSpec::HdcQuery {
            dataset,
            samples,
            sample_len,
        } => match payload() {
            ResidentPayload::Hdc { task, classes, d } => {
                lower_hdc_query(task, *classes, *d, *samples, *sample_len, cfg, seed)?
            }
            _ => return Err(mismatch(dataset)),
        },
        WorkloadSpec::HdcAssoc {
            classes,
            d,
            ngram,
            train_len,
            samples,
            sample_len,
        } => lower_hdc_assoc(
            *classes,
            *d,
            *ngram,
            *train_len,
            *samples,
            *sample_len,
            cfg,
            seed,
        )?,
        WorkloadSpec::NnInfer { network, inputs } => {
            // Layer shapes are reported before the inputs, and the
            // inputs before the layer count the load checks.
            nn_geometry(network, cfg)?;
            let query = lower_nn_query(network, inputs, cfg)?;
            query.after_load(load_nn_weights(network, cfg)?)
        }
        WorkloadSpec::NnQuery { dataset, inputs } => match payload() {
            ResidentPayload::Nn { network } => lower_nn_query(network, inputs, cfg)?,
            _ => return Err(mismatch(dataset)),
        },
        WorkloadSpec::CamSearch {
            dataset,
            kind,
            keys,
        } => {
            let (width, entries) = match payload() {
                ResidentPayload::CamRules { rules, entries } => (rules.width(), entries),
                ResidentPayload::CamKeys { width, entries, .. } => (*width, entries),
                _ => return Err(mismatch(dataset)),
            };
            lower_cam_search(width, entries, *kind, keys, cfg)?
        }
        WorkloadSpec::RuleClassify { dataset, packets } => match payload() {
            ResidentPayload::CamRules { rules, entries } => {
                lower_rule_classify(rules, entries, packets, cfg)?
            }
            _ => return Err(mismatch(dataset)),
        },
        WorkloadSpec::KeyLookup { dataset, probes } => match payload() {
            ResidentPayload::CamKeys {
                keys,
                width,
                entries,
            } => lower_key_lookup(keys, *width, entries, probes, cfg)?,
            _ => return Err(mismatch(dataset)),
        },
        WorkloadSpec::ImgFilter { image, filter } => lower_img(image, *filter, cfg)?,
        WorkloadSpec::XorEncrypt { message, key_seed } => lower_xor(message, *key_seed, cfg)?,
        WorkloadSpec::ScoutBulk { op, rows } => lower_scout(*op, rows, cfg)?,
        WorkloadSpec::RawQuery { instructions, .. } => {
            let view = resident_view(resident);
            // The stream addresses the dataset's pinned tiles: demand
            // is exactly the pin, so the scheduler maps virtual tiles
            // onto the dataset's placement like any other query.
            let analog = match &view.payload {
                ResidentPayload::Hdc { .. } => 1,
                ResidentPayload::Nn { network } => network.layers().len(),
                ResidentPayload::Q6 { .. }
                | ResidentPayload::CamRules { .. }
                | ResidentPayload::CamKeys { .. } => 0,
            };
            Lowered {
                demand: TileDemand {
                    digital: view.digital_tiles,
                    analog,
                },
                instructions: instructions.clone(),
                outputs: (0..instructions.len()).collect(),
                finalizer: Finalizer::Raw,
                resident_bytes: 0,
                splittable: false,
            }
        }
        WorkloadSpec::Raw {
            digital_tiles,
            analog_tiles,
            instructions,
        } => Lowered {
            demand: TileDemand {
                digital: *digital_tiles,
                analog: *analog_tiles,
            },
            instructions: instructions.clone(),
            outputs: (0..instructions.len()).collect(),
            finalizer: Finalizer::Raw,
            resident_bytes: (instructions.len() as u64) * 8,
            splittable: false,
        },
    };
    let Lowered {
        demand,
        instructions,
        outputs,
        finalizer,
        resident_bytes,
        splittable,
    } = lowered;
    // A query runs in its dataset's window; a cold job gets a fresh
    // window sized to its digital tiles (none for analog-only jobs).
    let (placement, resident_bytes) = match resident {
        Some(view) => (view.placement, view.resident_bytes),
        None => (
            digital_placement(window_base, demand.digital, cfg),
            resident_bytes,
        ),
    };
    let compiled = CompiledJob {
        job,
        tenant,
        kind: spec.kind(),
        dataset: spec.dataset(),
        demand,
        // Seal the certified cost envelope: every admitted job carries
        // the analyzer's verdict, and batching/balancing read nothing
        // else.
        envelope: crate::verify::envelope_of(&instructions, demand, cfg),
        instructions,
        outputs,
        finalizer,
        placement,
        resident_bytes,
        seed,
        splittable,
    };
    // The compiler holds its own output to the lint-clean bar: in debug
    // builds every non-raw program is re-checked by the static verifier
    // at submit, so a lowering bug surfaces here with a rule code
    // instead of as a mid-batch shard panic. Raw streams are tenant
    // input, checked (and rejected, not asserted) by admission instead.
    #[cfg(debug_assertions)]
    if compiled.kind != JobKind::Raw {
        let report = cim_lint::lint(
            &compiled.instructions,
            &compiled.outputs,
            &crate::verify::lint_target(compiled.demand, cfg, resident),
        );
        debug_assert!(
            report.is_clean(),
            "compiler emitted a program the verifier rejects ({kind:?}):\n{text}",
            kind = compiled.kind,
            text = report.to_text()
        );
    }
    Ok(compiled)
}

/// The resident view the scheduler resolved before compiling. Query
/// specs never reach `compile` without one (submission resolves the
/// dataset under the pool lock before lowering), so a missing view is a
/// scheduler bug, not a tenant error.
fn resident_view(resident: Option<&ResidentView>) -> &ResidentView {
    match resident {
        Some(view) => view,
        None => unreachable!("scheduler resolves the dataset before compiling"),
    }
}

fn digital_placement(base: u64, tiles: usize, cfg: &PoolConfig) -> Option<AddressMap> {
    if tiles == 0 {
        return None;
    }
    Some(AddressMap::new(
        base,
        tiles,
        cfg.tile_rows,
        cfg.tile_cols.div_ceil(8),
    ))
}

/// `true` when the pool's ReRAM model is noise-free: no
/// device-to-device variation and no cycle-to-cycle read noise, so
/// every digital sense and CAM match line resolves deterministically at
/// its nominal current. Range-window CAM searches (and the HDC
/// associative sweep built on them) are exact precisely in this regime;
/// the host-route planner only trusts them then.
fn reram_noise_free(cfg: &PoolConfig) -> bool {
    cfg.reram_params.sigma_d2d == 0.0 && cfg.reram_params.sigma_c2c == 0.0
}

/// The `(value, care)` CAM entry pairs a resident dataset stores, in
/// dataset order across tiles — the host-side view of the match array.
fn cam_entry_pairs(payload: &ResidentPayload) -> Option<Vec<(BitVec, BitVec)>> {
    match payload {
        ResidentPayload::CamRules { rules, .. } => Some(
            rules
                .rules()
                .iter()
                .map(|r| (r.value.clone(), r.care.clone()))
                .collect(),
        ),
        ResidentPayload::CamKeys { keys, width, .. } => Some(
            keys.iter()
                .map(|&k| (key_bits(k, *width), BitVec::ones(*width)))
                .collect(),
        ),
        _ => None,
    }
}

/// Host scan over the entry pairs: one match set per key, bit `s` set
/// when entry `s` matches — the same shape [`Finalizer::Matches`]
/// assembles from match-line responses.
fn host_match_sets(entries: &[(BitVec, BitVec)], keys: &[BitVec], kind: MatchKind) -> Vec<BitVec> {
    keys.iter()
        .map(|key| {
            BitVec::from_fn(entries.len(), |s| {
                host_match(&entries[s].0, &entries[s].1, key, kind)
            })
        })
        .collect()
}

/// Exact host inference of a binarized network: the integer score
/// vector per input (what [`snap_to_parity`] recovers from the analog
/// responses) and its argmax prediction.
fn nn_host_scores(mlp: &BinarizedMlp, inputs: &[BitVec]) -> JobOutput {
    let mut predictions = Vec::with_capacity(inputs.len());
    let mut scores = Vec::with_capacity(inputs.len());
    for x in inputs {
        let s = mlp.scores(x);
        predictions.push(argmax_scores(&s));
        scores.push(s);
    }
    JobOutput::Nn(NnOutcome {
        predictions,
        scores,
    })
}

/// Computes the host-fallback result of a compiled job, or `None` when
/// the workload kind carries no certificate that its host path is
/// bit-identical to the CIM execution under the pool's device models.
///
/// The certificates, per kind:
///
/// * **Q6** — the device selects, the finalizer aggregates via
///   `q6_result_from_selection`, which equals [`q6_scan`] whenever the
///   selection is exact; digital scouting over bitmap bins is exact by
///   the margin analysis the serving tests pin.
/// * **XOR / scout / image** — pure digital row logic plus host float
///   work already shared with the reference path.
/// * **NN** — [`snap_to_parity`] recovers the exact integer scores
///   under the bounded analog noise the compiler provisioned for.
/// * **CAM exact/ternary** — `[0, 0]` mismatch windows resolve on the
///   word-safe path regardless of noise; range windows (and the HDC
///   associative sweep over them) are only certified when
///   [`reram_noise_free`] holds.
/// * **Analog-score HDC** ([`WorkloadSpec::HdcClassify`] /
///   [`WorkloadSpec::HdcQuery`]) — the finalizer argmaxes raw crossbar
///   read-outs through the DAC/ADC quantization path, which carries no
///   exactness certificate even with noise disabled: never host-routed.
/// * **Raw streams** — tenant instruction streams have no host
///   semantics at all.
pub(crate) fn host_reference(
    spec: &WorkloadSpec,
    compiled: &CompiledJob,
    cfg: &PoolConfig,
    resident: Option<&ResidentView>,
) -> Option<JobOutput> {
    match spec {
        WorkloadSpec::Q6Select { .. } | WorkloadSpec::Q6Query { .. } => {
            let Finalizer::Q6 { table, params, .. } = &compiled.finalizer else {
                return None;
            };
            Some(JobOutput::Q6(q6_scan(table, params)))
        }
        WorkloadSpec::XorEncrypt { message, key_seed } => {
            let pad = OneTimePad::generate(message.len(), *key_seed);
            pad.encrypt(message).ok().map(JobOutput::Cipher)
        }
        WorkloadSpec::ScoutBulk { op, rows } => {
            let mut acc = rows.first()?.clone();
            for r in &rows[1..] {
                acc = match op {
                    ScoutOp::Or => acc.or(r),
                    ScoutOp::And => acc.and(r),
                    ScoutOp::Xor => acc.xor(r),
                };
            }
            Some(JobOutput::Bits(acc))
        }
        WorkloadSpec::ImgFilter { image, filter } => {
            // The device path writes the 8-bit-quantized image and the
            // finalizer reassembles exactly those bytes, so the host
            // reference is the filter over the quantized image.
            Some(JobOutput::Image(filter.apply(&image.quantized(8))))
        }
        WorkloadSpec::NnInfer { network, inputs } => Some(nn_host_scores(network, inputs)),
        WorkloadSpec::NnQuery { inputs, .. } => {
            let ResidentPayload::Nn { network } = &resident?.payload else {
                return None;
            };
            Some(nn_host_scores(network, inputs))
        }
        WorkloadSpec::CamSearch { kind, keys, .. } => {
            if matches!(kind, MatchKind::Range { .. }) && !reram_noise_free(cfg) {
                return None;
            }
            let entries = cam_entry_pairs(&resident?.payload)?;
            Some(JobOutput::Matches(host_match_sets(&entries, keys, *kind)))
        }
        WorkloadSpec::RuleClassify { packets, .. } => {
            let ResidentPayload::CamRules { rules, .. } = &resident?.payload else {
                return None;
            };
            Some(JobOutput::Lookups(
                packets
                    .iter()
                    .map(|&p| rules.classify(&key_bits(p, rules.width())))
                    .collect(),
            ))
        }
        WorkloadSpec::KeyLookup { probes, .. } => {
            let ResidentPayload::CamKeys { keys, width, .. } = &resident?.payload else {
                return None;
            };
            Some(JobOutput::Lookups(
                probes
                    .iter()
                    .map(|&p| {
                        let probe = key_bits(p, *width);
                        keys.iter()
                            .position(|&k| key_bits(k, *width) == probe)
                            .map(|i| i as u32)
                    })
                    .collect(),
            ))
        }
        WorkloadSpec::HdcAssoc { .. } => {
            if !reram_noise_free(cfg) {
                return None;
            }
            let Finalizer::Assoc {
                prototypes,
                queries,
                expected,
                ..
            } = &compiled.finalizer
            else {
                return None;
            };
            // The noise-free sweep provably returns the global
            // lowest-index argmax of prototype/query overlap — compute
            // it directly.
            let predictions = queries
                .iter()
                .map(|query| {
                    let mut best: Option<(usize, usize)> = None;
                    for (c, proto) in prototypes.iter().enumerate() {
                        let o = proto.and(query).count_ones();
                        if best.is_none_or(|(_, bo)| o > bo) {
                            best = Some((c, o));
                        }
                    }
                    best.map_or(0, |(bc, _)| bc)
                })
                .collect();
            Some(JobOutput::Hdc(HdcOutcome {
                predictions,
                expected: expected.clone(),
            }))
        }
        WorkloadSpec::HdcClassify { .. }
        | WorkloadSpec::HdcQuery { .. }
        | WorkloadSpec::Raw { .. }
        | WorkloadSpec::RawQuery { .. } => None,
    }
}

/// Emits a fan-in-limited OR/AND reduction over `rows`, ping-ponging
/// intermediates through two scratch rows. Returns the row holding the
/// result. Mirrors `Q6CimEngine::or_reduce` instruction for
/// instruction, so op/write-back counts match the seed engine.
#[allow(clippy::too_many_arguments)]
fn emit_reduce(
    instructions: &mut Vec<CimInstruction>,
    tile: usize,
    rows: &[usize],
    ping: usize,
    pong: usize,
    fan_in: usize,
    op: ScoutOp,
) -> usize {
    assert!(!rows.is_empty(), "empty reduction operand list");
    assert!(fan_in >= 2, "reduction fan-in must be at least 2");
    if rows.len() == 1 {
        return rows[0];
    }
    let mut remaining = rows;
    let mut acc: Option<usize> = None;
    let mut target = ping;
    while !remaining.is_empty() || acc.is_none() {
        let take = match acc {
            None => fan_in.min(remaining.len()),
            Some(_) => (fan_in - 1).min(remaining.len()),
        };
        let mut operands: Vec<usize> = Vec::with_capacity(take + 1);
        if let Some(a) = acc {
            operands.push(a);
        }
        operands.extend_from_slice(&remaining[..take]);
        remaining = &remaining[take..];
        if operands.len() == 1 {
            return operands[0];
        }
        instructions.push(CimInstruction::Logic {
            tile,
            op,
            rows: operands,
        });
        instructions.push(CimInstruction::StoreLast { tile, row: target });
        acc = Some(target);
        target = if target == ping { pong } else { ping };
        if remaining.is_empty() {
            break;
        }
    }
    match acc {
        Some(row) => row,
        None => unreachable!("the reduction loop always runs at least once"),
    }
}

/// Validates a Q6 footprint against the tile geometry and returns the
/// digital tile count it needs. Q6 work is tile-parallel, so the cap
/// is the *pool-wide* tile count (the admission layer decides whether
/// the tiles fit one shard or split across the pool) — checked here,
/// before any table generation, so a never-fits select cannot burn
/// O(rows) work compiling a stream the pool can never run.
fn q6_footprint(rows: usize, cfg: &PoolConfig) -> Result<usize, CompileError> {
    if rows == 0 {
        return Err(CompileError::EmptyWorkload);
    }
    let (_, _, _, scratch_base) = q6_row_bases();
    let rows_needed = scratch_base + Q6_SCRATCH_ROWS;
    if rows_needed > cfg.tile_rows {
        return Err(CompileError::NeedsMoreTileRows {
            required: rows_needed,
            available: cfg.tile_rows,
        });
    }
    pool_wide(rows.div_ceil(cfg.tile_cols), cfg)
}

/// Checks a tile-parallel footprint of `tiles` digital tiles against
/// the whole pool's digital tiles (such workloads split across shards)
/// and passes it through.
fn pool_wide(tiles: usize, cfg: &PoolConfig) -> Result<usize, CompileError> {
    let pool_tiles = cfg.digital_tiles * cfg.shards;
    if tiles > pool_tiles {
        return Err(CompileError::NeedsMoreDigitalTiles {
            required: tiles,
            available: pool_tiles,
        });
    }
    Ok(tiles)
}

/// Emits the resident-side writes of one Q6 tile: every bitmap bin of
/// the three predicate indexes, padded to the tile width.
fn emit_q6_bin_writes(
    instructions: &mut Vec<CimInstruction>,
    idx: &Q6Indexes,
    tile: usize,
    start: usize,
    width: usize,
    cfg: &PoolConfig,
) {
    let (month_base, discount_base, quantity_base, _) = q6_row_bases();
    for (index, base) in [
        (&idx.month, month_base),
        (&idx.discount, discount_base),
        (&idx.quantity, quantity_base),
    ] {
        for b in 0..index.bin_count() {
            let bits = BitVec::from_fn(cfg.tile_cols, |j| j < width && index.bin(b).get(start + j));
            instructions.push(CimInstruction::WriteRow {
                tile,
                row: base + b,
                bits,
            });
        }
    }
}

/// Emits the query-side reductions of one Q6 tile (predicate ORs, final
/// AND) and records the AND as the tile's output.
fn emit_q6_query(
    instructions: &mut Vec<CimInstruction>,
    outputs: &mut Vec<usize>,
    params: &Q6Params,
    tile: usize,
    cfg: &PoolConfig,
) {
    let (month_base, discount_base, quantity_base, scratch_base) = q6_row_bases();
    let [(mlo, mhi), (dlo, dhi), (qlo, qhi)] = Q6Indexes::predicate_ranges(params);
    let month_rows: Vec<usize> = (mlo..=mhi).map(|m| month_base + m as usize).collect();
    let discount_rows: Vec<usize> = (dlo..=dhi).map(|d| discount_base + d as usize).collect();
    let quantity_rows: Vec<usize> = (qlo..=qhi)
        .map(|q| quantity_base + (q as usize - 1))
        .collect();
    let m_row = emit_reduce(
        instructions,
        tile,
        &month_rows,
        scratch_base,
        scratch_base + 1,
        cfg.scout_fan_in,
        ScoutOp::Or,
    );
    let d_row = emit_reduce(
        instructions,
        tile,
        &discount_rows,
        scratch_base + 2,
        scratch_base + 3,
        cfg.scout_fan_in,
        ScoutOp::Or,
    );
    let q_row = emit_reduce(
        instructions,
        tile,
        &quantity_rows,
        scratch_base + 4,
        scratch_base + 5,
        cfg.scout_fan_in,
        ScoutOp::Or,
    );
    instructions.push(CimInstruction::Logic {
        tile,
        op: ScoutOp::And,
        rows: vec![m_row, d_row, q_row],
    });
    outputs.push(instructions.len() - 1);
}

/// Bytes of Q6 bins resident in `tiles` tiles.
fn q6_resident_bytes(tiles: usize, cfg: &PoolConfig) -> u64 {
    let bin_rows = (SHIP_MONTHS as usize + DISCOUNT_LEVELS as usize + MAX_QUANTITY as usize) as u64;
    bin_rows * tiles as u64 * cfg.tile_cols.div_ceil(8) as u64
}

/// The [`DatasetSpec::Q6Table`] load program: generates the table and
/// writes its bitmap bins tile by tile. `after_tile(instructions, t)`
/// runs right after tile `t`'s writes; a cold [`WorkloadSpec::Q6Select`]
/// emits that tile's query reductions there.
fn load_q6_table(
    rows: usize,
    table_seed: u64,
    cfg: &PoolConfig,
    mut after_tile: impl FnMut(&mut Vec<CimInstruction>, usize),
) -> Result<DatasetProgram, CompileError> {
    let tiles = q6_footprint(rows, cfg)?;
    let table = LineItemTable::generate(rows, table_seed);
    let idx = Q6Indexes::build(&table);
    let mut instructions = Vec::new();
    let mut widths = Vec::with_capacity(tiles);
    let mut start = 0;
    for t in 0..tiles {
        let width = cfg.tile_cols.min(rows - start);
        widths.push(width);
        emit_q6_bin_writes(&mut instructions, &idx, t, start, width, cfg);
        after_tile(&mut instructions, t);
        start += width;
    }
    Ok(DatasetProgram {
        instructions,
        demand: TileDemand {
            digital: tiles,
            analog: 0,
        },
        payload: ResidentPayload::Q6 {
            table: Arc::new(table),
            widths,
        },
        resident_bytes: q6_resident_bytes(tiles, cfg),
    })
}

/// A query against a resident Q6 table: reductions only, lowered onto
/// the dataset's virtual tile order. The bin writes were paid once, by
/// [`load_q6_table`].
fn lower_q6_query(
    table: &Arc<LineItemTable>,
    widths: &[usize],
    params: Q6Params,
    cfg: &PoolConfig,
) -> Lowered {
    let mut instructions = Vec::new();
    let mut outputs = Vec::new();
    for t in 0..widths.len() {
        emit_q6_query(&mut instructions, &mut outputs, &params, t, cfg);
    }
    Lowered {
        demand: TileDemand {
            digital: widths.len(),
            analog: 0,
        },
        instructions,
        outputs,
        finalizer: Finalizer::Q6 {
            table: Arc::clone(table),
            params,
            widths: widths.to_vec(),
        },
        resident_bytes: 0,
        splittable: true,
    }
}

/// Lowers the tile-major search pattern of an associative query: every
/// key searched against every resident tile, tile 0's keys first —
/// the order [`assemble_match_sets`] reassembles, and the order a
/// scatter-gathered split reproduces by chunk concatenation. Every
/// search is an output.
fn lower_cam_searches(
    entries: &[usize],
    keys: &[BitVec],
    kind: MatchKind,
    width: usize,
    finalizer: Finalizer,
    cfg: &PoolConfig,
) -> Lowered {
    let padded: Vec<BitVec> = keys
        .iter()
        .map(|k| BitVec::from_fn(cfg.tile_cols, |j| j < width && k.get(j)))
        .collect();
    let mut instructions = Vec::with_capacity(entries.len() * keys.len());
    for (t, &n) in entries.iter().enumerate() {
        for key in &padded {
            instructions.push(CimInstruction::MatchSearch {
                tile: t,
                entries: n,
                key: key.clone(),
                kind,
            });
        }
    }
    Lowered {
        demand: TileDemand {
            digital: entries.len(),
            analog: 0,
        },
        outputs: (0..instructions.len()).collect(),
        instructions,
        finalizer,
        resident_bytes: 0,
        splittable: true,
    }
}

/// A raw associative search against a resident CAM dataset (rule table
/// or key dictionary): one match-line access per key per resident tile,
/// reassembled into per-key match sets host-side.
fn lower_cam_search(
    width: usize,
    entries: &[usize],
    kind: MatchKind,
    keys: &[BitVec],
    cfg: &PoolConfig,
) -> Result<Lowered, CompileError> {
    if keys.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    if let MatchKind::Range { lo, hi } = kind {
        // An empty window can match nothing: no work to run.
        if lo > hi {
            return Err(CompileError::EmptyWorkload);
        }
    }
    for k in keys {
        if k.len() != width {
            return Err(CompileError::BadOperandWidth {
                width: k.len(),
                max: width,
            });
        }
    }
    let finalizer = Finalizer::Matches {
        keys: keys.len(),
        entries: entries.to_vec(),
    };
    Ok(lower_cam_searches(
        entries, keys, kind, width, finalizer, cfg,
    ))
}

/// Packet classification against a resident rule table: a ternary
/// search per packet, resolved to the highest-priority (lowest-index)
/// matching rule — bit-identical to [`RuleSet::classify`].
fn lower_rule_classify(
    rules: &RuleSet,
    entries: &[usize],
    packets: &[u64],
    cfg: &PoolConfig,
) -> Result<Lowered, CompileError> {
    if packets.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    let width = rules.width();
    let keys: Vec<BitVec> = packets.iter().map(|&p| key_bits(p, width)).collect();
    let finalizer = Finalizer::Resolve {
        keys: keys.len(),
        entries: entries.to_vec(),
    };
    Ok(lower_cam_searches(
        entries,
        &keys,
        MatchKind::Ternary,
        width,
        finalizer,
        cfg,
    ))
}

/// Key lookup against a resident dictionary: an exact search per probe,
/// resolved to the lowest-index matching slot — the CAM half of a
/// dictionary join.
fn lower_key_lookup(
    stored: &[u64],
    width: usize,
    entries: &[usize],
    probes: &[u64],
    cfg: &PoolConfig,
) -> Result<Lowered, CompileError> {
    // One dictionary key went into one CAM slot at load time; lookup
    // resolution maps match-set bit positions straight back to
    // dictionary indices, which only holds while the counts agree.
    debug_assert_eq!(stored.len(), entries.iter().sum::<usize>());
    if probes.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    let keys: Vec<BitVec> = probes.iter().map(|&p| key_bits(p, width)).collect();
    let finalizer = Finalizer::Resolve {
        keys: keys.len(),
        entries: entries.to_vec(),
    };
    Ok(lower_cam_searches(
        entries,
        &keys,
        MatchKind::Exact,
        width,
        finalizer,
        cfg,
    ))
}

/// Trains the HDC language task on the host and finalizes its class
/// prototypes. One-shot prototype construction is setup work, exactly
/// as in `LanguageTask`; only the classification runs in the array.
fn train_hdc(
    classes: usize,
    d: usize,
    ngram: usize,
    train_len: usize,
    seed: u64,
) -> (LanguageTask, Vec<Hypervector>) {
    let mut task = LanguageTask::train(classes, d, ngram, train_len, seed);
    let prototypes = task.memory.finalize().to_vec();
    (task, prototypes)
}

/// Samples `samples` query texts round-robin over the classes from the
/// job's private stream and encodes them, as `(class, query)` pairs in
/// sample order. Every HDC query kind draws its queries here, so for
/// one seed they all classify the identical queries.
fn hdc_queries(
    task: &LanguageTask,
    classes: usize,
    samples: usize,
    sample_len: usize,
    seed: u64,
) -> impl Iterator<Item = (usize, Hypervector)> + '_ {
    let mut sample_rng = seeded(crate::mix_seed(seed, 0x5A17));
    (0..samples).map(move |i| {
        let class = i % classes;
        let text = task.languages[class].sample_text(sample_len, &mut sample_rng);
        (class, task.encoder.encode_sequence(&text))
    })
}

/// The [`DatasetSpec::HdcPrototypes`] load program: the trained class
/// prototypes programmed as a 0/1 matrix into one analog tile.
fn load_hdc_prototypes(
    classes: usize,
    d: usize,
    ngram: usize,
    train_len: usize,
    cfg: &PoolConfig,
    seed: u64,
) -> Result<DatasetProgram, CompileError> {
    if classes == 0 {
        return Err(CompileError::EmptyWorkload);
    }
    if classes > cfg.analog_rows || d > cfg.analog_cols {
        return Err(CompileError::AnalogShapeTooSmall {
            required: (classes, d),
            available: (cfg.analog_rows, cfg.analog_cols),
        });
    }
    let (task, prototypes) = train_hdc(classes, d, ngram, train_len, seed);
    let weights = padded_tile(cfg, classes, |r, row| {
        for c in prototypes[r].bits().iter_ones().take_while(|&c| c < d) {
            row[c] = 1.0;
        }
    });
    Ok(DatasetProgram {
        instructions: vec![CimInstruction::ProgramMatrix {
            tile: 0,
            matrix: weights,
        }],
        demand: TileDemand {
            digital: 0,
            analog: 1,
        },
        payload: ResidentPayload::Hdc {
            task: Arc::new(task),
            classes,
            d,
        },
        resident_bytes: (classes * d) as u64 / 8,
    })
}

/// A query against resident HDC prototypes: one MVM per sample, no
/// matrix programming.
fn lower_hdc_query(
    task: &LanguageTask,
    classes: usize,
    d: usize,
    samples: usize,
    sample_len: usize,
    cfg: &PoolConfig,
    seed: u64,
) -> Result<Lowered, CompileError> {
    if samples == 0 || sample_len == 0 {
        return Err(CompileError::EmptyWorkload);
    }
    let mut instructions = Vec::with_capacity(samples);
    let mut expected = Vec::with_capacity(samples);
    for (class, query) in hdc_queries(task, classes, samples, sample_len, seed) {
        let x: Vec<f64> = (0..cfg.analog_cols)
            .map(|j| {
                if j < d && query.bits().get(j) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        instructions.push(CimInstruction::Mvm { tile: 0, x });
        expected.push(class);
    }
    Ok(Lowered {
        demand: TileDemand {
            digital: 0,
            analog: 1,
        },
        outputs: (0..instructions.len()).collect(),
        instructions,
        finalizer: Finalizer::Hdc { classes, expected },
        resident_bytes: 0,
        splittable: false,
    })
}

/// HDC associative memory on a CAM tile: class prototypes stored as
/// binary-CAM entries, each query resolved by an expanding
/// Hamming-window sweep ([`MatchKind::Range`] searches) plus the
/// certified host re-rank of [`Finalizer::Assoc`]. Same task training
/// and query sampling as [`WorkloadSpec::HdcClassify`], so for one seed
/// the two paths classify the identical queries.
#[allow(clippy::too_many_arguments)]
fn lower_hdc_assoc(
    classes: usize,
    d: usize,
    ngram: usize,
    train_len: usize,
    samples: usize,
    sample_len: usize,
    cfg: &PoolConfig,
    seed: u64,
) -> Result<Lowered, CompileError> {
    if classes == 0 || samples == 0 || sample_len == 0 {
        return Err(CompileError::EmptyWorkload);
    }
    if 2 * classes > cfg.tile_rows {
        return Err(CompileError::NeedsMoreTileRows {
            required: 2 * classes,
            available: cfg.tile_rows,
        });
    }
    if d > cfg.tile_cols {
        return Err(CompileError::BadOperandWidth {
            width: d,
            max: cfg.tile_cols,
        });
    }
    let (task, raw) = train_hdc(classes, d, ngram, train_len, seed);
    let prototypes: Vec<BitVec> = raw
        .iter()
        .map(|p| BitVec::from_fn(d, |j| p.bits().get(j)))
        .collect();
    let pad = |bits: &BitVec| BitVec::from_fn(cfg.tile_cols, |j| j < d && bits.get(j));
    // All-ones care over the hypervector dimensions: match-line current
    // is the full Hamming distance (binary-CAM discipline); padding
    // columns never conduct.
    let care = BitVec::from_fn(cfg.tile_cols, |j| j < d);
    let mut instructions: Vec<CimInstruction> = prototypes
        .iter()
        .enumerate()
        .map(|(slot, p)| CimInstruction::WriteKey {
            tile: 0,
            slot,
            value: pad(p),
            care: care.clone(),
        })
        .collect();
    // Exponential window sweep [0,0], [0,1], [0,3], … capped at the
    // full dimension: O(log d) searches per query, and the final window
    // spans every possible Hamming distance.
    let mut windows = vec![0u32];
    let mut h = 1usize;
    while h < d {
        windows.push(h as u32);
        h = 2 * h + 1;
    }
    if windows.last().copied().unwrap_or(0) < d as u32 {
        windows.push(d as u32);
    }
    let mut outputs = Vec::with_capacity(samples * windows.len());
    let mut queries = Vec::with_capacity(samples);
    let mut expected = Vec::with_capacity(samples);
    for (class, encoded) in hdc_queries(&task, classes, samples, sample_len, seed) {
        let query = BitVec::from_fn(d, |j| encoded.bits().get(j));
        let key = pad(&query);
        for &h in &windows {
            instructions.push(CimInstruction::MatchSearch {
                tile: 0,
                entries: classes,
                key: key.clone(),
                kind: MatchKind::Range { lo: 0, hi: h },
            });
            outputs.push(instructions.len() - 1);
        }
        queries.push(query);
        expected.push(class);
    }
    Ok(Lowered {
        demand: TileDemand {
            digital: 1,
            analog: 0,
        },
        instructions,
        outputs,
        finalizer: Finalizer::Assoc {
            prototypes,
            queries,
            expected,
            windows,
        },
        resident_bytes: (2 * classes * cfg.tile_cols.div_ceil(8)) as u64,
        splittable: false,
    })
}

/// Validates a binarized network against the analog tile geometry.
fn nn_geometry(mlp: &BinarizedMlp, cfg: &PoolConfig) -> Result<(), CompileError> {
    for m in mlp.layers() {
        if m.rows() > cfg.analog_rows || m.cols() > cfg.analog_cols {
            return Err(CompileError::AnalogShapeTooSmall {
                required: (m.rows(), m.cols()),
                available: (cfg.analog_rows, cfg.analog_cols),
            });
        }
    }
    Ok(())
}

/// Validates inference inputs against the network's input width.
fn nn_inputs_check(mlp: &BinarizedMlp, inputs: &[BitVec]) -> Result<(), CompileError> {
    if inputs.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    for x in inputs {
        if x.len() != mlp.inputs() {
            return Err(CompileError::InputLengthMismatch {
                got: x.len(),
                expected: mlp.inputs(),
            });
        }
    }
    Ok(())
}

/// An analog tile image: `fill(r, row)` writes the leading weights of
/// each of the first `rows` rows, every other weight is zero padding.
fn padded_tile(cfg: &PoolConfig, rows: usize, mut fill: impl FnMut(usize, &mut [f64])) -> Matrix {
    let mut tile = Matrix::zeros(cfg.analog_rows, cfg.analog_cols);
    for (r, row) in tile
        .as_mut_slice()
        .chunks_exact_mut(cfg.analog_cols)
        .take(rows)
        .enumerate()
    {
        fill(r, row);
    }
    tile
}

/// One layer's ±1 weight matrix padded to the analog tile shape.
fn nn_padded_weights(layer: &Matrix, cfg: &PoolConfig) -> Matrix {
    padded_tile(cfg, layer.rows(), |r, row| {
        row[..layer.cols()].copy_from_slice(layer.row(r));
    })
}

/// The [`DatasetSpec::NnWeights`] load program: every layer's ±1
/// weights programmed into its own analog tile.
fn load_nn_weights(
    network: &BinarizedMlp,
    cfg: &PoolConfig,
) -> Result<DatasetProgram, CompileError> {
    nn_geometry(network, cfg)?;
    let layers = network.layers().len();
    if layers > cfg.analog_tiles {
        return Err(CompileError::NeedsMoreAnalogTiles {
            required: layers,
            available: cfg.analog_tiles,
        });
    }
    let instructions = network
        .layers()
        .iter()
        .enumerate()
        .map(|(tile, layer)| CimInstruction::ProgramMatrix {
            tile,
            matrix: nn_padded_weights(layer, cfg),
        })
        .collect();
    Ok(DatasetProgram {
        instructions,
        demand: TileDemand {
            digital: 0,
            analog: layers,
        },
        payload: ResidentPayload::Nn {
            network: Arc::new(network.clone()),
        },
        resident_bytes: (network.weight_count() as u64).div_ceil(8),
    })
}

/// Inference against resident [`DatasetSpec::NnWeights`]: the MVM
/// cascade only — not a single weight write in the stream. One MVM per
/// layer per input, the layer input chained host-side at compile time
/// via the exact sign activations (the same integers the parity decode
/// recovers from the array, so the chain and the array agree
/// bit-for-bit). Each input's final-layer MVM is its output, decoded
/// against the final layer's class count and fan-in.
fn lower_nn_query(
    mlp: &BinarizedMlp,
    inputs: &[BitVec],
    cfg: &PoolConfig,
) -> Result<Lowered, CompileError> {
    nn_inputs_check(mlp, inputs)?;
    let mut instructions = Vec::with_capacity(inputs.len() * mlp.layers().len());
    let mut outputs = Vec::with_capacity(inputs.len());
    for x in inputs {
        let acts = mlp.activations(x);
        for (tile, (layer, v)) in mlp.layers().iter().zip(&acts).enumerate() {
            let mut x = vec![0.0; cfg.analog_cols];
            for (j, xj) in x[..layer.cols()].iter_mut().enumerate() {
                *xj = if v.get(j) { 1.0 } else { -1.0 };
            }
            instructions.push(CimInstruction::Mvm { tile, x });
        }
        outputs.push(instructions.len() - 1);
    }
    let Some(last) = mlp.layers().last() else {
        unreachable!("binarized networks have at least one layer")
    };
    Ok(Lowered {
        demand: TileDemand {
            digital: 0,
            analog: mlp.layers().len(),
        },
        instructions,
        outputs,
        finalizer: Finalizer::Nn {
            classes: last.rows(),
            fan_in: last.cols(),
        },
        resident_bytes: 0,
        splittable: false,
    })
}

/// Image filtering over resident tile rows: the 8-bit-quantized image
/// is written row-per-row into digital tiles, then every output row
/// streams its `(2r+1)`-row neighbourhood through `ReadRow` accesses —
/// the §III-A pattern where a medium-size neighbourhood is served from
/// wide memory rows instead of thrashing a register file. The filter
/// arithmetic itself (integral images, the guided filter's linear
/// model) is host-side float work in the finalizer, bit-identical to
/// running `cim-imgproc` on [`GrayImage::quantized`]`(8)` directly.
fn lower_img(
    image: &GrayImage,
    filter: ImgFilterOp,
    cfg: &PoolConfig,
) -> Result<Lowered, CompileError> {
    let (w, h) = (image.width(), image.height());
    let row_bits = 8 * w;
    if row_bits > cfg.tile_cols {
        return Err(CompileError::BadOperandWidth {
            width: row_bits,
            max: cfg.tile_cols,
        });
    }
    let tiles = h.div_ceil(cfg.tile_rows);
    if tiles > cfg.digital_tiles {
        return Err(CompileError::NeedsMoreDigitalTiles {
            required: tiles,
            available: cfg.digital_tiles,
        });
    }
    let q = image.quantized(8);
    let loc = |y: usize| (y / cfg.tile_rows, y % cfg.tile_rows);

    let mut instructions = Vec::with_capacity(h * (2 * filter.radius() + 2));
    for y in 0..h {
        let bytes: Vec<u8> = (0..w)
            .map(|x| (q.get(x, y) * 255.0).round() as u8)
            .collect();
        let row = BitVec::from_bytes(&bytes);
        let (tile, tile_row) = loc(y);
        instructions.push(CimInstruction::WriteRow {
            tile,
            row: tile_row,
            bits: BitVec::from_fn(cfg.tile_cols, |j| j < row_bits && row.get(j)),
        });
    }

    let r = filter.radius() as isize;
    let mut outputs = Vec::with_capacity(h * (2 * filter.radius() + 1));
    let mut reads = Vec::with_capacity(outputs.capacity());
    for y in 0..h as isize {
        for wy in (y - r)..=(y + r) {
            let wy = wy.clamp(0, h as isize - 1) as usize;
            let (tile, tile_row) = loc(wy);
            instructions.push(CimInstruction::ReadRow {
                tile,
                row: tile_row,
            });
            outputs.push(instructions.len() - 1);
            reads.push(wy);
        }
    }

    Ok(Lowered {
        demand: TileDemand {
            digital: tiles,
            analog: 0,
        },
        instructions,
        outputs,
        finalizer: Finalizer::Img {
            width: w,
            height: h,
            filter,
            reads,
        },
        resident_bytes: (h * cfg.tile_cols.div_ceil(8)) as u64,
        splittable: false,
    })
}

/// A dataset's load program lowered over virtual tiles, plus the
/// host-side payload queries against it will need.
#[derive(Debug)]
pub(crate) struct DatasetProgram {
    /// Resident-data writes (Q6 bin rows or one `ProgramMatrix`), over
    /// virtual tile indices `0..demand`.
    pub instructions: Vec<CimInstruction>,
    /// Tiles the dataset pins for its whole lifetime.
    pub demand: TileDemand,
    /// Host-side query/finalization payload.
    pub payload: ResidentPayload,
    /// Bytes resident in the pinned tiles.
    pub resident_bytes: u64,
}

/// Validates a CAM entry width: keys travel as `u64` words, so the
/// width is bounded by 64 bits as well as the tile geometry.
fn cam_entry_width_check(width: usize, cfg: &PoolConfig) -> Result<(), CompileError> {
    let max = 64.min(cfg.tile_cols);
    if width == 0 || width > max {
        return Err(CompileError::BadOperandWidth { width, max });
    }
    Ok(())
}

/// Digital tiles a CAM dataset of `count` entries pins: each tile holds
/// `tile_rows / 2` row-pair slots, and the pin may span the whole pool
/// (CAM loads are tile-parallel and split across shards like Q6 bins).
fn cam_entry_tiles(count: usize, cfg: &PoolConfig) -> Result<usize, CompileError> {
    let per_tile = cfg.tile_rows / 2;
    if per_tile == 0 {
        return Err(CompileError::NeedsMoreTileRows {
            required: 2,
            available: cfg.tile_rows,
        });
    }
    pool_wide(count.div_ceil(per_tile), cfg)
}

/// Emits the load writes of a CAM dataset: entry `e` lands in slot
/// `e % slots_per_tile` of virtual tile `e / slots_per_tile`, value and
/// care both padded to the tile width (padding cells carry zero care,
/// so they never conduct). Returns the writes and the per-tile entry
/// counts, in virtual tile order.
fn emit_cam_entry_writes<I>(
    pairs: I,
    tiles: usize,
    width: usize,
    cfg: &PoolConfig,
) -> (Vec<CimInstruction>, Vec<usize>)
where
    I: Iterator<Item = (BitVec, BitVec)>,
{
    let per_tile = cfg.tile_rows / 2;
    let pad = |bits: &BitVec| BitVec::from_fn(cfg.tile_cols, |j| j < width && bits.get(j));
    let mut instructions = Vec::new();
    let mut entries = vec![0usize; tiles];
    for (e, (value, care)) in pairs.enumerate() {
        let (tile, slot) = (e / per_tile, e % per_tile);
        entries[tile] = slot + 1;
        instructions.push(CimInstruction::WriteKey {
            tile,
            slot,
            value: pad(&value),
            care: pad(&care),
        });
    }
    (instructions, entries)
}

/// Bytes of CAM entries resident across tiles (two full rows per entry).
fn cam_resident_bytes(count: usize, cfg: &PoolConfig) -> u64 {
    2 * count as u64 * cfg.tile_cols.div_ceil(8) as u64
}

/// Lowers a [`DatasetSpec`] into its one-time load program.
pub(crate) fn compile_dataset_load(
    spec: &DatasetSpec,
    cfg: &PoolConfig,
    seed: u64,
) -> Result<DatasetProgram, CompileError> {
    // A load that can never fit is a sizing error, not admission
    // pressure: report it as such at plan time instead of a generic
    // capacity failure. Digital loads split across shards, so anything
    // up to the pool-wide tile count is loadable; analog pins (weight
    // matrices, prototype tiles) must still fit one shard.
    let too_large = |digital: usize, analog: usize| CompileError::DatasetTooLarge {
        needed: TileDemand { digital, analog },
        pool_capacity: TileDemand {
            digital: cfg.digital_tiles * cfg.shards,
            analog: cfg.analog_tiles,
        },
    };
    lower_dataset_load(spec, cfg, seed).map_err(|e| match e {
        CompileError::NeedsMoreDigitalTiles { required, .. } => too_large(required, 0),
        CompileError::NeedsMoreAnalogTiles { required, .. } => too_large(0, required),
        other => other,
    })
}

/// Dispatches a [`DatasetSpec`] to its load lowering. The Q6, HDC and
/// NN loads are shared with their cold job twins, which report tile
/// shortfalls as [`CompileError::NeedsMoreDigitalTiles`] /
/// [`CompileError::NeedsMoreAnalogTiles`]; [`compile_dataset_load`]
/// maps those at the dataset edge.
fn lower_dataset_load(
    spec: &DatasetSpec,
    cfg: &PoolConfig,
    seed: u64,
) -> Result<DatasetProgram, CompileError> {
    match spec {
        DatasetSpec::Q6Table { rows, table_seed } => {
            load_q6_table(*rows, *table_seed, cfg, |_, _| {})
        }
        DatasetSpec::HdcPrototypes {
            classes,
            d,
            ngram,
            train_len,
        } => load_hdc_prototypes(*classes, *d, *ngram, *train_len, cfg, seed),
        DatasetSpec::CamRules {
            rules,
            width,
            wildcard_density,
            seed: table_seed,
        } => {
            cam_entry_width_check(*width, cfg)?;
            if *rules == 0 {
                return Err(CompileError::EmptyWorkload);
            }
            let tiles = cam_entry_tiles(*rules, cfg)?;
            let set = RuleSet::generate(*rules, *width, *wildcard_density, *table_seed);
            let (instructions, entries) = emit_cam_entry_writes(
                set.rules()
                    .iter()
                    .map(|r| (r.value.clone(), r.care.clone())),
                tiles,
                *width,
                cfg,
            );
            Ok(DatasetProgram {
                instructions,
                demand: TileDemand {
                    digital: tiles,
                    analog: 0,
                },
                payload: ResidentPayload::CamRules {
                    rules: Arc::new(set),
                    entries,
                },
                resident_bytes: cam_resident_bytes(*rules, cfg),
            })
        }
        DatasetSpec::CamKeys { keys, width } => {
            cam_entry_width_check(*width, cfg)?;
            if keys.is_empty() {
                return Err(CompileError::EmptyWorkload);
            }
            let tiles = cam_entry_tiles(keys.len(), cfg)?;
            let care = BitVec::ones(*width);
            let (instructions, entries) = emit_cam_entry_writes(
                keys.iter().map(|&k| (key_bits(k, *width), care.clone())),
                tiles,
                *width,
                cfg,
            );
            Ok(DatasetProgram {
                instructions,
                demand: TileDemand {
                    digital: tiles,
                    analog: 0,
                },
                payload: ResidentPayload::CamKeys {
                    keys: Arc::new(keys.clone()),
                    width: *width,
                    entries,
                },
                resident_bytes: cam_resident_bytes(keys.len(), cfg),
            })
        }
        DatasetSpec::NnWeights { network } => load_nn_weights(network, cfg),
    }
}

fn lower_xor(message: &[u8], key_seed: u64, cfg: &PoolConfig) -> Result<Lowered, CompileError> {
    if message.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    if cfg.tile_rows < 2 {
        return Err(CompileError::NeedsMoreTileRows {
            required: 2,
            available: cfg.tile_rows,
        });
    }
    let pad = OneTimePad::generate(message.len(), key_seed);
    let msg_bits = BitVec::from_bytes(message);
    let key_bits = pad.key_bits();
    let total_bits = message.len() * 8;
    let width = cfg.tile_cols;
    let chunks = total_bits.div_ceil(width);

    let mut instructions = Vec::with_capacity(3 * chunks);
    let mut outputs = Vec::with_capacity(chunks);
    for chunk in 0..chunks {
        let base = chunk * width;
        let slice =
            |bits: &BitVec| BitVec::from_fn(width, |j| base + j < total_bits && bits.get(base + j));
        instructions.push(CimInstruction::WriteRow {
            tile: 0,
            row: 0,
            bits: slice(&msg_bits),
        });
        instructions.push(CimInstruction::WriteRow {
            tile: 0,
            row: 1,
            bits: slice(&key_bits),
        });
        instructions.push(CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::Xor,
            rows: vec![0, 1],
        });
        outputs.push(instructions.len() - 1);
    }

    Ok(Lowered {
        demand: TileDemand {
            digital: 1,
            analog: 0,
        },
        instructions,
        outputs,
        finalizer: Finalizer::Xor { len: message.len() },
        resident_bytes: 2 * cfg.tile_cols.div_ceil(8) as u64,
        splittable: false,
    })
}

fn lower_scout(op: ScoutOp, rows: &[BitVec], cfg: &PoolConfig) -> Result<Lowered, CompileError> {
    if rows.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    if rows.len() < 2 || (op == ScoutOp::Xor && rows.len() != 2) {
        return Err(CompileError::UnsupportedFanIn {
            op,
            fan_in: rows.len(),
        });
    }
    let width = rows[0].len();
    for r in rows {
        if r.len() != width || width > cfg.tile_cols {
            return Err(CompileError::BadOperandWidth {
                width: r.len().max(width),
                max: cfg.tile_cols,
            });
        }
    }
    // Operands beyond one tile's row budget chunk across tiles: each
    // tile reduces its chunk independently and the finalizer merges the
    // partials host-side (every ScoutOp is associative). XOR is exactly
    // two rows, so it always fits one tile.
    let rows_per_tile = cfg.tile_rows.saturating_sub(2);
    if rows_per_tile == 0 || (op == ScoutOp::Xor && rows.len() + 2 > cfg.tile_rows) {
        return Err(CompileError::NeedsMoreTileRows {
            required: rows.len() + 2,
            available: cfg.tile_rows,
        });
    }
    let tiles = rows.len().div_ceil(rows_per_tile);
    // Balanced chunks keep every chunk as wide as possible (a chunk of
    // one row would carry no reduction at all).
    let (chunk_base, chunk_rem) = (rows.len() / tiles, rows.len() % tiles);

    let mut instructions = Vec::with_capacity(rows.len() + 2 * tiles);
    let mut outputs = Vec::with_capacity(tiles);
    let mut next = 0usize;
    for tile in 0..tiles {
        let chunk = chunk_base + usize::from(tile < chunk_rem);
        for r in 0..chunk {
            let bits = &rows[next + r];
            instructions.push(CimInstruction::WriteRow {
                tile,
                row: r,
                bits: BitVec::from_fn(cfg.tile_cols, |j| j < width && bits.get(j)),
            });
        }
        next += chunk;
        if chunk == 1 {
            // A lone operand is its own partial result: read it back.
            instructions.push(CimInstruction::ReadRow { tile, row: 0 });
            outputs.push(instructions.len() - 1);
            continue;
        }
        let operand_rows: Vec<usize> = (0..chunk).collect();
        if op == ScoutOp::Xor {
            instructions.push(CimInstruction::Logic {
                tile,
                op,
                rows: operand_rows,
            });
        } else {
            emit_reduce(
                &mut instructions,
                tile,
                &operand_rows,
                chunk,
                chunk + 1,
                cfg.scout_fan_in,
                op,
            );
        }
        // For multi-step reductions the result sits in a scratch row,
        // but the final Logic response already carries the same bits,
        // so the chunk's output is always its last Logic instruction.
        let last_logic = match instructions
            .iter()
            .rposition(|i| matches!(i, CimInstruction::Logic { .. }))
        {
            Some(index) => index,
            None => unreachable!("a reduction emits at least one logic op"),
        };
        outputs.push(last_logic);
    }

    Ok(Lowered {
        demand: TileDemand {
            digital: tiles,
            analog: 0,
        },
        instructions,
        outputs,
        finalizer: Finalizer::Bits { width, op },
        resident_bytes: (rows.len() * cfg.tile_cols.div_ceil(8)) as u64,
        splittable: true,
    })
}

/// Splits a digital-only stream into contiguous virtual-tile chunks
/// retiled to chunk-local indices `0..chunk`, keeping stream order
/// within each chunk. Each chunk also lists where the stream's
/// `outputs` landed in it. Dataset loads (no outputs) and compiled jobs
/// split through this one loop.
///
/// `chunks` must partition the stream's digital tiles in ascending
/// virtual-tile order.
pub(crate) fn split_stream(
    instructions: &[CimInstruction],
    outputs: &[usize],
    chunks: &[usize],
) -> Vec<(Vec<CimInstruction>, Vec<usize>)> {
    // The chunk of every virtual tile, and each chunk's first tile.
    let mut part_of = Vec::new();
    let mut bases = Vec::with_capacity(chunks.len());
    for (part, &chunk) in chunks.iter().enumerate() {
        bases.push(part_of.len());
        part_of.resize(part_of.len() + chunk, part);
    }
    let output_set: BTreeSet<usize> = outputs.iter().copied().collect();
    let mut parts: Vec<(Vec<CimInstruction>, Vec<usize>)> =
        chunks.iter().map(|_| (Vec::new(), Vec::new())).collect();
    for (index, instr) in instructions.iter().enumerate() {
        let mut instr = instr.clone();
        let (family, tile) = instr.tile_mut();
        assert_eq!(family, TileFamily::Digital, "only digital streams split");
        let part = part_of[*tile];
        *tile -= bases[part];
        let (stream, outputs) = &mut parts[part];
        if output_set.contains(&index) {
            outputs.push(stream.len());
        }
        stream.push(instr);
    }
    parts
}

/// Splits a digital-tile-parallel compiled job into contiguous
/// virtual-tile chunks — one sub-program per chunk, retiled to local
/// virtual indices `0..chunk` by [`split_stream`].
///
/// Each sub-program returns its raw chunk responses
/// ([`Finalizer::Raw`]); the scheduler's gather step concatenates them
/// in chunk order and runs the *parent's* finalizer exactly once over
/// the whole sequence, so a split job decodes through the identical
/// host-side path as an unsplit one — bit-identical results by
/// construction, never a partial-merge approximation.
///
/// `chunks` must partition `parent.demand.digital` in ascending
/// virtual-tile order (instruction emission orders outputs by tile, so
/// contiguous ascending chunks preserve the parent's output order).
pub(crate) fn split_by_digital_tile(
    parent: &CompiledJob,
    chunks: &[usize],
    cfg: &PoolConfig,
) -> Vec<CompiledJob> {
    debug_assert_eq!(
        chunks.iter().sum::<usize>(),
        parent.demand.digital,
        "chunks partition the parent's digital tiles"
    );
    debug_assert_eq!(parent.demand.analog, 0, "only digital jobs split");
    let row_bytes = cfg.tile_cols.div_ceil(8);
    let mut base = 0usize;
    let streams = split_stream(&parent.instructions, &parent.outputs, chunks);
    let mut parts = Vec::with_capacity(chunks.len());
    for (part, (&chunk, (instructions, outputs))) in chunks.iter().zip(streams).enumerate() {
        let placement = parent.placement.as_ref().map(|map| {
            AddressMap::new(
                map.base() + (base * cfg.tile_rows * row_bytes) as u64,
                chunk,
                cfg.tile_rows,
                row_bytes,
            )
        });
        let demand = TileDemand {
            digital: chunk,
            analog: 0,
        };
        // Parts are balanced and batched by their own envelopes, so
        // each sub-stream is re-analyzed against its chunk geometry.
        let envelope = crate::verify::envelope_of(&instructions, demand, cfg);
        parts.push(CompiledJob {
            job: parent.job,
            tenant: parent.tenant,
            kind: parent.kind,
            dataset: parent.dataset,
            demand,
            instructions,
            outputs,
            finalizer: Finalizer::Raw,
            placement,
            resident_bytes: parent.resident_bytes * chunk as u64
                / parent.demand.digital.max(1) as u64,
            // Sub-streams are digital (exact): distinct noise seeds per
            // part cannot change results, only keep streams private.
            seed: crate::mix_seed(parent.seed, 0x5EED ^ part as u64),
            splittable: false,
            envelope,
        });
        base += chunk;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PoolConfig;

    fn cfg() -> PoolConfig {
        PoolConfig::default()
    }

    #[test]
    fn q6_compiles_to_resident_bins_plus_reductions() {
        let spec = WorkloadSpec::Q6Select {
            rows: 1500,
            table_seed: 9,
            params: Q6Params::tpch_default(),
        };
        let c = compile(&spec, JobId(0), TenantId(1), &cfg(), 42, 0x1000, None).unwrap();
        assert_eq!(c.demand.digital, 2);
        assert_eq!(c.outputs.len(), 2);
        // 145 bin writes per tile, plus reductions, plus one AND per tile.
        let writes = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::WriteRow { .. }))
            .count();
        assert_eq!(writes, 2 * 145);
        let placement = c.placement.unwrap();
        assert_eq!(placement.base(), 0x1000);
        assert!(c.resident_bytes > 0);
    }

    #[test]
    fn q6_reduction_op_count_matches_seed_engine() {
        // Fan-in 8: months (12 bins) = 2 accesses, discount (3) = 1,
        // quantity (23) = 4, final AND = 1 → 8 logic ops, 7 store-backs
        // per tile — the counts asserted for `Q6CimEngine` in the seed.
        let spec = WorkloadSpec::Q6Select {
            rows: 500,
            table_seed: 5,
            params: Q6Params::tpch_default(),
        };
        let c = compile(&spec, JobId(0), TenantId(1), &cfg(), 1, 0, None).unwrap();
        let logic = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::Logic { .. }))
            .count();
        let stores = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::StoreLast { .. }))
            .count();
        assert_eq!(logic, 8);
        assert_eq!(stores, 7);
    }

    #[test]
    fn q6_bigger_than_one_shard_compiles_splittable() {
        // Tile count is an admission decision now, not a compile error:
        // a select outgrowing one shard compiles as a tile-parallel
        // (splittable) job the scheduler can scatter across shards.
        let mut small = cfg();
        small.digital_tiles = 1;
        let spec = WorkloadSpec::Q6Select {
            rows: small.tile_cols * 2,
            table_seed: 1,
            params: Q6Params::tpch_default(),
        };
        let c = compile(&spec, JobId(0), TenantId(0), &small, 0, 0, None).unwrap();
        assert_eq!(c.demand.digital, 2);
        assert!(c.splittable);
    }

    /// Review regression: a select beyond the whole pool's capacity is
    /// rejected by the footprint check *before* the synthetic table is
    /// generated — never-fits submissions must stay cheap.
    #[test]
    fn q6_beyond_pool_capacity_rejected_before_table_generation() {
        let spec = WorkloadSpec::Q6Select {
            rows: 100 * cfg().tile_cols,
            table_seed: 0,
            params: Q6Params::tpch_default(),
        };
        assert!(matches!(
            compile(&spec, JobId(0), TenantId(0), &cfg(), 0, 0, None),
            Err(CompileError::NeedsMoreDigitalTiles {
                required: 100,
                available: 8,
            })
        ));
    }

    #[test]
    fn split_by_digital_tile_partitions_stream_and_outputs() {
        let spec = WorkloadSpec::Q6Select {
            rows: 3 * cfg().tile_cols,
            table_seed: 4,
            params: Q6Params::tpch_default(),
        };
        let parent = compile(&spec, JobId(7), TenantId(1), &cfg(), 9, 0x4000, None).unwrap();
        assert_eq!(parent.demand.digital, 3);
        let parts = split_by_digital_tile(&parent, &[2, 1], &cfg());
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].demand.digital, 2);
        assert_eq!(parts[1].demand.digital, 1);
        for part in &parts {
            assert!(matches!(part.finalizer, Finalizer::Raw));
            assert!(!part.splittable, "sub-programs never re-split");
        }
        // Sub-placements tile the parent window in order.
        let p0 = parts[0].placement.unwrap();
        let p1 = parts[1].placement.unwrap();
        assert_eq!(p0.base(), 0x4000);
        assert!(p1.base() > p0.base());

        // The compiled job's stream and the table's load program (no
        // outputs) split through the same loop.
        let load = compile_dataset_load(
            &DatasetSpec::Q6Table {
                rows: 3 * cfg().tile_cols,
                table_seed: 4,
            },
            &cfg(),
            9,
        )
        .unwrap();
        assert_eq!(load.demand.digital, 3);
        let inputs = [
            (
                &parent.instructions,
                &parent.outputs,
                parts
                    .iter()
                    .map(|p| (p.instructions.clone(), p.outputs.clone()))
                    .collect::<Vec<_>>(),
            ),
            (
                &load.instructions,
                &Vec::new(),
                split_stream(&load.instructions, &[], &[2, 1]),
            ),
        ];
        for (instructions, outputs, split) in inputs {
            let chunk_of = |i: &CimInstruction| usize::from(i.effects().tile >= 2);
            let (mut rebuilt, mut rebuilt_outputs) = (Vec::new(), Vec::new());
            // Every sub-stream is retiled to local virtual indices.
            for ((stream, picked), (base, chunk)) in split.iter().zip([(0, 2), (2, 1)]) {
                let restored: Vec<CimInstruction> = stream
                    .iter()
                    .map(|instr| {
                        let mut instr = instr.clone();
                        let (family, tile) = instr.tile_mut();
                        assert_eq!(family, TileFamily::Digital);
                        assert!(*tile < chunk);
                        *tile += base;
                        instr
                    })
                    .collect();
                rebuilt_outputs.extend(picked.iter().map(|&i| restored[i].clone()));
                rebuilt.extend(restored);
            }
            // Undoing the retiling gives back the stream and its
            // outputs, chunk-major.
            let mut expected = instructions.clone();
            expected.sort_by_key(chunk_of);
            assert_eq!(rebuilt, expected);
            let mut expected: Vec<CimInstruction> =
                outputs.iter().map(|&i| instructions[i].clone()).collect();
            expected.sort_by_key(chunk_of);
            assert_eq!(rebuilt_outputs, expected);
        }
    }

    #[test]
    fn scout_bulk_chunks_across_tiles_when_rows_exceed_one_tile() {
        let c = cfg();
        let n = c.tile_rows; // > tile_rows - 2 operands: needs 2 tiles
        let rows: Vec<BitVec> = (0..n)
            .map(|i| BitVec::from_fn(64, |j| (i + j) % 9 == 0))
            .collect();
        let spec = WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            rows,
        };
        let job = compile(&spec, JobId(0), TenantId(0), &c, 0, 0, None).unwrap();
        assert_eq!(job.demand.digital, 2, "operands chunk across two tiles");
        assert_eq!(job.outputs.len(), 2, "one partial per tile");
        assert!(job.splittable);
        match &job.finalizer {
            Finalizer::Bits { width, op } => {
                assert_eq!(*width, 64);
                assert_eq!(*op, ScoutOp::Or);
            }
            other => panic!("wrong finalizer {other:?}"),
        }
    }

    #[test]
    fn hdc_pads_matrix_and_queries_to_tile_shape() {
        let spec = WorkloadSpec::HdcClassify {
            classes: 4,
            d: 512,
            ngram: 3,
            train_len: 400,
            samples: 6,
            sample_len: 50,
        };
        let c = compile(&spec, JobId(1), TenantId(2), &cfg(), 7, 0, None).unwrap();
        assert_eq!(c.demand.analog, 1);
        assert_eq!(c.outputs.len(), 6);
        match &c.instructions[0] {
            CimInstruction::ProgramMatrix { matrix, .. } => {
                assert_eq!(
                    (matrix.rows(), matrix.cols()),
                    (cfg().analog_rows, cfg().analog_cols)
                );
            }
            other => panic!("expected ProgramMatrix first, got {other:?}"),
        }
        match &c.finalizer {
            Finalizer::Hdc { expected, .. } => assert_eq!(expected, &vec![0, 1, 2, 3, 0, 1]),
            other => panic!("wrong finalizer {other:?}"),
        }
    }

    #[test]
    fn hdc_oversized_dimension_rejected() {
        let spec = WorkloadSpec::HdcClassify {
            classes: 4,
            d: cfg().analog_cols + 1,
            ngram: 3,
            train_len: 400,
            samples: 1,
            sample_len: 10,
        };
        assert!(matches!(
            compile(&spec, JobId(0), TenantId(0), &cfg(), 0, 0, None),
            Err(CompileError::AnalogShapeTooSmall { .. })
        ));
        // Empty work is reported before the shape.
        let empty = WorkloadSpec::HdcClassify {
            classes: 4,
            d: cfg().analog_cols + 1,
            ngram: 3,
            train_len: 400,
            samples: 0,
            sample_len: 10,
        };
        assert!(matches!(
            compile(&empty, JobId(0), TenantId(0), &cfg(), 0, 0, None),
            Err(CompileError::EmptyWorkload)
        ));
        // The resident twin rejects the same shape.
        let prototypes = DatasetSpec::HdcPrototypes {
            classes: 4,
            d: cfg().analog_cols + 1,
            ngram: 3,
            train_len: 400,
        };
        assert!(matches!(
            compile_dataset_load(&prototypes, &cfg(), 0),
            Err(CompileError::AnalogShapeTooSmall { .. })
        ));
    }

    #[test]
    fn xor_stream_roundtrips_through_finalizer_shape() {
        let spec = WorkloadSpec::XorEncrypt {
            message: vec![0xAB; 300],
            key_seed: 77,
        };
        let c = compile(&spec, JobId(2), TenantId(3), &cfg(), 3, 0x2000, None).unwrap();
        // 300 bytes = 2400 bits; tile width decides chunk count.
        let chunks = (300usize * 8).div_ceil(cfg().tile_cols);
        assert_eq!(c.outputs.len(), chunks);
        assert_eq!(c.instructions.len(), 3 * chunks);
    }

    #[test]
    fn scout_bulk_reduces_many_rows() {
        let rows: Vec<BitVec> = (0..10)
            .map(|i| BitVec::from_fn(64, |j| (i + j) % 3 == 0))
            .collect();
        let spec = WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            rows,
        };
        let c = compile(&spec, JobId(3), TenantId(4), &cfg(), 5, 0, None).unwrap();
        assert_eq!(c.demand.digital, 1);
        assert_eq!(c.outputs.len(), 1);
        match &c.finalizer {
            Finalizer::Bits { width, .. } => assert_eq!(*width, 64),
            other => panic!("wrong finalizer {other:?}"),
        }
    }

    #[test]
    fn scout_xor_requires_two_rows() {
        let rows: Vec<BitVec> = (0..3).map(|_| BitVec::zeros(8)).collect();
        let spec = WorkloadSpec::ScoutBulk {
            op: ScoutOp::Xor,
            rows,
        };
        assert!(matches!(
            compile(&spec, JobId(0), TenantId(0), &cfg(), 0, 0, None),
            Err(CompileError::UnsupportedFanIn { .. })
        ));
    }

    #[test]
    fn nn_infer_compiles_to_programs_plus_mvm_cascade() {
        let mlp = BinarizedMlp::random(&[8, 6, 3], 5);
        let inputs: Vec<BitVec> = (0..4)
            .map(|i| BitVec::from_fn(8, |j| (i + j) % 2 == 0))
            .collect();
        let spec = WorkloadSpec::NnInfer {
            network: mlp.clone(),
            inputs,
        };
        let c = compile(&spec, JobId(0), TenantId(1), &cfg(), 3, 0, None).unwrap();
        assert_eq!(c.demand.analog, 2, "one analog tile per layer");
        assert_eq!(c.kind, JobKind::NnInfer);
        let programs = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::ProgramMatrix { .. }))
            .count();
        let mvms = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::Mvm { .. }))
            .count();
        assert_eq!(programs, 2, "each layer programmed once");
        assert_eq!(mvms, 4 * 2, "one MVM per layer per input");
        assert_eq!(c.outputs.len(), 4, "one output per inference");
        // Every output is a final-layer MVM (tile 1).
        for &idx in &c.outputs {
            assert!(matches!(
                c.instructions[idx],
                CimInstruction::Mvm { tile: 1, .. }
            ));
        }
        match &c.finalizer {
            Finalizer::Nn { classes, fan_in } => {
                assert_eq!(*classes, 3);
                assert_eq!(*fan_in, 6, "decode lattice uses the final layer's fan-in");
            }
            other => panic!("wrong finalizer {other:?}"),
        }
    }

    #[test]
    fn nn_query_carries_no_weight_writes() {
        let mlp = BinarizedMlp::random(&[8, 6, 3], 5);
        let payload = ResidentPayload::Nn {
            network: Arc::new(mlp.clone()),
        };
        let view = ResidentView {
            resident_rows: crate::verify::resident_row_sets(&payload),
            payload,
            digital_tiles: 0,
            placement: None,
            resident_bytes: mlp.weight_count() as u64 / 8,
        };
        let spec = WorkloadSpec::NnQuery {
            dataset: DatasetId(0),
            inputs: vec![BitVec::from_fn(8, |j| j < 4); 3],
        };
        let c = compile(&spec, JobId(1), TenantId(1), &cfg(), 3, 0, Some(&view)).unwrap();
        assert!(
            c.instructions
                .iter()
                .all(|i| matches!(i, CimInstruction::Mvm { .. })),
            "a resident query is MVMs only — not a single weight write"
        );
        assert_eq!(c.instructions.len(), 3 * 2);
        assert_eq!(c.dataset, Some(DatasetId(0)));
    }

    #[test]
    fn nn_input_validation() {
        let mlp = BinarizedMlp::random(&[8, 3], 1);
        let empty = WorkloadSpec::NnInfer {
            network: mlp.clone(),
            inputs: vec![],
        };
        assert!(matches!(
            compile(&empty, JobId(0), TenantId(0), &cfg(), 0, 0, None),
            Err(CompileError::EmptyWorkload)
        ));
        let short = WorkloadSpec::NnInfer {
            network: mlp,
            inputs: vec![BitVec::zeros(5)],
        };
        assert!(matches!(
            compile(&short, JobId(0), TenantId(0), &cfg(), 0, 0, None),
            Err(CompileError::InputLengthMismatch {
                got: 5,
                expected: 8,
            })
        ));
    }

    #[test]
    fn nn_oversized_layer_rejected() {
        let mlp = BinarizedMlp::random(&[cfg().analog_cols + 1, 2], 1);
        let spec = WorkloadSpec::NnInfer {
            network: mlp,
            inputs: vec![BitVec::zeros(cfg().analog_cols + 1)],
        };
        assert!(matches!(
            compile(&spec, JobId(0), TenantId(0), &cfg(), 0, 0, None),
            Err(CompileError::AnalogShapeTooSmall { .. })
        ));
        // More layers than a shard's analog tiles: a cold job needs more
        // tiles, while the resident twin is a dataset that can never fit.
        let deep = BinarizedMlp::random(&[8, 8, 8, 4], 1);
        let cold = WorkloadSpec::NnInfer {
            network: deep.clone(),
            inputs: vec![BitVec::zeros(8)],
        };
        assert_eq!(
            compile(&cold, JobId(0), TenantId(0), &cfg(), 0, 0, None).err(),
            Some(CompileError::NeedsMoreAnalogTiles {
                required: 3,
                available: cfg().analog_tiles,
            })
        );
        assert!(matches!(
            compile_dataset_load(&DatasetSpec::NnWeights { network: deep }, &cfg(), 0),
            Err(CompileError::DatasetTooLarge { .. })
        ));
    }

    /// Cold jobs lower through their dataset twin: for one seed, a cold
    /// HDC or NN stream is the twin's load program followed by the twin
    /// query's stream, and a cold Q6 select carries, tile by tile, the
    /// table's bin writes followed by the query's reductions. The
    /// finalizers agree.
    #[test]
    fn cold_jobs_are_their_dataset_twin_load_plus_query() {
        let c = cfg();
        let seed = 11;
        let lower = |load: &DatasetSpec, query: &WorkloadSpec, cold: &WorkloadSpec| {
            let program = compile_dataset_load(load, &c, seed).unwrap();
            let view = ResidentView {
                payload: program.payload.clone(),
                resident_rows: crate::verify::resident_row_sets(&program.payload),
                digital_tiles: program.demand.digital,
                placement: None,
                resident_bytes: program.resident_bytes,
            };
            let query = compile(query, JobId(1), TenantId(1), &c, seed, 0, Some(&view)).unwrap();
            let cold = compile(cold, JobId(2), TenantId(1), &c, seed, 0, None).unwrap();
            assert_eq!(
                format!("{:?}", cold.finalizer),
                format!("{:?}", query.finalizer)
            );
            assert_eq!(cold.demand, program.demand);
            assert_eq!(cold.resident_bytes, program.resident_bytes);
            (program.instructions, query, cold)
        };
        let mlp = BinarizedMlp::random(&[8, 6, 3], 5);
        let inputs: Vec<BitVec> = (0..4)
            .map(|i| BitVec::from_fn(8, |j| (i + j) % 2 == 0))
            .collect();
        for (load, query, cold) in [
            (
                DatasetSpec::HdcPrototypes {
                    classes: 4,
                    d: 512,
                    ngram: 3,
                    train_len: 400,
                },
                WorkloadSpec::HdcQuery {
                    dataset: DatasetId(0),
                    samples: 6,
                    sample_len: 50,
                },
                WorkloadSpec::HdcClassify {
                    classes: 4,
                    d: 512,
                    ngram: 3,
                    train_len: 400,
                    samples: 6,
                    sample_len: 50,
                },
            ),
            (
                DatasetSpec::NnWeights {
                    network: mlp.clone(),
                },
                WorkloadSpec::NnQuery {
                    dataset: DatasetId(0),
                    inputs: inputs.clone(),
                },
                WorkloadSpec::NnInfer {
                    network: mlp,
                    inputs,
                },
            ),
        ] {
            let (load, query, cold) = lower(&load, &query, &cold);
            let stream: Vec<CimInstruction> =
                load.iter().chain(&query.instructions).cloned().collect();
            assert_eq!(cold.instructions, stream, "{:?}", cold.kind);
            let outputs: Vec<usize> = query.outputs.iter().map(|o| o + load.len()).collect();
            assert_eq!(cold.outputs, outputs, "{:?}", cold.kind);
        }

        let (load, query, cold) = lower(
            &DatasetSpec::Q6Table {
                rows: 3 * c.tile_cols - 100,
                table_seed: 4,
            },
            &WorkloadSpec::Q6Query {
                dataset: DatasetId(0),
                params: Q6Params::tpch_default(),
            },
            &WorkloadSpec::Q6Select {
                rows: 3 * c.tile_cols - 100,
                table_seed: 4,
                params: Q6Params::tpch_default(),
            },
        );
        assert_eq!(cold.demand.digital, 3);
        let on_tile = |stream: &[CimInstruction], t: usize| -> Vec<CimInstruction> {
            stream
                .iter()
                .filter(|i| i.effects().tile == t)
                .cloned()
                .collect()
        };
        let mut tile_major = Vec::new();
        for t in 0..cold.demand.digital {
            let mut expected = on_tile(&load, t);
            expected.extend(on_tile(&query.instructions, t));
            assert_eq!(on_tile(&cold.instructions, t), expected, "tile {t}");
            tile_major.extend(expected);
        }
        assert_eq!(
            cold.instructions, tile_major,
            "tile t's writes, then its reductions"
        );
        let picked = |job: &CompiledJob| -> Vec<CimInstruction> {
            job.outputs
                .iter()
                .map(|&i| job.instructions[i].clone())
                .collect()
        };
        assert_eq!(picked(&cold), picked(&query));
    }

    #[test]
    fn img_filter_compiles_to_row_writes_and_window_reads() {
        let spec = WorkloadSpec::ImgFilter {
            image: GrayImage::gradient(16, 10),
            filter: ImgFilterOp::Box { radius: 2 },
        };
        let c = compile(&spec, JobId(0), TenantId(1), &cfg(), 7, 0x100, None).unwrap();
        assert_eq!(c.demand.digital, 1);
        let writes = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::WriteRow { .. }))
            .count();
        let reads = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::ReadRow { .. }))
            .count();
        assert_eq!(writes, 10, "each image row resident once");
        assert_eq!(
            reads,
            10 * 5,
            "every output row streams its 2r+1 neighbourhood"
        );
        assert_eq!(c.outputs.len(), reads);
        match &c.finalizer {
            Finalizer::Img { reads, .. } => assert_eq!(reads.len(), 50),
            other => panic!("wrong finalizer {other:?}"),
        }
    }

    #[test]
    fn img_row_wider_than_tile_rejected() {
        let spec = WorkloadSpec::ImgFilter {
            image: GrayImage::constant(cfg().tile_cols / 8 + 1, 4, 0.5),
            filter: ImgFilterOp::Box { radius: 1 },
        };
        assert!(matches!(
            compile(&spec, JobId(0), TenantId(0), &cfg(), 0, 0, None),
            Err(CompileError::BadOperandWidth { .. })
        ));
    }

    /// Satellite: an impossible dataset pin is a dedicated sizing error
    /// at plan time, not a generic capacity failure — and since digital
    /// loads split across shards, it now fires only past the *pool*
    /// capacity, reported as such (`pool_capacity`, not one shard).
    #[test]
    fn oversized_dataset_load_is_a_dedicated_error() {
        let c = cfg();
        let pool_tiles = c.digital_tiles * c.shards;
        // One shard's worth plus one: splittable across the pool, so it
        // compiles fine now.
        let fits_pool = DatasetSpec::Q6Table {
            rows: (c.digital_tiles + 1) * c.tile_cols,
            table_seed: 1,
        };
        assert!(compile_dataset_load(&fits_pool, &c, 0).is_ok());
        // The whole pool's worth plus one: can never fit anywhere.
        let q6 = DatasetSpec::Q6Table {
            rows: (pool_tiles + 1) * c.tile_cols,
            table_seed: 1,
        };
        match compile_dataset_load(&q6, &c, 0) {
            Err(CompileError::DatasetTooLarge {
                needed,
                pool_capacity,
            }) => {
                assert_eq!(needed.digital, pool_tiles + 1);
                assert_eq!(pool_capacity.digital, pool_tiles);
            }
            other => panic!("expected DatasetTooLarge, got {other:?}"),
        }
        // Analog pins are not split: one shard's analog tiles remain
        // the limit for weight matrices.
        let nn = DatasetSpec::NnWeights {
            network: BinarizedMlp::random(&[8, 8, 8, 4], 1),
        };
        match compile_dataset_load(&nn, &c, 0) {
            Err(CompileError::DatasetTooLarge {
                needed,
                pool_capacity,
            }) => {
                assert_eq!(needed.analog, 3, "three layers need three analog tiles");
                assert_eq!(pool_capacity.analog, c.analog_tiles);
            }
            other => panic!("expected DatasetTooLarge, got {other:?}"),
        }
    }

    /// Satellite: logic accesses cost the rows they touch, so a wide
    /// raw reduction cannot masquerade as one cheap instruction.
    #[test]
    fn raw_logic_cost_counts_row_fanout() {
        let wide = WorkloadSpec::Raw {
            digital_tiles: 1,
            analog_tiles: 0,
            instructions: vec![CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows: (0..100).collect(),
            }],
        };
        let narrow = WorkloadSpec::Raw {
            digital_tiles: 1,
            analog_tiles: 0,
            instructions: vec![CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows: vec![0, 1],
            }],
        };
        let wide = compile(&wide, JobId(0), TenantId(0), &cfg(), 0, 0, None).unwrap();
        let narrow = compile(&narrow, JobId(1), TenantId(0), &cfg(), 0, 0, None).unwrap();
        assert_eq!(wide.estimated_cost(), 101);
        assert_eq!(narrow.estimated_cost(), 3);
        assert!(wide.estimated_cost() > 30 * narrow.estimated_cost());
    }

    #[test]
    fn empty_workloads_rejected() {
        for spec in [
            WorkloadSpec::Q6Select {
                rows: 0,
                table_seed: 0,
                params: Q6Params::tpch_default(),
            },
            WorkloadSpec::XorEncrypt {
                message: vec![],
                key_seed: 0,
            },
            WorkloadSpec::ScoutBulk {
                op: ScoutOp::Or,
                rows: vec![],
            },
            WorkloadSpec::HdcClassify {
                classes: 0,
                d: 512,
                ngram: 3,
                train_len: 400,
                samples: 2,
                sample_len: 10,
            },
            // Empty work is reported before the prototype shape.
            WorkloadSpec::HdcClassify {
                classes: 4,
                d: cfg().analog_cols + 1,
                ngram: 3,
                train_len: 400,
                samples: 2,
                sample_len: 0,
            },
            WorkloadSpec::HdcAssoc {
                classes: 4,
                d: 64,
                ngram: 3,
                train_len: 40,
                samples: 0,
                sample_len: 10,
            },
            // Empty inputs are reported before the layer count.
            WorkloadSpec::NnInfer {
                network: BinarizedMlp::random(&[8, 8, 8, 4], 1),
                inputs: vec![],
            },
        ] {
            assert!(
                matches!(
                    compile(&spec, JobId(0), TenantId(0), &cfg(), 0, 0, None),
                    Err(CompileError::EmptyWorkload)
                ),
                "{spec:?}"
            );
        }
    }
}
