//! The scheduler layer: shard pool, admission, batching and workers.
//!
//! A [`RuntimePool`] owns a set of [`CimAccelerator`] *shards*, each
//! driven by its own worker thread (std threads and channels — no async
//! runtime). Sessions ([`crate::PoolClient`]) submit workloads, which
//! are compiled immediately ([`crate::compile`]) and queued; a *flush*
//! (explicit, or implied by any `wait`) plans the queue
//! deterministically and dispatches it:
//!
//! 1. **Shard selection** — each job goes to the least-loaded shard
//!    (estimated by queued [`CompiledJob::estimated_cost`], ties to the
//!    lowest index); jobs against a resident dataset are routed to the
//!    dataset's shard. The plan is a pure function of the submission
//!    order, never of thread timing.
//! 2. **Per-tile admission** — jobs hold leases on whole tiles. Fresh
//!    leases are carved from the shard's *free* tiles (tiles pinned by
//!    resident datasets are never handed out); dataset jobs reuse the
//!    dataset's pinned tiles. Instruction streams are relocated from
//!    virtual to physical tiles at dispatch, and any instruction
//!    addressing a tile outside its lease fails the job with
//!    [`JobError::TileFault`] *before* touching the accelerator.
//! 3. **Cost-aware batch coalescing** — compatible jobs (same workload
//!    family, same dataset) on a shard share one dispatch batch while
//!    they fit the tile budget *and* the batch cost budget
//!    ([`PoolConfig::max_batch_cost`]). Within a batch jobs run
//!    cheapest-first, and a shard's batches dispatch cheapest-first, so
//!    a cheap job is never head-of-line blocked behind an expensive
//!    one it happens to share a queue with.
//!
//! Every job draws its stochastic behaviour from a private seeded
//! stream ([`CimAccelerator::execute_with_rng`]) and leases exclusive
//! tiles, so its results are independent of co-tenants, batch shape and
//! execution order: batched and sequential drains are bit-identical —
//! the invariant `tests/runtime_pipeline.rs` pins.
//!
//! After each job the runtime scrubs every tile row the job wrote (and
//! every analog tile it programmed) so no data survives into the next
//! lease; the scrub cost is reported as maintenance overhead. Resident
//! datasets are the deliberate exception: their tiles are scrubbed only
//! when the last [`crate::DatasetHandle`] drops.

use crate::client::PoolClient;
use crate::compile::{
    compile, compile_dataset_load, host_reference, split_by_digital_tile, split_stream,
    CompileError, CompiledJob, DatasetProgram, Finalizer, TileDemand,
};
use crate::dataset::{DatasetRecord, DatasetSpec, LoadProgress, ResidentView, ShardPlacement};
use crate::job::{
    DatasetId, JobError, JobId, JobKind, JobOutput, JobReport, JobRoute, JobStatus, JobTiming,
    TenantId, WorkloadSpec,
};
use crate::telemetry::{stats_accumulate, stats_delta, PoolTelemetry};
use crate::trace::{Attr, Tracer};
use cim_arch::cim::CimSystem;
use cim_arch::conventional::ConventionalMachine;
use cim_core::isa::{CimInstruction, CimResponse, TileFamily};
use cim_core::offload::{OffloadEstimate, Program};
use cim_core::{AddressMap, CimAccelerator, CimAcceleratorBuilder, DeviceCounters, ExecutionStats};
use cim_crossbar::analog::AnalogParams;
use cim_crossbar::energy::OperationCost;
use cim_device::reram::ReramParams;
use cim_obs::{NullSink, SpanId, TraceSink, Value};
use cim_simkit::rng::seeded;
use cim_simkit::units::ByteSize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How the admission planner decides between the CIM pool and the
/// host-executor lane, in the TDO-CIM mold: compare the job's certified
/// [`cim_lint::CostEnvelope`] against the analytical host-fallback cost
/// and only offload what the accelerator actually wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadPolicy {
    /// Every job runs on the CIM pool (the pre-planner behaviour, and
    /// the default). No host reference is ever computed.
    AlwaysCim,
    /// Every job with a certified bit-identical host path runs on the
    /// host lane; jobs without one (raw streams, analog-score HDC)
    /// still run on the pool.
    AlwaysHost,
    /// Route by cost: a host-eligible job runs on the host when the
    /// analytical host delay is at most `threshold` times the
    /// envelope's CIM latency bound. `threshold = 1.0` offloads only
    /// jobs the accelerator strictly loses; larger values keep more
    /// small jobs off the shards (amortizing the per-job offload
    /// overhead), smaller values favour the accelerator.
    CostDriven {
        /// Host-delay multiplier a job must beat to stay on the host.
        threshold: f64,
    },
}

/// Geometry and policy of a pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Number of accelerator shards (one worker thread each).
    pub shards: usize,
    /// Digital tiles per shard.
    pub digital_tiles: usize,
    /// Rows per digital tile.
    pub tile_rows: usize,
    /// Columns (entry width) per digital tile.
    pub tile_cols: usize,
    /// Analog tiles per shard.
    pub analog_tiles: usize,
    /// Rows per analog tile.
    pub analog_rows: usize,
    /// Columns per analog tile.
    pub analog_cols: usize,
    /// Scouting fan-in limit used by compiled reductions.
    pub scout_fan_in: usize,
    /// Pool seed: fabrication variation and per-job noise streams derive
    /// from it.
    pub seed: u64,
    /// Maximum jobs coalesced into one batch. `1` is the no-coalescing
    /// schedule: every job dispatches in a batch of its own.
    pub max_batch_jobs: usize,
    /// Maximum summed [`CompiledJob::estimated_cost`] of one batch (the
    /// first job is always admitted). Bounds how long a batch can keep
    /// a shard busy, so admission packs by cost, not tile count alone.
    pub max_batch_cost: u64,
    /// Run the `cim-lint` static verifier on *every* compiled program
    /// at submission, not just raw streams. Raw instruction streams
    /// ([`crate::WorkloadSpec::Raw`] / [`crate::WorkloadSpec::RawQuery`])
    /// are always verified regardless of this flag, since they are
    /// tenant input; setting it extends the same check to the pool's
    /// own compiler output as a defense-in-depth serving mode. Programs
    /// with error-severity findings fail terminally with
    /// [`JobError::RejectedByVerifier`] before touching any shard.
    pub verify_all_programs: bool,
    /// Binary-device technology of every shard's digital tiles. The
    /// default is the workspace's representative HfO₂ ReRAM; tests that
    /// need provably exact analog range-match windows zero the
    /// variation sigmas here.
    pub reram_params: ReramParams,
    /// Analog-tile configuration (PCM devices, converter resolutions,
    /// drift) of every shard. Defaults to the realistic stack;
    /// [`AnalogParams::ideal`] isolates algorithmic behaviour from
    /// analog non-idealities.
    pub analog_params: AnalogParams,
    /// The admission planner's host-offload policy. Under anything but
    /// [`OffloadPolicy::AlwaysCim`], the planner may serve a job of an
    /// eligible kind from the host lane, computing its host reference
    /// only then (reported with [`crate::JobRoute::Host`], empty
    /// `shards`, bit-identical output).
    pub offload_policy: OffloadPolicy,
    /// Submit-side backpressure budget: the summed
    /// [`cim_lint::CostEnvelope::cost_units`] of CIM-routed jobs
    /// admitted but not yet completed. A submission that would push the
    /// in-flight total past the budget blocks (pumping completions)
    /// until enough envelope drains. `u64::MAX` (the default) disables
    /// the gate. The first in-flight job is always admitted, so a
    /// single job larger than the whole budget still runs.
    pub max_inflight_cost: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            shards: 2,
            digital_tiles: 4,
            tile_rows: 160,
            tile_cols: 1024,
            analog_tiles: 2,
            analog_rows: 32,
            analog_cols: 2048,
            scout_fan_in: 8,
            seed: 0xC1A0,
            max_batch_jobs: 8,
            max_batch_cost: 1 << 14,
            verify_all_programs: false,
            reram_params: ReramParams::default(),
            analog_params: AnalogParams::default(),
            offload_policy: OffloadPolicy::AlwaysCim,
            max_inflight_cost: u64::MAX,
        }
    }
}

impl PoolConfig {
    /// The default geometry with a given shard count.
    pub fn with_shards(shards: usize) -> Self {
        PoolConfig {
            shards,
            ..PoolConfig::default()
        }
    }

    /// Bytes of one job's extended-address-space window, rounded to a
    /// power of two so windows are disjoint and alignment-friendly.
    fn window_stride(&self) -> u64 {
        let bytes = (self.digital_tiles * self.tile_rows * self.tile_cols.div_ceil(8)) as u64;
        bytes.next_power_of_two()
    }

    /// Base address of job `id`'s resident window. The extended address
    /// space starts past the host DRAM window, as in §II-B.
    pub fn window_base(&self, id: u64) -> u64 {
        0x4000_0000 + id * self.window_stride()
    }

    /// Base address of dataset `id`'s resident window: a region of the
    /// extended address space disjoint from per-job windows, because
    /// datasets outlive jobs.
    pub fn dataset_window_base(&self, id: u64) -> u64 {
        0x4000_0000_0000 + id * self.window_stride()
    }
}

/// Silences the default panic hook for shard worker threads: their
/// panics are contained by the runtime and surfaced as
/// [`JobError::ExecutionPanic`], so dumping a backtrace to stderr would
/// let one misbehaving tenant flood the serving process's logs. Panics
/// on every other thread still reach the previous hook.
fn install_shard_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_shard = std::thread::current()
                .name()
                .is_some_and(|name| name.starts_with("cim-shard-"));
            if !on_shard {
                previous(info);
            }
        }));
    });
}

/// Locks a pool mutex, recovering the guard from a poisoned lock.
/// Shard-worker panics are contained per job (the worker catches them
/// and reports [`JobError::ExecutionPanic`]), so the pool state behind
/// a poisoned mutex is still consistent — propagating the poison would
/// turn one contained panic into a pool-wide outage.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic seed mixing (SplitMix64 finalizer over the pair).
pub(crate) fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A job with its virtual→physical tile maps on a shard.
struct PlacedJob {
    compiled: CompiledJob,
    /// Physical digital tile of each virtual digital tile.
    digital_map: Vec<usize>,
    /// Physical analog tile of each virtual analog tile.
    analog_map: Vec<usize>,
    /// `Some(index)` when this is one sub-program of a cross-shard
    /// split job: its report routes to the gather step instead of
    /// completing the job directly.
    part: Option<u32>,
    /// The job's root trace span (stamped by `mark_dispatched`, NONE
    /// when tracing is disabled).
    root: SpanId,
    /// The per-part dispatch span, opened at dispatch and closed by the
    /// worker once the part completes.
    dispatch: SpanId,
}

/// One dispatch unit: co-resident jobs on one shard, executed in order.
struct Batch {
    id: u64,
    jobs: Vec<PlacedJob>,
}

/// What the pool sends a shard worker.
enum WorkerMsg {
    /// Execute a batch of placed jobs.
    Batch(Batch),
    /// Execute a dataset's load program (already on physical tiles).
    LoadDataset {
        id: DatasetId,
        instructions: Vec<CimInstruction>,
        seed: u64,
        /// The dataset's `dataset_load` span, parent of the worker's
        /// per-chunk `load_execute` span.
        span: SpanId,
    },
    /// Scrub a released dataset's pinned tiles.
    ReleaseDataset {
        id: DatasetId,
        rows: Vec<(usize, usize)>,
        analog_tiles: Vec<usize>,
        seed: u64,
    },
    /// Exit the worker loop (sent by `RuntimePool::drop`).
    Shutdown,
}

/// What a shard worker sends back.
enum Completion {
    Job {
        report: Box<JobReport>,
        /// `Some` for one sub-program of a split job.
        part: Option<u32>,
    },
    DatasetLoaded {
        id: DatasetId,
        result: Result<(ExecutionStats, DeviceCounters), String>,
    },
    DatasetReleased {
        id: DatasetId,
        maintenance: OperationCost,
    },
}

/// Lifecycle of one submitted job, pool-side; its [`crate::JobHandle`]
/// takes the report out of the `Done` slot.
enum Slot {
    Queued,
    Dispatched,
    Done(Box<JobReport>),
    /// The handle was dropped before completion; the report is
    /// discarded (after telemetry) when it arrives.
    Abandoned,
}

/// Gather state of one cross-shard split job: sub-reports accumulate
/// until every part arrived, then the *parent's* finalizer runs once
/// over the concatenated chunk responses — the host-side merge of the
/// scatter-gather — and a single [`JobReport`] is assembled.
struct GatherState {
    /// Sub-programs dispatched.
    expected: usize,
    /// Arrived sub-reports, keyed by part index (= chunk order).
    parts: BTreeMap<u32, Box<JobReport>>,
    /// The parent job's host-side decoder.
    finalizer: Finalizer,
    /// The offload estimate over the whole (unsplit) job.
    offload: OffloadEstimate,
    /// The parent job's root span (gather/finalize spans nest under it).
    root: SpanId,
    /// The gather span, opened when the first part arrives.
    span: SpanId,
}

/// Wall-clock and span bookkeeping of one in-flight job, kept from
/// submission to report completion. Maintained even when tracing is
/// disabled: the `Instant`s become [`JobTiming`] on the report.
struct JobLifecycle {
    /// Who the job is, for a report the pool synthesizes itself.
    identity: JobIdentity,
    /// The job's root span (NONE when tracing is disabled).
    root: SpanId,
    /// The queue span, open from admission until first dispatch.
    queue: SpanId,
    submitted: Instant,
    /// Set when the first part dispatches.
    dispatched: Option<Instant>,
}

/// Mutable pool state, behind [`PoolShared::state`].
struct PoolState {
    pending: Vec<CompiledJob>,
    /// Envelope cost of every CIM-routed job admitted but not yet
    /// completed, keyed by job id; `inflight_total` is its running sum.
    /// [`PoolConfig::max_inflight_cost`] gates submissions against the
    /// total.
    inflight: BTreeMap<u64, u64>,
    inflight_total: u64,
    slots: BTreeMap<u64, Slot>,
    /// Per-job wall-clock/span bookkeeping, keyed by job id.
    lifecycles: BTreeMap<u64, JobLifecycle>,
    datasets: BTreeMap<u64, DatasetRecord>,
    /// In-flight cross-shard split jobs, keyed by job id.
    gathers: BTreeMap<u64, GatherState>,
    /// Physical digital tiles pinned by datasets, per shard.
    pinned_digital: Vec<BTreeSet<usize>>,
    /// Physical analog tiles pinned by datasets, per shard.
    pinned_analog: Vec<BTreeSet<usize>>,
    next_job: u64,
    next_batch: u64,
    next_dataset: u64,
    telemetry: PoolTelemetry,
    /// Set by [`RuntimePool`]'s drop before the shard workers are told
    /// to exit. Every send to a worker happens under the state lock
    /// after checking it, so nothing is sent to a worker that is gone.
    shut_down: bool,
}

/// State shared between the pool, its sessions and its handles.
///
/// Lock order: `completions` before `state`; never acquire
/// `completions` while holding `state`.
#[derive(Debug)]
pub(crate) struct PoolShared {
    cfg: PoolConfig,
    to_shards: Vec<Sender<WorkerMsg>>,
    completions: Mutex<Receiver<Completion>>,
    state: Mutex<PoolState>,
    /// The pool's trace front end; clones feed the shard workers.
    tracer: Tracer,
}

impl std::fmt::Debug for PoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field("pending", &self.pending.len())
            .field("slots", &self.slots.len())
            .field("datasets", &self.datasets.len())
            .finish_non_exhaustive()
    }
}

/// The multi-tenant accelerator pool. Work is submitted through
/// per-tenant sessions opened with [`RuntimePool::client`].
pub struct RuntimePool {
    shared: Arc<PoolShared>,
    joins: Vec<JoinHandle<()>>,
}

impl RuntimePool {
    /// Builds the shards and spawns one worker thread per shard, with
    /// tracing disabled (a null sink — near-free on the hot path).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards or zero digital
    /// tiles.
    pub fn new(cfg: PoolConfig) -> Self {
        RuntimePool::with_sink(cfg, Arc::new(NullSink))
    }

    /// Builds the pool with every lifecycle stage traced into `sink`:
    /// a span per job stage (submit/compile/queue/dispatch/execute/
    /// gather/finalize/report) and per dataset load, plus queue-depth
    /// and batch-occupancy gauges at each plan. Pass a
    /// [`cim_obs::RingRecorder`] (keeping your own `Arc`) and read
    /// snapshots or Chrome traces from it after — see the README's
    /// "Observability" section.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards or zero digital
    /// tiles.
    pub fn with_sink(cfg: PoolConfig, sink: Arc<dyn TraceSink>) -> Self {
        assert!(cfg.shards > 0, "pool needs at least one shard");
        assert!(
            cfg.digital_tiles > 0,
            "shards need at least one digital tile"
        );
        install_shard_panic_hook();
        let tracer = Tracer::new(sink);
        let (report_tx, completions) = channel();
        let mut to_shards = Vec::with_capacity(cfg.shards);
        let mut joins = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let shard_seed = mix_seed(cfg.seed, 0xD1A5 + shard as u64);
            let accelerator = CimAcceleratorBuilder::new()
                .digital_tiles(cfg.digital_tiles, cfg.tile_rows, cfg.tile_cols)
                .analog_tiles(cfg.analog_tiles, cfg.analog_rows, cfg.analog_cols)
                .reram_params(cfg.reram_params)
                .analog_params(cfg.analog_params)
                .seed(shard_seed)
                .build();
            let (tx, rx) = channel();
            let report_tx = report_tx.clone();
            let worker_tracer = tracer.clone();
            let handle = std::thread::Builder::new()
                .name(format!("cim-shard-{shard}"))
                .spawn(move || {
                    worker_loop(shard, accelerator, shard_seed, rx, report_tx, worker_tracer)
                })
                .unwrap_or_else(|e| panic!("spawn shard worker: {e}"));
            to_shards.push(tx);
            joins.push(handle);
        }
        RuntimePool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    pending: Vec::new(),
                    inflight: BTreeMap::new(),
                    inflight_total: 0,
                    slots: BTreeMap::new(),
                    lifecycles: BTreeMap::new(),
                    datasets: BTreeMap::new(),
                    gathers: BTreeMap::new(),
                    pinned_digital: vec![BTreeSet::new(); cfg.shards],
                    pinned_analog: vec![BTreeSet::new(); cfg.shards],
                    next_job: 0,
                    next_batch: 0,
                    next_dataset: 0,
                    telemetry: PoolTelemetry::new(cfg.shards),
                    shut_down: false,
                }),
                cfg,
                to_shards,
                completions: Mutex::new(completions),
                tracer,
            }),
            joins,
        }
    }

    /// Opens a per-tenant session on the pool. Sessions are cheap,
    /// cloneable and usable from any thread.
    pub fn client(&self, tenant: TenantId) -> PoolClient {
        PoolClient::new(Arc::clone(&self.shared), tenant)
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.shared.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shared.cfg.shards
    }

    /// Jobs queued but not yet dispatched.
    pub fn pending_jobs(&self) -> usize {
        lock(&self.shared.state).pending.len()
    }

    /// A snapshot of the telemetry aggregated over everything completed
    /// so far (also drains any completions that already arrived).
    pub fn telemetry(&self) -> PoolTelemetry {
        self.shared.try_pump();
        lock(&self.shared.state).telemetry.clone()
    }

    /// Dispatches every queued job to the shards without waiting for
    /// results.
    pub fn flush(&self) {
        self.shared.flush();
    }

    /// Executes every queued job strictly one at a time, in submission
    /// order, with no coalescing — the reference schedule batching must
    /// reproduce bit-identically. Blocks until every job has completed;
    /// callers take the reports through the jobs' handles.
    pub fn drain_sequential(&mut self) {
        let mut batches = {
            let mut st = lock(&self.shared.state);
            let mut batches = plan(&mut st, &self.shared.cfg, 1, &self.shared.tracer);
            st.telemetry.batches += batches.len() as u64;
            mark_dispatched(&mut st, &self.shared.tracer, &mut batches);
            batches
        };
        // One job per batch: order globally by job id for a strict
        // serial schedule. A cross-shard split job appears as several
        // adjacent batches sharing one job id — all of its sub-batches
        // dispatch before the wait, because its report only assembles
        // once every part completes.
        batches.sort_by_key(|(_, b)| b.jobs[0].compiled.job);
        let mut batches = batches.into_iter().peekable();
        while let Some((shard, batch)) = batches.next() {
            let job = batch.jobs[0].compiled.job;
            self.shared.send(shard, WorkerMsg::Batch(batch));
            while let Some((shard, batch)) =
                batches.next_if(|(_, next)| next.jobs[0].compiled.job == job)
            {
                self.shared.send(shard, WorkerMsg::Batch(batch));
            }
            self.shared.pump_until(|st| job_settled(st, job));
        }
    }
}

impl Drop for RuntimePool {
    fn drop(&mut self) {
        // Sessions may outlive the pool: from here on their submits
        // fail with `CompileError::PoolShutDown`, and jobs still queued
        // complete with `JobError::PoolShutDown` at the next flush.
        lock(&self.shared.state).shut_down = true;
        for tx in &self.shared.to_shards {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for handle in self.joins.drain(..) {
            let _ = handle.join();
        }
    }
}

impl PoolShared {
    /// Compiles and enqueues a workload.
    pub(crate) fn submit_spec(
        &self,
        tenant: TenantId,
        spec: &WorkloadSpec,
    ) -> Result<JobId, CompileError> {
        self.submit_spec_inner(tenant, spec, true)
    }

    /// Test seam: submits with the static verifier bypassed, so the
    /// runtime's last-line containment paths (relocation tile faults,
    /// in-shard panic capture) stay exercisable now that admission
    /// rejects such streams up front.
    #[cfg(test)]
    pub(crate) fn submit_spec_unverified(
        &self,
        tenant: TenantId,
        spec: &WorkloadSpec,
    ) -> Result<JobId, CompileError> {
        self.submit_spec_inner(tenant, spec, false)
    }

    fn submit_spec_inner(
        &self,
        tenant: TenantId,
        spec: &WorkloadSpec,
        verify: bool,
    ) -> Result<JobId, CompileError> {
        // Phase 1 (locked): assign the id and snapshot the queried
        // dataset. Compilation itself (table generation, HDC training)
        // runs unlocked below, so one session's heavy submit cannot
        // stall every other session's submit/poll/telemetry. A failed
        // compile leaves a gap in the id sequence, which is harmless:
        // ids only need to be unique and ordered.
        let (job, seed, resident) = {
            let mut st = lock(&self.state);
            if st.shut_down {
                return Err(CompileError::PoolShutDown);
            }
            let job = JobId(st.next_job);
            st.next_job += 1;
            let seed = mix_seed(self.cfg.seed, 0x0B0B ^ job.0);
            let resident = resolve_dataset(&st, tenant, spec)?;
            (job, seed, resident)
        };
        // The job's root span: every later stage (compile, queue,
        // dispatch, execute, gather, finalize, report) nests under it.
        let root_attrs: [Attr; 4] = [
            ("job", Value::U64(job.0)),
            ("tenant", Value::U64(tenant.0 as u64)),
            ("kind", Value::Str(spec.kind().label())),
            ("dataset", Value::U64(spec.dataset().map_or(0, |id| id.0))),
        ];
        let root_attr_count = 3 + usize::from(spec.dataset().is_some());
        let root = self
            .tracer
            .open("job", SpanId::NONE, &root_attrs[..root_attr_count]);
        // Closes the root span for submissions rejected with a
        // retryable error: no slot exists, so no report ever will.
        let reject = |err: CompileError| -> CompileError {
            self.tracer
                .close(root, 0.0, &[("outcome", Value::Str("rejected"))]);
            err
        };
        let compile_span = self.tracer.open("compile", root, &[]);
        let compile_result = compile(
            spec,
            job,
            tenant,
            &self.cfg,
            seed,
            self.cfg.window_base(job.0),
            resident.as_ref(),
        );
        self.tracer.close(
            compile_span,
            0.0,
            &[(
                "outcome",
                Value::Str(if compile_result.is_ok() { "ok" } else { "err" }),
            )],
        );
        let compiled = match compile_result {
            Ok(compiled) => compiled,
            // Compile-time tile caps compare against hardware capacity
            // (the whole pool for tile-parallel workloads, one shard
            // otherwise), never against transient pins: such a
            // workload can *never* fit, so classify it terminally —
            // a synthesized failure report — instead of echoing a
            // retryable-looking error.
            Err(CompileError::NeedsMoreDigitalTiles {
                required,
                available,
            }) => {
                return self.fail_terminal(
                    job,
                    tenant,
                    spec,
                    root,
                    JobError::WorkloadTooLarge {
                        digital_required: required,
                        analog_required: 0,
                        digital_capacity: available,
                        analog_capacity: self.cfg.analog_tiles,
                    },
                );
            }
            Err(CompileError::NeedsMoreAnalogTiles {
                required,
                available,
            }) => {
                return self.fail_terminal(
                    job,
                    tenant,
                    spec,
                    root,
                    JobError::WorkloadTooLarge {
                        digital_required: 0,
                        analog_required: required,
                        digital_capacity: self.cfg.digital_tiles,
                        analog_capacity: available,
                    },
                );
            }
            Err(other) => return Err(reject(other)),
        };

        // Static verification: raw streams are tenant input and always
        // checked; the verify-all serving mode extends the check to
        // compiled programs. Error-severity findings are terminal — the
        // program can never execute correctly, so a synthesized failure
        // report is completed immediately and no device state is ever
        // touched. The pool stays fully serviceable.
        if verify && (compiled.kind == JobKind::Raw || self.cfg.verify_all_programs) {
            let instructions = compiled.instructions.len() as u64;
            let span = self.tracer.open(
                "verify",
                root,
                &[("instructions", Value::U64(instructions))],
            );
            let report = crate::verify::verify_compiled(&compiled, &self.cfg, resident.as_ref());
            let outcome = if report.has_errors() {
                "rejected"
            } else {
                "clean"
            };
            self.tracer
                .close(span, 0.0, &[("outcome", Value::Str(outcome))]);
            if report.has_errors() {
                let error = JobError::RejectedByVerifier {
                    diagnostics: report.errors(),
                };
                return Ok(self.complete_at_submit(
                    root,
                    failure_report(&compiled, 0, error),
                    true,
                ));
            }
        }

        // Admission planning (TDO-CIM §offload decision): a job with a
        // certified bit-identical host reference may be served from the
        // host-executor lane instead of the pool. `AlwaysHost` picks
        // that lane for every job; `CostDriven` only when the analytical
        // host delay beats the envelope's CIM latency bound by the
        // configured margin. The host reference is computed only once
        // the lane is picked; ineligible jobs (raw streams, analog-score
        // HDC) have none and run on the pool.
        let host_lane = match self.cfg.offload_policy {
            OffloadPolicy::AlwaysCim => false,
            OffloadPolicy::AlwaysHost => true,
            OffloadPolicy::CostDriven { threshold } => {
                offload_estimate(&compiled).conventional_delay.0
                    <= threshold * compiled.envelope.latency_bound.0
            }
        };
        if host_lane {
            if let Some(output) = host_reference(spec, &compiled, &self.cfg, resident.as_ref()) {
                return self.execute_host(compiled, output, root);
            }
        }

        // Submit-side backpressure: block (flushing and pumping
        // completions) while the summed in-flight envelope would
        // overrun the budget. An empty in-flight set always admits, so
        // one oversized job still runs.
        if self.cfg.max_inflight_cost != u64::MAX {
            let cost = compiled.envelope.cost_units;
            self.await_inflight_budget(cost);
        }

        // A fresh job that can never fit, not even on an idle pool
        // (split across every shard if it is tile-parallel, on one whole
        // shard otherwise), fails terminally: a synthesized report lets
        // the caller tell it apart from retryable admission pressure.
        let demand = compiled.demand;
        let split = compiled.splittable && demand.analog == 0;
        let digital_capacity = self.cfg.digital_tiles * if split { self.cfg.shards } else { 1 };
        if compiled.dataset.is_none()
            && (demand.digital > digital_capacity || demand.analog > self.cfg.analog_tiles)
        {
            let error = JobError::WorkloadTooLarge {
                digital_required: demand.digital,
                analog_required: demand.analog,
                digital_capacity,
                analog_capacity: self.cfg.analog_tiles,
            };
            return Ok(self.complete_at_submit(root, failure_report(&compiled, 0, error), true));
        }

        // Phase 2 (locked): validate capacity against the pins as they
        // are now, and enqueue. Fresh leases are carved from un-pinned
        // tiles: the job must fit the free budget of one shard — or,
        // for a tile-parallel job, the pool's *aggregate* free budget,
        // in which case the planner scatters it across shards and
        // gathers the chunk results host-side. Anything else would fit
        // once pinned datasets release their tiles: transient,
        // retryable.
        let mut st = lock(&self.state);
        let st = &mut *st;
        if compiled.dataset.is_none()
            && !(0..self.cfg.shards).any(|s| fits(demand, free_tiles(st, &self.cfg, s)))
        {
            if !split {
                return Err(reject(shortfall(st, &self.cfg, demand)));
            }
            let pool_free: usize = (0..self.cfg.shards)
                .map(|s| free_tiles(st, &self.cfg, s).digital)
                .sum();
            if demand.digital > pool_free {
                return Err(reject(CompileError::NeedsMoreDigitalTiles {
                    required: demand.digital,
                    available: pool_free,
                }));
            }
        }
        open_slot(st, &self.tracer, identity(&compiled), root, true);
        st.inflight.insert(job.0, compiled.envelope.cost_units);
        st.inflight_total = st
            .inflight_total
            .saturating_add(compiled.envelope.cost_units);
        st.pending.push(compiled);
        Ok(job)
    }

    /// Blocks until `cost` more envelope units fit under
    /// [`PoolConfig::max_inflight_cost`] (or nothing is in flight).
    /// Each wait iteration flushes the pending queue so in-flight work
    /// actually drains, then folds in one completion.
    fn await_inflight_budget(&self, cost: u64) {
        let has_room = |st: &PoolState| {
            st.inflight.is_empty()
                || st.inflight_total.saturating_add(cost) <= self.cfg.max_inflight_cost
        };
        while !has_room(&lock(&self.state)) {
            self.flush();
            self.pump_once(&has_room);
        }
    }

    /// Serves a host-routed job on the planner's host-executor lane:
    /// its bit-identical host result `output` completes the job
    /// immediately — empty `shards`, no batch id consumed, no device
    /// state touched — under a `host_execute` span, and telemetry books
    /// it in the host-routed ledger instead of the speedup mean.
    fn execute_host(
        &self,
        compiled: CompiledJob,
        output: JobOutput,
        root: SpanId,
    ) -> Result<JobId, CompileError> {
        let span = self.tracer.open(
            "host_execute",
            root,
            &[("cost_units", Value::U64(compiled.envelope.cost_units))],
        );
        self.tracer
            .close(span, 0.0, &[("outcome", Value::Str("ok"))]);
        let offload = offload_estimate(&compiled);
        let report = job_report(
            identity(&compiled),
            JobRoute::Host,
            0,
            Ok(output),
            offload,
            None,
        );
        Ok(self.complete_at_submit(root, report, true))
    }

    /// Completes a submission with a terminal synthesized failure
    /// report before it was ever compiled into a stream: the slot is
    /// created and immediately finished, so `wait` returns the report
    /// without blocking and the caller can tell the permanent failure
    /// apart from retryable admission errors.
    fn fail_terminal(
        &self,
        job: JobId,
        tenant: TenantId,
        spec: &WorkloadSpec,
        root: SpanId,
        error: JobError,
    ) -> Result<JobId, CompileError> {
        let identity = (job, tenant, spec.kind(), spec.dataset());
        let report = job_report(
            identity,
            JobRoute::Cim,
            0,
            Err(error),
            unknown_offload(),
            None,
        );
        // The job never queues (it failed before compiling into a
        // stream), so its lifecycle has no queue span: the traced route
        // is job → compile → report.
        Ok(self.complete_at_submit(root, report, false))
    }

    /// Completes a submission at once with a synthesized `report` (the
    /// host lane, or a terminal failure): its slot opens and finishes
    /// together, so `wait` returns the report without blocking.
    fn complete_at_submit(&self, root: SpanId, report: JobReport, queue: bool) -> JobId {
        let job = report.job;
        let mut st = lock(&self.state);
        let identity = (job, report.tenant, report.kind, report.dataset);
        open_slot(&mut st, &self.tracer, identity, root, queue);
        st.telemetry.record(&report);
        complete_job_slot(&mut st, &self.tracer, Box::new(report));
        job
    }

    /// Compiles `spec` exactly as a submission would and runs both
    /// static passes on the result — the safety verifier and the cost
    /// analyzer — without enqueuing anything: no job id is consumed, no
    /// slot or report is created, and no shard is touched. Dataset
    /// resolution and access checks match submission, so a clean
    /// verdict here means the same spec would pass the admission
    /// verifier, and the returned envelope is exactly what the offload
    /// planner would compare against the host fallback.
    pub(crate) fn verify_spec(
        &self,
        tenant: TenantId,
        spec: &WorkloadSpec,
    ) -> Result<(cim_lint::LintReport, cim_lint::CostEnvelope), CompileError> {
        let (probe, seed, resident) = {
            let st = lock(&self.state);
            let probe = JobId(st.next_job);
            let seed = mix_seed(self.cfg.seed, 0x0B0B ^ probe.0);
            let resident = resolve_dataset(&st, tenant, spec)?;
            (probe, seed, resident)
        };
        let compiled = compile(
            spec,
            probe,
            tenant,
            &self.cfg,
            seed,
            self.cfg.window_base(probe.0),
            resident.as_ref(),
        )?;
        let report = crate::verify::verify_compiled(&compiled, &self.cfg, resident.as_ref());
        Ok((report, compiled.envelope))
    }

    /// Plans the pending queue and dispatches it to the shard workers.
    /// Non-blocking: reports arrive through the completion channel.
    pub(crate) fn flush(&self) {
        let mut st = lock(&self.state);
        if st.shut_down {
            // The workers are gone: what is still queued never runs.
            let queued: Vec<u64> = st.pending.drain(..).map(|c| c.job.0).collect();
            fail_shut_down(&mut st, &self.tracer, queued);
            return;
        }
        if st.pending.is_empty() {
            // Nothing to plan: planning an empty queue is a no-op, so
            // skip the plan span and gauges (waits flush eagerly, and
            // an empty flush says nothing about queue pressure).
            return;
        }
        self.tracer.gauge("queue_depth", st.pending.len() as f64);
        let plan_span = self.tracer.open(
            "plan",
            SpanId::NONE,
            &[("pending", Value::U64(st.pending.len() as u64))],
        );
        let mut batches = plan(&mut st, &self.cfg, self.cfg.max_batch_jobs, &self.tracer);
        st.telemetry.batches += batches.len() as u64;
        let jobs_placed: usize = batches.iter().map(|(_, b)| b.jobs.len()).sum();
        if !batches.is_empty() {
            self.tracer
                .gauge("batch_occupancy", jobs_placed as f64 / batches.len() as f64);
        }
        self.tracer.close(
            plan_span,
            0.0,
            &[
                ("batches", Value::U64(batches.len() as u64)),
                ("jobs", Value::U64(jobs_placed as u64)),
            ],
        );
        mark_dispatched(&mut st, &self.tracer, &mut batches);
        for (shard, batch) in batches {
            self.send(shard, WorkerMsg::Batch(batch));
        }
    }

    /// Hands `message` to a shard's worker. Callers hold the state lock
    /// and checked [`PoolState::shut_down`] under it.
    ///
    /// # Panics
    ///
    /// Panics if the worker is gone: workers only exit after the pool
    /// marks itself shut down, so this is a scheduler bug.
    fn send(&self, shard: usize, message: WorkerMsg) {
        self.to_shards[shard]
            .send(message)
            .unwrap_or_else(|_| panic!("shard worker disconnected before the pool shut down"));
    }

    /// Registers a dataset: compiles its load program, pins tiles on
    /// one shard — or, when no single shard can hold the pin, scatters
    /// contiguous chunks of its digital tiles across several shards —
    /// executes every chunk's load and blocks until all are resident.
    pub(crate) fn register_dataset(
        &self,
        tenant: TenantId,
        spec: &DatasetSpec,
    ) -> Result<(DatasetId, Vec<usize>), CompileError> {
        // Reserve the id (its seed derives from it), then compile the
        // load program — table generation and HDC training — without
        // holding the pool lock.
        let (id, seed) = {
            let mut st = lock(&self.state);
            let id = DatasetId(st.next_dataset);
            st.next_dataset += 1;
            (id, mix_seed(self.cfg.seed, 0xDA7A ^ id.0))
        };
        let DatasetProgram {
            instructions,
            demand,
            payload,
            resident_bytes,
        } = compile_dataset_load(spec, &self.cfg, seed)?;

        let shards: Vec<usize> = {
            let mut st = lock(&self.state);
            let st = &mut *st;
            if st.shut_down {
                return Err(CompileError::PoolShutDown);
            }

            // Most-free shard that fits the whole pin, ties to the
            // lowest index: datasets spread out, leaving fresh-lease
            // headroom.
            let single = (0..self.cfg.shards)
                .filter(|&s| fits(demand, free_tiles(st, &self.cfg, s)))
                .max_by_key(|&s| {
                    let free = free_tiles(st, &self.cfg, s);
                    (free.digital + free.analog, std::cmp::Reverse(s))
                });

            // `(shard, digital tiles)` chunks in virtual tile order.
            let assignment: Vec<(usize, usize)> = match single {
                Some(shard) => vec![(shard, demand.digital)],
                None if demand.analog == 0 && demand.digital > 0 => {
                    let free_digital = |s| free_tiles(st, &self.cfg, s).digital;
                    scatter_assignment(self.cfg.shards, free_digital, demand.digital).ok_or_else(
                        // Transient: the pool-wide *capacity* was
                        // already validated at compile time
                        // (`DatasetTooLarge` otherwise); only current
                        // pins stand in the way.
                        || CompileError::NeedsMoreDigitalTiles {
                            required: demand.digital,
                            available: (0..self.cfg.shards).map(free_digital).sum(),
                        },
                    )?
                }
                None => return Err(shortfall(st, &self.cfg, demand)),
            };

            // Split the load program into per-shard chunks, pin and
            // relocate each onto its shard's free tiles.
            let chunk_programs = if assignment.len() == 1 {
                vec![instructions]
            } else {
                let sizes: Vec<usize> = assignment.iter().map(|&(_, n)| n).collect();
                split_stream(&instructions, &[], &sizes)
                    .into_iter()
                    .map(|(chunk, _)| chunk)
                    .collect()
            };
            let mut placements = Vec::with_capacity(assignment.len());
            let mut sends = Vec::with_capacity(assignment.len());
            for ((shard, digital_chunk), chunk_instructions) in
                assignment.iter().copied().zip(chunk_programs)
            {
                let digital_tiles: Vec<usize> =
                    unpinned(&st.pinned_digital[shard], self.cfg.digital_tiles)
                        .take(digital_chunk)
                        .collect();
                let analog_tiles: Vec<usize> =
                    unpinned(&st.pinned_analog[shard], self.cfg.analog_tiles)
                        .take(demand.analog)
                        .collect();
                st.pinned_digital[shard].extend(digital_tiles.iter().copied());
                st.pinned_analog[shard].extend(analog_tiles.iter().copied());

                let relocated = match relocate(chunk_instructions, &digital_tiles, &analog_tiles) {
                    Ok(relocated) => relocated,
                    Err(_) => unreachable!("load program stays inside its demand"),
                };
                let scrub_rows = written_rows(&relocated).collect();
                placements.push(ShardPlacement {
                    shard,
                    digital_tiles,
                    analog_tiles,
                    scrub_rows,
                });
                sends.push((shard, relocated));
            }

            let placement = (demand.digital > 0).then(|| {
                AddressMap::new(
                    self.cfg.dataset_window_base(id.0),
                    demand.digital,
                    self.cfg.tile_rows,
                    self.cfg.tile_cols.div_ceil(8),
                )
            });
            let shards: Vec<usize> = placements.iter().map(|p| p.shard).collect();
            // The dataset's load span: one `load_execute` child per
            // shard chunk, closed when the last chunk reports in.
            let span = self.tracer.open(
                "dataset_load",
                SpanId::NONE,
                &[
                    ("dataset", Value::U64(id.0)),
                    ("tenant", Value::U64(tenant.0 as u64)),
                    ("kind", Value::Str(payload.kind_label())),
                    ("shards", Value::U64(sends.len() as u64)),
                ],
            );
            st.datasets.insert(
                id.0,
                DatasetRecord {
                    tenant,
                    placements,
                    resident_rows: crate::verify::resident_row_sets(&payload),
                    payload,
                    resident_bytes,
                    placement,
                    load: LoadProgress {
                        pending: sends.len(),
                        failure: None,
                    },
                    seed,
                    released: false,
                    scrubs_pending: 0,
                    span,
                    load_sim: 0.0,
                },
            );
            for (shard, instructions) in sends {
                let load = WorkerMsg::LoadDataset {
                    id,
                    instructions,
                    seed,
                    span,
                };
                self.send(shard, load);
            }
            shards
        };

        self.pump_until(|st| st.datasets.get(&id.0).is_none_or(|r| r.load.pending == 0));
        let failure = {
            let st = lock(&self.state);
            match st.datasets.get(&id.0) {
                Some(record) => record.load.failure.clone(),
                None => unreachable!("dataset record"),
            }
        };
        match failure {
            None => Ok((id, shards)),
            Some(message) => {
                // Roll back: unpin and scrub whatever the partial load
                // wrote, on every shard that holds a chunk.
                self.release_dataset(id);
                Err(CompileError::DatasetLoadFailed { message })
            }
        }
    }

    /// Releases a dataset's lease: unpins its tiles for future
    /// admission and tells its shard to scrub them. Called by the last
    /// [`crate::DatasetHandle`] drop (and by load-failure rollback);
    /// idempotent.
    pub(crate) fn release_dataset(&self, id: DatasetId) {
        let mut st = lock(&self.state);
        let st = &mut *st;
        let Some(record) = st.datasets.get_mut(&id.0) else {
            return;
        };
        if record.released {
            return;
        }
        record.released = true;
        record.scrubs_pending = record.placements.len();
        for placement in &record.placements {
            for t in &placement.digital_tiles {
                st.pinned_digital[placement.shard].remove(t);
            }
            for t in &placement.analog_tiles {
                st.pinned_analog[placement.shard].remove(t);
            }
            // The scrub is ordered before any batch planned after this
            // point (same FIFO channel), so a fresh lease can never
            // observe the dataset's rows. Ignore send failures: the
            // pool may already be shut down, taking the data with it.
            let _ = self.to_shards[placement.shard].send(WorkerMsg::ReleaseDataset {
                id,
                rows: placement.scrub_rows.clone(),
                analog_tiles: placement.analog_tiles.clone(),
                seed: record.seed,
            });
        }
    }

    /// Folds one completion into the pool state.
    fn process(&self, completion: Completion) {
        let mut st = lock(&self.state);
        let st = &mut *st;
        match completion {
            Completion::Job { report, part: None } => {
                st.telemetry.record(&report);
                complete_job_slot(st, &self.tracer, report);
            }
            Completion::Job {
                report,
                part: Some(part),
            } => {
                // One sub-program of a cross-shard split job: park it in
                // the gather, and assemble the job's single report once
                // every part arrived.
                let job = report.job.0;
                let Some(gather) = st.gathers.get_mut(&job) else {
                    unreachable!("sub-report for a job with no gather state");
                };
                if !gather.span.is_some() && gather.root.is_some() {
                    // The gather opens when the first part lands.
                    gather.span = self.tracer.open(
                        "gather",
                        gather.root,
                        &[("parts", Value::U64(gather.expected as u64))],
                    );
                }
                gather.parts.insert(part, report);
                if gather.parts.len() == gather.expected {
                    let Some(gather) = st.gathers.remove(&job) else {
                        unreachable!("present above");
                    };
                    let (gather_span, root) = (gather.span, gather.root);
                    self.tracer.close(gather_span, 0.0, &[]);
                    let finalize = self.tracer.open("finalize", root, &[]);
                    let (report, shard_stats) = assemble_gathered(gather);
                    self.tracer.close(finalize, 0.0, &[]);
                    st.telemetry.record_gathered(&report, shard_stats);
                    complete_job_slot(st, &self.tracer, Box::new(report));
                }
            }
            Completion::DatasetLoaded { id, result } => {
                if let Some(record) = st.datasets.get_mut(&id.0) {
                    record.load.pending = record.load.pending.saturating_sub(1);
                    match result {
                        Ok((stats, device)) => {
                            record.load_sim += stats.busy_time.0;
                            st.telemetry.record_dataset_load(
                                id,
                                record.tenant,
                                record.payload.kind_label(),
                                record.resident_bytes,
                                &stats,
                                &device,
                            );
                        }
                        Err(message) => {
                            record.load.failure.get_or_insert(message);
                        }
                    }
                    if record.load.pending == 0 {
                        let outcome = if record.load.failure.is_none() {
                            "ok"
                        } else {
                            "err"
                        };
                        self.tracer.close(
                            record.span,
                            record.load_sim,
                            &[("outcome", Value::Str(outcome))],
                        );
                        record.span = SpanId::NONE;
                    }
                }
            }
            Completion::DatasetReleased { id, maintenance } => {
                st.telemetry.maintenance = st.telemetry.maintenance.then(maintenance);
                // A multi-shard dataset scrubs once per placement; drop
                // the record when the last shard reports in.
                let done = st.datasets.get_mut(&id.0).is_none_or(|r| {
                    r.scrubs_pending = r.scrubs_pending.saturating_sub(1);
                    r.scrubs_pending == 0
                });
                if done {
                    st.datasets.remove(&id.0);
                }
            }
        }
    }

    /// Pumps completions until `done(&state)` holds.
    fn pump_until(&self, done: impl Fn(&PoolState) -> bool) {
        while !done(&lock(&self.state)) {
            self.pump_once(&done);
        }
    }

    /// One step of the completion pump, shared by every blocking
    /// waiter: take the receiver, re-check `done` under it, and
    /// otherwise receive one completion and fold it in *before*
    /// releasing the receiver (as [`PoolShared::try_pump`] does; lock
    /// order completions → state).
    ///
    /// The re-check means a completion another thread consumed between
    /// the caller's unlocked check and this `recv` cannot strand the
    /// caller: while it holds the receiver, no other thread consumes
    /// completions. Folding in before releasing means a waiter that
    /// takes the receiver next can never see its job not yet done while
    /// the completion is still in this thread's hands, and block in
    /// `recv` with nothing left in flight.
    ///
    /// Once every worker has exited and its last completion is folded
    /// in, nothing can complete what is still outstanding: every
    /// unsettled job then completes with [`JobError::PoolShutDown`] and
    /// every outstanding dataset load fails, so `done` holds for every
    /// waiter.
    fn pump_once(&self, done: &impl Fn(&PoolState) -> bool) {
        let rx = lock(&self.completions);
        if done(&lock(&self.state)) {
            return;
        }
        match rx.recv() {
            Ok(completion) => self.process(completion),
            Err(_) => fail_unsettled(&mut lock(&self.state), &self.tracer),
        }
    }

    /// Folds in every completion that already arrived, without
    /// blocking. A no-op if another thread is already pumping.
    fn try_pump(&self) {
        let Ok(rx) = self.completions.try_lock() else {
            return;
        };
        while let Ok(completion) = rx.try_recv() {
            self.process(completion);
        }
    }

    /// Removes and returns the job's report if it is ready.
    fn try_take_done(&self, job: JobId) -> Option<JobReport> {
        let mut st = lock(&self.state);
        if matches!(st.slots.get(&job.0), Some(Slot::Done(_))) {
            let Some(Slot::Done(report)) = st.slots.remove(&job.0) else {
                unreachable!("checked above");
            };
            return Some(*report);
        }
        None
    }

    /// Non-blocking status of a job.
    pub(crate) fn poll_job(&self, job: JobId) -> JobStatus {
        self.try_pump();
        let st = lock(&self.state);
        match st.slots.get(&job.0) {
            Some(Slot::Queued) => JobStatus::Queued,
            Some(Slot::Dispatched) => JobStatus::Dispatched,
            // A missing slot means the report was already taken.
            Some(Slot::Done(_)) | Some(Slot::Abandoned) | None => JobStatus::Completed,
        }
    }

    /// Flushes and blocks until the job's report is ready, then returns
    /// it. A job the pool can no longer run (it was dropped first)
    /// reports [`JobError::PoolShutDown`].
    pub(crate) fn wait_job(&self, job: JobId) -> JobReport {
        self.flush();
        self.pump_until(|st| job_settled(st, job));
        self.try_take_done(job).unwrap_or_else(|| {
            panic!("the waited job's slot holds its report (handles are the sole takers)")
        })
    }

    /// Drops a handle's claim: if the report is ready it is discarded,
    /// otherwise it will be discarded (after telemetry) on arrival.
    pub(crate) fn abandon_job(&self, job: JobId) {
        let mut st = lock(&self.state);
        match st.slots.get(&job.0) {
            Some(Slot::Done(_)) => {
                st.slots.remove(&job.0);
            }
            Some(Slot::Queued) | Some(Slot::Dispatched) => {
                st.slots.insert(job.0, Slot::Abandoned);
            }
            Some(Slot::Abandoned) | None => {}
        }
    }
}

/// Snapshots the dataset a query spec runs against, checking that it is
/// still registered and owned by `tenant`; `None` for plain workloads.
fn resolve_dataset(
    st: &PoolState,
    tenant: TenantId,
    spec: &WorkloadSpec,
) -> Result<Option<ResidentView>, CompileError> {
    let Some(id) = spec.dataset() else {
        return Ok(None);
    };
    let record = st
        .datasets
        .get(&id.0)
        .filter(|r| !r.released)
        .ok_or(CompileError::UnknownDataset { dataset: id })?;
    if record.tenant != tenant {
        return Err(CompileError::DatasetAccessDenied {
            dataset: id,
            owner: record.tenant,
        });
    }
    Ok(Some(record.view()))
}

/// Creates a submitted job's slot and its lifecycle entry — the
/// admission step of every submission that returns a handle. `queue`
/// opens the job's queue span; a job that failed before compiling into
/// a stream never queues, so its traced route is job → compile →
/// report.
fn open_slot(
    st: &mut PoolState,
    tracer: &Tracer,
    identity: JobIdentity,
    root: SpanId,
    queue: bool,
) {
    let job = identity.0;
    st.slots.insert(job.0, Slot::Queued);
    let queue = if queue {
        tracer.open("queue", root, &[])
    } else {
        SpanId::NONE
    };
    st.lifecycles.insert(
        job.0,
        JobLifecycle {
            identity,
            root,
            queue,
            submitted: Instant::now(),
            dispatched: None,
        },
    );
}

/// Whether a job has left the queue: its report is ready, taken or
/// discarded.
fn job_settled(st: &PoolState, job: JobId) -> bool {
    !matches!(
        st.slots.get(&job.0),
        Some(Slot::Queued) | Some(Slot::Dispatched)
    )
}

/// Completes `jobs` with terminal [`JobError::PoolShutDown`] reports:
/// the pool was dropped before they could run.
fn fail_shut_down(st: &mut PoolState, tracer: &Tracer, jobs: Vec<u64>) {
    for job in jobs {
        let Some(identity) = st.lifecycles.get(&job).map(|lc| lc.identity) else {
            continue;
        };
        let error = Err(JobError::PoolShutDown);
        let report = job_report(identity, JobRoute::Cim, 0, error, unknown_offload(), None);
        st.telemetry.record(&report);
        complete_job_slot(st, tracer, Box::new(report));
    }
}

/// Settles everything still outstanding once no worker is left to
/// report: every unsettled job fails with [`JobError::PoolShutDown`]
/// and every dataset load still pending fails.
fn fail_unsettled(st: &mut PoolState, tracer: &Tracer) {
    st.pending.clear();
    for gather in std::mem::take(&mut st.gathers).into_values() {
        tracer.close(gather.span, 0.0, &[]);
    }
    let jobs: Vec<u64> = st.lifecycles.keys().copied().collect();
    fail_shut_down(st, tracer, jobs);
    for record in st.datasets.values_mut().filter(|r| r.load.pending > 0) {
        record.load.pending = 0;
        record
            .load
            .failure
            .get_or_insert_with(|| "the pool shut down during the load".to_string());
        tracer.close(
            record.span,
            record.load_sim,
            &[("outcome", Value::Str("err"))],
        );
        record.span = SpanId::NONE;
    }
}

/// Marks every planned job as dispatched; stamps
/// the dispatch wall-clock, closes the queue span and opens one
/// `dispatch` span per placed part (a split job dispatches several).
fn mark_dispatched(st: &mut PoolState, tracer: &Tracer, batches: &mut [(usize, Batch)]) {
    let now = Instant::now();
    for (shard, batch) in batches.iter_mut() {
        let batch_id = batch.id;
        for placed in batch.jobs.iter_mut() {
            let id = placed.compiled.job.0;
            if let Some(Slot::Queued) = st.slots.get(&id) {
                st.slots.insert(id, Slot::Dispatched);
            }
            if let Some(lc) = st.lifecycles.get_mut(&id) {
                if lc.dispatched.is_none() {
                    lc.dispatched = Some(now);
                    tracer.close(lc.queue, 0.0, &[]);
                    lc.queue = SpanId::NONE;
                }
                placed.root = lc.root;
                let attrs: [Attr; 3] = [
                    ("shard", Value::U64(*shard as u64)),
                    ("batch", Value::U64(batch_id)),
                    ("part", Value::U64(placed.part.map_or(0, u64::from))),
                ];
                let count = 2 + usize::from(placed.part.is_some());
                placed.dispatch = tracer.open("dispatch", lc.root, &attrs[..count]);
            }
        }
    }
}

/// The analytical host-vs-CIM estimate of a program: the paper's Xeon
/// host against its CIM system (the `cim-arch` §II-C models).
fn estimate(program: Program) -> OffloadEstimate {
    program.estimate(
        &ConventionalMachine::xeon_e5_2680(),
        &CimSystem::paper_default(),
    )
}

/// The estimate of a job the pool knows only by identity (it failed
/// before compiling, or its program is gone): no footprint or kind
/// profile to estimate from, so a fixed 64-byte, even-odds estimate.
fn unknown_offload() -> OffloadEstimate {
    estimate(Program::streaming(ByteSize(64), 0.5, 0.5, 0.5))
}

/// The analytical host-vs-CIM estimate of a compiled job.
fn offload_estimate(compiled: &CompiledJob) -> OffloadEstimate {
    let profile = compiled.kind.host_profile();
    estimate(Program::streaming(
        ByteSize(compiled.resident_bytes.max(64)),
        profile.accel_fraction,
        profile.l1_miss,
        profile.l2_miss,
    ))
}

/// Who a report is about: the job, its tenant, its workload kind and
/// the dataset it queried.
type JobIdentity = (JobId, TenantId, JobKind, Option<DatasetId>);

fn identity(compiled: &CompiledJob) -> JobIdentity {
    (
        compiled.job,
        compiled.tenant,
        compiled.kind,
        compiled.dataset,
    )
}

/// What the shards measured for a job: where it ran and what it cost.
struct Measured {
    shards: Vec<usize>,
    batch: u64,
    stats: ExecutionStats,
    maintenance: OperationCost,
    device: DeviceCounters,
}

/// Builds a [`JobReport`]; every report the pool produces comes from
/// here. A job no device ran (`measured` is `None`: host-routed, or
/// failed before reaching a shard) reports no shards, no batch
/// (`u64::MAX`) and zero stats, device counters and maintenance.
fn job_report(
    (job, tenant, kind, dataset): JobIdentity,
    route: JobRoute,
    shard: usize,
    output: Result<JobOutput, JobError>,
    offload: OffloadEstimate,
    measured: Option<Measured>,
) -> JobReport {
    let Measured {
        shards,
        batch,
        stats,
        maintenance,
        device,
    } = measured.unwrap_or_else(|| Measured {
        shards: Vec::new(),
        batch: u64::MAX,
        stats: ExecutionStats::default(),
        maintenance: OperationCost::default(),
        device: DeviceCounters::default(),
    });
    JobReport {
        job,
        tenant,
        kind,
        dataset,
        shard,
        shards,
        batch,
        route,
        output,
        stats,
        maintenance,
        offload,
        device,
        timing: JobTiming::default(),
    }
}

/// The report of a compiled job that failed before reaching a shard.
fn failure_report(compiled: &CompiledJob, shard: usize, error: JobError) -> JobReport {
    let offload = offload_estimate(compiled);
    job_report(
        identity(compiled),
        JobRoute::Cim,
        shard,
        Err(error),
        offload,
        None,
    )
}

/// Moves a finished report into its slot (or discards it if the handle
/// was dropped) — the common tail of direct, gathered and synthesized
/// completions. Stamps the report's wall-clock [`JobTiming`] from the
/// job's lifecycle, then closes the lifecycle's spans: the queue span
/// if still open (the job never dispatched), a `report` child marking
/// completion, and finally the root span carrying the job's simulated
/// busy time.
fn complete_job_slot(st: &mut PoolState, tracer: &Tracer, mut report: Box<JobReport>) {
    // The job's envelope leaves the in-flight ledger (no-op for jobs
    // that never enqueued: host-routed, failed-terminal), releasing
    // submit-side backpressure.
    if let Some(cost) = st.inflight.remove(&report.job.0) {
        st.inflight_total = st.inflight_total.saturating_sub(cost);
    }
    let now = Instant::now();
    if let Some(lc) = st.lifecycles.remove(&report.job.0) {
        // `Instant::duration_since` saturates to zero, so a dispatch
        // stamped after `now` (racing flusher) cannot panic here.
        let dispatched = lc.dispatched.unwrap_or(now);
        report.timing = JobTiming {
            queued: dispatched.duration_since(lc.submitted),
            service: now.duration_since(dispatched),
            total: now.duration_since(lc.submitted),
        };
        tracer.close(lc.queue, 0.0, &[]);
        let outcome = Value::Str(if report.output.is_ok() { "ok" } else { "err" });
        let report_span = tracer.open("report", lc.root, &[]);
        tracer.close(report_span, 0.0, &[("outcome", outcome)]);
        tracer.close(lc.root, report.stats.busy_time.0, &[("outcome", outcome)]);
    }
    match st.slots.get(&report.job.0) {
        Some(Slot::Abandoned) => {
            st.slots.remove(&report.job.0);
        }
        Some(Slot::Queued) | Some(Slot::Dispatched) => {
            st.slots.insert(report.job.0, Slot::Done(report));
        }
        Some(Slot::Done(_)) | None => {}
    }
}

/// Assembles the single [`JobReport`] of a completed cross-shard split
/// job: chunk responses concatenate in part order and the parent's
/// finalizer decodes them exactly as an unsplit run would; stats sum
/// (`ExecutionStats` is additive), maintenance folds, and the per-part
/// `(shard, stats)` pairs feed the per-shard telemetry ledgers.
fn assemble_gathered(gather: GatherState) -> (JobReport, Vec<(usize, ExecutionStats)>) {
    let GatherState {
        parts,
        finalizer,
        offload,
        ..
    } = gather;
    let Some(first) = parts.values().next() else {
        unreachable!("a gather holds at least one part");
    };
    let identity = (first.job, first.tenant, first.kind, first.dataset);
    let mut measured = Measured {
        shards: Vec::with_capacity(parts.len()),
        batch: first.batch,
        stats: ExecutionStats::default(),
        maintenance: OperationCost::default(),
        device: DeviceCounters::default(),
    };
    let mut shard_stats = Vec::with_capacity(parts.len());
    let mut responses = Vec::new();
    let mut error: Option<JobError> = None;
    for part in parts.into_values() {
        stats_accumulate(&mut measured.stats, &part.stats);
        measured.maintenance = measured.maintenance.then(part.maintenance);
        measured.device.accumulate(&part.device);
        measured.shards.push(part.shard);
        shard_stats.push((part.shard, part.stats));
        match part.output {
            Ok(JobOutput::Responses(mut chunk)) => responses.append(&mut chunk),
            Ok(_) => unreachable!("sub-programs decode through Finalizer::Raw"),
            Err(e) => {
                error.get_or_insert(e);
            }
        }
    }
    let output = match error {
        Some(e) => Err(e),
        None => Ok(finalizer.finalize(responses)),
    };
    let shard = measured.shards[0];
    let report = job_report(
        identity,
        JobRoute::Cim,
        shard,
        output,
        offload,
        Some(measured),
    );
    (report, shard_stats)
}

/// Free (un-pinned) tiles of `shard`, per family.
fn free_tiles(st: &PoolState, cfg: &PoolConfig, shard: usize) -> TileDemand {
    TileDemand {
        digital: cfg.digital_tiles - st.pinned_digital[shard].len(),
        analog: cfg.analog_tiles - st.pinned_analog[shard].len(),
    }
}

/// Whether `demand` fits in `free` tiles.
fn fits(demand: TileDemand, free: TileDemand) -> bool {
    demand.digital <= free.digital && demand.analog <= free.analog
}

/// Tile indices below `tiles` that `pinned` does not hold, ascending.
fn unpinned(pinned: &BTreeSet<usize>, tiles: usize) -> impl Iterator<Item = usize> + '_ {
    (0..tiles).filter(move |t| !pinned.contains(t))
}

/// The retryable shortfall of a demand that no single shard's free
/// tiles hold: digital tiles if even the shard with the most free
/// digital tiles lacks them, analog tiles otherwise.
fn shortfall(st: &PoolState, cfg: &PoolConfig, demand: TileDemand) -> CompileError {
    let most_free = |family: fn(TileDemand) -> usize| {
        (0..cfg.shards)
            .map(|s| family(free_tiles(st, cfg, s)))
            .max()
            .unwrap_or(0)
    };
    let best_digital = most_free(|free| free.digital);
    if demand.digital > best_digital {
        return CompileError::NeedsMoreDigitalTiles {
            required: demand.digital,
            available: best_digital,
        };
    }
    CompileError::NeedsMoreAnalogTiles {
        required: demand.analog,
        available: most_free(|free| free.analog),
    }
}

/// Physical digital and analog tiles of each virtual tile.
type TileMaps = (Vec<usize>, Vec<usize>);

/// A pending job routed to its shard, with pinned tile maps resolved
/// for dataset jobs.
struct RoutedJob {
    compiled: CompiledJob,
    /// `Some` for dataset jobs: the dataset's pinned physical tiles.
    pinned: Option<TileMaps>,
    /// `Some(index)` for one sub-program of a cross-shard split job.
    part: Option<u32>,
}

/// Per-shard queues of routed jobs and their estimated loads, built by
/// the routing step of [`plan`].
struct Routing {
    queues: Vec<Vec<RoutedJob>>,
    loads: Vec<u64>,
}

impl Routing {
    /// Queues `job` on `shard`, adding its estimated cost to the
    /// shard's load.
    fn push(&mut self, shard: usize, job: RoutedJob) {
        self.loads[shard] += job.compiled.estimated_cost();
        self.queues[shard].push(job);
    }

    /// The least-loaded of `shards`, ties to the lowest index.
    fn least_loaded(&self, shards: impl Iterator<Item = usize>) -> Option<usize> {
        shards.min_by_key(|&s| (self.loads[s], s))
    }

    /// Scatters a digital-tile-parallel job into one sub-program per
    /// `(shard, tiles, pinned maps)` target, in virtual-tile order, and
    /// registers the gather state that reassembles its single report.
    fn split(
        &mut self,
        st: &mut PoolState,
        cfg: &PoolConfig,
        job: CompiledJob,
        targets: Vec<(usize, usize, Option<TileMaps>)>,
    ) {
        let sizes: Vec<usize> = targets.iter().map(|&(_, tiles, _)| tiles).collect();
        let parts = split_by_digital_tile(&job, &sizes, cfg);
        // The parent's root span: gather/finalize spans open under it
        // once parts arrive.
        let root = st
            .lifecycles
            .get(&job.job.0)
            .map_or(SpanId::NONE, |lc| lc.root);
        st.gathers.insert(
            job.job.0,
            GatherState {
                expected: parts.len(),
                parts: BTreeMap::new(),
                finalizer: job.finalizer.clone(),
                offload: offload_estimate(&job),
                root,
                span: SpanId::NONE,
            },
        );
        for (index, (part, (shard, _, pinned))) in parts.into_iter().zip(targets).enumerate() {
            let routed = RoutedJob {
                compiled: part,
                pinned,
                part: Some(index as u32),
            };
            self.push(shard, routed);
        }
    }
}

/// Greedy digital-tile scatter used by both dataset pins and fresh-job
/// splits: assigns `demand` tiles across shards as `(shard, tiles)`
/// chunks, most free tiles first (fewest chunks), ties to the lowest
/// index — a pure function of the free counts, so placement stays
/// deterministic and identical for the two callers. Returns `None`
/// when the free tiles cannot cover the demand.
fn scatter_assignment(
    shards: usize,
    free_digital: impl Fn(usize) -> usize,
    demand: usize,
) -> Option<Vec<(usize, usize)>> {
    let mut order: Vec<usize> = (0..shards).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(free_digital(s)), s));
    let mut assignment = Vec::new();
    let mut remaining = demand;
    for s in order {
        if remaining == 0 {
            break;
        }
        let take = free_digital(s).min(remaining);
        if take > 0 {
            assignment.push((s, take));
            remaining -= take;
        }
    }
    (remaining == 0).then_some(assignment)
}

/// Leases a routed job its tiles: a dataset job keeps its pinned maps,
/// a fresh job takes the next free tiles after `used`, advancing it.
fn place(
    routed: RoutedJob,
    free_digital: &[usize],
    free_analog: &[usize],
    used: &mut TileDemand,
) -> PlacedJob {
    let need = routed.compiled.demand;
    let (digital_map, analog_map) = routed.pinned.unwrap_or_else(|| {
        let maps = (
            free_digital[used.digital..used.digital + need.digital].to_vec(),
            free_analog[used.analog..used.analog + need.analog].to_vec(),
        );
        used.digital += need.digital;
        used.analog += need.analog;
        maps
    });
    PlacedJob {
        compiled: routed.compiled,
        digital_map,
        analog_map,
        part: routed.part,
        root: SpanId::NONE,
        dispatch: SpanId::NONE,
    }
}

/// Plans the pending queue: deterministic shard selection, cost-aware
/// batch packing over free (un-pinned) tiles, shortest-job-first
/// ordering — and cross-shard scatter for jobs (or dataset queries)
/// whose tiles span more than one shard. Batches hold at most
/// `max_batch_jobs` jobs; `1` is the no-coalescing schedule. Returns
/// `(shard, batch)` pairs in dispatch order.
fn plan(
    st: &mut PoolState,
    cfg: &PoolConfig,
    max_batch_jobs: usize,
    tracer: &Tracer,
) -> Vec<(usize, Batch)> {
    let max_batch_jobs = max_batch_jobs.max(1);
    let mut routing = Routing {
        queues: (0..cfg.shards).map(|_| Vec::new()).collect(),
        loads: vec![0; cfg.shards],
    };
    let mut failures: Vec<(CompiledJob, usize, JobError)> = Vec::new();

    // 1. Route jobs to shards, in job-id order so the plan is a pure
    // function of submission order even when sessions submitted
    // concurrently.
    let mut pending = std::mem::take(&mut st.pending);
    pending.sort_by_key(|job| job.job);
    for job in pending {
        match job.dataset {
            Some(id) => match st.datasets.get(&id.0).filter(|r| !r.released) {
                Some(record) if record.placements.len() == 1 => {
                    let placement = &record.placements[0];
                    let routed = RoutedJob {
                        pinned: Some((
                            placement.digital_tiles.clone(),
                            placement.analog_tiles.clone(),
                        )),
                        part: None,
                        compiled: job,
                    };
                    routing.push(placement.shard, routed);
                }
                Some(record) if !job.splittable || job.demand.analog != 0 => {
                    // A query that cannot be tile-split against a
                    // dataset that spans shards: no shard can run it
                    // whole. Nothing in the pool compiles to this
                    // combination today (only digital Q6 pins scatter),
                    // but a future multi-shard dataset kind must fail
                    // its queries cleanly here rather than panic the
                    // planner on the split precondition.
                    let required = job.demand;
                    failures.push((
                        job,
                        record.primary_shard(),
                        JobError::WorkloadTooLarge {
                            digital_required: required.digital,
                            analog_required: required.analog,
                            digital_capacity: cfg.digital_tiles,
                            analog_capacity: cfg.analog_tiles,
                        },
                    ));
                }
                Some(record) => {
                    // The dataset spans shards: scatter the query so
                    // each chunk of reductions runs on the shard
                    // pinning its tiles, gathered host-side.
                    let targets = record
                        .placements
                        .iter()
                        .map(|p| {
                            let maps = (p.digital_tiles.clone(), p.analog_tiles.clone());
                            (p.shard, p.digital_tiles.len(), Some(maps))
                        })
                        .collect();
                    routing.split(st, cfg, job, targets);
                }
                None => {
                    let shard = st.datasets.get(&id.0).map_or(0, |r| r.primary_shard());
                    failures.push((job, shard, JobError::DatasetReleased { dataset: id }));
                }
            },
            None => {
                // Least-loaded shard whose free (un-pinned) tiles fit
                // the lease. A splittable job no single shard can hold
                // scatters across shards by free capacity instead. If
                // neither works (datasets pinned tiles after
                // submit-time validation), fall back to the
                // least-loaded shard and let packing fail the job
                // cleanly with `AdmissionFailed`.
                let fitting = (0..cfg.shards).filter(|&s| fits(job.demand, free_tiles(st, cfg, s)));
                let shard = match routing.least_loaded(fitting) {
                    Some(shard) => shard,
                    None if job.splittable && job.demand.analog == 0 => {
                        let free_digital = |s| free_tiles(st, cfg, s).digital;
                        match scatter_assignment(cfg.shards, free_digital, job.demand.digital) {
                            Some(assignment) => {
                                let targets = assignment
                                    .into_iter()
                                    .map(|(shard, tiles)| (shard, tiles, None))
                                    .collect();
                                routing.split(st, cfg, job, targets);
                            }
                            None => {
                                // Pool-wide free shrank since submit
                                // validation: fail cleanly, like the
                                // single-shard path below.
                                let error = JobError::AdmissionFailed {
                                    digital_required: job.demand.digital,
                                    digital_free: (0..cfg.shards).map(free_digital).sum(),
                                    analog_required: 0,
                                    analog_free: 0,
                                };
                                failures.push((job, 0, error));
                            }
                        }
                        continue;
                    }
                    None => routing
                        .least_loaded(0..cfg.shards)
                        .unwrap_or_else(|| unreachable!("at least one shard")),
                };
                let routed = RoutedJob {
                    compiled: job,
                    pinned: None,
                    part: None,
                };
                routing.push(shard, routed);
            }
        }
    }

    // 2. Pack per-shard batches.
    let mut out = Vec::new();
    for (shard, mut queue) in routing.queues.into_iter().enumerate() {
        let free_digital: Vec<usize> =
            unpinned(&st.pinned_digital[shard], cfg.digital_tiles).collect();
        let free_analog: Vec<usize> =
            unpinned(&st.pinned_analog[shard], cfg.analog_tiles).collect();
        let free = TileDemand {
            digital: free_digital.len(),
            analog: free_analog.len(),
        };
        let mut shard_batches: Vec<(u64, Vec<PlacedJob>)> = Vec::new();
        while !queue.is_empty() {
            let first = queue.remove(0);
            let (kind, dataset) = (first.compiled.kind, first.compiled.dataset);
            let need = first.compiled.demand;
            // Dataset jobs share the pinned tiles; fresh jobs consume
            // the free-tile budget.
            if first.pinned.is_none() && !fits(need, free) {
                failures.push((
                    first.compiled,
                    shard,
                    JobError::AdmissionFailed {
                        digital_required: need.digital,
                        digital_free: free.digital,
                        analog_required: need.analog,
                        analog_free: free.analog,
                    },
                ));
                continue;
            }
            let mut batch_cost = first.compiled.estimated_cost();
            let mut used = TileDemand::default();
            let mut jobs = vec![place(first, &free_digital, &free_analog, &mut used)];

            // Coalesce compatible jobs from anywhere in the shard
            // queue, preserving their relative order. Jobs are
            // order-independent by construction (private noise
            // streams, exclusive or serially-shared leases), so
            // pulling a same-kind job forward cannot change any
            // result.
            let mut i = 0;
            while jobs.len() < max_batch_jobs && i < queue.len() {
                let candidate = &queue[i].compiled;
                let with_candidate = TileDemand {
                    digital: used.digital + candidate.demand.digital,
                    analog: used.analog + candidate.demand.analog,
                };
                let joins = candidate.kind == kind
                    && candidate.dataset == dataset
                    && batch_cost + candidate.estimated_cost() <= cfg.max_batch_cost
                    && (dataset.is_some() || fits(with_candidate, free));
                if joins {
                    let routed = queue.remove(i);
                    batch_cost += routed.compiled.estimated_cost();
                    jobs.push(place(routed, &free_digital, &free_analog, &mut used));
                } else {
                    i += 1;
                }
            }

            // Shortest job first inside the batch: a cheap co-batched
            // job reports before an expensive one.
            jobs.sort_by_key(|p| (p.compiled.estimated_cost(), p.compiled.job));
            shard_batches.push((batch_cost, jobs));
        }
        // Cheapest batch first on the shard, for the same reason.
        shard_batches.sort_by_key(|(cost, jobs)| {
            (
                *cost,
                jobs.iter()
                    .map(|p| p.compiled.job)
                    .min()
                    .unwrap_or_else(|| unreachable!("nonempty")),
            )
        });
        for (_, jobs) in shard_batches {
            out.push((
                shard,
                Batch {
                    id: st.next_batch,
                    jobs,
                },
            ));
            st.next_batch += 1;
        }
    }

    for (compiled, shard, error) in failures {
        let report = failure_report(&compiled, shard, error);
        st.telemetry.record(&report);
        complete_job_slot(st, tracer, Box::new(report));
    }
    out
}

/// Relocates a compiled stream onto physical tiles via per-class maps
/// (virtual index → physical tile), rejecting any instruction that
/// escapes the lease. Tile indices are patched in place — the stream is
/// owned by the batch and executed exactly once, so no payload (bin
/// rows, weight matrices, query vectors) is copied on the worker hot
/// path.
fn relocate(
    mut instructions: Vec<CimInstruction>,
    digital_map: &[usize],
    analog_map: &[usize],
) -> Result<Vec<CimInstruction>, JobError> {
    let mut have_bits = false;
    for (index, instr) in instructions.iter_mut().enumerate() {
        match instr {
            // Match sets are entry-indexed, not tile-width: the
            // accelerator never latches them as a `StoreLast` operand.
            CimInstruction::ReadRow { .. } | CimInstruction::Logic { .. } => have_bits = true,
            CimInstruction::StoreLast { .. } if !have_bits => {
                return Err(JobError::StoreWithoutResult { index });
            }
            _ => {}
        }
        let (family, tile) = instr.tile_mut();
        let map = match family {
            TileFamily::Digital => digital_map,
            TileFamily::Analog => analog_map,
        };
        *tile = map.get(*tile).copied().ok_or(JobError::TileFault {
            virtual_tile: *tile,
            granted: map.len(),
            analog: family == TileFamily::Analog,
        })?;
    }
    Ok(instructions)
}

/// The digital rows a stream writes, in stream order: what releasing
/// its lease must scrub. A key write pulses both rows of its entry's
/// row pair.
fn written_rows(instructions: &[CimInstruction]) -> impl Iterator<Item = (usize, usize)> + '_ {
    instructions.iter().flat_map(|instr| {
        let (first, second) = match *instr {
            CimInstruction::WriteRow { tile, row, .. }
            | CimInstruction::StoreLast { tile, row } => (Some((tile, row)), None),
            CimInstruction::WriteKey { tile, slot, .. } => {
                (Some((tile, 2 * slot)), Some((tile, 2 * slot + 1)))
            }
            _ => (None, None),
        };
        first.into_iter().chain(second)
    })
}

/// Renders a contained panic payload.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Runs one seeded stream on a shard's accelerator and returns the
/// responses at the `outputs` indices, with the stats and device
/// counters the stream caused. The pipeline is reset around the stream,
/// and the result latch is tracked only when the stream stores it
/// (streams without `StoreLast` skip the per-instruction operand
/// clone). A malformed stream that slips past validation (e.g. a raw
/// job with a shape mismatch) panics inside the accelerator; the panic
/// is contained so one tenant cannot take the shard down.
fn run_stream(
    accelerator: &mut CimAccelerator,
    instructions: Vec<CimInstruction>,
    seed: u64,
    outputs: &[usize],
) -> (
    std::thread::Result<Vec<CimResponse>>,
    ExecutionStats,
    DeviceCounters,
) {
    let before = *accelerator.stats();
    let device_before = accelerator.device_counters();
    accelerator.reset_pipeline();
    accelerator.set_last_bits_tracking(
        instructions
            .iter()
            .any(|i| matches!(i, CimInstruction::StoreLast { .. })),
    );
    let output_set: BTreeSet<usize> = outputs.iter().copied().collect();
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rng = seeded(seed);
        let mut responses = Vec::with_capacity(output_set.len());
        for (index, instr) in instructions.into_iter().enumerate() {
            let (response, _cost) = accelerator.execute_with_rng(instr, &mut rng);
            if output_set.contains(&index) {
                responses.push(response);
            }
        }
        responses
    }));
    accelerator.reset_pipeline();
    let stats = stats_delta(accelerator.stats(), &before);
    let device = accelerator.device_counters().delta(&device_before);
    (executed, stats, device)
}

/// Scrubs digital rows and analog tiles so no data survives into the
/// next lease, and returns the maintenance cost. Analog scrubs draw
/// from a stream seeded by the shard seed and `salt`.
fn scrub(
    accelerator: &mut CimAccelerator,
    shard_seed: u64,
    salt: u64,
    rows: impl IntoIterator<Item = (usize, usize)>,
    analog_tiles: impl IntoIterator<Item = usize>,
) -> OperationCost {
    let mut maintenance = OperationCost::default();
    let mut scrub_rng = seeded(mix_seed(shard_seed, 0x5C12 ^ salt));
    for (tile, row) in rows {
        maintenance = maintenance.then(accelerator.scrub_digital_row(tile, row));
    }
    for tile in analog_tiles {
        maintenance = maintenance.then(accelerator.scrub_analog_tile(tile, &mut scrub_rng));
    }
    maintenance
}

fn worker_loop(
    shard: usize,
    mut accelerator: CimAccelerator,
    shard_seed: u64,
    messages: Receiver<WorkerMsg>,
    completions: Sender<Completion>,
    tracer: Tracer,
) {
    while let Ok(message) = messages.recv() {
        let completion = match message {
            WorkerMsg::Batch(batch) => {
                for placed in batch.jobs {
                    let part = placed.part;
                    let dispatch = placed.dispatch;
                    let report = run_job(
                        shard,
                        batch.id,
                        &mut accelerator,
                        shard_seed,
                        placed,
                        &tracer,
                    );
                    tracer.close(dispatch, 0.0, &[]);
                    let completion = Completion::Job {
                        report: Box::new(report),
                        part,
                    };
                    if completions.send(completion).is_err() {
                        return; // pool dropped
                    }
                }
                continue;
            }
            WorkerMsg::LoadDataset {
                id,
                instructions,
                seed,
                span,
            } => {
                let exec_span =
                    tracer.open("load_execute", span, &[("shard", Value::U64(shard as u64))]);
                let (executed, stats, device) =
                    run_stream(&mut accelerator, instructions, seed, &[]);
                tracer.close(exec_span, stats.busy_time.0, &[]);
                let result = executed.map(|_| (stats, device)).map_err(panic_message);
                Completion::DatasetLoaded { id, result }
            }
            WorkerMsg::ReleaseDataset {
                id,
                rows,
                analog_tiles,
                seed,
            } => {
                let span = tracer.open(
                    "dataset_scrub",
                    SpanId::NONE,
                    &[
                        ("dataset", Value::U64(id.0)),
                        ("shard", Value::U64(shard as u64)),
                    ],
                );
                let maintenance = scrub(&mut accelerator, shard_seed, seed, rows, analog_tiles);
                tracer.close(span, maintenance.latency.0, &[]);
                Completion::DatasetReleased { id, maintenance }
            }
            WorkerMsg::Shutdown => return,
        };
        if completions.send(completion).is_err() {
            return; // pool dropped
        }
    }
}

fn run_job(
    shard: usize,
    batch: u64,
    accelerator: &mut CimAccelerator,
    shard_seed: u64,
    placed: PlacedJob,
    tracer: &Tracer,
) -> JobReport {
    let PlacedJob {
        compiled,
        digital_map,
        analog_map,
        part,
        root,
        dispatch,
    } = placed;
    let job = compiled.job;
    let (identity, offload) = (identity(&compiled), offload_estimate(&compiled));
    let report = move |output, stats, maintenance, device| {
        let measured = Measured {
            shards: vec![shard],
            batch,
            stats,
            maintenance,
            device,
        };
        job_report(
            identity,
            JobRoute::Cim,
            shard,
            output,
            offload,
            Some(measured),
        )
    };

    let exec_attrs: [Attr; 4] = [
        ("job", Value::U64(job.0)),
        ("shard", Value::U64(shard as u64)),
        ("batch", Value::U64(batch)),
        ("part", Value::U64(part.map_or(0, u64::from))),
    ];
    let exec_attr_count = 3 + usize::from(part.is_some());
    let exec_span = tracer.open("execute", dispatch, &exec_attrs[..exec_attr_count]);

    let instructions = match relocate(compiled.instructions, &digital_map, &analog_map) {
        Ok(instructions) => instructions,
        Err(e) => {
            tracer.close(exec_span, 0.0, &[("outcome", Value::Str("err"))]);
            return report(
                Err(e),
                ExecutionStats::default(),
                OperationCost::default(),
                DeviceCounters::default(),
            );
        }
    };

    // Track what the job touches so it can be scrubbed afterwards.
    // Dataset queries write only scratch rows (their StoreLast
    // write-backs), so the resident rows survive for the next query.
    let written: BTreeSet<(usize, usize)> = written_rows(&instructions).collect();
    let programmed: BTreeSet<usize> = instructions
        .iter()
        .filter_map(|i| match i {
            CimInstruction::ProgramMatrix { tile, .. } => Some(*tile),
            _ => None,
        })
        .collect();

    // The device delta is taken before the scrub so the job's counters
    // reflect only its own work, not lease maintenance.
    let (executed, stats, device) =
        run_stream(accelerator, instructions, compiled.seed, &compiled.outputs);
    tracer.close(
        exec_span,
        stats.busy_time.0,
        &[(
            "outcome",
            Value::Str(if executed.is_ok() { "ok" } else { "err" }),
        )],
    );

    // Scrub the lease before the next tenant takes it.
    let maintenance = scrub(accelerator, shard_seed, job.0, written, programmed);

    let output = match executed {
        Ok(outputs) => {
            // Split parts skip the finalize span: the parent's single
            // finalize runs host-side at gather completion.
            let finalize = if part.is_none() {
                tracer.open("finalize", root, &[])
            } else {
                SpanId::NONE
            };
            let output = Ok(compiled.finalizer.finalize(outputs));
            tracer.close(finalize, 0.0, &[]);
            output
        }
        Err(panic) => Err(JobError::ExecutionPanic {
            message: panic_message(panic),
        }),
    };
    report(output, stats, maintenance, device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::JobHandle;
    use crate::job::{JobKind, JobOutput};
    use cim_bitmap_db::query::q6_scan;
    use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
    use cim_crossbar::cam::{key_bits, MatchKind, RuleSet};
    use cim_crossbar::scouting::ScoutOp;
    use cim_lint::RuleCode;
    use cim_nn::binarized::BinarizedMlp;
    use cim_simkit::bitvec::BitVec;
    use cim_xor_cipher::otp::OneTimePad;

    #[test]
    fn q6_through_pool_matches_scan() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        let handle = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 1800,
                table_seed: 21,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        let report = handle.wait();
        let expected = q6_scan(
            &LineItemTable::generate(1800, 21),
            &Q6Params::tpch_default(),
        );
        match report.output.as_ref().unwrap() {
            JobOutput::Q6(result) => {
                assert_eq!(result.matching_rows, expected.matching_rows);
                assert!((result.revenue - expected.revenue).abs() < 1e-6);
            }
            other => panic!("wrong output {other:?}"),
        }
        assert!(report.stats.logic_ops > 0);
        assert!(report.stats.energy.0 > 0.0);
        assert!(report.offload.speedup() > 1.0);
    }

    #[test]
    fn xor_through_pool_matches_software_pad() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(1));
        let message: Vec<u8> = (0..400u32).map(|i| (i * 7 + 3) as u8).collect();
        let handle = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: message.clone(),
                key_seed: 99,
            })
            .unwrap();
        let report = handle.wait();
        let expected = OneTimePad::generate(message.len(), 99)
            .encrypt(&message)
            .unwrap();
        assert_eq!(
            report.output,
            Ok(JobOutput::Cipher(expected)),
            "CIM ciphertext must match the software pad"
        );
    }

    #[test]
    fn scout_bulk_reduction_is_exact() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(2));
        let rows: Vec<BitVec> = (0..9)
            .map(|i| BitVec::from_fn(100, |j| (j + i) % 4 == 0))
            .collect();
        let mut expected = BitVec::zeros(100);
        for r in &rows {
            expected = expected.or(r);
        }
        let handle = session
            .submit(&WorkloadSpec::ScoutBulk {
                op: ScoutOp::Or,
                rows,
            })
            .unwrap();
        assert_eq!(handle.wait().output, Ok(JobOutput::Bits(expected)));
    }

    #[test]
    fn batching_coalesces_compatible_jobs() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let handles: Vec<JobHandle> = (0..4)
            .map(|i| {
                pool.client(TenantId(i))
                    .submit(&WorkloadSpec::XorEncrypt {
                        message: vec![i as u8 + 1; 64],
                        key_seed: i as u64,
                    })
                    .unwrap()
            })
            .collect();
        let reports = pool.client(TenantId(0)).wait_all(handles);
        assert_eq!(reports.len(), 4);
        // One digital tile each, 4 tiles per shard → one batch.
        assert!(reports.iter().all(|r| r.batch == reports[0].batch));
        assert_eq!(pool.telemetry().batches, 1);
    }

    #[test]
    fn handle_polls_through_the_job_lifecycle() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        let handle = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![7; 32],
                key_seed: 1,
            })
            .unwrap();
        // Not flushed yet: the job sits in the pool queue.
        assert_eq!(handle.poll(), JobStatus::Queued);
        session.flush();
        // Dispatched (or already done, on a fast machine): never Queued.
        assert_ne!(handle.poll(), JobStatus::Queued);
        let report = handle.wait();
        assert!(report.output.is_ok());
    }

    /// Satellite: a never-fits submission (a raw stream demanding more
    /// tiles than the pool owns, with no way to split it) is a
    /// *terminal* synthesized failure report, not a retryable
    /// `NeedsMore…Tiles` error — resubmitting can never succeed.
    #[test]
    fn oversized_raw_demand_fails_terminally_at_submit() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let handle = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 99,
                analog_tiles: 0,
                instructions: vec![],
            })
            .unwrap();
        let report = handle.wait();
        assert_eq!(
            report.output,
            Err(JobError::WorkloadTooLarge {
                digital_required: 99,
                analog_required: 0,
                digital_capacity: 4,
                analog_capacity: 2,
            })
        );
        assert!(report.shards.is_empty(), "never reached a shard");
        assert_eq!(pool.telemetry().failures, 1);
    }

    #[test]
    fn tile_fault_is_contained_to_the_job() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let bad = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::ReadRow { tile: 3, row: 0 }],
            })
            .unwrap();
        let good = pool
            .client(TenantId(1))
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![42; 16],
                key_seed: 5,
            })
            .unwrap();
        let bad_report = bad.wait();
        let good_report = good.wait();
        // The verifier rejects the out-of-bounds tile at admission,
        // before any device state is touched.
        assert!(
            matches!(
                &bad_report.output,
                Err(JobError::RejectedByVerifier { diagnostics })
                    if diagnostics.iter().any(|d| d.rule == RuleCode::TileBounds)
            ),
            "{:?}",
            bad_report.output
        );
        assert_eq!(bad_report.stats.instructions(), 0, "faulted job never ran");
        assert!(good_report.output.is_ok(), "co-tenant unaffected");
        assert_eq!(pool.telemetry().failures, 1);
    }

    /// Dynamic scrub verification: the admission verifier rejects any
    /// tenant program that reads rows it never wrote (L001), so the
    /// physical residue checks run through the unverified seam — the
    /// defense-in-depth layer behind the static guarantee. Covers both
    /// scrub paths: per-job lease release and dataset lease release.
    #[test]
    fn scrubbed_tiles_show_no_residue_to_unverified_probes() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let marker = BitVec::from_fn(1024, |j| j % 2 == 0);

        // Per-job scrub: tenant A fills a row, tenant B probes the
        // recycled physical tile and must see zeros.
        let first = pool
            .client(TenantId(10))
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::WriteRow {
                    tile: 0,
                    row: 5,
                    bits: marker.clone(),
                }],
            })
            .unwrap()
            .wait();
        assert!(first.output.is_ok());
        let probe = pool
            .client(TenantId(11))
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::ReadRow { tile: 0, row: 5 }],
            })
            .unwrap()
            .wait();
        match probe.output.as_ref().unwrap() {
            JobOutput::Responses(responses) => {
                let bits = responses[0].clone().into_bits().unwrap();
                assert_eq!(bits.count_ones(), 0, "tenant B saw tenant A's data");
                assert_ne!(bits, marker);
            }
            other => panic!("unexpected output {other:?}"),
        }

        // Dataset-release scrub: resident Q6 bins vacate their tile
        // only after the last handle drops, leaving zeros behind.
        let table = pool
            .client(TenantId(10))
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 500,
                table_seed: 3,
            })
            .unwrap();
        drop(table);
        let after = pool
            .client(TenantId(11))
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: (0..145)
                    .map(|row| CimInstruction::ReadRow { tile: 0, row })
                    .collect(),
            })
            .unwrap()
            .wait();
        match after.output.as_ref().unwrap() {
            JobOutput::Responses(responses) => {
                assert_eq!(responses.len(), 145);
                for resp in responses {
                    let bits = resp.clone().into_bits().unwrap();
                    assert_eq!(
                        bits.count_ones(),
                        0,
                        "released dataset rows must be scrubbed before reuse"
                    );
                }
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn store_without_result_rejected() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let handle = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::StoreLast { tile: 0, row: 0 }],
            })
            .unwrap();
        let output = handle.wait().output;
        assert!(
            matches!(
                &output,
                Err(JobError::RejectedByVerifier { diagnostics })
                    if diagnostics.iter().any(|d| d.rule == RuleCode::LatchUndef)
            ),
            "{output:?}"
        );
    }

    #[test]
    fn panicking_stream_fails_job_but_not_shard() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        // A width-mismatched write panics inside the tile; the shard
        // must survive and serve the co-tenant normally. The verifier
        // would reject this stream at admission (L008), so it enters
        // through the unverified test seam: containment is the
        // defense-in-depth layer behind the verifier.
        let bad = pool
            .client(TenantId(0))
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::WriteRow {
                    tile: 0,
                    row: 0,
                    bits: BitVec::ones(3),
                }],
            })
            .unwrap();
        let good = pool
            .client(TenantId(1))
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![9; 8],
                key_seed: 2,
            })
            .unwrap();
        assert!(matches!(
            bad.wait().output,
            Err(JobError::ExecutionPanic { .. })
        ));
        assert!(good.wait().output.is_ok());
        assert_eq!(pool.telemetry().failures, 1);
    }

    #[test]
    fn kinds_recorded_in_reports() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let handle = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::ScoutBulk {
                op: ScoutOp::And,
                rows: vec![BitVec::ones(32), BitVec::ones(32)],
            })
            .unwrap();
        let report = handle.wait();
        assert_eq!(report.kind, JobKind::ScoutBulk);
        assert!(report.shard < 2);
    }

    /// Satellite "smarter batching": with cost-aware packing, a cheap
    /// job submitted after an expensive one is no longer head-of-line
    /// blocked — it dispatches first, both across batches and inside a
    /// shared batch.
    #[test]
    fn cheap_jobs_are_not_head_of_line_blocked() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        // ~300 bin writes across two tiles: expensive.
        let expensive = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 2000,
                table_seed: 1,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        // A different-kind cheap job: lands in its own batch.
        let cheap_xor = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![1; 8],
                key_seed: 2,
            })
            .unwrap();
        // A same-kind cheap job: coalesces into the Q6 batch.
        let cheap_q6 = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 400,
                table_seed: 3,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        let batches = {
            let mut st = pool.shared.state.lock().unwrap();
            plan(&mut st, pool.config(), 8, &Tracer::disabled())
        };
        assert_eq!(batches.len(), 2, "XOR and Q6 form separate batches");
        // The cheap XOR batch dispatches before the expensive Q6 batch.
        assert_eq!(batches[0].1.jobs[0].compiled.job, cheap_xor.id());
        // Inside the Q6 batch, the cheap select runs before the
        // expensive one despite being submitted after it.
        let q6_jobs: Vec<JobId> = batches[1].1.jobs.iter().map(|p| p.compiled.job).collect();
        assert_eq!(q6_jobs, vec![cheap_q6.id(), expensive.id()]);
    }

    /// Satellite "smarter batching": the batch cost budget splits a
    /// queue of same-kind jobs that tile count alone would coalesce.
    #[test]
    fn batch_cost_budget_bounds_coalescing() {
        let mut cfg = PoolConfig::with_shards(1);
        // Each 64-byte XOR job costs 5 (two writes + a two-row logic
        // access + 1); cap a batch at two of them.
        cfg.max_batch_cost = 11;
        let pool = RuntimePool::new(cfg);
        let handles: Vec<JobHandle> = (0..4)
            .map(|i| {
                pool.client(TenantId(i))
                    .submit(&WorkloadSpec::XorEncrypt {
                        message: vec![i as u8; 64],
                        key_seed: i as u64,
                    })
                    .unwrap()
            })
            .collect();
        let reports = pool.client(TenantId(0)).wait_all(handles);
        assert_eq!(reports.len(), 4);
        assert_eq!(
            pool.telemetry().batches,
            2,
            "tile count alone would pack one batch; the cost budget packs two"
        );
    }

    /// Once the workers are gone and the completion channel is closed,
    /// a waiter that never flushed is not stranded: the pump settles
    /// every outstanding job with a typed `PoolShutDown` report.
    #[test]
    fn closed_completion_channel_settles_waiters() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let shared = Arc::clone(&pool.shared);
        let handle = pool
            .client(TenantId(2))
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![3; 16],
                key_seed: 4,
            })
            .unwrap();
        let job = handle.id();
        drop(pool);
        // Pump without flushing: the queued job can only settle through
        // the closed-channel path.
        shared.pump_until(|st| job_settled(st, job));
        let report = handle.wait();
        assert_eq!(report.output, Err(JobError::PoolShutDown));
        assert_eq!(report.tenant, TenantId(2));
        assert_eq!(report.kind, JobKind::XorEncrypt);
        let st = shared.state.lock().unwrap();
        assert!(st.pending.is_empty() && st.inflight.is_empty());
    }

    /// Satellite regression: a `JobHandle::wait` issued *after* the
    /// worker already panicked (and after other actors pumped the
    /// completion) must return the failure report, never block and
    /// never lose the report to the pump.
    #[test]
    fn wait_after_worker_panic_returns_failure_report() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        // Width-mismatched write: panics inside the accelerator. The
        // unverified seam lets it past the admission verifier.
        let handle = session
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::WriteRow {
                    tile: 0,
                    row: 0,
                    bits: BitVec::ones(3),
                }],
            })
            .unwrap();
        session.flush();
        // Let the worker hit the panic and emit the completion, then
        // pump it through a foreign actor (telemetry drains the
        // channel) so the report sits in the slot before `wait`.
        while pool.telemetry().jobs == 0 {
            std::thread::yield_now();
        }
        assert_eq!(handle.poll(), JobStatus::Completed);
        let report = handle.wait();
        assert!(
            matches!(report.output, Err(JobError::ExecutionPanic { .. })),
            "{:?}",
            report.output
        );
        // The shard survived: a follow-up job still serves.
        let ok = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![1; 8],
                key_seed: 1,
            })
            .unwrap()
            .wait();
        assert!(ok.output.is_ok());
    }

    /// Satellite: fan-out-weighted costs keep cheapest-first honest —
    /// a wide raw logic job submitted first no longer head-of-line
    /// blocks a narrow one inside the shared batch.
    #[test]
    fn wide_fanout_raw_job_sorts_after_narrow_one() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        let wide = session
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::Logic {
                    tile: 0,
                    op: ScoutOp::Or,
                    rows: (0..100).collect(),
                }],
            })
            .unwrap();
        let narrow = session
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::Logic {
                    tile: 0,
                    op: ScoutOp::Or,
                    rows: vec![0, 1],
                }],
            })
            .unwrap();
        let batches = {
            let mut st = pool.shared.state.lock().unwrap();
            plan(&mut st, pool.config(), 8, &Tracer::disabled())
        };
        assert_eq!(batches.len(), 1, "same-kind raw jobs coalesce");
        let order: Vec<JobId> = batches[0].1.jobs.iter().map(|p| p.compiled.job).collect();
        assert_eq!(order, vec![narrow.id(), wide.id()]);
    }

    /// Satellite: registering a dataset that can never fit the *pool*
    /// fails with the dedicated sizing error; anything smaller splits
    /// across shards or reports retryable pressure.
    #[test]
    fn oversized_dataset_registration_reports_sizing_error() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(1));
        // 9 tiles > 2 shards x 4 tiles: can never fit, terminal.
        let err = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 9 * 1024,
                table_seed: 1,
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::DatasetTooLarge { needed, pool_capacity }
                    if needed.digital == 9 && pool_capacity.digital == 8
            ),
            "{err:?}"
        );
        // Transient pressure still reports the retryable error: a
        // dataset that *would* fit the pool once pins release is not a
        // sizing bug. Pin 3 + 3 tiles, leaving 1 + 1 free…
        let _pin = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 2,
            })
            .unwrap();
        let _pin2 = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 3,
            })
            .unwrap();
        let crowded = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 4,
            })
            .unwrap_err();
        assert!(
            matches!(
                crowded,
                CompileError::NeedsMoreDigitalTiles {
                    required: 3,
                    available: 2,
                }
            ),
            "{crowded:?}"
        );
        // …while a 2-tile dataset still fits — scattered 1 + 1 across
        // the two shards' remaining free tiles.
        let split = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 2 * 1024,
                table_seed: 5,
            })
            .unwrap();
        assert_eq!(split.shards().len(), 2, "pin scattered across shards");
    }

    #[test]
    fn dataset_queries_share_one_load() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(7));
        let table = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 1500,
                table_seed: 11,
            })
            .unwrap();
        let handles: Vec<JobHandle> = (0..3)
            .map(|_| {
                session
                    .submit(&WorkloadSpec::Q6Query {
                        dataset: table.id(),
                        params: Q6Params::tpch_default(),
                    })
                    .unwrap()
            })
            .collect();
        let reports = session.wait_all(handles);
        let expected = q6_scan(
            &LineItemTable::generate(1500, 11),
            &Q6Params::tpch_default(),
        );
        for report in &reports {
            assert_eq!(report.shard, table.shard(), "queries route to the dataset");
            match report.output.as_ref().unwrap() {
                JobOutput::Q6(result) => {
                    assert_eq!(result.matching_rows, expected.matching_rows)
                }
                other => panic!("wrong output {other:?}"),
            }
            assert_eq!(
                report.stats.row_writes, 14,
                "queries pay only scratch write-backs (7 per tile), never bin writes"
            );
        }
        let telemetry = pool.telemetry();
        let usage = &telemetry.datasets[&table.id().0];
        assert_eq!(usage.queries, 3);
        assert_eq!(usage.load_stats.row_writes, 2 * 145, "bins written once");
        assert!(usage.amortized_load_writes_per_query() < usage.load_stats.row_writes as f64);
    }

    /// Tentpole: a resident ternary rule table classifies packets
    /// through the pool bit-identically to the host-side priority scan.
    #[test]
    fn rule_classify_through_pool_matches_host_scan() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(3));
        let table = session
            .register_dataset(&DatasetSpec::CamRules {
                rules: 96,
                width: 32,
                wildcard_density: 0.3,
                seed: 77,
            })
            .unwrap();
        let host = RuleSet::generate(96, 32, 0.3, 77);
        let mut rng = seeded(4242);
        let packets: Vec<u64> = (0..40)
            .map(|_| {
                host.sample_packet(&mut rng)
                    .iter_ones()
                    .fold(0u64, |acc, j| acc | 1 << j)
            })
            .collect();
        let report = session
            .submit(&WorkloadSpec::RuleClassify {
                dataset: table.id(),
                packets: packets.clone(),
            })
            .unwrap()
            .wait();
        let expected: Vec<Option<u32>> = packets
            .iter()
            .map(|&p| host.classify(&key_bits(p, 32)))
            .collect();
        assert!(
            expected.iter().any(|m| m.is_some()),
            "sampled packets hit rules"
        );
        assert_eq!(report.output, Ok(JobOutput::Lookups(expected)));
        assert_eq!(
            report.stats.row_writes, 0,
            "rule writes were paid at registration"
        );
        assert!(report.stats.searches > 0);
        let usage = &pool.telemetry().datasets[&table.id().0];
        assert_eq!(usage.kind, "cam-rules");
        assert!(
            usage.load_stats.key_writes > 0,
            "keys written once, at load"
        );
    }

    /// Tentpole: an exact-match key dictionary resolves probes to their
    /// lowest matching slot — the build side of a dictionary join — and
    /// misses come back as `None`.
    #[test]
    fn key_lookup_resolves_lowest_slot_and_misses() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(4));
        // Slot 1 and slot 3 store the same key: the lower slot must win,
        // mirroring the host-side first-match scan.
        let keys: Vec<u64> = vec![5, 9, 14, 9, 21, 33];
        let dict = session
            .register_dataset(&DatasetSpec::CamKeys {
                keys: keys.clone(),
                width: 16,
            })
            .unwrap();
        let probes: Vec<u64> = vec![9, 33, 7, 5, 1000];
        let report = session
            .submit(&WorkloadSpec::KeyLookup {
                dataset: dict.id(),
                probes: probes.clone(),
            })
            .unwrap()
            .wait();
        let expected: Vec<Option<u32>> = probes
            .iter()
            .map(|p| keys.iter().position(|k| k == p).map(|i| i as u32))
            .collect();
        assert_eq!(expected[0], Some(1), "duplicate key resolves to slot 1");
        assert_eq!(report.output, Ok(JobOutput::Lookups(expected)));
    }

    /// Tentpole: raw ternary match sets served through the pool equal
    /// the host reference rule-by-rule, and in steady state every
    /// search is certified on the word-parallel tier — no match line
    /// ever needs explicit noise sampling.
    #[test]
    fn cam_search_matches_host_sets_on_the_word_tier() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(5));
        // 120 rules span two tiles (80 entry slots each at 160 rows).
        let table = session
            .register_dataset(&DatasetSpec::CamRules {
                rules: 120,
                width: 24,
                wildcard_density: 0.25,
                seed: 13,
            })
            .unwrap();
        let host = RuleSet::generate(120, 24, 0.25, 13);
        let mut rng = seeded(99);
        let packets: Vec<BitVec> = (0..16).map(|_| host.sample_packet(&mut rng)).collect();
        let keys: Vec<BitVec> = packets
            .iter()
            .map(|p| BitVec::from_fn(24, |j| p.get(j)))
            .collect();
        let report = session
            .submit(&WorkloadSpec::CamSearch {
                dataset: table.id(),
                kind: MatchKind::Ternary,
                keys,
            })
            .unwrap()
            .wait();
        let expected: Vec<BitVec> = packets.iter().map(|p| host.matches(p)).collect();
        assert_eq!(report.output, Ok(JobOutput::Matches(expected)));
        assert_eq!(report.stats.searches, 2 * 16, "two tiles x 16 keys");
        assert_eq!(
            report.device.match_pulses,
            120 * 16,
            "every entry fires once per key"
        );
        assert_eq!(
            report.device.sampled_columns, 0,
            "steady state: the word-parallel tier certifies every match line"
        );
    }

    /// Tentpole: a rule table bigger than one shard scatters its CAM
    /// entries across shards, and searches gather bit-identically to
    /// the host reference — the split is invisible to the caller.
    #[test]
    fn split_cam_rules_search_matches_host_across_shards() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(6));
        // 400 rules need 5 tiles; a shard has 4, so the pin must span
        // both shards.
        let table = session
            .register_dataset(&DatasetSpec::CamRules {
                rules: 400,
                width: 48,
                wildcard_density: 0.4,
                seed: 31,
            })
            .unwrap();
        assert_eq!(table.shards().len(), 2, "pin scattered across shards");
        let host = RuleSet::generate(400, 48, 0.4, 31);
        let mut rng = seeded(7);
        let packets: Vec<BitVec> = (0..8).map(|_| host.sample_packet(&mut rng)).collect();
        let report = session
            .submit(&WorkloadSpec::CamSearch {
                dataset: table.id(),
                kind: MatchKind::Ternary,
                keys: packets
                    .iter()
                    .map(|p| BitVec::from_fn(48, |j| p.get(j)))
                    .collect(),
            })
            .unwrap()
            .wait();
        let expected: Vec<BitVec> = packets.iter().map(|p| host.matches(p)).collect();
        assert_eq!(report.output, Ok(JobOutput::Matches(expected)));
        assert_eq!(report.shards.len(), 2, "search scatter-gathered");
        // Priority classification decodes from the same gathered sets.
        let classify = session
            .submit(&WorkloadSpec::RuleClassify {
                dataset: table.id(),
                packets: packets
                    .iter()
                    .map(|p| p.iter_ones().fold(0u64, |acc, j| acc | 1 << j))
                    .collect(),
            })
            .unwrap()
            .wait();
        let expected: Vec<Option<u32>> = packets.iter().map(|p| host.classify(p)).collect();
        assert_eq!(classify.output, Ok(JobOutput::Lookups(expected)));
    }

    /// Satellite: the associative-memory path (`HdcAssoc`, range-match
    /// sweep over CAM prototypes) reproduces the MVM classifier
    /// (`HdcClassify`) bit for bit — same task seed, same queries, same
    /// lowest-index argmax — on noise-free devices where both sides'
    /// decisions are provably exact.
    #[test]
    fn hdc_assoc_matches_hdc_classify_bit_for_bit() {
        let cfg = PoolConfig {
            shards: 1,
            reram_params: ReramParams {
                sigma_d2d: 0.0,
                sigma_c2c: 0.0,
                ..ReramParams::default()
            },
            analog_params: AnalogParams::ideal(),
            ..PoolConfig::default()
        };
        let run = |spec: &WorkloadSpec| {
            // A fresh pool per spec: both jobs get index 0, hence the
            // same derived seed, task, and query stream.
            let pool = RuntimePool::new(cfg);
            let report = pool.client(TenantId(0)).submit(spec).unwrap().wait();
            match report.output.unwrap() {
                JobOutput::Hdc(outcome) => outcome,
                other => panic!("wrong output {other:?}"),
            }
        };
        // d caps at tile_cols: CAM prototypes live in one digital tile.
        let classify = run(&WorkloadSpec::HdcClassify {
            classes: 4,
            d: 1024,
            ngram: 3,
            train_len: 2000,
            samples: 12,
            sample_len: 300,
        });
        let assoc = run(&WorkloadSpec::HdcAssoc {
            classes: 4,
            d: 1024,
            ngram: 3,
            train_len: 2000,
            samples: 12,
            sample_len: 300,
        });
        assert_eq!(assoc, classify, "associative memory = MVM classifier");
        let right = assoc
            .predictions
            .iter()
            .zip(&assoc.expected)
            .filter(|(p, e)| p == e)
            .count();
        assert!(right * 2 > assoc.expected.len(), "classifier is sane");
    }

    /// Satellite: cheapest-first dispatch holds across a mixed CAM /
    /// Q6 / NN backlog — the CAM search (cost = entries per search)
    /// jumps ahead of the costlier bitmap select and MVM-heavy
    /// inference even though it was submitted last.
    #[test]
    fn mixed_cam_q6_nn_backlog_dispatches_cheapest_first() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        let table = session
            .register_dataset(&DatasetSpec::CamRules {
                rules: 64,
                width: 16,
                wildcard_density: 0.2,
                seed: 5,
            })
            .unwrap();
        let _nn = session
            .submit(&WorkloadSpec::NnInfer {
                network: BinarizedMlp::random(&[8, 6, 3], 5),
                inputs: vec![BitVec::from_fn(8, |j| j % 2 == 0)],
            })
            .unwrap();
        let _q6 = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 1800,
                table_seed: 21,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        let cam = session
            .submit(&WorkloadSpec::CamSearch {
                dataset: table.id(),
                kind: MatchKind::Exact,
                keys: vec![key_bits(3, 16)],
            })
            .unwrap();
        let batches = {
            let mut st = pool.shared.state.lock().unwrap();
            plan(&mut st, pool.config(), 8, &Tracer::disabled())
        };
        let order: Vec<(u64, JobId)> = batches
            .iter()
            .map(|(_, b)| {
                (
                    b.jobs.iter().map(|p| p.compiled.estimated_cost()).sum(),
                    b.jobs[0].compiled.job,
                )
            })
            .collect();
        assert_eq!(order.len(), 3, "three families, three batches: {order:?}");
        assert!(
            order.windows(2).all(|w| w[0].0 <= w[1].0),
            "batches dispatch cheapest-first: {order:?}"
        );
        assert_eq!(order[0].1, cam.id(), "the cheap CAM search goes first");
    }

    /// Regression: a fresh-lease job must route around shards whose
    /// free tiles a dataset pinned, not fail `AdmissionFailed` on them
    /// while another shard sits idle with room.
    #[test]
    fn fresh_leases_route_around_pinned_shards() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(1));
        // Pins 3 of 4 digital tiles on one shard.
        let dataset = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 9,
            })
            .unwrap();
        // Needs 2 free tiles: only the other shard fits.
        let report = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 2000,
                table_seed: 1,
                params: Q6Params::tpch_default(),
            })
            .unwrap()
            .wait();
        assert!(report.output.is_ok(), "{:?}", report.output);
        assert_ne!(report.shard, dataset.shard(), "routed around the pins");
    }

    /// Regression: a concurrent telemetry/poll pumper consuming the
    /// `DatasetLoaded` completion must not strand `register_dataset`
    /// in a blocking `recv` forever.
    #[test]
    fn registration_survives_concurrent_pumpers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = Arc::new(RuntimePool::new(PoolConfig::with_shards(1)));
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = pool.telemetry();
                    }
                })
            })
            .collect();
        let session = pool.client(TenantId(1));
        for _ in 0..50 {
            let handle = session
                .register_dataset(&DatasetSpec::Q6Table {
                    rows: 64,
                    table_seed: 1,
                })
                .unwrap();
            drop(handle);
        }
        stop.store(true, Ordering::Relaxed);
        for h in hammers {
            h.join().unwrap();
        }
    }

    #[test]
    fn foreign_tenant_cannot_query_a_dataset() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let owner = pool.client(TenantId(1));
        let table = owner
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 500,
                table_seed: 3,
            })
            .unwrap();
        let err = pool
            .client(TenantId(2))
            .submit(&WorkloadSpec::Q6Query {
                dataset: table.id(),
                params: Q6Params::tpch_default(),
            })
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::DatasetAccessDenied {
                dataset: table.id(),
                owner: TenantId(1),
            }
        );
    }

    /// Pins the shape of every report the pool synthesizes without a
    /// device ever running the job: the route, the shard, no shards and
    /// no batch, zero stats/device/maintenance, and the analytical
    /// offload estimate (a fixed 64-byte raw-profile estimate for jobs
    /// that failed before compiling, the kind's estimate otherwise).
    #[test]
    fn synthesized_reports_have_one_shape() {
        let estimate = |bytes: u64, accel: f64, l1: f64, l2: f64| {
            Program::streaming(ByteSize(bytes.max(64)), accel, l1, l2).estimate(
                &ConventionalMachine::xeon_e5_2680(),
                &CimSystem::paper_default(),
            )
        };
        let offload_of = |spec: &WorkloadSpec, cfg: &PoolConfig| {
            let compiled = compile(spec, JobId(0), TenantId(0), cfg, 0, 0, None).unwrap();
            let p = compiled.kind.host_profile();
            estimate(
                compiled.resident_bytes,
                p.accel_fraction,
                p.l1_miss,
                p.l2_miss,
            )
        };
        let check = |report: &JobReport,
                     tenant: u32,
                     kind: JobKind,
                     route: JobRoute,
                     shard: usize,
                     offload: OffloadEstimate| {
            assert_eq!(report.tenant, TenantId(tenant), "{report:?}");
            assert_eq!(report.kind, kind, "{report:?}");
            assert_eq!(report.route, route, "{report:?}");
            assert_eq!(report.shard, shard, "{report:?}");
            assert!(report.shards.is_empty(), "{report:?}");
            assert_eq!(report.batch, u64::MAX, "{report:?}");
            assert_eq!(report.stats, ExecutionStats::default(), "{report:?}");
            assert_eq!(report.device, DeviceCounters::default(), "{report:?}");
            assert_eq!(report.maintenance, OperationCost::default(), "{report:?}");
            assert_eq!(report.offload, offload, "{report:?}");
        };

        let cfg = PoolConfig::with_shards(2);
        let pool = RuntimePool::new(cfg);
        let session = pool.client(TenantId(3));

        // Compile-time tile cap: terminal before any stream exists.
        let deep = WorkloadSpec::NnInfer {
            network: BinarizedMlp::random(&[8, 8, 8, 4], 1),
            inputs: vec![BitVec::zeros(8)],
        };
        let report = session.submit(&deep).unwrap().wait();
        assert!(matches!(
            report.output,
            Err(JobError::WorkloadTooLarge {
                analog_required: 3,
                ..
            })
        ));
        check(
            &report,
            3,
            JobKind::NnInfer,
            JobRoute::Cim,
            0,
            estimate(64, 0.5, 0.5, 0.5),
        );

        // Verifier rejection: reads of rows the job never wrote.
        let unwritten = WorkloadSpec::Raw {
            digital_tiles: 1,
            analog_tiles: 0,
            instructions: (0..10)
                .map(|row| CimInstruction::ReadRow { tile: 0, row })
                .collect(),
        };
        let report = session.submit(&unwritten).unwrap().wait();
        assert!(
            matches!(report.output, Err(JobError::RejectedByVerifier { .. })),
            "{:?}",
            report.output
        );
        check(
            &report,
            3,
            JobKind::Raw,
            JobRoute::Cim,
            0,
            offload_of(&unwritten, &cfg),
        );

        // Never fits at submit: unsplittable, then splittable.
        let wide = WorkloadSpec::Raw {
            digital_tiles: 99,
            analog_tiles: 0,
            instructions: vec![],
        };
        let report = session.submit(&wide).unwrap().wait();
        assert!(matches!(
            report.output,
            Err(JobError::WorkloadTooLarge {
                digital_capacity: 4,
                ..
            })
        ));
        check(
            &report,
            3,
            JobKind::Raw,
            JobRoute::Cim,
            0,
            offload_of(&wide, &cfg),
        );
        let tall = WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            rows: (0..9 * cfg.tile_rows)
                .map(|i| BitVec::from_fn(64, |j| (i + j) % 5 == 0))
                .collect(),
        };
        let report = session.submit(&tall).unwrap().wait();
        assert!(matches!(
            report.output,
            Err(JobError::WorkloadTooLarge {
                digital_capacity: 8,
                ..
            })
        ));
        check(
            &report,
            3,
            JobKind::ScoutBulk,
            JobRoute::Cim,
            0,
            offload_of(&tall, &cfg),
        );

        // Admission fails at plan time: datasets pin 3 of 4 tiles on
        // both shards between submit and flush. The XOR job loads shard
        // 0, so the unsplittable job falls back to shard 1; the
        // splittable one cannot scatter over the 2 free tiles.
        let xor = WorkloadSpec::XorEncrypt {
            message: vec![5; 16],
            key_seed: 2,
        };
        let two_tiles = WorkloadSpec::Raw {
            digital_tiles: 2,
            analog_tiles: 0,
            instructions: vec![],
        };
        let select = WorkloadSpec::Q6Select {
            rows: 4 * cfg.tile_cols,
            table_seed: 6,
            params: Q6Params::tpch_default(),
        };
        let xor_handle = session.submit(&xor).unwrap();
        let raw_handle = session.submit(&two_tiles).unwrap();
        let select_handle = session.submit(&select).unwrap();
        let pins: Vec<_> = (0..2)
            .map(|seed| {
                session
                    .register_dataset(&DatasetSpec::Q6Table {
                        rows: 3 * cfg.tile_cols,
                        table_seed: seed,
                    })
                    .unwrap()
            })
            .collect();
        assert_ne!(pins[0].shard(), pins[1].shard());
        assert!(xor_handle.wait().output.is_ok());
        let report = raw_handle.wait();
        assert_eq!(
            report.output,
            Err(JobError::AdmissionFailed {
                digital_required: 2,
                digital_free: 1,
                analog_required: 0,
                analog_free: 2,
            })
        );
        check(
            &report,
            3,
            JobKind::Raw,
            JobRoute::Cim,
            1,
            offload_of(&two_tiles, &cfg),
        );
        let report = select_handle.wait();
        assert_eq!(
            report.output,
            Err(JobError::AdmissionFailed {
                digital_required: 4,
                digital_free: 2,
                analog_required: 0,
                analog_free: 0,
            })
        );
        check(
            &report,
            3,
            JobKind::Q6Select,
            JobRoute::Cim,
            0,
            offload_of(&select, &cfg),
        );
        drop(pins);

        // The queried dataset is released between submit and flush.
        let one_shard = PoolConfig::with_shards(1);
        let pool = RuntimePool::new(one_shard);
        let session = pool.client(TenantId(4));
        let table = DatasetSpec::Q6Table {
            rows: 500,
            table_seed: 3,
        };
        let dataset = session.register_dataset(&table).unwrap();
        let id = dataset.id();
        let handle = session
            .submit(&WorkloadSpec::Q6Query {
                dataset: id,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        drop(dataset);
        let report = handle.wait();
        assert_eq!(
            report.output,
            Err(JobError::DatasetReleased { dataset: id })
        );
        assert_eq!(report.dataset, Some(id));
        let p = JobKind::Q6Query.host_profile();
        let resident = compile_dataset_load(&table, &one_shard, 0)
            .unwrap()
            .resident_bytes;
        check(
            &report,
            4,
            JobKind::Q6Query,
            JobRoute::Cim,
            0,
            estimate(resident, p.accel_fraction, p.l1_miss, p.l2_miss),
        );

        // The host lane: served without a shard, output intact.
        let host_cfg = PoolConfig {
            offload_policy: OffloadPolicy::AlwaysHost,
            ..PoolConfig::with_shards(2)
        };
        let pool = RuntimePool::new(host_cfg);
        let report = pool.client(TenantId(5)).submit(&xor).unwrap().wait();
        assert_eq!(
            report.output,
            Ok(JobOutput::Cipher(
                OneTimePad::generate(16, 2).encrypt(&[5; 16]).unwrap()
            ))
        );
        check(
            &report,
            5,
            JobKind::XorEncrypt,
            JobRoute::Host,
            0,
            offload_of(&xor, &host_cfg),
        );
    }
}
