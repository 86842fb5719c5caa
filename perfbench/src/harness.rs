//! What every workload shares: pool set-up, the closed-loop runner, one
//! timed op, and the sequential replay check.

use crate::ops::{Expect, Op, Tally};
use crate::trace::SpanLog;
use cim_core::isa::CimInstruction;
use cim_obs::RingRecorder;
use cim_runtime::{
    JobOutput, PoolClient, PoolConfig, PoolTelemetry, RuntimePool, TenantId, WorkloadSpec,
};
use cim_simkit::bitvec::BitVec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Client threads driving the pool (the host has two cores).
pub const CLIENT_THREADS: usize = 2;

/// Builds a pool. A traced pool records into a ring of its own: span
/// ids restart with every pool, so two pools must never share a ring.
pub fn build_pool(cfg: PoolConfig, trace: bool) -> (RuntimePool, Option<Arc<RingRecorder>>) {
    if trace {
        let ring = Arc::new(RingRecorder::new(RING_EVENTS));
        (RuntimePool::with_sink(cfg, ring.clone()), Some(ring))
    } else {
        (RuntimePool::new(cfg), None)
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last result and
/// every wall time in seconds. Earlier results drop before the next
/// set-up starts, so only one pool is alive at a time.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Outputs of exact-contract ops by deck position, kept from the first
/// time each position ran, for the replay check.
pub type Outputs = BTreeMap<(usize, usize), JobOutput>;

/// What one client thread of a closed loop hands back.
#[derive(Debug)]
pub struct ThreadResult {
    /// Its tally.
    pub tally: Tally,
    /// Its spans.
    pub log: SpanLog,
    /// Exact-contract outputs for the replay check.
    pub outputs: Outputs,
    /// Call entry of its first op.
    pub first: Option<Instant>,
    /// Result time of every op.
    pub ends: Vec<Instant>,
    /// When the thread entered its current blocking pool call (ns since
    /// `epoch`, plus one), or 0 outside one: read by the stall watchdog.
    blocked: Arc<AtomicU64>,
    epoch: Instant,
}

impl ThreadResult {
    /// An empty result for one thread.
    pub fn new(trace: bool, epoch: Instant) -> Self {
        ThreadResult {
            tally: Tally::default(),
            log: SpanLog::new(trace, epoch),
            outputs: Outputs::new(),
            first: None,
            ends: Vec::new(),
            blocked: Arc::new(AtomicU64::new(0)),
            epoch,
        }
    }

    /// Runs a blocking pool call (`JobHandle::wait`,
    /// `PoolClient::register_dataset`) where the stall watchdog can see it.
    pub fn blocking<T>(&self, call: impl FnOnce() -> T) -> T {
        let entered = self.epoch.elapsed().as_nanos() as u64 + 1;
        self.blocked.store(entered, Ordering::Relaxed);
        let out = call();
        self.blocked.store(0, Ordering::Relaxed);
        out
    }

    /// Notes an op's call entry and result times.
    pub fn mark(&mut self, start: Instant, end: Instant) {
        self.first.get_or_insert(start);
        self.ends.push(end);
    }
}

/// Merged result of all client threads.
#[derive(Debug)]
pub struct Merged {
    /// All threads' tallies.
    pub tally: Tally,
    /// All threads' spans.
    pub log: SpanLog,
    /// All threads' replay outputs.
    pub outputs: Outputs,
    /// First op call to last result, seconds.
    pub wall_s: f64,
    /// Call entry of the first op.
    pub first: Option<Instant>,
    /// Result time of every op, all threads.
    pub ends: Vec<Instant>,
    /// Stalled blocking calls the watchdog had to unstick.
    pub rescues: u64,
}

/// Throughput window of the closed loops, seconds: long enough to hold
/// several passes over each session's deck.
pub const RATE_WINDOW_S: f64 = 2.0;

impl Merged {
    /// Completed ops per second: the median over full
    /// [`RATE_WINDOW_S`] windows from the first op's call (a host stall
    /// then moves one window, not the whole figure); with fewer than
    /// two full windows, ops over wall time.
    pub fn ops_per_s(&self) -> f64 {
        let Some(first) = self.first else {
            return 0.0;
        };
        let full = (self.wall_s / RATE_WINDOW_S).floor() as usize;
        if full < 2 {
            return crate::stats::ratio(self.ends.len() as f64, self.wall_s);
        }
        let mut counts = vec![0.0; full];
        for e in &self.ends {
            let k = (e.duration_since(first).as_secs_f64() / RATE_WINDOW_S) as usize;
            if k < full {
                counts[k] += 1.0 / RATE_WINDOW_S;
            }
        }
        crate::stats::median(&counts)
    }
}

/// A blocking call that has not returned after this long is stalled.
const STALL: Duration = Duration::from_secs(1);

/// Tenant of the watchdog's rescue session.
const RESCUE_TENANT: TenantId = TenantId(999);

/// Runs `body(thread, deadline, result)` on [`CLIENT_THREADS`] threads
/// until `seconds` pass; each body loops its own closed loop and must
/// stop starting ops once the deadline is reached.
///
/// A watchdog thread unsticks stalled waits. Two threads pumping the
/// pool's completions can strand one of them: one thread takes the
/// other's completion off the channel and releases the receiver before
/// recording it, the other re-checks, still sees its job running and
/// blocks on a channel that will get no further message. When a client
/// has been inside a blocking call for [`STALL`], the watchdog submits
/// one tiny raw job (its handle dropped) so that one more completion
/// arrives and the stranded thread re-checks. The stalled op keeps its
/// full latency, and the rescue is counted.
pub fn closed_loop<F>(
    pool: &RuntimePool,
    seconds: f64,
    trace: bool,
    epoch: Instant,
    body: F,
) -> Merged
where
    F: Fn(usize, Instant, &mut ThreadResult) + Sync,
{
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let results: Vec<ThreadResult> = (0..CLIENT_THREADS)
        .map(|_| ThreadResult::new(trace, epoch))
        .collect();
    let stamps: Vec<Arc<AtomicU64>> = results.iter().map(|r| r.blocked.clone()).collect();
    let running = AtomicUsize::new(CLIENT_THREADS);
    let mut rescues = 0;
    let results: Vec<ThreadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = results
            .into_iter()
            .enumerate()
            .map(|(t, mut r)| {
                let (body, running) = (&body, &running);
                s.spawn(move || {
                    // Counts the thread out even if the body panics, so
                    // the watchdog below always ends.
                    struct Exit<'a>(&'a AtomicUsize);
                    impl Drop for Exit<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _exit = Exit(running);
                    body(t, deadline, &mut r);
                    r
                })
            })
            .collect();
        rescues = watchdog(pool, &stamps, &running, epoch);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = merge(results, trace, epoch);
    merged.rescues = rescues;
    merged
}

/// Polls the clients' blocking-call stamps until every client exits,
/// submitting a rescue job at most once per [`STALL`] while any call is
/// stalled. Returns the number of rescues.
fn watchdog(
    pool: &RuntimePool,
    stamps: &[Arc<AtomicU64>],
    running: &AtomicUsize,
    epoch: Instant,
) -> u64 {
    let session = pool.client(RESCUE_TENANT);
    let rescue = WorkloadSpec::Raw {
        digital_tiles: 1,
        analog_tiles: 0,
        instructions: vec![CimInstruction::WriteRow {
            tile: 0,
            row: 0,
            bits: BitVec::zeros(pool.config().tile_cols),
        }],
    };
    let stall = STALL.as_nanos() as u64;
    let mut rescues = 0;
    let mut last_rescue = 0;
    while running.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(50));
        let now = epoch.elapsed().as_nanos() as u64;
        let stalled = stamps.iter().any(|s| {
            let entered = s.load(Ordering::Relaxed);
            entered != 0 && now.saturating_sub(entered - 1) > stall
        });
        if stalled && now.saturating_sub(last_rescue) > stall {
            eprintln!("perfbench: a blocking pool call stalled for over {STALL:?}; rescuing");
            match session.submit(&rescue) {
                Ok(handle) => {
                    session.flush();
                    drop(handle);
                }
                Err(e) => eprintln!("perfbench: rescue job refused: {e}"),
            }
            rescues += 1;
            last_rescue = now;
        }
    }
    rescues
}

/// Folds per-thread results into one.
pub fn merge(results: Vec<ThreadResult>, trace: bool, epoch: Instant) -> Merged {
    let first = results.iter().filter_map(|r| r.first).min();
    let last = results.iter().filter_map(|r| r.ends.last().copied()).max();
    let mut m = Merged {
        tally: Tally::default(),
        log: SpanLog::new(trace, epoch),
        outputs: Outputs::new(),
        wall_s: match (first, last) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        },
        first,
        ends: Vec::new(),
        rescues: 0,
    };
    for r in results {
        m.tally.merge(r.tally);
        m.log.absorb(r.log);
        m.outputs.extend(r.outputs);
        m.ends.extend(r.ends);
    }
    m
}

/// Submits one op, waits for its report and records it: latency from
/// the submit call's entry to the report in hand.
pub fn submit_wait(
    client: &PoolClient,
    op: &Op,
    op_id: u64,
    key: (usize, usize),
    r: &mut ThreadResult,
) {
    let kind = op.kind();
    let t0 = Instant::now();
    let handle = client.submit(&op.spec);
    let t1 = Instant::now();
    r.log.record(op_id, "submit", kind, t0, t1);
    match handle {
        Ok(h) => {
            let report = r.blocking(|| h.wait());
            let t2 = Instant::now();
            r.log.record(op_id, "wait", kind, t1, t2);
            r.log.record(op_id, "op", kind, t0, t2);
            r.mark(t0, t2);
            r.tally
                .record(op, &report, t2.duration_since(t0).as_secs_f64() * 1e3);
            keep_output(&mut r.outputs, key, op, report.output);
        }
        Err(e) => {
            eprintln!("perfbench: submit refused: {e}");
            r.mark(t0, t1);
            r.tally.record_refused();
        }
    }
}

/// Times `PoolClient::verify` (compile plus both `cim-lint` passes,
/// nothing enqueued) once per op as `verify` spans; traced passes call
/// it before their measured loop.
pub fn verify_spans<'a>(
    ops: impl Iterator<Item = &'a Op>,
    client_of: impl Fn(&Op) -> &'a PoolClient,
    log: &mut SpanLog,
) {
    for op in ops {
        let t0 = Instant::now();
        let verdict = client_of(op).verify(&op.spec);
        log.record(0, "verify", op.kind(), t0, Instant::now());
        if let Err(e) = verdict {
            eprintln!("perfbench: verify refused a {} op: {e}", op.kind());
        }
    }
}

/// Keeps an exact-contract output the first time its deck position runs.
pub fn keep_output(
    outputs: &mut Outputs,
    key: (usize, usize),
    op: &Op,
    output: Result<JobOutput, cim_runtime::JobError>,
) {
    if !matches!(op.expect, Expect::Hdc) {
        if let Ok(out) = output {
            outputs.entry(key).or_insert(out);
        }
    }
}

/// Replays exact-contract ops one at a time through `client_of(op)` and
/// returns how many outputs differ from those of the concurrent run.
pub fn replay_mismatches<'a>(
    ops: impl Iterator<Item = ((usize, usize), &'a Op)>,
    concurrent: &Outputs,
    client_of: impl Fn(&Op) -> &'a PoolClient,
) -> usize {
    let mut mismatches = 0;
    for (key, op) in ops {
        let Some(seen) = concurrent.get(&key) else {
            continue;
        };
        let replayed = client_of(op).submit(&op.spec).ok().map(|h| h.wait().output);
        if replayed.as_ref().and_then(|o| o.as_ref().ok()) != Some(seen) {
            mismatches += 1;
        }
    }
    mismatches
}

/// Simulated busy seconds and energy of dataset loads between two
/// telemetry snapshots.
pub fn dataset_load_delta(before: &PoolTelemetry, after: &PoolTelemetry) -> (f64, f64) {
    (
        after.dataset_load.busy_time.0 - before.dataset_load.busy_time.0,
        after.dataset_load.energy.0 - before.dataset_load.energy.0,
    )
}

/// Ring capacity for a traced pass: large enough that a pass's events
/// are all retained.
pub const RING_EVENTS: usize = 1 << 21;

/// Host memory high-water mark of this process so far, MB (0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
