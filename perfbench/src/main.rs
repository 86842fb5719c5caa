//! The repository benchmark: drives the `cim-runtime` pool from outside,
//! through its public API only, on three seeded workloads, checks every
//! answer against an independent host reference, and prints the
//! end-to-end metrics (or, with `--trace 1`, the per-layer breakdown) as
//! the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_mixed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/DESIGN.md` for why each workload exists and which
//! end-to-end metric each layer metric should move.

mod cold_mixed;
mod dataset_churn;
mod harness;
mod layers;
mod ops;
mod resident_stream;
mod stats;
mod trace;

use stats::{median, p99_windowed, percentile, ratio, Sheet, P99_WINDOW};
use std::time::Instant;

/// Minimum HDC accuracy for a run to count as correct: HDC kinds have a
/// statistical contract (chance is 1 in 4 classes).
const HDC_ACCURACY_FLOOR: f64 = 0.4;

/// Stages of the pool's lifecycle spans broken out per layer.
const STAGES: [&str; 6] = ["queue", "plan", "dispatch", "execute", "finalize", "report"];

/// What one workload pass produces.
pub struct Pass {
    /// Merged client-side results.
    pub merged: harness::Merged,
    /// Set-up wall times, seconds.
    pub setup_s: Vec<f64>,
    /// Simulated busy seconds of dataset loads in the measured window.
    pub load_s: f64,
    /// Simulated energy of dataset loads in the measured window, J.
    pub load_j: f64,
    /// Replayed exact outputs that differ from the concurrent run.
    pub replay_mismatches: usize,
    /// The pool's trace events (traced pass only).
    pub pool_events: Vec<cim_obs::Event>,
    /// Host memory high-water mark of the measured work, MB.
    pub peak_rss_mb: f64,
}

impl Pass {
    fn hdc_accuracy(&self) -> f64 {
        let t = &self.merged.tally;
        ratio(t.hdc_correct as f64, t.hdc_total as f64)
    }

    fn correct(&self) -> bool {
        let t = &self.merged.tally;
        t.failed == 0
            && self.replay_mismatches == 0
            && (t.hdc_total == 0 || self.hdc_accuracy() >= HDC_ACCURACY_FLOOR)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_pass(workload: &str, seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Pass {
    match workload {
        "cold_mixed" => cold_mixed::run(seed, seconds, trace, epoch),
        "resident_stream" => resident_stream::run(seed, seconds, trace, epoch),
        "dataset_churn" => dataset_churn::run(seed, seconds, trace, epoch),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The end-to-end sheet of an untraced pass.
fn end_to_end(p: &Pass) -> Sheet {
    let t = &p.merged.tally;
    let ops = t.attempted as f64;
    let mut s = Sheet::default();
    s.put("setup_s", median(&p.setup_s), "s");
    s.put("ops_per_s", p.merged.ops_per_s(), "ops/s");
    s.put("op_p50_ms", percentile(&t.lat_ms, 0.5), "ms");
    s.put("op_p99_ms", p99_windowed(&t.lat_ms), "ms");
    s.put("sim_us_per_op", ratio(t.sim_s + p.load_s, ops) * 1e6, "us");
    s.put("sim_nj_per_op", ratio(t.sim_j + p.load_j, ops) * 1e9, "nJ");
    s.put("peak_rss_mb", p.peak_rss_mb, "MB");
    s
}

/// Extra end-to-end figures printed for people, outside the result line.
fn print_context(p: &Pass) {
    let t = &p.merged.tally;
    println!(
        "ops attempted {}, failed {} (failed_frac {:.6}), replay mismatches {}",
        t.attempted,
        t.failed,
        ratio(t.failed as f64, t.attempted as f64),
        p.replay_mismatches
    );
    println!(
        "latency samples {} in {} windows of {} (10 beyond each window's p99); \
         hdc_accuracy {:.4} over {} predictions",
        t.lat_ms.len(),
        t.lat_ms.len() / P99_WINDOW,
        P99_WINDOW,
        p.hdc_accuracy(),
        t.hdc_total
    );
    println!(
        "stalled blocking calls rescued by the watchdog: {}",
        p.merged.rescues
    );
    println!(
        "shard share of busiest shard {:.3} over {:?}; jobs/batch {:.3}; host-routed {}",
        t.busiest_shard_share(),
        t.shard_jobs,
        t.jobs_per_batch(),
        t.host_routed
    );
    let windows: Vec<String> = t
        .lat_ms
        .chunks_exact(P99_WINDOW)
        .map(|w| format!("{:.2}", percentile(w, 0.99)))
        .collect();
    println!("window p99s (ms): {}", windows.join(" "));
}

/// The per-layer sheet of a traced pass; `untraced` is the same
/// workload's untraced pass, for the tracing overhead.
fn per_layer(
    p: &Pass,
    untraced: &Pass,
    ladder: Option<&resident_stream::Ladder>,
    layer_sheet: Sheet,
) -> Sheet {
    let log = &p.merged.log;
    let t = &p.merged.tally;
    let ops = t.attempted as f64;
    let mut s = Sheet::default();
    let submit = log.durations_us("submit", None);
    s.put("client.submit_us.p50", percentile(&submit, 0.5), "us");
    s.put("client.submit_us.p99", percentile(&submit, 0.99), "us");
    for kind in ops::KINDS {
        let d = log.durations_us("submit", Some(kind));
        s.put(format!("client.submit_us.{kind}.p50"), median(&d), "us");
    }
    let wait = log.durations_us("wait", None);
    s.put("client.wait_us.p50", percentile(&wait, 0.5), "us");
    s.put("client.wait_us.p99", percentile(&wait, 0.99), "us");
    for kind in resident_stream::DATASET_KINDS {
        let d = log.durations_us("register", Some(kind));
        s.put(
            format!("client.register_ms.{kind}.p50"),
            median(&d) / 1e3,
            "ms",
        );
    }
    s.put(
        "client.drop_us.p50",
        median(&log.durations_us("drop", None)),
        "us",
    );
    s.put(
        "client.verify_us.p50",
        median(&log.durations_us("verify", None)),
        "us",
    );

    let spans = trace::pool_spans(&p.pool_events);
    for stage in STAGES {
        let d: Vec<f64> = spans
            .iter()
            .filter(|x| x.name == stage)
            .map(|x| x.self_ns as f64 / 1e3)
            .collect();
        s.put(
            format!("schedule.{stage}_us.p50"),
            percentile(&d, 0.5),
            "us",
        );
        s.put(
            format!("schedule.{stage}_us.p99"),
            percentile(&d, 0.99),
            "us",
        );
    }
    s.put("schedule.jobs_per_batch", t.jobs_per_batch(), "jobs");
    s.put(
        "schedule.busiest_shard_share",
        t.busiest_shard_share(),
        "ratio",
    );
    s.put(
        "schedule.host_routed_frac",
        ratio(t.host_routed as f64, t.reports as f64),
        "ratio",
    );

    for (name, value, unit) in layer_sheet.rows() {
        s.put(name.clone(), *value, unit);
    }

    let d = &t.device;
    s.put(
        "device.word_accesses_per_op",
        ratio(d.word_accesses as f64, ops),
        "count",
    );
    s.put(
        "device.program_pulses_per_op",
        ratio(d.program_pulses as f64, ops),
        "count",
    );
    s.put(
        "device.noise_samples_per_op",
        ratio(d.noise_samples as f64, ops),
        "count",
    );
    s.put(
        "device.match_pulses_per_op",
        ratio(d.match_pulses as f64, ops),
        "count",
    );
    s.put(
        "stats.row_writes_per_op",
        ratio(t.row_writes as f64, ops),
        "count",
    );
    let exec_s: f64 = spans
        .iter()
        .filter(|x| x.name == "execute")
        .map(|x| x.self_ns as f64 / 1e9)
        .sum();
    s.put(
        "sim.device_instr_per_exec_s",
        ratio(t.instructions as f64, exec_s),
        "instr/s",
    );
    s.put(
        "obs.trace_overhead_frac",
        ratio(untraced.merged.ops_per_s(), p.merged.ops_per_s()) - 1.0,
        "ratio",
    );
    s.put(
        "slo.ops_per_s",
        ladder.map_or(0.0, |l| l.slo_ops_per_s),
        "ops/s",
    );
    s.put(
        "gen.late_p99_ms",
        ladder.map_or(0.0, |l| l.late_p99_ms),
        "ms",
    );
    s.put("ops.failed_frac", ratio(t.failed as f64, ops), "ratio");
    s.put(
        "client.stall_rescues",
        (p.merged.rescues + untraced.merged.rescues) as f64,
        "count",
    );
    s.put("hdc.accuracy", p.hdc_accuracy(), "ratio");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_mixed|resident_stream|dataset_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if !["cold_mixed", "resident_stream", "dataset_churn"].contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} (available_parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let epoch = Instant::now();
    if !args.trace {
        let pass = run_pass(&args.workload, args.seed, args.seconds, false, epoch);
        let sheet = end_to_end(&pass);
        print_context(&pass);
        sheet.print_table("end-to-end");
        let t = &pass.merged.tally;
        println!(
            "{}",
            sheet.result_json(pass.correct(), t.attempted, t.failed)
        );
        return;
    }

    // Traced run: an untraced half for the tracing overhead, then the
    // traced half, then the layer microbenches and, on resident_stream,
    // the open-loop rate ladder.
    let half = args.seconds / 2.0;
    let untraced = run_pass(&args.workload, args.seed, half, false, epoch);
    let mut traced = run_pass(&args.workload, args.seed, half, true, epoch);
    let mut layer_sheet = Sheet::default();
    let layers_ok = layers::run(args.seed, &mut traced.merged.log, &mut layer_sheet);
    if !layers_ok {
        eprintln!("perfbench: a layer microbench returned a wrong result");
    }
    let ladder = (args.workload == "resident_stream")
        .then(|| resident_stream::ladder(args.seed, half, epoch));
    let sheet = per_layer(&traced, &untraced, ladder.as_ref(), layer_sheet);
    print_context(&traced);
    for line in ladder.iter().flat_map(|l| &l.notes) {
        println!("{line}");
    }
    sheet.print_table("per-layer (traced)");
    trace::write_out(
        &format!("{}-seed{}", args.workload, args.seed),
        &traced.merged.log,
        &cim_obs::chrome_trace_json(&traced.pool_events),
    );
    let (ladder_attempted, ladder_failed) =
        ladder.as_ref().map_or((0, 0), |l| (l.attempted, l.failed));
    let attempted =
        untraced.merged.tally.attempted + traced.merged.tally.attempted + ladder_attempted;
    let failed = untraced.merged.tally.failed + traced.merged.tally.failed + ladder_failed;
    let correct = untraced.correct() && traced.correct() && layers_ok && ladder_failed == 0;
    println!("{}", sheet.result_json(correct, attempted, failed));
}
