//! Ops, their independent host references, and the per-run tally.
//!
//! Every expected output is computed before timing starts, from the
//! application crates' own host code, never from the pool's host lane.

use cim_bitmap_db::query::q6_scan;
use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
use cim_core::DeviceCounters;
use cim_crossbar::cam::{host_match, key_bits, RuleSet};
use cim_crossbar::ScoutOp;
use cim_imgproc::image::GrayImage;
use cim_nn::binarized::BinarizedMlp;
use cim_runtime::{ImgFilterOp, JobError, JobKind, JobOutput, JobReport, JobRoute, WorkloadSpec};
use cim_simkit::bitvec::BitVec;
use cim_xor_cipher::otp::OneTimePad;
use std::collections::BTreeMap;

/// What a correct answer is.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exact contract: the output must equal this.
    Exact(JobOutput),
    /// Exact contract on the NN scores (predictions follow from them).
    NnScores(Vec<Vec<i64>>),
    /// Statistical contract (HDC): counted toward accuracy only.
    Hdc,
}

/// One pre-generated op: which session submits it, what, and the answer.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index of the submitting session.
    pub session: usize,
    /// The workload.
    pub spec: WorkloadSpec,
    /// The host reference.
    pub expect: Expect,
}

impl Op {
    /// Kind name used in metric names.
    pub fn kind(&self) -> &'static str {
        kind_name(self.spec.kind())
    }
}

/// The CamelCase workload kind names used in per-kind metric names.
pub const KINDS: [&str; 12] = [
    "Q6Select",
    "XorEncrypt",
    "ScoutBulk",
    "ImgFilter",
    "NnInfer",
    "HdcClassify",
    "HdcAssoc",
    "Q6Query",
    "NnQuery",
    "RuleClassify",
    "KeyLookup",
    "CamSearch",
];

/// CamelCase name of a job kind.
pub fn kind_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Q6Select => "Q6Select",
        JobKind::HdcClassify => "HdcClassify",
        JobKind::XorEncrypt => "XorEncrypt",
        JobKind::ScoutBulk => "ScoutBulk",
        JobKind::Raw => "Raw",
        JobKind::Q6Query => "Q6Query",
        JobKind::HdcQuery => "HdcQuery",
        JobKind::NnInfer => "NnInfer",
        JobKind::NnQuery => "NnQuery",
        JobKind::CamSearch => "CamSearch",
        JobKind::RuleClassify => "RuleClassify",
        JobKind::KeyLookup => "KeyLookup",
        JobKind::HdcAssoc => "HdcAssoc",
        JobKind::ImgFilter => "ImgFilter",
    }
}

/// Outcome of checking one report against its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact-contract output matched.
    Ok,
    /// Failed, refused, or returned a wrong exact-contract answer.
    Bad,
    /// Statistical output: `correct` of `total` predictions right.
    Hdc { correct: usize, total: usize },
}

/// Checks one job's output against its reference.
pub fn check(expect: &Expect, output: &Result<JobOutput, JobError>) -> Verdict {
    match (expect, output) {
        (Expect::Exact(want), Ok(got)) if want == got => Verdict::Ok,
        (Expect::NnScores(want), Ok(JobOutput::Nn(got))) => {
            let preds: Vec<usize> = want
                .iter()
                .map(|s| cim_nn::binarized::argmax_scores(s))
                .collect();
            if &got.scores == want && got.predictions == preds {
                Verdict::Ok
            } else {
                Verdict::Bad
            }
        }
        (Expect::Hdc, Ok(JobOutput::Hdc(h))) => Verdict::Hdc {
            correct: h
                .predictions
                .iter()
                .zip(&h.expected)
                .filter(|(p, e)| p == e)
                .count(),
            total: h.predictions.len(),
        },
        _ => Verdict::Bad,
    }
}

// ---- host references ---------------------------------------------------

/// Query-6 reference: a row-by-row scan of the generated table.
pub fn q6_expect(rows: usize, table_seed: u64, params: &Q6Params) -> Expect {
    Expect::Exact(JobOutput::Q6(q6_scan(
        &LineItemTable::generate(rows, table_seed),
        params,
    )))
}

/// One-time-pad reference.
pub fn xor_expect(message: &[u8], key_seed: u64) -> Expect {
    let pad = OneTimePad::generate(message.len(), key_seed);
    Expect::Exact(JobOutput::Cipher(
        pad.encrypt(message)
            .expect("pad length equals message length"),
    ))
}

/// Bulk Scouting-Logic reference: a host fold over the rows.
pub fn scout_expect(op: ScoutOp, rows: &[BitVec]) -> Expect {
    let mut acc = rows[0].clone();
    for r in &rows[1..] {
        acc = match op {
            ScoutOp::Or => acc.or(r),
            ScoutOp::And => acc.and(r),
            ScoutOp::Xor => acc.xor(r),
        };
    }
    Expect::Exact(JobOutput::Bits(acc))
}

/// Image-filter reference on the 8-bit-quantized image.
pub fn img_expect(image: &GrayImage, filter: &ImgFilterOp) -> Expect {
    Expect::Exact(JobOutput::Image(filter.apply(&image.quantized(8))))
}

/// Binarized-MLP reference scores.
pub fn nn_expect(net: &BinarizedMlp, inputs: &[BitVec]) -> Expect {
    Expect::NnScores(inputs.iter().map(|x| net.scores(x)).collect())
}

/// Rule-classification reference: highest-priority matching rule.
pub fn rule_expect(rules: &RuleSet, packets: &[u64]) -> Expect {
    Expect::Exact(JobOutput::Lookups(
        packets
            .iter()
            .map(|&p| rules.classify(&key_bits(p, rules.width())))
            .collect(),
    ))
}

/// Key-lookup reference: the lowest matching dictionary slot.
pub fn lookup_expect(keys: &[u64], width: usize, probes: &[u64]) -> Expect {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    Expect::Exact(JobOutput::Lookups(
        probes
            .iter()
            .map(|&p| {
                keys.iter()
                    .position(|&k| k & mask == p & mask)
                    .map(|i| i as u32)
            })
            .collect(),
    ))
}

/// Raw CAM search reference: per key, one match bit per stored entry.
pub fn cam_expect(
    entries: &[(BitVec, BitVec)],
    keys: &[BitVec],
    kind: cim_runtime::MatchKind,
) -> Expect {
    Expect::Exact(JobOutput::Matches(
        keys.iter()
            .map(|k| {
                BitVec::from_fn(entries.len(), |s| {
                    host_match(&entries[s].0, &entries[s].1, k, kind)
                })
            })
            .collect(),
    ))
}

// ---- per-run tally ------------------------------------------------------

/// Everything a run accumulates from its ops and reports.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, refused or wrong (exact contract).
    pub failed: u64,
    /// Correct HDC predictions.
    pub hdc_correct: u64,
    /// HDC predictions made.
    pub hdc_total: u64,
    /// Op latencies, ms (failed ops count as infinitely late).
    pub lat_ms: Vec<f64>,
    /// Job reports seen.
    pub reports: u64,
    /// Simulated busy time of reports plus maintenance, seconds.
    pub sim_s: f64,
    /// Simulated energy of reports plus maintenance, joules.
    pub sim_j: f64,
    /// Device counters summed over reports.
    pub device: DeviceCounters,
    /// Row writes summed over reports.
    pub row_writes: u64,
    /// Instructions summed over reports.
    pub instructions: u64,
    /// Host-routed reports.
    pub host_routed: u64,
    /// CIM-routed reports per shard (every shard a job touched).
    pub shard_jobs: BTreeMap<usize, u64>,
    /// CIM-routed reports per batch id.
    pub batch_jobs: BTreeMap<u64, u64>,
}

impl Tally {
    /// Records a completed op with its report.
    pub fn record(&mut self, op: &Op, report: &JobReport, lat_ms: f64) {
        self.attempted += 1;
        let verdict = check(&op.expect, &report.output);
        match verdict {
            Verdict::Ok => {}
            Verdict::Bad => self.failed += 1,
            Verdict::Hdc { correct, total } => {
                self.hdc_correct += correct as u64;
                self.hdc_total += total as u64;
            }
        }
        self.lat_ms.push(if verdict == Verdict::Bad {
            f64::INFINITY
        } else {
            lat_ms
        });
        self.reports += 1;
        self.sim_s += report.stats.busy_time.0 + report.maintenance.latency.0;
        self.sim_j += report.stats.energy.0 + report.maintenance.energy.0;
        self.device.accumulate(&report.device);
        self.row_writes += report.stats.row_writes;
        self.instructions += report.stats.instructions();
        match report.route {
            JobRoute::Host => self.host_routed += 1,
            JobRoute::Cim => {
                for &s in &report.shards {
                    *self.shard_jobs.entry(s).or_default() += 1;
                }
                if report.batch != u64::MAX {
                    *self.batch_jobs.entry(report.batch).or_default() += 1;
                }
            }
        }
    }

    /// Records an op that succeeded without a job report (a dataset
    /// registration).
    pub fn record_plain(&mut self, lat_ms: f64) {
        self.attempted += 1;
        self.lat_ms.push(lat_ms);
    }

    /// Records an op the pool refused or failed without a report.
    pub fn record_refused(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.lat_ms.push(f64::INFINITY);
    }

    /// Folds another thread's tally into this one.
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.hdc_correct += o.hdc_correct;
        self.hdc_total += o.hdc_total;
        self.lat_ms.extend(o.lat_ms);
        self.reports += o.reports;
        self.sim_s += o.sim_s;
        self.sim_j += o.sim_j;
        self.device.accumulate(&o.device);
        self.row_writes += o.row_writes;
        self.instructions += o.instructions;
        self.host_routed += o.host_routed;
        for (k, v) in o.shard_jobs {
            *self.shard_jobs.entry(k).or_default() += v;
        }
        for (k, v) in o.batch_jobs {
            *self.batch_jobs.entry(k).or_default() += v;
        }
    }

    /// Share of CIM shard assignments taken by the busiest shard.
    pub fn busiest_shard_share(&self) -> f64 {
        let total: u64 = self.shard_jobs.values().sum();
        let max = self.shard_jobs.values().copied().max().unwrap_or(0);
        crate::stats::ratio(max as f64, total as f64)
    }

    /// Mean CIM-routed jobs per batch.
    pub fn jobs_per_batch(&self) -> f64 {
        let jobs: u64 = self.batch_jobs.values().sum();
        crate::stats::ratio(jobs as f64, self.batch_jobs.len() as f64)
    }
}
