//! Direct timings of the layers' public entry points, each at the shape
//! its workload uses, warmed first and sanity-checked on its output.

use crate::cold_mixed::{HDC_CLASSES, HDC_D, HDC_SAMPLE_LEN, HDC_TRAIN_LEN, NN_DIMS};
use crate::resident_stream::{PROBES, RULES, RULE_WIDTH, RULE_WILDCARDS};
use crate::stats::{median, Sheet};
use crate::trace::SpanLog;
use cim_bitmap_db::query::{q6_bitmap_cpu_with_indexes, q6_scan, Q6Indexes};
use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
use cim_core::isa::CimInstruction;
use cim_core::CimAcceleratorBuilder;
use cim_crossbar::cam::{key_bits, CamArray, MatchKind, RuleSet};
use cim_crossbar::{AnalogParams, DifferentialCrossbar, DigitalArray, ScoutOp};
use cim_device::reram::ReramParams;
use cim_hdc::lang::LanguageTask;
use cim_lint::{CostModel, Geometry, LintTarget};
use cim_nn::binarized::BinarizedMlp;
use cim_runtime::PoolConfig;
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::rng::seeded;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Timing batches per microbench; the metric is their median.
const BATCHES: usize = 5;

/// Times `BATCHES` batches of `reps` calls (after one warm-up batch) and
/// returns the median seconds per call, recording each batch as a
/// `layer` span labelled `name`.
fn per_call(name: &'static str, reps: usize, log: &mut SpanLog, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps {
        f();
    }
    let mut per = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let t1 = Instant::now();
        log.record(0, "layer", name, t0, t1);
        per.push(t1.duration_since(t0).as_secs_f64() / reps as f64);
    }
    median(&per)
}

/// Pads a binarized layer into the pool's analog tile shape, as the
/// runtime lowers it.
fn padded_layer(layer: &Matrix, cfg: &PoolConfig) -> Matrix {
    Matrix::from_fn(cfg.analog_rows, cfg.analog_cols, |r, c| {
        if r < layer.rows() && c < layer.cols() {
            layer.get(r, c)
        } else {
            0.0
        }
    })
}

/// Runs every layer microbench; returns `false` if a sanity check fails.
pub fn run(seed: u64, log: &mut SpanLog, sheet: &mut Sheet) -> bool {
    let cfg = PoolConfig::default();
    let mut ok = true;
    let mut rng = seeded(seed ^ 0x1A7E5);

    // cim-core / cim-device: one shard at the pool geometry.
    let mut tiles = 0;
    let build = per_call("core.build_ms", 1, log, || {
        let acc = CimAcceleratorBuilder::new()
            .digital_tiles(cfg.digital_tiles, cfg.tile_rows, cfg.tile_cols)
            .analog_tiles(cfg.analog_tiles, cfg.analog_rows, cfg.analog_cols)
            .reram_params(cfg.reram_params)
            .analog_params(cfg.analog_params)
            .seed(seed)
            .build();
        tiles = acc.digital_tile_count() + acc.analog_tile_count();
        black_box(acc);
    });
    ok &= tiles == cfg.digital_tiles + cfg.analog_tiles;
    sheet.put("core.build_ms", build * 1e3, "ms");

    // cim-hdc at the cold_mixed HdcClassify size.
    let mut task = None;
    let train = per_call("hdc.train_ms", 1, log, || {
        task = Some(LanguageTask::train(
            HDC_CLASSES,
            HDC_D,
            3,
            HDC_TRAIN_LEN,
            seed,
        ));
    });
    sheet.put("hdc.train_ms", train * 1e3, "ms");
    let task = task.expect("trained");
    let text: Vec<usize> = (0..HDC_SAMPLE_LEN)
        .map(|i| (i * 7 + seed as usize) % 27)
        .collect();
    let mut dim = 0;
    let encode = per_call("hdc.encode_us_per_symbol", 20, log, || {
        dim = black_box(task.encoder.encode_sequence(black_box(&text))).dim();
    });
    ok &= dim == HDC_D;
    sheet.put(
        "hdc.encode_us_per_symbol",
        encode * 1e6 / HDC_SAMPLE_LEN as f64,
        "us",
    );

    // cim-bitmap-db at the Q6 row count of cold_mixed and resident_stream.
    let table_seed: u64 = rng.gen();
    let mut built = None;
    let q6 = per_call("bitmap.q6_build_ms", 3, log, || {
        let table = LineItemTable::generate(crate::cold_mixed::Q6_ROWS, table_seed);
        let idx = Q6Indexes::build(&table);
        built = Some((table, idx));
    });
    let (table, idx) = built.expect("built");
    let params = Q6Params::tpch_default();
    ok &= q6_bitmap_cpu_with_indexes(&table, &idx, &params).result == q6_scan(&table, &params);
    sheet.put("bitmap.q6_build_ms", q6 * 1e3, "ms");

    // cim-lint on a stream shaped like a resident RuleClassify op: one
    // ternary search per packet over each of two resident CAM tiles.
    let per_tile = cfg.tile_rows / 2;
    let geometry = Geometry {
        digital_tiles: 2,
        tile_rows: cfg.tile_rows,
        tile_cols: cfg.tile_cols,
        analog_tiles: 0,
        analog_rows: cfg.analog_rows,
        analog_cols: cfg.analog_cols,
        scout_fan_in: cfg.scout_fan_in,
    };
    let target = LintTarget::new(geometry)
        .with_resident_rows(0, 0..2 * per_tile)
        .with_resident_rows(1, 0..2 * per_tile);
    let program: Vec<CimInstruction> = (0..PROBES)
        .flat_map(|_| {
            let key = BitVec::from_fn(cfg.tile_cols, |j| j < RULE_WIDTH && rng.gen_bool(0.5));
            (0..2).map(move |tile| CimInstruction::MatchSearch {
                tile,
                entries: per_tile,
                key: key.clone(),
                kind: MatchKind::Ternary,
            })
        })
        .collect();
    let outputs: Vec<usize> = (0..program.len()).collect();
    let mut errors = usize::MAX;
    let check = per_call("lint.check_us", 200, log, || {
        errors = black_box(cim_lint::lint(&program, &outputs, &target)).error_count();
    });
    ok &= errors == 0;
    sheet.put("lint.check_us", check * 1e6, "us");
    let model = CostModel::default();
    let mut searches = 0;
    let cost = per_call("lint.cost_us", 200, log, || {
        searches = black_box(cim_lint::cost(&program, &geometry, &model)).searches;
    });
    ok &= searches == program.len() as u64;
    sheet.put("lint.cost_us", cost * 1e6, "us");

    // cim-crossbar digital tile: fan-in-8 OR scouting over 1024 columns,
    // and row writes, at the pool's device parameters.
    let rows: Vec<BitVec> = (0..8)
        .map(|_| BitVec::from_fn(cfg.tile_cols, |_| rng.gen_bool(0.5)))
        .collect();
    let mut array = DigitalArray::new(cfg.tile_rows, cfg.tile_cols, cfg.reram_params, &mut rng);
    for (r, bits) in rows.iter().enumerate() {
        array.write_row(r, bits);
    }
    let fan_in: Vec<usize> = (0..8).collect();
    let mut noise = seeded(seed ^ 0x5C0);
    let scout = per_call("digital.scout_ns", 2000, log, || {
        black_box(array.scout(ScoutOp::Or, black_box(&fan_in), &mut noise));
    });
    sheet.put("digital.scout_ns", scout * 1e9, "ns");
    let mut next = 8;
    let write = per_call("digital.write_row_ns", 2000, log, || {
        black_box(array.write_row(next, &rows[next % 8]));
        next = 8 + (next + 1) % (cfg.tile_rows - 8);
    });
    sheet.put("digital.write_row_ns", write * 1e9, "ns");
    let ideal = ReramParams {
        sigma_d2d: 0.0,
        sigma_c2c: 0.0,
        ..cfg.reram_params
    };
    let mut exact = DigitalArray::new(cfg.tile_rows, cfg.tile_cols, ideal, &mut rng);
    for (r, bits) in rows.iter().enumerate() {
        exact.write_row(r, bits);
    }
    ok &= exact.scout(ScoutOp::Or, &fan_in, &mut noise) == exact.scout_exact(ScoutOp::Or, &fan_in);

    // cim-crossbar analog tile: the NN's first layer padded to the tile.
    let net = BinarizedMlp::random(&NN_DIMS, rng.gen());
    let matrix = padded_layer(&net.layers()[0], &cfg);
    let mut xbar =
        DifferentialCrossbar::new(cfg.analog_rows, cfg.analog_cols, AnalogParams::default());
    let program_s = per_call("analog.program_ms", 3, log, || {
        black_box(xbar.program_matrix(&matrix, &mut noise));
    });
    sheet.put("analog.program_ms", program_s * 1e3, "ms");
    let x: Vec<f64> = (0..cfg.analog_cols)
        .map(|c| {
            if c < NN_DIMS[0] {
                if rng.gen_bool(0.5) {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.0
            }
        })
        .collect();
    let mut y = Vec::new();
    let mvm = per_call("analog.mvm_us", 200, log, || {
        y = black_box(xbar.matvec(black_box(&x), &mut noise));
    });
    ok &= y.len() == cfg.analog_rows && y.iter().all(|v| v.is_finite());
    sheet.put("analog.mvm_us", mvm * 1e6, "us");

    // cim-crossbar CAM: one resident rule tile (80 entries of the
    // resident_stream rule table, padded to the tile width), ternary.
    let rules = RuleSet::generate(RULES, RULE_WIDTH, RULE_WILDCARDS, rng.gen());
    let pad = |b: &BitVec| BitVec::from_fn(cfg.tile_cols, |j| j < RULE_WIDTH && b.get(j));
    let mut cam = CamArray::new(per_tile, cfg.tile_cols, cfg.reram_params, &mut rng);
    for (slot, rule) in rules.rules().iter().take(per_tile).enumerate() {
        cam.write_key(slot, &pad(&rule.value), &pad(&rule.care));
    }
    let packet = rules.sample_packet(&mut rng);
    let key = pad(&key_bits(packet.words()[0], RULE_WIDTH));
    let mut hits = BitVec::zeros(0);
    let search = per_call("cam.search_ns", 2000, log, || {
        hits = black_box(cam.search(black_box(&key), MatchKind::Ternary, &mut noise)).0;
    });
    let want = rules.matches(&packet);
    ok &= (0..per_tile).all(|s| hits.get(s) == want.get(s));
    sheet.put("cam.search_ns", search * 1e9, "ns");

    ok
}
