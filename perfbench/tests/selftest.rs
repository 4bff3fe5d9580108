//! Self-tests of the benchmark: its outside counts agree with the
//! simulator's own, its reductions and digests are exact and stable,
//! and its tables match `BENCHMARK.json`.

use orderlight::rng::Rng;
use orderlight_perfbench::digest::{parse_expected, stats_digest, value_digest};
use orderlight_perfbench::op::run_op;
use orderlight_perfbench::ops::{self, key, Workload, KNOWN_INCORRECT};
use orderlight_perfbench::report::{Report, END_TO_END, PER_LAYER};
use orderlight_perfbench::serve::{plan, Expect};
use orderlight_perfbench::sink::StallCycles;
use orderlight_perfbench::speed::SpeedProbe;
use orderlight_perfbench::stats::{geomean, median, percentile};
use orderlight_pim::TsSize;
use orderlight_sim::schema::stats_to_value;
use orderlight_sim::ExecMode;
use orderlight_trace::json::{self, Value};
use orderlight_workloads::{OrderingMode, WorkloadId};
use std::collections::BTreeSet;

/// The sink's summed `CoreStall` run lengths equal the SM stall
/// counters on a point of each sweep, and its packet count equals the
/// controllers' merged-packet counter.
#[test]
fn sink_counts_agree_with_run_stats_on_a_point_of_each_sweep() {
    let fence = ops::spec(
        WorkloadId::Fc,
        ExecMode::Pim(OrderingMode::Fence),
        TsSize::Sixteenth,
        ops::PIM_DATA_KB,
    );
    let ol = ops::spec(
        WorkloadId::Fc,
        ExecMode::Pim(OrderingMode::OrderLight),
        TsSize::Sixteenth,
        ops::PIM_DATA_KB,
    );
    let gpu = ops::spec(WorkloadId::Fc, ExecMode::Gpu, TsSize::Eighth, ops::GPU_LADDER_KB[0]);
    assert!(ops::pim_ordered().contains(&fence) && ops::pim_ordered().contains(&ol));
    assert!(ops::gpu_host().contains(&gpu));
    for spec in [fence, ol, gpu] {
        let run = run_op(&spec, true).expect("the point runs");
        let layers = run.layers.expect("a traced run probes the layers");
        assert!(run.stats.is_correct(), "{}", key(&spec));
        let counted = StallCycles::of_run(&run.stats);
        assert_eq!(layers.counts.sm_stalls(), counted, "{}", key(&spec));
        assert!(run.stats.stall_cycles() > 0, "{}: the point must stall", key(&spec));
        assert_eq!(layers.counts.packets_merged, run.stats.mc.ol_packets, "{}", key(&spec));
        assert!(layers.exec_cycles > 0 && layers.exec_cycles <= run.stats.core_cycles);
    }
}

/// Tracing only observes: a traced op reports the statistics of the
/// untraced one.
#[test]
fn traced_op_digests_equal_untraced() {
    let spec =
        ops::spec(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight), TsSize::Eighth, 8);
    let plain = run_op(&spec, false).expect("runs");
    let traced = run_op(&spec, true).expect("runs");
    assert_eq!(stats_digest(&plain.stats), stats_digest(&traced.stats));
}

#[test]
fn percentile_is_exact_against_sorted_samples() {
    let mut rng = Rng::new(7);
    for n in [1usize, 2, 3, 10, 99, 100, 130, 1000] {
        let mut samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        rng.shuffle(&mut samples);
        for (p, want) in [(0.5, n.div_ceil(2)), (0.9, (9 * n).div_ceil(10)), (1.0, n)] {
            assert_eq!(percentile(&samples, p), Some(want as f64), "n={n} p={p}");
        }
    }
    assert_eq!(percentile(&[100.0, 1.0, 3.0, 2.0], 0.9), Some(100.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0), "lower middle of an even count");
    assert_eq!(median(&[]), None);
}

#[test]
fn geomean_of_ratios() {
    let g = geomean(&[2.0, 8.0]).expect("positive values");
    assert!((g - 4.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
}

/// The speed factor is 1 without samples, positive and finite with
/// them, and each factor covers only the samples since the last one.
#[test]
fn speed_factor_covers_the_samples_since_the_last() {
    let mut probe = SpeedProbe::default();
    assert_eq!(probe.take_factor(), 1.0);
    for _ in 0..3 {
        probe.sample();
    }
    let factor = probe.take_factor();
    assert!(factor.is_finite() && factor > 0.0, "{factor}");
    assert_eq!(probe.take_factor(), 1.0, "the samples were forgotten");
}

#[test]
fn digest_is_stable_across_runs_and_field_orders() {
    let spec = ops::spec(WorkloadId::Scale, ExecMode::Pim(OrderingMode::Fence), TsSize::Eighth, 8);
    let a = run_op(&spec, false).expect("runs");
    let b = run_op(&spec, false).expect("runs");
    assert_eq!(stats_digest(&a.stats), stats_digest(&b.stats), "two runs, one digest");
    // The served path: a reply's stats object parsed back from text.
    let canonical = stats_to_value(&a.stats).to_json();
    let parsed = |text: &str| value_digest(&json::parse(text).expect("parses"));
    assert_eq!(parsed(&canonical), stats_digest(&a.stats));
    // The same object with its top-level keys written in reverse order.
    let Value::Obj(map) = json::parse(&canonical).expect("parses") else { panic!("an object") };
    let reversed: Vec<String> = map
        .iter()
        .rev()
        .map(|(k, v)| format!("{}:{}", Value::Str(k.clone()).to_json(), v.to_json()))
        .collect();
    let reversed = format!("{{ {} }}", reversed.join(", "));
    assert_ne!(reversed, canonical);
    assert_eq!(parsed(&reversed), stats_digest(&a.stats));
    let mut changed = a.stats;
    changed.core_cycles += 1;
    assert_ne!(stats_digest(&changed), stats_digest(&a.stats));
}

#[test]
fn recorded_digests_cover_exactly_the_scenarios_run() {
    for workload in Workload::ALL {
        let expected = orderlight_perfbench::expected(workload).expect("recorded file parses");
        let keys: BTreeSet<String> = workload.scenarios().iter().map(key).collect();
        let recorded: BTreeSet<String> = expected.keys().cloned().collect();
        assert_eq!(keys, recorded, "{}", workload.name());
    }
    assert!(parse_expected("a 0x1\na 0x2\n").is_err(), "duplicate keys are refused");
    assert!(parse_expected("a\n").is_err());
}

#[test]
fn workloads_have_their_documented_points() {
    let specs = ops::pim_ordered();
    assert_eq!(specs.len(), 12 * 4 * 2 + 12 * 3 - KNOWN_INCORRECT.len());
    assert_eq!(ops::gpu_host().len(), 12 * ops::GPU_LADDER_KB.len());
    assert!(ops::gpu_host().len() >= 100);
}

/// The points `pim-ordered` leaves out fail verification on the
/// recorded code. Once this test fails, the simulator computes them
/// correctly: remove them from `KNOWN_INCORRECT` and re-record.
#[test]
fn known_incorrect_points_still_fail_verification() {
    for (workload, mode) in KNOWN_INCORRECT {
        let spec = ops::spec(workload, ExecMode::Pim(mode), TsSize::Eighth, ops::PIM_DATA_KB);
        let run = run_op(&spec, false).expect("runs to completion");
        assert!(
            !run.stats.is_correct(),
            "{} now verifies: put it back into pim-ordered",
            key(&spec)
        );
    }
}

#[test]
fn serve_plan_is_seeded_and_fixes_the_cache_pattern() {
    assert_eq!(plan(5), plan(5));
    assert_ne!(plan(5), plan(6));
    for seed in [0, 1, 99] {
        let clients = plan(seed);
        assert_eq!(clients.len(), 2);
        let mut owners = std::collections::BTreeMap::new();
        let (mut hits, mut misses, mut others) = (0, 0, 0);
        for (c, requests) in clients.iter().enumerate() {
            assert_eq!(requests.len(), 60);
            for r in requests {
                match &r.expect {
                    Expect::Result { key, cached } => {
                        assert_eq!(
                            *owners.entry(key.clone()).or_insert(c),
                            c,
                            "{key} on two clients"
                        );
                        if *cached {
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                    _ => others += 1,
                }
            }
        }
        assert_eq!((misses, hits, others), (24, 72, 24));
    }
}

#[test]
fn report_line_has_the_contract_keys() {
    let mut report = Report::default();
    report.tally(Ok(()));
    for (name, _) in END_TO_END {
        report.set(name, 1.5);
    }
    let line = report.to_json(&END_TO_END).expect("every metric set");
    let doc = json::parse(&line).expect("one JSON object");
    let Value::Obj(map) = &doc else { panic!("an object") };
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    let metric = doc.get("metrics").and_then(|m| m.get("op_p90_ms")).expect("present");
    assert_eq!(metric.get("unit").and_then(Value::as_str), Some("ms"));
    assert!(report.to_json(&PER_LAYER).is_err(), "unset metrics are refused");
}

/// The metric tables and workload names match `BENCHMARK.json`.
#[test]
fn tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |field: &str| -> Vec<(String, String)> {
        doc.get(field)
            .and_then(Value::as_array)
            .expect(field)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::IN_BENCHMARK.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
