//! The batch workloads, `pim-ordered` and `gpu-host`: one op at a time,
//! closed, on this thread. Each pass runs every op once in the seed's
//! order, with a host speed probe after each op, and divides its host
//! times by the speed factor the probe measured over the pass (see
//! [`crate::speed`]); a run repeats passes until its time is spent and
//! reports per-pass sums and pooled percentiles, reduced by their median.

use crate::layers::{millis, CodecTimes, LayerCounts};
use crate::op::{check_op, run_op};
use crate::ops::{self, key, Workload};
use crate::report::{peak_rss_mb, Report, PER_LAYER};
use crate::speed::SpeedProbe;
use crate::stats::{geomean, median, percentile};
use orderlight_sim::{RunStats, ScenarioSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Untraced passes every run makes, however long they take.
pub const MIN_PASSES: usize = 3;
/// Traced rounds every traced run makes, so their counts can be
/// compared.
pub const MIN_TRACED_ROUNDS: usize = 2;

/// The run's time budget.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    budget: Duration,
}

impl Clock {
    /// A budget of `seconds`, starting now.
    #[must_use]
    pub fn new(seconds: u64) -> Clock {
        Clock { start: Instant::now(), budget: Duration::from_secs(seconds) }
    }

    /// Whether to start another pass after `done` passes, the last of
    /// which took `last`: always below `min`, else only if one more
    /// such pass still ends inside the budget.
    #[must_use]
    pub fn another(&self, done: usize, min: usize, last: Duration) -> bool {
        done < min || self.start.elapsed() + last <= self.budget
    }
}

/// Host time of one untraced pass, on the nominal host.
#[derive(Debug, Default, Clone)]
pub struct PlainPass {
    /// Summed op set-up (scenario validation plus `System::build`).
    pub setup: Duration,
    /// Summed `run_with` time.
    pub run: Duration,
    /// Summed simulated core cycles.
    pub cycles: u64,
    /// Per-op latency (set-up plus run), ms.
    pub latencies_ms: Vec<f64>,
    /// Each op's statistics by key.
    pub stats: BTreeMap<String, RunStats>,
    /// The host's speed factor over the pass; the times above are
    /// already divided by it.
    pub speed: f64,
}

impl PlainPass {
    /// The pass's host time: set-up plus run over its ops.
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.setup + self.run
    }

    fn normalize(&mut self, speed: f64) {
        self.speed = speed;
        self.setup = self.setup.div_f64(speed);
        self.run = self.run.div_f64(speed);
        for latency in &mut self.latencies_ms {
            *latency /= speed;
        }
    }
}

/// Runs every op of `order` once, untraced, checking each.
pub fn plain_pass(
    order: &[ScenarioSpec],
    expected: &BTreeMap<String, u64>,
    report: &mut Report,
    probe: &mut SpeedProbe,
) -> PlainPass {
    let mut pass = PlainPass::default();
    for spec in order {
        let key = key(spec);
        let outcome = run_op(spec, false).map_err(|e| format!("{key}: {e}")).and_then(|run| {
            pass.setup += run.build;
            pass.run += run.run;
            pass.cycles += run.stats.core_cycles;
            pass.latencies_ms.push(millis(run.latency()));
            pass.stats.insert(key.clone(), run.stats);
            check_op(&key, &run, expected)
        });
        report.tally(outcome);
        probe.sample();
    }
    pass.normalize(probe.take_factor());
    pass
}

/// What one traced pass measured; times on the nominal host.
#[derive(Debug, Default, Clone)]
pub struct TracedPass {
    /// Exact per-layer counts.
    pub counts: LayerCounts,
    /// Summed `System::verify` time.
    pub verify: Duration,
    /// Set-up plus run with the counting sink attached.
    pub wall: Duration,
    /// Codec timings over the pass's ops.
    pub codec: CodecTimes,
}

/// Runs every op of `order` once with the counting sink attached,
/// checking each (including stall conservation) and timing the codecs
/// on it.
pub fn traced_pass(
    order: &[ScenarioSpec],
    expected: &BTreeMap<String, u64>,
    report: &mut Report,
    probe: &mut SpeedProbe,
) -> TracedPass {
    let mut pass = TracedPass::default();
    for spec in order {
        let key = key(spec);
        let outcome = run_op(spec, true).map_err(|e| format!("{key}: {e}")).and_then(|run| {
            pass.wall += run.latency();
            pass.counts.add(&run);
            pass.verify += run.layers.as_ref().map_or(Duration::ZERO, |l| l.verify);
            check_op(&key, &run, expected)?;
            pass.codec.time(spec, &run.stats).map_err(|e| format!("{key}: {e}"))
        });
        report.tally(outcome);
        probe.sample();
    }
    let speed = probe.take_factor();
    pass.wall = pass.wall.div_f64(speed);
    pass.verify = pass.verify.div_f64(speed);
    pass.codec.scale(1.0 / speed);
    pass
}

/// The geomean over `pairs` of the first scenario's simulated execution
/// time over the second's, with times looked up by scenario key.
#[must_use]
pub fn speedup_geomean(
    pairs: &[(ScenarioSpec, ScenarioSpec)],
    exec_ms: impl Fn(&str) -> Option<f64>,
) -> Option<f64> {
    let ratios: Option<Vec<f64>> = pairs
        .iter()
        .map(|(slow, fast)| Some(exec_ms(&key(slow))? / exec_ms(&key(fast))?))
        .collect();
    geomean(&ratios?)
}

/// Logs each pass's wall time as measured, its speed factor and its
/// wall time on the nominal host.
pub fn log_passes(passes: impl Iterator<Item = (Duration, f64)>) {
    let mut lines = [String::new(), String::new(), String::new()];
    for (wall, speed) in passes {
        let wall = wall.as_secs_f64();
        lines[0] += &format!(" {:.3}", wall * speed);
        lines[1] += &format!(" {speed:.3}");
        lines[2] += &format!(" {wall:.3}");
    }
    eprintln!("pass wall_s as measured:  {}", lines[0]);
    eprintln!("pass host speed factor:   {}", lines[1]);
    eprintln!("pass wall_s, nominal host:{}", lines[2]);
}

/// Sets the end-to-end metrics of a batch workload from its passes.
fn fill_end_to_end(report: &mut Report, passes: &[PlainPass]) {
    let med = |f: &dyn Fn(&PlainPass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.set("setup_s", med(&|p| p.setup.as_secs_f64()));
    report.set("wall_s", med(&|p| p.wall().as_secs_f64()));
    #[allow(clippy::cast_precision_loss)]
    report.set("sim_mcycles_per_s", med(&|p| p.cycles as f64 / p.run.as_secs_f64() / 1e6));
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
    report.set("op_p50_ms", percentile(&latencies, 0.5).unwrap_or(0.0));
    report.set("op_p90_ms", percentile(&latencies, 0.9).unwrap_or(0.0));
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
}

/// Runs `pim-ordered` or `gpu-host` for `seconds`.
///
/// # Errors
/// When the recorded expectations cannot be read.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let specs = match workload {
        Workload::PimOrdered => ops::pim_ordered(),
        Workload::GpuHost => ops::gpu_host(),
        Workload::ServeMixed => return Err("serve-mixed is not a sweep".to_string()),
    };
    let order = ops::shuffled(&specs, seed);
    let expected = crate::expected(workload)?;
    let clock = Clock::new(seconds);
    let mut report = Report::default();
    let mut probe = SpeedProbe::default();
    if trace {
        traced_rounds(&order, &expected, &clock, &mut report, &mut probe);
        // The sweeps have no service layer.
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("service.")) {
            report.set(name, 0.0);
        }
        return Ok(report);
    }
    let mut passes: Vec<PlainPass> = Vec::new();
    let mut last = Duration::ZERO;
    while clock.another(passes.len(), MIN_PASSES, last) {
        let round = Instant::now();
        passes.push(plain_pass(&order, &expected, &mut report, &mut probe));
        last = round.elapsed();
    }
    log_passes(passes.iter().map(|p| (p.wall(), p.speed)));
    fill_end_to_end(&mut report, &passes);
    let mut stats = passes[0].stats.clone();
    let pairs = match workload {
        Workload::GpuHost => {
            // The OrderLight side of each reference runs once, outside
            // the timed passes, so `gpu-host` times no PIM work.
            let pairs = ops::gpu_references();
            for (_, ol) in &pairs {
                let key = key(ol);
                let outcome = run_op(ol, false).map_err(|e| format!("{key}: {e}")).and_then(|r| {
                    stats.insert(key.clone(), r.stats);
                    check_op(&key, &r, &expected)
                });
                report.tally(outcome);
            }
            pairs
        }
        _ => ops::pim_pairs(),
    };
    let exec_ms = |k: &str| stats.get(k).map(|s| s.exec_time_ms);
    report.set("ol_speedup_geomean", speedup_geomean(&pairs, exec_ms).unwrap_or(0.0));
    Ok(report)
}

/// The traced run: rounds of one untraced and one traced pass. Times
/// come from the untraced passes (`verify` from the traced ones, where
/// it is a call of its own), exact counts from the traced passes, which
/// must all agree.
pub fn traced_rounds(
    order: &[ScenarioSpec],
    expected: &BTreeMap<String, u64>,
    clock: &Clock,
    report: &mut Report,
    probe: &mut SpeedProbe,
) {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = Duration::ZERO;
    while clock.another(traced.len(), MIN_TRACED_ROUNDS, last) {
        let round = Instant::now();
        let (p, t) = traced_round(order, expected, report, probe, traced.len());
        plain.push(p);
        traced.push(t);
        last = round.elapsed();
    }
    fill_traced(report, &plain, &traced);
}

/// Round `n` of a traced run: an untraced and a traced pass over
/// `order`. Odd rounds run the traced pass first, so neither kind always
/// starts from the cache state the other left behind.
pub fn traced_round(
    order: &[ScenarioSpec],
    expected: &BTreeMap<String, u64>,
    report: &mut Report,
    probe: &mut SpeedProbe,
    n: usize,
) -> (PlainPass, TracedPass) {
    if n % 2 == 1 {
        let traced = traced_pass(order, expected, report, probe);
        (plain_pass(order, expected, report, probe), traced)
    } else {
        let plain = plain_pass(order, expected, report, probe);
        (plain, traced_pass(order, expected, report, probe))
    }
}

/// Sets the simulator-layer, codec and overhead metrics of a traced run
/// from its rounds.
pub fn fill_traced(report: &mut Report, plain: &[PlainPass], traced: &[TracedPass]) {
    if traced.iter().any(|t| t.counts != traced[0].counts) {
        report.fail("per-layer counts differ between traced passes of the same ops".to_string());
    }
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    let counts = &traced[0].counts;
    counts.fill(report);
    report.set("host.speed_factor", med(plain.iter().map(|p| p.speed).collect()));
    report.set("sim.build_ms", med(plain.iter().map(|p| millis(p.setup)).collect()));
    let run_ms = med(plain.iter().map(|p| millis(p.run)).collect());
    report.set("sim.run_ms", run_ms);
    #[allow(clippy::cast_precision_loss)]
    let per_cycle =
        if counts.exec_cycles == 0 { 0.0 } else { run_ms * 1e6 / counts.exec_cycles as f64 };
    report.set("sim.ns_per_exec_cycle", per_cycle);
    report.set("workloads.verify_ms", med(traced.iter().map(|t| millis(t.verify)).collect()));
    let plain_wall = med(plain.iter().map(|p| p.wall().as_secs_f64()).collect());
    let traced_wall = med(traced.iter().map(|t| t.wall.as_secs_f64()).collect());
    report.set("trace.overhead_ratio", traced_wall / plain_wall);
    let mut codec = CodecTimes::default();
    for t in traced {
        codec.parse_us.extend(&t.codec.parse_us);
        codec.hash_us.extend(&t.codec.hash_us);
        codec.to_json_us.extend(&t.codec.to_json_us);
    }
    codec.fill(report);
}
