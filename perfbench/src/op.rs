//! One simulated op, timed around the calls into the `sim` layer and,
//! on a traced run, probed through the public counters of every layer
//! beneath it.

use crate::digest::stats_digest;
use crate::sink::{CountingSink, SinkCounts, StallCycles};
use orderlight_sim::{RunStats, ScenarioSpec, SimCore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one op produced.
#[derive(Debug, Clone)]
pub struct OpRun {
    /// The run's statistics.
    pub stats: RunStats,
    /// Scenario validation plus `System::build`.
    pub build: Duration,
    /// `System::run_with` on the event core.
    pub run: Duration,
    /// Per-layer observations; present on a traced run only.
    pub layers: Option<LayerProbe>,
}

/// Per-layer observations of one traced op.
#[derive(Debug, Clone, Copy)]
pub struct LayerProbe {
    /// What the counting sink saw.
    pub counts: SinkCounts,
    /// Core cycles the event core executed (its skip boundaries).
    pub exec_cycles: u64,
    /// `System::verify`, timed as its own call after the run.
    pub verify: Duration,
    /// Mean read-queue occupancy, averaged over channels.
    pub mean_read_q: f64,
    /// Mean write-queue occupancy, averaged over channels.
    pub mean_write_q: f64,
    /// DRAM column commands over all channels.
    pub col_cmds: u64,
    /// All-bank refreshes over all channels.
    pub refreshes: u64,
}

impl OpRun {
    /// The op's host latency: build plus run.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.build + self.run
    }
}

/// Builds, runs and (when `traced`) probes one scenario on the event
/// core, on this thread. `ORDERLIGHT_CORE` and `ORDERLIGHT_JOBS` have no
/// say: the core is named and no pool is involved.
///
/// # Errors
/// The build or simulation error, as text.
pub fn run_op(spec: &ScenarioSpec, traced: bool) -> Result<OpRun, String> {
    let start = Instant::now();
    let scenario = spec.build().map_err(|e| format!("config: {e}"))?;
    let mut sys = scenario.system().map_err(|e| e.to_string())?;
    let build = start.elapsed();
    let sink = traced.then(|| Arc::new(CountingSink::default()));
    if let Some(sink) = &sink {
        sys.attach_sink(sink.clone());
        sys.record_skip_boundaries(true);
    }
    let run_start = Instant::now();
    let stats = sys.run_with(scenario.budget(), SimCore::Event).map_err(|e| e.to_string())?;
    let run = run_start.elapsed();
    let layers = sink.map(|sink| {
        let exec_cycles = sys.take_skip_boundaries().len() as u64;
        let verify_start = Instant::now();
        std::hint::black_box(sys.verify());
        let verify = verify_start.elapsed();
        let mcs = sys.controllers();
        #[allow(clippy::cast_precision_loss)]
        let channels = mcs.len().max(1) as f64;
        let (read_q, write_q) = mcs.iter().fold((0.0, 0.0), |(r, w), mc| {
            let (mr, mw) = mc.mean_queue_occupancy();
            (r + mr, w + mw)
        });
        LayerProbe {
            counts: sink.counts(),
            exec_cycles,
            verify,
            mean_read_q: read_q / channels,
            mean_write_q: write_q / channels,
            col_cmds: mcs.iter().map(|mc| mc.channel().col_commands()).sum(),
            refreshes: mcs.iter().map(|mc| mc.channel().refreshes()).sum(),
        }
    });
    Ok(OpRun { stats, build, run, layers })
}

/// Checks one op's output: the run verified against the golden model,
/// its statistics digest equals the recorded one, and on a traced run
/// the sink's stall run lengths sum to the SM's stall counters.
///
/// # Errors
/// Says what did not match.
pub fn check_op(key: &str, run: &OpRun, expected: &BTreeMap<String, u64>) -> Result<(), String> {
    if !run.stats.is_correct() {
        return Err(format!(
            "{key}: verification failed ({} of {} stripes wrong)",
            run.stats.verified_mismatches,
            run.stats.verified_matches + run.stats.verified_mismatches
        ));
    }
    check_digest(key, stats_digest(&run.stats), expected)?;
    if let Some(layers) = &run.layers {
        let (seen, counted) = (layers.counts.sm_stalls(), StallCycles::of_run(&run.stats));
        if seen != counted {
            return Err(format!("{key}: sink stalls {seen:?} != SM stall counters {counted:?}"));
        }
    }
    Ok(())
}

/// Checks a digest against the recorded one for `key`.
///
/// # Errors
/// Says whether the key is unrecorded or the digest differs.
pub fn check_digest(
    key: &str,
    digest: u64,
    expected: &BTreeMap<String, u64>,
) -> Result<(), String> {
    match expected.get(key) {
        None => Err(format!("{key}: no recorded digest")),
        Some(&want) if want != digest => {
            Err(format!("{key}: stats digest {digest:#018x}, recorded {want:#018x}"))
        }
        Some(_) => Ok(()),
    }
}
