//! Per-layer totals of a traced pass, and the per-layer metrics made
//! from them. Layers are named by module: `sim`, `workloads`, `gpu`,
//! `noc`, `memctrl`, `hbm`, `pim`, `sim.service`, `schema` and `trace`.

use crate::op::OpRun;
use crate::report::Report;
use crate::sink::{SinkCounts, StallCycles};
use crate::stats::median;
use orderlight_sim::schema::stats_to_value;
use orderlight_sim::{RunStats, ScenarioSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Exact per-layer counts summed over the ops of one traced pass. Two
/// traced passes over the same ops must agree on every field.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerCounts {
    /// Ops summed.
    pub ops: u64,
    /// Simulated core cycles.
    pub core_cycles: u64,
    /// Core cycles the event core executed.
    pub exec_cycles: u64,
    /// Output stripes compared against the golden model.
    pub stripes_verified: u64,
    /// What the counting sink saw.
    pub sink: SinkCounts,
    /// Instructions the SMs issued.
    pub issued: u64,
    /// SM stall cycles per counter.
    pub stalls: StallCycles,
    /// OrderLight packets merged at the controllers.
    pub ol_packets: u64,
    /// Fence acknowledgements.
    pub fence_acks: u64,
    /// Host reads serviced.
    pub host_reads: u64,
    /// Host writes serviced.
    pub host_writes: u64,
    /// Summed host-read service latency, memory cycles.
    pub host_read_latency_sum: u64,
    /// Row activations.
    pub activates: u64,
    /// Column commands.
    pub col_cmds: u64,
    /// All-bank refreshes.
    pub refreshes: u64,
    /// PIM commands.
    pub pim_commands: u64,
    /// PIM-internal bytes moved.
    pub pim_data_bytes: u64,
    /// Per-op mean (read, write) queue occupancies.
    pub queue_means: Vec<(f64, f64)>,
}

impl LayerCounts {
    /// Adds one traced op.
    ///
    /// # Panics
    /// If `run` was not traced: that is a bug in the benchmark.
    pub fn add(&mut self, run: &OpRun) {
        let layers = run.layers.as_ref().expect("a traced op");
        let s = &run.stats;
        self.ops += 1;
        self.core_cycles += s.core_cycles;
        self.exec_cycles += layers.exec_cycles;
        self.stripes_verified += s.verified_matches + s.verified_mismatches;
        self.sink.add(&layers.counts);
        self.issued += s.sm.issued;
        let st = StallCycles::of_run(s);
        self.stalls.fence += st.fence;
        self.stalls.ol += st.ol;
        self.stalls.reg += st.reg;
        self.stalls.structural += st.structural;
        self.stalls.credit += st.credit;
        self.ol_packets += s.mc.ol_packets;
        self.fence_acks += s.mc.fence_acks;
        self.host_reads += s.mc.host_reads;
        self.host_writes += s.mc.host_writes;
        self.host_read_latency_sum += s.mc.host_read_latency_sum;
        self.activates += s.mc.activates;
        self.col_cmds += layers.col_cmds;
        self.refreshes += layers.refreshes;
        self.pim_commands += s.mc.pim_commands;
        self.pim_data_bytes += s.pim_data_bytes;
        self.queue_means.push((layers.mean_read_q, layers.mean_write_q));
    }

    /// Mean over ops of the per-op mean (read, write) queue occupancy,
    /// summed in sorted order so the op order cannot change a digit.
    #[must_use]
    pub fn mean_queues(&self) -> (f64, f64) {
        let mean = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            #[allow(clippy::cast_precision_loss)]
            let n = v.len().max(1) as f64;
            v.iter().sum::<f64>() / n
        };
        (
            mean(self.queue_means.iter().map(|q| q.0).collect()),
            mean(self.queue_means.iter().map(|q| q.1).collect()),
        )
    }

    /// Sets every simulator-layer metric (`sim` counts, `workloads`
    /// stripes, `gpu`, `noc`, `memctrl`, `hbm`, `pim`) on `report`.
    #[allow(clippy::cast_precision_loss)]
    pub fn fill(&self, report: &mut Report) {
        let n = |v: u64| v as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.set("sim.exec_cycles", n(self.exec_cycles));
        report.set("sim.exec_ratio", ratio(self.exec_cycles, self.core_cycles));
        report.set("workloads.stripes_verified", n(self.stripes_verified));
        report.set("gpu.issued", n(self.issued));
        report.set("gpu.stall_cycles.fence", n(self.stalls.fence));
        report.set("gpu.stall_cycles.ol", n(self.stalls.ol));
        report.set("gpu.stall_cycles.reg", n(self.stalls.reg));
        report.set("gpu.stall_cycles.structural", n(self.stalls.structural));
        report.set("gpu.stall_cycles.credit", n(self.stalls.credit));
        report.set("noc.req_enqueued", n(self.sink.req_enqueued));
        report.set("noc.packets_merged", n(self.sink.packets_merged));
        report.set("memctrl.sched_decisions", n(self.sink.sched_decisions));
        let (read_q, write_q) = self.mean_queues();
        report.set("memctrl.mean_read_q", read_q);
        report.set("memctrl.mean_write_q", write_q);
        report.set("memctrl.ol_packets", n(self.ol_packets));
        report.set("memctrl.fence_acks", n(self.fence_acks));
        report.set("memctrl.host_reads", n(self.host_reads));
        report.set("memctrl.host_writes", n(self.host_writes));
        report.set(
            "memctrl.host_read_latency_mean",
            ratio(self.host_read_latency_sum, self.host_reads),
        );
        report.set("hbm.activates", n(self.activates));
        report.set("hbm.col_cmds", n(self.col_cmds));
        let hit = if self.col_cmds == 0 { 0.0 } else { 1.0 - ratio(self.activates, self.col_cmds) };
        report.set("hbm.row_hit_ratio", hit);
        report.set("hbm.refreshes", n(self.refreshes));
        report.set("pim.commands", n(self.pim_commands));
        report.set("pim.data_bytes", n(self.pim_data_bytes));
    }
}

/// How often each codec call is repeated per op, so one timed batch
/// spans tens of microseconds rather than a clock tick.
const CODEC_REPS: u32 = 32;

/// Per-call host time of the wire codecs over a workload's ops.
#[derive(Debug, Default, Clone)]
pub struct CodecTimes {
    /// `ScenarioSpec::parse_str` of the op's scenario document, µs.
    pub parse_us: Vec<f64>,
    /// `Scenario::canonical_hash`, µs.
    pub hash_us: Vec<f64>,
    /// `stats_to_value(..).to_json()`, µs.
    pub to_json_us: Vec<f64>,
}

impl CodecTimes {
    /// Times the three codecs on one op.
    ///
    /// # Errors
    /// When the scenario document does not parse back or build.
    pub fn time(&mut self, spec: &ScenarioSpec, stats: &RunStats) -> Result<(), String> {
        let text = spec.to_value().to_json();
        let scenario = spec.build().map_err(|e| format!("config: {e}"))?;
        let per_call = |f: &mut dyn FnMut()| {
            let start = Instant::now();
            for _ in 0..CODEC_REPS {
                f();
            }
            micros(start.elapsed()) / f64::from(CODEC_REPS)
        };
        let mut parsed = Ok(*spec);
        self.parse_us.push(per_call(&mut || parsed = ScenarioSpec::parse_str(black_box(&text))));
        if parsed.as_ref() != Ok(spec) {
            return Err(format!("scenario document does not parse back: {parsed:?}"));
        }
        self.hash_us.push(per_call(&mut || {
            black_box(black_box(&scenario).canonical_hash());
        }));
        self.to_json_us.push(per_call(&mut || {
            black_box(stats_to_value(black_box(stats)).to_json());
        }));
        Ok(())
    }

    /// Multiplies every time by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for t in self.parse_us.iter_mut().chain(&mut self.hash_us).chain(&mut self.to_json_us) {
            *t *= factor;
        }
    }

    /// Sets the `schema`, `scenario` and `trace` codec metrics: the
    /// median per-call time over every op timed.
    pub fn fill(&self, report: &mut Report) {
        report.set("schema.parse_us", median(&self.parse_us).unwrap_or(0.0));
        report.set("scenario.hash_us", median(&self.hash_us).unwrap_or(0.0));
        report.set("trace.to_json_us", median(&self.to_json_us).unwrap_or(0.0));
    }
}

/// A duration in milliseconds.
#[must_use]
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
#[must_use]
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
