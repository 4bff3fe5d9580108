//! The benchmark's result line: every metric by name and unit, plus
//! the op accounting, as one canonical JSON object.

use orderlight_trace::json::Value;
use std::collections::BTreeMap;

/// The end-to-end metrics a `--trace 0` run prints, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ol_speedup_geomean", "x"),
];

/// The per-layer metrics a `--trace 1` run prints, with their units.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.exec_cycles", "count"),
    ("sim.exec_ratio", "ratio"),
    ("sim.ns_per_exec_cycle", "ns"),
    ("workloads.verify_ms", "ms"),
    ("workloads.stripes_verified", "count"),
    ("gpu.issued", "count"),
    ("gpu.stall_cycles.fence", "cycles"),
    ("gpu.stall_cycles.ol", "cycles"),
    ("gpu.stall_cycles.reg", "cycles"),
    ("gpu.stall_cycles.structural", "cycles"),
    ("gpu.stall_cycles.credit", "cycles"),
    ("noc.req_enqueued", "count"),
    ("noc.packets_merged", "count"),
    ("memctrl.sched_decisions", "count"),
    ("memctrl.mean_read_q", "entries"),
    ("memctrl.mean_write_q", "entries"),
    ("memctrl.ol_packets", "count"),
    ("memctrl.fence_acks", "count"),
    ("memctrl.host_reads", "count"),
    ("memctrl.host_writes", "count"),
    ("memctrl.host_read_latency_mean", "mem_cycles"),
    ("hbm.activates", "count"),
    ("hbm.col_cmds", "count"),
    ("hbm.row_hit_ratio", "ratio"),
    ("hbm.refreshes", "count"),
    ("pim.commands", "count"),
    ("pim.data_bytes", "bytes"),
    ("service.parse_us", "us"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.serialize_us", "us"),
    ("service.write_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.client_overhead_ms", "ms"),
    ("schema.parse_us", "us"),
    ("scenario.hash_us", "us"),
    ("trace.to_json_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("host.speed_factor", "x"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed: a simulation error or a wrong output.
    pub failed: u64,
    /// Failure messages, for the log.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one op's check.
    pub fn tally(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            self.failures.push(message);
        }
    }

    /// Records a failure that belongs to no single op, counted against
    /// the ops already attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// Sets a metric. The name must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    ///
    /// # Panics
    /// On an unknown name: that is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// The metric's value, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The result line: `{"attempted":..,"correct":..,"failed":..,
    /// "metrics":{NAME:{"unit":..,"value":..}}}` over exactly the
    /// metrics of `table`.
    ///
    /// # Errors
    /// Names a metric of `table` that was never set or is not finite.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for &(name, unit) in table {
            let value = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Value::Num(value));
            m.insert("unit".to_string(), Value::Str(unit.to_string()));
            metrics.insert(name.to_string(), Value::Obj(m));
        }
        let mut doc = BTreeMap::new();
        doc.insert("correct".to_string(), Value::Bool(self.failed == 0 && self.attempted > 0));
        #[allow(clippy::cast_precision_loss)]
        doc.insert("attempted".to_string(), Value::Num(self.attempted as f64));
        #[allow(clippy::cast_precision_loss)]
        doc.insert("failed".to_string(), Value::Num(self.failed as f64));
        doc.insert("metrics".to_string(), Value::Obj(metrics));
        Ok(Value::Obj(doc).to_json())
    }
}

/// The unit of a known metric.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// Peak resident memory of this process in MB (`VmHWM`), when the
/// platform reports it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
