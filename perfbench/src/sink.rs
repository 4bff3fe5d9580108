//! The counting trace sink of the traced run: counts the events the
//! per-layer metrics need and sums `CoreStall` run lengths per cause,
//! without storing any event.

use orderlight_sim::RunStats;
use orderlight_trace::{StallCause, TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts events as the simulator emits them. Every counter is a
/// statistic that publishes no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct CountingSink {
    req_enqueued: AtomicU64,
    packets_merged: AtomicU64,
    sched_decisions: AtomicU64,
    stall_cycles: [AtomicU64; StallCause::ALL.len()],
}

/// A snapshot of a [`CountingSink`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SinkCounts {
    /// `ReqEnqueued`: requests that reached a controller's queues.
    pub req_enqueued: u64,
    /// `PacketMerged`: OrderLight packets whose copies converged.
    pub packets_merged: u64,
    /// `SchedDecision`: FR-FCFS picks into a command queue.
    pub sched_decisions: u64,
    /// Summed `CoreStall` run lengths, indexed by `StallCause as usize`.
    pub stall_cycles: [u64; StallCause::ALL.len()],
}

impl TraceSink for CountingSink {
    fn emit(&self, event: TraceEvent) {
        let (counter, n) = match event {
            TraceEvent::ReqEnqueued { .. } => (&self.req_enqueued, 1),
            TraceEvent::PacketMerged { .. } => (&self.packets_merged, 1),
            TraceEvent::SchedDecision { .. } => (&self.sched_decisions, 1),
            TraceEvent::CoreStall { cause, cycles, .. } => {
                (&self.stall_cycles[cause as usize], cycles)
            }
            _ => return,
        };
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl CountingSink {
    /// The counts so far.
    #[must_use]
    pub fn counts(&self) -> SinkCounts {
        SinkCounts {
            req_enqueued: self.req_enqueued.load(Ordering::Relaxed),
            packets_merged: self.packets_merged.load(Ordering::Relaxed),
            sched_decisions: self.sched_decisions.load(Ordering::Relaxed),
            stall_cycles: std::array::from_fn(|i| self.stall_cycles[i].load(Ordering::Relaxed)),
        }
    }
}

/// Core stall cycles per SM counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StallCycles {
    /// Fence wait and fence drain.
    pub fence: u64,
    /// OrderLight injection spacing.
    pub ol: u64,
    /// Operand read-after-write interlock.
    pub reg: u64,
    /// Operand collector or LDST queue full.
    pub structural: u64,
    /// Sequence-number credits exhausted.
    pub credit: u64,
}

impl StallCycles {
    /// The stall counters a run reports.
    #[must_use]
    pub fn of_run(stats: &RunStats) -> StallCycles {
        StallCycles {
            fence: stats.sm.fence_stall_cycles,
            ol: stats.sm.ol_wait_cycles,
            reg: stats.sm.reg_wait_cycles,
            structural: stats.sm.structural_stall_cycles,
            credit: stats.sm.credit_wait_cycles,
        }
    }
}

impl SinkCounts {
    /// Stall cycles grouped the way the SM counts them: both fence
    /// causes charge the SM's fence counter.
    #[must_use]
    pub fn sm_stalls(&self) -> StallCycles {
        let c = |cause: StallCause| self.stall_cycles[cause as usize];
        StallCycles {
            fence: c(StallCause::FenceWait) + c(StallCause::FenceDrain),
            ol: c(StallCause::OlWait),
            reg: c(StallCause::RegWait),
            structural: c(StallCause::Structural),
            credit: c(StallCause::CreditWait),
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SinkCounts) {
        self.req_enqueued += other.req_enqueued;
        self.packets_merged += other.packets_merged;
        self.sched_decisions += other.sched_decisions;
        for (a, b) in self.stall_cycles.iter_mut().zip(other.stall_cycles) {
            *a += b;
        }
    }
}
