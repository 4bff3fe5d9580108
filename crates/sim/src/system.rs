//! System assembly and the dual-clock simulation loop.
//!
//! [`System::run`] executes on one of two bit-identical cores (see
//! `DESIGN.md`, "Quiescence contract"): the dense [`System::step_cycle`]
//! loop, or the event-driven calendar loop (`run_event`) that keeps one
//! pending wake-up cycle per component in a [`Calendar`] bucket queue,
//! jumps the clocks straight to the earliest one, and touches only the
//! components due (or woken) on each executed cycle — every other
//! component catches up lazily in closed form when it is next involved.

use crate::calendar::Calendar;
use crate::config::{ExecMode, ExperimentConfig};
use crate::core_select::{resolve_core, SimCore};
use crate::stats::RunStats;
use orderlight::fault::{FaultLayer, FaultPlan};
use orderlight::types::{ChannelId, CoreCycle, GlobalWarpId, MemCycle, MemGroupId};
use orderlight::{ConfigError, InstrStream, MemReq, NextEvent};
use orderlight_gpu::{Sm, SmStats, Warp};
use orderlight_hbm::Channel;
use orderlight_memctrl::{McConfig, McStats, MemoryController};
use orderlight_noc::MemoryPipe;
use orderlight_pim::PimUnit;
use orderlight_workloads::WorkloadInstance;
use std::error::Error;
use std::fmt;

/// Requests an SM may hand to the pipes per core cycle.
const LDST_DRAIN_PER_CYCLE: usize = 2;
/// Requests a pipe may hand to its controller per core cycle.
const MC_INGEST_PER_CYCLE: usize = 2;

/// A simulation failure (deadlock / cycle-budget exhaustion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    message: String,
}

impl SimError {
    fn new(message: impl Into<String>) -> Self {
        SimError { message: message.into() }
    }

    /// Wraps a configuration problem as a simulation error — used by
    /// harness crates that fold a build failure into the run's error
    /// channel.
    #[must_use]
    pub fn config(message: impl Into<String>) -> Self {
        SimError::new(message)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.message)
    }
}

impl Error for SimError {}

/// The assembled system under test.
pub struct System {
    exp: ExperimentConfig,
    instance: WorkloadInstance,
    sms: Vec<Sm>,
    pipes: Vec<MemoryPipe>,
    mcs: Vec<MemoryController>,
    now: CoreCycle,
    mem_now: MemCycle,
    clock_acc: u64,
    core_hz: u64,
    mem_hz: u64,
    /// When recording, the core cycles the event core executed densely
    /// (the boundaries of its skipped windows). `None` = off.
    skip_log: Option<Vec<CoreCycle>>,
}

/// Scratch state of one event-core run: the calendar of per-component
/// wake-ups, each component's lazy sync point (the first cycle of its
/// clock domain not yet accounted to it), and the per-cycle due/touched
/// masks. Component ids are `0..sms`, then pipes, then controllers.
struct EventState {
    cal: Calendar,
    due: Vec<u32>,
    sm_synced: Vec<CoreCycle>,
    pipe_synced: Vec<CoreCycle>,
    mc_synced: Vec<MemCycle>,
    due_sm: Vec<bool>,
    due_pipe: Vec<bool>,
    touched_sm: Vec<bool>,
    touched_pipe: Vec<bool>,
    touched_mc: Vec<bool>,
    pushed_pipe: Vec<bool>,
    delivered_sm: Vec<bool>,
}

impl System {
    /// Builds the system for an experiment: constructs the workload
    /// instance, pins one warp per channel across the configured SMs,
    /// and initialises the DRAM functional stores with the input data.
    ///
    /// # Errors
    /// Returns [`ConfigError`] if the experiment is inconsistent.
    pub fn build(exp: ExperimentConfig) -> Result<System, ConfigError> {
        exp.validate()?;
        let sys = &exp.system;
        // Host data interleaves across the group's banks for bank-level
        // parallelism and is processed by all configured warps; PIM uses
        // the paper's single-bank placement and one warp per channel.
        let total_warps = sys.sms_used * sys.warps_per_sm;
        let (interleave, host_slices) = match exp.mode {
            ExecMode::Gpu => {
                (sys.groups.banks_per_group() as u64, (total_warps / sys.channels).max(1) as u64)
            }
            ExecMode::Pim(_) => (1, 1),
        };
        let instance = WorkloadInstance::with_placement(
            exp.workload,
            sys.mapping.clone(),
            &sys.groups,
            exp.ts_stripes(),
            exp.stripes_per_channel(),
            match exp.mode {
                ExecMode::Gpu => orderlight_workloads::OrderingMode::None,
                ExecMode::Pim(mode) => mode,
            },
            interleave,
            host_slices,
        );
        Self::assemble(exp, instance)
    }

    /// Builds the system around a caller-supplied workload instance —
    /// the entry point for *custom* kernels built with
    /// [`orderlight_workloads::KernelBuilder`] and instantiated via
    /// [`WorkloadInstance::custom`]. Only PIM execution modes are
    /// supported (custom host baselines would need the instance's slice
    /// placement to match the SM allocation), and the instance's
    /// ordering mode must agree with the experiment's.
    ///
    /// # Errors
    /// Returns [`ConfigError`] on mode mismatch or an invalid system.
    pub fn build_custom(
        exp: ExperimentConfig,
        instance: WorkloadInstance,
    ) -> Result<System, ConfigError> {
        exp.system.validate()?;
        let ExecMode::Pim(mode) = exp.mode else {
            return Err(ConfigError::new("custom kernels support PIM modes only"));
        };
        if instance.mode() != mode {
            return Err(ConfigError::new(
                "the instance's ordering mode must match the experiment's",
            ));
        }
        Self::assemble(exp, instance)
    }

    /// Wires SMs, pipes and controllers around `instance`.
    fn assemble(exp: ExperimentConfig, instance: WorkloadInstance) -> Result<System, ConfigError> {
        let sys = &exp.system;
        let total_warps = sys.sms_used * sys.warps_per_sm;
        let warp_count = match exp.mode {
            ExecMode::Gpu => (total_warps / sys.channels).max(1) * sys.channels,
            ExecMode::Pim(_) => sys.channels,
        };
        // The sequence-number baseline gates the core on buffer credits
        // and makes the controller dequeue/issue strictly in order.
        let seq_mode =
            matches!(exp.mode, ExecMode::Pim(orderlight_workloads::OrderingMode::SeqNum));
        let sm_cfg =
            orderlight_gpu::SmConfig { credits: seq_mode.then_some(exp.seq_credits), ..sys.sm };
        // Map the workload's ordering mode onto the controller backend
        // (see [`ExecMode::ordering_backend`] for the full table).
        let ordering = exp.mode.ordering_backend();

        // Warp w drives channel w % channels (slice w / channels when
        // several warps cooperate per channel), packed across the SMs.
        let mut sms = Vec::with_capacity(sys.sms_used);
        let mut w = 0usize;
        for sm_idx in 0..sys.sms_used {
            let mut warps = Vec::new();
            for warp_idx in 0..sys.warps_per_sm {
                if w >= warp_count {
                    break;
                }
                let channel = ChannelId((w % sys.channels) as u8);
                let slice = (w / sys.channels) as u64;
                let program: Box<dyn InstrStream> = match exp.mode {
                    ExecMode::Gpu => Box::new(instance.host_stream_slice(channel, slice)),
                    ExecMode::Pim(_) => Box::new(instance.pim_stream(channel)),
                };
                warps.push(Warp::new(GlobalWarpId::new(sm_idx, warp_idx), channel, program));
                w += 1;
            }
            sms.push(Sm::new(sm_cfg, warps));
        }

        let mut pipes = Vec::with_capacity(sys.channels);
        let mut mcs = Vec::with_capacity(sys.channels);
        for ch in 0..sys.channels {
            pipes.push(MemoryPipe::new(&sys.pipe));
            let channel = Channel::with_refresh(
                sys.timing,
                sys.banks_per_channel,
                sys.row_bytes as usize,
                sys.refresh,
            );
            let pim = PimUnit::new(exp.ts_size, sys.row_bytes, exp.bmf);
            let mc_cfg = McConfig {
                mapping: sys.mapping.clone(),
                groups: sys.groups.clone(),
                ordering,
                ..sys.mc.clone()
            };
            let mut mc = MemoryController::new(mc_cfg, channel, pim);
            // Input data into the functional store.
            for (addr, value) in instance.init_data(ChannelId(ch as u8)) {
                let loc = sys.mapping.decode(addr);
                debug_assert_eq!(loc.channel, ChannelId(ch as u8));
                mc.channel_mut().store_mut().write(loc.bank, loc.row, loc.col, value);
            }
            mcs.push(mc);
        }

        Ok(System {
            core_hz: sys.core_freq_hz as u64,
            mem_hz: sys.mem_freq_hz as u64,
            exp,
            instance,
            sms,
            pipes,
            mcs,
            now: 0,
            mem_now: 0,
            clock_acc: 0,
            skip_log: None,
        })
    }

    /// Attaches a trace sink to every SM and memory controller (which
    /// forwards it to its DRAM channel). The sink only observes: an
    /// instrumented run is cycle-identical to an uninstrumented one,
    /// under **either** execution core — every component synthesizes
    /// its periodic events (stall runs, pipe/queue samples) closed-form
    /// at skip boundaries, so the event core feeds a sink the same
    /// events the dense core would emit cycle-by-cycle (arrival order
    /// and `WarpRetire` stamps may differ across cores; see DESIGN.md,
    /// "Skip-boundary event synthesis").
    /// The default sink is [`orderlight_trace::NopSink`], which costs a
    /// single `is_enabled()` check per would-be event.
    pub fn attach_sink(&mut self, sink: orderlight_trace::SharedSink) {
        for sm in &mut self.sms {
            sm.set_sink(sink.clone());
        }
        for (ch, pipe) in self.pipes.iter_mut().enumerate() {
            pipe.set_sink(sink.clone(), ch as u8);
        }
        for (ch, mc) in self.mcs.iter_mut().enumerate() {
            mc.set_sink(sink.clone(), ch as u8);
        }
    }

    /// Attaches an *observer* sink to the memory controllers only
    /// (SMs and pipes keep their current sink). Observers consume the
    /// ordering vocabulary — `ReqEnqueued` / `ReqIssued` /
    /// `PacketEnqueued` / `FenceAck` — which both execution cores emit
    /// identically: those events fire only on memory ticks that act, and
    /// the event core executes every such tick (a controller that acted
    /// ticks again on the next memory cycle; one whose tick changed
    /// nothing sleeps until its earliest legal DRAM command or refresh,
    /// or new input). Controller-side periodic detail (queue samples) is
    /// synthesized at skip boundaries, so it too matches across cores;
    /// use [`attach_sink`](Self::attach_sink) to also capture SM and
    /// NoC events. A later `attach_sink`/`attach_observer` call
    /// replaces the controllers' sink.
    pub fn attach_observer(&mut self, sink: orderlight_trace::SharedSink) {
        for (ch, mc) in self.mcs.iter_mut().enumerate() {
            mc.set_sink(sink.clone(), ch as u8);
        }
    }

    /// Applies a deterministic fault plan to the assembled system,
    /// seeding each enabled injection layer with a per-layer,
    /// per-channel [`orderlight::rng::Rng`] stream derived from the
    /// plan's master seed:
    ///
    /// * NoC jitter — extra traversal delay on each channel's request
    ///   path ([`MemoryPipe`] queues; order-preserving).
    /// * Scheduler adversary — the FR-FCFS pick is drawn uniformly from
    ///   the *eligible* candidate set instead of the default heuristic
    ///   (every ordering/timing constraint still holds).
    /// * Refresh storm — each channel's refresh cadence is randomised
    ///   within the storm's interval window.
    /// * Drop-edge mutation — one controller's group barrier is elided
    ///   (the only *illegal* layer; used to prove the oracle fires).
    ///
    /// Every draw happens on a state-determined, densely-executed
    /// cycle, so an injected schedule is bit-identical across both
    /// execution cores and any worker count. Call before `run`.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        if plan.is_noop() {
            return;
        }
        if let Some(jitter) = plan.noc_jitter {
            for (ch, pipe) in self.pipes.iter_mut().enumerate() {
                pipe.set_jitter(plan.layer_seed(FaultLayer::Noc, ch as u8), jitter.max_extra);
            }
        }
        for (ch, mc) in self.mcs.iter_mut().enumerate() {
            if plan.sched_adversary {
                mc.set_adversary(plan.layer_seed(FaultLayer::Sched, ch as u8));
            }
            if let Some(storm) = plan.refresh_storm {
                mc.channel_mut()
                    .enable_refresh_storm(storm, plan.layer_seed(FaultLayer::Refresh, ch as u8));
            }
            if let Some(edge) = plan.drop_edge {
                if usize::from(edge.channel) == ch {
                    mc.set_elide_group(MemGroupId(edge.group));
                }
            }
        }
    }

    /// Ordering edges elided by a [`FaultPlan::drop_edge`] mutation,
    /// summed over all controllers (zero on un-mutated systems).
    #[must_use]
    pub fn ordering_edges_dropped(&self) -> u64 {
        self.mcs.iter().map(MemoryController::ordering_edges_dropped).sum()
    }

    /// The clock frequencies of this system as trace clock domains, for
    /// timestamp conversion when exporting events.
    #[must_use]
    pub fn clock_domains(&self) -> orderlight_trace::ClockDomains {
        orderlight_trace::ClockDomains { core_hz: self.core_hz as f64, mem_hz: self.mem_hz as f64 }
    }

    /// The experiment this system was built for.
    #[must_use]
    pub fn experiment(&self) -> &ExperimentConfig {
        &self.exp
    }

    /// The instantiated workload (streams, layout, golden model).
    #[must_use]
    pub fn workload(&self) -> &WorkloadInstance {
        &self.instance
    }

    /// The memory controllers (one per channel).
    #[must_use]
    pub fn controllers(&self) -> &[MemoryController] {
        &self.mcs
    }

    /// Per-channel controller statistics (load-balance diagnostics).
    #[must_use]
    pub fn channel_stats(&self) -> Vec<McStats> {
        self.mcs.iter().map(MemoryController::stats).collect()
    }

    /// Current core cycle.
    #[must_use]
    pub fn now(&self) -> CoreCycle {
        self.now
    }

    /// Current memory cycle (advances at `mem_hz / core_hz` of the core
    /// clock via an integer accumulator — no drift).
    #[must_use]
    pub fn mem_now(&self) -> MemCycle {
        self.mem_now
    }

    /// Routes a request to its channel.
    fn channel_of(&self, req: &MemReq) -> ChannelId {
        match req {
            MemReq::Marker(copy) => copy.marker.channel(),
            other => self
                .exp
                .system
                .mapping
                .channel_of(other.addr().expect("non-marker requests have addresses")),
        }
    }

    /// Advances the whole system one core clock cycle — the dense core.
    pub fn step_cycle(&mut self) {
        let now = self.now;

        // 1. SMs issue.
        for sm in &mut self.sms {
            sm.tick(now);
        }

        // 2. LDST queues drain into the per-channel pipes (head-of-line
        //    blocking when a pipe is full).
        for sm_idx in 0..self.sms.len() {
            for _ in 0..LDST_DRAIN_PER_CYCLE {
                let Some(head) = self.sms[sm_idx].peek_ldst() else { break };
                let ch = self.channel_of(head);
                if !self.pipes[ch.index()].can_push() {
                    break;
                }
                let req = self.sms[sm_idx].pop_ldst().expect("peeked head");
                self.pipes[ch.index()].push_request(req, now);
            }
        }

        // 3. Pipes advance; ready heads enter the controllers.
        for (ch, pipe) in self.pipes.iter_mut().enumerate() {
            pipe.tick(now);
            for _ in 0..MC_INGEST_PER_CYCLE {
                let Some(head) = pipe.peek_mc(now) else { break };
                if !self.mcs[ch].can_accept(head) {
                    break;
                }
                let req = pipe.pop_mc(now).expect("peeked head");
                self.mcs[ch].push(req);
            }
        }

        // 4. Memory clock domain: tick controllers at mem_hz/core_hz.
        self.clock_acc += self.mem_hz;
        while self.clock_acc >= self.core_hz {
            self.clock_acc -= self.core_hz;
            for (ch, mc) in self.mcs.iter_mut().enumerate() {
                for resp in mc.tick(self.mem_now) {
                    self.pipes[ch].push_response(resp, now);
                }
            }
            self.mem_now += 1;
        }

        // 5. Responses return to their SMs.
        for pipe in &mut self.pipes {
            while let Some(resp) = pipe.pop_response(now) {
                self.sms[resp.warp().sm()].deliver(resp);
            }
        }

        self.now += 1;
    }

    /// Maps a memory-domain event at mem cycle `m` to the core cycle
    /// whose [`step_cycle`](Self::step_cycle) executes that memory tick.
    /// The dense loop runs the accumulated mem ticks of core step `s`
    /// (counting from 1) when `(clock_acc + s*mem_hz) / core_hz` first
    /// covers them, so the smallest such `s` inverts the accumulator in
    /// closed form.
    fn core_cycle_for_mem_event(&self, m: MemCycle) -> CoreCycle {
        debug_assert!(m >= self.mem_now, "memory events cannot be in the past");
        let needed = u128::from(m - self.mem_now + 1) * u128::from(self.core_hz);
        let num = needed - u128::from(self.clock_acc);
        let s = num.div_ceil(u128::from(self.mem_hz));
        debug_assert!(s >= 1, "clock_acc stays below core_hz");
        // Saturating on both the u128 narrowing and the final add: a
        // saturated memory-domain timer (near `u64::MAX`) must map to a
        // "never" core cycle, not truncate/wrap into the past — the
        // calendar rejects past horizons.
        let s = u64::try_from(s).unwrap_or(u64::MAX);
        self.now.saturating_add(s - 1)
    }

    /// Jumps the global clocks forward `span` core cycles without
    /// touching any component — the event core's components account for
    /// skipped windows lazily, each when it is next involved.
    fn jump_clocks(&mut self, span: u64) {
        let total = u128::from(self.clock_acc) + u128::from(span) * u128::from(self.mem_hz);
        self.clock_acc = (total % u128::from(self.core_hz)) as u64;
        self.mem_now += (total / u128::from(self.core_hz)) as u64;
        self.now += span;
    }

    /// Accounts the quiescent window `[synced[s], upto)` to SM `s` in
    /// closed form and advances its sync point.
    fn catch_up_sm(&mut self, ev: &mut EventState, s: usize, upto: CoreCycle) {
        let gap = upto - ev.sm_synced[s];
        if gap > 0 {
            self.sms[s].skip_quiescent(ev.sm_synced[s], gap);
            ev.sm_synced[s] = upto;
        }
    }

    /// Accounts the quiescent window `[synced[ch], upto)` to pipe `ch`.
    fn catch_up_pipe(&mut self, ev: &mut EventState, ch: usize, upto: CoreCycle) {
        let gap = upto - ev.pipe_synced[ch];
        if gap > 0 {
            self.pipes[ch].skip_quiescent(ev.pipe_synced[ch], gap);
            ev.pipe_synced[ch] = upto;
        }
    }

    /// Accounts the idle memory-tick window `[synced[ch], upto)` to
    /// controller `ch` (leaving its arrival cursor at `upto - 1`, where
    /// a dense run's last tick would have put it).
    fn catch_up_mc(&mut self, ev: &mut EventState, ch: usize, upto: MemCycle) {
        let ticks = upto - ev.mc_synced[ch];
        if ticks > 0 {
            self.mcs[ch].skip_ticks(ev.mc_synced[ch], ticks);
            ev.mc_synced[ch] = upto;
        }
    }

    /// The event core: a calendar-queue loop that executes only the
    /// cycles on which some component acts, and on those cycles touches
    /// only the due components. Equivalent to running
    /// [`step_cycle`](Self::step_cycle) every cycle — bit-identically,
    /// including the trace stream — because:
    ///
    /// * every component's [`NextEvent`] horizon is registered in the
    ///   calendar whenever the component is mutated, so no state change
    ///   can hide inside a skipped window (the quiescence contract);
    /// * cross-component hand-offs (LDST head into a pipe with space,
    ///   deliveries into an SM) wake the destination for the next
    ///   cycle, covering the two transfers that have no single owner;
    /// * a component not ticked on an executed cycle is quiescent there
    ///   by construction and accounts the window lazily
    ///   (`skip_quiescent` / `skip_ticks`) before its next mutation, so
    ///   stall counters, occupancy integrals and synthesized trace
    ///   events land exactly as the dense core's would.
    ///
    /// The budget error fires at the same cycle as the dense core's; a
    /// system with no future event at all (a deadlock the budget will
    /// catch) burns the remaining budget in one jump.
    fn run_event(&mut self, max_core_cycles: u64) -> Result<(), SimError> {
        let (n_sms, n_pipes, n_mcs) = (self.sms.len(), self.pipes.len(), self.mcs.len());
        let total = n_sms + n_pipes + n_mcs;
        let mut ev = EventState {
            cal: Calendar::new(total, self.now),
            due: Vec::with_capacity(total),
            sm_synced: vec![self.now; n_sms],
            pipe_synced: vec![self.now; n_pipes],
            mc_synced: vec![self.mem_now; n_mcs],
            due_sm: vec![false; n_sms],
            due_pipe: vec![false; n_pipes],
            touched_sm: vec![false; n_sms],
            touched_pipe: vec![false; n_pipes],
            touched_mc: vec![false; n_mcs],
            pushed_pipe: vec![false; n_pipes],
            delivered_sm: vec![false; n_sms],
        };
        // Bootstrap: everyone wakes on the first cycle (equivalent to a
        // dense step) and re-registers its true horizon from there.
        for c in 0..total {
            ev.cal.schedule(c as u32, self.now);
        }
        loop {
            if self.is_done() {
                // Account the trailing quiescent window to every lazy
                // component, so counters, occupancy integrals and
                // synthesized periodic events match a dense run that
                // ticked through cycle `now - 1`.
                for s in 0..n_sms {
                    self.catch_up_sm(&mut ev, s, self.now);
                }
                for ch in 0..n_pipes {
                    self.catch_up_pipe(&mut ev, ch, self.now);
                }
                for ch in 0..n_mcs {
                    self.catch_up_mc(&mut ev, ch, self.mem_now);
                }
                return Ok(());
            }
            if self.now >= max_core_cycles {
                return Err(self.budget_error());
            }
            let Some(t) = ev.cal.pop_next(&mut ev.due) else {
                // No component will ever act again, yet the system is
                // not drained: burn the budget so the deadlock error
                // fires at the same cycle as the dense core's.
                self.jump_clocks(max_core_cycles - self.now);
                continue;
            };
            if t >= max_core_cycles {
                self.jump_clocks(max_core_cycles - self.now);
                continue;
            }
            debug_assert!(t >= self.now, "calendar may not fire in the past");
            self.jump_clocks(t - self.now);
            if let Some(log) = self.skip_log.as_mut() {
                log.push(t);
            }
            self.step_event_cycle(t, &mut ev);
        }
    }

    /// Executes core cycle `t` touching only due or woken components,
    /// in exactly [`step_cycle`](Self::step_cycle)'s phase and index
    /// order. `self.now` must equal `t` on entry and is `t + 1` after.
    fn step_event_cycle(&mut self, t: CoreCycle, ev: &mut EventState) {
        let n_sms = self.sms.len();
        let n_pipes = self.pipes.len();
        let pipe_base = n_sms;
        let mc_base = n_sms + n_pipes;
        for m in [&mut ev.due_sm, &mut ev.touched_sm, &mut ev.delivered_sm] {
            m.fill(false);
        }
        for m in [&mut ev.due_pipe, &mut ev.touched_pipe, &mut ev.pushed_pipe] {
            m.fill(false);
        }
        ev.touched_mc.fill(false);
        for i in 0..ev.due.len() {
            let c = ev.due[i] as usize;
            if c < pipe_base {
                ev.due_sm[c] = true;
            } else if c < mc_base {
                ev.due_pipe[c - pipe_base] = true;
            } else {
                // A due controller forces the cycle to execute; phase 4
                // re-derives per-tick activity from `next_event`
                // directly. Marking it touched re-files its horizon
                // afterwards, so a wake-up that earliest-wins kept ahead
                // of a later blocked horizon cannot strand it.
                ev.touched_mc[c - mc_base] = true;
            }
        }

        // 1. Due SMs issue.
        for s in 0..n_sms {
            if !ev.due_sm[s] {
                continue;
            }
            self.catch_up_sm(ev, s, t);
            self.sms[s].tick(t);
            ev.sm_synced[s] = t + 1;
            ev.touched_sm[s] = true;
        }

        // 2. LDST queues drain into the per-channel pipes. Contents-
        //    driven, so every SM participates (a blocked head from an
        //    earlier cycle drains the moment its pipe has space, exactly
        //    as in the dense loop).
        for s in 0..n_sms {
            for _ in 0..LDST_DRAIN_PER_CYCLE {
                let Some(head) = self.sms[s].peek_ldst() else { break };
                let ch = self.channel_of(head).index();
                if !self.pipes[ch].can_push() {
                    break;
                }
                // An un-ticked source SM is quiescent at `t` (its only
                // action this cycle is this externally-driven pop):
                // account through `t` before mutating it.
                self.catch_up_sm(ev, s, t + 1);
                let req = self.sms[s].pop_ldst().expect("peeked head");
                self.catch_up_pipe(ev, ch, t);
                self.pipes[ch].push_request(req, t);
                ev.touched_sm[s] = true;
                ev.touched_pipe[ch] = true;
                ev.pushed_pipe[ch] = true;
            }
        }

        // 3. Due (or freshly pushed) pipes advance; ready heads enter
        //    the controllers, whose arrival cursor first catches up to
        //    the memory tick a dense run would have it at.
        for ch in 0..n_pipes {
            if !(ev.due_pipe[ch] || ev.pushed_pipe[ch]) {
                continue;
            }
            self.catch_up_pipe(ev, ch, t);
            self.pipes[ch].tick(t);
            ev.pipe_synced[ch] = t + 1;
            ev.touched_pipe[ch] = true;
            for _ in 0..MC_INGEST_PER_CYCLE {
                let Some(head) = self.pipes[ch].peek_mc(t) else { break };
                if !self.mcs[ch].can_accept(head) {
                    break;
                }
                let req = self.pipes[ch].pop_mc(t).expect("peeked head");
                self.catch_up_mc(ev, ch, self.mem_now);
                self.mcs[ch].push(req);
                ev.touched_mc[ch] = true;
            }
        }

        // 4. Memory clock domain: tick the controllers that act on each
        //    accumulated memory cycle (an idle controller's tick is pure
        //    bookkeeping, reproduced in closed form when it next syncs).
        self.clock_acc += self.mem_hz;
        while self.clock_acc >= self.core_hz {
            self.clock_acc -= self.core_hz;
            let m = self.mem_now;
            for ch in 0..self.mcs.len() {
                if self.mcs[ch].next_event(m) != Some(m) {
                    continue;
                }
                self.catch_up_mc(ev, ch, m);
                let resps = self.mcs[ch].tick(m);
                ev.mc_synced[ch] = m + 1;
                ev.touched_mc[ch] = true;
                for resp in resps {
                    // The receiving pipe must have accounted cycle `t`
                    // (dense pipes tick in phase 3, before responses
                    // arrive) so its periodic samples exclude the
                    // response.
                    self.catch_up_pipe(ev, ch, t + 1);
                    self.pipes[ch].push_response(resp, t);
                    ev.touched_pipe[ch] = true;
                }
            }
            self.mem_now += 1;
        }

        // 5. Responses return to their SMs. Only touched pipes can hold
        //    a ready response: a return path's ready deadline is itself
        //    a calendar event, so its pipe is due the cycle it matures.
        for ch in 0..n_pipes {
            if !ev.touched_pipe[ch] {
                continue;
            }
            while let Some(resp) = self.pipes[ch].pop_response(t) {
                let s = resp.warp().sm();
                self.catch_up_sm(ev, s, t + 1);
                self.sms[s].deliver(resp);
                ev.touched_sm[s] = true;
                ev.delivered_sm[s] = true;
            }
        }

        self.now = t + 1;

        // Re-register every touched component's horizon. Untouched
        // components keep their standing wake-ups, which remain valid:
        // nothing they depend on changed.
        for s in 0..n_sms {
            if !ev.touched_sm[s] {
                continue;
            }
            if ev.delivered_sm[s] {
                // A delivery may have readied or completed a warp; the
                // next dense tick issues or retires it. Unconditional
                // (not gated on what the delivery did or on a sink), so
                // skip decisions are observation-independent.
                ev.cal.schedule(s as u32, t + 1);
            } else if let Some(at) = self.sms[s].next_event(t + 1) {
                ev.cal.schedule(s as u32, at);
            }
        }
        for ch in 0..n_pipes {
            if !ev.touched_pipe[ch] {
                continue;
            }
            if let Some(at) = self.pipes[ch].next_event(t + 1) {
                ev.cal.schedule((pipe_base + ch) as u32, at);
            }
        }
        for ch in 0..self.mcs.len() {
            if !ev.touched_mc[ch] {
                continue;
            }
            if let Some(m) = self.mcs[ch].next_event(self.mem_now) {
                let at = self.core_cycle_for_mem_event(m);
                ev.cal.schedule((mc_base + ch) as u32, at);
            }
        }
        // The LDST-to-pipe hand-off has no single owner: an SM whose
        // queued head faces a pipe with space acts next cycle (covers
        // both rate-limit leftovers and pipes that just freed space).
        for s in 0..n_sms {
            let Some(head) = self.sms[s].peek_ldst() else { continue };
            if self.pipes[self.channel_of(head).index()].can_push() {
                ev.cal.schedule(s as u32, t + 1);
            }
        }
    }

    /// Starts or stops recording the event core's executed-cycle
    /// sequence (the boundaries of its skipped windows). Observe-only:
    /// recording never changes skip decisions. Starting resets any
    /// previous recording.
    pub fn record_skip_boundaries(&mut self, on: bool) {
        self.skip_log = on.then(Vec::new);
    }

    /// Takes the recorded executed-cycle sequence (empty if recording
    /// was never enabled) and stops recording.
    pub fn take_skip_boundaries(&mut self) -> Vec<CoreCycle> {
        self.skip_log.take().unwrap_or_default()
    }

    /// Whether every warp retired and the memory system is drained.
    pub fn is_done(&mut self) -> bool {
        self.sms.iter_mut().all(Sm::is_done)
            && self.pipes.iter().all(MemoryPipe::is_empty)
            && self.mcs.iter().all(MemoryController::is_idle)
    }

    /// Compares final DRAM contents against the golden model; returns
    /// `(matches, mismatches)` over all output stripes of all channels.
    #[must_use]
    pub fn verify(&self) -> (u64, u64) {
        let mapping = &self.exp.system.mapping;
        let mut matches = 0;
        let mut mismatches = 0;
        for ch in 0..self.mcs.len() {
            let channel = ChannelId(ch as u8);
            let golden = match self.exp.mode {
                ExecMode::Gpu => self.instance.golden_host(channel),
                ExecMode::Pim(_) => self.instance.golden_pim(channel),
            };
            for &addr in golden.written() {
                let loc = mapping.decode(orderlight::types::Addr(addr));
                let actual = self.mcs[ch].channel().store().read(loc.bank, loc.row, loc.col);
                if actual == golden.read(orderlight::types::Addr(addr)) {
                    matches += 1;
                } else {
                    mismatches += 1;
                }
            }
        }
        (matches, mismatches)
    }

    /// Runs to completion (at most `max_core_cycles`) on the core
    /// selected by [`resolve_core`] (the `ORDERLIGHT_CORE` environment
    /// variable or process override; the event core by default), then
    /// verifies and aggregates statistics.
    ///
    /// # Errors
    /// Returns [`SimError`] if the system has not drained within the
    /// budget — a deadlock or a budget that is simply too small.
    pub fn run(&mut self, max_core_cycles: u64) -> Result<RunStats, SimError> {
        self.run_with(max_core_cycles, resolve_core(None))
    }

    /// The budget-exhaustion error, fired at the same cycle by both
    /// cores.
    fn budget_error(&self) -> SimError {
        SimError::new(format!(
            "not drained after {} core cycles (workload {}, mode {})",
            self.now, self.exp.workload, self.exp.mode
        ))
    }

    /// Runs to completion on an explicitly chosen core. The two cores
    /// are bit-identical (enforced by `tests/core_equivalence.rs` and
    /// `tests/horizon_fuzz.rs`), including the trace stream a live sink
    /// observes: windows the event core skips synthesize their periodic
    /// events closed-form (see `tests/profile_core_equivalence.rs`), so
    /// traced and profiled runs use whichever core is selected. The run
    /// stops at the exact drain cycle — completion is checked every
    /// step, so `RunStats::core_cycles` never overshoots.
    ///
    /// # Errors
    /// Returns [`SimError`] if the system has not drained within the
    /// budget — a deadlock or a budget that is simply too small.
    pub fn run_with(&mut self, max_core_cycles: u64, core: SimCore) -> Result<RunStats, SimError> {
        match core {
            SimCore::Cycle => {
                while !self.is_done() {
                    if self.now >= max_core_cycles {
                        return Err(self.budget_error());
                    }
                    self.step_cycle();
                }
            }
            SimCore::Event => self.run_event(max_core_cycles)?,
        }
        // Close every SM's open stall runs so a stall-attribution
        // consumer sees each charged cycle exactly once (no-op without
        // a live sink).
        for sm in &mut self.sms {
            sm.flush_stall_runs();
        }
        Ok(self.collect())
    }

    /// Aggregates statistics after a completed run.
    fn collect(&self) -> RunStats {
        let mut sm = SmStats::default();
        for s in &self.sms {
            let x = s.stats();
            sm.issued += x.issued;
            sm.pim_issued += x.pim_issued;
            sm.loads += x.loads;
            sm.stores += x.stores;
            sm.computes += x.computes;
            sm.fences += x.fences;
            sm.orderlights += x.orderlights;
            sm.fence_stall_cycles += x.fence_stall_cycles;
            sm.ol_wait_cycles += x.ol_wait_cycles;
            sm.reg_wait_cycles += x.reg_wait_cycles;
            sm.structural_stall_cycles += x.structural_stall_cycles;
            sm.credit_wait_cycles += x.credit_wait_cycles;
        }
        let mut mc = McStats::default();
        let mut pim_data_bytes = 0;
        for m in &self.mcs {
            let x = m.stats();
            mc.pim_commands += x.pim_commands;
            mc.activates += x.activates;
            mc.precharges += x.precharges;
            mc.col_reads += x.col_reads;
            mc.col_writes += x.col_writes;
            mc.exec_commands += x.exec_commands;
            mc.host_reads += x.host_reads;
            mc.host_writes += x.host_writes;
            mc.fence_acks += x.fence_acks;
            mc.ol_packets += x.ol_packets;
            mc.sanity_violations += x.sanity_violations;
            mc.last_issue_cycle = mc.last_issue_cycle.max(x.last_issue_cycle);
            mc.host_read_latency_sum += x.host_read_latency_sum;
            pim_data_bytes += m.pim().stats().data_bytes;
        }
        let core_hz = self.exp.system.core_freq_hz;
        let seconds = self.now as f64 / core_hz;
        let (verified_matches, verified_mismatches) = self.verify();
        RunStats {
            core_cycles: self.now,
            exec_time_ms: seconds * 1e3,
            command_bandwidth_gcs: mc.pim_commands as f64 / seconds / 1e9,
            data_bandwidth_gbs: pim_data_bytes as f64 / seconds / 1e9,
            primitives_per_pim_instr: if sm.pim_issued == 0 {
                0.0
            } else {
                (sm.fences + sm.orderlights) as f64 / sm.pim_issued as f64
            },
            sm,
            mc,
            pim_data_bytes,
            verified_matches,
            verified_mismatches,
        }
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.exp.workload)
            .field("mode", &self.exp.mode)
            .field("now", &self.now)
            .field("mem_now", &self.mem_now)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight_pim::TsSize;
    use orderlight_workloads::{OrderingMode, WorkloadId};

    fn small_exp(workload: WorkloadId, mode: ExecMode) -> ExperimentConfig {
        let mut e = ExperimentConfig::new(workload, mode);
        // 16 KiB per structure per channel keeps unit tests fast.
        e.data_bytes_per_channel = 16 * 1024;
        e.ts_size = TsSize::Eighth;
        e
    }

    #[test]
    fn add_orderlight_runs_and_verifies() {
        let mut sys =
            System::build(small_exp(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight)))
                .unwrap();
        let stats = sys.run(20_000_000).unwrap();
        assert!(stats.is_correct(), "mismatches: {}", stats.verified_mismatches);
        assert!(stats.command_bandwidth_gcs > 0.0);
        assert!(stats.sm.orderlights > 0);
        assert_eq!(stats.sm.fences, 0);
        assert_eq!(stats.mc.sanity_violations, 0);
    }

    #[test]
    fn add_fence_runs_and_verifies_but_stalls() {
        let mut sys =
            System::build(small_exp(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence))).unwrap();
        let stats = sys.run(50_000_000).unwrap();
        assert!(stats.is_correct());
        assert!(stats.sm.fences > 0);
        assert!(
            stats.wait_cycles_per_fence() > 100.0,
            "fences must pay a round trip, got {}",
            stats.wait_cycles_per_fence()
        );
    }

    #[test]
    fn add_without_ordering_is_functionally_incorrect() {
        let mut sys =
            System::build(small_exp(WorkloadId::Add, ExecMode::Pim(OrderingMode::None))).unwrap();
        let stats = sys.run(20_000_000).unwrap();
        assert!(
            stats.verified_mismatches > 0,
            "FR-FCFS reordering must corrupt the unordered kernel (Figure 5)"
        );
    }

    #[test]
    fn orderlight_is_faster_than_fence() {
        let run = |mode| {
            let mut sys = System::build(small_exp(WorkloadId::Add, ExecMode::Pim(mode))).unwrap();
            sys.run(50_000_000).unwrap()
        };
        let ol = run(OrderingMode::OrderLight);
        let fence = run(OrderingMode::Fence);
        assert!(
            fence.exec_time_ms > 1.5 * ol.exec_time_ms,
            "fence {} ms vs orderlight {} ms",
            fence.exec_time_ms,
            ol.exec_time_ms
        );
    }

    #[test]
    fn gpu_baseline_runs_and_verifies() {
        let mut e = small_exp(WorkloadId::Add, ExecMode::Gpu);
        e.data_bytes_per_channel = 4 * 1024;
        let mut sys = System::build(e).unwrap();
        let stats = sys.run(50_000_000).unwrap();
        assert!(stats.is_correct());
        assert!(stats.sm.loads > 0);
        assert_eq!(stats.mc.pim_commands, 0);
    }

    #[test]
    fn channels_are_load_balanced() {
        let mut sys =
            System::build(small_exp(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight)))
                .unwrap();
        let _ = sys.run(50_000_000).unwrap();
        let per = sys.channel_stats();
        assert_eq!(per.len(), 16);
        let first = per[0].pim_commands;
        assert!(first > 0);
        assert!(
            per.iter().all(|s| s.pim_commands == first),
            "uniform kernels must spread PIM commands evenly"
        );
    }

    #[test]
    fn clock_domains_keep_the_850_to_1200_ratio() {
        let mut sys =
            System::build(small_exp(WorkloadId::Scale, ExecMode::Pim(OrderingMode::OrderLight)))
                .unwrap();
        for _ in 0..120_000 {
            sys.step_cycle();
        }
        let expected = sys.now() as f64 * 850.0 / 1200.0;
        let got = sys.mem_now() as f64;
        assert!((got - expected).abs() <= 1.0, "memory clock drifted: {got} vs {expected}");
    }

    #[test]
    fn custom_instances_run_through_build_custom() {
        use orderlight_workloads::{KernelBuilder, WorkloadInstance};
        let spec = KernelBuilder::new("doctest_custom")
            .load(0)
            .fetch(orderlight::AluOp::Add, 1)
            .store(2)
            .build()
            .unwrap();
        let mut exp = small_exp(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
        exp.data_bytes_per_channel = 8 * 1024;
        let instance = WorkloadInstance::custom(
            spec,
            exp.system.mapping.clone(),
            &exp.system.groups,
            exp.ts_stripes(),
            exp.stripes_per_channel(),
            OrderingMode::OrderLight,
        );
        let stats = System::build_custom(exp, instance).unwrap().run(50_000_000).unwrap();
        assert!(stats.is_correct());
    }

    #[test]
    fn build_custom_rejects_mode_mismatch() {
        use orderlight_workloads::{KernelBuilder, WorkloadInstance};
        let spec = KernelBuilder::new("mismatch").load(0).store(0).build().unwrap();
        let exp = small_exp(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
        let instance = WorkloadInstance::custom(
            spec,
            exp.system.mapping.clone(),
            &exp.system.groups,
            8,
            64,
            OrderingMode::Fence,
        );
        assert!(System::build_custom(exp, instance).is_err());
    }

    #[test]
    fn cycle_budget_is_enforced() {
        let mut sys =
            System::build(small_exp(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight)))
                .unwrap();
        let err = sys.run(128).unwrap_err();
        assert!(err.to_string().contains("not drained"));
    }
}
