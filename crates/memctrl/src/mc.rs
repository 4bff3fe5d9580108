//! The memory controller proper: ingress, FR-FCFS scheduler, per-bank
//! command queues, DRAM command issue, and the PIM unit hookup.

use crate::ordering::{MarkerAction, OrderingBackend, OrderingKind};
use crate::queues::{PendingReq, QueueEntry, TransQueue};
use crate::txn::{Transaction, TxnKind};
use orderlight::fsm::diverge;
use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::message::{Marker, MarkerKey, MemReq, MemResp};
use orderlight::packet::OrderLightPacket;
use orderlight::rng::Rng;
use orderlight::slab::Slab;
use orderlight::types::{BankId, MemCycle, MemGroupId};
use orderlight::{min_horizon, NextEvent, PimOp};
use orderlight_hbm::{Channel, ColKind, DramCommand, NeededCommand};
use orderlight_pim::PimUnit;
use orderlight_trace::{sink::nop_sink, DramCmdKind, SchedSide, SharedSink, TraceEvent};
use std::collections::VecDeque;

/// Memory cycles between [`TraceEvent::QueueSample`] emissions. The
/// dense tick samples at every multiple of this stride, and
/// [`MemoryController::skip_ticks`] synthesizes the same samples
/// closed-form across skipped windows, so the sample stream is
/// byte-identical under both cores. (The NoC pipe uses the same stride
/// value in *core* cycles for its `PipeSample` stream.)
const SAMPLE_STRIDE: u64 = 64;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Leave rows open until a conflicting access needs the bank
    /// (default; rewards streaming locality).
    Open,
    /// Precharge a bank as soon as no queued transaction wants its open
    /// row (hides the precharge latency of the next conflict; rewards
    /// irregular access patterns).
    Closed,
}

/// One issued command, recorded when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueRecord {
    /// Memory cycle the command issued.
    pub cycle: MemCycle,
    /// Human-readable command (e.g. `ACT b0 r3`, `RD b0`,
    /// `EXEC scale[3]`).
    pub what: String,
    /// Issuing warp for column/execute commands.
    pub warp: Option<orderlight::types::GlobalWarpId>,
    /// Per-warp request sequence number, when applicable.
    pub seq: Option<u64>,
}

/// Memory-controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Address interleaving scheme.
    pub mapping: AddressMapping,
    /// Bank-to-memory-group map (for classifying host requests).
    pub groups: GroupMap,
    /// Read/write transaction queue capacity (Table 1: 64).
    pub queue_capacity: usize,
    /// Per-bank command queue capacity.
    pub bank_queue_capacity: usize,
    /// Execute-only PIM command queue capacity.
    pub exec_queue_capacity: usize,
    /// Transactions dequeued into command queues per memory cycle.
    pub dequeues_per_cycle: usize,
    /// How many eligible entries the FR-FCFS scan inspects.
    pub scan_depth: usize,
    /// Write-queue fill fraction that starts a write drain.
    pub write_drain_high: f64,
    /// Write-queue fill fraction that ends a write drain.
    pub write_drain_low: f64,
    /// Record every issued command in an [`IssueRecord`] trace
    /// (diagnostics / visualisation; off by default).
    pub trace: bool,
    /// Which [`OrderingBackend`] this controller enforces (default:
    /// OrderLight group barriers). Every backend also services fence
    /// probes, so the choice only matters for traffic that actually
    /// exercises the ordering primitive.
    pub ordering: OrderingKind,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            mapping: AddressMapping::hbm_default(),
            groups: GroupMap::default(),
            queue_capacity: 64,
            bank_queue_capacity: 4,
            exec_queue_capacity: 16,
            dequeues_per_cycle: 2,
            scan_depth: 16,
            write_drain_high: 0.75,
            write_drain_low: 0.25,
            trace: false,
            ordering: OrderingKind::OrderLight,
            page_policy: PagePolicy::Open,
        }
    }
}

/// Controller activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct McStats {
    /// PIM commands issued (DRAM-accessing plus execute-only).
    pub pim_commands: u64,
    /// Row activations issued.
    pub activates: u64,
    /// Precharges issued.
    pub precharges: u64,
    /// Column reads issued.
    pub col_reads: u64,
    /// Column writes issued.
    pub col_writes: u64,
    /// Execute-only PIM commands issued.
    pub exec_commands: u64,
    /// Host reads serviced.
    pub host_reads: u64,
    /// Host writes serviced.
    pub host_writes: u64,
    /// Fence acknowledgements generated.
    pub fence_acks: u64,
    /// OrderLight packets merged at the scheduler.
    pub ol_packets: u64,
    /// Packet-number sanity violations observed.
    pub sanity_violations: u64,
    /// Memory cycle of the last issued command (busy-window end).
    pub last_issue_cycle: MemCycle,
    /// Sum of host-read service latencies in memory cycles (arrival at the
    /// controller to column issue), for mean-latency reporting.
    pub host_read_latency_sum: u64,
}

/// Which transaction queue a scheduling decision refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Read,
    Write,
}

/// What the controller knows about its own next state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Horizon {
    /// It acted on its last tick, or took input since: the next tick
    /// may act.
    Dense,
    /// Its last tick changed nothing, and until new input arrives no
    /// tick changes anything before this memory cycle: the earliest
    /// cycle at which a queued bank head's needed command becomes legal
    /// or a refresh can fire (`None`: only new input can unblock it).
    Blocked(Option<MemCycle>),
}

/// One command class of the issue phase (column, activate or
/// precharge): the oldest bank head whose needed command is legal now,
/// and, with an adversary attached, every such bank in bank order.
#[derive(Debug, Default)]
struct ClassPick {
    oldest: Option<(u64, BankId)>,
    candidates: Vec<BankId>,
}

impl ClassPick {
    fn offer(&mut self, arrival: u64, bank: BankId, adversarial: bool) {
        if adversarial {
            self.candidates.push(bank);
        }
        if self.oldest.is_none_or(|(a, _)| arrival < a) {
            self.oldest = Some((arrival, bank));
        }
    }
}

/// One memory channel's controller with its DRAM channel and PIM unit.
///
/// # Example
///
/// Drive one load / add / store chain through the controller by hand.
/// Without ordering packets the FR-FCFS scheduler is free to issue the
/// store before the execute-only add (and really does) — so the chain
/// is separated by OrderLight packets, exactly as a PIM kernel would:
///
/// ```
/// use orderlight::message::{Marker, MarkerCopy, MemReq, ReqMeta};
/// use orderlight::packet::OrderLightPacket;
/// use orderlight::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, Stripe, TsSlot};
/// use orderlight::{AluOp, PimInstruction, PimOp};
/// use orderlight_hbm::{Channel, TimingParams};
/// use orderlight_memctrl::{McConfig, MemoryController};
/// use orderlight_pim::{PimUnit, TsSize};
///
/// let cfg = McConfig::default();
/// let mapping = cfg.mapping.clone();
/// let mut mc = MemoryController::new(
///     cfg,
///     Channel::new(TimingParams::hbm_table1(), 16, 2048),
///     PimUnit::new(TsSize::Eighth, 2048, 16),
/// );
/// // Seed DRAM, then load + add + store through the PIM unit.
/// let loc = mapping.decode(Addr(0));
/// mc.channel_mut().store_mut().write(loc.bank, loc.row, loc.col, Stripe::splat(40));
/// let pim = |op, seq| MemReq::Pim {
///     instr: PimInstruction { op, addr: Addr(0), slot: TsSlot(0), group: MemGroupId(0) },
///     meta: ReqMeta { warp: GlobalWarpId::new(0, 0), seq },
/// };
/// let packet = |number| MemReq::Marker(MarkerCopy {
///     marker: Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), number)),
///     total_copies: 1,
/// });
/// mc.push(pim(PimOp::Load, 0));
/// mc.push(packet(1));
/// mc.push(pim(PimOp::Compute(AluOp::AddImm(2)), 1));
/// mc.push(packet(2));
/// mc.push(pim(PimOp::Store, 2));
/// let mut now = 0;
/// while !mc.is_idle() {
///     mc.tick(now);
///     now += 1;
/// }
/// assert_eq!(mc.channel().store().read(loc.bank, loc.row, loc.col), Stripe::splat(42));
/// ```
pub struct MemoryController {
    cfg: McConfig,
    channel: Channel,
    pim: PimUnit,
    read_q: TransQueue,
    write_q: TransQueue,
    /// Bodies of the requests queued in `read_q`/`write_q`. Queue
    /// entries carry [`orderlight::slab::SlabRef`] handles plus the
    /// denormalized fields the scheduler scans; a body is inserted at
    /// ingress and removed exactly once, at dequeue.
    arena: Slab<MemReq>,
    bank_q: Vec<VecDeque<Transaction>>,
    /// Total transactions across all of `bank_q` — kept so the idle
    /// check the event core's horizon makes every hop is O(1), not a
    /// scan over every bank's queue.
    bank_queued: usize,
    exec_q: VecDeque<Transaction>,
    backend: Box<dyn OrderingBackend>,
    arrival_seq: u64,
    arrival_cycle: MemCycle,
    draining_writes: bool,
    out: Vec<MemResp>,
    stats: McStats,
    trace: Vec<IssueRecord>,
    sink: SharedSink,
    channel_id: u8,
    /// Fault injection: adversarial scheduler tie-breaks. When set, the
    /// FR-FCFS pick chooses uniformly among *eligible* candidates
    /// instead of preferring row hits / oldest arrivals — a legal but
    /// hostile schedule.
    adversary: Option<Rng>,
    /// Set by a tick that changed nothing; cleared by any input.
    horizon: Horizon,
}

impl MemoryController {
    /// Creates a controller around `channel` and `pim`.
    #[must_use]
    pub fn new(cfg: McConfig, channel: Channel, pim: PimUnit) -> Self {
        let banks = channel.num_banks();
        MemoryController {
            read_q: TransQueue::new(cfg.queue_capacity),
            write_q: TransQueue::new(cfg.queue_capacity),
            arena: Slab::with_capacity(2 * cfg.queue_capacity),
            bank_q: (0..banks).map(|_| VecDeque::new()).collect(),
            bank_queued: 0,
            exec_q: VecDeque::new(),
            backend: cfg.ordering.build(),
            arrival_seq: 0,
            arrival_cycle: 0,
            draining_writes: false,
            out: Vec::new(),
            stats: McStats::default(),
            trace: Vec::new(),
            sink: nop_sink(),
            channel_id: 0,
            adversary: None,
            horizon: Horizon::Dense,
            cfg,
            channel,
            pim,
        }
    }

    /// Enables adversarial scheduler tie-breaks seeded with `seed`.
    ///
    /// Every pick still honours all correctness constraints (ordering
    /// barriers, sequence-number order, queue capacities, DRAM timing) —
    /// only the *preference* among eligible candidates is randomized, so
    /// functional results must be unchanged on a correct controller.
    pub fn set_adversary(&mut self, seed: u64) {
        self.adversary = Some(Rng::new(seed));
        self.horizon = Horizon::Dense;
    }

    /// Activates the drop-one-ordering-edge mutation for `group` (see
    /// [`OrderingBackend::set_elide_group`]).
    pub fn set_elide_group(&mut self, group: MemGroupId) {
        self.backend.set_elide_group(group);
        self.horizon = Horizon::Dense;
    }

    /// Ordering edges dropped by the elide mutation so far.
    #[must_use]
    pub fn ordering_edges_dropped(&self) -> u64 {
        self.backend.edges_dropped()
    }

    /// The issue trace (empty unless [`McConfig::trace`] is set).
    #[must_use]
    pub fn trace(&self) -> &[IssueRecord] {
        &self.trace
    }

    /// Attaches a trace sink, tagging this controller's events with
    /// `channel`. The sink is forwarded to the DRAM channel so per-bank
    /// commands are captured too. Sinks only observe; behaviour is
    /// unchanged.
    pub fn set_sink(&mut self, sink: SharedSink, channel: u8) {
        self.channel.set_sink(sink.clone(), channel);
        self.sink = sink;
        self.channel_id = channel;
    }

    fn record(
        &mut self,
        cycle: MemCycle,
        what: String,
        warp: Option<orderlight::types::GlobalWarpId>,
        seq: Option<u64>,
    ) {
        if self.cfg.trace {
            self.trace.push(IssueRecord { cycle, what, warp, seq });
        }
    }

    /// Whether `req` can be accepted this cycle (backpressure point for
    /// the memory pipe).
    #[must_use]
    pub fn can_accept(&self, req: &MemReq) -> bool {
        match req {
            MemReq::Marker(copy) => match copy.marker {
                // In-band ordering markers are copied into both queues.
                Marker::OrderLight(_) | Marker::Release(_) => {
                    self.read_q.has_space() && self.write_q.has_space()
                }
                // Fence probes are consumed at ingress.
                Marker::FenceProbe { .. } => true,
            },
            r if r.is_write_like() => self.write_q.has_space(),
            _ => self.read_q.has_space(),
        }
    }

    /// Accepts one request from the memory pipe.
    ///
    /// # Panics
    /// Panics if called while [`can_accept`](Self::can_accept) is false.
    pub fn push(&mut self, req: MemReq) {
        assert!(self.can_accept(&req), "push without backpressure check");
        self.horizon = Horizon::Dense;
        match req {
            MemReq::Marker(copy) => match copy.marker {
                Marker::OrderLight(ref packet) | Marker::Release(ref packet) => {
                    if self.sink.is_enabled() {
                        self.sink.emit(TraceEvent::PacketEnqueued {
                            cycle: self.arrival_cycle,
                            channel: self.channel_id,
                            group: packet.group().0,
                            number: packet.number(),
                        });
                    }
                    // Ingress hook first (e.g. Louvre snapshots its drain
                    // targets here, matching the oracle's pre-set), then
                    // divergence point #2: separate read/write queues.
                    self.backend.on_marker_ingress(&copy);
                    let mut copies = diverge(copy.marker, 2);
                    self.write_q.push(QueueEntry::Marker {
                        copy: copies.pop().expect("two copies"),
                        offered: false,
                    });
                    self.read_q.push(QueueEntry::Marker {
                        copy: copies.pop().expect("two copies"),
                        offered: false,
                    });
                }
                Marker::FenceProbe { warp, fence_id, .. } => {
                    if self.backend.on_probe(warp, fence_id) {
                        self.stats.fence_acks += 1;
                        self.out.push(MemResp::FenceAck { warp, fence_id });
                        if self.sink.is_enabled() {
                            self.sink.emit(TraceEvent::FenceAck {
                                cycle: self.arrival_cycle,
                                channel: self.channel_id,
                                warp: warp.0,
                                fence_id,
                            });
                        }
                    }
                }
            },
            req => {
                let meta = req.meta().expect("non-marker requests carry metadata");
                let (loc, group) = match &req {
                    MemReq::Pim { instr, .. } => {
                        let loc =
                            instr.op.accesses_dram().then(|| self.cfg.mapping.decode(instr.addr));
                        (loc, instr.group)
                    }
                    MemReq::HostRead { addr, .. } | MemReq::HostWrite { addr, .. } => {
                        let loc = self.cfg.mapping.decode(*addr);
                        (Some(loc), self.cfg.groups.group_of(loc.bank))
                    }
                    MemReq::Marker(_) => unreachable!("handled above"),
                };
                self.arrival_seq += 1;
                let pim = req.is_pim();
                let write_like = req.is_write_like();
                // A controller-enforced backend may raise a synthetic
                // barrier here (e.g. a bulk-bitwise epoch flip). It is
                // recorded *before* this request's own enqueue event so
                // the oracle's pre-set covers exactly the older requests.
                if let Some(number) = self.backend.on_arrival(meta, group, pim, write_like) {
                    if self.sink.is_enabled() {
                        self.sink.emit(TraceEvent::PacketEnqueued {
                            cycle: self.arrival_cycle,
                            channel: self.channel_id,
                            group: group.0,
                            number,
                        });
                    }
                }
                if self.sink.is_enabled() {
                    self.sink.emit(TraceEvent::ReqEnqueued {
                        cycle: self.arrival_cycle,
                        channel: self.channel_id,
                        group: group.0,
                        warp: meta.warp.0,
                        seq: meta.seq,
                    });
                }
                let entry = QueueEntry::Request(PendingReq {
                    req: self.arena.insert(req),
                    pim,
                    meta,
                    loc,
                    group,
                    arrival: self.arrival_cycle,
                });
                if write_like {
                    self.write_q.push(entry);
                } else {
                    self.read_q.push(entry);
                }
            }
        }
    }

    /// The row a bank will be presenting once its queued work completes:
    /// the row of the last queued transaction, else the open row.
    fn effective_row(&self, bank: BankId) -> Option<u32> {
        self.bank_q[bank.index()]
            .back()
            .map(|t| t.loc.row)
            .or_else(|| self.channel.bank(bank).open_row())
    }

    fn txn_fits(&self, p: &PendingReq) -> bool {
        match p.loc {
            Some(loc) => self.bank_q[loc.bank.index()].len() < self.cfg.bank_queue_capacity,
            None => self.exec_q.len() < self.cfg.exec_queue_capacity,
        }
    }

    fn is_row_hit(&self, p: &PendingReq) -> bool {
        p.loc.is_some_and(|loc| self.effective_row(loc.bank) == Some(loc.row))
    }

    fn queue(&self, side: Side) -> &TransQueue {
        match side {
            Side::Read => &self.read_q,
            Side::Write => &self.write_q,
        }
    }

    fn queue_mut(&mut self, side: Side) -> &mut TransQueue {
        match side {
            Side::Read => &mut self.read_q,
            Side::Write => &mut self.write_q,
        }
    }

    /// Whether some request queued on `side` targets a command queue
    /// with room. Without one no entry of that side can dequeue, and the
    /// per-target counts answer in O(banks) what the scan would in
    /// O(entries).
    fn side_has_room(&self, side: Side) -> bool {
        let q = self.queue(side);
        (q.exec_requests() > 0 && self.exec_q.len() < self.cfg.exec_queue_capacity)
            || q.target_banks().any(|b| self.bank_q[b.index()].len() < self.cfg.bank_queue_capacity)
    }

    /// FR-FCFS pick: preferred queue first (write-drain hysteresis), row
    /// hits over row misses, oldest first within each class. With an
    /// adversary attached, the pick within the preferred queue is instead
    /// uniform among all eligible candidates (still constraint-legal).
    fn pick_dequeue(&mut self) -> Option<(Side, usize)> {
        let order = if self.draining_writes {
            [Side::Write, Side::Read]
        } else {
            [Side::Read, Side::Write]
        };
        let adversarial = self.adversary.is_some();
        for side in order {
            if !self.side_has_room(side) {
                continue;
            }
            let mut first_fit = None;
            let mut row_hit = None;
            let mut candidates: Vec<usize> = Vec::new();
            let q = self.queue(side);
            let elide = self.backend.elide_group();
            for (i, p) in q.eligible(|g| self.backend.group_blocked(g), elide, self.cfg.scan_depth)
            {
                if !self.txn_fits(p) {
                    continue;
                }
                if !self.backend.dequeue_allowed(p) {
                    continue;
                }
                if first_fit.is_none() {
                    first_fit = Some(i);
                }
                if row_hit.is_none() && self.is_row_hit(p) {
                    row_hit = Some(i);
                    if !adversarial {
                        break;
                    }
                }
                if adversarial {
                    candidates.push(i);
                }
            }
            if let Some(rng) = self.adversary.as_mut() {
                if !candidates.is_empty() {
                    return Some((side, candidates[rng.gen_index(candidates.len())]));
                }
            } else if let Some(i) = row_hit.or(first_fit) {
                return Some((side, i));
            }
        }
        None
    }

    /// Completes a marker merge: records the [`TraceEvent::PacketMerged`]
    /// event and pops the marker's copies from both transaction queues.
    fn finish_merge(&mut self, key: &MarkerKey, packet: &OrderLightPacket) {
        if self.sink.is_enabled() {
            self.sink.emit(TraceEvent::PacketMerged {
                cycle: self.arrival_cycle,
                channel: self.channel_id,
                group: packet.group().0,
                number: packet.number(),
            });
        }
        for side in [Side::Read, Side::Write] {
            let popped = self.queue_mut(side).pop_marker_by_key(key);
            debug_assert!(popped, "merged copy must head each queue");
        }
    }

    /// Offers ready marker copies to the backend's convergence FSM.
    ///
    /// A copy is *offered* as soon as no constrained request remains
    /// ahead of it in its own queue, but it stays in place — still
    /// blocking its sub-path — until every sibling copy has been offered
    /// and the merge fires (paper Figure 9); only then are all copies
    /// removed. A backend may instead *hold* a fully-collected marker
    /// (Louvre's versioned release): its copies stay queued, still
    /// blocking, until [`OrderingBackend::take_released`] reports the
    /// drain condition met. Returns whether any copy was offered or
    /// released.
    fn consume_markers(&mut self) -> bool {
        let released = self.backend.take_released();
        let mut acted = !released.is_empty();
        for (key, packet) in released {
            self.finish_merge(&key, &packet);
        }
        loop {
            let mut progress = false;
            for side in [Side::Read, Side::Write] {
                let Some(copy) = self.queue(side).ready_unoffered_marker().cloned() else {
                    continue;
                };
                self.queue_mut(side).mark_first_marker_offered();
                progress = true;
                acted = true;
                match self.backend.on_marker(&copy) {
                    MarkerAction::Merged(packet) => {
                        self.finish_merge(&copy.marker.key(), &packet);
                    }
                    MarkerAction::Pending | MarkerAction::Held => {}
                }
            }
            if !progress {
                return acted;
            }
        }
    }

    /// Moves eligible transactions from the R/W queues into the per-bank
    /// (or execute) command queues. Returns whether any moved.
    fn dequeue_phase(&mut self) -> bool {
        // Write-drain hysteresis.
        if self.write_q.fill_fraction() >= self.cfg.write_drain_high {
            self.draining_writes = true;
        } else if self.write_q.fill_fraction() <= self.cfg.write_drain_low {
            self.draining_writes = false;
        }
        let mut moved = false;
        for _ in 0..self.cfg.dequeues_per_cycle {
            let Some((side, index)) = self.pick_dequeue() else { break };
            moved = true;
            let p = self.queue_mut(side).remove_request(index);
            if self.sink.is_enabled() {
                self.sink.emit(TraceEvent::SchedDecision {
                    cycle: self.arrival_cycle,
                    channel: self.channel_id,
                    side: match side {
                        Side::Read => SchedSide::Read,
                        Side::Write => SchedSide::Write,
                    },
                    bank: p.loc.map_or(0xff, |l| l.bank.0),
                    row_hit: self.is_row_hit(&p),
                });
            }
            self.backend.on_dequeue(&p);
            let meta = p.meta;
            if self.sink.is_enabled() {
                self.sink.emit(TraceEvent::ReqDequeued {
                    cycle: self.arrival_cycle,
                    channel: self.channel_id,
                    group: p.group.0,
                    warp: meta.warp.0,
                    seq: meta.seq,
                    bank: p.loc.map_or(0xff, |l| l.bank.0),
                    waited: self.arrival_cycle.saturating_sub(p.arrival),
                });
            }
            let kind = match self.arena.remove(p.req) {
                MemReq::Pim { instr, .. } => TxnKind::Pim(instr),
                MemReq::HostRead { reg, .. } => TxnKind::HostRead { reg },
                MemReq::HostWrite { data, .. } => TxnKind::HostWrite { data },
                MemReq::Marker(_) => unreachable!("markers never dequeue as requests"),
            };
            match p.loc {
                Some(loc) => {
                    let txn = Transaction { kind, loc, group: p.group, meta, arrival: p.arrival };
                    self.bank_q[loc.bank.index()].push_back(txn);
                    self.bank_queued += 1;
                }
                None => {
                    // Execute-only PIM command: no DRAM access. `loc` is a
                    // placeholder; only `kind`/`group`/`meta` matter.
                    let loc = self.cfg.mapping.decode(orderlight::types::Addr(0));
                    let txn = Transaction { kind, loc, group: p.group, meta, arrival: p.arrival };
                    self.exec_q.push_back(txn);
                }
            }
        }
        moved
    }

    /// Completes a transaction whose column command just issued (or whose
    /// execute command was sent to the PIM unit).
    fn complete(&mut self, txn: Transaction, now: MemCycle) {
        let bank = txn.loc.bank;
        let col = txn.loc.col;
        if self.cfg.trace {
            let what = match &txn.kind {
                TxnKind::Pim(instr) => format!("{}", instr),
                TxnKind::HostRead { .. } => format!("HOST_RD b{}", bank.0),
                TxnKind::HostWrite { .. } => format!("HOST_WR b{}", bank.0),
            };
            self.record(now, what, Some(txn.meta.warp), Some(txn.meta.seq));
        }
        match txn.kind {
            TxnKind::Pim(instr) => {
                self.stats.pim_commands += 1;
                match instr.op {
                    PimOp::Load | PimOp::Compute(_) if instr.op.accesses_dram() => {
                        let stripe = self.channel.read_open_row(bank, col);
                        self.pim.apply(instr.op, instr.slot, Some(stripe));
                        self.stats.col_reads += 1;
                    }
                    PimOp::Store => {
                        let data = self
                            .pim
                            .apply(PimOp::Store, instr.slot, None)
                            .expect("store returns data");
                        self.channel.write_open_row(bank, col, data);
                        self.stats.col_writes += 1;
                    }
                    op => {
                        // Execute-only (no DRAM access).
                        self.pim.apply(op, instr.slot, None);
                        self.stats.exec_commands += 1;
                        if self.sink.is_enabled() {
                            self.sink.emit(TraceEvent::DramCmd {
                                cycle: now,
                                channel: self.channel_id,
                                bank: 0xff,
                                kind: DramCmdKind::Exec,
                                row: u32::MAX,
                            });
                        }
                    }
                }
            }
            TxnKind::HostRead { reg } => {
                let data = self.channel.read_open_row(bank, col);
                self.out.push(MemResp::LoadData { warp: txn.meta.warp, reg, data });
                self.stats.host_reads += 1;
                self.stats.col_reads += 1;
                self.stats.host_read_latency_sum += now.saturating_sub(txn.arrival);
                if self.sink.is_enabled() {
                    self.sink.emit(TraceEvent::HostReadDone {
                        cycle: now,
                        channel: self.channel_id,
                        warp: txn.meta.warp.0,
                        latency: now.saturating_sub(txn.arrival),
                    });
                }
            }
            TxnKind::HostWrite { data } => {
                self.channel.write_open_row(bank, col, data);
                self.stats.host_writes += 1;
                self.stats.col_writes += 1;
            }
        }
        let outcome = self.backend.on_retire(&txn);
        if self.sink.is_enabled() {
            self.sink.emit(TraceEvent::ReqIssued {
                cycle: now,
                channel: self.channel_id,
                group: txn.group.0,
                warp: txn.meta.warp.0,
                seq: txn.meta.seq,
            });
        }
        if outcome.credit {
            // Return the buffer credit to the core (Kim et al. style).
            self.out.push(MemResp::Credit { warp: txn.meta.warp });
        }
        for (warp, fence_id) in outcome.fence_acks {
            self.stats.fence_acks += 1;
            self.out.push(MemResp::FenceAck { warp, fence_id });
            if self.sink.is_enabled() {
                self.sink.emit(TraceEvent::FenceAck {
                    cycle: now,
                    channel: self.channel_id,
                    warp: warp.0,
                    fence_id,
                });
            }
        }
        self.stats.last_issue_cycle = now;
    }

    /// The class pick's bank: the oldest legal head, or with an
    /// adversary attached a uniform draw among the legal heads. The
    /// generator draws only when the class has a candidate, i.e. only
    /// for the class the issue phase acts on.
    fn choose(&mut self, pick: ClassPick) -> Option<BankId> {
        match self.adversary.as_mut() {
            Some(_) if pick.candidates.is_empty() => None,
            Some(rng) => Some(pick.candidates[rng.gen_index(pick.candidates.len())]),
            None => pick.oldest.map(|(_, b)| b),
        }
    }

    /// Issues at most one command this cycle: column accesses first (they
    /// retire transactions), then execute-only PIM commands, then
    /// activates, then precharges. One walk over the bank heads sorts
    /// each head into the class of its needed command; a head whose
    /// command is not yet legal contributes the cycle it becomes legal.
    /// Returns [`Horizon::Dense`] if a command issued, else
    /// [`Horizon::Blocked`] with the earliest such cycle.
    fn issue_phase(&mut self, now: MemCycle) -> Horizon {
        let adversarial = self.adversary.is_some();
        let mut column = ClassPick::default();
        let mut activate = ClassPick::default();
        let mut precharge = ClassPick::default();
        let mut wake = None;
        for (b, q) in self.bank_q.iter().enumerate() {
            let Some(head) = q.front() else { continue };
            let bank = BankId(b as u8);
            let (class, cmd) = match self.channel.needed_command(bank, head.loc.row) {
                NeededCommand::Column => {
                    // A vetoed column waits on a retire, not on time.
                    if !self.backend.issue_allowed(head) {
                        continue;
                    }
                    let kind = if head.is_write() { ColKind::Write } else { ColKind::Read };
                    (&mut column, DramCommand::column(bank, kind))
                }
                NeededCommand::Activate => {
                    (&mut activate, DramCommand::Activate { bank, row: head.loc.row })
                }
                NeededCommand::Precharge => (&mut precharge, DramCommand::Precharge { bank }),
            };
            match self.channel.earliest_issue(cmd, now) {
                Some(at) if at == now => class.offer(head.arrival, bank, adversarial),
                at => wake = min_horizon(wake, at),
            }
        }
        if let Some(bank) = self.choose(column) {
            let txn = self.bank_q[bank.index()].front().expect("picked bank has head");
            let kind = if txn.is_write() { ColKind::Write } else { ColKind::Read };
            let issued = self.channel.try_issue(DramCommand::column(bank, kind), now);
            debug_assert!(issued, "the walk checked legality");
            let txn = self.bank_q[bank.index()].pop_front().expect("head exists");
            self.bank_queued -= 1;
            self.complete(txn, now);
            return Horizon::Dense;
        }
        if self.exec_q.front().is_some_and(|head| self.backend.issue_allowed(head)) {
            let txn = self.exec_q.pop_front().expect("peeked head");
            self.complete(txn, now);
            return Horizon::Dense;
        }
        if let Some(bank) = self.choose(activate) {
            let row = self.bank_q[bank.index()].front().expect("head exists").loc.row;
            let issued = self.channel.try_issue(DramCommand::Activate { bank, row }, now);
            debug_assert!(issued);
            self.record(now, format!("ACT b{} r{row}", bank.0), None, None);
            self.stats.activates += 1;
            self.stats.last_issue_cycle = now;
            return Horizon::Dense;
        }
        if let Some(bank) = self.choose(precharge) {
            let issued = self.channel.try_issue(DramCommand::Precharge { bank }, now);
            debug_assert!(issued);
            self.record(now, format!("PRE b{}", bank.0), None, None);
            self.stats.precharges += 1;
            self.stats.last_issue_cycle = now;
            return Horizon::Dense;
        }
        if self.cfg.page_policy == PagePolicy::Closed {
            // Eagerly close any open row no queued transaction wants.
            for b in 0..self.bank_q.len() {
                let bank = BankId(b as u8);
                let Some(open) = self.channel.bank(bank).open_row() else { continue };
                if self.bank_q[b].iter().any(|t| t.loc.row == open) {
                    continue;
                }
                if self.channel.try_issue(DramCommand::Precharge { bank }, now) {
                    self.record(now, format!("PRE b{} (closed-page)", bank.0), None, None);
                    self.stats.precharges += 1;
                    self.stats.last_issue_cycle = now;
                    return Horizon::Dense;
                }
            }
        }
        Horizon::Blocked(wake)
    }

    /// Advances the controller by one memory cycle; returns responses
    /// (load data, fence acks) to send back up the pipe.
    pub fn tick(&mut self, now: MemCycle) -> Vec<MemResp> {
        self.arrival_cycle = now;
        let refreshes = self.channel.refreshes();
        self.channel.maintain(now);
        self.read_q.record_tick();
        self.write_q.record_tick();
        // Periodic occupancy sample for counter tracks (every 64 memory
        // cycles keeps trace volume proportional to runtime, not work).
        if self.sink.is_enabled() && now.is_multiple_of(SAMPLE_STRIDE) {
            self.sink.emit(TraceEvent::QueueSample {
                cycle: now,
                channel: self.channel_id,
                read_q: self.read_q.len() as u32,
                write_q: self.write_q.len() as u32,
            });
        }
        let markers = self.consume_markers();
        let dequeued = self.dequeue_phase();
        let issue = self.issue_phase(now);
        let quiet = !markers
            && !dequeued
            && self.out.is_empty()
            && self.channel.refreshes() == refreshes
            && self.cfg.page_policy == PagePolicy::Open;
        // A tick that changed nothing leaves every scheduling answer as
        // it was (none depends on the cycle), so the next tick that can
        // act is the first at which a DRAM timer expires or a refresh
        // fires. Closed-page controllers stay dense: their eager
        // precharge scan does not report a wake-up cycle.
        self.horizon = match issue {
            Horizon::Blocked(wake) if quiet => Horizon::Blocked(min_horizon(
                wake,
                self.channel.next_refresh_event(now.saturating_add(1)),
            )),
            _ => Horizon::Dense,
        };
        std::mem::take(&mut self.out)
    }

    /// Advances the controller across `ticks` quiescent memory cycles
    /// starting at `now` — cycles in which [`tick`](Self::tick) would
    /// change nothing beyond per-cycle bookkeeping, because the
    /// controller is idle or blocked (its last tick changed nothing and
    /// its [`NextEvent`] horizon lies at or past the window's end).
    /// Replays that bookkeeping in closed form: the occupancy integrals
    /// (at the window's constant occupancy), the write-drain hysteresis
    /// (which re-evaluates the same fill every cycle), the arrival
    /// stamp used for requests pushed between memory ticks, and — with
    /// a live sink — the periodic queue samples the dense loop would
    /// have emitted at every `SAMPLE_STRIDE` boundary inside the window
    /// (each reads the constant occupancies, making the event core's
    /// sample stream byte-identical to the dense core's).
    ///
    /// The caller must not skip across a refresh trigger;
    /// [`Channel::next_refresh_event`] is a horizon event precisely so
    /// the cycle that performs a refresh is ticked densely.
    pub fn skip_ticks(&mut self, now: MemCycle, ticks: u64) {
        if ticks == 0 {
            return;
        }
        debug_assert!(
            self.is_idle()
                || matches!(self.horizon, Horizon::Blocked(at)
                    if at.is_none_or(|at| at >= now + ticks)),
            "skip_ticks across a cycle on which the controller acts"
        );
        debug_assert!(
            self.channel.next_refresh_event(now).is_none_or(|due| due >= now + ticks),
            "skip_ticks window crosses a refresh trigger"
        );
        if self.sink.is_enabled() {
            let read_q = self.read_q.len() as u32;
            let write_q = self.write_q.len() as u32;
            let mut cycle = now.next_multiple_of(SAMPLE_STRIDE);
            while cycle < now + ticks {
                self.sink.emit(TraceEvent::QueueSample {
                    cycle,
                    channel: self.channel_id,
                    read_q,
                    write_q,
                });
                cycle += SAMPLE_STRIDE;
            }
        }
        self.arrival_cycle = now + ticks - 1;
        self.read_q.record_ticks(ticks);
        self.write_q.record_ticks(ticks);
        // dequeue_phase re-runs the hysteresis comparison every cycle;
        // one evaluation at the final occupancy is equivalent for a
        // window in which it is constant.
        if self.write_q.fill_fraction() >= self.cfg.write_drain_high {
            self.draining_writes = true;
        } else if self.write_q.fill_fraction() <= self.cfg.write_drain_low {
            self.draining_writes = false;
        }
    }

    /// Whether all queues, command queues and ordering state are drained.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.bank_queued,
            self.bank_q.iter().map(VecDeque::len).sum::<usize>(),
            "bank_queued counter out of sync"
        );
        self.bank_queued == 0
            && self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.exec_q.is_empty()
            && self.backend.is_idle()
            && self.out.is_empty()
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> McStats {
        let mut s = self.stats;
        let b = self.backend.stats();
        s.ol_packets = b.packets_merged;
        s.sanity_violations = b.sanity_violations;
        s
    }

    /// The DRAM channel (initialisation / verification).
    #[must_use]
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Mutable DRAM channel access (workload data initialisation).
    pub fn channel_mut(&mut self) -> &mut Channel {
        self.horizon = Horizon::Dense;
        &mut self.channel
    }

    /// The PIM unit attached to this channel.
    #[must_use]
    pub fn pim(&self) -> &PimUnit {
        &self.pim
    }

    /// Mean read/write transaction-queue occupancies.
    #[must_use]
    pub fn mean_queue_occupancy(&self) -> (f64, f64) {
        (self.read_q.mean_occupancy(), self.write_q.mean_occupancy())
    }
}

/// Quiescence horizon in *memory* cycles. A *blocked* controller — its
/// last tick offered, merged or released no marker, dequeued nothing,
/// issued no command, returned no response and saw no refresh —
/// reports the horizon that tick cached: the earliest cycle at which a
/// queued bank head's needed command becomes legal
/// ([`Channel::earliest_issue`]) or a refresh can fire, or `None` if
/// only new input can unblock it. No scheduling answer depends on the
/// cycle, so every tick before that horizon is a no-op. Input clears
/// the cache ([`push`](MemoryController::push),
/// [`channel_mut`](MemoryController::channel_mut), the fault setters).
/// Otherwise an active controller (queued work, fences pending,
/// ordering state live, or responses buffered) reports `Some(now)`. A
/// closed-page controller never caches a horizon, and with a row still
/// open it too reports `Some(now)`: the eager precharge scan in the
/// issue phase retries every cycle until the row closes. An idle
/// controller's only future event is the channel's refresh trigger;
/// with refresh disabled it is fully drained (`None`).
impl NextEvent for MemoryController {
    fn next_event(&self, now: u64) -> Option<u64> {
        if let Horizon::Blocked(at) = self.horizon {
            debug_assert!(
                at.is_none_or(|at| at >= now),
                "a blocked controller was not woken at its horizon"
            );
            return at;
        }
        if !self.is_idle() {
            return Some(now);
        }
        if self.cfg.page_policy == PagePolicy::Closed {
            let any_open = (0..self.bank_q.len())
                .any(|b| self.channel.bank(BankId(b as u8)).open_row().is_some());
            if any_open {
                return Some(now);
            }
        }
        self.channel.next_refresh_event(now)
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("read_q", &self.read_q.len())
            .field("write_q", &self.write_q.len())
            .field("exec_q", &self.exec_q.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::message::{MarkerCopy, ReqMeta};
    use orderlight::packet::OrderLightPacket;
    use orderlight::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, Stripe, TsSlot};
    use orderlight::{AluOp, PimInstruction, Reg};
    use orderlight_hbm::{RefreshParams, TimingParams};
    use orderlight_pim::TsSize;
    use orderlight_trace::RingSink;
    use std::sync::Arc;

    fn mc() -> MemoryController {
        let cfg = McConfig::default();
        let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
        let pim = PimUnit::new(TsSize::Half, 2048, 16);
        MemoryController::new(cfg, channel, pim)
    }

    fn warp() -> GlobalWarpId {
        GlobalWarpId::new(0, 0)
    }

    fn pim_req(op: PimOp, addr: u64, slot: u16, seq: u64) -> MemReq {
        MemReq::Pim {
            instr: PimInstruction {
                op,
                addr: Addr(addr),
                slot: TsSlot(slot),
                group: MemGroupId(0),
            },
            meta: ReqMeta { warp: warp(), seq },
        }
    }

    fn ol_marker(number: u32) -> MemReq {
        MemReq::Marker(MarkerCopy {
            marker: Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), number)),
            total_copies: 1,
        })
    }

    fn fence_probe(fence_id: u64) -> MemReq {
        MemReq::Marker(MarkerCopy {
            marker: Marker::FenceProbe { warp: warp(), fence_id, channel: ChannelId(0) },
            total_copies: 1,
        })
    }

    /// Drives the controller until idle, returning responses and the
    /// final cycle.
    fn run_until_idle(mc: &mut MemoryController) -> (Vec<MemResp>, MemCycle) {
        let mut out = Vec::new();
        let mut now = 0;
        while !mc.is_idle() {
            out.extend(mc.tick(now));
            now += 1;
            assert!(now < 1_000_000, "controller did not drain");
        }
        (out, now)
    }

    #[test]
    fn vector_add_with_orderlight_is_correct() {
        // c[i] = a[i] + b[i] over one tile of 4 stripes. Addresses chosen
        // so a, b, c land in different rows of bank 0 of channel 0:
        // within-channel offset advances by 2048 per bank-rotation; use
        // the bank-aligned stride so all rows share bank 0.
        let mut m = mc();
        // Rows 0, 1, 2 of bank 0, channel 0 (the paper's layout: all
        // operands of a computation in one bank, different rows).
        let a0 = m.cfg.mapping.compose(ChannelId(0), 0).0;
        let b0 = m.cfg.mapping.compose(ChannelId(0), 2048).0;
        let c0 = m.cfg.mapping.compose(ChannelId(0), 4096).0;
        // Initialise a and b in the functional store.
        for i in 0..4u64 {
            let la = m.cfg.mapping.decode(Addr(a0 + i * 32));
            let lb = m.cfg.mapping.decode(Addr(b0 + i * 32));
            assert_eq!(la.bank, lb.bank, "operands share a bank");
            m.channel_mut().store_mut().write(la.bank, la.row, la.col, Stripe::splat(10));
            m.channel_mut().store_mut().write(lb.bank, lb.row, lb.col, Stripe::splat(32));
        }
        let mut seq = 0;
        for i in 0..4u64 {
            m.push(pim_req(PimOp::Load, a0 + i * 32, i as u16, seq));
            seq += 1;
        }
        m.push(ol_marker(1));
        for i in 0..4u64 {
            m.push(pim_req(PimOp::Compute(AluOp::Add), b0 + i * 32, i as u16, seq));
            seq += 1;
        }
        m.push(ol_marker(2));
        for i in 0..4u64 {
            m.push(pim_req(PimOp::Store, c0 + i * 32, i as u16, seq));
            seq += 1;
        }
        let (_, _) = run_until_idle(&mut m);
        for i in 0..4u64 {
            let lc = m.cfg.mapping.decode(Addr(c0 + i * 32));
            assert_eq!(
                m.channel().store().read(lc.bank, lc.row, lc.col),
                Stripe::splat(42),
                "stripe {i}"
            );
        }
        let s = m.stats();
        assert_eq!(s.pim_commands, 12);
        assert_eq!(s.ol_packets, 2);
        assert_eq!(s.sanity_violations, 0);
    }

    #[test]
    fn fence_probe_acks_after_prior_requests_issue() {
        let mut m = mc();
        for i in 0..4u64 {
            m.push(pim_req(PimOp::Load, i * 32, i as u16, i));
        }
        m.push(fence_probe(9));
        let (out, _) = run_until_idle(&mut m);
        let acks: Vec<_> =
            out.iter().filter(|r| matches!(r, MemResp::FenceAck { fence_id: 9, .. })).collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(m.stats().fence_acks, 1);
    }

    #[test]
    fn fence_probe_with_empty_controller_acks_immediately() {
        let mut m = mc();
        m.push(fence_probe(1));
        let out = m.tick(0);
        assert!(matches!(out[0], MemResp::FenceAck { fence_id: 1, .. }));
    }

    #[test]
    fn host_read_returns_data() {
        let mut m = mc();
        let loc = m.cfg.mapping.decode(Addr(64));
        m.channel_mut().store_mut().write(loc.bank, loc.row, loc.col, Stripe::splat(5));
        m.push(MemReq::HostRead {
            addr: Addr(64),
            reg: Reg(3),
            meta: ReqMeta { warp: warp(), seq: 0 },
        });
        let (out, _) = run_until_idle(&mut m);
        assert!(out.iter().any(|r| matches!(
            r,
            MemResp::LoadData { reg: Reg(3), data, .. } if *data == Stripe::splat(5)
        )));
        assert_eq!(m.stats().host_reads, 1);
    }

    #[test]
    fn orderlight_does_not_constrain_other_group() {
        // Group-1 host write queued behind a group-0 OrderLight packet
        // still proceeds while group 0 is blocked.
        let mut m = mc();
        // A group-0 PIM load ahead of the packet.
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(ol_marker(1));
        // Host write to a group-1 bank (banks 8..16 under the default
        // GroupMap): the start of bank 8's row region on channel 0.
        let addr = m.cfg.mapping.compose(ChannelId(0), m.cfg.mapping.bank_base_offset(BankId(8)));
        let loc = m.cfg.mapping.decode(addr);
        assert_eq!(loc.bank, BankId(8));
        assert_eq!(m.cfg.groups.group_of(loc.bank), MemGroupId(1));
        m.push(MemReq::HostWrite {
            addr,
            data: Stripe::splat(1),
            meta: ReqMeta { warp: GlobalWarpId::new(0, 1), seq: 0 },
        });
        let (_, _) = run_until_idle(&mut m);
        assert_eq!(m.stats().host_writes, 1);
        assert_eq!(m.stats().pim_commands, 1);
    }

    #[test]
    fn without_ordering_frfcfs_reorders_row_hits() {
        // Two loads to row X, then a store to row Y, then two more loads
        // to row X — without ordering the scheduler services the row-X
        // loads together (row-hit first), issuing the store *after* the
        // later loads even though it arrived earlier.
        let mut m = mc();
        let other_row = m.cfg.mapping.compose(ChannelId(0), 2048).0;
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(pim_req(PimOp::Load, 32, 1, 1));
        m.push(pim_req(PimOp::Store, other_row, 0, 2));
        m.push(pim_req(PimOp::Load, 64, 2, 3));
        m.push(pim_req(PimOp::Load, 96, 3, 4));
        // Run a bounded number of cycles and inspect issue order through
        // stats: all 4 reads should complete before the write.
        let mut now = 0;
        let mut read_done_at = None;
        let mut write_done_at = None;
        while !m.is_idle() {
            m.tick(now);
            let s = m.stats();
            if s.col_reads == 4 && read_done_at.is_none() {
                read_done_at = Some(now);
            }
            if s.col_writes == 1 && write_done_at.is_none() {
                write_done_at = Some(now);
            }
            now += 1;
            assert!(now < 100_000);
        }
        assert!(
            read_done_at.unwrap() < write_done_at.unwrap(),
            "row-hit loads should overtake the older store"
        );
    }

    #[test]
    fn orderlight_prevents_the_reordering() {
        // Same pattern as above but with OrderLight packets between the
        // phases: the store must issue before the later loads.
        let mut m = mc();
        let other_row = m.cfg.mapping.compose(ChannelId(0), 2048).0;
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(pim_req(PimOp::Load, 32, 1, 1));
        m.push(ol_marker(1));
        m.push(pim_req(PimOp::Store, other_row, 0, 2));
        m.push(ol_marker(2));
        m.push(pim_req(PimOp::Load, 64, 2, 3));
        m.push(pim_req(PimOp::Load, 96, 3, 4));
        let mut now = 0;
        let mut third_read_at = None;
        let mut write_at = None;
        while !m.is_idle() {
            m.tick(now);
            let s = m.stats();
            if s.col_reads >= 3 && third_read_at.is_none() {
                third_read_at = Some(now);
            }
            if s.col_writes == 1 && write_at.is_none() {
                write_at = Some(now);
            }
            now += 1;
            assert!(now < 100_000);
        }
        assert!(
            write_at.unwrap() < third_read_at.unwrap(),
            "OrderLight must force the store before the post-packet loads"
        );
    }

    #[test]
    fn exec_commands_flow_without_dram() {
        let mut m = mc();
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(ol_marker(1));
        m.push(pim_req(PimOp::Execute(AluOp::ScaleImm(3)), 0, 0, 1));
        let (_, _) = run_until_idle(&mut m);
        let s = m.stats();
        assert_eq!(s.exec_commands, 1);
        assert_eq!(s.pim_commands, 2);
        assert_eq!(m.pim().stats().execute_commands, 1);
    }

    #[test]
    fn trace_records_commands_in_issue_order() {
        let cfg = McConfig { trace: true, ..McConfig::default() };
        let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
        let pim = PimUnit::new(TsSize::Half, 2048, 16);
        let mut m = MemoryController::new(cfg, channel, pim);
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(ol_marker(1));
        m.push(pim_req(PimOp::Store, 64, 0, 1));
        let (_, _) = run_until_idle(&mut m);
        let trace = m.trace();
        let kinds: Vec<&str> =
            trace.iter().map(|r| r.what.split_whitespace().next().unwrap()).collect();
        // ACT row 0, the load, then (same row) the store.
        assert_eq!(kinds, vec!["ACT", "pim_load", "pim_store"]);
        // Cycles are non-decreasing.
        assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // Column records carry warp identity and sequence numbers.
        assert_eq!(trace[1].seq, Some(0));
        assert_eq!(trace[2].seq, Some(1));
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let mut m = mc();
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        let (_, _) = run_until_idle(&mut m);
        assert!(m.trace().is_empty());
    }

    /// Everything a tick can change that the harness below compares.
    fn fingerprint(m: &MemoryController) -> String {
        let open_rows: Vec<_> = (0..m.channel.num_banks())
            .map(|b| m.channel.bank(BankId(b as u8)).open_row())
            .collect();
        let bank_q: Vec<_> = m.bank_q.iter().map(VecDeque::len).collect();
        format!(
            "{:?} {} {} {} {bank_q:?} {} {open_rows:?} {} {} {}",
            m.stats(),
            m.channel.refreshes(),
            m.read_q.len(),
            m.write_q.len(),
            m.exec_q.len(),
            m.read_q.ready_unoffered_marker().is_some(),
            m.write_q.ready_unoffered_marker().is_some(),
            m.backend.is_idle(),
        )
    }

    /// What an acting tick did, for naming the window a sleep covered.
    fn action(before: &McStats, after: &McStats, refreshed: bool) -> &'static str {
        if refreshed {
            "REF"
        } else if after.activates > before.activates {
            "ACT"
        } else if after.precharges > before.precharges {
            "PRE"
        } else if after.col_reads + after.col_writes > before.col_reads + before.col_writes {
            "COL"
        } else {
            "other"
        }
    }

    /// One sleep of the event-driven controller: the action before it,
    /// the cycle of that action, the wake-up cycle and the wake-up
    /// tick's action.
    type Sleep = (&'static str, MemCycle, MemCycle, &'static str);

    /// Drives two identically built controllers with the same pushes:
    /// `dense` ticks every cycle, `event` only when its `next_event`
    /// says so, replaying the windows in between with `skip_ticks`.
    /// Checks the horizon law — every cycle on which the dense copy
    /// changes state is one the event copy ticks, and a blocked
    /// horizon is exactly the dense copy's next change — and that both
    /// end with equal statistics, occupancy means and trace streams
    /// (queue samples included). Returns the event copy's sleeps.
    fn drive_pair(
        build: impl Fn() -> MemoryController,
        pushes: &[(MemCycle, MemReq)],
        end: MemCycle,
    ) -> Vec<Sleep> {
        let (ring_d, ring_e) = (Arc::new(RingSink::new(1 << 16)), Arc::new(RingSink::new(1 << 16)));
        let (mut dense, mut event) = (build(), build());
        dense.set_sink(ring_d.clone(), 0);
        event.set_sink(ring_e.clone(), 0);
        let mut changes = Vec::new();
        let mut synced = 0;
        let mut sleeps = Vec::new();
        let mut last_action = ("none", 0);
        let mut asleep: Option<(MemCycle, Option<MemCycle>)> = None;
        for t in 0..end {
            for (_, req) in pushes.iter().filter(|(at, _)| *at == t) {
                event.skip_ticks(synced, t - synced);
                synced = t;
                dense.push(req.clone());
                event.push(req.clone());
                asleep = None;
            }
            let before = fingerprint(&dense);
            let out_d = dense.tick(t);
            if !out_d.is_empty() || fingerprint(&dense) != before {
                changes.push(t);
            }
            if event.next_event(t) != Some(t) {
                assert!(changes.last() != Some(&t), "dense copy acted at {t}, event copy slept");
                continue;
            }
            event.skip_ticks(synced, t - synced);
            let (stats, refreshes) = (event.stats(), event.channel.refreshes());
            let before = fingerprint(&event);
            let out_e = event.tick(t);
            synced = t + 1;
            assert_eq!(format!("{out_e:?}"), format!("{out_d:?}"), "responses at {t}");
            let acted = !out_e.is_empty() || fingerprint(&event) != before;
            if let Some((quiet, at)) = asleep.take() {
                // A blocked horizon is exact: the dense copy's first
                // change after the quiet tick happens at it.
                assert_eq!(Some(t), at, "woke at {t}, horizon {at:?}");
                assert_eq!(changes.iter().find(|&&c| c > quiet), Some(&t), "sleep {quiet}..{t}");
                let now = action(&stats, &event.stats(), event.channel.refreshes() > refreshes);
                sleeps.push((last_action.0, last_action.1, t, now));
            }
            if acted {
                let kind = action(&stats, &event.stats(), event.channel.refreshes() > refreshes);
                last_action = (kind, t);
            } else {
                let at = event.next_event(t + 1);
                assert!(at.is_none_or(|at| at > t), "a quiet tick's horizon lies ahead");
                asleep = Some((t, at));
            }
        }
        event.skip_ticks(synced, end - synced);
        assert_eq!(event.stats(), dense.stats());
        assert_eq!(event.mean_queue_occupancy(), dense.mean_queue_occupancy());
        assert_eq!(ring_e.events(), ring_d.events(), "trace streams, queue samples included");
        assert!(ring_d.events().iter().any(|e| matches!(e, TraceEvent::QueueSample { .. })));
        sleeps
    }

    fn row_addr(m: &MemoryController, row: u64) -> u64 {
        // Rows of bank 0, channel 0 are 2048 bytes apart (see above).
        m.cfg.mapping.compose(ChannelId(0), row * 2048).0
    }

    #[test]
    fn blocked_horizon_covers_activate_to_column() {
        let t = TimingParams::hbm_table1();
        let pushes = [(3, pim_req(PimOp::Load, 0, 0, 0))];
        let sleeps = drive_pair(mc, &pushes, 200);
        assert!(
            sleeps
                .iter()
                .any(|&(a, at, wake, w)| a == "ACT" && w == "COL" && wake == at + t.rcd_rd),
            "{sleeps:?}"
        );
    }

    #[test]
    fn blocked_horizon_covers_precharge_to_activate() {
        let t = TimingParams::hbm_table1();
        let m = mc();
        let pushes = [
            (0, pim_req(PimOp::Load, row_addr(&m, 0), 0, 0)),
            (0, pim_req(PimOp::Load, row_addr(&m, 1), 1, 1)),
        ];
        let sleeps = drive_pair(mc, &pushes, 300);
        assert!(
            sleeps.iter().any(|&(a, at, wake, w)| a == "PRE" && w == "ACT" && wake == at + t.rp),
            "{sleeps:?}"
        );
    }

    #[test]
    fn blocked_horizon_covers_column_to_column() {
        let t = TimingParams::hbm_table1();
        let pushes: Vec<_> = (0..4u64).map(|i| (0, pim_req(PimOp::Load, i * 32, 0, i))).collect();
        let sleeps = drive_pair(mc, &pushes, 200);
        assert!(
            sleeps.iter().any(|&(a, at, wake, w)| a == "COL" && w == "COL" && wake == at + t.ccdl),
            "{sleeps:?}"
        );
    }

    fn mc_with_refresh(r: RefreshParams) -> MemoryController {
        let channel = Channel::with_refresh(TimingParams::hbm_table1(), 16, 2048, Some(r));
        MemoryController::new(McConfig::default(), channel, PimUnit::new(TsSize::Half, 2048, 16))
    }

    #[test]
    fn blocked_horizon_covers_refresh_windows() {
        let r = RefreshParams { interval: 100, rfc: 20 };
        let build = || mc_with_refresh(r);
        // A load just before the first refresh keeps its row open past
        // the due cycle (the refresh waits for tRAS) while a row
        // conflict queues behind it; a load arriving inside the second
        // refresh window waits it out.
        let m = build();
        let pushes = [
            (90, pim_req(PimOp::Load, row_addr(&m, 0), 0, 0)),
            (95, pim_req(PimOp::Load, row_addr(&m, 1), 1, 1)),
            (235, pim_req(PimOp::Load, 64, 2, 2)),
        ];
        let sleeps = drive_pair(build, &pushes, 400);
        // Slept until the deferred refresh could fire...
        assert!(sleeps.iter().any(|&(_, _, _, w)| w == "REF"), "{sleeps:?}");
        // ...then through its window to the window's end...
        assert!(
            sleeps.iter().any(|&(a, at, wake, w)| a == "REF" && w == "ACT" && wake == at + r.rfc),
            "{sleeps:?}"
        );
        // ...and a request arriving mid-window slept to the same end.
        let second = 90 + TimingParams::hbm_table1().ras + r.interval;
        assert!(sleeps.iter().any(|&(_, _, wake, w)| w == "ACT" && wake == second + r.rfc));

        // A refresh falling due while a row conflict waits out tRP cuts
        // the sleep short: the refresh, not the activate, is the wake-up.
        let t = TimingParams::hbm_table1();
        let r = RefreshParams { interval: t.ras + t.rp / 2, rfc: 20 };
        let build = || mc_with_refresh(r);
        let m = build();
        let pushes = [
            (0, pim_req(PimOp::Load, row_addr(&m, 0), 0, 0)),
            (0, pim_req(PimOp::Load, row_addr(&m, 1), 1, 1)),
        ];
        let sleeps = drive_pair(build, &pushes, 200);
        assert!(
            sleeps.iter().any(|&(a, _, wake, w)| a == "PRE" && w == "REF" && wake == r.interval),
            "{sleeps:?}"
        );
    }

    #[test]
    fn backpressure_is_reported() {
        let mut m = mc();
        for i in 0..64u64 {
            assert!(m.can_accept(&pim_req(PimOp::Load, i * 32, 0, i)));
            m.push(pim_req(PimOp::Load, i * 32, 0, i));
        }
        assert!(!m.can_accept(&pim_req(PimOp::Load, 0, 0, 99)));
        // The write queue still has space.
        assert!(m.can_accept(&pim_req(PimOp::Store, 0, 0, 99)));
        // OrderLight needs space in *both* queues.
        assert!(!m.can_accept(&ol_marker(1)));
    }
}
