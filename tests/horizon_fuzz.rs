//! Randomized differential gauntlet for the calendar-queue event core.
//!
//! The calendar queue (`crates/sim/src/calendar.rs`) replaced the
//! per-component min-scan horizon, so the event core's skip decisions
//! now flow through bucket rotation, the two-level occupancy bitmap and
//! the far-overflow list. This gauntlet hammers that machinery with a
//! SplitMix64-seeded stream of configurations — workload, ordering
//! mode, TS size, BMF, data size, refresh on/off, and legal fault
//! layers on/off — and asserts for every case that the dense cycle
//! core and the event core agree on **every observable**:
//!
//! * `RunStats`, bit for bit (including the exact drain cycle);
//! * per-channel controller statistics;
//! * the final DRAM bytes of every materialised row of every channel;
//! * the serialized [`ProfileReport`], byte for byte, with the stall
//!   conservation invariant holding on both cores.
//!
//! Each case's digest is computed through [`Pool`] at `jobs = 1` and
//! `jobs = 8` and the two result vectors must be identical — the
//! gauntlet doubles as a determinism check on the sweep engine.
//!
//! The first [`SMALL_CASES`] cases of the stream run in the fast tier;
//! the full [`FULL_CASES`]-case gauntlet is tier 2 (`--include-ignored`
//! or `ORDERLIGHT_TIER2=1 ./ci.sh`).
//!
//! A second stream, under [`POLICY_SEED`], draws the controller-policy
//! axes the first leaves at their defaults: the GPU baseline (host
//! reads and writes), closed-page row management, refresh storms, the
//! adversarial scheduler, and small command queues and scan depths —
//! the settings under which a controller's blocked horizon is most
//! often cut short or never cached.

use orderlight_suite::core::fault::{FaultPlan, RefreshStorm};
use orderlight_suite::core::rng::Rng;
use orderlight_suite::hbm::RefreshParams;
use orderlight_suite::memctrl::{McStats, PagePolicy};
use orderlight_suite::pim::TsSize;
use orderlight_suite::profile::profile_scenario;
use orderlight_suite::sim::config::{ExecMode, ExperimentConfig};
use orderlight_suite::sim::experiments::apply_sm_policy;
use orderlight_suite::sim::pool::Pool;
use orderlight_suite::sim::{RunStats, Scenario, ScenarioBuilder, SimCore, System};
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

/// Fast-tier prefix of the case stream.
const SMALL_CASES: usize = 8;

/// Full tier-2 gauntlet size (the ISSUE floor is 64).
const FULL_CASES: usize = 64;

/// Seed of the case stream. Changing it re-rolls the whole gauntlet;
/// keep it fixed so failures reproduce by case index.
const SEED: u64 = 0x05ca_1e5c_a1e5_ca1e;

/// Fast-tier prefix of the controller-policy stream.
const POLICY_SMALL_CASES: usize = 4;

/// Full tier-2 size of the controller-policy stream.
const POLICY_FULL_CASES: usize = 32;

/// Seed of the controller-policy stream (independent of [`SEED`]).
const POLICY_SEED: u64 = 0x0b10_c4ed_5eed_0002;

/// A gauntlet case: a label and the scenario it runs on a given core.
trait Case: Clone + Send + 'static {
    fn label(&self) -> String;
    fn scenario(&self, core: SimCore) -> Scenario;
}

/// One drawn configuration, fully determined by the stream position.
#[derive(Debug, Clone)]
struct FuzzCase {
    index: usize,
    workload: WorkloadId,
    mode: OrderingMode,
    ts: TsSize,
    bmf: u32,
    data: u64,
    refresh: bool,
    faults: bool,
}

impl Case for FuzzCase {
    fn label(&self) -> String {
        format!(
            "case[{}] {} {} {} bmf={} {}B refresh={} faults={}",
            self.index,
            self.workload,
            self.mode,
            self.ts,
            self.bmf,
            self.data,
            self.refresh,
            self.faults
        )
    }

    fn scenario(&self, core: SimCore) -> Scenario {
        let faults = if self.faults {
            // Legal stress faults only (NoC jitter, adversarial
            // tie-breaks, refresh storms): they perturb timing but both
            // cores must follow the perturbation identically.
            FaultPlan::stress(SEED ^ self.index as u64)
        } else {
            FaultPlan::none()
        };
        ScenarioBuilder::from_experiment(self.experiment())
            .keep_sm_allocation()
            .faults(faults)
            .core(core)
            .build()
            .expect("fuzz scenario builds")
    }
}

impl FuzzCase {
    fn experiment(&self) -> ExperimentConfig {
        let mut exp = ExperimentConfig::new(self.workload, ExecMode::Pim(self.mode));
        exp.ts_size = self.ts;
        exp.bmf = self.bmf;
        exp.data_bytes_per_channel = self.data;
        apply_sm_policy(&mut exp);
        if self.refresh {
            exp.system.refresh = Some(RefreshParams::hbm2());
        }
        exp
    }
}

/// Draws the first `n` cases of the fixed-seed stream.
fn fuzz_cases(n: usize) -> Vec<FuzzCase> {
    const WORKLOADS: [WorkloadId; 5] = [
        WorkloadId::Add,
        WorkloadId::Daxpy,
        WorkloadId::Scale,
        WorkloadId::Copy,
        WorkloadId::Triad,
    ];
    const MODES: [OrderingMode; 6] = [
        OrderingMode::OrderLight,
        OrderingMode::Fence,
        OrderingMode::SeqNum,
        OrderingMode::LouvreVersioned,
        OrderingMode::BulkBitwiseStrong,
        OrderingMode::None,
    ];
    const TS: [TsSize; 4] = [TsSize::Sixteenth, TsSize::Eighth, TsSize::Quarter, TsSize::Half];
    const BMF: [u32; 3] = [4, 8, 16];
    const DATA: [u64; 3] = [2 * 1024, 4 * 1024, 8 * 1024];

    let mut rng = Rng::new(SEED);
    let mut pick = move |m: usize| (rng.next_u64() % m as u64) as usize;
    (0..n)
        .map(|index| FuzzCase {
            index,
            workload: WORKLOADS[pick(WORKLOADS.len())],
            mode: MODES[pick(MODES.len())],
            ts: TS[pick(TS.len())],
            bmf: BMF[pick(BMF.len())],
            data: DATA[pick(DATA.len())],
            refresh: pick(2) == 1,
            faults: pick(2) == 1,
        })
        .collect()
}

/// One drawn controller-policy configuration.
#[derive(Debug, Clone)]
struct PolicyCase {
    index: usize,
    workload: WorkloadId,
    mode: ExecMode,
    data: u64,
    closed_page: bool,
    storm: bool,
    adversary: bool,
    bank_queue_capacity: usize,
    scan_depth: usize,
}

impl Case for PolicyCase {
    fn label(&self) -> String {
        format!(
            "policy[{}] {} {} {}B closed_page={} storm={} adversary={} bank_q={} scan={}",
            self.index,
            self.workload,
            self.mode,
            self.data,
            self.closed_page,
            self.storm,
            self.adversary,
            self.bank_queue_capacity,
            self.scan_depth
        )
    }

    fn scenario(&self, core: SimCore) -> Scenario {
        let mut exp = ExperimentConfig::new(self.workload, self.mode);
        exp.data_bytes_per_channel = self.data;
        apply_sm_policy(&mut exp);
        if self.closed_page {
            exp.system.mc.page_policy = PagePolicy::Closed;
        }
        exp.system.mc.bank_queue_capacity = self.bank_queue_capacity;
        exp.system.mc.scan_depth = self.scan_depth;
        let faults = FaultPlan {
            seed: POLICY_SEED ^ self.index as u64,
            sched_adversary: self.adversary,
            refresh_storm: self.storm.then(RefreshStorm::default),
            ..FaultPlan::none()
        };
        ScenarioBuilder::from_experiment(exp)
            .keep_sm_allocation()
            .faults(faults)
            .core(core)
            .build()
            .expect("policy scenario builds")
    }
}

/// Draws the first `n` cases of the controller-policy stream.
fn policy_cases(n: usize) -> Vec<PolicyCase> {
    const WORKLOADS: [WorkloadId; 4] =
        [WorkloadId::Add, WorkloadId::Scale, WorkloadId::Copy, WorkloadId::Triad];
    const MODES: [ExecMode; 4] = [
        ExecMode::Gpu,
        ExecMode::Pim(OrderingMode::OrderLight),
        ExecMode::Pim(OrderingMode::Fence),
        ExecMode::Pim(OrderingMode::SeqNum),
    ];
    const DATA: [u64; 2] = [2 * 1024, 4 * 1024];
    const BANK_QUEUE: [usize; 3] = [1, 2, 4];
    const SCAN_DEPTH: [usize; 3] = [1, 2, 16];

    let mut rng = Rng::new(POLICY_SEED);
    let mut pick = move |m: usize| (rng.next_u64() % m as u64) as usize;
    (0..n)
        .map(|index| PolicyCase {
            index,
            workload: WORKLOADS[pick(WORKLOADS.len())],
            mode: MODES[pick(MODES.len())],
            data: DATA[pick(DATA.len())],
            closed_page: pick(2) == 1,
            storm: pick(2) == 1,
            adversary: pick(2) == 1,
            bank_queue_capacity: BANK_QUEUE[pick(BANK_QUEUE.len())],
            scan_depth: SCAN_DEPTH[pick(SCAN_DEPTH.len())],
        })
        .collect()
}

/// Everything one case observed on the cycle core, after asserting the
/// event core matched it field for field. `PartialEq` so the pool-level
/// comparison covers every byte.
#[derive(Debug, Clone, PartialEq)]
struct CaseDigest {
    label: String,
    stats: RunStats,
    channel_stats: Vec<McStats>,
    dram_rows: Vec<((orderlight_suite::core::types::BankId, u32), Vec<u8>)>,
    report_json: String,
}

/// Runs `case` on both cores, asserts every observable agrees, and
/// returns the cycle-core digest.
fn run_case(case: &impl Case) -> CaseDigest {
    let label = case.label();

    let raw = |core: SimCore| {
        let scenario = case.scenario(core);
        let mut sys = scenario.system().expect("system builds");
        let stats = sys.run_with(scenario.budget(), core).expect("drains within budget");
        (stats, sys)
    };
    let (cycle_stats, cycle_sys) = raw(SimCore::Cycle);
    let (event_stats, event_sys) = raw(SimCore::Event);

    assert_eq!(event_stats, cycle_stats, "{label}: RunStats must be bit-identical");
    assert_eq!(
        event_sys.channel_stats(),
        cycle_sys.channel_stats(),
        "{label}: per-channel controller stats must match"
    );
    assert_eq!(event_sys.now(), cycle_sys.now(), "{label}: core clock position");
    assert_eq!(event_sys.mem_now(), cycle_sys.mem_now(), "{label}: memory clock position");
    let dram_of = |sys: &System| {
        sys.controllers()
            .iter()
            .flat_map(|mc| {
                mc.channel().store().rows_sorted().into_iter().map(|(k, v)| (k, v.to_vec()))
            })
            .collect::<Vec<_>>()
    };
    let dram_rows = dram_of(&cycle_sys);
    assert_eq!(
        dram_of(&event_sys),
        dram_rows,
        "{label}: final DRAM contents must be byte-identical"
    );

    let profiled = |core: SimCore| {
        let outcome = profile_scenario(&case.scenario(core)).expect("profiled run completes");
        assert!(outcome.is_conserved(), "{label} ({core:?}): {}", outcome.summary());
        outcome
    };
    let on_cycle = profiled(SimCore::Cycle);
    let on_event = profiled(SimCore::Event);
    assert_eq!(
        on_event.stats, cycle_stats,
        "{label}: a live profiler sink must not change the outcome"
    );
    let report_json = on_cycle.report.to_json();
    assert_eq!(
        on_event.report.to_json(),
        report_json,
        "{label}: serialized ProfileReport must match byte for byte across cores"
    );

    CaseDigest {
        label,
        stats: cycle_stats,
        channel_stats: cycle_sys.channel_stats(),
        dram_rows,
        report_json,
    }
}

/// Runs the gauntlet through a pool at each worker count and asserts
/// the digest vectors are identical — the differential checks pass and
/// the results do not depend on scheduling.
fn run_gauntlet(cases: &[impl Case]) {
    let digests_at = |workers: usize| -> Vec<CaseDigest> {
        let jobs: Vec<_> = cases
            .iter()
            .map(|case| {
                let case = case.clone();
                move || run_case(&case)
            })
            .collect();
        Pool::new(workers).run(jobs)
    };
    let serial = digests_at(1);
    assert_eq!(serial.len(), cases.len());
    let parallel = digests_at(8);
    assert_eq!(parallel, serial, "jobs=8 must be bit-identical to jobs=1");
}

#[test]
fn fuzz_gauntlet_small() {
    run_gauntlet(&fuzz_cases(SMALL_CASES));
}

#[test]
#[ignore = "tier 2: full 64-case differential gauntlet at jobs=1 and jobs=8; run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fuzz_gauntlet_full() {
    run_gauntlet(&fuzz_cases(FULL_CASES));
}

#[test]
fn policy_gauntlet_small() {
    run_gauntlet(&policy_cases(POLICY_SMALL_CASES));
}

#[test]
#[ignore = "tier 2: full controller-policy gauntlet at jobs=1 and jobs=8; run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn policy_gauntlet_full() {
    run_gauntlet(&policy_cases(POLICY_FULL_CASES));
}

/// The policy stream's fast tier is a prefix of its full stream, and
/// the full stream reaches every axis it exists for.
#[test]
fn policy_stream_covers_its_axes() {
    let small = policy_cases(POLICY_SMALL_CASES);
    let full = policy_cases(POLICY_FULL_CASES);
    for (s, f) in small.iter().zip(&full) {
        assert_eq!(format!("{s:?}"), format!("{f:?}"));
    }
    assert!(full.iter().any(|c| c.mode == ExecMode::Gpu));
    assert!(full.iter().any(|c| c.closed_page) && full.iter().any(|c| !c.closed_page));
    assert!(full.iter().any(|c| c.storm) && full.iter().any(|c| c.adversary));
    assert!(full.iter().any(|c| c.closed_page && c.storm && c.adversary));
    assert!(full.iter().any(|c| c.bank_queue_capacity == 1));
    assert!(full.iter().any(|c| c.scan_depth == 1));
}

/// Regression for the budget boundary the calendar queue must respect:
/// with refresh enabled, future-dated memory-domain horizons sit at or
/// beyond the budget cycle near the end of a run, and the event core
/// must burn the remaining budget instead of executing them. A budget
/// exactly at the drain cycle succeeds bit-identically on both cores;
/// one cycle below, both cores fail with the identical error.
#[test]
fn budget_exactly_at_horizon_is_core_independent() {
    let mut exp = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence));
    exp.ts_size = TsSize::Eighth;
    exp.data_bytes_per_channel = 2 * 1024;
    apply_sm_policy(&mut exp);
    exp.system.refresh = Some(RefreshParams::hbm2());

    let run_budget = |core: SimCore, budget: u64| {
        let mut sys = System::build(exp.clone()).expect("builds");
        sys.run_with(budget, core)
    };
    let drain = run_budget(SimCore::Cycle, 50_000_000).expect("drains").core_cycles;
    let at_cycle = run_budget(SimCore::Cycle, drain).expect("exact budget drains (cycle core)");
    let at_event = run_budget(SimCore::Event, drain).expect("exact budget drains (event core)");
    assert_eq!(at_event, at_cycle, "exact-budget runs must be bit-identical");
    let err_cycle = run_budget(SimCore::Cycle, drain - 1).expect_err("one short fails (cycle)");
    let err_event = run_budget(SimCore::Event, drain - 1).expect_err("one short fails (event)");
    assert_eq!(err_event, err_cycle, "budget errors must be identical across cores");
}

/// The case stream itself is deterministic: the fast tier runs a true
/// prefix of the tier-2 gauntlet, so a tier-2 failure at index < 8
/// reproduces in the fast tier.
#[test]
fn small_cases_are_a_prefix_of_the_full_stream() {
    let small = fuzz_cases(SMALL_CASES);
    let full = fuzz_cases(FULL_CASES);
    for (s, f) in small.iter().zip(&full) {
        assert_eq!(format!("{s:?}"), format!("{f:?}"));
    }
    // The stream must actually exercise the interesting axes.
    assert!(full.iter().any(|c| c.refresh) && full.iter().any(|c| !c.refresh));
    assert!(full.iter().any(|c| c.faults) && full.iter().any(|c| !c.faults));
    assert!(full.iter().any(|c| c.mode == OrderingMode::Fence));
    assert!(full.iter().any(|c| c.mode == OrderingMode::OrderLight));
    assert!(full.iter().any(|c| c.mode == OrderingMode::LouvreVersioned));
    assert!(full.iter().any(|c| c.mode == OrderingMode::BulkBitwiseStrong));
}
