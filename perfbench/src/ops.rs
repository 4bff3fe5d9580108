//! The three workloads and the ops they are made of. An op is one sweep
//! point or one served request. The set of simulated scenarios of each
//! workload is fixed; the seed only orders them (and, for
//! `serve-mixed`, fixes the request mix around them), so every seed
//! measures the same work.

use orderlight::rng::Rng;
use orderlight_pim::TsSize;
use orderlight_sim::schema::mode_wire_name;
use orderlight_sim::{ExecMode, ScenarioSpec};
use orderlight_workloads::{OrderingMode, WorkloadId};

/// KiB per data structure per channel of every `pim-ordered` point.
pub const PIM_DATA_KB: u64 = 64;
/// The `gpu-host` data-size ladder, KiB per structure per channel.
pub const GPU_LADDER_KB: [u64; 9] = [2, 4, 6, 8, 10, 12, 14, 16, 18];
/// The ladder rung the `gpu-host` speed-up references are run at.
pub const GPU_REFERENCE_KB: u64 = 16;
/// KiB per structure per channel of the `serve-mixed` scenarios.
pub const SERVE_DATA_KB: u64 = 64;

/// `(kernel, backend)` pairs left out of `pim-ordered` because the
/// simulator computes them wrongly on the recorded code: the
/// bulk-bitwise backend corrupts `Hist` (from 16 KiB) and `Gen_Fil`
/// (from 40 KiB). `tests/selftest.rs` fails once they verify, so the
/// points are put back as soon as the backend is fixed.
pub const KNOWN_INCORRECT: [(WorkloadId, OrderingMode); 2] = [
    (WorkloadId::Hist, OrderingMode::BulkBitwiseStrong),
    (WorkloadId::GenFil, OrderingMode::BulkBitwiseStrong),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every Fig. 10/12 PIM point plus the other ordering backends.
    PimOrdered,
    /// The GPU baseline over a data-size ladder.
    GpuHost,
    /// An in-process service under a closed-loop request mix.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::PimOrdered, Workload::GpuHost, Workload::ServeMixed];

    /// The workloads `BENCHMARK.json` lists, in its order. `pim-ordered`
    /// is left out: on a shared host its run-to-run spread can reach the
    /// 0.25 bound even with the host speed correction, so it serves
    /// paired runs by hand. `serve-mixed`'s direct runs still cover its
    /// layers (`pim`, `memctrl` ordering, `hbm`).
    pub const IN_BENCHMARK: [Workload; 2] = [Workload::GpuHost, Workload::ServeMixed];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PimOrdered => "pim-ordered",
            Workload::GpuHost => "gpu-host",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Every scenario this workload simulates, in canonical order.
    #[must_use]
    pub fn scenarios(self) -> Vec<ScenarioSpec> {
        match self {
            Workload::PimOrdered => pim_ordered(),
            Workload::GpuHost => {
                let mut specs = gpu_host();
                specs.extend(gpu_references().into_iter().map(|(_, ol)| ol));
                specs
            }
            Workload::ServeMixed => serve_scenarios(),
        }
    }
}

/// One scenario at the v1 defaults plus the given knobs.
#[must_use]
pub fn spec(workload: WorkloadId, mode: ExecMode, ts: TsSize, kb: u64) -> ScenarioSpec {
    ScenarioSpec { mode, ts, data_bytes_per_channel: kb * 1024, ..ScenarioSpec::new(workload) }
}

/// The stable name of a scenario, used as the key of its recorded
/// digest: `Kernel/mode/tsN/bytes`.
#[must_use]
pub fn key(spec: &ScenarioSpec) -> String {
    format!(
        "{}/{}/ts{}/{}",
        spec.workload.meta().name,
        mode_wire_name(spec.mode),
        spec.ts.denominator(),
        spec.data_bytes_per_channel
    )
}

/// `pim-ordered`: the Fig. 10 and Fig. 12 PIM points (12 kernels x 4 TS
/// sizes x {fence, OrderLight}), then seqnum, louvre and bulk at TS 1/8
/// for every kernel, less [`KNOWN_INCORRECT`].
#[must_use]
pub fn pim_ordered() -> Vec<ScenarioSpec> {
    let mut specs: Vec<ScenarioSpec> =
        pim_pairs().into_iter().flat_map(|(fence, ol)| [fence, ol]).collect();
    for w in WorkloadId::ALL {
        for mode in
            [OrderingMode::SeqNum, OrderingMode::LouvreVersioned, OrderingMode::BulkBitwiseStrong]
        {
            if !KNOWN_INCORRECT.contains(&(w, mode)) {
                specs.push(spec(w, ExecMode::Pim(mode), TsSize::Eighth, PIM_DATA_KB));
            }
        }
    }
    specs
}

/// `gpu-host`: the GPU baseline of every kernel at every ladder rung.
#[must_use]
pub fn gpu_host() -> Vec<ScenarioSpec> {
    GPU_LADDER_KB
        .iter()
        .flat_map(|&kb| WorkloadId::ALL.map(|w| spec(w, ExecMode::Gpu, TsSize::Eighth, kb)))
        .collect()
}

/// The `gpu-host` speed-up references: per kernel, the GPU baseline and
/// the OrderLight PIM run at [`GPU_REFERENCE_KB`].
#[must_use]
pub fn gpu_references() -> Vec<(ScenarioSpec, ScenarioSpec)> {
    WorkloadId::ALL
        .map(|w| {
            let pim = ExecMode::Pim(OrderingMode::OrderLight);
            (
                spec(w, ExecMode::Gpu, TsSize::Eighth, GPU_REFERENCE_KB),
                spec(w, pim, TsSize::Eighth, GPU_REFERENCE_KB),
            )
        })
        .to_vec()
}

/// The fence/OrderLight pairs of `pim-ordered`: every kernel at every
/// TS size.
#[must_use]
pub fn pim_pairs() -> Vec<(ScenarioSpec, ScenarioSpec)> {
    let mut pairs = Vec::new();
    for w in WorkloadId::ALL {
        for ts in TsSize::ALL {
            let at = |m| spec(w, ExecMode::Pim(m), ts, PIM_DATA_KB);
            pairs.push((at(OrderingMode::Fence), at(OrderingMode::OrderLight)));
        }
    }
    pairs
}

/// The fence/OrderLight pairs among the `serve-mixed` scenarios.
#[must_use]
pub fn serve_pairs() -> Vec<(ScenarioSpec, ScenarioSpec)> {
    serve_scenarios().chunks(2).map(|pair| (pair[0], pair[1])).collect()
}

/// `serve-mixed`: the distinct scenarios the clients ask for, a fence
/// and an OrderLight point at TS 1/8 for every kernel.
#[must_use]
pub fn serve_scenarios() -> Vec<ScenarioSpec> {
    WorkloadId::ALL
        .iter()
        .flat_map(|&w| {
            [OrderingMode::Fence, OrderingMode::OrderLight]
                .map(|m| spec(w, ExecMode::Pim(m), TsSize::Eighth, SERVE_DATA_KB))
        })
        .collect()
}

/// `items` in the seed's order.
#[must_use]
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    Rng::new(seed).shuffle(&mut out);
    out
}
