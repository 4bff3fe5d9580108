//! The OrderLight simulator's benchmark: three workloads (`pim-ordered`,
//! `gpu-host`, `serve-mixed`) run through the public API of the `sim`,
//! `workloads` and `trace` crates, on one simulation thread, with every
//! op's output checked against a recorded digest. See `README.md`.

pub mod digest;
pub mod layers;
pub mod op;
pub mod ops;
pub mod report;
pub mod serve;
pub mod sink;
pub mod speed;
pub mod stats;
pub mod sweep;

use ops::Workload;
use std::collections::BTreeMap;

/// The recorded statistics digest of every scenario `workload` runs,
/// by scenario key (see [`ops::key`]); regenerate with `--record`.
///
/// # Errors
/// When the recorded file is malformed.
pub fn expected(workload: Workload) -> Result<BTreeMap<String, u64>, String> {
    digest::parse_expected(expected_text(workload))
        .map_err(|e| format!("expected/{}.txt: {e}", workload.name()))
}

fn expected_text(workload: Workload) -> &'static str {
    match workload {
        Workload::PimOrdered => include_str!("../expected/pim-ordered.txt"),
        Workload::GpuHost => include_str!("../expected/gpu-host.txt"),
        Workload::ServeMixed => include_str!("../expected/serve-mixed.txt"),
    }
}
