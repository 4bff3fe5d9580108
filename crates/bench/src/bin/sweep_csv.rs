//! Dumps the full design-space sweep (Figures 10, 12 and 13) as CSV on
//! stdout — machine-readable results for external plotting.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/Cargo.toml --bin sweep_csv -- --jobs 8 > sweep.csv
//! ```
//!
//! `--jobs N` (or `ORDERLIGHT_JOBS`) spreads the independent sweep
//! points over N worker threads; the default is the host's available
//! parallelism. Output is bit-identical at any worker count (enforced
//! by `tests/parallel_equivalence.rs`).

use orderlight_bench::cli;
use orderlight_sim::experiments::{fig10_jobs, fig12_jobs, fig13_jobs, SweepPoint};

fn emit(rows: &[SweepPoint], figure: &str) {
    for p in rows {
        let s = &p.stats;
        println!(
            "{figure},{},{},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{},{},{},{:.6},{}",
            p.workload,
            p.ts.replace(' ', ""),
            p.mode,
            p.ordering,
            p.bmf,
            s.exec_time_ms,
            s.command_bandwidth_gcs,
            s.data_bandwidth_gbs,
            s.stall_cycles(),
            s.sm.fence_stall_cycles,
            s.sm.ol_wait_cycles,
            s.sm.reg_wait_cycles,
            s.sm.structural_stall_cycles,
            s.sm.credit_wait_cycles,
            s.sm.fences + s.sm.orderlights,
            s.primitives_per_pim_instr,
            if s.is_correct() { "pass" } else { "FAIL" },
        );
    }
}

fn main() {
    let args = cli::parse();
    let (data, jobs) = (args.data, args.jobs);
    println!(
        "figure,workload,ts,mode,ordering,bmf,exec_ms,cmd_gcs,data_gbs,stall_cycles,stall_fence,stall_ol,stall_reg,stall_structural,stall_credit,primitives,prim_per_instr,verified"
    );
    emit(&fig10_jobs(data, jobs).expect("fig10"), "fig10");
    emit(&fig12_jobs(data, jobs).expect("fig12"), "fig12");
    emit(&fig13_jobs(data, jobs).expect("fig13"), "fig13");
}
