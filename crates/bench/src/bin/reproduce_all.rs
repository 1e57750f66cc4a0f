//! Run every experiment in sequence (the `EXPERIMENTS.md` regenerator).
//!
//! ```sh
//! GM_SCALE=small cargo run --release -p gm-bench --bin reproduce_all
//! ```
//!
//! Each experiment is also available as an individual binary; this driver
//! simply chains them in paper order by spawning the sibling binaries so
//! that their output is identical either way.

use std::process::Command;

use gm_bench::config;

const SEQUENCE: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig1_space",
    "fig3_load",
    "fig2_complex",
    "fig3_cud",
    "fig4_read",
    "fig5_traverse",
    "fig6_bfs",
    "fig7_paths",
    "fig1_timeouts",
    "fig7_overall",
    "table4",
    // Beyond the paper: the multi-client concurrency sweep (gm-workload),
    // the network-attached comparison (gm-net), the sharded-locks
    // comparison (gm-shard), and the write-transaction sweep (gm-mvcc).
    "fig8_concurrency",
    "fig9_network",
    "fig10_sharding",
    "fig11_transactions",
];

fn main() {
    eprint!("{}", config::render_knobs());
    let self_path = std::env::current_exe().expect("current exe");
    let bin_dir = self_path.parent().expect("bin dir");
    for name in SEQUENCE {
        println!("\n########################################################");
        println!("###  {name}");
        println!("########################################################");
        let status = Command::new(bin_dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        if !status.success() {
            eprintln!("experiment {name} failed with {status}");
            std::process::exit(1);
        }
    }
    println!("\nAll experiments completed.");
}
