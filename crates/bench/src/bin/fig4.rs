//! Regenerate Figure 4: throughput vs. N on the (simulated) Quadro
//! M4000 — Thrust (E=15, b=512) and Modern GPU (E=15, b=128), random vs.
//! constructed worst-case inputs.
//!
//! Usage: `fig4 [--quick] [--standard] [--full] [--backend <sim|analytic|reference>]
//!              [--algorithm <pairwise|multiway>] [--jobs <n>] [--markdown] [--resume]
//!              [--timeout <secs>] [--retries <k>] [--checkpoint-dir <dir>] [--no-checkpoint]
//!              [--trace <path>] [--trace-parent <t/s>] [--metrics <path>] [--shard-index <i>]
//!              [--shard-count <n>] [--steal] [--worker-id <id>] [--lease-ttl <secs>] [--replay]`

use std::process::ExitCode;

use wcms_bench::panel::figure_binary_main;

fn main() -> ExitCode {
    figure_binary_main("fig4")
}
