//! Regenerate Figure 5: throughput vs. N on the (simulated) RTX 2080 Ti —
//! Thrust (left) and Modern GPU (right), each with E=15/b=512 and
//! E=17/b=256, random vs. constructed worst-case inputs.
//!
//! Usage: `fig5 [--quick] [--standard] [--full] [--backend <sim|analytic|reference>]
//!              [--algorithm <pairwise|multiway>] [--jobs <n>] [--markdown] [--resume]
//!              [--timeout <secs>] [--retries <k>] [--checkpoint-dir <dir>] [--no-checkpoint]
//!              [--trace <path>] [--trace-parent <t/s>] [--metrics <path>] [--shard-index <i>]
//!              [--shard-count <n>] [--steal] [--worker-id <id>] [--lease-ttl <secs>] [--replay]`

use std::process::ExitCode;

use wcms_bench::panel::figure_binary_main;

fn main() -> ExitCode {
    figure_binary_main("fig5")
}
