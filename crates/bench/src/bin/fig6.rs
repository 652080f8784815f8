//! Regenerate Figure 6: runtime per element and bank conflicts per
//! element vs. N for Thrust on the (simulated) RTX 2080 Ti, worst-case
//! inputs, both parameter sets. The paper's point: the conflict curve
//! predicts the runtime curve, and both grow logarithmically with N.
//!
//! Usage: `fig6 [--quick] [--standard] [--full] [--backend <sim|analytic|reference>]
//!              [--algorithm <pairwise|multiway>] [--jobs <n>] [--markdown] [--resume]
//!              [--timeout <secs>] [--retries <k>] [--checkpoint-dir <dir>] [--no-checkpoint]
//!              [--trace <path>] [--trace-parent <t/s>] [--metrics <path>] [--shard-index <i>]
//!              [--shard-count <n>] [--steal] [--worker-id <id>] [--lease-ttl <secs>] [--replay]`

use std::process::ExitCode;

use wcms_bench::panel::figure_binary_main;

fn main() -> ExitCode {
    figure_binary_main("fig6")
}
