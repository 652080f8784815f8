#!/usr/bin/env bash
# Smoke test for the fault-tolerant sweep harness:
#
#   1. an uninterrupted `fig4 --quick` sweep records its CSV;
#   2. a second sweep is SIGKILLed mid-run, leaving a partial
#      checkpoint store in results/.checkpoint/fig4;
#   3. a `--resume` run completes from the surviving checkpoints;
#   4. the resumed CSV must be byte-identical to the uninterrupted one
#      (the checkpoint codec round-trips every f64 exactly);
#   5. an `--backend analytic` sweep must produce byte-identical CSV to
#      the simulated one (the analytic engine's counters are integer-
#      identical, so every derived figure cell matches exactly), and a
#      `--backend reference` sweep must at least complete;
#   6. a `--jobs 4` parallel sweep must be byte-identical to the
#      sequential one on both sim and analytic backends (the supervisor
#      preserves submission order regardless of worker scheduling);
#   7. an `--algorithm multiway` sweep must complete with sim/analytic
#      byte-identical CSVs that differ from the pairwise ones (the
#      k-way algorithm is cross-validated, and actually different);
#   8. the deterministic fault-injection suites run at their fixed seeds;
#   9. the `fault_demo` example prints its fault ledger exactly as pinned
#      below (faults are a pure function of the seed, so any difference
#      is a change of fault behaviour).
#
# Run from anywhere inside the repository: ./scripts/resilience_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for tool in cargo timeout mktemp diff; do
    command -v "$tool" >/dev/null 2>&1 || { echo "error: $tool not on PATH" >&2; exit 1; }
done

cargo build --release -p wcms-bench --bin fig4
FIG4=target/release/fig4
[[ -x "$FIG4" ]] || { echo "error: missing binary after build: $FIG4" >&2; exit 1; }
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

"$FIG4" --quick > "$SCRATCH/clean.csv"

# Kill a fresh sweep mid-run. SIGKILL, so nothing gets to flush or tidy
# up — torn checkpoint files must be tolerated by the resume path. The
# sweep may occasionally finish inside the grace period; the resume run
# then exercises the everything-cached path, which must also hold.
timeout -s KILL 2 "$FIG4" --quick > /dev/null || true

"$FIG4" --quick --resume > "$SCRATCH/resumed.csv"
diff -u "$SCRATCH/clean.csv" "$SCRATCH/resumed.csv"
echo "resume OK: resumed sweep is byte-identical to the uninterrupted one"

# Backends. Checkpoints are namespaced per backend, so the analytic run
# below recomputes every cell rather than replaying the sim's store —
# the byte-identical diff is a real cross-engine check.
"$FIG4" --quick --backend analytic > "$SCRATCH/analytic.csv"
diff -u "$SCRATCH/clean.csv" "$SCRATCH/analytic.csv"
echo "backend OK: analytic sweep is byte-identical to the simulated one"
"$FIG4" --quick --backend reference > /dev/null
echo "backend OK: reference sweep completed"

# Parallel execution must never change a byte of output: results are
# committed in submission order, whatever the worker count.
"$FIG4" --quick --jobs 4 --no-checkpoint > "$SCRATCH/parallel.csv"
diff -u "$SCRATCH/clean.csv" "$SCRATCH/parallel.csv"
echo "jobs OK: --jobs 4 sim sweep is byte-identical to sequential"
"$FIG4" --quick --jobs 4 --backend analytic --no-checkpoint > "$SCRATCH/parallel-analytic.csv"
diff -u "$SCRATCH/analytic.csv" "$SCRATCH/parallel-analytic.csv"
echo "jobs OK: --jobs 4 analytic sweep is byte-identical to sequential"

# Multiway smoke cell: the k-way algorithm must hold the same
# sim==analytic byte-identity contract as pairwise, while producing a
# genuinely different sweep (its checkpoints live in an
# algorithm-namespaced store, so no pairwise cell is ever replayed).
"$FIG4" --quick --algorithm multiway --no-checkpoint > "$SCRATCH/multiway.csv"
"$FIG4" --quick --algorithm multiway --backend analytic --no-checkpoint \
    > "$SCRATCH/multiway-analytic.csv"
diff -u "$SCRATCH/multiway.csv" "$SCRATCH/multiway-analytic.csv"
echo "algorithm OK: multiway sim and analytic sweeps are byte-identical"
if diff -q "$SCRATCH/clean.csv" "$SCRATCH/multiway.csv" >/dev/null; then
    echo "error: multiway sweep is byte-identical to pairwise — the flag is inert" >&2
    exit 1
fi
echo "algorithm OK: multiway sweep differs from pairwise"

# The fault-injection suites are seeded and deterministic; any flake
# here is a real bug.
cargo test --release -p wcms-gpu-sim fault
cargo test --release -p wcms-mergesort fault
cargo test --release -p wcms-workloads injected

# The one example that drives the fault path end to end, through the
# public facade: its ledger is pinned line for line.
cargo run --release --example fault_demo > "$SCRATCH/fault_demo.txt"
diff -u - "$SCRATCH/fault_demo.txt" <<'LEDGER'
no faults    sorted=true injected=0 detected=0 retries=0 cpu_fallbacks=0
transient    sorted=true injected=83 detected=26 retries=20 cpu_fallbacks=6
hard (tile)  sorted=true injected=209 detected=75 retries=53 cpu_fallbacks=22
LEDGER
echo "fault demo OK: the fault ledger is unchanged"

echo "resilience smoke passed"
