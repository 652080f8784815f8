#!/usr/bin/env bash
# The repository benchmark. Run from anywhere; it works from the
# repository root and builds the benchmark package first.
#
#   benchmark/run.sh --seed <u64> [--seconds <s>] [--traced]
#       every workload, each in its own process; prints
#       `workload metric value unit` lines, appends each run to
#       benchmark/out/results.jsonl, exits non-zero if any output was
#       incorrect. --traced adds one traced run (the per-layer table).
#   benchmark/run.sh --workload <name> --seed <u64> --seconds <s> --trace <0|1>
#       one workload; the last line of stdout is its result object.
#   benchmark/run.sh compare <parent.jsonl> <change.jsonl>
#       judge a change's runs against its parent's (see README.md).
set -euo pipefail
caller="$PWD"
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/wcms-benchmark"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

case "${1:-}" in
  compare)
    shift
    logs=()
    for log in "$@"; do
      case "$log" in /*) logs+=("$log") ;; *) logs+=("$caller/$log") ;; esac
    done
    exec "$bin" compare "${logs[@]}"
    ;;
  --workload)
    exec "$bin" run "$@"
    ;;
esac

seed="" seconds=20 traced=0
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --traced) traced=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seed" ]; then
  echo "usage: benchmark/run.sh --seed <u64> [--seconds <s>] [--traced]" >&2
  exit 2
fi

status=0
mkdir -p benchmark/out
last=benchmark/out/last-run.txt
run() {
  "$bin" run "$@" | tee "$last" || { status=1; return; }
  case "$(tail -n 1 "$last")" in
    '{"correct":true,'*) ;;
    *) status=1 ;;
  esac
}
for workload in sort-large sweep-steal serve-hot serve-cold; do
  run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
if [ "$traced" = 1 ]; then
  run --workload sort-large --seed "$seed" --seconds "$seconds" --trace 1
fi
exit "$status"
