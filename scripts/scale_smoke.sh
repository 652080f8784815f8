#!/usr/bin/env bash
# Scale-out smoke: the CI gate for the lease-based multi-process sweep
# layer and the streaming dataset pipeline.
#
#   1. crash drill — 3 stealing fig4 workers on one checkpoint store,
#      a seeded subset SIGKILLed mid-sweep, one lease file and one cell
#      file byte-flipped, a fresh fleet restarted, and the merge output
#      byte-diffed against an uninterrupted sequential run (the chaos
#      binary's multi-process cycles);
#   2. scale-out throughput — cells/sec of the same grid at 1 process
#      vs 3 stealing processes, written to $1 (default BENCH_sweep.json)
#      as the artifact CI uploads; the 3-process run must not be slower
#      than 0.8x sequential (coordination overhead stays bounded); and
#      one stealing worker on two threads (--jobs 2) must finish every
#      cell (its concurrent lease claims never share a temp file);
#   3. bounded-RSS streaming — generate and verify a 10^8-key v3
#      dataset, and external-sort a 2*10^7-key one, all under a 256 MiB
#      address-space ulimit: nothing in the streaming path may
#      materialize the dataset;
#   4. protocol proof — wcms-analyze --model-check-shard explores the
#      lease/steal protocol (workers x crashes x clock skew x expiry)
#      and the store's crash-consistency scripts exhaustively, writes
#      model_check_shard.json, and must report 0 violations with every
#      seeded mutation caught.
#
# Run from anywhere inside the repository: ./scripts/scale_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_sweep.json}
MODEL_OUT=${MODEL_OUT:-model_check_shard.json}
SEED=${SEED:-51966}
command -v cargo >/dev/null 2>&1 || { echo "error: cargo not on PATH" >&2; exit 1; }

cargo build --release -p wcms-bench --bin fig4 --bin merge --bin chaos
cargo build --release --bin wcms
cargo build --release -p wcms-analyzer --bin wcms-analyze

FIG4=target/release/fig4
MERGE=target/release/merge
CHAOS=target/release/chaos
WCMS=target/release/wcms
ANALYZE=target/release/wcms-analyze
for bin in "$FIG4" "$MERGE" "$CHAOS" "$WCMS" "$ANALYZE"; do
    [[ -x "$bin" ]] || { echo "error: missing binary after build: $bin" >&2; exit 1; }
done

SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

now() { date +%s.%N; }

# --- 1. multi-process crash drill (seeded kills + byte flips + merge) ---
"$CHAOS" --cycles 0 --multi-cycles 2 --seed "$SEED"

# --- 2. cells/sec at 1 vs 3 processes --------------------------------
"$FIG4" --quick > "$SCRATCH/seq.csv" 2> "$SCRATCH/seq.err" &
SEQ_PID=$!
T0=$(now)
wait "$SEQ_PID"
T1=$(now)
SEQ_S=$(awk -v a="$T0" -v b="$T1" 'BEGIN { print b - a }')
CELLS=$(sed -n 's/.*# sweep-summary [^c]*cells=\([0-9]*\).*/\1/p' "$SCRATCH/seq.err" | head -n 1)
[[ -n "$CELLS" ]] || { echo "error: no sweep-summary in sequential run" >&2; exit 1; }

CK="$SCRATCH/steal-ckpt"
T0=$(now)
for i in 0 1 2; do
    "$FIG4" --quick --checkpoint-dir "$CK" --steal --worker-id "w$i" \
        > /dev/null 2> "$SCRATCH/w$i.err" &
done
wait
T1=$(now)
PAR_S=$(awk -v a="$T0" -v b="$T1" 'BEGIN { print b - a }')

# The clean 3-process run must merge byte-identically too.
"$MERGE" --figure fig4 --quick --checkpoint-dir "$CK" \
    > "$SCRATCH/merged.csv" 2> "$SCRATCH/merged.err"
cmp "$SCRATCH/seq.csv" "$SCRATCH/merged.csv" || {
    echo "error: 3-process merged CSV differs from sequential run" >&2; exit 1; }
echo "scale_smoke: merged CSV byte-identical to sequential ($CELLS cells)"

SPEEDUP=$(awk -v s="$SEQ_S" -v p="$PAR_S" 'BEGIN { print s / p }')
awk -v s="$SEQ_S" -v p="$PAR_S" 'BEGIN { exit !(s / p >= 0.8) }' || {
    echo "error: 3-process sweep slower than 0.8x sequential (${SEQ_S}s -> ${PAR_S}s)" >&2
    exit 1
}
printf '{"grid":"fig4-quick","cells":%s,"seq_s":%s,"par3_s":%s,"cells_per_s_1":%s,"cells_per_s_3":%s,"speedup_3proc":%s}\n' \
    "$CELLS" "$SEQ_S" "$PAR_S" \
    "$(awk -v c="$CELLS" -v t="$SEQ_S" 'BEGIN { print c / t }')" \
    "$(awk -v c="$CELLS" -v t="$PAR_S" 'BEGIN { print c / t }')" \
    "$SPEEDUP" > "$OUT"
echo "scale_smoke: wrote $OUT (speedup ${SPEEDUP}x at 3 processes)"

# One stealing worker, two threads: every cell done, none lost.
"$FIG4" --quick --checkpoint-dir "$SCRATCH/steal-jobs2" --steal --worker-id w0 --jobs 2 \
    > /dev/null 2> "$SCRATCH/jobs2.err"
SUMMARY=$(grep -m 1 '# sweep-summary' "$SCRATCH/jobs2.err" || true)
for want in "done=$CELLS" skipped=0 panicked=0; do
    [[ " $SUMMARY " == *" $want "* ]] || {
        echo "error: --steal --jobs 2 run lacks $want: ${SUMMARY:-no sweep-summary}" >&2; exit 1; }
done
echo "scale_smoke: one stealing worker on 2 threads finished all $CELLS cells"

# --- 3. streaming dataset pipeline under a 256 MiB ulimit -------------
(
    ulimit -v 262144
    "$WCMS" genstream --family random --n 100000000 --seed "$SEED" \
        --out "$SCRATCH/big.keys"
    "$WCMS" verify --file "$SCRATCH/big.keys" | tee "$SCRATCH/verify.out"
    grep -q "100000000 keys" "$SCRATCH/verify.out"
    "$WCMS" genstream --family random --n 20000000 --seed "$SEED" \
        --out "$SCRATCH/mid.keys"
    "$WCMS" sortfile --input "$SCRATCH/mid.keys" --output "$SCRATCH/mid.sorted" \
        --run-keys 4194304
    "$WCMS" verify --file "$SCRATCH/mid.sorted" | grep -q "sorted"
)
echo "scale_smoke: 10^8-key generate+verify and 2*10^7-key external sort under 256 MiB"

# --- 4. exhaustive protocol + crash-consistency proof ------------------
"$ANALYZE" --model-check-shard --json > "$MODEL_OUT"
grep -q '"total_violations":0' "$MODEL_OUT" || {
    echo "error: model-check-shard reported violations (see $MODEL_OUT)" >&2; exit 1; }
grep -q '"ok":true' "$MODEL_OUT" || {
    echo "error: model-check-shard gate not clean (see $MODEL_OUT)" >&2; exit 1; }
if grep -q '"caught":false' "$MODEL_OUT"; then
    echo "error: a seeded protocol mutation escaped the checker (see $MODEL_OUT)" >&2; exit 1
fi
SCHEDULES=$(sed -n 's/.*"model_check_shard":{"total_schedules":\([0-9]*\).*/\1/p' "$MODEL_OUT")
echo "scale_smoke: model-check-shard clean ($SCHEDULES schedules, 0 violations) -> $MODEL_OUT"
