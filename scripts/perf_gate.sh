#!/usr/bin/env bash
# Perf regression gate: compare perfbench medians at a base revision with
# the checkout.
#
#   scripts/perf_gate.sh BASE_REV        # CI passes HEAD^1
#
# Builds perfbench twice: at BASE_REV, in a temporary git worktree outside
# the checkout with its own target dir (both removed on exit), and in the
# checkout, uncommitted edits included. Then it runs every BENCHMARK.json
# workload in five base/change pairs at the benchmark's run_seconds, plus
# five traced sweep pairs. Both runs of a pair use the same seed (1..5).
# A workload's pairs run back to back, the side that goes first
# alternating (base, change, change, base, base, ...), so a steady drift
# in the host's speed falls on both sides alike and every run but the
# first follows a run of the same workload. What ran just before
# matters: on a 2-vCPU VM a gateway_warm run that followed another
# workload read up to 25% more CPU per request than one that followed
# its twin. The gate fails when
#
#   * any change run reads "correct": false (a failed check or any failed
#     operation);
#   * an end-to-end metric's change median is worse than the base median
#     by more than its BENCHMARK.json bound, on any workload;
#   * manet-sim.ns_per_event, manet-routing.discover_us.p50 or
#     sam.train_us (traced sweep: event dispatch, one flood, profile
#     training) is worse by more than the cpu_ms_per_op bound.
#
# When perfbench/ or BENCHMARK.json differ between BASE_REV and the
# checkout, the two sides measure different things: the gate says so and
# only checks "correct" on one run of each workload of the change.
#
# A full run is 50 perfbench runs of 12-13 s plus two release builds:
# 11-12 minutes on a 2-vCPU VM. Needs git, cargo and jq.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: scripts/perf_gate.sh BASE_REV" >&2
  exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "perf-gate: cannot resolve $1 to a commit" >&2
  exit 2
}

PAIRS=5
LAYER_KEYS='["manet-sim.ns_per_event", "manet-routing.discover_us.p50", "sam.train_us"]'
seconds=$(jq -er '.run_seconds' BENCHMARK.json)
mapfile -t workloads < <(jq -er '.workloads[].name' BENCHMARK.json)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf-gate.XXXXXX")
cleanup() {
  git worktree remove --force "$tmp/base-src" >/dev/null 2>&1 || true
  rm -rf "$tmp"
  git worktree prune >/dev/null 2>&1 || true
}
trap cleanup EXIT
trap 'exit 130' INT TERM
runs="$tmp/runs.jsonl"
: >"$runs"
declare -A bin

# build SIDE SOURCE_DIR TARGET_DIR — build one side's perfbench.
build() {
  echo "perf-gate: building perfbench ($1)"
  cargo build --release --offline --quiet \
    --manifest-path "$2/perfbench/Cargo.toml" --target-dir "$3"
  bin[$1]="$3/release/perfbench"
  mkdir -p "$tmp/run-$1"
}

# run SIDE WORKLOAD TRACE SEED — one perfbench process, run in a scratch
# directory of its own (perfbench writes .perfbench/ in its working
# directory); its result line joins $runs, tagged with the run's shape.
run() {
  local side=$1 workload=$2 trace=$3 seed=$4 name line
  name="$side-$workload-trace$trace-seed$seed"
  if ! (cd "$tmp/run-$side" && "${bin[$side]}" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace "$trace") \
    >"$tmp/$name.out" 2>"$tmp/$name.err"; then
    echo "perf-gate: FAIL  $name exited nonzero; the end of its report:" >&2
    tail -n 20 "$tmp/$name.err" >&2
    exit 1
  fi
  line=$(tail -n 1 "$tmp/$name.out")
  if ! jq -ec --arg side "$side" --arg w "$workload" --argjson t "$trace" \
    --argjson s "$seed" '{side: $side, workload: $w, trace: $t, seed: $s} + .' \
    <<<"$line" >>"$runs"; then
    echo "perf-gate: FAIL  $name printed no result line: $line" >&2
    exit 1
  fi
  echo "perf-gate: ran $name: correct $(jq -r '.correct' <<<"$line")"
}

# pairs WORKLOAD TRACE — the workload's five base/change pairs.
pairs() {
  local pair side sides
  for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then sides=(base change); else sides=(change base); fi
    for side in "${sides[@]}"; do run "$side" "$1" "$2" "$pair"; done
  done
}

# Every change run must be correct: report the ones that are not.
check_correct() {
  jq -sr '.[] | select(.side == "change" and .correct != true)
    | "perf-gate: FAIL  \(.workload) seed \(.seed) trace \(.trace): correct false (\(.failed) of \(.attempted) operations failed)"' \
    "$runs" | tee "$tmp/incorrect" >&2
  [ ! -s "$tmp/incorrect" ]
}

if ! git diff --quiet "$base_sha" -- perfbench BENCHMARK.json; then
  echo "perf-gate: perfbench/ or BENCHMARK.json differs between $1 and the checkout;"
  echo "perf-gate: the sides measure different things, so nothing is compared and"
  echo "perf-gate: only 'correct' is checked, on one run of each workload of the change"
  build change "$root" "$root/perfbench/target"
  for w in "${workloads[@]}"; do run change "$w" 0 1; done
  run change sweep 1 1
  check_correct && echo "perf-gate: ok (correctness only)"
  exit
fi

git worktree add --quiet --detach "$tmp/base-src" "$base_sha"
build base "$tmp/base-src" "$tmp/base-target"
build change "$root" "$root/perfbench/target"

for w in "${workloads[@]}"; do pairs "$w" 0; done
pairs sweep 1

# One row per compared key: workload, key, base and change medians, the
# change/base ratio, the allowed ratio, the verdict, and each side's
# sorted run values (printed for a failing key, to tell a shift from an
# outlier).
echo "perf-gate: medians of $PAIRS runs per side, $1 ($base_sha) vs the checkout"
jq -sr --slurpfile bench BENCHMARK.json --argjson layer "$LAYER_KEYS" '
  def values($side; $w; $t; $k):
    [.[] | select(.side == $side and .workload == $w and .trace == $t)
      | .metrics[$k].value] | sort;
  def median: .[(length - 1) / 2 | floor];
  def row($w; $t; $k; $better; $bound):
    values("base"; $w; $t; $k) as $bs | values("change"; $w; $t; $k) as $cs
    | ($bs | median) as $b | ($cs | median) as $c
    | (if $b == 0 then (if $c == 0 then 1 else infinite end) else $c / $b end) as $ratio
    | (if $better == "lower" then 1 + $bound else 1 - $bound end) as $limit
    | (if $better == "lower" then $ratio <= $limit else $ratio >= $limit end) as $ok
    | [$w + (if $t == 1 then " (traced)" else "" end), $k, $b, $c, $ratio, $limit,
       (if $ok then "ok" else "FAIL" end), ($bs | join(" ")), ($cs | join(" "))] | @tsv;
  def metric($list; $k): first($list[] | select(.name == $k))
    // error("BENCHMARK.json lists no metric \($k)");
  . as $runs | $bench[0] as $cfg
  | metric($cfg.end_to_end; "cpu_ms_per_op").bound as $cpu_bound
  | ($cfg.workloads[].name as $w | $cfg.end_to_end[]
      | . as $m | $runs | row($w; 0; $m.name; $m.better; $m.bound)),
    ($layer[] as $k | metric($cfg.per_layer; $k)
      | . as $m | $runs | row("sweep"; 1; $k; $m.better; $cpu_bound))
' "$runs" >"$tmp/table.tsv"
awk -F '\t' '
  BEGIN { printf "perf-gate: %-18s %-30s %12s %12s %7s %7s  %s\n", "workload", "key", "base", "change", "ratio", "limit", "verdict" }
  { printf "perf-gate: %-18s %-30s %12.4g %12.4g %7.3f %7.3f  %s\n", $1, $2, $3, $4, $5, $6, $7 }
' "$tmp/table.tsv"

status=0
check_correct || status=1
if awk -F '\t' '$7 == "FAIL" { bad = 1 } END { exit !bad }' "$tmp/table.tsv"; then
  echo "perf-gate: FAIL  a median regressed past its bound:" >&2
  awk -F '\t' '
    function runs(list,   n, v, i, s) { n = split(list, v, " "); for (i = 1; i <= n; i++) s = s sprintf(" %.4g", v[i]); return s }
    $7 == "FAIL" { printf "perf-gate: FAIL  %s %s: change/base %.3f is past %.3f (base runs%s; change runs%s)\n", $1, $2, $5, $6, runs($8), runs($9) }
  ' "$tmp/table.tsv" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "perf-gate: ok"
exit "$status"
