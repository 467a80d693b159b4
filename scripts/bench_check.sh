#!/usr/bin/env bash
# Perf gate for the K-iteration hot path and the batch serving path.
#
# Gate 1 (bench_hotpath): fails if constraint-graph build time regresses
# more than 20% against the committed BENCH_hotpath.json baseline at any
# sweep scale. The gated metric is the stride-vs-reference speedup measured
# within one run (both generators on the same machine, same load), so the
# gate is machine-independent — a slower CI box scales both numbers
# together.
#
# Gate 1b (incremental engine, same bench run): on the 16-task gcd chain
# where one task's K flips per round, the warm diff-and-patch path must
# rebuild constraint-graph state at least 1.5x faster than a full stride
# regeneration. Both sides are measured within the same run, so this gate
# is machine-relative too (no committed baseline needed).
#
# Gate 1c (bench_dse): on the 240-variant execution-time DSE sweep, the
# content-keyed cross-variant cache must refresh constraint-graph state at
# least 2x faster per variant than cold per-variant regeneration (in
# practice the payload patch is orders of magnitude faster — the floor
# guards the path staying engaged, e.g. a fingerprint bug silently forcing
# rebuilds). The bench itself exits non-zero if warm variant analyses are
# not value-identical to cold ones. Within-run ratio, machine-relative.
#
# Gate 1d (bench_dse, same run): with cross-variant solver warm-starts on
# (VariantBatch::warm_start seeds each variant's K from the previous one and
# each MCRP solve from the previous critical circuit), the end-to-end warm
# sweep must beat the cold per-variant sweep by at least 2x per variant
# (container-safe floor; the target on a quiet box is >= 5x), AND the
# per-phase breakdown must show the MCRP solve time actually reduced — not
# shifted into build or overhead.
# Within-run ratio, machine-relative.
#
# Gate 1e (bench_scenario): on the 48-mode ring FSM over the gcd chain, the
# warm analyze_scenario path (cross-variant cache + solver warm starts per
# state) must beat composing cold one-shot per-state analyses by at least
# 1.5x per state. The bench itself exits non-zero if the warm scenario
# verdict (status, worst period/throughput, binding cycle) is not identical
# to the cold one. Within-run ratio, machine-relative.
#
# Gate 1f (bench_dse, same run): the symbolic-region sweep
# (VariantBatch::symbolic — one exact solve per throughput region, rational
# evaluation everywhere else) must beat the warm per-point path by at least
# 2x per variant end-to-end, AND must have performed at most 10 exact
# solves over the 240-variant sweep. The bench itself exits non-zero if
# symbolic results are not value-identical to cold ones. Within-run ratio,
# machine-relative.
#
# Gate 2 (bench_batch): fails if analyze_batch results differ across thread
# counts or across cache on/off (the bench itself exits non-zero), or if
# the parallel efficiency measured within the run falls below the floor for
# THIS machine's core count — graphs/sec at min(8, cores) threads must
# reach 0.4x of the ideal linear speedup when cores >= 2, and must not fall
# below 0.5x of the single-thread figure on a 1-core box (batch overhead
# guard). Absolute graphs/sec is never compared across machines.
#
# Gate 1h (bench_batch, same run): the content-addressed result cache must
# actually pay on duplicate-heavy serving traffic, measured on ONE worker so
# the win is the cache and not parallelism: at a 90% duplicate rate the
# fully-warm resubmission pass must be >= 5x faster than the cache-off
# baseline of the same run, the cold first pass (duplicates served by the
# in-batch dedupe only) must be >= 1.5x, and the measured hit rates must
# match the constructed duplicate rate. Within-run ratios,
# machine-relative: bench_batch interleaves its cache-off, cold and
# resubmission passes round by round (9 rounds per case) and reports each
# speedup as the median of the per-round ratios, so the gate reads that
# median.
#
# Each bench binary runs once; a gate that reads a run whose binary exited
# non-zero (its own identity or sanity check failed) fails too. Every gate
# runs even when an earlier one fails: the script ends with one PASS or
# FAIL line per gate and exits 1 if any gate failed (2 when a binary or
# the baseline is missing).
#
# Usage: scripts/bench_check.sh [build-dir]   (default: ./build)
set -uo pipefail  # no -e: one failing gate must not hide the others

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
baseline="$repo_root/BENCH_hotpath.json"
bench_bin="$build_dir/bench_hotpath"
batch_bin="$build_dir/bench_batch"
dse_bin="$build_dir/bench_dse"
scenario_bin="$build_dir/bench_scenario"

if [[ ! -x "$bench_bin" || ! -x "$batch_bin" || ! -x "$dse_bin" || ! -x "$scenario_bin" ]]; then
  echo "bench_check: $bench_bin / $batch_bin / $dse_bin / $scenario_bin not found — build first (cmake -B build && cmake --build build)" >&2
  exit 2
fi
if [[ ! -f "$baseline" ]]; then
  echo "bench_check: baseline $baseline missing — run '$bench_bin $baseline' and commit it" >&2
  exit 2
fi

fresh="$(mktemp /tmp/bench_hotpath.XXXXXX.json)"
fresh_batch="$(mktemp /tmp/bench_batch.XXXXXX.json)"
trap 'rm -f "$fresh" "$fresh_batch"' EXIT

# ---- bench runs -------------------------------------------------------------
# bench_dse and bench_scenario merge their sections into the fresh
# bench_hotpath JSON, so they run after it.
"$bench_bin" "$fresh"
hotpath_rc=$?
"$dse_bin" "$fresh"
dse_rc=$?
"$scenario_bin" "$fresh"
scenario_rc=$?
"$batch_bin" "$fresh_batch"
batch_rc=$?

# bench_ok <exit-status> <binary>: true when that bench run passed its own
# checks, so a gate may read its figures.
bench_ok() {
  if [[ "$1" -ne 0 ]]; then
    echo "bench_check FAILED: $2 exited $1 (its own check failed; see its output above)" >&2
    return 1
  fi
}

# ---- gate 1: stride constraint build vs the committed baseline --------------
gate_1() {
  bench_ok "$hotpath_rc" bench_hotpath || return 1
  python3 - "$baseline" "$fresh" <<'EOF'
import json
import sys

TOLERANCE = 1.20  # fail on >20% regression


def speedup(case):
    return case["build_reference_ms"] / max(case["build_stride_ms"], 1e-9)


with open(sys.argv[1]) as f:
    baseline = {c["g"]: c for c in json.load(f)["cases"]}
with open(sys.argv[2]) as f:
    fresh = {c["g"]: c for c in json.load(f)["cases"]}

failures = []
for g, base in sorted(baseline.items()):
    cur = fresh.get(g)
    if cur is None:
        failures.append(f"g={g}: missing from fresh run")
        continue
    old, new = speedup(base), speedup(cur)
    # Machine-relative: the stride build regressed if its advantage over the
    # reference scan (measured in the same run) shrank by >20%.
    ratio = old / new if new > 0 else float("inf")
    marker = "FAIL" if ratio > TOLERANCE else "ok"
    print(
        f"g={g}: stride-vs-reference speedup {old:.1f}x -> {new:.1f}x "
        f"(regression {ratio:.2f}x, stride {cur['build_stride_ms']:.4f} ms) {marker}"
    )
    if ratio > TOLERANCE:
        failures.append(
            f"g={g}: stride build advantage shrank {ratio:.2f}x (> {TOLERANCE:.2f}x)"
        )

if failures:
    print("bench_check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_check passed: constraint-graph build speedup within 20% of baseline")
EOF
}

# ---- gate 1b: incremental engine (patch vs full rebuild, within-run) -------
gate_1b() {
  bench_ok "$hotpath_rc" bench_hotpath || return 1
  python3 - "$fresh" <<'EOF'
import json
import sys

FLOOR = 1.5  # patch must beat a full rebuild by at least this factor

with open(sys.argv[1]) as f:
    run = json.load(f)

cases = run.get("incremental", [])
if not cases:
    print(
        "bench_check FAILED: no 'incremental' section in fresh bench_hotpath run "
        "(old binary?)",
        file=sys.stderr,
    )
    sys.exit(1)

failures = []
for case in cases:
    speedup = case["full_ms"] / max(case["patch_ms"], 1e-9)
    marker = "FAIL" if speedup < FLOOR else "ok"
    print(
        f"g={case['g']}: incremental patch {case['patch_ms']:.4f} ms vs full rebuild "
        f"{case['full_ms']:.4f} ms (speedup {speedup:.2f}x, floor {FLOOR:.2f}x) {marker}"
    )
    if speedup < FLOOR:
        failures.append(f"g={case['g']}: patch speedup {speedup:.2f}x below {FLOOR:.2f}x")

if failures:
    print("bench_check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_check passed: incremental patch path beats full rebuild on the gcd chain")
EOF
}

# ---- gate 1c: cross-variant DSE patching (within-run) ----------------------
# bench_dse exits non-zero itself when warm variant analyses diverge from
# cold ones.
gate_1c() {
  bench_ok "$dse_rc" bench_dse || return 1
  python3 - "$fresh" <<'EOF'
import json
import sys

FLOOR = 2.0  # patched variant refresh must beat cold rebuilds by this factor

with open(sys.argv[1]) as f:
    run = json.load(f)

cases = run.get("dse", [])
if not cases:
    print(
        "bench_check FAILED: no 'dse' section in fresh bench run (old bench_dse?)",
        file=sys.stderr,
    )
    sys.exit(1)

failures = []
for case in cases:
    speedup = case["cold_build_ms"] / max(case["patched_build_ms"], 1e-9)
    marker = "FAIL" if speedup < FLOOR else "ok"
    print(
        f"g={case['g']}: DSE variant patch {case['patched_build_ms']:.4f} ms vs cold "
        f"build {case['cold_build_ms']:.4f} ms over {case['variants']} variants "
        f"(speedup {speedup:.1f}x, floor {FLOOR:.1f}x) {marker}"
    )
    if speedup < FLOOR:
        failures.append(f"g={case['g']}: DSE patch speedup {speedup:.1f}x below {FLOOR:.1f}x")

if failures:
    print("bench_check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_check passed: cross-variant patching beats cold per-variant rebuilds")
EOF
}

# ---- gate 1d: e2e warm-start sweep (within-run) ----------------------------
gate_1d() {
  bench_ok "$dse_rc" bench_dse || return 1
  python3 - "$fresh" <<'EOF'
import json
import sys

FLOOR = 2.0  # container-safe e2e floor; the quiet-box target is >= 5x

with open(sys.argv[1]) as f:
    run = json.load(f)

cases = run.get("dse", [])
if not cases or "e2e_warm_solve_ms" not in cases[0]:
    print(
        "bench_check FAILED: no warm-start breakdown in the 'dse' section "
        "(old bench_dse?)",
        file=sys.stderr,
    )
    sys.exit(1)

failures = []
for case in cases:
    speedup = case["e2e_cold_ms"] / max(case["e2e_warm_ms"], 1e-9)
    marker = "FAIL" if speedup < FLOOR else "ok"
    print(
        f"g={case['g']}: e2e warm {case['e2e_warm_ms']:.3f} ms vs cold "
        f"{case['e2e_cold_ms']:.3f} ms per variant (speedup {speedup:.2f}x, "
        f"floor {FLOOR:.1f}x, rounds {case['cold_rounds']} -> {case['warm_rounds']}) {marker}"
    )
    if speedup < FLOOR:
        failures.append(f"g={case['g']}: e2e warm speedup {speedup:.2f}x below {FLOOR:.1f}x")
    # The win must come out of MCRP solve + round time, not move elsewhere.
    if case["e2e_warm_solve_ms"] >= case["e2e_cold_solve_ms"]:
        failures.append(
            f"g={case['g']}: warm MCRP solve time {case['e2e_warm_solve_ms']:.3f} ms "
            f"not below cold {case['e2e_cold_solve_ms']:.3f} ms (win shifted, not real)"
        )
    if case["warm_rounds"] >= case["cold_rounds"]:
        failures.append(
            f"g={case['g']}: warm sweep took {case['warm_rounds']} rounds vs cold "
            f"{case['cold_rounds']} (warm start not engaged)"
        )

if failures:
    print("bench_check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_check passed: e2e warm-start sweep beats cold with solve time reduced")
EOF
}

# ---- gate 1f: symbolic-region sweep (within-run) ---------------------------
gate_1f() {
  bench_ok "$dse_rc" bench_dse || return 1
  python3 - "$fresh" <<'EOF'
import json
import sys

FLOOR = 2.0       # symbolic e2e must beat the warm per-point path by this factor
MAX_SOLVES = 10   # exact solves allowed over the whole sweep

with open(sys.argv[1]) as f:
    run = json.load(f)

cases = run.get("dse", [])
if not cases or "e2e_sym_ms" not in cases[0]:
    print(
        "bench_check FAILED: no symbolic-region figures in the 'dse' section "
        "(old bench_dse?)",
        file=sys.stderr,
    )
    sys.exit(1)

failures = []
for case in cases:
    speedup = case["e2e_warm_ms"] / max(case["e2e_sym_ms"], 1e-9)
    solves = case["sym_exact_solves"]
    marker = "FAIL" if speedup < FLOOR or solves > MAX_SOLVES else "ok"
    print(
        f"g={case['g']}: e2e symbolic {case['e2e_sym_ms']:.4f} ms vs warm "
        f"{case['e2e_warm_ms']:.3f} ms per variant (speedup {speedup:.2f}x, "
        f"floor {FLOOR:.1f}x, {solves}/{case['variants']} exact solves) {marker}"
    )
    if speedup < FLOOR:
        failures.append(
            f"g={case['g']}: symbolic e2e speedup {speedup:.2f}x below {FLOOR:.1f}x"
        )
    if solves > MAX_SOLVES:
        failures.append(
            f"g={case['g']}: {solves} exact solves exceed the {MAX_SOLVES}-solve budget"
        )

if failures:
    print("bench_check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_check passed: symbolic regions beat the warm per-point sweep")
EOF
}

# ---- gate 1e: multi-mode scenario analysis (within-run) --------------------
# bench_scenario exits non-zero itself when the warm scenario verdict
# diverges from the cold one.
gate_1e() {
  bench_ok "$scenario_rc" bench_scenario || return 1
  python3 - "$fresh" <<'EOF'
import json
import sys

FLOOR = 1.5  # warm per-state scenario analysis must beat cold by this factor

with open(sys.argv[1]) as f:
    run = json.load(f)

cases = run.get("scenario", [])
if not cases:
    print(
        "bench_check FAILED: no 'scenario' section in fresh bench run "
        "(old bench_scenario?)",
        file=sys.stderr,
    )
    sys.exit(1)

failures = []
for case in cases:
    speedup = case["cold_ms"] / max(case["warm_ms"], 1e-9)
    marker = "FAIL" if speedup < FLOOR else "ok"
    print(
        f"g={case['g']}: scenario warm {case['warm_ms']:.3f} ms vs cold "
        f"{case['cold_ms']:.3f} ms per state over {case['states']} modes "
        f"(speedup {speedup:.2f}x, floor {FLOOR:.1f}x, combine {case['combine_ms']:.3f} ms) "
        f"{marker}"
    )
    if speedup < FLOOR:
        failures.append(f"g={case['g']}: scenario speedup {speedup:.2f}x below {FLOOR:.1f}x")

if failures:
    print("bench_check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_check passed: warm scenario analysis beats cold per-state composition")
EOF
}

# ---- gate 2: batch serving path --------------------------------------------
# bench_batch exits non-zero itself when results are not bit-identical
# across thread counts.
gate_2() {
  bench_ok "$batch_rc" bench_batch || return 1
  python3 - "$fresh_batch" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    run = json.load(f)

if not run.get("deterministic", False):
    print("bench_check FAILED: batch results differ across thread counts", file=sys.stderr)
    sys.exit(1)

cases = {c["threads"]: c for c in run["cases"]}
cores = run["hardware_cores"]
probe = min(8, max(c["threads"] for c in run["cases"]))
while probe not in cases:
    probe -= 1
speedup = cases[probe]["graphs_per_sec"] / max(cases[1]["graphs_per_sec"], 1e-9)

if cores >= 2:
    # Parallel-efficiency floor, scaled to this machine: 0.4x of ideal
    # linear speedup at min(8, cores) workers.
    required = 0.4 * min(probe, cores)
else:
    # Single-core box: threads cannot help; only guard that the threaded
    # path does not collapse under its own overhead.
    required = 0.5

marker = "FAIL" if speedup < required else "ok"
print(
    f"batch: {cases[1]['graphs_per_sec']:.0f} graphs/sec @1 thread -> "
    f"{cases[probe]['graphs_per_sec']:.0f} @{probe} threads "
    f"(speedup {speedup:.2f}x, required >= {required:.2f}x on {cores} core(s)) {marker}"
)
if speedup < required:
    print(
        f"bench_check FAILED: batch speedup {speedup:.2f}x below the "
        f"{required:.2f}x floor for this machine",
        file=sys.stderr,
    )
    sys.exit(1)
print("bench_check passed: batch parallel efficiency above the machine-relative floor")
EOF
}

# ---- gate 1h: duplicate-heavy serving traffic (within-run) -----------------
gate_1h() {
  bench_ok "$batch_rc" bench_batch || return 1
  python3 - "$fresh_batch" <<'EOF'
import json
import sys

RESUBMIT_FLOOR = 5.0  # fully-warm pass vs cache-off, 90% duplicates, 1 worker
COLD_FLOOR = 1.5      # cold first pass (in-batch dedupe only) vs cache-off

with open(sys.argv[1]) as f:
    run = json.load(f)

if not run.get("cache_identical", False):
    print(
        "bench_check FAILED: cache-served results differ from cold solves",
        file=sys.stderr,
    )
    sys.exit(1)

mix = run.get("repeat_mix", {}).get("cases", [])
if not mix:
    print(
        "bench_check FAILED: no 'repeat_mix' section in fresh bench_batch run "
        "(old binary?)",
        file=sys.stderr,
    )
    sys.exit(1)

failures = []
for case in mix:
    dup = case["dup_rate"]
    cold = case["speedup_cold_vs_off"]
    resub = case["speedup_resubmit_vs_off"]
    gated = dup >= 0.89  # the 90%-duplicate case carries the floors
    marker = "FAIL" if gated and (resub < RESUBMIT_FLOOR or cold < COLD_FLOOR) else "ok"
    print(
        f"repeat-mix dup={dup:.0%}: off {case['off_graphs_per_sec']:.0f} g/s, "
        f"cold {case['cold_graphs_per_sec']:.0f} ({cold:.2f}x), "
        f"resubmit {case['resubmit_graphs_per_sec']:.0f} ({resub:.2f}x), "
        f"hit rate {case['hit_rate_cold']:.1%} cold / {case['hit_rate_resubmit']:.1%} warm "
        f"{marker}"
    )
    # The constructed duplicate rate must show up as the cold hit rate (the
    # in-batch dedupe engaged) and the resubmission pass must be all hits.
    if abs(case["hit_rate_cold"] - dup) > 0.02:
        failures.append(
            f"dup={dup:.0%}: cold hit rate {case['hit_rate_cold']:.1%} far from the "
            f"constructed duplicate rate"
        )
    if case["hit_rate_resubmit"] < 0.999:
        failures.append(
            f"dup={dup:.0%}: resubmission hit rate {case['hit_rate_resubmit']:.1%} < 100%"
        )
    if gated and resub < RESUBMIT_FLOOR:
        failures.append(
            f"dup={dup:.0%}: resubmit speedup {resub:.2f}x below {RESUBMIT_FLOOR:.1f}x"
        )
    if gated and cold < COLD_FLOOR:
        failures.append(
            f"dup={dup:.0%}: cold speedup {cold:.2f}x below {COLD_FLOOR:.1f}x"
        )

if failures:
    print("bench_check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_check passed: result cache pays on duplicate-heavy traffic")
EOF
}

# ---- run every gate, then the summary ---------------------------------------
summary=()
failed=0
run_gate() {  # run_gate <id> <description>: runs gate_<id>
  echo
  echo "---- gate $1: $2"
  if "gate_$1"; then
    summary+=("$(printf 'PASS  gate %-3s %s' "$1" "$2")")
  else
    summary+=("$(printf 'FAIL  gate %-3s %s' "$1" "$2")")
    failed=$((failed + 1))
  fi
}

run_gate 1 "stride constraint build vs the BENCH_hotpath.json baseline"
run_gate 1b "incremental patch vs full rebuild"
run_gate 1c "cross-variant DSE patch vs cold rebuild"
run_gate 1d "e2e warm-start DSE sweep vs cold"
run_gate 1f "symbolic-region sweep vs warm per-point"
run_gate 1e "warm scenario analysis vs cold per-state"
run_gate 2 "batch parallel efficiency"
run_gate 1h "result cache on duplicate-heavy traffic"

echo
echo "==== bench_check summary ===="
printf '%s\n' "${summary[@]}"
if ((failed > 0)); then
  echo "bench_check FAILED: $failed of ${#summary[@]} gates failed"
  exit 1
fi
echo "bench_check passed: all ${#summary[@]} gates"
