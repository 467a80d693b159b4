#!/usr/bin/env bash
# Runs every example_* program of a build directory with its default
# arguments (example_convert as `--demo`, inside a temporary directory) and
# fails on the first non-zero exit. example_quickstart must also report
# the figure-2 K-Iter period 13, its critical circuit and the four Gantt
# rows of its schedule's first 40 time units (so a moved start time fails
# too), and example_deadlock_analysis its witness circuit, each line for
# line.
#
#   scripts/run_examples.sh [build-dir]      (default: build)
set -euo pipefail

build=$(cd "${1:-build}" && pwd)
shopt -s nullglob
examples=("$build"/example_*)
if ((${#examples[@]} == 0)); then
  echo "no example_* programs in $build" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for example in "${examples[@]}"; do
  name=$(basename "$example")
  args=()
  [[ $name == example_convert ]] && args=(--demo)
  if ! (cd "$tmp" && "$example" "${args[@]}") >"$tmp/$name.out" 2>&1; then
    cat "$tmp/$name.out"
    echo "FAIL $name exited non-zero" >&2
    exit 1
  fi
  echo "ok   $name"
done

# expect NAME LINE: NAME's output holds LINE as a substring of one line.
expect() {
  if ! grep -qF -- "$2" "$tmp/$1.out"; then
    cat "$tmp/$1.out"
    echo "FAIL $1 does not print: $2" >&2
    exit 1
  fi
  echo "ok   $1 prints: $2"
}

expect example_quickstart "K-Iter: throughput = 1/13 (period 13"
expect example_quickstart "Critical circuit: A_1^1 -> B_1^1 -> B_2^1 -> B_3^1 -> B_1^2 -> C_1^2 -> A_2^2 -> B_3^2 -> C_1^3 -> A_1^3 -> B_3^3 -> B_1^4 -> C_1^5 -> A_1^1"
expect example_quickstart "A  1.21..2..12..1.21..2..12..1.21..2..12..1."
expect example_quickstart "B  .12312.312312312312.312312312312.31231231"
expect example_quickstart "C  ..1..1..11..1.11..1..11..1.11..1..11..1.1"
expect example_quickstart "D  ....1............1............1.........."
expect example_deadlock_analysis "witness circuit: A_1^1 -> B_1^1 -> C_1^1 -> A_1^1"
