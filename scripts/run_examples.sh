#!/usr/bin/env bash
# Runs every example_* program of a build directory with its default
# arguments (example_convert as `--demo`, inside a temporary directory) and
# fails on the first non-zero exit. example_quickstart must also report
# the figure-2 K-Iter period 13.
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

if ! grep -qF "K-Iter: throughput = 1/13 (period 13" "$tmp/example_quickstart.out"; then
  cat "$tmp/example_quickstart.out"
  echo "FAIL example_quickstart does not report K-Iter period 13" >&2
  exit 1
fi
echo "ok   example_quickstart reports K-Iter period 13"
