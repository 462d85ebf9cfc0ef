#!/usr/bin/env bash
# Same-seed export diff against a base revision. Builds the base revision's
# `porygon` library from a `git archive` snapshot and the working tree's
# library (both in a temporary directory), compiles scripts/export_probe.cc
# from the working tree against each, runs the probe matrix
#
#   {rounds, tick} x {direct, tree} x {clean, faulty}
#     x {trace, notrace, tracecap}
#   plus two served-state cells: real Merkle proofs (faithful) and
#     doctored state replies (tamper)
#   at PORYGON_THREADS {0, 1, 4}
#
# and cmp's metrics.json, reports.json, trace.json and global_root.hex of
# every cell. Exits non-zero on any difference or build failure.
#
#   scripts/export_diff.sh <base-rev>
#   EXPORT_DIFF_KEEP=1 scripts/export_diff.sh <base-rev>   # keep the temp dir
#
# A refactor that claims "no behaviour change" must pass this against its
# parent commit.
set -euo pipefail

cd "$(dirname "$0")/.."
base="${1:?usage: scripts/export_diff.sh <base-rev>}"
git rev-parse --verify --quiet "${base}^{commit}" >/dev/null ||
  { echo "export_diff: unknown revision ${base}" >&2; exit 2; }

work="$(mktemp -d "${TMPDIR:-/tmp}/export_diff.XXXXXX")"
trap '[ -n "${EXPORT_DIFF_KEEP:-}" ] || rm -rf "$work"' EXIT
jobs="$(nproc)"

# build_probe <source_tree> <name>: library + probe binary at $work/<name>.
build_probe() {
  local tree="$1" name="$2"
  local log="$work/$name-build.log"
  if ! { cmake -B "$work/$name-build" -S "$tree" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$work/$name-build" --target porygon -j "$jobs"; } \
      >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    return 1
  fi
  c++ -std=c++20 -O2 -I"$tree/src" scripts/export_probe.cc \
    "$work/$name-build/src/libporygon.a" -lpthread -o "$work/$name-probe"
}

mkdir -p "$work/base-src"
git archive "$base" | tar -x -C "$work/base-src"
echo "export_diff: building ${base} ..."
build_probe "$work/base-src" base
echo "export_diff: building working tree ..."
build_probe "$PWD" head

# Probe arguments of each cell: <driver> <mode> <faults> <trace>.
probe_args=()
for driver in rounds tick; do
  for mode in direct tree; do
    for faults in clean faulty; do
      for trace in trace notrace tracecap; do
        probe_args+=("$driver $mode $faults $trace")
      done
    done
  done
done
probe_args+=("rounds direct faithful trace" "tick tree tamper trace")

cells=0
diffs=0
for threads in 0 1 4; do
  for args in "${probe_args[@]}"; do
    cell="${args// /-}-t$threads"
    for side in base head; do
      mkdir -p "$work/out/$side/$cell"
      # $args is unquoted on purpose: it splits into the four arguments.
      PORYGON_THREADS="$threads" "$work/$side-probe" \
        "$work/out/$side/$cell" $args
    done
    for f in metrics.json reports.json trace.json global_root.hex; do
      if ! cmp -s "$work/out/base/$cell/$f" "$work/out/head/$cell/$f"; then
        echo "DIFF $cell/$f"
        diffs=$((diffs + 1))
      fi
    done
    cells=$((cells + 1))
  done
done

if [ "$diffs" -ne 0 ]; then
  echo "export_diff: $diffs differing exports across $cells cells vs ${base}"
  exit 1
fi
echo "export_diff: $cells cells x 4 exports byte-identical vs ${base}"
