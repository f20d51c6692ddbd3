#!/bin/sh
# Golden physical-I/O gate for the paper figures.
#
# Runs the reduced-size Fig. 13, 15 and 17 reproductions and compares
# their physical-I/O tables (device block reads per query) with the
# committed golden file, exactly. The I/O counts are seeded and come
# from exact device counters, so any difference means a storage,
# B+-tree or executor change altered the physical access pattern.
# Response-time tables are timing-dependent and are not compared.
#
# Usage (from the repository root):
#   test/paper_io_gate.sh            compare against test/paper_io.golden
#   test/paper_io_gate.sh --update   rewrite the golden file
set -eu

golden=test/paper_io.golden
dune build bench/main.exe
out=$(mktemp)
trap 'rm -f "$out"' EXIT
# Keep only the sections whose title names physical I/O; a section ends
# at the next title or at the per-figure timing line.
./_build/default/bench/main.exe --quick fig13 fig15 fig17 |
  awk '/^== / { keep = /physical I\/O/ } /^\(fig[0-9]+ took/ { keep = 0 } keep' \
    > "$out"

if [ "${1:-}" = "--update" ]; then
  cp "$out" "$golden"
  echo "wrote $golden"
elif diff -u "$golden" "$out"; then
  echo "paper physical I/O: identical to $golden"
else
  echo "paper physical I/O differs from $golden" >&2
  exit 1
fi
