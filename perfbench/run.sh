#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of an mcc checkout.  Build output goes to stderr, so
# the last line of standard output is the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/bench.ml ]; then
  echo "perfbench: run from the root of an mcc source checkout (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
