#!/usr/bin/env bash
# Builds the server and the benchmark from source, then runs one benchmark
# invocation; every argument is passed on, e.g.
#   bash benchmark/run.sh --workload ingest-bin --seed 1 --seconds 20 --trace 0
# Run it from the root of a checkout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark: run from the root of a full checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
# Build output goes to stderr: the last line of stdout is the result.  The
# shared build cache stays off so that nothing is written outside the tree.
DUNE_CACHE=disabled dune build --root . bin/chimera.exe benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe bench "$@"
