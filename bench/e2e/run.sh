#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it. Run from the root
# of the repository; all arguments go to the benchmark, e.g.
#   bash bench/e2e/run.sh --workload kv-get-udp --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last stdout line is the benchmark's
# JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "e2e: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout; keep the build inside.
dune build --root . --cache=disabled ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
