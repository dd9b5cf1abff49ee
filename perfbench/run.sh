#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one benchmark
# pass.  Usage (from the repository root):
#   bash perfbench/run.sh --workload solve-medium --seed 1 --seconds 35 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/sap_cli.ml ]; then
  echo "perfbench: run from a checkout of the repository (lib/, bin/ missing)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout, so it stays off: the
# benchmark writes only inside the checkout.
dune build --root . --cache=disabled ./bin/sap_cli.exe ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
