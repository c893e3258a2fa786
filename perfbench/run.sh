#!/usr/bin/env bash
# Build the benchmark and the daemon it drives from this checkout, then
# run one workload:
#   bash perfbench/run.sh --workload synth|verify|serve --seed N --seconds S --trace 0|1
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/sciduction_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
