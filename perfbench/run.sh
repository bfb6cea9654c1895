#!/usr/bin/env bash
# Builds the planning daemon and the benchmark program from source, then
# runs the program with the given arguments (see perfbench/etb.ml).
#
#   bash perfbench/run.sh --workload plan_cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-check
set -euo pipefail
cd "$(dirname "$0")/.."
# Build products stay inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/etransform_server.exe ./perfbench/etb.exe >&2
exec ./_build/default/perfbench/etb.exe "$@"
