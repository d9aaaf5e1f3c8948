#!/usr/bin/env bash
# Build the servers and the benchmark program from this checkout's
# sources, then run one benchmark pass:
#
#   bash perfbench/run.sh --workload sql_read --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . bin/pb_server.exe bin/pb_router.exe perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
