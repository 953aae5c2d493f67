#!/usr/bin/env bash
# Build dwperf from source and run one workload of the benchmark.
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  The last line of standard output is the
# result object (see bench/perf/README.md).  Build output goes to stderr;
# a failed build exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/../.."
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/main.exe >&2
exec ./_build/default/bench/perf/main.exe run "$@"
