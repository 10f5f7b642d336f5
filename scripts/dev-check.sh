#!/bin/sh
# Developer pre-push check: full build with warnings promoted to
# errors, the whole test suite twice (plain, and with every derived
# cost cross-checked against a full optimization — results must not
# depend on derivation; the goldens under test/golden pin the CLI's
# output), the daemon fault, tenant and readiness tests three more
# times each (they race real sockets against the dispatch loop, and
# the tenant and readiness suites carry the pipelined-fleet and
# epoch-isolation gates), the metrics smokes (merge's optimizer
# calls, advise's certified selection cells), the scale, intake and
# frontier-pruning bench smokes (intake asserts the prepared-statement
# cache parses every generated statement exactly as the parser does),
# formatting when ocamlformat is installed (skipped gracefully when
# not — the CI container does not ship it), and last lib/'s line count,
# largest .ml file, optional-argument count, Online.Service.options
# field count and im_* library-dependency count, plus bin/'s .ml line
# count, each with its delta against HEAD~1 (scripts/lib-lines.sh). The --compress 0 and --prune-support 0
# identities are goldens under test/golden, run by `dune runtest`.
set -eu

cd "$(dirname "$0")/.."

# A warning anywhere fails the check. (lib/costsvc additionally bakes
# -warn-error into its dune flags, so plain `dune build` enforces it
# there too.)
echo "== dune build @all (warnings as errors) =="
OCAMLPARAM="_,warn-error=+a" dune build @all

echo "== dune runtest =="
dune runtest --force

# Every derived cost cross-checked against a full optimization, and
# every selection cell the access-path certificate takes without a
# lookup (certified, or kept by narrowed staleness) re-planned outside
# the cost service: any divergence raises Derive.Mismatch and fails
# the suite.
echo "== dune runtest (IM_VALIDATE_DERIVE=1, derivation cross-checked) =="
IM_VALIDATE_DERIVE=1 dune runtest --force

# The daemon fault paths are the regressions this repo has actually
# hit (EPIPE unwinding the serve loop, half-close reply loss,
# one-accept-per-round, blocking overload writes, silent oversized
# closes); run them explicitly even though runtest covers them, so a
# failure is impossible to miss. The tenant suite's "pipelined fleet"
# case gates 100 pipelined clients on 2 tenants (one OK reply per
# command, no write error, backpressure close or reject, output queue
# <= 1 MiB); the readiness suite's daemon case gates a bystander's
# STMT p99 during another tenant's slow epoch. Three runs each: all
# three suites race real sockets against the dispatch loop and the
# fault and tenant suites have flaked on its timing before, so one
# green run proves little.
for run in 1 2 3; do
  echo "== daemon fault tests (run $run/3) =="
  dune exec test/test_server_faults.exe
  echo "== daemon tenant isolation tests (run $run/3) =="
  dune exec test/test_online_tenants.exe
  echo "== readiness and epoch isolation tests (run $run/3) =="
  dune exec test/test_evloop.exe
done

echo "== metrics smoke (--metrics exposes the registry) =="
dune exec bin/index_merge_cli.exe -- merge -d synthetic1 -q 6 --metrics \
  | grep -q 'optimizer_calls_total{kind="access"}' \
  || { echo "metrics smoke FAILED: optimizer_calls_total missing"; exit 1; }
echo "metrics smoke OK"

echo "== selection metrics smoke (the certificate answers cells) =="
certified=$(dune exec bin/index_merge_cli.exe -- advise -d synthetic1 -b 1500 \
  -q 30 --metrics | awk '$1 == "selection_cells_certified_total" { print $2 }')
[ "${certified:-0}" -gt 0 ] \
  || { echo "selection metrics smoke FAILED: no certified cells"; exit 1; }
echo "selection metrics smoke OK ($certified certified cells)"

echo "== bench: scale compression smoke, 1k statements (BENCH_scale_smoke.json) =="
# exp_scale hard-asserts the measured deviation is within the reported
# bound, the bound is within the eps budget, optimizer invocations stay
# sublinear, and --compress 0 reproduces the fig5/6 searches exactly.
IM_SCALE_N=1000 IM_BENCH_OUT=BENCH_scale_smoke.json dune exec bench/main.exe -- scale
echo "wrote BENCH_scale_smoke.json"

echo "== bench: intake smoke, prepared parse = parse_query (BENCH_intake_smoke.json) =="
# exp_intake hard-asserts Parser.Prepared.parse returns exactly what
# parse_query returns on every generated statement of all three
# databases, and reports us/statement per intake layer.
IM_BENCH_OUT=BENCH_intake_smoke.json dune exec bench/main.exe -- intake
echo "wrote BENCH_intake_smoke.json"

echo "== bench: frontier-pruning smoke (BENCH_mine_smoke.json) =="
# exp_mine hard-asserts the pruned searches evaluate measurably fewer
# pairs (fast-mode bars), stay within 3% of unpruned storage/cost on
# the fig5-8 setups, and that --prune-support 0 is bit-identical.
IM_MINE_FAST=1 IM_BENCH_OUT=BENCH_mine_smoke.json dune exec bench/main.exe -- mine
echo "wrote BENCH_mine_smoke.json"

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed) =="
fi

echo "== lib/ lines and knobs =="
scripts/lib-lines.sh

echo "== dev-check OK =="
