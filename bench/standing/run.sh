#!/bin/sh
# Builds the standing benchmark from source and runs it, from the root of
# a checkout:
#
#   sh bench/standing/run.sh --workload snb-read --seed 1 --seconds 10 --trace 0
#
# --root pins the dune workspace to the current directory, so a
# dune-project above the checkout is never adopted.
exec dune exec --root . --display quiet bench/standing/standing.exe -- "$@"
