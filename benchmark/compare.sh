#!/usr/bin/env bash
# Compare two result sets written by run.sh, metric by metric.
#
#   benchmark/compare.sh A.json B.json
#
# Fewer than 10 runs per workload: agreement check — each end-to-end
# median must agree within its bound from BENCHMARK.json and every
# sim_* metric must be equal where the seeds are. With 10 or more
# runs on both sides, run i of A and run i of B form a pair and A is
# the parent: a gain needs B to win 9 of 10 pairs and a median gap
# larger than A's interquartile range; B is a regression when its
# median is worse than A's by more than the bound. Exits 1 on a
# disagreement, a regression or an incorrect run.
exec python3 "$(dirname "$0")/sets.py" compare "$@"
