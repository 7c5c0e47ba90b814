#!/usr/bin/env python3
"""Sweep the cluster-count selection over seeds on the planted-levels territory.

Usage:
    python scripts/sweep_k_selection.py [--seeds 20] [--levels 0.15,0.35,0.55,0.75,0.92]

For each seed this plants the given out-flow diversity levels across 110
synthetic provinces, runs the pipeline down to the diversity series, and
reports which k the silhouette picks together with the elbow diagnostic.
"""

import argparse
import sys
from collections import Counter

from mobflow import synth
from mobflow.cluster import SeriesMatrix, select_k
from mobflow.diversity import diversity_series
from mobflow.od import aggregate_to_province


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--levels", default="0.15,0.35,0.55,0.75,0.92")
    parser.add_argument("--days", type=int, default=14)
    args = parser.parse_args()
    levels = [float(l) for l in args.levels.split(",")]

    picks = Counter()
    for seed in range(args.seeds):
        config = synth.planted_levels_config(seed=seed, levels=levels, n_days=args.days)
        plan = synth.generate_plan(config)
        cube = aggregate_to_province(plan.municipality_ods(), plan.territory.muni_to_province)
        matrix = SeriesMatrix.from_diversity(diversity_series(cube, "out"))
        selection = select_k(matrix, range(2, 21), seed=seed)
        picks[selection.k_star] += 1
        print(f"seed {seed:2d}: k* = {selection.k_star:2d}  (elbow {selection.elbow_k})")

    print()
    planted = len(levels)
    hits = picks.get(planted, 0)
    print(f"planted {planted} levels; recovered in {hits}/{args.seeds} seeds; picks: {dict(sorted(picks.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
