#!/usr/bin/env python3
"""Generate the reference lockdown scenario and run the full report on it.

Usage:
    python scripts/run_lockdown_scenario.py [workdir] [--seed N] [--trials T] [--days D]

Writes the synthetic record files under <workdir>/data, all analysis tables
under <workdir>/results, and prints the headline numbers: the inter-province
flow drop, the weekend diversity deltas before and during the lockdown, the
selected cluster count, and the community-count medians.
"""

import argparse
import json
import sys
from pathlib import Path

from mobflow import synth
from mobflow.cli import main as cli_main


def _show(value: float | None, spec: str) -> str:
    """A summary figure; the summary holds None where a period has no days to compare."""
    return "n/a" if value is None else format(value, spec)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", nargs="?", default="lockdown_run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=4, help="map-equation trials per day")
    parser.add_argument("--days", type=int, default=60, help="scenario length; the lockdown starts halfway")
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    config = synth.lockdown_scenario_config(seed=args.seed, n_days=args.days, lockdown_day=args.days // 2)
    print(
        f"scenario: {config.n_provinces} provinces x {config.municipalities_per_province} "
        f"municipalities, {config.n_days} days, lockdown {config.regimes[-1].start_date}"
    )
    synth.generate(config, work / "data")

    rc = cli_main([
        "report",
        "--in", str(work / "data"),
        "--out", str(work / "results"),
        "--seed", str(args.seed),
        "--trials", str(args.trials),
    ])
    if rc != 0:
        return rc

    summary = json.loads((work / "results" / "summary.json").read_text())
    print()
    print(f"inter-province flow drop:      {_show(summary['flow_drop_pct'], '.1f')}%")
    print(f"weekend diversity delta pre:   {_show(summary['weekend_diversity_delta_pre'], '+.4f')}")
    print(f"weekend diversity delta post:  {_show(summary['weekend_diversity_delta_post'], '+.4f')}")
    print(f"selected cluster count k*:     {summary['k_star']}")
    print(f"communities median pre/post:   {_show(summary['community_count_pre_median'], '.0f')} "
          f"-> {_show(summary['community_count_post_median'], '.0f')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
