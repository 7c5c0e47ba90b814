"""The benchmark's workloads: scenario configs and input generation from a seed.

Every workload is the lockdown preset of `mobflow.synth` with overrides that
shift where `mobflow report` spends its time. The sizes are scaled so that a
warm-up plus several timed reports fit in one benchmark run; the shape of each
workload (territory, trials, record format) is what selects the layer it
stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from zoneinfo import ZoneInfo

from mobflow import synth


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict  # keyword arguments to synth.lockdown_scenario_config
    trials: int  # report --trials
    iso_xdr: bool = False  # rewrite XDR timestamps as ISO-8601 after generation

    def config(self, seed: int) -> synth.ScenarioConfig:
        return synth.lockdown_scenario_config(seed, **self.overrides)


# Two workloads rather than one per layer: each run must be long enough to
# average out the speed drift of a shared 2-vCPU host, and all runs must fit
# the benchmark's time limit. The wide workload therefore carries both the
# per-province store/diversity work and the ISO-8601, DST and dwell ingest paths.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lockdown_ref",
            why="reference lockdown territory at the default 10 trials; map-equation search dominates",
            overrides=dict(n_days=6, lockdown_day=3),
            trials=10,
        ),
        Workload(
            name="wide_iso_records",
            why="107 provinces, dense ISO-8601 XDR records across the 2020-03-29 DST switch, dwell rejections; ingest, store and diversity dominate",
            overrides=dict(
                n_provinces=107, municipalities_per_province=2, start_date=date(2020, 3, 23),
                n_days=14, lockdown_day=7, inter_trips_per_province=20,
                intra_trips_per_pair=40, dwell_violation_rate=0.05,
            ),
            trials=1,
            iso_xdr=True,
        ),
    )
}


class InputCheckError(RuntimeError):
    """Raised when generated inputs fail the benchmark's own self-check."""


def generate_inputs(workload: Workload, seed: int, out_dir: Path) -> synth.GeneratedScenario:
    """Write the workload's record files for `seed`; the set-up the benchmark times."""
    config = workload.config(seed)
    scenario = synth.generate(config, out_dir)
    if workload.iso_xdr:
        rewrite_iso(scenario.xdr_files, ZoneInfo(config.timezone))
    return scenario


def rewrite_iso(xdr_files: list[Path], tz: ZoneInfo) -> None:
    """Rewrite every XDR timestamp as ISO-8601 with its UTC offset in `tz`.

    Each distinct rewritten value is parsed back and must give the same epoch
    second, so the ISO files carry exactly the events of the epoch ones.
    """
    iso_of: dict[str, str] = {}
    for path in xdr_files:
        lines = path.read_text().splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            user, ts, rest = line.split(",", 2)
            iso = iso_of.get(ts)
            if iso is None:
                iso = datetime.fromtimestamp(int(ts), tz).isoformat()
                if int(datetime.fromisoformat(iso).timestamp()) != int(ts):
                    raise InputCheckError(f"{path}: {iso} does not parse back to {ts}")
                iso_of[ts] = iso
            out.append(f"{user},{iso},{rest}")
        path.write_text("\n".join(out) + "\n")
