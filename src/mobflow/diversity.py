"""Normalized Shannon-entropy flow diversity per province per day.

The in-flow diversity of province A is the entropy of the distribution of A's
incoming trips over origin provinces, divided by log(N) with N the number of
provinces in the territory, so values live in [0, 1]. Out-flow diversity is the
mirror image over destinations. A day with no directed flow at all has no
diversity value (absent), which is different from a day with a single partner
(diversity exactly 0).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .od import ProvinceCube

DIRECTIONS = ("in", "out")


@dataclass(frozen=True)
class DiversitySeries:
    province_id: str
    direction: str
    dates: list
    values: list[float | None]


@dataclass(frozen=True)
class WeekendContrast:
    """Means of a diversity series split pre/post a date and weekday/weekend."""

    split_date: date
    pre_weekday_mean: float | None
    pre_weekend_mean: float | None
    post_weekday_mean: float | None
    post_weekend_mean: float | None
    pre_weekday_n: int
    pre_weekend_n: int
    post_weekday_n: int
    post_weekend_n: int


def flow_diversity(counts: Sequence[int], n_provinces: int) -> float | None:
    """Normalized entropy of one province's flows over its partners for one day.

    `counts` holds the flow to or from each partner as Python ints, in ascending
    partner order; zero entries are skipped. Returns None when they sum to zero
    (absent day).
    """
    if n_provinces < 2:
        raise ValueError("entropy normalization needs at least 2 provinces")
    total = sum(counts)
    if total == 0:
        return None
    entropy = 0.0
    for count in counts:
        if count:
            p = count / total
            entropy -= p * math.log(p)
    return entropy / math.log(n_provinces)


def diversity_series(
    cube: ProvinceCube, direction: str, include_self: bool = False
) -> list[DiversitySeries]:
    """Per-day flow_diversity of every province of the cube, in province order.

    Self-loops are excluded unless include_self is set; absent days stay absent.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    n = len(cube.provinces)
    if n < 2:
        raise ValueError("entropy normalization needs at least 2 provinces")
    # flows[d, i, j]: province i's flow with partner j on day d
    flows = cube.counts if direction == "out" else cube.counts.transpose(0, 2, 1)
    if not include_self:
        flows = flows * ~np.eye(n, dtype=bool)
    values: list[list[float | None]] = [[None] * len(cube.dates) for _ in range(n)]
    days, rows, partners = np.nonzero(flows)  # row-major: partners ascend within a row
    cells = zip(days.tolist(), rows.tolist(), flows[days, rows, partners].tolist())
    for (day, row), group in groupby(cells, key=itemgetter(0, 1)):
        values[row][day] = flow_diversity([count for _, _, count in group], n)
    return [
        DiversitySeries(province_id=province, direction=direction, dates=list(cube.dates), values=row)
        for province, row in zip(cube.provinces, values)
    ]


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def weekend_contrast(series: DiversitySeries, split_date: date) -> WeekendContrast:
    """Four means over defined values: before/from split_date crossed with weekday/weekend."""
    cells: dict[tuple[bool, bool], list[float]] = {
        (False, False): [],
        (False, True): [],
        (True, False): [],
        (True, True): [],
    }
    for day, value in zip(series.dates, series.values):
        if value is None:
            continue
        post = day >= split_date
        weekend = day.weekday() >= 5
        cells[(post, weekend)].append(value)
    return WeekendContrast(
        split_date=split_date,
        pre_weekday_mean=_mean(cells[(False, False)]),
        pre_weekend_mean=_mean(cells[(False, True)]),
        post_weekday_mean=_mean(cells[(True, False)]),
        post_weekend_mean=_mean(cells[(True, True)]),
        pre_weekday_n=len(cells[(False, False)]),
        pre_weekend_n=len(cells[(False, True)]),
        post_weekday_n=len(cells[(True, False)]),
        post_weekend_n=len(cells[(True, True)]),
    )


def write_diversity_csv(series_list: Sequence[DiversitySeries], path: str | Path) -> None:
    """Long export: date,province,direction,diversity with an empty field for absent days."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "province", "direction", "diversity"])
        for series in series_list:
            for day, value in zip(series.dates, series.values):
                writer.writerow(
                    [
                        day.isoformat(),
                        series.province_id,
                        series.direction,
                        "" if value is None else repr(value),
                    ]
                )


def write_diversity_wide_csv(series_list: Sequence[DiversitySeries], path: str | Path) -> None:
    """Wide export (one row per province, one column per date) for horizon-chart tooling.

    All series must share the same date axis and direction.
    """
    if not series_list:
        raise ValueError("nothing to export")
    dates = series_list[0].dates
    for series in series_list:
        if series.dates != dates:
            raise ValueError("wide export needs a shared date axis")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["province"] + [d.isoformat() for d in dates])
        for series in sorted(series_list, key=lambda s: s.province_id):
            writer.writerow(
                [series.province_id]
                + ["" if v is None else repr(v) for v in series.values]
            )
