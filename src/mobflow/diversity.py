"""Normalized Shannon-entropy flow diversity per province per day.

The in-flow diversity of province A is the entropy of the distribution of A's
incoming trips over origin provinces, divided by log(N) with N the number of
provinces in the territory, so values live in [0, 1]. Out-flow diversity is the
mirror image over destinations. A day with no directed flow at all has no
diversity value (absent, NaN in the arrays), which is different from a day
with a single partner (diversity exactly 0).
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
class ProvinceDiversity:
    """One direction's diversity on the cube's axes: values[i, d] is provinces[i] on dates[d].

    values is float64[P, D], NaN on an absent day.
    """

    direction: str
    provinces: tuple[str, ...]
    dates: tuple[date, ...]
    values: np.ndarray


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
) -> ProvinceDiversity:
    """Per-day flow_diversity of every province of the cube.

    Self-loops are excluded unless include_self is set; absent days are NaN.
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
    days, rows, partners = np.nonzero(flows)  # row-major: partners ascend within a row
    cells = zip(days.tolist(), rows.tolist(), flows[days, rows, partners].tolist())
    values = np.full((n, len(cube.dates)), np.nan)
    for (day, row), group in groupby(cells, key=itemgetter(0, 1)):
        values[row, day] = flow_diversity([count for _, _, count in group], n)
    return ProvinceDiversity(direction, cube.provinces, cube.dates, values)


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def weekend_contrast(diversity: ProvinceDiversity, split_date: date) -> list[WeekendContrast]:
    """Per province, four means over defined values: before/from split_date x weekday/weekend.

    Each mean sums its values in date order.
    """
    cell_of = [(day >= split_date, day.weekday() >= 5) for day in diversity.dates]
    contrasts = []
    for row in diversity.values.tolist():
        # (post, weekend) cells in the field order: pre weekday, pre weekend, post weekday, post weekend
        cells: dict[tuple[bool, bool], list[float]] = {
            (post, weekend): [] for post in (False, True) for weekend in (False, True)
        }
        for cell, value in zip(cell_of, row):
            if not math.isnan(value):
                cells[cell].append(value)
        means = [_mean(values) for values in cells.values()]
        contrasts.append(WeekendContrast(split_date, *means, *map(len, cells.values())))
    return contrasts


def _fields(row: list[float]) -> list[str]:
    # repr of Python floats: numpy 2 prints an np.float64 as 'np.float64(x)'
    return ["" if math.isnan(value) else repr(value) for value in row]


def write_diversity_csv(diversities: Sequence[ProvinceDiversity], path: str | Path) -> None:
    """Long export: date,province,direction,diversity with an empty field for absent days."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "province", "direction", "diversity"])
        for diversity in diversities:
            days = [day.isoformat() for day in diversity.dates]
            for province, row in zip(diversity.provinces, diversity.values.tolist()):
                writer.writerows(
                    [day, province, diversity.direction, field] for day, field in zip(days, _fields(row))
                )


def write_diversity_wide_csv(diversity: ProvinceDiversity, path: str | Path) -> None:
    """Wide export (one row per province, one column per date) for horizon-chart tooling."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["province"] + [day.isoformat() for day in diversity.dates])
        for province, row in zip(diversity.provinces, diversity.values.tolist()):
            writer.writerow([province] + _fields(row))
