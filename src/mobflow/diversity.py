"""Normalized Shannon-entropy flow diversity per province per day.

The in-flow diversity of province A is the entropy of the distribution of A's
incoming trips over origin provinces, divided by log(N) with N the number of
provinces in the territory, so values live in [0, 1]. Out-flow diversity is the
mirror image over destinations. A day with no directed flow at all has no
diversity value (absent, NaN in the arrays), which is different from a day
with a single partner (diversity exactly 0). `weekend_deltas` answers the
weekday/weekend question: per period before and from a split date, the mean
over provinces of the weekend mean minus the weekday mean. `diversity_table`
and `diversity_wide_table` lay the values out as table rows; the CLI writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

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


def diversity_series(cube: ProvinceCube, direction: str) -> ProvinceDiversity:
    """Per-day flow_diversity of every province of the cube, over its partner provinces.

    Self-loops are excluded; absent days are NaN.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    n = len(cube.provinces)
    if n < 2:
        raise ValueError("entropy normalization needs at least 2 provinces")
    # flows[d, i, j]: province i's flow with partner j on day d
    flows = cube.counts if direction == "out" else cube.counts.transpose(0, 2, 1)
    flows = flows * ~np.eye(n, dtype=bool)
    days, rows, partners = np.nonzero(flows)  # row-major: partners ascend within a row
    cells = zip(days.tolist(), rows.tolist(), flows[days, rows, partners].tolist())
    values = np.full((n, len(cube.dates)), np.nan)
    for (day, row), group in groupby(cells, key=itemgetter(0, 1)):
        values[row, day] = flow_diversity([count for _, _, count in group], n)
    return ProvinceDiversity(direction, cube.provinces, cube.dates, values)


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def weekend_deltas(diversity: ProvinceDiversity, split_date: date) -> tuple[float | None, float | None]:
    """Mean over provinces of weekend minus weekday mean diversity, before and from split_date.

    Each mean sums a province's defined values in date order. A province counts
    in a period only if it has both a weekday and a weekend value there; the
    province deltas are averaged in province order, None where none counts.
    """
    cell_of = [2 * (day >= split_date) + (day.weekday() >= 5) for day in diversity.dates]
    deltas: tuple[list[float], list[float]] = ([], [])
    for row in diversity.values.tolist():
        cells: list[list[float]] = [[], [], [], []]  # pre weekday, pre weekend, post weekday, post weekend
        for cell, value in zip(cell_of, row):
            if not math.isnan(value):
                cells[cell].append(value)
        for period, (weekday, weekend) in zip(deltas, (cells[:2], cells[2:])):
            if weekday and weekend:
                period.append(_mean(weekend) - _mean(weekday))
    pre, post = map(_mean, deltas)
    return pre, post


def _fields(row: list[float]) -> list[str]:
    # repr of Python floats (numpy 2 prints an np.float64 as 'np.float64(x)'); blank for an absent day
    return ["" if math.isnan(value) else repr(value) for value in row]


def diversity_table(diversities: Iterable[ProvinceDiversity]) -> Iterator[list[str]]:
    """Long table: the header date,province,direction,diversity, then a row per province and day."""
    yield ["date", "province", "direction", "diversity"]
    for diversity in diversities:
        days = [day.isoformat() for day in diversity.dates]
        for province, row in zip(diversity.provinces, diversity.values.tolist()):
            for day, field in zip(days, _fields(row)):
                yield [day, province, diversity.direction, field]


def diversity_wide_table(diversity: ProvinceDiversity) -> Iterator[list[str]]:
    """Wide table (one row per province, one column per date) for horizon-chart tooling."""
    yield ["province"] + [day.isoformat() for day in diversity.dates]
    for province, row in zip(diversity.provinces, diversity.values.tolist()):
        yield [province] + _fields(row)
