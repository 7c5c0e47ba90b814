"""Per-province daily in-flow, out-flow and self-flow series.

Out-flow counts trips leaving the province for any other province, in-flow
counts trips arriving from any other province, and self-flow is the province's
self-loop (trips between its own municipalities). Normalized variants divide by
the series maximum over the requested date range, so the busiest day maps to 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .od import ProvinceCube


@dataclass(frozen=True)
class FlowSeries:
    province_id: str
    dates: list
    in_flow: list[int]
    out_flow: list[int]
    self_flow: list[int]
    in_norm: list[float]
    out_norm: list[float]
    self_norm: list[float]


def _normalize(values: list[int]) -> list[float]:
    # An all-zero series stays all zero rather than dividing by zero.
    peak = max(values, default=0)
    if peak == 0:
        return [0.0 for _ in values]
    return [v / peak for v in values]


def compute_flows(cube: ProvinceCube) -> list[FlowSeries]:
    """The three flow series of every province of the cube, in province order.

    Self-flow is the diagonal; out-flow is the row sum and in-flow the column
    sum, each without the diagonal.
    """
    diagonal = cube.counts.diagonal(axis1=1, axis2=2)
    in_flow = (cube.counts.sum(axis=1) - diagonal).T.tolist()
    out_flow = (cube.counts.sum(axis=2) - diagonal).T.tolist()
    return [
        FlowSeries(province, list(cube.dates), inc, out, own, *map(_normalize, (inc, out, own)))
        for province, inc, out, own in zip(cube.provinces, in_flow, out_flow, diagonal.T.tolist())
    ]


def write_flow_series_csv(series: FlowSeries, path: str | Path) -> None:
    """Export one province's series as date,in,out,self,in_norm,out_norm,self_norm."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "in", "out", "self", "in_norm", "out_norm", "self_norm"])
        for i, day in enumerate(series.dates):
            writer.writerow(
                [
                    day.isoformat(),
                    series.in_flow[i],
                    series.out_flow[i],
                    series.self_flow[i],
                    repr(series.in_norm[i]),
                    repr(series.out_norm[i]),
                    repr(series.self_norm[i]),
                ]
            )
