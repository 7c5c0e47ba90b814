"""Per-province daily in-flow, out-flow and self-flow series.

Out-flow counts trips leaving the province for any other province, in-flow
counts trips arriving from any other province, and self-flow is the province's
self-loop (trips between its own municipalities). Normalized variants divide by
the series maximum over the requested date range, so the busiest day maps to 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .od import ProvinceCube

CSV_HEADER = ["date", "in", "out", "self", "in_norm", "out_norm", "self_norm"]


@dataclass(frozen=True)
class ProvinceFlows:
    """Every province's flow series on the cube's axes: row i is provinces[i], column d dates[d].

    The counts are int64[P, D]; each *_norm is float64[P, D], its count row
    divided by the row maximum, all zero where the row is.
    """

    provinces: tuple[str, ...]
    dates: tuple[date, ...]
    in_flow: np.ndarray
    out_flow: np.ndarray
    self_flow: np.ndarray
    in_norm: np.ndarray
    out_norm: np.ndarray
    self_norm: np.ndarray


def compute_flows(cube: ProvinceCube) -> ProvinceFlows:
    """The three flow series of every province of the cube.

    Self-flow is the diagonal; out-flow is the row sum and in-flow the column
    sum, each without the diagonal.
    """
    self_flow = cube.counts.diagonal(axis1=1, axis2=2).T
    in_flow = cube.counts.sum(axis=1).T - self_flow
    out_flow = cube.counts.sum(axis=2).T - self_flow
    norms = []
    for flow in (in_flow, out_flow, self_flow):
        # int64 / int64 divides in float64, bit-equal to Python's v / peak below 2**53.
        peak = flow.max(axis=1, initial=0, keepdims=True)
        norms.append(np.divide(flow, peak, out=np.zeros(flow.shape), where=peak > 0))
    return ProvinceFlows(cube.provinces, cube.dates, in_flow, out_flow, self_flow, *norms)


def write_flow_csvs(flows: ProvinceFlows, out_dir: str | Path) -> None:
    """Export one <province>.csv per province: date,in,out,self,in_norm,out_norm,self_norm."""
    days = [day.isoformat() for day in flows.dates]
    # Python ints and floats, which csv writes as their repr
    columns = [
        getattr(flows, name).tolist()
        for name in ("in_flow", "out_flow", "self_flow", "in_norm", "out_norm", "self_norm")
    ]
    for i, province in enumerate(flows.provinces):
        with (Path(out_dir) / f"{province}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(zip(days, *(column[i] for column in columns)))
