"""Local job markets: map-equation community detection on daily flow graphs.

A daily municipality OD matrix is read as a weighted directed graph whose edges
are the matrix's code rows, renumbered over the graph's sorted nodes. A random
walk with uniform teleportation yields stationary visit rates per node and flow
per edge; the two-level map equation scores any node partition by the expected
description length (bits per step) of that walk under a two-level codebook, and
a greedy multilevel optimizer searches for the partition minimizing it.
Teleportation is unrecorded: teleport (and dangling) steps move the walker but
are not charged to module exit/enter flows.

Over a series of days, some days may be detected in one helper process when
two or more CPUs are usable; every result and error is the same either way.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import select
import subprocess
import sys
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .od import DailyOD

DEFAULT_TELEPORT = 0.15
DEFAULT_TRIALS = 10
GAIN_EPS = 1e-12  # strictly-negative gain threshold, prevents cycling on ties


class PowerIterationError(RuntimeError):
    """Power iteration failed to reach the tolerance; carries the last residual."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"stationary distribution not converged after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class FlowGraph:
    """Directed graph over `nodes` (some may be isolated): int (E, 2) `edges`, float `weights`."""

    nodes: tuple[str, ...]
    edges: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_od(cls, od: DailyOD, extra_nodes: Iterable[str] = ()) -> "FlowGraph":
        """The graph of a matrix's cells, weighted by trip count, with `extra_nodes` added."""
        nodes = tuple(sorted(set(od.names).union(extra_nodes)))
        position = {node: i for i, node in enumerate(nodes)}
        code = np.array([position[name] for name in od.names], dtype=np.int64)
        edges = np.stack([code[od.origin], code[od.destination]], axis=1)
        return cls(nodes=nodes, edges=edges, weights=od.count.astype(float))


@dataclass(frozen=True, eq=False)
class StationaryFlow:
    """Stationary visit rates per node and walk flows per edge, aligned to a graph's arrays."""

    visit_rates: np.ndarray
    edge_flows: np.ndarray


@dataclass(frozen=True)
class Partition:
    """Node -> module assignment with its two-level description length in bits."""

    assignment: dict[str, int]
    codelength: float

    @property
    def module_count(self) -> int:
        return len(set(self.assignment.values()))

    def modules(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = defaultdict(list)
        for node in sorted(self.assignment):
            out[self.assignment[node]].append(node)
        return dict(out)


def stationary_flow(
    g: FlowGraph,
    tau: float = DEFAULT_TELEPORT,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> StationaryFlow:
    """Power-iterate p' = (1-tau) p P + tau u to the stationary visit rates.

    P is row-stochastic over out-weights; dangling rows redistribute uniformly.
    Edge flows are (1-tau) * p_u * w_uv / out_w(u): teleport and dangling steps
    stay unrecorded. Raises PowerIterationError if tol is not reached in L1.
    """
    if not g.nodes:
        raise ValueError("stationary_flow needs a non-empty graph")
    if not 0.0 <= tau <= 1.0:  # NaN fails too; outside [0, 1] edge flows turn negative
        raise ValueError(f"teleportation rate tau must be in [0, 1], got {tau}")
    n = len(g.nodes)
    src, dst, weight = g.edges[:, 0], g.edges[:, 1], g.weights
    out_weight = np.bincount(src, weights=weight, minlength=n)
    transition = weight / out_weight[src] if len(weight) else weight
    dangling = out_weight == 0.0

    p = np.full(n, 1.0 / n)
    residual = math.inf
    for _ in range(max_iter):
        pushed = np.bincount(dst, weights=p[src] * transition, minlength=n)
        spread = (tau + (1.0 - tau) * p[dangling].sum()) / n
        new_p = (1.0 - tau) * pushed + spread
        residual = float(np.abs(new_p - p).sum())
        p = new_p
        if residual < tol:
            break
    else:
        raise PowerIterationError(residual, max_iter)

    return StationaryFlow(visit_rates=p, edge_flows=(1.0 - tau) * p[src] * transition)


def _plogp(x: float) -> float:
    return x * math.log2(x) if x > 1e-15 else 0.0


@dataclass
class _Level:
    """One optimization level: node flows plus self-loop-free adjacency."""

    node_flow: list[float]
    out_adj: list[list[tuple[int, float]]]
    in_adj: list[list[tuple[int, float]]]
    s_out: list[float] = field(init=False)

    def __post_init__(self) -> None:
        self.s_out = [sum(q for _, q in adj) for adj in self.out_adj]

    @classmethod
    def from_edges(cls, node_flow: list[float], edges: Iterable) -> "_Level":
        """The level of ((source, target), flow) edges; self-loops never cross a module boundary."""
        out_adj: list[list[tuple[int, float]]] = [[] for _ in node_flow]
        in_adj: list[list[tuple[int, float]]] = [[] for _ in node_flow]
        for (u, v), q in edges:
            if u != v:
                out_adj[u].append((v, q))
                in_adj[v].append((u, q))
        return cls(node_flow=node_flow, out_adj=out_adj, in_adj=in_adj)

    @property
    def size(self) -> int:
        return len(self.node_flow)


class _MapState:
    """Partition bookkeeping with incrementally maintained codelength terms.

    Per module it keeps the exit flow, the visit flow, the size and the two
    plogp terms of the map equation, plogp(exit) and plogp(exit + flow), so a
    move is scored by evaluating only the terms it changes. The flat-node
    entropy term is constant under moves at every level, so the maintained
    value always equals the map equation of the induced flat partition.
    """

    def __init__(self, level: _Level, module_of: list[int], node_term: float):
        self.level = level
        self.module_of = list(module_of)
        self.node_term = node_term
        n = level.size
        self.exit = [0.0] * n
        self.flow = [0.0] * n
        self.size = [0] * n
        for node, module in enumerate(self.module_of):
            self.flow[module] += level.node_flow[node]
            self.size[module] += 1
        for node in range(n):
            module = self.module_of[node]
            for target, q in level.out_adj[node]:
                if self.module_of[target] != module:
                    self.exit[module] += q
        self.plogp_exit = [_plogp(e) for e in self.exit]
        self.plogp_circ = [_plogp(e + f) for e, f in zip(self.exit, self.flow)]
        modules = set(self.module_of)
        self.sum_exit = sum(self.exit[m] for m in modules)
        self.s1 = sum(self.plogp_exit[m] for m in modules)
        self.s2 = sum(self.plogp_circ[m] for m in modules)
        self._empty = [m for m in range(n - 1, -1, -1) if self.size[m] == 0]

    def empty_module(self) -> int | None:
        return self._empty[-1] if self._empty else None

    def codelength(self) -> float:
        return _plogp(self.sum_exit) - 2.0 * self.s1 + self.s2 - self.node_term

    def apply(self, node: int, target_module: int, new_exit_a: float, new_exit_b: float) -> None:
        current = self.module_of[node]
        p = self.level.node_flow[node]
        exit_a, exit_b = self.exit[current], self.exit[target_module]
        self.s1 += (
            _plogp(new_exit_a)
            + _plogp(new_exit_b)
            - self.plogp_exit[current]
            - self.plogp_exit[target_module]
        )
        self.s2 += (
            _plogp(new_exit_a + self.flow[current] - p)
            + _plogp(new_exit_b + self.flow[target_module] + p)
            - self.plogp_circ[current]
            - self.plogp_circ[target_module]
        )
        self.sum_exit += (new_exit_a + new_exit_b) - (exit_a + exit_b)
        self.exit[current] = new_exit_a
        self.exit[target_module] = new_exit_b
        self.flow[current] -= p
        self.flow[target_module] += p
        self.module_of[node] = target_module
        if self.size[target_module] == 0 and self._empty and self._empty[-1] == target_module:
            self._empty.pop()
        self.size[current] -= 1
        self.size[target_module] += 1
        if self.size[current] == 0:
            # Exact zeros: float residue must not linger into a later reuse of the id.
            self.sum_exit -= self.exit[current]
            self.flow[current] = 0.0
            self.exit[current] = 0.0
            self._empty.append(current)
        for module in (current, target_module):
            self.plogp_exit[module] = _plogp(self.exit[module])
            self.plogp_circ[module] = _plogp(self.exit[module] + self.flow[module])


def _sweep_until_stable(state: _MapState, rng: np.random.Generator) -> bool:
    """Sweep nodes in fresh seeded random order until a full sweep makes no move.

    A move of `node` from module a to module b changes the plogp terms of a, b
    and the total exit flow. Every candidate b is scored with the same float
    expression, in the same operand order, as a full re-score of those terms;
    the terms of a and of the old state are evaluated once per node, and the
    old terms of b come from the state's per-module plogp cache.
    """
    level = state.level
    out_adj, in_adj, node_flow, s_out = level.out_adj, level.in_adj, level.node_flow, level.s_out
    module_of, exit_flow, module_flow, size = state.module_of, state.exit, state.flow, state.size
    plogp_exit, plogp_circ = state.plogp_exit, state.plogp_circ
    plogp, log2 = _plogp, math.log2
    moved_any = False
    while True:
        moved_in_sweep = False
        for node in rng.permutation(level.size).tolist():
            wm_out: dict[int, float] = {}
            for target, q in out_adj[node]:
                module = module_of[target]
                wm_out[module] = wm_out.get(module, 0.0) + q
            wm_in: dict[int, float] = {}
            for source, q in in_adj[node]:
                module = module_of[source]
                wm_in[module] = wm_in.get(module, 0.0) + q
            current = module_of[node]
            candidates = sorted((wm_out.keys() | wm_in.keys()) - {current})
            if size[current] > 1:
                # Leaving into a fresh module can free a misplaced node for a
                # better merge on a later sweep or level.
                empty = state.empty_module()
                if empty is not None:
                    candidates.append(empty)
            if not candidates:
                continue
            p = node_flow[node]
            node_out = s_out[node]
            exit_a = exit_flow[current]
            new_exit_a = exit_a - node_out + wm_out.get(current, 0.0) + wm_in.get(current, 0.0)
            if new_exit_a < 0.0:
                new_exit_a = 0.0  # guards float cancellation only
            new_exit_term_a = plogp(new_exit_a)
            old_exit_term_a = plogp_exit[current]
            new_circ_term_a = plogp(new_exit_a + module_flow[current] - p)
            old_circ_term_a = plogp_circ[current]
            sum_exit = state.sum_exit
            sum_term = plogp(sum_exit)
            best_delta = -GAIN_EPS  # only strictly negative gains move a node
            best = None
            for candidate in candidates:
                exit_b = exit_flow[candidate]
                new_exit_b = exit_b + node_out - wm_out.get(candidate, 0.0) - wm_in.get(candidate, 0.0)
                if new_exit_b < 0.0:
                    new_exit_b = 0.0
                # _plogp inlined: the call costs more than the expression.
                exit_term_b = new_exit_b * log2(new_exit_b) if new_exit_b > 1e-15 else 0.0
                circ_b = new_exit_b + module_flow[candidate] + p
                circ_term_b = circ_b * log2(circ_b) if circ_b > 1e-15 else 0.0
                new_sum = sum_exit + (new_exit_a + new_exit_b) - (exit_a + exit_b)
                sum_term_b = new_sum * log2(new_sum) if new_sum > 1e-15 else 0.0
                delta_s1 = new_exit_term_a + exit_term_b - old_exit_term_a - plogp_exit[candidate]
                delta_s2 = new_circ_term_a + circ_term_b - old_circ_term_a - plogp_circ[candidate]
                delta = sum_term_b - sum_term - 2.0 * delta_s1 + delta_s2
                if delta < best_delta:
                    best_delta, best = delta, (candidate, new_exit_b)
            if best is not None:
                state.apply(node, best[0], new_exit_a, best[1])
                moved_in_sweep = moved_any = True
        if not moved_in_sweep:
            return moved_any


def _aggregate(level: _Level, module_of: list[int]) -> tuple[_Level, list[int]]:
    """Collapse modules into super-nodes; returns the new level and node -> super-node map."""
    collapse = _compact(module_of)
    node_flow = [0.0] * (max(collapse) + 1)
    for node in range(level.size):
        node_flow[collapse[node]] += level.node_flow[node]
    agg: dict[tuple[int, int], float] = defaultdict(float)  # intra-module flow: a dropped self-loop
    for node in range(level.size):
        for target, q in level.out_adj[node]:
            agg[(collapse[node], collapse[target])] += q
    return _Level.from_edges(node_flow, agg.items()), collapse


def _flat_level(g: FlowGraph, flow: StationaryFlow) -> _Level:
    edges = zip(g.edges.tolist(), flow.edge_flows.tolist())
    return _Level.from_edges(flow.visit_rates.tolist(), edges)


def _compact(assignment: list[int]) -> list[int]:
    renumber: dict[int, int] = {}
    out = []
    for module in assignment:
        if module not in renumber:
            renumber[module] = len(renumber)
        out.append(renumber[module])
    return out


def _one_trial(flat: _Level, node_term: float, rng: np.random.Generator) -> tuple[list[int], float]:
    """One seeded multilevel greedy run; returns (flat assignment, codelength)."""
    n = flat.size
    flat_assignment = list(range(n))
    current_length = _MapState(flat, flat_assignment, node_term).codelength()
    while True:
        length_before = current_length
        level = flat
        to_level = list(range(n))  # flat node -> node at the current level
        level_modules = _compact(flat_assignment)
        while True:
            state = _MapState(level, level_modules, node_term)
            moved = _sweep_until_stable(state, rng)
            module_count = len(set(state.module_of))
            flat_assignment = [state.module_of[to_level[i]] for i in range(n)]
            current_length = state.codelength()
            if not moved and module_count == level.size:
                break  # aggregation would be the identity
            level, collapse = _aggregate(level, state.module_of)
            to_level = [collapse[to_level[i]] for i in range(n)]
            level_modules = list(range(level.size))
        if current_length >= length_before - GAIN_EPS:
            return _compact(flat_assignment), current_length


def infomap(
    g: FlowGraph,
    seed: int,
    trials: int = DEFAULT_TRIALS,
    tau: float = DEFAULT_TELEPORT,
    flow: StationaryFlow | None = None,
) -> Partition:
    """Best partition over seeded greedy multilevel trials minimizing the map equation.

    Each trial starts from singleton modules, sweeps nodes in seeded random
    order into the neighboring module with the largest strictly negative
    codelength change, aggregates modules into super-nodes once stable, and
    repeats until a full multilevel pass stops improving. Deterministic given
    (seed, trials); isolated nodes end up as singleton modules.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if flow is None:
        flow = stationary_flow(g, tau=tau)
    flat = _flat_level(g, flow)
    node_term = sum(_plogp(p) for p in flat.node_flow)
    best: tuple[float, list[int]] | None = None
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        assignment, length = _one_trial(flat, node_term, rng)
        if best is None or length < best[0] - GAIN_EPS:
            best = (length, assignment)
    length, assignment = best
    return Partition(assignment=dict(zip(g.nodes, assignment)), codelength=length)


@dataclass(frozen=True)
class DayCommunities:
    """Per-day detection outcome for the community count series."""

    date: date
    partition: Partition | None  # None when the day had no flow at all
    community_count: int
    empty_day: bool

    @property
    def is_sunday(self) -> bool:
        return self.date.weekday() == 6


def _window_ods(ods: Sequence[DailyOD], window: int) -> Iterator[DailyOD]:
    """Each OD in date order, summed with those dated in the `window - 1` days before it."""
    ordered = sorted(ods, key=lambda od: od.date)
    dates = [od.date for od in ordered]
    for i, od in enumerate(ordered):
        span = ordered[bisect_left(dates, od.date - timedelta(days=window - 1), 0, i): i + 1]
        # Concatenating the names shifts each OD's codes past the previous
        # ones'; from_codes then merges the codes of a repeated name.
        shift = np.cumsum([0] + [len(past.names) for past in span[:-1]])
        yield DailyOD.from_codes(
            od.date,
            od.granularity,
            [name for past in span for name in past.names],
            np.concatenate([past.origin + k for past, k in zip(span, shift)]),
            np.concatenate([past.destination + k for past, k in zip(span, shift)]),
            np.concatenate([past.count for past in span]),
        )


def _detect_days(
    ods: Sequence[DailyOD], seed: int, trials: int, tau: float, registry_nodes: list[str]
) -> Iterator[DayCommunities]:
    """Detect each (already windowed) day's communities, in the order given."""
    for od in ods:
        partition = None
        if len(od.count):
            graph = FlowGraph.from_od(od, extra_nodes=registry_nodes)
            partition = infomap(graph, seed=seed, trials=trials, tau=tau)
        yield DayCommunities(
            date=od.date,
            partition=partition,
            community_count=partition.module_count if partition else len(registry_nodes),
            empty_day=partition is None,
        )


# The helper imports only this module: `spawn` would re-import `__main__`, the
# CLI, and fork without exec is unsafe once numpy may have started threads.
_HELPER_SOURCE = "from mobflow import community; community._serve()"
_READY = b"R"


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _start_helper() -> subprocess.Popen:
    root = str(Path(__file__).resolve().parent.parent)  # the directory holding the package
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",  # detection makes no BLAS call; its thread pool only costs start-up
        PYTHONPATH=root + os.pathsep + path if path else root,
    )
    return subprocess.Popen(
        [sys.executable, "-c", _HELPER_SOURCE], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
    )


def _helper_ready(helper: subprocess.Popen) -> bool:
    """Whether the helper has written its ready byte; never blocks. A dead helper is never ready."""
    fd = helper.stdout.fileno()
    return bool(select.select([fd], [], [], 0)[0]) and os.read(fd, 1) == _READY


def _stop(helper: subprocess.Popen) -> None:
    """Kill the helper if it still runs, reap it and close its pipes."""
    if helper.poll() is None:
        helper.kill()
    helper.wait()
    helper.stdout.close()
    try:
        helper.stdin.close()
    except BrokenPipeError:
        pass  # bytes a dead helper never read


def _serve(stdin: BinaryIO | None = None, stdout: BinaryIO | None = None) -> None:
    """The helper's side: a ready byte, then the pickled result of the pickled days sent.

    Writes no result when the parent sends nothing or a day raises a data error;
    the parent then detects those days itself and raises the same error.
    """
    stdin = sys.stdin.buffer if stdin is None else stdin
    stdout = sys.stdout.buffer if stdout is None else stdout
    stdout.write(_READY)
    stdout.flush()
    try:
        args, ods = pickle.load(stdin)
    except EOFError:
        return  # the parent detected every day itself
    try:
        days = list(_detect_days(ods, *args))
    except (ValueError, PowerIterationError):
        return
    pickle.dump(days, stdout)
    stdout.flush()


def _share(helper: subprocess.Popen, days: list[DailyOD], args: tuple) -> list[DayCommunities]:
    """Detect date-ordered `days` with the ready helper taking every other one."""
    mine, theirs = days[0::2], days[1::2]
    try:
        pickle.dump((args, theirs), helper.stdin)
        helper.stdin.close()
    except BrokenPipeError:
        pass  # the helper died; its days are detected below
    ours: list[DayCommunities] = []
    try:
        for day in _detect_days(mine, *args):
            ours.append(day)
    except Exception:
        # Raise what the serial order raises: the helper's days dated before
        # the failing one come first.
        _stop(helper)
        for _ in _detect_days(theirs[: len(ours)], *args):
            pass
        raise
    payload = helper.stdout.read()
    if helper.wait() == 0 and payload:
        helped = pickle.loads(payload)
    else:
        helped = list(_detect_days(theirs, *args))
    merged: list[DayCommunities] = [None] * len(days)
    merged[0::2], merged[1::2] = ours, helped
    return merged


def community_count_series(
    ods: Sequence[DailyOD],
    seed: int,
    trials: int = DEFAULT_TRIALS,
    tau: float = DEFAULT_TELEPORT,
    registry_nodes: Iterable[str] = (),
    window: int = 1,
) -> list[DayCommunities]:
    """Per-day module counts of the daily flow graphs, date-ordered.

    With window > 1 each day's graph sums the cells of the ODs dated within the
    trailing `window` calendar days, that day included (rolling-window
    smoothing). A day with no flow has no partition; its count falls back to
    the number of attached registry nodes (each isolated) and the day is flagged.

    With two or more usable CPUs and days, a helper process starts; once it has
    imported this module it takes every other day the parent has not begun.
    Each day's partition depends only on its graph and (seed, trial), so the
    result, and any error raised, do not depend on whether the helper ran.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1 day, got {window}")
    args = (seed, trials, tau, sorted(set(registry_nodes)))
    helper = None
    if len(ods) >= 2 and _usable_cpus() >= 2:
        try:
            helper = _start_helper()
        except OSError:
            pass  # no process to spare: every day runs here
    results: list[DayCommunities] = []
    try:
        windowed = _window_ods(ods, window)
        for od in windowed:
            if helper is not None and _helper_ready(helper):
                rest = [od, *windowed]
                if len(rest) > 1:
                    return results + _share(helper, rest, args)
            results.extend(_detect_days([od], *args))
        return results
    finally:
        if helper is not None:
            _stop(helper)


def write_community_counts_csv(days: Sequence[DayCommunities], path: str | Path) -> None:
    """Export date,community_count,is_sunday rows (Sunday markers for plotting)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "community_count", "is_sunday"])
        for day in days:
            writer.writerow([day.date.isoformat(), day.community_count, int(day.is_sunday)])


def partition_dump(
    day: DayCommunities,
    municipality_filter: Iterable[str] | None = None,
) -> dict:
    """JSON-ready dump of one day's partition, optionally restricted to some municipalities."""
    keep = set(municipality_filter) if municipality_filter is not None else None
    modules = []
    if day.partition is not None:
        for module_id, members in sorted(day.partition.modules().items()):
            if keep is not None:
                members = [m for m in members if m in keep]
                if not members:
                    continue
            modules.append({"id": module_id, "municipalities": members})
    return {
        "date": day.date.isoformat(),
        "modules": modules,
        "codelength": None if day.partition is None else day.partition.codelength,
        "empty_day": day.empty_day,
    }


def write_partition_dumps(
    days: Sequence[DayCommunities],
    path: str | Path,
    municipality_filter: Iterable[str] | None = None,
) -> None:
    payload = [partition_dump(day, municipality_filter) for day in days]
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
