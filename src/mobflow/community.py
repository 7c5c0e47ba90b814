"""Local job markets: map-equation community detection on daily flow graphs.

A daily municipality OD matrix is read as a weighted directed graph: its nodes
are the names its cells use, and its edges are the matrix's code rows. A random
walk with uniform teleportation at rate TELEPORT yields stationary visit rates
per node and flow per edge; the two-level map equation scores any node
partition by the expected description length (bits per step) of that walk
under a two-level codebook, and a greedy multilevel optimizer searches for the
partition minimizing it.
Teleportation is unrecorded: teleport (and dangling) steps move the walker but
are not charged to module exit/enter flows.

Each day is detected on its own graph; a day with no flow has no partition.
A series of days is one two-ended queue. When two or more CPUs are usable, one
helper process takes days from its front, in date order, while this process
takes them from its back, so neither waits on a fixed split. A caller can have
its own work run while the helper starts and detects (`meanwhile`). Every
result and error is the same however the days were shared.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import subprocess
import sys
import threading
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .od import DailyOD

TELEPORT = 0.15  # teleportation rate, the Infomap default (Rosvall & Bergstrom, PNAS 105:1118, 2008)
DEFAULT_TRIALS = 10  # the CLI's --trials
GAIN_EPS = 1e-12  # strictly-negative gain threshold, prevents cycling on ties
POWER_TOL = 1e-12  # L1 change between power iterates that counts as converged
POWER_MAX_ITER = 10000


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
    def from_od(cls, od: DailyOD) -> "FlowGraph":
        """The graph of a matrix's cells, weighted by trip count; its nodes are the matrix's sorted names."""
        edges = np.stack([od.origin, od.destination], axis=1)
        return cls(nodes=od.names, edges=edges, weights=od.count.astype(float))


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


def stationary_flow(g: FlowGraph) -> StationaryFlow:
    """Power-iterate p' = (1-t) p P + t u, t = TELEPORT, to the stationary visit rates.

    P is row-stochastic over out-weights; dangling rows redistribute uniformly.
    Edge flows are (1-t) * p_u * w_uv / out_w(u): teleport and dangling steps
    stay unrecorded. Iterates until the L1 change falls below POWER_TOL, and
    raises PowerIterationError if that takes more than POWER_MAX_ITER steps.
    """
    if not g.nodes:
        raise ValueError("stationary_flow needs a non-empty graph")
    n = len(g.nodes)
    src, dst, weight = g.edges[:, 0], g.edges[:, 1], g.weights
    out_weight = np.bincount(src, weights=weight, minlength=n)
    transition = weight / out_weight[src] if len(weight) else weight
    dangling = out_weight == 0.0

    p = np.full(n, 1.0 / n)
    residual = math.inf
    for _ in range(POWER_MAX_ITER):
        pushed = np.bincount(dst, weights=p[src] * transition, minlength=n)
        spread = (TELEPORT + (1.0 - TELEPORT) * p[dangling].sum()) / n
        new_p = (1.0 - TELEPORT) * pushed + spread
        residual = float(np.abs(new_p - p).sum())
        p = new_p
        if residual < POWER_TOL:
            break
    else:
        raise PowerIterationError(residual, POWER_MAX_ITER)

    return StationaryFlow(visit_rates=p, edge_flows=(1.0 - TELEPORT) * p[src] * transition)


def _plogp(x: float) -> float:
    return x * math.log2(x) if x > 1e-15 else 0.0


def _plogp_array(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    big = x > 1e-15
    out[big] = x[big] * np.log2(x[big])
    return out


@dataclass
class _Level:
    """One optimization level: node flows plus self-loop-free adjacency.

    The sweep reads the lists. `_still` reads the same edges as arrays, in the
    order the adjacency lists hold them, and the level's `margin`.
    """

    node_flow: list[float]
    out_adj: list[list[tuple[int, float]]]
    in_adj: list[list[tuple[int, float]]]
    s_out: list[float]
    src: np.ndarray
    dst: np.ndarray
    edge_flow: np.ndarray
    node_flow_array: np.ndarray
    s_out_array: np.ndarray
    margin: float

    @classmethod
    def from_edges(cls, node_flow: list[float], src, dst, edge_flow) -> "_Level":
        """The level of the edges src[i] -> dst[i] with flow edge_flow[i]; self-loops never cross a module boundary."""
        src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
        crossing = src != dst
        src, dst, edge_flow = src[crossing], dst[crossing], np.asarray(edge_flow, dtype=float)[crossing]
        out_adj: list[list[tuple[int, float]]] = [[] for _ in node_flow]
        in_adj: list[list[tuple[int, float]]] = [[] for _ in node_flow]
        for u, v, q in zip(src.tolist(), dst.tolist(), edge_flow.tolist()):
            out_adj[u].append((v, q))
            in_adj[v].append((u, q))
        s_out = [sum(q for _, q in adj) for adj in out_adj]
        node_flow_array = np.array(node_flow, dtype=float)
        degree = max(map(len, out_adj + in_adj), default=0)
        return cls(
            node_flow=node_flow,
            out_adj=out_adj,
            in_adj=in_adj,
            s_out=s_out,
            src=src,
            dst=dst,
            edge_flow=edge_flow,
            node_flow_array=node_flow_array,
            s_out_array=np.array(s_out, dtype=float),
            margin=_still_margin(np.concatenate((node_flow_array, edge_flow)), degree),
        )

    @property
    def size(self) -> int:
        return len(self.node_flow)


def _still_margin(flows: np.ndarray, degree: int) -> float:
    """How far above -GAIN_EPS `_still`'s numpy deltas must lie to prove the sweep's own.

    Both evaluations apply the same operations, in the same order, to the same
    cached values. They may differ in the log2 kernel and in the order of each
    edge sum. With non-negative flows of total F (node flows plus edge flows),
    u = 2**-53, gamma_m = m u / (1 - m u), d = `degree` (the most edges in one
    edge sum) and X = 8 F:

    - in exact arithmetic every plogp argument lies in [-6 F, 6 F]: an exit
      after the move is at most 3 F, adding a module flow or taking a node's
      flow makes at most 4 F, and the total exit after the move is at most
      6 F. X leaves room for the rounding that maintained flows gather;
    - an edge sum of at most d flows lies within gamma_d F of its exact value in
      any order, so the two evaluations of one differ by at most 2 gamma_d F.
      An argument takes at most four edge sums and nine roundings of values
      below X, which add at most 2 u X each, so the two arguments differ by at
      most delta = 8 gamma_d F + 18 u X <= gamma_{d+18} X;
    - with L = 52 + max(0, log2 X), |d/dx x log2 x| <= L on (1e-15, X], so a
      plogp term moves by at most L delta, plus 5e-14 where the argument
      crosses the 1e-15 threshold (|x log2 x| < 5e-14 below it);
    - numpy's log2 and math.log2 each lie within 4 ulps of log2 x (numpy
      documents its SIMD kernels to 4 ulps, libm's are within 1), so with the
      product's rounding the same argument gives terms at most 18 u X L apart;
    - a delta adds five fresh terms, two of them doubled (weight 7), to cached
      terms that are equal on both sides, in nine roundings of values below
      14 X L, which differ by at most 2 u 14 X L each.

    So the two deltas lie within 7 (L gamma_{d+18} X + 5e-14 + 18 u X L) +
    252 u X L <= 8 X L gamma_{d+72} + 4e-13 of each other. The margin is twice
    that, which also covers the rounding of the margin and of the comparison.
    It reads about 1.5e-10 at the 200-node flat level of a day. Flows that are
    negative or not finite give NaN: no sweep of theirs is certified.
    """
    total = float(flows.sum())
    if not (math.isfinite(total) and (flows >= 0.0).all()):
        return math.nan
    x = 8.0 * total
    terms = degree + 72
    unit = 2.0**-53
    gamma = terms * unit / (1.0 - terms * unit)
    return 16.0 * x * (52.0 + max(0.0, math.log2(x) if x > 0.0 else 0.0)) * gamma + 8e-13


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


def _visit(state: _MapState, nodes: Iterable[int], dry_run: bool) -> int:
    """Move each node, in turn, into the module with the largest strictly negative codelength change.

    Returns the number of nodes moved. A dry run moves none: it returns 1 at
    the first node that would move, and 0 if none would.

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
    moved = 0
    for node in nodes:
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
            if dry_run:
                return 1
            state.apply(node, best[0], new_exit_a, best[1])
            moved += 1
    return moved


def _still(state: _MapState) -> bool:
    """Whether a sweep of `state`, in any order, would move no node.

    A sweep that moves no node never changes the state, so each node meets the
    state as it is now, whatever the order. Every (node, candidate) delta is
    scored at once: one `np.unique` of node * n + module keys over the
    level's out- and in-edges gives the node's edge sums per neighbour module
    (one `bincount` per direction), the node's fresh module joins where its
    own module has other members, and each pair takes `_visit`'s terms in
    `_visit`'s operand order, clamps included, with numpy's log2.

    If every delta lies above -GAIN_EPS by more than the level's margin
    (`_still_margin`), no node moves. If one lies below it by more, or one is
    NaN, this says no. A node inside the margin is re-scored with `_visit`'s
    own expression, in a dry run.
    """
    level = state.level
    margin = level.margin
    if math.isnan(margin):
        return False
    n = level.size
    current = np.array(state.module_of)
    exit_flow, module_flow = np.array(state.exit), np.array(state.flow)
    plogp_exit, plogp_circ = np.array(state.plogp_exit), np.array(state.plogp_circ)
    p, s_out, e = level.node_flow_array, level.s_out_array, len(level.edge_flow)
    empty = state.empty_module()
    # The fresh module is one more key of each node that shares its module; it has no edge sums.
    fresh = current[:0] if empty is None else np.flatnonzero(np.array(state.size)[current] > 1) * n + empty
    keys, pair = np.unique(
        np.concatenate((level.src * n + current[level.dst], level.dst * n + current[level.src], fresh)),
        return_inverse=True,
    )
    w_out = np.bincount(pair[:e], weights=level.edge_flow, minlength=len(keys))
    w_in = np.bincount(pair[e : 2 * e], weights=level.edge_flow, minlength=len(keys))
    node, module = np.divmod(keys, n)
    own = module == current[node]
    own_out, own_in = np.zeros(n), np.zeros(n)  # 0.0 where a node has no edge inside its module
    own_out[node[own]] = w_out[own]
    own_in[node[own]] = w_in[own]

    exit_a = exit_flow[current]
    new_exit_a = exit_a - s_out + own_out + own_in
    new_exit_a[new_exit_a < 0.0] = 0.0
    new_exit_term_a = _plogp_array(new_exit_a)
    new_circ_term_a = _plogp_array(new_exit_a + module_flow[current] - p)
    old_exit_term_a, old_circ_term_a = plogp_exit[current], plogp_circ[current]

    move = ~own
    who, to, out_to, in_to = node[move], module[move], w_out[move], w_in[move]
    exit_b = exit_flow[to]
    new_exit_b = exit_b + s_out[who] - out_to - in_to
    new_exit_b[new_exit_b < 0.0] = 0.0
    new_sum = state.sum_exit + (new_exit_a[who] + new_exit_b) - (exit_a[who] + exit_b)
    delta_s1 = new_exit_term_a[who] + _plogp_array(new_exit_b) - old_exit_term_a[who] - plogp_exit[to]
    delta_s2 = (
        new_circ_term_a[who]
        + _plogp_array(new_exit_b + module_flow[to] + p[who])
        - old_circ_term_a[who]
        - plogp_circ[to]
    )
    delta = _plogp_array(new_sum) - _plogp(state.sum_exit) - 2.0 * delta_s1 + delta_s2

    stays = delta > -GAIN_EPS + margin
    if stays.all():
        return True
    if not (delta >= -GAIN_EPS - margin).all():
        return False  # a node certainly moves, or a delta is NaN
    return not _visit(state, np.unique(who[~stays]).tolist(), dry_run=True)


def _sweep_until_stable(state: _MapState, rng: random.Random) -> bool:
    """Sweep nodes in fresh seeded random order until a full sweep makes no move.

    Each sweep's order is a Fisher-Yates shuffle from the top: position i swaps
    with j = int(rng.random() * (i + 1)). Only `random()` draws, because only
    its sequence for a seed is guaranteed across Python versions.

    Where a sweep is likely to move nothing, `_still` is asked first: before a
    first sweep from a state that is not all singletons (a fine-tune pass),
    and after a sweep that moved at most a tenth of the nodes. A sweep it
    certifies is skipped, and its n - 1 shuffle values are still drawn, so
    every later draw, and so every result, is the one of the Python sweep.
    """
    n = state.level.size
    draw = rng.random
    moved_any = False
    certify = max(state.size, default=0) > 1
    while True:
        if certify and _still(state):
            for _ in range(n - 1):
                draw()
            return moved_any
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(draw() * (i + 1))
            order[i], order[j] = order[j], order[i]
        moved = _visit(state, order, dry_run=False)
        if not moved:
            return moved_any
        moved_any = True
        certify = 10 * moved <= n


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
    pairs = np.array(list(agg), dtype=np.intp).reshape(-1, 2)
    return _Level.from_edges(node_flow, pairs[:, 0], pairs[:, 1], list(agg.values())), collapse


def _flat_level(g: FlowGraph, flow: StationaryFlow) -> _Level:
    return _Level.from_edges(flow.visit_rates.tolist(), g.edges[:, 0], g.edges[:, 1], flow.edge_flows)


def _compact(assignment: list[int]) -> list[int]:
    renumber: dict[int, int] = {}
    out = []
    for module in assignment:
        if module not in renumber:
            renumber[module] = len(renumber)
        out.append(renumber[module])
    return out


def _one_trial(flat: _Level, node_term: float, rng: random.Random) -> tuple[list[int], float]:
    """One seeded multilevel greedy run; returns (flat assignment, codelength)."""
    n = flat.size
    state = _MapState(flat, list(range(n)), node_term)  # all singletons
    current_length = state.codelength()
    while True:
        length_before = current_length
        level = flat
        to_level = list(range(n))  # flat node -> node at the current level
        while True:
            moved = _sweep_until_stable(state, rng)
            module_count = len(set(state.module_of))
            flat_assignment = [state.module_of[to_level[i]] for i in range(n)]
            current_length = state.codelength()
            if not moved and module_count == level.size:
                break  # aggregation would be the identity
            level, collapse = _aggregate(level, state.module_of)
            to_level = [collapse[to_level[i]] for i in range(n)]
            state = _MapState(level, list(range(level.size)), node_term)
        if current_length >= length_before - GAIN_EPS:
            return _compact(flat_assignment), current_length
        state = _MapState(flat, _compact(flat_assignment), node_term)  # the next pass starts from it


def infomap(g: FlowGraph, seed: int, trials: int) -> Partition:
    """Best partition over seeded greedy multilevel trials minimizing the map equation.

    Each trial starts from singleton modules, sweeps nodes in seeded random
    order into the neighboring module with the largest strictly negative
    codelength change, aggregates modules into super-nodes once stable, and
    repeats until a full multilevel pass stops improving. Deterministic given
    (seed, trials): trial t draws its orders from `random.Random(f"{seed},{t}")`.
    Isolated nodes end up as singleton modules.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    flat = _flat_level(g, stationary_flow(g))
    node_term = sum(_plogp(p) for p in flat.node_flow)
    best: tuple[float, list[int]] | None = None
    for trial in range(trials):
        rng = random.Random(f"{seed},{trial}")
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

    @property
    def community_count(self) -> int:
        return 0 if self.partition is None else self.partition.module_count

    @property
    def empty_day(self) -> bool:
        return self.partition is None

    @property
    def is_sunday(self) -> bool:
        return self.date.weekday() == 6


def _detect_day(od: DailyOD, seed: int, trials: int) -> DayCommunities:
    """Detect the communities of one day's graph; a day without flow has no partition."""
    partition = infomap(FlowGraph.from_od(od), seed, trials) if len(od.count) else None
    return DayCommunities(date=od.date, partition=partition)


# The helper imports only this module: `spawn` would re-import `__main__`, the
# CLI, and fork without exec is unsafe once numpy may have started threads.
_HELPER_SOURCE = "from mobflow import community; community._serve()"


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


def _serve(stdin: BinaryIO | None = None, stdout: BinaryIO | None = None) -> None:
    """The helper's side: read the pickled detection arguments, then answer each pickled day.

    Each OD sent gets its pickled DayCommunities back before the next is read.
    Stops without a reply when the parent closes the pipe or a day raises a data
    error; the parent then detects that day itself and raises the same error.
    """
    stdin = sys.stdin.buffer if stdin is None else stdin
    stdout = sys.stdout.buffer if stdout is None else stdout
    try:
        args = pickle.load(stdin)
        while True:
            day = _detect_day(pickle.load(stdin), *args)
            pickle.dump(day, stdout)
            stdout.flush()
    except (EOFError, ValueError, PowerIterationError):
        return


def _ask(helper: subprocess.Popen, od: DailyOD) -> DayCommunities:
    """Have the helper detect one day: send its OD, then wait for its result."""
    pickle.dump(od, helper.stdin)
    helper.stdin.flush()
    return pickle.load(helper.stdout)


def _claims(take: Callable[[], int]) -> Iterator[int]:
    """The day indices `take` pops from one end of the queue, until it is empty."""
    while True:
        try:
            claim = take()
        except IndexError:
            return
        yield claim


def _feed(
    helper: subprocess.Popen,
    queue: deque,
    ordered: Sequence[DailyOD],
    results: list,
    args: tuple,
) -> None:
    """The feeder thread: hand the helper the queue's front day, one at a time, until none is left.

    Stops at the first day the helper does not return; that day's result stays
    None, and every day still queued is left to this process.
    """
    try:
        pickle.dump(args, helper.stdin)
        for i in _claims(queue.popleft):
            results[i] = _ask(helper, ordered[i])
        helper.stdin.close()  # end of input: the helper exits
    except (OSError, EOFError, pickle.UnpicklingError):
        pass  # the helper died or was killed


def _stop(helper: subprocess.Popen, feeder: threading.Thread) -> None:
    """Kill the helper if it still runs, join the feeder, reap the helper and close its pipes.

    The kill ends any read or write the feeder is blocked in. Calling it again does nothing.
    """
    helper.kill()
    if feeder.is_alive():  # False too if the thread never started
        feeder.join()
    helper.wait()
    helper.stdout.close()
    try:
        helper.stdin.close()
    except BrokenPipeError:
        pass  # bytes a dead helper never read


def _detect_missing(ordered: Sequence[DailyOD], results: list, args: tuple, end: int) -> None:
    """Detect, in date order, each of the first `end` days that has no result yet."""
    for i in range(end):
        if results[i] is None:
            results[i] = _detect_day(ordered[i], *args)


def community_count_series(
    ods: Sequence[DailyOD],
    seed: int,
    trials: int,
    meanwhile: Callable[[], None] | None = None,
) -> list[DayCommunities]:
    """Per-day module counts of the daily flow graphs, date-ordered.

    A day with no flow has no partition and counts 0 (`DayCommunities.empty_day`).

    The days form one two-ended queue of indices into the date-sorted ODs.
    With two or more usable CPUs and days, a helper process starts at once, and
    a feeder thread hands it the queue's front day, one at a time, in date
    order. `meanwhile`, if given, then runs here while the helper works; this
    process claims days from the back after it. Each day's partition depends
    only on its graph and (seed, trial), so the result, and any detection error
    raised, do not depend on how the days were shared: a day the helper did not
    return is detected here, and the error raised is the one the first failing
    day in date order raises.
    """
    args = (seed, trials)
    ordered = sorted(ods, key=lambda od: od.date)
    results: list[DayCommunities | None] = [None] * len(ordered)
    queue = deque(range(len(ordered)))  # pops from either end are atomic: the two claimants share it
    helper = feeder = None
    if len(ordered) >= 2 and _usable_cpus() >= 2:
        try:
            helper = _start_helper()
        except OSError:
            pass  # no process to spare: every day runs here
        else:
            feeder = threading.Thread(target=_feed, args=(helper, queue, ordered, results, args))
    try:
        if feeder is not None:
            feeder.start()
        if meanwhile is not None:
            meanwhile()
        try:
            for claimed in _claims(queue.pop):
                results[claimed] = _detect_day(ordered[claimed], *args)
        except Exception:
            # Raise what the serial order raises: a day dated before the failing
            # one that has no result yet comes first.
            if helper is not None:
                _stop(helper, feeder)
            _detect_missing(ordered, results, args, claimed)
            raise
        if feeder is not None:
            feeder.join()
        _detect_missing(ordered, results, args, len(ordered))
        return results
    finally:
        if helper is not None:
            _stop(helper, feeder)


def community_counts_table(days: Sequence[DayCommunities]) -> Iterator[list]:
    """The header date,community_count,is_sunday, then a row per day (Sunday markers for plotting)."""
    yield ["date", "community_count", "is_sunday"]
    for day in days:
        yield [day.date.isoformat(), day.community_count, int(day.is_sunday)]


def partition_dump(day: DayCommunities) -> dict:
    """JSON-ready dump of one day's partition: its modules in id order, each with its municipalities."""
    modules = []
    if day.partition is not None:
        for module_id, members in sorted(day.partition.modules().items()):
            modules.append({"id": module_id, "municipalities": members})
    return {
        "date": day.date.isoformat(),
        "modules": modules,
        "codelength": None if day.partition is None else day.partition.codelength,
        "empty_day": day.empty_day,
    }

