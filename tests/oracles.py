"""Independent reference implementations used as test oracles, and shared test helpers.

Everything here is written as directly as possible from the definitions and
stays independent of the library code paths it checks: brute-force scans,
dense linear algebra, exhaustive enumeration, straight-line formulas.
"""

import hashlib
import math
import random
from bisect import bisect
from collections import Counter, defaultdict, namedtuple
from datetime import datetime
from itertools import accumulate, groupby
from operator import itemgetter

import numpy as np

from mobflow.cluster import MAX_ITER
from mobflow.community import (
    GAIN_EPS,
    FlowGraph,
    Partition,
    _MapState,
    _aggregate,
    _compact,
    _flat_level,
    _plogp,
    stationary_flow,
)
from mobflow.diversity import flow_diversity as diversity_kernel
from mobflow.ingest import ParseResult, daily_trips
from mobflow.od import DailyOD, aggregate_to_province
from mobflow.synth import GRAVITY_EXPONENT

Event = namedtuple("Event", "user_id timestamp municipality_id")
DictFlow = namedtuple("DictFlow", "visit_rates edge_flows")
FlowSeries = namedtuple(
    "FlowSeries", "province_id dates in_flow out_flow self_flow in_norm out_norm self_norm"
)
DiversitySeries = namedtuple("DiversitySeries", "province_id direction dates values")
ProvinceDay = namedtuple("ProvinceDay", "date cells")  # one day's (origin, destination) -> count province cells
ReferenceMatrix = namedtuple("ReferenceMatrix", "provinces dates values dropped")
ReferencePlan = namedtuple("ReferencePlan", "daily_trips daily_cells daily_totals planted_cluster_groups")


def tree_digest(root):
    """SHA-256 over every file's relative path and bytes under `root`, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def event_table(events):
    """The library's event table holding `events`, built directly from its definition.

    Users and municipalities are coded in name order; rows are sorted by
    (user, timestamp), ties keeping list order.
    """
    users = sorted({e.user_id for e in events})
    municipalities = sorted({e.municipality_id for e in events})
    user_code = {user: i for i, user in enumerate(users)}
    muni_code = {muni: i for i, muni in enumerate(municipalities)}
    rows = sorted(events, key=lambda e: (e.user_id, e.timestamp))
    return ParseResult(
        users=users,
        municipalities=municipalities,
        user=np.array([user_code[e.user_id] for e in rows], dtype=np.int64),
        timestamp=np.array([e.timestamp for e in rows], dtype=np.int64),
        municipality=np.array([muni_code[e.municipality_id] for e in rows], dtype=np.int64),
    )


def named_daily_trips(table, *args):
    """`daily_trips` of an event table, each day's rows as (origin, destination) name pairs."""
    names = table.municipalities
    return {
        day: [(names[o], names[d]) for o, d in trips.tolist()]
        for day, trips in daily_trips(table, *args).items()
    }


def split_events_by_day(events, tz):
    """Cut one user's time-sorted events into (local date, events) chunks, one date at a time."""
    chunks = []
    for ev in events:
        day = datetime.fromtimestamp(ev.timestamp, tz).date()
        if not chunks or chunks[-1][0] != day:
            chunks.append((day, []))
        chunks[-1][1].append(ev)
    return chunks


def extract_trips(events, dwell_threshold=3600):
    """Streaming trip extraction over one user's time-sorted events of one day.

    Every pair of consecutive events in different municipalities (A at t1, B at
    t2) raises a candidate trip A->B arriving at t2. The candidate is kept iff
    the user's next event in a municipality other than B comes at least
    `dwell_threshold` seconds after t2; a candidate still open at the end of
    the events counts as satisfied. Returns (origin, destination) pairs.
    """
    trips = []
    candidate = None  # (origin, destination, arrival)
    for prev, ev in zip(events, events[1:]):
        if ev.municipality_id == prev.municipality_id:
            continue
        # ev is the first event outside the open candidate's destination
        if candidate is not None and ev.timestamp - candidate[2] >= dwell_threshold:
            trips.append(candidate[:2])
        candidate = (prev.municipality_id, ev.municipality_id, ev.timestamp)
    if candidate is not None:
        trips.append(candidate[:2])
    return trips


def trips_bruteforce(events, dwell_threshold=3600):
    """Quadratic trip extraction: evaluate every consecutive pair independently."""
    out = []
    for i in range(len(events) - 1):
        a, b = events[i], events[i + 1]
        if a.municipality_id == b.municipality_id:
            continue
        dwell = None
        for later in events[i + 2:]:
            if later.municipality_id != b.municipality_id:
                dwell = later.timestamp - b.timestamp
                break
        if dwell is None or dwell >= dwell_threshold:
            out.append((a.municipality_id, b.municipality_id))
    return out


def count_cells(pairs):
    """Counter of (origin, destination) name pairs as a dict in sorted cell order."""
    return dict(sorted(Counter(pairs).items()))


def from_cells(day, cells):
    """The municipality matrix of `cells`, (origin, destination) names -> count, named from the keys."""
    names = [name for pair in cells for name in pair]
    codes = np.arange(len(names))
    counts = np.array(list(cells.values()), dtype=np.int64)
    return DailyOD.from_codes(day, names, codes[0::2], codes[1::2], counts)


def province_day(day, cells):
    """A ProvinceDay of `cells` in sorted cell order, the order a matrix's rows take."""
    return ProvinceDay(day, dict(sorted(cells.items())))


def cube_of(province_days, provinces):
    """`aggregate_to_province`'s cube of ProvinceDays over `provinces`.

    Each province p gets two municipalities, p and p', and each cell (o, q)
    becomes the municipality cell (o, q'): never a self-loop, and it aggregates
    back to (o, q).
    """
    mapping = {name: p for p in provinces for name in (p, p + "'")}
    muni_ods = [
        from_cells(day.date, {(o, q + "'"): count for (o, q), count in day.cells.items()})
        for day in province_days
    ]
    return aggregate_to_province(muni_ods, mapping)


def aggregate_cells(cells, mapping):
    """Cells regrouped by `mapping` of each name, summed through dict lookups, in sorted order."""
    out = Counter()
    for (origin, destination), count in cells.items():
        out[(mapping[origin], mapping[destination])] += count
    return dict(sorted(out.items()))


def province_cube(days, provinces):
    """int64[D, P, P] trip counts of (date, cells) days, filled one cell at a time."""
    position = {province: i for i, province in enumerate(sorted(provinces))}
    counts = np.zeros((len(days), len(position), len(position)), dtype=np.int64)
    for d, (_day, cells) in enumerate(days):
        for (origin, destination), count in cells.items():
            counts[d, position[origin], position[destination]] = count
    return counts


def same_od(a, b):
    """Whether two matrices hold the same date, names and rows."""
    columns = ("origin", "destination", "count")
    return (a.date, a.names) == (b.date, b.names) and all(
        np.array_equal(getattr(a, column), getattr(b, column)) for column in columns
    )


def flow_graph(cells, extra_nodes=()):
    """The library graph of a (source, target) -> weight dict, edges in the dict's order."""
    nodes = tuple(sorted({node for pair in cells for node in pair}.union(extra_nodes)))
    index = {node: i for i, node in enumerate(nodes)}
    edges = np.array([(index[u], index[v]) for u, v in cells], dtype=np.int64).reshape(-1, 2)
    return FlowGraph(nodes=nodes, edges=edges, weights=np.array(list(cells.values()), dtype=float))


def flow_dicts(g, flow):
    """Name-keyed visit rates and (source, target)-keyed edge flows of a stationary flow on g."""
    nodes = g.nodes
    return DictFlow(
        dict(zip(nodes, flow.visit_rates.tolist())),
        {(nodes[u], nodes[v]): q for (u, v), q in zip(g.edges.tolist(), flow.edge_flows.tolist())},
    )


def entropy_direct(counts, n):
    """Normalized Shannon entropy by direct summation; None for zero flow."""
    total = sum(counts)
    if total == 0:
        return None
    acc = 0.0
    for c in counts:
        if c:
            p = c / total
            acc += p * math.log(p)
    return -acc / math.log(n)


def compute_flows(ods, province):
    """One province's flow series by scanning every cell of every day."""
    in_flow, out_flow, self_flow = [], [], []
    for od in ods:
        inc = out = 0
        for (origin, destination), count in od.cells.items():
            if origin == province and destination != province:
                out += count
            elif destination == province and origin != province:
                inc += count
        in_flow.append(inc)
        out_flow.append(out)
        self_flow.append(od.cells.get((province, province), 0))

    def normalize(values):
        peak = max(values, default=0)
        return [v / peak if peak else 0.0 for v in values]

    return FlowSeries(
        province, [od.date for od in ods], in_flow, out_flow, self_flow,
        normalize(in_flow), normalize(out_flow), normalize(self_flow),
    )


def flow_diversity(od, province, direction, n):
    """One province's normalized flow entropy over its partners on one day by scanning every cell.

    Partners are visited in the cells' (origin, destination) order and the
    entropy is summed term by term, the order the library sums in, so results
    can be compared with ==.
    """
    flows = []
    for (origin, destination), count in od.cells.items():
        if origin == destination:
            continue
        if (destination if direction == "in" else origin) == province:
            flows.append(count)
    total = sum(flows)
    if total == 0:
        return None
    entropy = 0.0
    for count in flows:
        p = count / total
        entropy -= p * math.log(p)
    return entropy / math.log(n)


def rows_with_none(values):
    """A float array's rows as lists, NaN (an absent day) as None."""
    return [[None if math.isnan(v) else v for v in row] for row in values.tolist()]


def _normalize(values):
    # An all-zero series stays all zero rather than dividing by zero.
    peak = max(values, default=0)
    if peak == 0:
        return [0.0 for _ in values]
    return [v / peak for v in values]


def flow_series_reference(cube):
    """Every province's FlowSeries of Python lists, normalized value by value; reference for compute_flows."""
    diagonal = cube.counts.diagonal(axis1=1, axis2=2)
    in_flow = (cube.counts.sum(axis=1) - diagonal).T.tolist()
    out_flow = (cube.counts.sum(axis=2) - diagonal).T.tolist()
    return [
        FlowSeries(province, list(cube.dates), inc, out, own, *map(_normalize, (inc, out, own)))
        for province, inc, out, own in zip(cube.provinces, in_flow, out_flow, diagonal.T.tolist())
    ]


def diversity_series_reference(cube, direction):
    """Every province's DiversitySeries, a list with None on absent days; reference for diversity_series."""
    n = len(cube.provinces)
    flows = cube.counts if direction == "out" else cube.counts.transpose(0, 2, 1)
    flows = flows * ~np.eye(n, dtype=bool)
    values = [[None] * len(cube.dates) for _ in range(n)]
    days, rows, partners = np.nonzero(flows)
    cells = zip(days.tolist(), rows.tolist(), flows[days, rows, partners].tolist())
    for (day, row), group in groupby(cells, key=itemgetter(0, 1)):
        values[row][day] = diversity_kernel([count for _, _, count in group], n)
    return [
        DiversitySeries(province, direction, list(cube.dates), row)
        for province, row in zip(cube.provinces, values)
    ]


def weekend_contrast_reference(series, split_date):
    """The four (mean, n) cells of one DiversitySeries, summed in date order."""
    cells = {(post, weekend): [] for post in (False, True) for weekend in (False, True)}
    for day, value in zip(series.dates, series.values):
        if value is not None:
            cells[(day >= split_date, day.weekday() >= 5)].append(value)
    return {key: (sum(v) / len(v) if v else None, len(v)) for key, v in cells.items()}


def weekend_deltas_reference(series_list, split_date):
    """(pre, post): the mean over provinces of weekend minus weekday mean, from weekend_contrast_reference."""
    deltas = {False: [], True: []}
    for series in series_list:
        cells = weekend_contrast_reference(series, split_date)
        for post, period in deltas.items():
            (weekday, _), (weekend, _) = cells[(post, False)], cells[(post, True)]
            if weekday is not None and weekend is not None:
                period.append(weekend - weekday)
    return tuple(sum(v) / len(v) if v else None for v in deltas.values())


def impute_reference(values):
    """A None-holding series as floats, gaps interpolated and ends extended."""
    arr = np.array([np.nan if v is None else v for v in values], dtype=float)
    defined = np.flatnonzero(~np.isnan(arr))
    if defined.size == 0:
        raise ValueError("cannot impute an all-absent series")
    missing = np.flatnonzero(np.isnan(arr))
    if missing.size:
        arr[missing] = np.interp(missing, defined, arr[defined])
    return arr


def series_matrix_reference(series_list, max_absent_fraction=0.5):
    """The k-means input assembled series by series from DiversitySeries; reference for from_diversity."""
    if not series_list:
        raise ValueError("no series to assemble")
    dates = series_list[0].dates
    for series in series_list:
        if series.dates != dates:
            raise ValueError("all series must share the same date axis")
    n_days = len(dates)
    provinces, rows, dropped = [], [], []
    for series in series_list:
        absent = sum(1 for v in series.values if v is None)
        if n_days == 0 or absent / n_days > max_absent_fraction:
            dropped.append(series.province_id)
            continue
        rows.append(impute_reference(series.values))
        provinces.append(series.province_id)
    if not rows:
        raise ValueError("every series was dropped during imputation")
    return ReferenceMatrix(provinces, list(dates), np.vstack(rows), dropped)


def stationary_dense(g, tau=0.15):
    """Stationary distribution of the teleporting chain by dense linear solve."""
    nodes = g.nodes
    n = len(nodes)
    edges = list(zip(g.edges.tolist(), g.weights.tolist()))
    P = np.zeros((n, n))
    out_w = np.zeros(n)
    for (u, v), w in edges:
        out_w[u] += w
    for (u, v), w in edges:
        P[u, v] = w / out_w[u]
    for i in range(n):
        if out_w[i] == 0.0:
            P[i, :] = 1.0 / n
    chain = (1.0 - tau) * P + tau / n
    A = chain.T - np.eye(n)
    A[-1, :] = 1.0  # replace one redundant equation with the normalization
    b = np.zeros(n)
    b[-1] = 1.0
    p = np.linalg.solve(A, b)
    return dict(zip(nodes, p.tolist()))


def map_equation(assignment, flow):
    """Two-level description length (bits per step) of a partition, from dicts.

    L = q * H(exit distribution) + sum_i (q_i + P_i) * H(module codebook i),
    where q_i sums the edge flows leaving module i and P_i the member visit
    rates; evaluated in the equivalent plogp form.
    """
    missing = set(flow.visit_rates) - set(assignment)
    if missing:
        raise ValueError(f"partition misses nodes: {sorted(missing)[:5]}")
    exit_flow = defaultdict(float)
    module_flow = defaultdict(float)
    for node, p in flow.visit_rates.items():
        module_flow[assignment[node]] += p
        exit_flow.setdefault(assignment[node], 0.0)
    for (u, v), q in flow.edge_flows.items():
        if u != v and assignment[u] != assignment[v]:
            exit_flow[assignment[u]] += q
    total_exit = sum(exit_flow.values())
    length = _plogp(total_exit)
    for module, q_exit in exit_flow.items():
        length -= 2.0 * _plogp(q_exit)
        length += _plogp(q_exit + module_flow[module])
    for p in flow.visit_rates.values():
        length -= _plogp(p)
    return length


def map_equation_entropy_form(assignment, flow):
    """Two-level map equation written literally as q*H(Q) + sum p_i*H(P_i), in bits."""

    def H(probs):
        return -sum(p * math.log2(p) for p in probs if p > 0.0)

    modules = sorted(set(assignment.values()))
    exit_flow = {m: 0.0 for m in modules}
    member_rates = {m: [] for m in modules}
    for node, p in flow.visit_rates.items():
        member_rates[assignment[node]].append(p)
    for (u, v), q in flow.edge_flows.items():
        if u != v and assignment[u] != assignment[v]:
            exit_flow[assignment[u]] += q
    total_exit = sum(exit_flow.values())
    length = 0.0
    if total_exit > 0.0:
        length += total_exit * H([exit_flow[m] / total_exit for m in modules])
    for m in modules:
        circulation = exit_flow[m] + sum(member_rates[m])
        if circulation > 0.0:
            probs = [exit_flow[m] / circulation] + [p / circulation for p in member_rates[m]]
            length += circulation * H(probs)
    return length


def set_partitions(items):
    """Every partition of `items`, enumerated via restricted growth strings."""
    n = len(items)
    if n == 0:
        return
    a = [0] * n
    while True:
        groups = {}
        for i, label in enumerate(a):
            groups.setdefault(label, []).append(items[i])
        yield list(groups.values())
        for i in range(n - 1, 0, -1):
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, n):
                    a[j] = 0
                break
        else:
            return


def exhaustive_min_codelength(flow, map_equation):
    """Global map-equation minimum by scoring every partition of the node set."""
    nodes = sorted(flow.visit_rates)
    best_length, best_assignment = math.inf, None
    for groups in set_partitions(nodes):
        assignment = {}
        for label, group in enumerate(groups):
            for node in group:
                assignment[node] = label
        length = map_equation(assignment, flow)
        if length < best_length:
            best_length, best_assignment = length, assignment
    return best_length, best_assignment


def random_flow_graph(rng, n, density=0.45, max_weight=10):
    """Random weighted digraph on n nodes; may contain dangling/isolated nodes."""
    nodes = [f"n{i}" for i in range(n)]
    edges = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                edges[(nodes[u], nodes[v])] = float(rng.integers(1, max_weight))
    return nodes, edges


def assert_consistent(state):
    """Check a swept state's maintained terms against a fresh state of its partition.

    The plogp cache must hold exactly the terms of the state's own exit and
    visit flows. Those flows, and so the codelength, are updated move by move
    and match a from-scratch rebuild to rounding only.
    """
    if state.plogp_exit != [_plogp(e) for e in state.exit] or state.plogp_circ != [
        _plogp(e + f) for e, f in zip(state.exit, state.flow)
    ]:
        raise AssertionError("per-module plogp cache is stale")
    fresh = _MapState(state.level, state.module_of, state.node_term)
    if abs(fresh.codelength() - state.codelength()) > 1e-9:
        raise AssertionError("maintained codelength diverged from recomputation")


class _ReferenceMapState(_MapState):
    """Partition bookkeeping that scores every candidate move from scratch.

    `gain` and `apply` evaluate all eight plogp terms of the two touched
    modules afresh and never read the per-module plogp cache of `_MapState`.
    The fast sweep in `mobflow.community` must reproduce its deltas bit for bit.
    """

    def gain(self, node, target_module, wm_out, wm_in):
        """Codelength delta for moving `node` to `target_module`, plus both new exit flows."""
        level = self.level
        current = self.module_of[node]
        p = level.node_flow[node]
        exit_a, exit_b = self.exit[current], self.exit[target_module]
        new_exit_a = exit_a - level.s_out[node] + wm_out.get(current, 0.0) + wm_in.get(current, 0.0)
        new_exit_b = exit_b + level.s_out[node] - wm_out.get(target_module, 0.0) - wm_in.get(target_module, 0.0)
        new_exit_a = max(new_exit_a, 0.0)  # guards float cancellation only
        new_exit_b = max(new_exit_b, 0.0)
        delta_s1 = _plogp(new_exit_a) + _plogp(new_exit_b) - _plogp(exit_a) - _plogp(exit_b)
        delta_s2 = (
            _plogp(new_exit_a + self.flow[current] - p)
            + _plogp(new_exit_b + self.flow[target_module] + p)
            - _plogp(exit_a + self.flow[current])
            - _plogp(exit_b + self.flow[target_module])
        )
        new_sum = self.sum_exit + (new_exit_a + new_exit_b) - (exit_a + exit_b)
        delta = _plogp(new_sum) - _plogp(self.sum_exit) - 2.0 * delta_s1 + delta_s2
        return delta, new_exit_a, new_exit_b

    def apply(self, node, target_module, new_exit_a, new_exit_b):
        current = self.module_of[node]
        p = self.level.node_flow[node]
        exit_a, exit_b = self.exit[current], self.exit[target_module]
        self.s1 += _plogp(new_exit_a) + _plogp(new_exit_b) - _plogp(exit_a) - _plogp(exit_b)
        self.s2 += (
            _plogp(new_exit_a + self.flow[current] - p)
            + _plogp(new_exit_b + self.flow[target_module] + p)
            - _plogp(exit_a + self.flow[current])
            - _plogp(exit_b + self.flow[target_module])
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
            self.sum_exit -= self.exit[current]
            self.flow[current] = 0.0
            self.exit[current] = 0.0
            self._empty.append(current)


def _reference_sweep(state, rng):
    """Sweep nodes in fresh seeded random order until a full sweep makes no move.

    Each order shuffles range(n) from the last position down: position i
    trades places with one drawn uniformly from 0..i as int(rng.random() * (i + 1)).
    """
    level = state.level
    n = level.size
    moved_any = False
    while True:
        moved_in_sweep = False
        order = list(range(n))
        for i in reversed(range(1, n)):
            j = int(rng.random() * (i + 1))
            order[i], order[j] = order[j], order[i]
        for node in order:
            wm_out = defaultdict(float)
            for target, q in level.out_adj[node]:
                wm_out[state.module_of[target]] += q
            wm_in = defaultdict(float)
            for source, q in level.in_adj[node]:
                wm_in[state.module_of[source]] += q
            current = state.module_of[node]
            candidates = sorted((set(wm_out) | set(wm_in)) - {current})
            if state.size[current] > 1:
                empty = state.empty_module()
                if empty is not None:
                    candidates.append(empty)
            best = None
            for candidate in candidates:
                delta, new_a, new_b = state.gain(node, candidate, wm_out, wm_in)
                if delta < -GAIN_EPS and (best is None or delta < best[0]):
                    best = (delta, candidate, new_a, new_b)
            if best is not None:
                _, candidate, new_a, new_b = best
                state.apply(node, candidate, new_a, new_b)
                moved_in_sweep = True
                moved_any = True
        if not moved_in_sweep:
            return moved_any


def _reference_trial(flat, node_term, rng):
    n = flat.size
    flat_assignment = list(range(n))
    current_length = _ReferenceMapState(flat, flat_assignment, node_term).codelength()
    while True:
        length_before = current_length
        level = flat
        to_level = list(range(n))
        level_modules = _compact(flat_assignment)
        while True:
            state = _ReferenceMapState(level, level_modules, node_term)
            moved = _reference_sweep(state, rng)
            module_count = len(set(state.module_of))
            flat_assignment = [state.module_of[to_level[i]] for i in range(n)]
            current_length = state.codelength()
            if not moved and module_count == level.size:
                break
            level, collapse = _aggregate(level, state.module_of)
            to_level = [collapse[to_level[i]] for i in range(n)]
            level_modules = list(range(level.size))
        if current_length >= length_before - GAIN_EPS:
            return _compact(flat_assignment), current_length


def infomap_reference(g, seed, trials):
    """The multilevel greedy optimizer with every move scored by a full `gain` call.

    Same seeds, move order, tie-breaking and float expressions as
    `mobflow.community.infomap`, so both must return identical partitions and
    codelengths; only the bookkeeping of the plogp terms differs.
    """
    flow = stationary_flow(g)
    flat = _flat_level(g, flow)
    node_term = sum(_plogp(p) for p in flow.visit_rates.tolist())
    best = None
    for trial in range(max(1, trials)):
        rng = random.Random(f"{seed},{trial}")
        assignment, length = _reference_trial(flat, node_term, rng)
        if best is None or length < best[0] - GAIN_EPS:
            best = (length, assignment)
    length, raw = best
    compacted = _compact(raw)
    return Partition(
        assignment={node: compacted[i] for i, node in enumerate(g.nodes)},
        codelength=length,
    )


def nmi(a, b):
    """Normalized mutual information of two node -> label partitions of the same nodes.

    Danon, Diaz-Guilera, Duch & Arenas (J. Stat. Mech. P09008, 2005), from the
    confusion counts N_ij of the labels: -2 sum N_ij log(N_ij N / (N_i N_j))
    over sum N_i log(N_i / N) + sum N_j log(N_j / N). Two one-label partitions
    carry no information to share and count as identical (1.0).
    """
    if a.keys() != b.keys() or not a:
        raise ValueError("nmi needs two partitions of the same non-empty node set")
    n = len(a)
    joint = Counter((a[node], b[node]) for node in a)
    rows, columns = Counter(a.values()), Counter(b.values())
    shared = sum(c * math.log(c * n / (rows[i] * columns[j])) for (i, j), c in joint.items())
    spread = sum(c * math.log(c / n) for c in rows.values()) + sum(c * math.log(c / n) for c in columns.values())
    return 1.0 if spread == 0.0 else -2.0 * shared / spread


def sq_distances_reference(x, centroids):
    """Every row's squared distance to every centroid, as one (n, k, dates) tensor summed over dates."""
    return ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def pairwise_distances(x):
    """Euclidean distance between every pair of rows of x."""
    return np.sqrt(sq_distances_reference(x, x))


def kmeanspp_reference(x, k, rng):
    """k-means++ seeding that recomputes each new centroid's distances to every row.

    `rng` is a `random.Random`. A uniform pick is int(rng.random() * n). A
    weighted pick scales one rng.random() by the running total of the weights
    and takes the first row whose running total exceeds it, the last row at most.
    """
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[int(rng.random() * n)]
    closest = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        running, totals = 0.0, []
        for weight in closest.tolist():
            running += weight
            totals.append(running)
        if running == 0.0:
            idx = int(rng.random() * n)
        else:
            target = rng.random() * running
            idx = next((i for i, total in enumerate(totals[:-1]) if total > target), n - 1)
        centroids[j] = x[idx]
        closest = np.minimum(closest, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def lloyd_reference(x, centroids):
    """Lloyd iterations over every exact distance, with one boolean mask per cluster for the update.

    Every step takes all (n, k) exact date sums. `mobflow.cluster._lloyd` takes
    only those its certificate cannot spare, yet the same labels, so labels,
    centroids and inertia must be bit-equal.
    """
    n, k = x.shape[0], centroids.shape[0]
    labels = np.full(n, -1)
    for _ in range(MAX_ITER):
        dists = sq_distances_reference(x, centroids)
        new_labels = dists.argmin(axis=1)
        claimed = {}
        while any(not (new_labels == j).any() for j in range(k)):
            for j in range(k):
                if not (new_labels == j).any():
                    far = dists[np.arange(n), new_labels]
                    for point in claimed:
                        far[point] = -1.0
                    farthest = int(far.argmax())
                    centroids[j] = x[farthest]
                    dists[:, j] = ((x - centroids[j]) ** 2).sum(axis=1)
                    claimed[farthest] = j
                    new_labels = dists.argmin(axis=1)
                    for point, cluster in claimed.items():
                        new_labels[point] = cluster
        if (new_labels == labels).all():
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = x[labels == j].mean(axis=0)
    dists = sq_distances_reference(x, centroids)
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, centroids, inertia


def mean_silhouette_reference(dists, labels):
    """Mean silhouette, one point at a time: a is the mean distance to the rest of its
    own cluster, b the least mean distance to another cluster; singletons and
    zero separation score 0.
    """
    cluster_ids = np.unique(labels)
    if len(cluster_ids) < 2:
        raise ValueError(f"silhouette needs at least 2 clusters, got {len(cluster_ids)}")
    n = len(labels)
    scores = np.zeros(n)
    masks = {j: labels == j for j in cluster_ids}
    for i in range(n):
        own = masks[labels[i]]
        own_size = own.sum()
        if own_size <= 1:
            scores[i] = 0.0
            continue
        a = dists[i][own].sum() / (own_size - 1)
        b = min(dists[i][masks[j]].mean() for j in cluster_ids if j != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def _territory_reference(config):
    """Province names, their grid coordinates and municipality names, and per province
    its planted communities (consecutive runs of its municipalities, the first runs one
    longer) and bridges (the first two members of each run with those of the next, both
    ways round).
    """
    n, m = config.n_provinces, config.municipalities_per_province
    side = math.isqrt(n - 1) + 1  # the least square grid that holds n provinces
    provinces = [f"P{p:03d}" for p in range(n)]
    coords = {name: (float(p % side), float(p // side)) for p, name in enumerate(provinces)}
    munis = {name: [f"M{p:03d}_{j:02d}" for j in range(m)] for p, name in enumerate(provinces)}
    k = min(config.communities_per_province, m)
    sizes = [m // k + (1 if i < m % k else 0) for i in range(k)]
    communities, bridges = {}, {}
    for name in provinces:
        runs = [munis[name][sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(k)]
        communities[name] = runs
        bridges[name] = [
            pair
            for a, b in zip(runs, runs[1:])
            for j in range(min(2, len(a), len(b)))
            for pair in ((a[j], b[j]), (b[j], a[j]))
        ]
    return provinces, coords, munis, communities, bridges


def _gravity_partners_reference(provinces, coords):
    """Per origin province name: the other names in province order, and their gravity weights."""
    out = {}
    for origin in provinces:
        ox, oy = coords[origin]
        partners = [p for p in provinces if p != origin]
        weights = []
        for partner in partners:
            px, py = coords[partner]
            dist = max(1.0, float(np.hypot(px - ox, py - oy)))
            weights.append(1.0 / dist**GRAVITY_EXPONENT)
        out[origin] = (partners, weights)
    return out


def _planted_partner_sets_reference(config, provinces):
    """Per province name: the partner names of its planted diversity level, and its group."""
    levels = config.planted_cluster_levels
    n = len(provinces)
    k = len(levels)
    groups = {}
    partner_sets = {}
    for p, province in enumerate(provinces):
        group = p * k // n
        groups[province] = group
        m = int(round(n ** levels[group]))
        m = max(1, min(m, n - 1))
        partner_sets[province] = [provinces[(p + 1 + j) % n] for j in range(m)]
    return partner_sets, groups


def _allocate_near_uniform_reference(total, partners, rng):
    """Floor allocation over `partners`, the remainder to the first ones, plus one extra
    trip to a uniformly drawn partner."""
    counts = Counter()
    base, remainder = divmod(total, len(partners))
    for i, partner in enumerate(partners):
        counts[partner] = base + (1 if i < remainder else 0)
    counts[partners[int(rng.random() * len(partners))]] += 1
    return counts


def _allocate_gravity_reference(total, partners, weights, rng):
    """`total` independent partner choices, each with chance proportional to its weight:
    the first partner whose cumulative weight exceeds random() times their sum."""
    cumulative = list(accumulate(weights))
    return Counter(partners[bisect(cumulative, rng.random() * cumulative[-1])] for _ in range(total))


def generate_plan_reference(config):
    """`synth.generate_plan` trip by trip, with names: a ReferencePlan whose days hold
    (origin, destination, violated) triples in planning order, the post-violation
    cells counted with a Counter, and the (total, inter-province, intra-province)
    trip counts.

    Day d draws from `random.Random(f"{seed},{d},0")`, through random() alone: per
    origin province, its partner allocation, then each trip's origin and destination
    municipality, partners in name order; after every trip is planned, one violation
    draw per trip when the rate is above 0. An index below n is int(random() * n).
    """
    provinces, coords, munis, communities, bridges = _territory_reference(config)
    planted_sets = planted_groups = None
    if config.planted_cluster_levels is not None:
        planted_sets, planted_groups = _planted_partner_sets_reference(config, provinces)
    else:
        gravity = _gravity_partners_reference(provinces, coords)

    daily_trips, daily_cells, daily_totals = {}, {}, {}
    for day_index, day in enumerate(config.dates):
        regime = config.regime_for(day)
        rng = random.Random(f"{config.seed},{day_index},0")
        quota = round(config.inter_trips_per_province * regime.flow_scale)
        trips = []
        for origin in provinces if quota > 0 else []:
            if planted_sets is not None:
                counts = _allocate_near_uniform_reference(quota, planted_sets[origin], rng)
            else:
                partners, weights = gravity[origin]
                if day.weekday() >= 5:
                    # the weekend mix: a 1 - c share to the heaviest partner, c spread evenly
                    c = regime.weekend_concentration
                    top = weights.index(max(weights))
                    weights = [c / len(partners)] * len(partners)
                    weights[top] += 1.0 - c
                counts = _allocate_gravity_reference(quota, partners, weights, rng)
            for partner in sorted(counts):
                for _ in range(counts[partner]):
                    o_muni = munis[origin][int(rng.random() * len(munis[origin]))]
                    d_muni = munis[partner][int(rng.random() * len(munis[partner]))]
                    trips.append((o_muni, d_muni, False))
        inter = len(trips)

        bridge_count = round(config.bridge_trips_per_pair * regime.bridge_scale)
        for province in provinces:
            for community in communities[province]:
                for a in community:
                    for b in community:
                        if a != b:
                            trips.extend([(a, b, False)] * config.intra_trips_per_pair)
            for a, b in bridges[province]:
                trips.extend([(a, b, False)] * bridge_count)

        if config.dwell_violation_rate > 0.0:
            trips = [(o, d, rng.random() < config.dwell_violation_rate) for o, d, _ in trips]
        cells = Counter((d, o) if violated else (o, d) for o, d, violated in trips)
        daily_trips[day] = trips
        daily_cells[day] = dict(cells)
        daily_totals[day] = (len(trips), inter, len(trips) - inter)
    return ReferencePlan(daily_trips, daily_cells, daily_totals, planted_groups)
