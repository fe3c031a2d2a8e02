"""Packing/spanning counts of pseudoorbit families, growth-rate fits, the
triple-limit emulation for coarse entropy, and box-counting dimension.

Counting strategies, by the side they bound: ``_lower_counts`` counts
separated_lower with one of ``LOWER_STRATEGIES``, ``_upper_counts``
spanning_upper with one of ``UPPER_STRATEGIES``, every n of a cell at once.

* FULL_ENUM:   exhaustive grid pseudoorbit family, one greedy net under
               the max-over-steps orbit distance. The net is maximal
               R-separated, hence R-spanning, so a FULL_ENUM spanning_upper
               equals separated_lower; both bound the grid family only.
* FINAL_TERM:  the final-term set ``orbits.final_terms_lower`` realizes, so
               every counted point has a witness pseudoorbit (lower bound).
               On Euclidean spaces it is a spacing-R grid, R-separated, so
               every point counts, line by line without building the
               grid; on a cone it is a ray grid, reduced to a greedy
               R-net; the identity on SpineBlocks counts spikes.
* ORBIT_IMAGE: true orbits of a gridded first-step ball, greedy-separated
               under the orbit distance (lower bound; resolves spaces where
               separation happens before the final step).
* LADDER:      the vertical-ladder family for the conjugated doubling map
               on the half-plane (lower bound, closed form).
* SHADOW_HULL: ellipsoid hull cover for expanding linear maps (upper bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError
from .maps import ConjugatedDoubling, Identity, MapDescriptor
from .orbits import (DEFAULT_ORBIT_BUDGET, GridFamily, PseudoOrbit, _box_cover,
                     _cone_final_terms, _final_term_lines, _hull_lambda, _on_ray_grid,
                     family_steps, spine_spike_count)
from .spaces import (Point, Space, SpineBlocks, _CoordinateSpace, _FlatSpace,
                     _axis_grid)

LOWER_STRATEGIES = ("FULL_ENUM", "FINAL_TERM", "ORBIT_IMAGE", "LADDER")
UPPER_STRATEGIES = ("FULL_ENUM", "SHADOW_HULL")
STABILIZATION_TOL = 0.02           # nats per R-doubling
OSCILLATION_RESIDUAL = 0.1
INFINITY_SLOPE_FACTOR = 0.5 * math.log(2.0)  # flag when slope(delta) >= this * delta


# ---------------------------------------------------------------------------
# greedy packing / covering


def greedy_separated(items: Sequence, R: float, dist: Callable) -> list:
    """First-fit greedy R-separated subset: scan in order, keep an item iff
    it is at distance >= R from every kept item. Output is maximal."""
    if R <= 0:
        raise ValueError("R must be positive")
    kept = []
    for it in items:
        if all(dist(it, k) >= R for k in kept):
            kept.append(it)
    return kept


def greedy_spanning(items: Sequence, R: float, dist: Callable) -> list:
    """First-fit greedy R-spanning subset: the greedy R-separated subset.
    A maximal R-separated set is R-spanning: an item it does not keep lies
    within distance < R of a kept one, so every input ends up covered."""
    return greedy_separated(items, R, dist)


_GREEDY_BATCH = 64    # unblocked rows tested against each other in one step
_GREEDY_WINDOW = 1024  # rows after the cursor searched for the next batch
_PUSH_SLICE = 1 << 16  # window pairs a push gathers in one step
_TIE_BAND = 1e-5      # squared distances this close to R^2 (relative) are rechecked
_CELL_LIMIT = 2.0 ** 26  # an axis is indexed only within this many cells of 0
_ORBIT_CELL = 1.0 + 2.0 ** -20  # orbit cell side over R: the rounding margin


def _indexable(x: np.ndarray, side: float) -> bool:
    """Whether every coordinate of a nonempty column is finite and within
    ``_CELL_LIMIT`` cells of side ``side`` of 0."""
    return -_CELL_LIMIT < x.min() / side and x.max() / side < _CELL_LIMIT


def _cells(x: np.ndarray, side: float) -> np.ndarray:
    """The cells ``floor(x / side)`` of a coordinate column, as integers."""
    scaled = x / side
    return np.floor(scaled, out=scaled).astype(np.int64)


def _cell_codes(keys: Iterable[np.ndarray], m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The cells of m rows as ``_push_scan`` takes them, from each row's
    integer cell on each of k axes, one array per axis: each row's cell as
    one integer code, numbered row-major over the cells the rows span
    padded by one per side, and the code shifts from a cell to the middles
    of its window's runs. A cell's 3^k window, the cells within one of it
    on every axis, is 3^(k-1) runs of three consecutive codes. With no axes
    every row is in one cell."""
    codes, total = np.zeros(m, dtype=np.int64), 1
    shifts = mids = np.zeros(1, dtype=np.int64)
    for key in keys:
        lo = int(key.min()) - 1
        extent = int(key.max()) + 2 - lo
        total *= extent
        if total >= 2 ** 63:
            raise ValueError("the rows span too many cells to index")
        codes *= extent
        codes += key
        codes -= lo
        del key  # before the next one is built
        mids = shifts * extent
        shifts = (mids[:, None] + np.arange(-1, 2)).ravel()
    return codes, mids


def _push_scan(codes: np.ndarray, mids: np.ndarray, blocks: Callable) -> np.ndarray:
    """First-fit greedy scan of the rows whose cells ``_cell_codes`` gave
    as ``codes`` and ``mids``: scan the rows in order and keep a row iff no
    kept row blocks it. Returns the kept row indices; the kept set is
    maximal. ``blocks(p, q)``, elementwise over index arrays, says whether
    kept row q blocks row p; it may hold only where q lies in p's window.

    The scan pushes: each kept row marks as blocked every later row it
    blocks, and only unmarked rows are ever tested. The rows are listed by
    cell, so a kept row finds every row it can block in the runs of its
    window, by binary search. A cursor walks the rows; each step takes the
    next ``_GREEDY_BATCH`` unmarked rows within ``_GREEDY_WINDOW`` rows
    after it, tests them against each other in one step and scans them one
    by one against the batch's own kept rows; the rows it keeps then mark
    the rows after the batch, gathering about ``_PUSH_SLICE`` pairs at a
    time. This is exact: when a row enters a batch, every earlier kept row
    outside the batch has already marked it if it blocks it, and the batch
    decides the rest in scan order."""
    m = len(codes)
    # the rows in cell order (scan order within a cell) and their codes
    by_cell = np.argsort(codes, kind="stable")
    cells = codes[by_cell]
    # index pairs below the diagonal, row by row: the first q(q-1)/2 of them
    # pair each of a batch's first q candidates with every earlier one
    later_all, earlier_all = np.tril_indices(_GREEDY_BATCH, -1)
    blocked, kept = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    cursor = 0
    while cursor < m:
        cand = (~blocked[cursor:cursor + _GREEDY_WINDOW]).nonzero()[0][:_GREEDY_BATCH]
        cand += cursor
        cursor = (cand[-1] + 1 if len(cand) == _GREEDY_BATCH
                  else min(cursor + _GREEDY_WINDOW, m))
        if not len(cand):
            continue
        pairs = len(cand) * (len(cand) - 1) // 2
        later, earlier = later_all[:pairs], earlier_all[:pairs]
        hit = blocks(cand[later], cand[earlier])
        fresh = cand[_first_fit(len(cand), earlier[hit], later[hit])]
        kept[fresh] = True
        # the rows of each fresh row's window, run by run, up to ``step``
        # rows of each run at a time
        mid = (codes[fresh][:, None] + mids).ravel()
        start = np.searchsorted(cells, mid - 1)
        size = np.searchsorted(cells, mid + 1, side="right") - start
        src = fresh.repeat(len(mids))
        step, top = max(_PUSH_SLICE // len(mid), 1), int(size.max())
        for lo in range(0, top, step):
            part = size if top <= step else np.minimum(np.maximum(size - lo, 0), step)
            first = (start + (lo - part.cumsum() + part)).repeat(part)
            rows, q = by_cell[first + np.arange(len(first))], src.repeat(part)
            live = (rows >= cursor) & ~blocked[rows]
            rows, q = rows[live], q[live]
            blocked[rows[blocks(rows, q)]] = True
    return np.flatnonzero(kept)


def _first_fit(count: int, earlier: np.ndarray, later: np.ndarray) -> List[int]:
    """First-fit scan of ``count`` candidates in order, where candidate
    ``earlier[i]``, once kept, blocks candidate ``later[i]``. Returns the
    positions of the kept candidates. Each candidate's victims are one
    packed bit row of a dense hit matrix, ORed as a Python int."""
    hit = np.zeros((count, count), dtype=bool)
    hit[earlier, later] = True
    width = (count + 7) // 8
    victims = np.packbits(hit, axis=1, bitorder="little").tobytes()
    blocked = 0
    kept: List[int] = []
    for a in range(count):
        if not blocked >> a & 1:
            kept.append(a)
            blocked |= int.from_bytes(victims[a * width:(a + 1) * width], "little")
    return kept


def _greedy_kept(X: np.ndarray, R: float) -> np.ndarray:
    """First-fit greedy R-separated subset of the rows of an ``(m, d)``
    array: scan the rows in order and keep a row iff no kept row is closer
    than R. Returns the kept row indices; the kept set is maximal.

    "Closer" is decided exactly as the pure-Python cell-hash scan decides it
    (``tests/oracles._hashed_greedy``): a kept row q blocks a later row p iff
    ``((p0-q0)**2 + (p1-q1)**2) + ...``, summed in that order with ``**``,
    is below R*R and q lies in p's 3^d window of side-R cells
    (``floor(x / R)`` per axis). The vectorized test sums ``x * x``, which
    can differ from ``x ** 2`` in the last bit, and skips the window, which
    holds for every pair closer than R. Both can only matter where rounding
    decides a tie at distance R, so pairs whose squared distance is within
    ``_TIE_BAND`` of R*R are rechecked with the exact rule in plain Python.
    There q is in p's window iff ``code[p] - code[q]`` is in ``mids`` + (-1,
    0, 1): a code is ``sum_j c_j S_j``, each cell shifted to c_j in [1, E_j
    - 2] (E_j the padded extent of axis j, S_j that of the axes after it),
    and if ``sum_j (c_j(p) - c_j(q) - o_j) S_j = 0`` with o_j in {-1, 0, 1},
    each factor, below E_j in size, is a multiple of E_j from the last axis
    on, hence 0. ``_push_scan`` scans the rows by their side-R cells."""
    if R <= 0:
        raise ValueError("R must be positive")
    X = np.ascontiguousarray(X, dtype=float)
    m, d = X.shape
    if m == 0:
        return np.empty(0, dtype=np.intp)
    if not all(_indexable(x, R) for x in X.T):
        raise ValueError("coordinates must be finite and within 2^26 cells of 0")
    codes, mids = _cell_codes((_cells(x, R) for x in X.T), m)
    window = set((mids[:, None] + np.arange(-1, 2)).ravel().tolist())
    r2 = R * R

    def blocks(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Whether row q blocks row p, elementwise over index arrays."""
        diff = X.take(p, axis=0) - X.take(q, axis=0)
        sq = diff[:, 0] * diff[:, 0]
        for x in diff.T[1:]:
            sq += x * x
        close = sq < r2
        tie = np.flatnonzero(np.abs(sq - r2) <= _TIE_BAND * r2)
        if len(tie):
            # ``**`` of Python floats, summed d at a time from 0 in axis order
            squares = iter([t ** 2 for t in diff[tie].ravel().tolist()])
            close[tie] = [code in window and sum(row) < r2 for code, row in
                          zip((codes[p[tie]] - codes[q[tie]]).tolist(), zip(*[squares] * d))]
        return close

    return _push_scan(codes, mids, blocks)


def _greedy_kept_orbits(space: Space, steps: Sequence, m: int, R: float) -> np.ndarray:
    """First-fit greedy R-separated subset of m orbits, given by their
    steps: ``steps[s]`` is ``space.rows_step`` of the rows of every orbit's
    point at index s, in orbit order. On a coordinate space a step is
    ``(chart, columns)``: one chart for every row, or an array of one chart
    per row, and a coordinate array per axis up to the widest chart
    present; on a product it is the pair of its factors' steps. An orbit
    is kept iff no kept orbit is closer than R under the max over
    steps of the space's ``step_distances``. Returns the kept indices.

    A pair is closer than R iff it is closer at every step, so each step is
    tested only on the pairs the steps after it left close; orbits spread
    out as they go, so the last step decides most pairs. ``_push_scan``
    scans the orbits by their cells at the last step, of side S = R *
    ``_ORBIT_CELL``, on at most two of its columns, the two widest in
    cells. Every coordinate norm is at least the rounded difference d of
    each coordinate (the Euclidean one up to the rounding of d * d, for
    squares in the normal range), so a pair the step calls closer than R
    has ``|x_p - x_q| < R (1 + 2^-52)`` on every axis. Their ``x / S`` then
    differ by less than ``(1 + 2^-52) / ((1 + 2^-20)(1 - 2^-53)) < 1 -
    2^-21``, and below ``_CELL_LIMIT`` = 2^26 each is rounded by at most
    2^-28, so the rounded quotients differ by less than 1 and their floors
    by at most one: the pair lies in each other's window. A column with a
    coordinate past ``_CELL_LIMIT`` cells is not indexed; a step with one
    chart per row, or of a product, is not indexed at all, and then the
    whole family is one cell."""
    if R <= 0:
        raise ValueError("R must be positive")
    last_first = steps[::-1]

    def close(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Whether orbit p[i] is closer than R to orbit q[i], over index arrays."""
        live = np.arange(len(p))
        for step in last_first:
            if not len(live):
                break
            live = live[space.step_distances(step, p[live], q[live]) < R]
        out = np.zeros(len(p), dtype=bool)
        out[live] = True
        return out

    keys = []
    if m and steps and isinstance(space, _CoordinateSpace):
        chart, columns = steps[-1]
        if not isinstance(chart, np.ndarray):
            side = R * _ORBIT_CELL
            keys = [_cells(x, side) for x in columns if _indexable(x, side)]
            keys.sort(key=lambda key: int(key.max()) - int(key.min()), reverse=True)
    return _push_scan(*_cell_codes(keys[:2], m), close)


# ---------------------------------------------------------------------------
# count records


@dataclass
class CountRecord:
    n: int
    delta: float
    R: float
    strategy: str
    separated_lower: Optional[int] = None
    spanning_upper: Optional[int] = None

    def csv_row(self) -> str:
        sep, span = _csv_count(self.separated_lower), _csv_count(self.spanning_upper)
        return f"{self.n},{self.delta:g},{self.R:g},{self.strategy},{sep},{span}"


def _csv_count(count: Optional[int]) -> str:
    """A CSV count cell: the count as an integer, blank if None."""
    return "" if count is None else str(int(count))


CSV_HEADER = "n,delta,R,strategy,separated_lower,spanning_upper"


# ---------------------------------------------------------------------------
# strategy implementations


def _full_enum_counts(mapd, x0, ns, delta, R, spacing, budget) -> List[int]:
    """Greedy R-separated count of the ``enumerate_pseudoorbits`` family
    (spacing delta by default) at each n of ns in turn, scanned in family
    order; every orbit starts at x0, so that step is left out. One
    ``GridFamily`` holds the families of every n."""
    space = mapd.domain
    family = GridFamily(mapd, x0, delta, spacing if spacing is not None else delta, budget)
    counts = []
    for n in ns:
        levels = family.levels(n)
        counts.append(len(_greedy_kept_orbits(space, family_steps(space, levels),
                                              len(levels[-1][0]), R)))
    return counts


def _ladder_count(mapd: ConjugatedDoubling, x0, n, delta, R) -> int:
    """Closed-form separated count of the vertical-ladder family: final
    terms fill [-e^t - 1, e^t + 1] x {t} with t = (n-2) delta; a spacing-R
    grid on that segment is R-separated and each point is realized."""
    if not isinstance(mapd, ConjugatedDoubling):
        raise ValueError("LADDER applies only to the conjugated doubling map")
    if delta < 1.0:
        raise ValueError("the ladder family needs delta >= 1")
    if n < 2:
        raise ValueError("the ladder family needs n >= 2")
    t = (n - 2) * delta
    half = math.exp(t) + 1.0
    return 2 * int(math.floor(half / R + 1e-12)) + 1


def ladder_family(mapd: ConjugatedDoubling, n: int, delta: float,
                  spacing: float) -> List[PseudoOrbit]:
    """Materialized ladder pseudoorbits for small-scale verification."""
    t = (n - 2) * delta
    x0 = Point.of(0.0, 0.0)
    rungs = [Point.of(0.0, i * delta) for i in range(n - 1)]
    fam = []
    for x in _axis_grid(-1.0, 1.0, spacing):
        branch = Point.of(float(x), t)
        final = mapd.apply(branch, check=False)
        fam.append(PseudoOrbit((*rungs, branch, final), delta, mapd))
    return fam


def _orbit_image_counts(mapd, x0, ns, delta, R, spacing, budget) -> List[int]:
    """Greedy R-separated count of the true orbits (x0, x1, f(x1), ...,
    f^{n-1}(x1)) for x1 on the spacing grid of the delta-ball around f(x0),
    restricted to f(x0)'s chart (every row of a product), scanned in
    lattice order, at each n of ns in turn (n below 1 counts as 1); every
    orbit starts at x0, so that step is left out.

    The orbits are built once, one step at a time as far as the largest n
    so far asks, as rows mapped by ``apply_rows``; the length-n family is
    their first n steps. On coordinate spaces every orbit follows the
    chart sequence of f(x0), because ``apply_block`` sends a chart to one
    chart."""
    if not ns:  # no n builds nothing, as counting each n alone does
        return []
    space = mapd.domain
    image = mapd.apply(x0, check=False)
    rows = space.region_rows(image, delta, spacing, budget)
    rows = space.take_rows(rows, np.flatnonzero(space.row_charts(rows) == image.chart))
    m = len(space.row_charts(rows))
    if not m:
        return [0] * len(ns)
    steps, counts = [space.rows_step(rows)], []
    for n in ns:
        while len(steps) < n:
            rows = mapd.apply_rows(rows)
            steps.append(space.rows_step(rows))
        counts.append(len(_greedy_kept_orbits(space, steps[:max(n, 1)], m, R)))
    return counts


def _final_term_counts(mapd, x0, ns, delta, R, spacing, budget) -> List[int]:
    """The size of the realized final-term set at each n of ns in turn. On a
    Euclidean space each set is a grid of step R, R-separated, so every
    realized point counts, and every n is counted in one
    ``_final_term_lines`` pass; the spikes of SpineBlocks and a cone's ray
    grid are counted n by n."""
    space = mapd.domain
    if isinstance(mapd, Identity) and isinstance(space, SpineBlocks):
        return [spine_spike_count(space, n, delta, R) for n in ns]
    if _on_ray_grid(mapd):
        step = spacing if spacing is not None else R / 2.0
        return [len(_greedy_kept(_cone_final_terms(mapd, x0, n, delta, step, budget)[0], R))
                for n in ns]
    if not ns:  # no n counts nothing, as counting each n alone does
        return []
    lines, _ = _final_term_lines(mapd, x0, ns, delta, R, budget)
    return np.bincount(lines.owner, lines.hi - lines.lo, len(ns)).tolist()


def _lower_counts(mapd, x0, ns, delta, R, strategy, spacing, budget) -> List[int]:
    """The separated_lower counts of a lower strategy at each n of ns in
    turn: FULL_ENUM and ORBIT_IMAGE count every n on one family, the
    length-n family being the length-n prefixes of every longer one, and
    FINAL_TERM every n's grid in one pass. The first failure of counting
    each n alone is raised."""
    if strategy == "FULL_ENUM":
        return _full_enum_counts(mapd, x0, ns, delta, R, spacing, budget)
    if strategy == "ORBIT_IMAGE":
        counts = _orbit_image_counts(mapd, x0, ns, delta, R,
                                     spacing if spacing is not None else delta, budget)
    elif strategy == "FINAL_TERM":
        counts = _final_term_counts(mapd, x0, ns, delta, R, spacing, budget)
    elif strategy == "LADDER":
        counts = [_ladder_count(mapd, x0, n, delta, R) for n in ns]
    else:
        raise ValueError(f"strategy {strategy!r} has no lower-bound semantics")
    # x0's true orbit is in the continuum family these strategies bound
    return [max(int(c), 1) for c in counts]


def _upper_counts(mapd, x0, ns, delta, R, strategy, spacing, budget, lam) -> List[int]:
    """The spanning_upper counts of an upper strategy at each n of ns in
    turn. FULL_ENUM bounds the grid family only and equals the FULL_ENUM
    separated_lower, because it counts the same greedy net. SHADOW_HULL
    bounds the full continuum family: the side-S boxes, S = R - 2 delta/(lam
    - 1), that cover each n's ``shadow_hull``, from the row norms of A^n
    alone; its lambda and R checks, alike at every n, run once. The first
    failure of counting each n alone is raised."""
    if strategy == "FULL_ENUM":
        # a maximal R-separated set is R-spanning: the greedy net bounds both
        return _full_enum_counts(mapd, x0, ns, delta, R, spacing, budget)
    if strategy != "SHADOW_HULL":
        raise ValueError(f"strategy {strategy!r} has no upper-bound semantics")
    if not ns:  # no n counts nothing, as counting each n alone does
        return []
    lam = _hull_lambda(mapd, lam)
    S = R - 2 * delta / (lam - 1.0)
    if S <= 0:
        raise ValueError("R too small: need R > 2 delta/(lambda - 1)")
    with np.errstate(all="ignore"):  # a power past the float range fails in _box_cover
        return [_box_cover(delta / (lam - 1.0), mapd.power(n)[0], S, n) for n in ns]


def count_separated(mapd: MapDescriptor, x0: Point, n: int, R: float,
                    delta: float, strategy: str, spacing: Optional[float] = None,
                    budget: int = DEFAULT_ORBIT_BUDGET) -> CountRecord:
    """Certified lower bound on the maximal R-separated pseudoorbit count:
    ``_lower_counts`` at one n."""
    count, = _lower_counts(mapd, x0, [n], delta, R, strategy, spacing, budget)
    return CountRecord(n, delta, R, strategy, separated_lower=count)


def count_spanning(mapd: MapDescriptor, x0: Point, n: int, R: float,
                   delta: float, strategy: str, spacing: Optional[float] = None,
                   budget: int = DEFAULT_ORBIT_BUDGET,
                   lam: Optional[float] = None) -> CountRecord:
    """Upper bound on the minimal R-spanning pseudoorbit count:
    ``_upper_counts`` at one n."""
    count, = _upper_counts(mapd, x0, [n], delta, R, strategy, spacing, budget, lam)
    return CountRecord(n, delta, R, strategy, spanning_upper=count)


# ---------------------------------------------------------------------------
# growth-rate fitting and the triple-limit schedule


def fit_growth_rate(ns: Sequence[int], counts: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope of log(count) against n; residual is the RMS
    deviation of the fit."""
    if len(ns) < 3:
        raise ValueError("need at least 3 records to fit a growth rate")
    x = np.asarray(ns, dtype=float)
    y = np.log(np.maximum(np.asarray(counts, dtype=float), 1.0))
    return _fit_line(x, y)


def _fit_line(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Least-squares slope of y against x and the RMS residual of the fit."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid


def _limsup_slope(ns: Sequence[int], counts: Sequence[float]) -> Tuple[float, float]:
    """Slope estimate honoring the limsup: when the fit residual betrays
    oscillation, take the max slope over trailing windows of length >= 5."""
    slope, resid = fit_growth_rate(ns, counts)
    if resid <= OSCILLATION_RESIDUAL or len(ns) < 5:
        return slope, resid
    best = slope
    for start in range(1, len(ns) - 4):
        s, _ = fit_growth_rate(ns[start:], counts[start:])
        best = max(best, s)
    return best, resid


@dataclass
class ScheduleCell:
    delta: float
    r_values: Tuple[float, ...]
    n_values: Tuple[int, ...]
    strategy: str
    spacing: Optional[float] = None
    upper_strategy: Optional[str] = None
    lam: Optional[float] = None


@dataclass
class CellFit:
    delta: float
    R: float
    slope_lower: Optional[float]
    slope_upper: Optional[float]
    residual_lower: Optional[float]
    residual_upper: Optional[float]
    fit_window: Tuple[int, int]


@dataclass
class EntropyEstimate:
    grid: List[CellFit]
    records: List[CountRecord]
    per_delta: Dict[float, float]          # stabilized slope per delta
    per_delta_stable: Dict[float, bool]
    extrapolated_value: float               # math.inf when flagged
    infinity_flag: bool
    lower_only: bool
    errors: List[str] = field(default_factory=list)

    def to_json(self):
        return {
            "grid": [{"delta": c.delta, "R": c.R, "slope_lower": c.slope_lower,
                      "slope_upper": c.slope_upper,
                      "residual_lower": c.residual_lower,
                      "residual_upper": c.residual_upper,
                      "fit_window": list(c.fit_window)} for c in self.grid],
            "per_delta": {str(k): v for k, v in self.per_delta.items()},
            "per_delta_stable": {str(k): v for k, v in self.per_delta_stable.items()},
            "extrapolated_value": ("+INFINITY" if self.infinity_flag
                                    else self.extrapolated_value),
            "infinity_flag": self.infinity_flag,
            "lower_only": self.lower_only,
            "errors": self.errors,
        }

    def csv_lines(self) -> List[str]:
        return [CSV_HEADER] + [r.csv_row() for r in self.records]


def estimate_entropy(mapd: MapDescriptor, x0: Point,
                     schedule: Sequence[ScheduleCell],
                     budget: int = DEFAULT_ORBIT_BUDGET) -> EntropyEstimate:
    """Emulate the triple limit in its defining order: slope in n first,
    then R-stabilization within each delta, then the largest delta."""
    deltas = [c.delta for c in schedule]
    if sorted(deltas) != deltas or len(set(deltas)) != len(deltas):
        raise ValueError("schedule deltas must be strictly increasing")
    grid: List[CellFit] = []
    records: List[CountRecord] = []
    per_delta: Dict[float, float] = {}
    per_delta_stable: Dict[float, bool] = {}
    errors: List[str] = []
    lower_only = True
    for cell in schedule:
        rs, ns = list(cell.r_values), cell.n_values
        if sorted(rs) != rs or len(set(rs)) != len(rs):
            raise ValueError("R values must be strictly increasing")
        slopes: List[float] = []
        for R in rs:
            try:
                lower = _lower_counts(mapd, x0, ns, cell.delta, R, cell.strategy,
                                      cell.spacing, budget)
                if cell.upper_strategy is None:
                    upper = None
                elif cell.strategy == cell.upper_strategy == "FULL_ENUM":
                    upper = lower  # both sides count the same greedy net of the same family
                else:
                    upper = _upper_counts(mapd, x0, ns, cell.delta, R, cell.upper_strategy,
                                          cell.spacing, budget, cell.lam)
            except BudgetExceededError as exc:
                errors.append(f"delta={cell.delta} R={R}: {exc}")
                continue
            records += [CountRecord(n, cell.delta, R, cell.strategy, separated_lower=c)
                        for n, c in zip(ns, lower)]
            slope_l, resid_l = _limsup_slope(ns, lower)
            slope_u = resid_u = None
            if upper is not None:
                records += [CountRecord(n, cell.delta, R, cell.upper_strategy, spanning_upper=c)
                            for n, c in zip(ns, upper)]
                slope_u, resid_u = _limsup_slope(ns, upper)
                lower_only = False
            grid.append(CellFit(cell.delta, R, slope_l, slope_u, resid_l, resid_u,
                                (min(ns), max(ns))))
            slopes.append(slope_l)
        if not slopes:
            continue
        stabilized = slopes[-1]
        stable = len(slopes) == 1
        for i in range(len(slopes) - 1, 0, -1):
            if abs(slopes[i] - slopes[i - 1]) < STABILIZATION_TOL:
                stabilized = slopes[i]
                stable = True
                break
        per_delta[cell.delta] = stabilized
        per_delta_stable[cell.delta] = stable
    if not per_delta:
        raise BudgetExceededError("every schedule cell exceeded its budget; " +
                                  "; ".join(errors))
    infinity = False
    ds = sorted(per_delta)
    if len(ds) >= 3:
        infinity = all(per_delta[d] >= INFINITY_SLOPE_FACTOR * d for d in ds[-3:])
    extrapolated = math.inf if infinity else per_delta[ds[-1]]
    return EntropyEstimate(grid, records, per_delta, per_delta_stable,
                           extrapolated, infinity, lower_only, errors)


# ---------------------------------------------------------------------------
# products


@dataclass
class ProductCountRecord:
    """The greedy count of a product family (max metric), the greedy nets
    of its factor families as orbit indices, and the witness checks of the
    product inequalities."""
    separated_lower: int
    kept_left: np.ndarray
    kept_right: np.ndarray
    witness_separated: bool  # the product of the factor nets is R-separated
    witness_covers: bool     # every product pair is within < R of a member


def count_product(left: tuple, right: tuple, R: float,
                  budget: int = DEFAULT_ORBIT_BUDGET) -> ProductCountRecord:
    """Greedy counts for the product family (max metric) plus the factor
    counts, and the witness checks of the product of the factor nets, all
    from one ``distance < R`` matrix per factor family. Each factor family
    is ``(space, steps, m)``: m orbits given by their steps, as
    ``_greedy_kept_orbits`` takes them."""
    (space_l, steps_l, ml), (space_r, steps_r, mr) = left, right
    if not R > 0 or not ml or not mr:
        raise ValueError("need R > 0 and nonempty factor families")
    if len(steps_l) != len(steps_r):
        raise ValueError("factor families must share the orbit length")
    if ml * mr > budget:
        raise BudgetExceededError("product family exceeds budget",
                                  requested=ml * mr, budget=budget)
    near_l, near_r = _near_matrix(space_l, steps_l, ml, R), _near_matrix(space_r, steps_r, mr, R)
    # greedy nets scanned as one cell: (i, j) is closer than R to (k, l) iff each factor is
    sep = len(_push_scan(*_cell_codes([], ml * mr),
                         lambda p, q: near_l[p // mr, q // mr] & near_r[p % mr, q % mr]))
    kept_l, kept_r = (_push_scan(*_cell_codes([], len(near)), lambda p, q, near=near: near[p, q])
                      for near in (near_l, near_r))
    sep_ok, covers = _product_witness(near_l, near_r, kept_l, kept_r)
    return ProductCountRecord(sep, kept_l, kept_r, sep_ok, covers)


def _near_matrix(space: Space, steps: Sequence, m: int, R: float) -> np.ndarray:
    """Which of m orbits, given by their steps, are closer than R under the
    max over steps of ``step_distances``, as an (m, m) matrix: every pair
    i < j measured once, each orbit near itself."""
    i, j = np.triu_indices(m, 1)
    dist = np.zeros(len(i))
    for step in steps:
        dist = np.maximum(dist, space.step_distances(step, i, j))
    near = np.eye(m, dtype=bool)
    near[i, j] = near[j, i] = dist < R
    return near


def _product_witness(near_l: np.ndarray, near_r: np.ndarray, kept_left: Sequence[int],
                     kept_right: Sequence[int]) -> Tuple[bool, bool]:
    """Whether the product of the factor nets is R-separated, and whether
    every pair of factor indices is within < R of one of its members, from
    the factors' ``distance < R`` matrices. Under the max metric two pairs
    are closer than R iff each factor is."""
    ml = np.repeat(kept_left, len(kept_right))
    mr = np.tile(kept_right, len(kept_left))
    close = near_l[np.ix_(ml, ml)] & near_r[np.ix_(mr, mr)]
    np.fill_diagonal(close, False)
    # covering[x, y]: the number of members closer than R to the pair (x, y)
    covering = near_l[:, ml].astype(np.int64) @ near_r[:, mr].T.astype(np.int64)
    return not close.any(), bool(np.all(covering > 0))


# ---------------------------------------------------------------------------
# box-counting dimension


@dataclass
class DimensionEstimate:
    scales: List[Tuple[float, int]]
    fitted_dimension: float
    fit_residual: float

    def to_json(self):
        return {"scales": self.scales, "fitted_dimension": self.fitted_dimension,
                "fit_residual": self.fit_residual}


def bcd_estimate(space: Space, region_radius: float, epsilons: Sequence[float],
                 spacing_rule: Optional[Callable[[float], float]] = None,
                 center: Optional[Point] = None,
                 budget: int = DEFAULT_ORBIT_BUDGET) -> DimensionEstimate:
    """Box-counting dimension of the bounded region from a log-log
    least-squares fit of net sizes against 1/epsilon.

    At each scale epsilon the count is the size of the first-fit greedy
    epsilon-separated subset of the region's lattice (spacing
    ``spacing_rule(epsilon)``, epsilon/4 by default), scanned in
    ``region_rows`` order. That subset is maximal, hence also
    epsilon-spanning; it is not a count of occupied mesh boxes. Spaces with
    more than one chart (products, chains, the spine) raise ``ValueError``:
    their points have no single coordinate array to measure."""
    if not isinstance(space, _FlatSpace):
        raise ValueError(f"{type(space).__name__} is not a single-chart space; "
                         "its lattice has no single coordinate array")
    eps = list(epsilons)
    if sorted(eps, reverse=True) != eps:
        raise ValueError("epsilons must be decreasing")
    if spacing_rule is None:
        spacing_rule = lambda e: e / 4.0
    center = center if center is not None else space.origin()
    scales: List[Tuple[float, int]] = []
    for e in eps:
        spacing = spacing_rule(e)
        if e < 2 * spacing:
            raise ValueError("need epsilon >= 2 * spacing at every scale")
        X = space.region_rows(center, region_radius, spacing, budget)[1]
        scales.append((float(e), len(_greedy_kept(X, e))))
    x = -np.log([s[0] for s in scales])
    y = np.log([max(s[1], 1) for s in scales])
    slope, resid = _fit_line(x, y)
    return DimensionEstimate(scales, max(slope, 0.0), resid)
