"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's enumeration and greedy code paths:
the orbit oracle is an iterative breadth-first product construction, the
separated/spanning oracles solve the exact combinatorial problems (maximum
clique in the >= R graph, minimum covering via integer programming), and
``_hashed_greedy`` is the pure-Python cell-hash scan that the vectorized
``entropy._greedy_kept`` must reproduce index for index.
"""

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

import networkx as nx
from scipy.optimize import LinearConstraint, milp


def brute_force_pseudoorbits(mapd, x0, n, delta, spacing, budget=1_000_000):
    """All grid delta-pseudoorbits of length n from x0, built breadth-first."""
    space = mapd.domain
    layers = [[(x0,)]]
    for _ in range(n):
        nxt = []
        for prefix in layers[-1]:
            image = mapd.apply(prefix[-1], check=False)
            for succ in space.lattice_region(image, delta, spacing, budget):
                nxt.append(prefix + (succ,))
                if len(nxt) > budget:
                    raise RuntimeError("oracle budget exceeded")
        layers.append(nxt)
    return layers[-1]


def max_separated_exact(items, R, dist):
    """Exact maximum cardinality of an R-separated subset."""
    g = nx.Graph()
    g.add_nodes_from(range(len(items)))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if dist(items[i], items[j]) >= R:
                g.add_edge(i, j)
    clique, _ = nx.max_weight_clique(g, weight=None)
    return len(clique)


def min_spanning_exact(items, R, dist):
    """Exact minimum cardinality of a subset covering every item within < R."""
    m = len(items)
    cover = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if dist(items[i], items[j]) < R:
                cover[i, j] = 1.0
    res = milp(c=np.ones(m),
               constraints=LinearConstraint(cover, lb=np.ones(m)),
               integrality=np.ones(m), bounds=(0, 1))
    assert res.success
    return int(round(res.fun))


def _cell_key(coords: Tuple[float, ...], cell: float) -> Tuple[int, ...]:
    return tuple(int(math.floor(c / cell)) for c in coords)


def _hashed_greedy(coords: Sequence[Tuple[float, ...]], R: float) -> List[int]:
    """Greedy scan for Euclidean point clouds with a cell hash (cell size R:
    any pair closer than R shares or neighbors a cell). Returns kept indices."""
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    kept: List[int] = []
    if not coords:
        return kept
    dim = len(coords[0])
    offsets = [()]
    for _ in range(dim):
        offsets = [o + (d,) for o in offsets for d in (-1, 0, 1)]
    r2 = R * R
    for i, p in enumerate(coords):
        key = _cell_key(p, R)
        ok = True
        for off in offsets:
            nb = tuple(k + d for k, d in zip(key, off))
            for j in buckets.get(nb, ()):
                q = coords[j]
                if sum((a - b) ** 2 for a, b in zip(p, q)) < r2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            buckets.setdefault(key, []).append(i)
    return kept
