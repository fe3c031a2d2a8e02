"""Per-layer tracing from outside the library.

The tracer wraps the layers' public callables for the length of a traced
run and removes the wrappers afterwards; the library itself is not changed.
Every call through a wrapper records one span (id, name, start, end, parent
span, operation id) in memory. Self time is a span's duration minus the time
its child spans cover. A layer is named after its module; a method target
such as ``spaces.distance`` wraps that method on every class that defines it.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

MARK = "__perfbench_span__"


def _length(args, kwargs, out):
    return len(out)


def _greedy_sizes(args, kwargs, out):
    return (len(args[0] if args else kwargs["items"]), len(out))


def _final_term_grid(lib, a: dict) -> Optional[int]:
    """Size of the candidate grid a FINAL_TERM count scans, for the counts
    that scan one: the ray grid of a cone and the bounding-box grid of a
    linear map on R^q, q >= 2. It mirrors the library's grids, so it must
    follow them if they change. Closed-form counts return None."""
    mapd, space = a["mapd"], a["mapd"].domain
    n, delta, R = a["n"], a["delta"], a["R"]
    if (isinstance(mapd, lib.maps.Homothety) and isinstance(space, lib.spaces.Cone)
            and space.base.kind != "full_sphere"):
        step = a["spacing"] if a["spacing"] is not None else R / 2.0
        per_ray = math.floor(mapd.lam ** (n - 1) * delta / step + 1e-12) + 1
        rays = len(space.base.base_angles())
        return rays * per_ray - (rays - 1)  # the origin is shared by all rays
    if isinstance(mapd, lib.maps.Linear) and len(mapd.matrix) >= 2:
        np = lib.np
        m = mapd.mat()
        fwd = np.linalg.matrix_power(m, n - 1)
        center = fwd @ (m @ np.asarray(a["x0"].coords))
        half = delta * np.linalg.norm(fwd, axis=1) + 1e-12
        total = 1
        for c, h in zip(center, half):
            total *= max(math.floor((c + h) / R + 1e-12)
                         - math.ceil((c - h) / R - 1e-12) + 1, 1)
        return total
    return None


class _Lib:
    """The library's modules, imported from the package under test."""

    def __init__(self, package):
        import numpy
        self.np = numpy
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        self.spaces, self.maps = by_name["spaces"], by_name["maps"]
        self.by_name = by_name


def _count_separated_sizes(lib):
    signature = inspect.signature(lib.by_name["entropy"].count_separated)

    def measure(args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        grid = _final_term_grid(lib, a) if a["strategy"] == "FINAL_TERM" else None
        return (out.separated_lower, grid)
    return measure


# (layer name, owning base class for a method or None for a function,
#  measure of each call's output, or None)
def targets(lib) -> List[Tuple[str, Optional[str], Optional[Callable]]]:
    return [
        ("spaces.lattice_region", "Space", _length),
        ("spaces.distance", "Space", None),
        ("maps.apply", "MapDescriptor", None),
        ("maps.verify_control", None, None),
        ("orbits.enumerate_pseudoorbits", None, _length),
        ("orbits.orbit_distance", None, None),
        ("orbits.shadow_hull", None, None),
        ("entropy.estimate_entropy", None, None),
        ("entropy.count_separated", None, _count_separated_sizes(lib)),
        ("entropy.count_spanning", None, None),
        ("entropy.count_product", None, None),
        ("entropy.greedy_separated", None, _greedy_sizes),
        ("entropy.greedy_spanning", None, _greedy_sizes),
        ("entropy.fit_growth_rate", None, None),
        ("entropy.bcd_estimate", None, None),
        ("coarse.closeness_defect", None, None),
        ("coarse.check_density", None, None),
        ("coarse.check_embedding", None, None),
        ("presets.run_config", None, None),
    ]


def _sites(lib, name: str, base: Optional[str]) -> List[Tuple[object, str, object]]:
    """Every (owner, attribute, original) a target is reachable through.
    Raises LookupError if the target is gone, so a rename cannot silently
    empty a layer."""
    mod_name, attr = name.split(".")
    module = lib.by_name.get(mod_name)
    if module is None:
        raise LookupError(f"traced module {mod_name!r} no longer exists")
    sites = []
    if base is not None:
        root = getattr(module, base, None)
        if not isinstance(root, type) or attr not in vars(root):
            raise LookupError(f"traced method {base}.{attr} no longer exists")
        for m in lib.modules:
            for cls in vars(m).values():
                if (isinstance(cls, type) and issubclass(cls, root)
                        and cls.__module__ == m.__name__ and attr in vars(cls)):
                    sites.append((cls, attr, vars(cls)[attr]))
        return sites
    fn = vars(module).get(attr)
    if not callable(fn):
        raise LookupError(f"traced function {name} no longer exists")
    # the defining module and every module that imported the name
    for m in lib.modules:
        if vars(m).get(attr) is fn:
            sites.append((m, attr, fn))
    return sites


def installed_wrappers(package) -> List[str]:
    """Names of tracing wrappers currently reachable in the package."""
    found = []
    for m in _Lib(package).modules:
        for key, obj in vars(m).items():
            if hasattr(obj, MARK):
                found.append(f"{m.__name__}.{key}")
            if isinstance(obj, type) and obj.__module__ == m.__name__:
                found += [f"{m.__name__}.{key}.{k}" for k, v in vars(obj).items()
                          if hasattr(v, MARK)]
    return found


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, package, budget_error: type):
        self.lib = _Lib(package)
        self.budget_error = budget_error
        self.spans: List[tuple] = []  # (id, name, start, end, parent, op, budget_error, size)
        self.stack: List[int] = []
        self.op = ""
        self._next_id = 0
        self._sites = []
        self.names = []
        for name, base, measure in targets(self.lib):
            self.names.append(name)
            self._sites += [(owner, attr, orig, name, measure)
                            for owner, attr, orig in _sites(self.lib, name, base)]

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        budget_error = self.budget_error

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.op,
                              isinstance(exc, budget_error), None))
                raise
            t1 = clock()
            stack.pop()
            size = measure(args, kwargs, out) if measure is not None else None
            spans.append((sid, name, t0, t1, parent, self.op, False, size))
            return out

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        wrappers = {}
        try:
            for owner, attr, orig, name, measure in self._sites:
                if id(orig) not in wrappers:
                    wrappers[id(orig)] = self._wrap(name, orig, measure)
                setattr(owner, attr, wrappers[id(orig)])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for owner, attr, orig, _, _ in self._sites:
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        """True when every wrapped site holds its original object again."""
        return all(vars(owner)[attr] is orig
                   for owner, attr, orig, _, _ in self._sites)

    def reset(self):
        self.spans.clear()
        self.stack.clear()


def layer_metrics(spans: List[tuple], names: List[str]) -> Dict[str, float]:
    """Per-layer counts and self times from one traced repetition."""
    child = defaultdict(float)
    info = {}
    for sid, name, t0, t1, parent, _, _, _ in spans:
        info[sid] = (name, parent)
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s, errors = defaultdict(int), defaultdict(float), defaultdict(int)
    sizes = defaultdict(list)

    def nearest(sid, wanted):
        sid = info[sid][1]
        while sid >= 0:
            if info[sid][0] == wanted:
                return sid
            sid = info[sid][1]
        return None

    under_count = defaultdict(lambda: {"orbits": 0, "points": 0})
    bcd_points = 0
    for sid, name, t0, t1, parent, _, err, size in spans:
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[sid]
        errors[name] += err
        if size is not None:
            sizes[name].append((sid, size))
        if size is not None and name in ("spaces.lattice_region",
                                         "orbits.enumerate_pseudoorbits"):
            counter = nearest(sid, "entropy.count_separated")
            if counter is not None:
                key = "points" if name == "spaces.lattice_region" else "orbits"
                under_count[counter][key] += size
            if name == "spaces.lattice_region" and nearest(sid, "entropy.bcd_estimate") is not None:
                bcd_points += size

    out: Dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.errors"] = errors[name]
    out["spaces.lattice_region.points"] = sum(s for _, s in sizes["spaces.lattice_region"])
    out["orbits.enumerate_pseudoorbits.orbits"] = sum(
        s for _, s in sizes["orbits.enumerate_pseudoorbits"])
    out["entropy.bcd_estimate.points"] = bcd_points

    # kept over the candidates each count chose from: its enumerated family,
    # else its lattice points, else the FINAL_TERM grid it scanned
    kept = chosen_from = 0
    kept_all = 0
    for sid, (k, grid) in sizes["entropy.count_separated"]:
        kept_all += k
        below = under_count.get(sid, {"orbits": 0, "points": 0})
        cand = below["orbits"] or below["points"] or grid
        if cand:
            kept += k
            chosen_from += cand
    out["entropy.count_separated.kept"] = kept_all
    out["entropy.count_separated.kept_per_point"] = kept / chosen_from if chosen_from else 0.0
    for g in ("entropy.greedy_separated", "entropy.greedy_spanning"):
        items = sum(s[0] for _, s in sizes[g])
        k = sum(s[1] for _, s in sizes[g])
        out[f"{g}.items"] = items
        out[f"{g}.kept"] = k
        out[f"{g}.keep_ratio"] = k / items if items else 0.0
    return out


def write_spans(path, spans: List[tuple]) -> None:
    """One CSV row per span: id, name, start, end, parent, op, budget error."""
    with open(path, "w") as fh:
        fh.write("id,name,start,end,parent,op,budget_error\n")
        for sid, name, t0, t1, parent, op, err, _ in spans:
            fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{op},{int(err)}\n")
