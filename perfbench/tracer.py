"""Per-layer tracing from outside the program.

`Tracer.install()` wraps chordlab's public functions after import.  Because
modules use `from .x import y`, every chordlab module attribute (and every
value of a module-level dict, such as the statistics table in
`enumeration`) that refers to an original function is rebound to its
wrapper; `ChordDiagram` methods are replaced on the class.  Each wrapper
adds its call and its self time (its span minus its child spans) to a
per-function total, so the millions of leaf spans are never stored.  Full
spans are kept only for the top-level operations and for each check.
"""

from __future__ import annotations

import sys
import time

# metric prefix -> (module, attribute); a dotted attribute is a method
TRACED = [
    ("diagram.construct", "diagram", "ChordDiagram.__init__"),
    ("diagram.adjacency", "diagram", "ChordDiagram.adjacency"),
    ("diagram.components", "diagram", "ChordDiagram.components"),
    ("diagram.subdiagram", "diagram", "ChordDiagram.subdiagram"),
    ("diagram.right_neighbors", "diagram", "ChordDiagram.right_neighbors"),
    *(("enumeration." + f, "enumeration", f) for f in (
        "count_class", "census", "class_census", "tcf_refined", "pattern_free_count")),
    *(("structure." + f, "structure", f) for f in (
        "intersection_order", "terminal_labels", "t1", "terminality", "is_k_terminal",
        "vertex_connectivity", "source_sink_groups", "traced_subdiagram")),
    *(("patterns." + f, "patterns", f) for f in (
        "in_class", "cycle_profile", "contains_pattern")),
    *(("bijections." + f, "bijections", f) for f in (
        "psi", "chi", "alpha", "beta", "zeta", "zeta_inverse", "theta", "theta_inverse",
        "eta", "eta_inverse", "root_share_decompose", "root_share_compose")),
    ("triangulation.omega", "triangulation", "omega"),
    ("triangulation.gamma", "triangulation", "gamma"),
    ("series.solve_tree_like", "series", "solve_tree_like"),
    ("series.diagram_series", "series", "diagram_series"),
    ("conjectures.standard_reports", "conjectures", "standard_reports"),
]
# wrapped for self-time accounting; only self_s is reported
FRAMES = [("cli.main", "cli", "main"), ("checks.run_check", "checks", "run_check")]
GENERATOR = ("enumeration.all_pairs", "enumeration", "all_pairs")
CACHE_MODULES = ("chordlab.enumeration", "chordlab.checks")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.stack: list[float] = []  # child seconds of each open frame
        self.pattern_hits = 0
        self.spans: list[dict] = []
        self.open_span: int | None = None
        self.caches: list = []

    # -- installation

    def install(self) -> "Tracer":
        import chordlab.cli  # noqa: F401  (imports every module to be wrapped)

        self.caches = self._lru_functions()
        for name, mod, attr in TRACED + FRAMES:
            self._replace(mod, attr, self._wrap(name, self._resolve(mod, attr)))
        name, mod, attr = GENERATOR
        self._replace(mod, attr, self._wrap_generator(name, self._resolve(mod, attr)))
        return self

    @staticmethod
    def _resolve(mod: str, attr: str):
        obj = sys.modules["chordlab." + mod]
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    @staticmethod
    def _lru_functions() -> list:
        seen = {}
        for modname in CACHE_MODULES:
            for value in vars(sys.modules[modname]).values():
                if hasattr(value, "cache_info") and value.__module__ in CACHE_MODULES:
                    seen[id(value)] = value
        return list(seen.values())

    @staticmethod
    def _replace(mod: str, attr: str, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            setattr(getattr(sys.modules["chordlab." + mod], cls_name), meth, wrapper)
            return
        original = wrapper.__wrapped__
        for name, module in list(sys.modules.items()):
            if not (name == "chordlab" or name.startswith("chordlab.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper

    # -- wrappers

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        is_pattern = name == "patterns.contains_pattern"
        is_check = name == "checks.run_check"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if is_check:
                    self.spans.append({"name": "check:" + args[0], "start": t0, "end": t1,
                                       "parent": self.open_span})
            if is_pattern and result:
                self.pattern_hits += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    stats[1] += clock() - t0
                    return
                elapsed = clock() - t0
                stats[0] += 1
                stats[1] += elapsed
                if stack:
                    stack[-1] += elapsed
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- top-level spans

    def begin(self, name: str) -> None:
        self.open_span = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": None})

    def end(self) -> None:
        self.spans[self.open_span]["end"] = time.perf_counter()
        self.open_span = None

    # -- results

    def metrics(self, check_ids) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, _ in TRACED:
            calls, self_s = self.stats[name]
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        diagrams, self_s = self.stats[GENERATOR[0]]
        out[GENERATOR[0] + ".diagrams"] = diagrams
        out[GENERATOR[0] + ".self_s"] = self_s
        for name, _, _ in FRAMES:
            out[name + ".self_s"] = self.stats[name][1]
        calls = self.stats["patterns.contains_pattern"][0]
        out["patterns.contains_pattern.hit_ratio"] = self.pattern_hits / calls if calls else 0.0
        infos = [f.cache_info() for f in self.caches]
        out["enumeration.sweep_cache.hits"] = sum(i.hits for i in infos)
        out["enumeration.sweep_cache.misses"] = sum(i.misses for i in infos)
        per_check = {cid: 0.0 for cid in check_ids}
        for span in self.spans:
            if span["name"].startswith("check:"):
                cid = span["name"][len("check:"):]
                per_check[cid] = per_check.get(cid, 0.0) + span["end"] - span["start"]
        for cid in check_ids:
            out["checks.%s.s" % cid] = per_check[cid]
        return out
