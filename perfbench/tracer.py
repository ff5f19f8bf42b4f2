"""Spans and counters recorded from outside the library.

`Tracer.install` replaces each traced function with a wrapper at every module
namespace that binds it (for example `complexity` in `complexity`, `words`,
`structure`, `verifier`, `cli` and the package itself), and wraps
`Configuration` methods and `ConvexLatticeSet.__init__` at the class level.
A span is (name, start, end, parent); spans are kept in flat arrays in memory
and written out once, after the pass.  `uninstall` restores every original.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("geometry", "configurations", "complexity", "words", "structure", "verifier", "cli")

# Module-level functions that get a span, by layer.  The names are looked up
# in the layer's own module.
SPANNED = {
    "geometry": ("convex_hull", "block", "is_quasi_regular", "axes_of_symmetry",
                 "supporting_line", "line_section"),
    "complexity": ("complexity", "language_report", "complexity_table",
                   "directional_language", "extension_counts"),
    "words": ("detect_periods_2d", "strip_word", "word_complexity", "mh_check"),
    "structure": ("is_generated", "find_generating_set", "find_directional_generating_set",
                  "find_mlc_set", "audit_mlc_inequality", "remark_i_instance",
                  "lemma_thickness_audit", "directional_point_sets", "thickness_ok",
                  "construct_balanced_set", "m_classes", "phi", "verify_strip_lemma",
                  "expansive_witness"),
    "verifier": ("nivat_check", "example_suite"),
    "cli": ("cli_main",),
}

# Configuration methods that get a span (the rest are counted only).
DOMAIN_METHODS = ("enumeration_domain", "directional_translates")

PER_LAYER = (
    ("geometry.calls", "count", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("geometry.rejected_ratio", "ratio", "lower"),
    ("configurations.domain_calls", "count", "lower"),
    ("configurations.domain_translates", "count", "lower"),
    ("configurations.domain_s", "s", "lower"),
    ("configurations.letter_lookups", "count", "lower"),
    ("configurations.is_period_calls", "count", "lower"),
    ("complexity.calls", "count", "lower"),
    ("complexity.self_s", "s", "lower"),
    ("complexity.cells_x_translates", "count", "lower"),
    ("complexity.distinct_ratio", "ratio", "higher"),
    ("words.calls", "count", "lower"),
    ("words.self_s", "s", "lower"),
    ("structure.calls", "count", "lower"),
    ("structure.self_s", "s", "lower"),
    ("structure.subsets_examined", "count", "lower"),
    ("structure.directional_language_calls", "count", "lower"),
    ("structure.recount_ratio", "ratio", "lower"),
    ("verifier.calls", "count", "lower"),
    ("verifier.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Work counts that must repeat exactly between two traced passes of one seed.
WORK_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B"))


class Tracer:
    def __init__(self, lib) -> None:
        """`lib` maps a layer name (and "package") to the imported module."""
        self.lib = lib
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._domain_len: Counter = Counter()
        self._structure_depth = 0
        self._counted_sets: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, qualname: str, layer: str, fn, after=None, rejected=None, structure=False):
        nid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            if structure:
                tracer._structure_depth += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if structure:
                    tracer._structure_depth -= 1
                if rejected is not None and isinstance(exc, rejected):
                    tracer.counts["geometry.rejected"] += 1
                raise
            end[idx] = perf_counter()
            stack.pop()
            if structure:
                tracer._structure_depth -= 1
            if after is not None:
                after(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    # -- hooks -------------------------------------------------------------------

    def _after_domain(self, idx, args, result) -> None:
        n = len(result)
        self.counts["configurations.domain_translates"] += n
        p = self.parent[idx]
        if p >= 0 and self.layer_of[self.name[p]] == "complexity":
            self._domain_len[p] += n

    def _after_complexity(self, idx, args, result) -> None:
        fname = self.names[self.name[idx]]
        translates = self._domain_len.pop(idx, 0)
        if fname == "complexity.complexity_table":
            return
        cells = len(args[1])
        if fname == "complexity.complexity":
            distinct = result.count
        elif fname == "complexity.language_report":
            distinct = len(result[0])
        elif fname == "complexity.directional_language":
            distinct = len(result)
        else:  # extension_counts
            distinct = sum(len(v) for v in result.extensions.values())
        self.counts["complexity.cells_x_translates"] += cells * translates
        self.counts["complexity.translates"] += translates
        self.counts["complexity.distinct"] += distinct
        if self._structure_depth:
            if fname == "complexity.directional_language":
                self.counts["structure.directional_language_calls"] += 1
            elif fname == "complexity.complexity":
                self.counts["structure.complexity_calls"] += 1
                self._counted_sets.add((id(args[0]), frozenset(args[1])))

    def _after_structure(self, idx, args, result) -> None:
        examined = getattr(result, "subsets_examined", None)
        if examined is None:
            examined = getattr(result, "sets_examined", 0)
        self.counts["structure.subsets_examined"] += examined

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in self.lib.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        lib = self.lib
        hooks = {"complexity": self._after_complexity, "structure": self._after_structure}
        for layer, fnames in SPANNED.items():
            for fname in fnames:
                original = getattr(lib[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", layer, original, after=hooks.get(layer),
                                     structure=layer == "structure")
                self._patch_everywhere(original, wrapper)
        geometry_error = lib["errors"].GeometryError
        cls = lib["geometry"].ConvexLatticeSet
        self._patch(cls, "__init__", self._wrap("geometry.ConvexLatticeSet", "geometry",
                                                cls.__init__, rejected=geometry_error))
        base = lib["configurations"].Configuration
        for sub in base.__subclasses__():
            for method in DOMAIN_METHODS:
                if method in vars(sub):
                    self._patch(sub, method, self._wrap(
                        f"configurations.{sub.__name__}.{method}", "configurations",
                        vars(sub)[method], after=self._after_domain))
            if "letter_at" in vars(sub):
                self._patch(sub, "letter_at", self._counted(
                    "configurations.letter_lookups", vars(sub)["letter_at"]))
            if "is_period" in vars(sub):
                self._patch(sub, "is_period", self._counted(
                    "configurations.is_period_calls", vars(sub)["is_period"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Span count and self time per layer; self time excludes child spans."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layer_of, name = self.layer_of, self.name
        for i in range(n):
            layer = layer_of[name[i]]
            calls[layer] += 1
            self_s[layer] += end[i] - start[i] - child[i]
        return calls, self_s

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        calls, self_s = self.layer_totals()
        c = self.counts
        out = {}
        for layer in LAYERS:
            if layer == "configurations":
                out["configurations.domain_calls"] = calls[layer]
                out["configurations.domain_s"] = self_s[layer]
            else:
                out[f"{layer}.calls"] = calls[layer]
                out[f"{layer}.self_s"] = self_s[layer]
        out["geometry.rejected_ratio"] = _ratio(c["geometry.rejected"], self._count_named("geometry.ConvexLatticeSet"))
        for key in ("configurations.domain_translates", "configurations.letter_lookups",
                    "configurations.is_period_calls", "complexity.cells_x_translates",
                    "structure.subsets_examined", "structure.directional_language_calls",
                    "cli.bytes_out"):
            out[key] = c[key]
        out["complexity.distinct_ratio"] = _ratio(c["complexity.distinct"], c["complexity.translates"])
        out["structure.recount_ratio"] = _ratio(c["structure.complexity_calls"], len(self._counted_sets))
        out["trace.overhead_ratio"] = traced_wall / untraced_wall
        return out

    def _count_named(self, qualname: str) -> int:
        nid = self.names.index(qualname)
        return sum(1 for v in self.name if v == nid)

    def write(self, path) -> None:
        """The recorded spans as gzipped JSON columns: names, name, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            }, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
