"""Structural analysis: generated points, generating-set searches, balanced
sets with their constructive certificate, extension-based quantities, the
strip periodicity harness, and one-sided expansiveness witnesses.

Orbit-closure quantifiers are approximated by translate classes from the
certified enumeration domain; every report produced that way is tagged with
scope "empirical".

Those classes are taken per orbit, not per translate.  The "all"-range
directional language of a shape at base u depends only on u + Zv modulo the
certified periods: sliding the base by s*v reindexes the steps, and a period
changes no letter.  `Configuration.orbit_class(u, v)` labels that orbit, so
`m_classes` builds the base language and the induced alphabet once per label
and skips a translate whose label it has met.  A doubly periodic body
certifies its whole period lattice P, so its labels are the classes of
P + Zv, which can be coarser than those of its basis lattice.  Bodies without
certified periods label each translate by itself and keep one language per
translate.

Each search counts convex subsets of one root shape: the start shape of the
generating-set, mlc and balanced-set searches, or the radius box of the
witness search.  Its `complexity._Counter` reads the root's keys over the
root's exact domain once and counts every subset as the number of distinct
projections of those keys; languages are closed under restriction, so that
is the subset's complexity.  The balanced-set search lends its counter to the
directional search on its cut.  The witness search builds a
`ConvexLatticeSet` only for the witness it returns.

The convex subsets of a radius box depend on neither the body nor the line,
so `_box_level(radius, size)` caches them with `functools.cache` for the life
of the process: the sorted cell tuples of one size, with the hull vertices
of each set counterclockwise from the least, whose chains and Pick's theorem
grow the next size when a search first reaches it.  A search that stops at
size L builds nothing past L.  Two threads that first ask for one level
together can at worst build it twice, with equal results, so no lock is
needed.  Measured with tracemalloc, the cache holds about 0.07 MB after the
radius-1 and early radius-2 searches of the benchmark (which re-imports the
library, and so empties the cache, before every pass) and 7.6 MB once a
radius-2 search has run to the end.  A search that finds no witness still
grows every level, to count its sets, but on an EXACT body it scans only the
levels it needs: see `expansive_witness`.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Callable, Iterable

from .complexity import _Counter, _require_exact, complexity, directional_language, extension_counts
from .configurations import Configuration, Exactness, Pattern, as_points
from .errors import (
    ConstructionError,
    GeometryError,
    HypothesisNotMet,
    InexactDataError,
)
from .geometry import (
    ConvexLatticeSet,
    Line,
    Point,
    _hull_vertices,
    _is_convex,
    axes_of_symmetry,
    axis_intersection,
    is_quasi_regular,
    line_section,
    supporting_line,
)
from .words import smallest_window_period, strip_word


def _vertices_of(points: frozenset[Point]) -> tuple[Point, ...]:
    return tuple(_hull_vertices(sorted(points)))


def is_generated(config: Configuration, shape: ConvexLatticeSet | Iterable[Point], g: Point) -> bool:
    """Whether removing g from the shape leaves the pattern count unchanged."""
    pts = frozenset(as_points(shape))
    if g not in pts:
        raise ValueError(f"{g} is not a point of the shape")
    return _generated(_Counter(config, pts), pts, g)


def _generated(counter: _Counter, pts: frozenset[Point], g: Point) -> bool:
    return counter.count(pts) == counter.count(pts - {g})


# -- generating-set search ----------------------------------------------------


class GeneratingKind(enum.Enum):
    GENERATING = "generating"
    DIRECTIONAL = "directional"
    MLC = "mlc"


@dataclass(frozen=True)
class VertexCertificate:
    point: Point
    count_with: int
    count_without: int

    @property
    def generated(self) -> bool:
        return self.count_with == self.count_without


@dataclass(frozen=True)
class BoundInstance:
    count: int
    size: int
    bound: Fraction

    @property
    def satisfied(self) -> bool:
        return self.count <= self.bound

    def __str__(self) -> str:
        rel = "<=" if self.satisfied else ">"
        return f"P = {self.count} {rel} {self.bound} (|S| = {self.size})"


@dataclass(frozen=True)
class GeneratingSetResult:
    set: ConvexLatticeSet
    kind: GeneratingKind
    certificates: tuple[VertexCertificate, ...]
    bound_check: BoundInstance
    line: Line | None = None
    remark_i: tuple[int, int] | None = None  # (complexity drop, allowed bound)
    half_plane_line: Line | None = None
    peeling_trace: tuple[tuple[int, int], ...] = ()  # (size, count) per stage
    subsets_examined: int = 0


@dataclass(frozen=True)
class _Bound:
    """A search's bound (size + shift) / scale on the count of a set of `size`
    points.  Searches test it in integers; the `Fraction` is built only for a
    report or a message."""

    shift: int
    scale: int
    label: str

    def holds(self, count: int, size: int) -> bool:
        return self.scale * count <= size + self.shift

    def value(self, size: int) -> Fraction:
        return Fraction(size + self.shift, self.scale)


def _generating_bound(alphabet_size: int) -> _Bound:
    return _Bound(alphabet_size - 2, 1, "|U|+|A|-2")


def _mlc_bound(alphabet_size: int) -> _Bound:
    return _Bound(2 * alphabet_size - 2, 2, "|U|/2+|A|-1")


def _minimal_qualifying(
    start: frozenset[Point],
    qualifies: Callable[[frozenset[Point]], bool],
) -> tuple[frozenset[Point], int]:
    """Descend to an inclusion-minimal qualifying convex subset of `start`.

    Children are single hull-vertex removals explored in lexicographic order;
    the chain chosen is the lexicographically first at each depth, so the
    result is deterministic.  Returns the set and the number of subsets
    examined.
    """
    seen: set[frozenset[Point]] = set()

    def first_qualifying_below(s: frozenset[Point]) -> frozenset[Point] | None:
        for g in sorted(_vertices_of(s)):
            child = s - {g}
            if not child or child in seen:
                continue
            seen.add(child)
            if qualifies(child):
                return child
            deeper = first_qualifying_below(child)
            if deeper is not None:
                return deeper
        return None

    current = start
    while True:
        nxt = first_qualifying_below(current)
        if nxt is None:
            return current, len(seen)
        current = nxt


def _vertex_certificates(
    counter: _Counter,
    points: frozenset[Point],
    step: str,
    message: str,
    only: Iterable[Point] | None = None,
) -> tuple[VertexCertificate, ...]:
    """Certificates for the vertices (or `only` these points); raises
    ConstructionError(step, message.format(point)) on one that is not generated."""
    verts = _vertices_of(points) if only is None else tuple(sorted(only))
    total = counter.count(points)
    certs = tuple(
        VertexCertificate(g, total, counter.count(points - {g})) for g in sorted(verts)
    )
    for c in certs:
        if not c.generated:
            raise ConstructionError(step, message.format(c.point))
    return certs


def _require_bound(counter: _Counter, points: frozenset[Point], bound: _Bound) -> None:
    """Raise HypothesisNotMet when the count of `points` exceeds the bound."""
    count = counter.count(points)
    if not bound.holds(count, len(points)):
        raise HypothesisNotMet(f"P = {count} exceeds {bound.label} = {bound.value(len(points))}")


def _minimal_generating_set(
    config: Configuration,
    shape: ConvexLatticeSet,
    kind: GeneratingKind,
    bound_of: Callable[[int], _Bound],
    step: str,
    message: str,
) -> GeneratingSetResult:
    """The inclusion-minimal convex subset within the bound, its vertices certified."""
    start = frozenset(shape.points)
    counter = _Counter(config, shape)
    bound = bound_of(len(config.alphabet))
    _require_bound(counter, start, bound)
    minimal, examined = _minimal_qualifying(start, lambda s: bound.holds(counter.count(s), len(s)))
    certs = _vertex_certificates(counter, minimal, step, message)
    return GeneratingSetResult(
        ConvexLatticeSet(minimal),
        kind,
        certs,
        BoundInstance(counter.count(minimal), len(minimal), bound.value(len(minimal))),
        subsets_examined=examined,
    )


def find_generating_set(config: Configuration, shape: ConvexLatticeSet) -> GeneratingSetResult:
    """An inclusion-minimal convex subset meeting the linear complexity bound.

    All its vertices are generated; that is asserted, not assumed.
    """
    return _minimal_generating_set(
        config, shape, GeneratingKind.GENERATING, _generating_bound,
        "generating-set-minimality", "vertex {} of a minimal set is not generated",
    )


def find_directional_generating_set(
    config: Configuration, shape: ConvexLatticeSet, line: Line
) -> GeneratingSetResult:
    """Peel supporting lines off the shape, then minimize over the last good stage.

    Stages S_1 = U, S_{i+1} = S_i minus its supporting line; I is the last
    stage meeting the linear bound.  The result S is the smallest convex set
    between S_{I+1} and S_I meeting the bound; its vertices on the supporting
    line are generated, the complexity drop obeys the section-size bound, and
    S minus its supporting line is the shape cut by a half plane.
    """
    start = frozenset(shape.points)
    return _directional_generating_set(_Counter(config, shape), start, line)


def _directional_generating_set(
    counter: _Counter, start: frozenset[Point], line: Line
) -> GeneratingSetResult:
    """`find_directional_generating_set` on `start`, counting with a counter whose root holds it."""
    bound = _generating_bound(len(counter.config.alphabet))
    _require_bound(counter, start, bound)
    # Peeling S_i's supporting section leaves the points of S_i above its least
    # line value, so the stages are the upper level sets of the line's functional.
    stages = [frozenset(g for g in start if line.value(g) >= c)
              for c in sorted({line.value(g) for g in start})]
    trace = tuple((len(s), counter.count(s)) for s in stages)
    big_i = max(i for i, (size, count) in enumerate(trace) if bound.holds(count, size))
    s_i = stages[big_i]
    s_next = (stages[big_i + 1:] or [frozenset()])[0]
    v = line.minimal_vector()
    top = sorted(s_i - s_next, key=lambda g: g[0] * v[0] + g[1] * v[1])
    chosen: frozenset[Point] | None = None
    examined = 0
    for length in range(1, len(top) + 1):
        for start_idx in range(0, len(top) - length + 1):
            cand = s_next | set(top[start_idx : start_idx + length])
            if not _is_convex(cand):
                continue
            examined += 1
            if bound.holds(counter.count(frozenset(cand)), len(cand)):
                chosen = frozenset(cand)
                break
        if chosen is not None:
            break
    assert chosen is not None  # the full stage S_I always qualifies
    result_set = ConvexLatticeSet(chosen)
    sup_s = supporting_line(result_set, line)
    section = line_section(chosen, sup_s)
    certs = _vertex_certificates(
        counter, chosen, "directional-minimality", "supporting-line vertex {} is not generated",
        only=[g for g in result_set.vertices if g in section],
    )
    remark_i = None
    half_plane_line = None
    rest = chosen - section
    if rest:
        drop = counter.count(chosen) - counter.count(rest)
        allowed = len(section) - 1
        if drop > allowed:
            raise ConstructionError(
                "directional-drop-bound",
                f"complexity drop {drop} exceeds |section|-1 = {allowed}",
            )
        remark_i = (drop, allowed)
        half_plane_line = Line(line.dx, line.dy, min(line.value(g) for g in rest))
        expected = frozenset(g for g in start if line.value(g) >= half_plane_line.c)
        if expected != rest:
            raise ConstructionError(
                "directional-half-plane",
                "peeled remainder is not the shape cut by a half plane",
            )
    return GeneratingSetResult(
        result_set,
        GeneratingKind.DIRECTIONAL,
        certs,
        BoundInstance(counter.count(chosen), len(chosen), bound.value(len(chosen))),
        line=line,
        remark_i=remark_i,
        half_plane_line=half_plane_line,
        peeling_trace=trace,
        subsets_examined=examined,
    )


def find_mlc_set(config: Configuration, shape: ConvexLatticeSet) -> GeneratingSetResult:
    """An inclusion-minimal convex subset meeting the half-cardinality bound.

    The search is exhaustive over vertex-removal chains, so no proper convex
    subset of the result meets the bound; the result is a generating set.
    """
    return _minimal_generating_set(
        config, shape, GeneratingKind.MLC, _mlc_bound,
        "mlc-minimality", "vertex {} of an mlc set is not generated",
    )


@dataclass(frozen=True)
class SubsetAudit:
    removed: tuple[Point, ...]
    drop: int
    allowed: int

    @property
    def ok(self) -> bool:
        return self.drop <= self.allowed


def audit_mlc_inequality(config: Configuration, result: GeneratingSetResult) -> tuple[SubsetAudit, ...]:
    """Check the half-difference inequality on every maximal proper convex subset.

    For a subset obtained by removing R, the complexity drop must be at most
    ceil(|R|/2) - 1; maximal proper convex subsets are single vertex removals.
    """
    pts = frozenset(result.set.points)
    counter = _Counter(config, pts)
    total = counter.count(pts)
    audits = []
    for g in sorted(result.set.vertices):
        child = pts - {g}
        if not child:
            continue
        drop = total - counter.count(child)
        # The bound ceil(|R|/2) - 1 for the removed set R = {g}: (1 + 1) // 2 - 1 = 0.
        audits.append(SubsetAudit((g,), drop, 0))
    return tuple(audits)


def remark_i_instance(
    config: Configuration, result: GeneratingSetResult, line: Line
) -> tuple[int, int] | None:
    """The (complexity drop, section bound) pair for a set against a direction.

    None when the whole set lies on its supporting line; the inequality is
    only stated for a nonempty remainder.
    """
    pts = frozenset(result.set.points)
    counter = _Counter(config, pts)
    section = line_section(pts, supporting_line(result.set, line))
    rest = pts - section
    if not rest:
        return None
    drop = counter.count(pts) - counter.count(rest)
    return drop, len(section) - 1


@dataclass(frozen=True)
class MlcAudit:
    applicable: bool
    reason: str
    section_size: int | None = None
    holds: bool | None = None


def lemma_thickness_audit(
    result: GeneratingSetResult, line: Line, aperiodic_certified: bool
) -> MlcAudit:
    """For mlc sets on certified-aperiodic data with a nonexpansive candidate
    direction, the supporting section must have at least three points."""
    if result.kind is not GeneratingKind.MLC:
        return MlcAudit(False, "not an mlc result")
    if not aperiodic_certified:
        return MlcAudit(False, "configuration is not certified aperiodic")
    if not result.set.has_positive_area():
        return MlcAudit(False, "mlc set has a null-area hull")
    size = len(line_section(result.set, supporting_line(result.set, line)))
    return MlcAudit(True, "checked", size, size >= 3)


# -- directional point sets ---------------------------------------------------


@dataclass(frozen=True)
class DirectionalPointSets:
    """Initial and final points of the sufficiently thick parallel sections."""

    line: Line
    p: int
    initials: tuple[Point, ...]
    finals: tuple[Point, ...]
    qualifying_lines: tuple[tuple[int, int], ...]  # (offset c, section size)



def directional_point_sets(shape: ConvexLatticeSet, line: Line, p: int) -> DirectionalPointSets:
    """Initial/final points of sections parallel to the line with at least p points.

    The supporting section itself is excluded; a shape on one line parallel to
    `line` has no other sections, so its point sets are empty.
    """
    if p < 1:
        raise ValueError("p must be positive")
    v = line.minimal_vector()
    groups: dict[int, list[Point]] = {}
    for g in shape:
        groups.setdefault(line.value(g), []).append(g)
    initials, finals, qualifying = [], [], []
    for c in sorted(groups)[1:]:  # the least value is the supporting line
        if len(groups[c]) < p:
            continue
        row = sorted(groups[c], key=lambda g: g[0] * v[0] + g[1] * v[1])
        initials.append(row[0])
        finals.append(row[-1])
        qualifying.append((c, len(row)))
    return DirectionalPointSets(line, p, tuple(initials), tuple(finals), tuple(qualifying))


def thickness_ok(shape: ConvexLatticeSet, line: Line, p: int) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Condition: every lattice line parallel to `line`, other than the
    supporting one, that meets the hull must carry at least p shape points."""
    counts = Counter(line.value(g) for g in shape)
    witness = tuple((c, counts[c]) for c in range(min(counts) + 1, max(counts) + 1))
    return all(size >= p for _, size in witness), witness


# -- empirical orbit classes ---------------------------------------------------


@dataclass(frozen=True)
class MClass:
    """A translate class whose directional base patterns all extend ambiguously."""

    translate: Point
    base_language: frozenset[Pattern]
    induced_alphabet: frozenset[Pattern]
    exactness: Exactness

    @property
    def alphabet_size(self) -> int:
        return len(self.induced_alphabet)


def m_classes(
    config: Configuration, shape: ConvexLatticeSet, line: Line, p: int
) -> tuple[tuple[MClass, ...], int]:
    """Empirical translate classes where every directional base pattern has
    multiple extensions, together with the complexity increment of the shape.

    Scope is empirical: translates stand in for orbit-closure configurations.
    Both languages of a class are "all"-range directional languages, which
    are equal at translates with equal `config.orbit_class(u, v)`, so each
    orbit is read once; a skipped translate would give the key of a class
    already kept or filtered out.  Each class is represented by its first
    translate in domain order.
    """
    support = supporting_line(shape, line)
    section = line_section(shape, support)
    base_cells = tuple(sorted(shape.points - section))
    # The increment P(shape) - P(base) is the table's excess, which
    # extension_counts has checked against its own count of the base.
    if base_cells:
        table = extension_counts(config, shape, line)
        diff, n_of = table.excess(), table.counts()
    else:
        count = complexity(config, shape).count
        diff, n_of = count - 1, {Pattern(()): count}
    _require_exact(config.exactness)
    isets = directional_point_sets(shape, line, p)
    v = line.minimal_vector()
    orbits: set = set()
    out: list[MClass] = []
    seen: set[tuple[frozenset[Pattern], frozenset[Pattern]]] = set()
    for u in config.enumeration_domain(shape.points):
        orbit = config.orbit_class(u, v)
        if orbit in orbits:
            continue
        orbits.add(orbit)
        if base_cells:
            langs = directional_language(config, base_cells, line, base=u).patterns
        else:
            langs = frozenset([Pattern(())])
        if not all(n_of.get(g, 0) > 1 for g in langs):
            continue
        if isets.initials:
            alpha = directional_language(config, isets.initials, line, base=u).patterns
        else:
            alpha = frozenset([Pattern(())])
        key = (langs, alpha)
        if key in seen:
            continue
        seen.add(key)
        out.append(MClass(u, langs, alpha, config.exactness))
    return tuple(out), diff


def _smallest_px(
    config: Configuration, shape: ConvexLatticeSet, line: Line, p: int, x: MClass, diff: int
) -> tuple[int, int] | None:
    """Smallest p_x <= p with diff <= p_x + |A^{l,p_x}| - 2, with its alphabet size.

    x is a class of m_classes(config, shape, line, p): its induced alphabet is
    the one at p_x = p, and each smaller p_x reads the class's orbit once.
    """
    for px in range(1, p + 1):
        if px == p:
            size = x.alphabet_size
        else:
            iset = directional_point_sets(shape, line, px).initials
            size = len(directional_language(config, iset, line, base=x.translate)) if iset else 1
        if diff <= px + size - 2:
            return px, size
    return None


@dataclass(frozen=True)
class PhiReport:
    value: int
    case: str  # "complexity_difference" or "max_alphabet_form"
    diff: int
    classes: tuple[MClass, ...]
    scope: str = "empirical"


def phi(config: Configuration, shape: ConvexLatticeSet, line: Line, p: int) -> PhiReport:
    """The strip-extension budget of a balanced set.

    Equal to the complexity increment when no empirical class induces a
    nontrivial alphabet; otherwise the maximum of p_x + |A^{l,p_x}| - 2 over
    classes, with p_x minimal per class.  p = 0 (expansive-direction
    degenerate certificates) is accepted only when no class exists; with a
    class it raises HypothesisNotMet, and the operation makes no claim.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p == 0:
        classes, diff = m_classes(config, shape, line, 1)
        if classes:
            raise HypothesisNotMet("p = 0 but ambiguous-extension classes exist")
        return PhiReport(diff, "complexity_difference", diff, ())
    classes, diff = m_classes(config, shape, line, p)
    rich = [x for x in classes if x.alphabet_size > 1]
    if not rich:
        return PhiReport(diff, "complexity_difference", diff, classes)
    best = None
    for x in rich:
        found = _smallest_px(config, shape, line, p, x, diff)
        if found is None:
            raise HypothesisNotMet(
                f"shape is not balanced for this line at p = {p}: the class at "
                f"{x.translate} admits no p_x within the alphabetical bound"
            )
        px, size = found
        val = px + size - 2
        best = val if best is None else max(best, val)
    return PhiReport(best, "max_alphabet_form", diff, classes)


# -- balanced sets --------------------------------------------------------------


@dataclass(frozen=True)
class BalancedSetCertificate:
    set: ConvexLatticeSet
    line: Line
    p: int
    support_section: tuple[Point, ...]
    antiparallel_section: tuple[Point, ...]
    condition_i: tuple[tuple[int, int], ...]  # per-line (offset, section size)
    condition_ii: tuple[tuple[Point, int, int], ...]  # (class translate, p_x, |A|)
    drop: int
    drop_bound: int
    half_plane_cut: tuple[Point, ...]  # the intermediate set T
    generating: GeneratingSetResult
    nonexpansive_regime: bool
    scope: str = "empirical"


def construct_balanced_set(
    config: Configuration,
    shape: ConvexLatticeSet,
    line: Line,
    witness_absent: bool = True,
) -> BalancedSetCertificate:
    """Run the constructive balanced-set procedure and certify every step.

    From a quasi-regular shape within the half-cardinality complexity bound:
    intersect two symmetry axes, take the antiparallel supporting cut through
    the crossed edge pair, verify the cut meets the linear bound, peel to a
    directional generating set, and check both balance conditions.  Any failed
    inequality raises with the step's name.

    witness_absent records whether a one-sided expansiveness witness search
    came up empty; with a witness present the direction is expansive and the
    supporting section may degenerate to a single point (p = 0), which the
    certificate flags instead of hiding.
    """
    report = is_quasi_regular(shape)
    if not report.quasi_regular:
        raise GeometryError(
            f"balanced-set construction needs a quasi-regular shape; edge "
            f"{report.violating_edge} has no matching antiparallel edge"
        )
    counter = _Counter(config, shape)
    a = len(config.alphabet)
    _require_bound(counter, frozenset(shape.points), _mlc_bound(a))

    axes = axes_of_symmetry(shape)
    meets = (axis_intersection(p, q) for i, p in enumerate(axes) for q in axes[i + 1:])
    z = next((m for m in meets if m is not None), None)
    if z is None:
        raise ConstructionError("axis-intersection", "no two axes meet in a point")

    # Oriented edge pair crossed by the line through z parallel to `line`.
    pair = None
    for i, j in report.pairing:
        e, f = shape.edges[i], shape.edges[j]
        if _segment_meets_level(e, line, z) and _segment_meets_level(f, line, z):
            pair = (e, f)
            break
    if pair is None:
        raise ConstructionError(
            "crossed-edges", "the level line through the axis center crosses no antiparallel pair"
        )
    e, f = pair

    # Maximal antiparallel half plane whose boundary still meets both edges.
    hi = min(
        max(line.value(e.start), line.value(e.end)),
        max(line.value(f.start), line.value(f.end)),
    )
    anti = Line(-line.dx, -line.dy, -hi)  # H(anti) = {value <= hi}
    cut = frozenset(g for g in shape.points if line.value(g) <= hi)
    if 2 * len(cut) < len(shape) + 2:  # |T| < |S|/2 + 1
        raise ConstructionError(
            "half-count", f"cut keeps {len(cut)} points, needs more than half of {len(shape)}"
        )
    cut_count = counter.count(cut)
    if cut_count > len(cut) + a - 2:
        raise ConstructionError(
            "cut-linear-bound", f"P(T) = {cut_count} exceeds |T|+|A|-2 = {len(cut) + a - 2}"
        )

    def step_failed(step: str, message: str):
        # Inside the claimed nonexpansive regime every remaining inequality is
        # guaranteed, so a miss is a soundness event; outside it (a witness was
        # found, or the caller made no claim) a miss is an expected no-claim.
        if witness_absent:
            raise ConstructionError(step, message)
        raise HypothesisNotMet(f"{step}: {message} (direction outside the nonexpansive regime)")

    gen = _directional_generating_set(counter, cut, line)
    s = gen.set
    sup = supporting_line(s, line)
    section = tuple(sorted(line_section(s, sup)))
    anti_sup = supporting_line(s, line.reverse())
    anti_section = tuple(sorted(line_section(s, anti_sup)))
    if anti_sup != anti:
        step_failed(
            "antiparallel-support",
            f"the peeled set's antiparallel supporting line {anti_sup} is not the cut line {anti}",
        )
    if len(section) > len(anti_section):
        step_failed(
            "condition-i",
            f"supporting section has {len(section)} points, antiparallel one {len(anti_section)}",
        )
    rest = frozenset(s.points) - set(section)
    drop = counter.count(frozenset(s.points)) - counter.count(rest)
    drop_bound = len(section) - 1
    if drop > drop_bound:
        step_failed(
            "condition-ii", f"complexity drop {drop} exceeds |section|-1 = {drop_bound}"
        )

    p = len(section) - 1
    nonexpansive_regime = witness_absent and p >= 1
    cond_i: tuple[tuple[int, int], ...] = ()
    cond_ii: list[tuple[Point, int, int]] = []
    if p >= 1:
        ok, witness = thickness_ok(s, line, p)
        cond_i = witness
        if not ok:
            step_failed(
                "balance-thickness", f"some parallel section carries fewer than p = {p} points"
            )
        classes, diff = m_classes(config, s, line, p)
        for x in classes:
            if x.alphabet_size <= 1:
                continue
            found = _smallest_px(config, s, line, p, x, diff)
            if found is None:
                step_failed(
                    "balance-alphabet-bound",
                    f"class at {x.translate} admits no p_x <= {p}",
                )
            cond_ii.append((x.translate, found[0], found[1]))
    return BalancedSetCertificate(
        s,
        line,
        p,
        section,
        anti_section,
        cond_i,
        tuple(cond_ii),
        drop,
        drop_bound,
        tuple(sorted(cut)),
        gen,
        nonexpansive_regime,
    )


def _segment_meets_level(edge, line: Line, z: tuple[Fraction, Fraction]) -> bool:
    """Whether the closed edge crosses the line parallel to `line` through z."""
    level = line.dx * z[1] - line.dy * z[0]
    va, vb = line.value(edge.start), line.value(edge.end)
    return min(va, vb) <= level <= max(va, vb)


# -- strip lemma harness ---------------------------------------------------------


class StripLemmaStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StripClassOutcome:
    translate: Point
    bound: int
    period: int | None
    status: str  # "pass", "fail", "skipped_hypothesis", "inconclusive"


@dataclass(frozen=True)
class StripLemmaReport:
    status: StripLemmaStatus
    outcomes: tuple[StripClassOutcome, ...]
    vacuous: bool
    data_exact: bool
    scope: str = "empirical"


def verify_strip_lemma(
    config: Configuration, shape: ConvexLatticeSet, line: Line, p: int, window: int
) -> StripLemmaReport:
    """Check that thick-strip restrictions of ambiguous-extension classes are periodic.

    For each empirical class, when the complexity increment is at most
    p + |A^{l,p}| - 2, the strip word must show a period within that bound on
    the examined window; a miss is a FAIL (the classes are exact, so it would
    contradict a theorem), while windows shorter than three bounds are
    inconclusive.  Lower-bound data is INCONCLUSIVE with no outcomes.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    try:
        gen_section = line_section(shape, supporting_line(shape, line))
        pts = frozenset(shape.points)
        counter = _Counter(config, shape)
        for g in sorted(gen_section):
            if g in shape.vertices and not _generated(counter, pts, g):
                raise HypothesisNotMet(
                    f"supporting-line vertex {g} is not generated; the shape is "
                    "not directional-generating for this line"
                )
        if p == 0:
            classes, _ = m_classes(config, shape, line, 1)
            if not classes:
                return StripLemmaReport(StripLemmaStatus.PASS, (), vacuous=True, data_exact=True)
            return StripLemmaReport(
                StripLemmaStatus.INCONCLUSIVE,
                tuple(StripClassOutcome(x.translate, 0, None, "inconclusive") for x in classes),
                vacuous=False,
                data_exact=True,
            )
        classes, diff = m_classes(config, shape, line, p)
    except InexactDataError:
        # Lower-bound data can neither verify nor refute the lemma.
        return StripLemmaReport(StripLemmaStatus.INCONCLUSIVE, (), vacuous=False, data_exact=False)
    isets = directional_point_sets(shape, line, p)
    outcomes = []
    for x in classes:
        bound = p + x.alphabet_size - 2
        if diff > bound:
            outcomes.append(StripClassOutcome(x.translate, bound, None, "skipped_hypothesis"))
            continue
        if 2 * window + 1 < 3 * bound:
            outcomes.append(StripClassOutcome(x.translate, bound, None, "inconclusive"))
            continue
        if not isets.initials:
            outcomes.append(StripClassOutcome(x.translate, bound, 0, "pass"))
            continue
        word = strip_word(config, line, isets.initials, range(-window, window + 1), base=x.translate)
        period = smallest_window_period(word.letters, bound)
        if period is not None:
            outcomes.append(StripClassOutcome(x.translate, bound, period, "pass"))
        else:
            outcomes.append(StripClassOutcome(x.translate, bound, None, "fail"))
    if any(o.status == "fail" for o in outcomes):
        status = StripLemmaStatus.FAIL
    elif any(o.status == "inconclusive" for o in outcomes):
        status = StripLemmaStatus.INCONCLUSIVE
    else:
        status = StripLemmaStatus.PASS
    return StripLemmaReport(status, tuple(outcomes), vacuous=not classes, data_exact=True)


# -- expansiveness witnesses -------------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    found: bool
    witness: ConvexLatticeSet | None
    point: Point | None
    sets_examined: int
    radius: int


@cache
def _box_level(radius: int, size: int) -> tuple[list[tuple[Point, ...]], list[tuple[Point, ...]]]:
    """The convex subsets of size `size` of the box [-r, r]^2, as sorted cell
    tuples in sorted order, and the hull vertices of each, counterclockwise
    from the least: `convex_hull(cells).vertices`.

    The lexicographic maximum m of a convex lattice set is a hull vertex, so
    growing sets only by points above their maximum enumerates every convex
    subset exactly once, and children of sorted parents come out sorted.
    Such a point g is the new maximum, so it extends both chains of the hull
    at m's end: the lower chain (the vertices from the least to m) and the
    upper chain (from the least to m the other way round), each after the
    monotone chain step pops the vertices g hides.  For a convex set C, twice
    the hull's area plus its boundary lattice count is 2|C| - 2 (Pick's
    theorem), so C + g is convex exactly when the two new edges raise that sum
    by 2 over the edges they replace.
    """
    if size == 1:
        box = [((x, y),) for x in range(-radius, radius + 1) for y in range(-radius, radius + 1)]
        return box, box
    box = [g for (g,) in _box_level(radius, 1)[0]]
    above = {g: box[i + 1:] for i, g in enumerate(box)}
    cells_out, hulls_out = [], []
    for cells, verts in zip(*_box_level(radius, size - 1)):
        m = cells[-1]
        i = verts.index(m)
        lower = verts[:i + 1]
        upper = verts[:1] + verts[:i - 1:-1] if i else verts
        for g in above[m]:
            gx, gy = g
            # Each edge's share of twice the area plus the boundary count:
            # a x b + gcd(b - a) for the edge a -> b.
            gain = 0
            k = len(lower)
            while k > 1:
                (ax, ay), (bx, by) = lower[k - 2], lower[k - 1]
                if (bx - ax) * (gy - ay) - (by - ay) * (gx - ax) > 0:
                    break
                gain -= ax * by - ay * bx + gcd(bx - ax, by - ay)
                k -= 1
            j = len(upper)
            while j > 1:
                (ax, ay), (bx, by) = upper[j - 2], upper[j - 1]
                if (bx - ax) * (gy - ay) - (by - ay) * (gx - ax) < 0:
                    break
                gain -= bx * ay - by * ax + gcd(bx - ax, by - ay)
                j -= 1
            (ax, ay), (bx, by) = lower[k - 1], upper[j - 1]
            gain += ax * gy - ay * gx + gcd(gx - ax, gy - ay) + gx * by - gy * bx + gcd(bx - gx, by - gy)
            if gain == 2:
                cells_out.append((*cells, g))
                hulls_out.append((*lower[:k], g, *upper[j - 1:0:-1]))
    return cells_out, hulls_out


def expansive_witness(config: Configuration, line: Line, radius: int) -> WitnessReport:
    """Search for a finite one-sided expansiveness certificate.

    A convex set whose supporting section for the line is a single generated
    point certifies one-sided expansiveness.  Sets within the radius box are
    scanned in size order; absence of a witness proves nothing.

    On an EXACT body a point generated in T is generated in every T' that
    holds T: two T'-patterns that agree off g restrict to T-patterns that
    agree off g, so they agree at g too.  Every set whose lone lowest point
    is g0 lies in U(g0) = {g0} + {g in the box : value(g) > value(g0)}, so g0
    is tested once, in U(g0), when the first such set comes up.  A set whose
    g0 fails is examined but not counted, and once every point below the
    box's top value has failed, each remaining level adds its length
    unscanned.  On any other body the first count refuses, on the first set
    with a lone lowest point.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    box = [g for (g,) in _box_level(radius, 1)[0]]
    value = {g: line.value(g) for g in box}
    counter = _Counter(config, box)
    exact = config.exactness is Exactness.EXACT
    top = max(value.values())
    below = sum(v < top for v in value.values())  # the points that can be a lone lowest point
    tested: dict[Point, bool] = {}  # g0 -> whether g0 is generated in U(g0)
    examined = 0
    size = 2
    while level := _box_level(radius, size)[0]:
        size += 1
        if exact and len(tested) == below and not any(tested.values()):
            examined += len(level)  # no set left can witness
            continue
        for cells in level:
            examined += 1
            values = [value[g] for g in cells]
            low = min(values)
            if values.count(low) != 1:
                continue
            g0 = cells[values.index(low)]
            if exact:
                if g0 not in tested:
                    tested[g0] = _generated(counter, frozenset(g for g in box if value[g] > low) | {g0}, g0)
                if not tested[g0]:
                    continue
            s = frozenset(cells)
            if counter.count(s) == counter.count(s - {g0}):
                return WitnessReport(
                    True, ConvexLatticeSet(s), g0, examined, radius
                )
    return WitnessReport(False, None, None, examined, radius)
