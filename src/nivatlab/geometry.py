"""Exact integer geometry of finite convex subsets of Z^2.

Everything here is computed with integer (or `fractions.Fraction`) arithmetic;
no floating point enters any predicate.  An oriented line with primitive
direction (dx, dy) and integer offset c is the set {(x, y): dx*y - dy*x = c};
its closed half plane is the set of lattice points on or to the left of the
direction of travel, i.e. {g: dx*g.y - dy*g.x >= c}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import GeometryError

Point = tuple[int, int]


def padd(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def psub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def pneg(a: Point) -> Point:
    return (-a[0], -a[1])


def pscale(t: int, a: Point) -> Point:
    return (t * a[0], t * a[1])


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class Line:
    """An oriented rational line {(x, y): dx*y - dy*x = c} with primitive (dx, dy)."""

    dx: int
    dy: int
    c: int

    def __post_init__(self) -> None:
        if (self.dx, self.dy) == (0, 0):
            raise GeometryError("line direction must be nonzero")
        if gcd(abs(self.dx), abs(self.dy)) != 1:
            raise GeometryError(
                f"direction ({self.dx}, {self.dy}) is not primitive; "
                "use Line.make to normalize"
            )

    @classmethod
    def make(cls, dx: int, dy: int, c: int = 0) -> "Line":
        """Build a line from a possibly non-primitive direction, preserving orientation.

        The offset must stay integral after normalization, otherwise the line
        misses the lattice entirely.
        """
        if (dx, dy) == (0, 0):
            raise GeometryError("line direction must be nonzero")
        g = gcd(abs(dx), abs(dy))
        if c % g != 0:
            raise GeometryError(f"line ({dx}, {dy}, {c}) contains no lattice point")
        return cls(dx // g, dy // g, c // g)

    @classmethod
    def through(cls, point: Point, dx: int, dy: int) -> "Line":
        """The oriented line with direction (dx, dy) passing through a lattice point."""
        return cls.make(dx, dy, dx * point[1] - dy * point[0])

    def value(self, g: Point) -> int:
        """The linear functional dx*y - dy*x; equals c exactly on the line."""
        return self.dx * g[1] - self.dy * g[0]

    def contains(self, g: Point) -> bool:
        return self.value(g) == self.c

    def half_plane_contains(self, g: Point) -> bool:
        """Membership in H(line): the closed left side of the oriented line."""
        return self.value(g) >= self.c

    def reverse(self) -> "Line":
        return Line(-self.dx, -self.dy, -self.c)

    def minimal_vector(self) -> Point:
        """The shortest nonzero lattice vector parallel to the line, oriented with it."""
        return (self.dx, self.dy)


class Edge(NamedTuple):
    """An oriented hull edge with its lattice-point count."""

    start: Point
    end: Point
    lattice_count: int
    direction: Point  # primitive, oriented start -> end

    @property
    def line(self) -> Line:
        return Line.through(self.start, *self.direction)


class ConvexLatticeSet:
    """A finite nonempty convex subset of Z^2, equal to its hull's lattice points.

    `cells` holds the points as a sorted tuple, the order every count reads
    them in.  Vertices are listed counterclockwise starting at the
    lexicographic minimum; edges follow the positively oriented hull boundary
    and are empty for null-area sets.
    """

    __slots__ = ("points", "cells", "vertices", "edges", "_twice_area")

    def __init__(self, points: Iterable[Point], _validated: bool = False) -> None:
        pts = frozenset((int(x), int(y)) for x, y in points)
        if not pts:
            raise GeometryError("a convex lattice set must be nonempty")
        cells = tuple(sorted(pts))
        verts = _hull_vertices(cells)
        if not _validated and _hull_lattice_count(verts) != len(pts):
            missing = sorted(_hull_points(verts) - pts)[:4]
            raise GeometryError(
                f"point set is not convex: hull contains extra lattice points {missing}"
            )
        self.points: frozenset[Point] = pts
        self.cells: tuple[Point, ...] = cells
        self.vertices: tuple[Point, ...] = tuple(verts)
        self._twice_area = _twice_area(verts)
        self.edges: tuple[Edge, ...] = self._compute_edges()

    def _compute_edges(self) -> tuple[Edge, ...]:
        if self._twice_area == 0:
            return ()
        out = []
        verts = self.vertices
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            d = psub(b, a)
            g = gcd(abs(d[0]), abs(d[1]))
            out.append(Edge(a, b, g + 1, (d[0] // g, d[1] // g)))
        return tuple(out)

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.cells)

    def __contains__(self, g: Point) -> bool:
        return g in self.points

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConvexLatticeSet) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"ConvexLatticeSet({list(self.cells)})"

    def has_positive_area(self) -> bool:
        return self._twice_area > 0

    def twice_area(self) -> int:
        return self._twice_area

    def translate(self, u: Point) -> "ConvexLatticeSet":
        return ConvexLatticeSet((padd(g, u) for g in self.points), _validated=True)


def convex_hull(points: Iterable[Point]) -> ConvexLatticeSet:
    """The convex lattice set conv(points) ∩ Z^2.  Idempotent."""
    pts = list(points)
    if not pts:
        raise GeometryError("convex_hull of an empty point set")
    verts = _hull_vertices(sorted(set(pts)))
    return ConvexLatticeSet(_hull_points(verts), _validated=True)


def block(n: int, k: int) -> ConvexLatticeSet:
    """The n-by-k block {0..n-1} x {0..k-1} based at the origin."""
    if n < 1 or k < 1:
        raise GeometryError("block dimensions must be positive")
    return ConvexLatticeSet(
        ((x, y) for x in range(n) for y in range(k)), _validated=True
    )


def _hull_vertices(pts: Sequence[Point]) -> list[Point]:
    if len(pts) == 1:
        return list(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _twice_area(verts: Sequence[Point]) -> int:
    total = 0
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        total += a[0] * b[1] - b[0] * a[1]
    return total


def _hull_lattice_count(verts: Sequence[Point]) -> int:
    """Lattice points inside the hull, from the boundary alone (Pick's theorem)."""
    if len(verts) == 1:
        return 1
    if len(verts) == 2:
        d = psub(verts[1], verts[0])
        return gcd(abs(d[0]), abs(d[1])) + 1
    boundary = 0
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        boundary += gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))
    return (_twice_area(verts) + boundary) // 2 + 1


def _is_convex(points: Iterable[Point]) -> bool:
    """Whether the nonempty distinct points are all the lattice points of their hull (Pick's theorem)."""
    pts = sorted(points)
    return _hull_lattice_count(_hull_vertices(pts)) == len(pts)


def _hull_points(verts: Sequence[Point]) -> frozenset[Point]:
    """Every lattice point of the hull of the vertices."""
    if len(verts) == 1:
        return frozenset(verts)
    if len(verts) == 2:
        a, b = verts
        d = psub(b, a)
        g = gcd(abs(d[0]), abs(d[1]))
        step = (d[0] // g, d[1] // g)
        return frozenset(padd(a, pscale(t, step)) for t in range(g + 1))
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    out = []
    n = len(verts)
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if all(_cross(verts[i], verts[(i + 1) % n], p) >= 0 for i in range(n)):
                out.append(p)
    return frozenset(out)


# -- vertex oracle ----------------------------------------------------------


def is_vertex(s: ConvexLatticeSet, g: Point) -> bool:
    """Whether removing g leaves a convex set (the defining property of a vertex)."""
    if g not in s.points:
        raise GeometryError(f"{g} is not a point of the set")
    rest = s.points - {g}
    return not rest or _is_convex(rest)


# -- quasi-regularity -------------------------------------------------------


class QuasiRegularityReport(NamedTuple):
    quasi_regular: bool
    pairing: tuple[tuple[int, int], ...]  # edge-index pairs, each listed once
    violating_edge: Edge | None


def is_quasi_regular(s: ConvexLatticeSet) -> QuasiRegularityReport:
    """Every edge must have an antiparallel edge with the same lattice count.

    Only defined for positive-area sets.
    """
    if not s.has_positive_area():
        raise GeometryError("quasi-regularity is only defined for positive-area sets")
    pairing = []
    seen = set()
    for i, e in enumerate(s.edges):
        partner = None
        for j, f in enumerate(s.edges):
            if f.direction == pneg(e.direction) and f.lattice_count == e.lattice_count:
                partner = j
                break
        if partner is None:
            return QuasiRegularityReport(False, (), e)
        if (partner, i) not in seen:
            seen.add((i, partner))
            pairing.append((i, partner))
    return QuasiRegularityReport(True, tuple(pairing), None)


# -- supporting lines -------------------------------------------------------


def supporting_line(s: Iterable[Point], line: Line) -> Line:
    """The line parallel to `line` touching the points with all of them inside its half plane."""
    return Line(line.dx, line.dy, min(map(line.value, s)))


def line_section(s: Iterable[Point], line: Line) -> frozenset[Point]:
    """The points of s lying on the line."""
    return frozenset(g for g in s if line.contains(g))


def diameter_along(s: Iterable[Point], line: Line) -> int:
    """Number of distinct lines parallel to `line` meeting the point set."""
    return len({line.value(g) for g in s})


# -- axes of symmetry -------------------------------------------------------


@dataclass(frozen=True)
class AxisOfSymmetry:
    """A segment joining matched endpoints of an antiparallel edge pair.

    It splits the set into two halves of equal cardinality that overlap
    exactly on the axis.
    """

    endpoints: tuple[Point, Point]
    half_a: ConvexLatticeSet
    half_b: ConvexLatticeSet

    def carrier(self) -> Line:
        a, b = self.endpoints
        return Line.through(a, b[0] - a[0], b[1] - a[1])


def axes_of_symmetry(s: ConvexLatticeSet) -> list[AxisOfSymmetry]:
    """All axes of a quasi-regular set, pairing initial with initial endpoints.

    That endpoint pairing is the one under which the two halves have equal
    cardinality; the construction asserts it.
    """
    report = is_quasi_regular(s)
    if not report.quasi_regular:
        raise GeometryError("axes of symmetry require a quasi-regular set")
    segments: set[tuple[Point, Point]] = set()
    for i, j in report.pairing:
        e, f = s.edges[i], s.edges[j]
        for a, b in ((e.start, f.start), (e.end, f.end)):
            segments.add((a, b) if a <= b else (b, a))
    axes = []
    for a, b in sorted(segments):
        carrier = Line.through(a, b[0] - a[0], b[1] - a[1])
        side_a = [g for g in s.points if carrier.value(g) >= carrier.c]
        side_b = [g for g in s.points if carrier.value(g) <= carrier.c]
        if len(side_a) != len(side_b):
            raise GeometryError(
                f"axis {(a, b)} does not split the set evenly "
                f"({len(side_a)} vs {len(side_b)})"
            )
        axes.append(
            AxisOfSymmetry(
                (a, b),
                ConvexLatticeSet(side_a, _validated=True),
                ConvexLatticeSet(side_b, _validated=True),
            )
        )
    return axes


def axis_intersection(a: AxisOfSymmetry, b: AxisOfSymmetry) -> tuple[Fraction, Fraction] | None:
    """The intersection point of two axis carriers, if unique."""
    la, lb = a.carrier(), b.carrier()
    det = la.dx * lb.dy - lb.dx * la.dy
    if det == 0:
        return None
    # Solve dx*y - dy*x = c for both lines.
    x = Fraction(la.c * lb.dx - lb.c * la.dx, det)
    y = Fraction(la.c * lb.dy - lb.c * la.dy, det)
    return (x, y)


# -- strips -----------------------------------------------------------------


def strip_points(line: Line, t: Fraction | int, anchor: Point = (0, 0)) -> Callable[[Point], bool]:
    """Membership predicate of the strip of width t around the line through anchor.

    Distance is Euclidean; the comparison is done on squared exact rationals.
    """
    t = Fraction(t)
    if t <= 0:
        raise GeometryError("strip width must be positive")
    norm_sq = line.dx * line.dx + line.dy * line.dy
    c = line.c
    t_sq_scaled = t * t * norm_sq

    def member(g: Point) -> bool:
        v = line.value(psub(g, anchor)) - c
        return v * v <= t_sq_scaled

    return member
