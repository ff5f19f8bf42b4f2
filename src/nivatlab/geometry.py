"""Exact integer geometry of finite convex subsets of Z^2.

Everything here is computed with integer (or `fractions.Fraction`) arithmetic;
no floating point enters any predicate.  An oriented line with primitive
direction (dx, dy) and integer offset c is the set {(x, y): dx*y - dy*x = c};
its closed half plane is the set of lattice points on or to the left of the
direction of travel, i.e. {g: dx*g.y - dy*g.x >= c}.

No constructor rescans points it already has.  `ConvexLatticeSet(points)`
sorts its points once and runs Andrew's monotone chain over them; Pick's
theorem then checks convexity from the vertices alone.  `convex_hull` fills
each column between its lowest and highest lattice point, read off the edges
by an integer ceil and floor, so it costs its width times its edges plus its
points, not its bounding box.  `block` knows its corners and `translate`
shifts the cells and vertices it has; neither sorts nor runs the chain.
Every constructor ends in one step that sets all the slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    def __init__(self, points: Iterable[Point]) -> None:
        pts = frozenset((int(x), int(y)) for x, y in points)
        if not pts:
            raise GeometryError("a convex lattice set must be nonempty")
        cells = tuple(sorted(pts))
        verts = _hull_vertices(cells)
        if _hull_lattice_count(verts) != len(pts):
            missing = [g for g in _hull_points(verts) if g not in pts][:4]
            raise GeometryError(
                f"point set is not convex: hull contains extra lattice points {missing}"
            )
        self._fill(pts, cells, verts)

    def _fill(
        self, points: frozenset[Point], cells: tuple[Point, ...], vertices: Sequence[Point]
    ) -> "ConvexLatticeSet":
        """Set every slot from the sorted cells and the hull vertices.

        Every constructor ends here, so the slots are always set in the same
        order.
        """
        twice_area = _twice_area(vertices)
        edges = _edges(vertices) if twice_area else ()
        self.points: frozenset[Point] = points
        self.cells: tuple[Point, ...] = cells
        self.vertices: tuple[Point, ...] = tuple(vertices)
        self._twice_area = twice_area
        self.edges: tuple[Edge, ...] = edges
        return self

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
        """The set moved by u; a translation keeps the cell order and moves the vertices."""
        ux, uy = u
        cells = tuple([(x + ux, y + uy) for x, y in self.cells])
        return _new()._fill(frozenset(cells), cells, [padd(v, u) for v in self.vertices])


def _new() -> ConvexLatticeSet:
    """An instance with no slot set yet, for a constructor that fills it from what it knows."""
    return ConvexLatticeSet.__new__(ConvexLatticeSet)


def convex_hull(points: Iterable[Point]) -> ConvexLatticeSet:
    """The convex lattice set conv(points) ∩ Z^2.  Idempotent."""
    pts = list(points)
    if not pts:
        raise GeometryError("convex_hull of an empty point set")
    verts = _hull_vertices(sorted(set(pts)))
    cells = _hull_points(verts)
    return _new()._fill(frozenset(cells), cells, verts)


def block(n: int, k: int) -> ConvexLatticeSet:
    """The n-by-k block {0..n-1} x {0..k-1} based at the origin."""
    if n < 1 or k < 1:
        raise GeometryError("block dimensions must be positive")
    cells = tuple(product(range(n), range(k)))
    corners = dict.fromkeys([(0, 0), (n - 1, 0), (n - 1, k - 1), (0, k - 1)])  # a thin block repeats some
    return _new()._fill(frozenset(cells), cells, list(corners))


def _hull_vertices(pts: Sequence[Point]) -> list[Point]:
    """The strict hull vertices of distinct x-major sorted points, counterclockwise
    from the least (Andrew's monotone chain).
    """
    if len(pts) == 1:
        return list(pts)
    return _chain(pts)[:-1] + _chain(reversed(pts))[:-1]


def _chain(pts: Iterable[Point]) -> list[Point]:
    """The points that turn strictly left, walking pts in order (one half of the chain)."""
    out: list[Point] = []
    for p in pts:
        while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
            out.pop()
        out.append(p)
    return out


def _edges(verts: Sequence[Point]) -> tuple[Edge, ...]:
    """The edges of a positive-area hull, from each vertex to the next."""
    out = []
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        d = psub(b, a)
        g = gcd(abs(d[0]), abs(d[1]))
        out.append(Edge(a, b, g + 1, (d[0] // g, d[1] // g)))
    return tuple(out)


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


def _hull_points(verts: Sequence[Point]) -> tuple[Point, ...]:
    """Every lattice point of the hull of the vertices, sorted.

    Column x holds the y with every edge's cross product nonnegative: one
    range, from the greatest integer ceil of the lower edges' bounds to the
    least integer floor of the upper edges' bounds.
    """
    if len(verts) == 1:
        return tuple(verts)
    if len(verts) == 2:
        a, b = verts
        d = psub(b, a)
        g = gcd(abs(d[0]), abs(d[1]))
        step = (d[0] // g, d[1] // g)
        return tuple(padd(a, pscale(t, step)) for t in range(g + 1))
    # (x0, y0, dx, dy) of each edge: on its left dx * y >= dy * (x - x0) + dx * y0.
    # One running right (dx > 0) bounds y from below, one running left from
    # above, and a vertical one bounds x only.
    edges = [(a[0], a[1], b[0] - a[0], b[1] - a[1]) for a, b in zip(verts, verts[1:] + verts[:1])]
    rising = [e for e in edges if e[2] > 0]
    falling = [e for e in edges if e[2] < 0]
    xs = [v[0] for v in verts]
    out = []
    for x in range(min(xs), max(xs) + 1):
        lo = max([-((dy * (x0 - x) - dx * y0) // dx) for x0, y0, dx, dy in rising])
        hi = min([(dy * (x - x0) + dx * y0) // dx for x0, y0, dx, dy in falling])
        out.extend([(x, y) for y in range(lo, hi + 1)])
    return tuple(out)


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
                ConvexLatticeSet(side_a),
                ConvexLatticeSet(side_b),
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
