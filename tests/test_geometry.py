from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nivatlab.configurations import as_points
from nivatlab.errors import GeometryError
from nivatlab.geometry import (
    ConvexLatticeSet,
    Line,
    axes_of_symmetry,
    axis_intersection,
    block,
    convex_hull,
    diameter_along,
    is_quasi_regular,
    is_vertex,
    line_section,
    strip_points,
    supporting_line,
)

from conftest import convex_subsets_of_box

points_strategy = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=8
)


def _shapes_from_every_constructor(pts, n, k, u):
    """block, convex_hull, translate, validated and unvalidated ConvexLatticeSet,
    and both halves of every axis of symmetry."""
    hull = convex_hull(pts)
    shapes = [block(n, k), hull, hull.translate(u), block(n, k).translate(u),
              ConvexLatticeSet(list(hull.points)), ConvexLatticeSet(reversed(list(hull)), _validated=True)]
    for s in (block(n, k), hull):
        if s.has_positive_area() and is_quasi_regular(s).quasi_regular:
            shapes += [half for axis in axes_of_symmetry(s) for half in (axis.half_a, axis.half_b)]
    return shapes


class TestSortedCells:
    """`cells` is the sorted point tuple, and what reads it is unchanged."""

    @given(points_strategy, st.integers(1, 5), st.integers(1, 5),
           st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    @settings(max_examples=150, deadline=None)
    def test_cells_sorted_on_every_constructor(self, pts, n, k, u):
        for s in _shapes_from_every_constructor(pts, n, k, u):
            assert s.cells == tuple(sorted(s.points))
            assert list(s) == sorted(s.points)
            assert repr(s) == f"ConvexLatticeSet({sorted(s.points)})"
            assert as_points(s) == tuple(sorted(s.points))

    @given(st.lists(st.tuples(st.integers(-4, 4) | st.floats(-4, 4, allow_nan=False) | st.booleans(),
                              st.integers(-4, 4) | st.floats(-4, 4, allow_nan=False)), max_size=10))
    def test_as_points_on_plain_iterables(self, pts):
        """Int-cast, duplicates removed, sorted: from a list, an iterator or a list with repeats."""
        expected = tuple(sorted({(int(x), int(y)) for x, y in pts}))
        assert as_points(pts) == expected
        assert as_points(iter(pts)) == expected
        assert as_points(pts + pts[::-1]) == expected


class TestConvexHull:
    def test_singleton(self):
        s = convex_hull([(0, 0)])
        assert s.points == {(0, 0)}
        assert s.edges == ()
        assert not s.has_positive_area()

    def test_block_is_its_own_hull(self):
        s = convex_hull([(0, 0), (2, 0), (0, 1), (2, 1), (1, 0), (1, 1)])
        assert s.points == set(block(3, 2).points)
        assert len(s.vertices) == 4

    def test_primitive_segment_has_no_interior_points(self):
        s = convex_hull([(0, 0), (2, 1)])
        # Oracle: scan the bounding box for hull membership.
        expected = set()
        for x in range(0, 3):
            for y in range(0, 2):
                # (x, y) on the segment iff cross product vanishes and in range
                if x * 1 - y * 2 == 0 and 0 <= x <= 2:
                    expected.add((x, y))
        assert s.points == expected == {(0, 0), (2, 1)}

    @given(points_strategy)
    @settings(max_examples=80, deadline=None)
    def test_idempotence(self, pts):
        first = convex_hull(pts)
        again = convex_hull(first.points)
        assert first.points == again.points
        assert first.vertices == again.vertices

    def test_non_convex_input_rejected(self):
        with pytest.raises(GeometryError):
            ConvexLatticeSet([(0, 0), (2, 0)])  # misses (1, 0)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            convex_hull([])


class TestVertices:
    def test_rectangle_corners_ccw(self):
        assert block(3, 2).vertices == ((0, 0), (2, 0), (2, 1), (0, 1))

    def test_segment_endpoints(self):
        s = convex_hull([(0, 0), (1, 0), (2, 0)])
        assert s.vertices == ((0, 0), (2, 0))

    def test_hexagon_vertices(self, hexagon):
        assert set(hexagon.vertices) == {(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)}

    @given(points_strategy)
    @settings(max_examples=60, deadline=None)
    def test_remove_and_recheck_oracle(self, pts):
        s = convex_hull(pts)
        for g in sorted(s.points):
            assert is_vertex(s, g) == (g in s.vertices)

    def test_vertex_matches_convex_subsets_of_box(self):
        # g is a vertex of C exactly when C - {g} is empty or again convex.
        convex = set(convex_subsets_of_box(1))
        for c in convex:
            s = ConvexLatticeSet(c)
            for g in c:
                rest = c - {g}
                assert is_vertex(s, g) == (not rest or rest in convex)


class TestEdges:
    def test_block_counts(self):
        assert [e.lattice_count for e in block(3, 2).edges] == [3, 2, 3, 2]

    def test_triangle_counts(self):
        tri = convex_hull([(0, 0), (2, 0), (0, 2)])
        assert sorted(e.lattice_count for e in tri.edges) == [3, 3, 3]

    def test_null_area_has_no_edges(self):
        assert convex_hull([(0, 0), (3, 0)]).edges == ()

    @given(points_strategy)
    @settings(max_examples=60, deadline=None)
    def test_count_is_gcd_plus_one_and_brute(self, pts):
        s = convex_hull(pts)
        for e in s.edges:
            dx, dy = e.end[0] - e.start[0], e.end[1] - e.start[1]
            assert e.lattice_count == gcd(abs(dx), abs(dy)) + 1
            # brute: lattice points on the closed segment
            on = 0
            for x in range(min(e.start[0], e.end[0]), max(e.start[0], e.end[0]) + 1):
                for y in range(min(e.start[1], e.end[1]), max(e.start[1], e.end[1]) + 1):
                    if (x - e.start[0]) * dy == (y - e.start[1]) * dx:
                        on += 1
            assert on == e.lattice_count

    def test_consecutive_edges_share_endpoint(self, hexagon):
        edges = hexagon.edges
        for i, e in enumerate(edges):
            assert e.end == edges[(i + 1) % len(edges)].start

    @given(points_strategy)
    @settings(max_examples=60, deadline=None)
    def test_edge_count_bookkeeping(self, pts):
        s = convex_hull(pts)
        if not s.edges:
            return
        # every edge carries at least two points; summing edge counts tallies
        # each boundary point once per incident edge (vertices twice)
        assert all(e.lattice_count >= 2 for e in s.edges)
        boundary = {
            g
            for g in s.points
            for e in s.edges
            if (e.end[0] - e.start[0]) * (g[1] - e.start[1])
            == (e.end[1] - e.start[1]) * (g[0] - e.start[0])
            and min(e.start[0], e.end[0]) <= g[0] <= max(e.start[0], e.end[0])
            and min(e.start[1], e.end[1]) <= g[1] <= max(e.start[1], e.end[1])
        }
        assert sum(e.lattice_count for e in s.edges) == len(boundary) + len(s.vertices)


class TestQuasiRegularity:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("k", range(2, 9))
    def test_blocks(self, n, k):
        assert is_quasi_regular(block(n, k)).quasi_regular

    @pytest.mark.parametrize("n", range(1, 9))
    def test_null_area_blocks_are_domain_errors(self, n):
        with pytest.raises(GeometryError):
            is_quasi_regular(block(n, 1))
        with pytest.raises(GeometryError):
            is_quasi_regular(block(1, n))

    def test_triangle_fails_with_witness(self):
        rep = is_quasi_regular(convex_hull([(0, 0), (2, 0), (0, 2)]))
        assert not rep.quasi_regular
        assert rep.violating_edge is not None

    def test_hexagon(self, hexagon):
        rep = is_quasi_regular(hexagon)
        assert rep.quasi_regular
        assert len(rep.pairing) == 3

    def test_pairing_is_exhaustive_pair_check(self, hexagon):
        rep = is_quasi_regular(hexagon)
        for i, j in rep.pairing:
            e, f = hexagon.edges[i], hexagon.edges[j]
            assert e.direction == (-f.direction[0], -f.direction[1])
            assert e.lattice_count == f.lattice_count

    def test_null_area_rejected(self):
        with pytest.raises(GeometryError):
            is_quasi_regular(convex_hull([(0, 0), (1, 0)]))


class TestLines:
    def test_supporting_line_lower(self):
        assert supporting_line(block(3, 3), Line(1, 0, 5)) == Line(1, 0, 0)

    def test_supporting_line_reversed(self):
        assert supporting_line(block(3, 3), Line(-1, 0, 0)) == Line(-1, 0, -2)

    def test_collinear_support(self):
        s = convex_hull([(0, 0), (2, 1)])
        sup = supporting_line(s, Line(2, 1, 0))
        assert sup.contains((0, 0)) and sup.contains((2, 1))

    def test_minimal_vector(self):
        assert Line.through((0, 0), 3, 3).minimal_vector() == (1, 1)
        assert Line(1, 0, 0).minimal_vector() == (1, 0)
        assert Line.make(4, 6, 2).minimal_vector() == (2, 3)
        with pytest.raises(GeometryError):
            Line(4, 6, 0)  # non-primitive direct construction
        with pytest.raises(GeometryError):
            Line.make(4, 6, 1)  # no lattice point after normalization

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_through_keeps_orientation_and_the_point(self, x, y, dx, dy):
        if (dx, dy) == (0, 0):
            with pytest.raises(GeometryError, match="line direction must be nonzero"):
                Line.through((x, y), dx, dy)
            return
        ell = Line.through((x, y), dx, dy)
        g = gcd(abs(dx), abs(dy))
        assert (ell.dx, ell.dy) == (dx // g, dy // g)
        assert ell.contains((x, y))

    def test_line_queries_read_any_point_collection(self):
        s = convex_hull([(0, 0), (4, 1), (1, 3)])
        line = Line(2, -1, 0)
        for pts in (s, s.points, list(s.cells)):
            assert supporting_line(pts, line) == supporting_line(s, line)
            assert line_section(pts, Line(2, -1, 3)) == line_section(s, Line(2, -1, 3))
            assert diameter_along(pts, line) == diameter_along(s, line)

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-10, 10)
    )
    @settings(max_examples=100, deadline=None)
    def test_reverse_involution(self, dx, dy, c):
        if (dx, dy) == (0, 0) or gcd(abs(dx), abs(dy)) != 1:
            return
        ell = Line(dx, dy, c)
        assert ell.reverse().reverse() == ell
        assert ell.reverse().minimal_vector() == (-dx, -dy)


class TestAxes:
    def test_square_axes(self):
        axes = axes_of_symmetry(block(3, 3))
        segs = {a.endpoints for a in axes}
        assert segs == {((0, 0), (2, 2)), ((0, 2), (2, 0))}
        z = axis_intersection(axes[0], axes[1])
        assert z == (Fraction(1), Fraction(1))

    def test_halves_balance(self, hexagon):
        for a in axes_of_symmetry(hexagon):
            assert len(a.half_a) == len(a.half_b)
            assert a.half_a.points | a.half_b.points == hexagon.points

    def test_hexagon_axes_through_centroid(self, hexagon):
        axes = axes_of_symmetry(hexagon)
        assert len(axes) == 3
        for i in range(len(axes)):
            for j in range(i + 1, len(axes)):
                assert axis_intersection(axes[i], axes[j]) == (Fraction(1), Fraction(1))

    def test_non_quasi_regular_rejected(self):
        with pytest.raises(GeometryError):
            axes_of_symmetry(convex_hull([(0, 0), (2, 0), (0, 2)]))


class TestAntiparallelSections:
    @given(points_strategy)
    @settings(max_examples=60, deadline=None)
    def test_crossing_lines_nearly_match_shorter_edge(self, pts):
        # for an antiparallel edge pair, any lattice line parallel to the pair
        # meeting the hull carries at least one point fewer than the shorter edge
        s = convex_hull(pts)
        if not s.has_positive_area():
            return
        rep = is_quasi_regular(s)
        if not rep.quasi_regular:
            return
        for i, j in rep.pairing:
            e, f = s.edges[i], s.edges[j]
            shorter = min(e.lattice_count, f.lattice_count)
            carrier = e.line
            values = sorted({carrier.value(g) for g in s.points})
            va = sorted((carrier.value(e.start), carrier.value(f.start)))
            for c in range(va[0], va[1] + 1):
                if c not in values:
                    continue
                section = sum(1 for g in s.points if carrier.value(g) == c)
                assert section >= shorter - 1


class TestStrips:
    def test_horizontal_width_one(self):
        member = strip_points(Line(1, 0, 0), 1)
        rows = {y for x in range(-3, 4) for y in range(-3, 4) if member((x, y))}
        assert rows == {-1, 0, 1}

    def test_diagonal_half_width(self):
        member = strip_points(Line(1, 1, 0), Fraction(1, 2))
        inside = {
            (x, y) for x in range(-3, 4) for y in range(-3, 4) if member((x, y))
        }
        assert inside == {(t, t) for t in range(-3, 4)}

    def test_narrow_horizontal(self):
        member = strip_points(Line(1, 0, 0), Fraction(1, 10))
        assert member((5, 0)) and not member((5, 1))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(GeometryError):
            strip_points(Line(1, 0, 0), 0)


class TestDiameter:
    def test_examples(self):
        assert diameter_along(block(3, 4), Line(1, 0, 0)) == 4
        assert diameter_along(block(3, 4), Line(0, 1, 0)) == 3
        assert diameter_along(block(3, 3), Line(1, 1, 0)) == 5
