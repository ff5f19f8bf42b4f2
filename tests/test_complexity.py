import importlib
import random
from math import gcd
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nivatlab.complexity import (
    _in_cell_order,
    _letter_keys,
    complexity,
    complexity_table,
    directional_language,
    extension_counts,
    language,
    language_report,
    table_to_csv,
)
from nivatlab.configurations import (
    Alphabet,
    Configuration,
    DiagonalFamily,
    DoublyPeriodic,
    Exactness,
    FiniteDefect,
    Pattern,
    WindowSample,
    extract_pattern,
)
from nivatlab.errors import GeometryError, UnknownLetterError
from nivatlab.geometry import ConvexLatticeSet, Line, block, convex_hull, line_section, psub, supporting_line

from conftest import (
    DIAGONAL,
    HORIZONTAL,
    VERTICAL,
    basis_det,
    brute_is_period,
    brute_torus_size,
    enumerate_convex_subsets,
    naive_complexity,
    naive_diagonal_language,
    naive_exact_count,
    random_doubly_periodic,
    random_finite_defect,
    sheared_doubly_periodic,
    tiled_doubly_periodic,
)

complexity_module = importlib.import_module("nivatlab.complexity")  # the package binds the function


class TestComplexity:
    def test_single_cell_sees_both_letters(self, one_defect):
        assert complexity(one_defect, block(1, 1)).count == 2

    def test_checkerboard_window(self, checkerboard):
        assert complexity(checkerboard, block(2, 2)).count == 2

    def test_diagonal_equality_case(self, diagonal):
        rep = complexity(diagonal, block(3, 4))
        assert rep.count == 7 and rep.exact

    def test_empty_shape(self, checkerboard):
        assert complexity(checkerboard, []).count == 1

    def test_doubly_periodic_bounded_by_domain(self):
        rng = random.Random(7)
        for _ in range(5):
            cfg = random_doubly_periodic(rng)
            m = basis_det(cfg)
            for shape in (block(2, 2), block(3, 4), block(4, 1)):
                assert complexity(cfg, shape).count <= m

    def test_monotone_under_inclusion(self, diagonal, checkerboard):
        rng = random.Random(11)
        shapes = enumerate_convex_subsets(4, 4)
        for cfg in (diagonal, checkerboard):
            for _ in range(40):
                big = ConvexLatticeSet(rng.choice(shapes))
                small = big
                if len(big) > 1:
                    g = rng.choice(sorted(big.vertices))
                    small = ConvexLatticeSet(big.points - {g}, _validated=True)
                assert complexity(cfg, small).count <= complexity(cfg, big).count

    def test_translation_invariance(self, diagonal, checkerboard, one_defect):
        for cfg in (diagonal, checkerboard, one_defect):
            for g in [(3, -2), (-7, 5), (100, 41)]:
                base = block(3, 2)
                moved = base.translate(g)
                assert complexity(cfg, base).count == complexity(cfg, moved).count

    def test_determinism(self, diagonal):
        a = complexity(diagonal, block(4, 4))
        b = complexity(diagonal, block(4, 4))
        assert a == b
        t1 = table_to_csv(complexity_table(diagonal, 3, 3))
        t2 = table_to_csv(complexity_table(diagonal, 3, 3))
        assert t1 == t2


class TestOracleEquivalence:
    def test_small_oracle_run(self):
        rng = random.Random(13)
        shapes = enumerate_convex_subsets(3, 3, canonical=True)
        for _ in range(4):
            cfg = random_doubly_periodic(rng)
            box = basis_det(cfg)
            for pts in shapes:
                cells = tuple(sorted(pts))
                assert complexity(cfg, cells).count == naive_complexity(cfg, cells, box)


class TestLanguage:
    def test_checkerboard_vertical_domino(self, checkerboard):
        pats = language(checkerboard, [(0, 0), (0, 1)])
        assert {p.letters for p in pats} == {("a", "b"), ("b", "a")}

    def test_singleton_language_is_alphabet(self, diagonal):
        pats = language(diagonal, [(0, 0)])
        assert {p.letters[0] for p in pats} == set(diagonal.alphabet.letters)

    def test_diagonal_r34_language_size(self, diagonal):
        pats, exact = language_report(diagonal, block(3, 4))
        assert len(pats) == 7 and exact is Exactness.EXACT


class TestDirectionalLanguage:
    def test_period_direction_is_constant(self, diagonal):
        for shape in (block(2, 2), block(3, 4)):
            dl = directional_language(diagonal, shape, DIAGONAL)
            assert len(dl) == 1 and dl.exactness is Exactness.EXACT

    def test_checkerboard_single_cell(self, checkerboard):
        dl = directional_language(checkerboard, [(0, 0)], HORIZONTAL)
        assert len(dl) == 2

    def test_finite_defect_stabilizes(self, one_defect):
        dl = directional_language(one_defect, block(2, 2), HORIZONTAL)
        assert dl.exactness is Exactness.EXACT
        # background view + the defect crossing the 2x2 window in one row pair
        brute = {
            frozenset_of_letters(one_defect, block(2, 2), (t, 0)) for t in range(-40, 40)
        }
        assert {p.letters for p in dl.patterns} == brute

    def test_window_sample_is_lower_bound(self, ab):
        w = WindowSample(ab, (0, 0), ["ab" * 4] * 8)
        dl = directional_language(w, block(2, 2), HORIZONTAL)
        assert dl.exactness is Exactness.LOWER_BOUND


def frozenset_of_letters(cfg, shape, u):
    cells = tuple(sorted(shape.points))
    return tuple(cfg.letter_at((g[0] + u[0], g[1] + u[1])) for g in cells)


class TestExtensionCounts:
    def test_checkerboard_unique_extension(self, checkerboard):
        table = extension_counts(checkerboard, block(1, 2), HORIZONTAL)
        assert set(table.counts().values()) == {1}
        assert table.excess() == 0

    def test_equal_counts_mean_unique_extension(self, checkerboard):
        # P(U) = P(U minus supporting line) forces every N = 1
        table = extension_counts(checkerboard, block(2, 2), HORIZONTAL)
        assert complexity(checkerboard, block(2, 2)).count == 2
        assert all(n == 1 for n in table.counts().values())

    def test_diagonal_excess_is_complexity_gap(self, diagonal):
        table = extension_counts(diagonal, block(3, 4), HORIZONTAL)
        p_u = complexity(diagonal, block(3, 4)).count
        p_base = complexity(diagonal, table.base).count
        assert (p_u, p_base) == (7, 6)
        assert table.excess() == 1

    def test_single_row_rejected(self, checkerboard):
        with pytest.raises(GeometryError):
            extension_counts(checkerboard, block(3, 1), HORIZONTAL)

    def test_identity_on_random_shapes(self, diagonal):
        for shape_pts in [block(3, 3).points, block(2, 4).points,
                          convex_hull([(0, 0), (3, 0), (0, 2), (3, 2)]).points]:
            shape = ConvexLatticeSet(shape_pts)
            for line in (HORIZONTAL, VERTICAL, DIAGONAL):
                table = extension_counts(diagonal, shape, line)
                p_u = complexity(diagonal, shape).count
                p_b = complexity(diagonal, table.base).count
                assert table.excess() == p_u - p_b


class TestDomainSoundness:
    """Certified enumeration domains must match wide brute-force sweeps."""

    @pytest.mark.parametrize(
        "pts",
        [
            [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],  # hexagon
            [(0, 0), (1, 1), (2, 2)],                          # diagonal segment
            [(0, 0), (3, 1)],                                  # skew segment
            [(0, 0), (4, 0)],                                  # wide row
        ],
    )
    def test_diagonal_family_on_odd_shapes(self, diagonal, pts):
        shape = convex_hull(pts)
        engine = language(diagonal, shape)
        brute = {extract_pattern(diagonal, shape, (d, 0)) for d in range(-1500, 1501)}
        assert engine == brute

    def test_defect_cluster_language(self, ab):
        from nivatlab.configurations import FiniteDefect

        cfg = FiniteDefect(ab, "a", {(0, 0): "b", (2, 1): "b", (-1, 3): "b"})
        shape = block(3, 3)
        engine = language(cfg, shape)
        brute = {
            extract_pattern(cfg, shape, (x, y))
            for x in range(-15, 16)
            for y in range(-15, 16)
        }
        assert engine == brute


class TestFrozenHighRange:
    """Engine values for the reference family, frozen after cross-checking
    against a wide independent sweep (see the oracle below)."""

    def brute(self, n, k, span=1200):
        from nivatlab.configurations import DiagonalFamily

        eta = DiagonalFamily()
        cells = [(x, y) for x in range(n) for y in range(k)]
        seen = set()
        for d in range(-span, span + 1):
            seen.add(tuple(eta.letter_at((x + d, y)) for (x, y) in cells))
        return len(seen)

    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (3, 5, 9),
            (4, 5, 12),
            (6, 6, 27),
            (7, 7, 43),   # one more than the naive pair count: a triple view fits
            (2, 12, 43),
            (7, 8, 53),
        ],
    )
    def test_frozen_values(self, diagonal, n, k, expected):
        assert complexity(diagonal, block(n, k)).count == expected
        assert self.brute(n, k) == expected


# -- row slices, band words and the torus against brute force -------------------

AB = Alphabet(("a", "b"))
HEXAGON = convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
# Convex shapes inside the 4x4 box, some moved to negative coordinates; the
# segment (0, 0)-(3, 1) has a gap in its x - y values.
CONVEX = [block(1, 1), block(2, 2), block(3, 4), block(4, 3), block(4, 4), block(2, 4), HEXAGON,
          convex_hull([(0, 0), (3, 1), (1, 3)]), convex_hull([(0, 0), (3, 1)]),
          block(3, 2).translate((-4, -1)), HEXAGON.translate((-2, -3))]
# Point sets whose rows, or whose x - y values, have gaps.
GAPPED = [((0, 0), (2, 0)), ((0, 0), (3, 1)), ((0, 0), (1, 0), (3, 0), (0, 1), (3, 1), (1, 2)),
          ((-2, -1), (0, -1), (1, -1), (-2, 1), (1, 1))]
LINES = [HORIZONTAL, VERTICAL, DIAGONAL, Line(2, 1, 0), Line(1, -1, 0)]
SWEEP = 400  # brute-force reach along x - y and along a line, far past every certified domain


def _body(kind: str, seed: int):
    rng = random.Random(seed)
    if kind == "diagonal":
        return DiagonalFamily(*rng.sample("bw", 2))
    if kind == "periodic":
        return random_doubly_periodic(rng)
    if kind == "sheared":  # basis (p, 0), (s, q): the box [0, p) x [0, q) is a residue system
        p, q, shear = rng.randint(2, 12), rng.randint(1, 6), rng.randint(-15, 15)
        return sheared_doubly_periodic(rng, p, q, shear)
    if kind == "defect":
        return random_finite_defect(rng, AB)
    while True:
        rows = ["".join(rng.choice("ab") for _ in range(rng.randint(5, 7))) for _ in range(6)]
        if len(set(map(len, rows))) == 1 and set("".join(rows)) == {"a", "b"}:
            return WindowSample(AB, (rng.randint(-3, 3), rng.randint(-3, 3)), rows)


def _fits(cfg, cells, u) -> bool:
    return not isinstance(cfg, WindowSample) or all(
        cfg._inside((g[0] + u[0], g[1] + u[1])) for g in cells
    )


def _brute_translates(cfg, cells):
    """Every translate a brute-force sweep needs, independent of the engine's domains."""
    if isinstance(cfg, DiagonalFamily):
        us = [(d, 0) for d in range(-SWEEP, SWEEP + 1)]
    elif isinstance(cfg, DoublyPeriodic):
        (p, zero), (_, q) = cfg.basis
        if zero != 0 or p < 0 or q < 0:
            p = q = basis_det(cfg)
        us = [(x, y) for x in range(p) for y in range(q)]
    else:  # defects lie in [-4, 4]^2 and windows in [-3, 9]^2; cells lie in [-9, 4]^2
        us = [(x, y) for x in range(-18, 19) for y in range(-18, 19)]
    return [u for u in us if _fits(cfg, cells, u)]


def _brute_language(cfg, cells):
    return {extract_pattern(cfg, cells, u) for u in _brute_translates(cfg, cells)}


bodies = st.tuples(st.sampled_from(["diagonal", "periodic", "sheared", "defect", "window"]),
                   st.integers(0, 10**6))
point_sets = st.tuples(
    st.one_of(
        st.sampled_from([tuple(sorted(s.points)) for s in CONVEX] + GAPPED),
        st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=16),
    ),
    st.tuples(st.integers(-5, 1), st.integers(-5, 1)),
).map(lambda cells_at: tuple(sorted({(x + cells_at[1][0], y + cells_at[1][1])
                                     for x, y in cells_at[0]})))


class TestPeriodQuotient:
    """Counting over row slices, band words and the torus must agree with sweeps
    that read every cell."""

    @settings(max_examples=80, deadline=None)
    @given(bodies, point_sets, st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                                        min_size=1, max_size=30))
    def test_keys_on_any_translates(self, body, cells, us):
        """Keys are in bijection with patterns, and the index respells them cell by cell."""
        cfg = _body(*body)
        us = [u for u in us if _fits(cfg, cells, u)]
        keys, index = _letter_keys(cfg, cells, us)
        brute = {extract_pattern(cfg, cells, u) for u in us}
        assert len(keys) == len(brute)
        assert {"".join(p.letters) for p in brute} == set(_in_cell_order(keys, index))

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
           st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=8),
           st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
    def test_stepped_band_reads_match_brute(self, v, cells, base):
        """Along v the band word is read every vx - vy letters, a negative, zero
        or positive step; the patterns match a wide sweep read through letter_at."""
        diagonal, g = DiagonalFamily(), gcd(*v)
        line = Line(v[0] // g, v[1] // g, 0)
        cells = sorted(cells)
        result = directional_language(diagonal, cells, line, base=base)
        step = line.minimal_vector()
        brute = {extract_pattern(diagonal, cells, (base[0] + t * step[0], base[1] + t * step[1]))
                 for t in range(-1000, 1001)}
        assert result.patterns == brute

    def test_band_runs_skip_gaps(self, diagonal):
        """A gap in the x - y values of the cells is not read into the key."""
        for cells in GAPPED + [((0, 0), (2, 0), (5, 0)), ((0, 0), (6, 0), (7, 0))]:
            assert complexity(diagonal, cells).count == len(_brute_language(diagonal, cells))

    def test_sheared_torus_and_rows(self):
        """The basis (30, 0), (7, 20) rotates each row by 7 per 20 rows; rows with gaps split."""
        cfg = sheared_doubly_periodic(random.Random(3), 30, 20, 7)
        torus = cfg.enumeration_domain(())
        assert (torus.xs, torus.ys) == (range(30), range(20))
        for y in (-41, -20, -1, 0, 13, 20, 27, 45):
            assert cfg.row(y, -35, 40) == "".join(cfg.letter_at((x, y)) for x in range(-35, 40))
            assert cfg.row(y + 20, 7, 37) == cfg.row(y, 0, 30)
        shapes = [block(6, 6), block(2, 3).translate((-5, -7)), HEXAGON]
        for cells in [tuple(sorted(shape.points)) for shape in shapes] + GAPPED:
            brute = {extract_pattern(cfg, cells, (x, y)) for x in range(30) for y in range(20)}
            rep = complexity(cfg, cells)
            assert rep.count == len(brute) and rep.translates_examined == 600
            assert language(cfg, cells) == brute

    def test_rows_between_far_cells_are_not_read(self, monkeypatch):
        """Cells 10**6 rows apart read the body rows under each cell, once each, and none between."""
        cfg = sheared_doubly_periodic(random.Random(4), 5, 3, 2)
        reads = []
        row = cfg.row

        def recorded(y, lo, hi):
            reads.append(y)
            return row(y, lo, hi)

        monkeypatch.setattr(cfg, "row", recorded)
        cells = ((0, 0), (1, 0), (3, 10**6))
        brute = {extract_pattern(cfg, cells, (x, y)) for x in range(5) for y in range(3)}
        assert complexity(cfg, cells).count == len(brute)
        assert reads == [0, 1, 2, 10**6, 10**6 + 1, 10**6 + 2]

    @settings(max_examples=120, deadline=None)
    @given(bodies, point_sets)
    @example(("window", 999997), ((-9, -1), (-9, 0), (-8, -1), (-8, 0), (-7, -1), (-7, 0)))
    def test_complexity_and_language(self, body, cells):
        cfg = _body(*body)
        brute = _brute_language(cfg, cells)
        rep = complexity(cfg, cells)
        assert rep.count == len(brute)
        assert rep.exact == (not isinstance(cfg, WindowSample))
        assert language(cfg, cells) == brute
        if isinstance(cfg, DoublyPeriodic):
            assert rep.count == naive_complexity(cfg, cells, basis_det(cfg))

    @settings(max_examples=80, deadline=None)
    @given(bodies, point_sets, st.sampled_from(LINES),
           st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    def test_directional_language(self, body, cells, line, base):
        cfg = _body(*body)
        v = line.minimal_vector()
        us = [(base[0] + t * v[0], base[1] + t * v[1]) for t in range(-SWEEP, SWEEP + 1)]
        brute = {extract_pattern(cfg, cells, u) for u in us if _fits(cfg, cells, u)}
        assert directional_language(cfg, cells, line, base).patterns == frozenset(brute)

    @settings(max_examples=60, deadline=None)
    @given(bodies, st.sampled_from(CONVEX[1:]), st.sampled_from(LINES))
    def test_extension_counts(self, body, shape, line):
        cfg = _body(*body)
        try:
            table = extension_counts(cfg, shape, line)
        except GeometryError:
            return
        grouped: dict = {}
        for u in _brute_translates(cfg, table.shape):
            base = extract_pattern(cfg, table.base, u)
            grouped.setdefault(base, set()).add(extract_pattern(cfg, table.shape, u))
        assert {g: set(v) for g, v in table.extensions.items()} == grouped
        # Extensions come in letter order; base patterns in the order of their first extension.
        for v in table.extensions.values():
            assert [p.letters for p in v] == sorted(p.letters for p in v)
        firsts = [v[0].letters for v in table.extensions.values()]
        assert firsts == sorted(firsts)

    @settings(max_examples=60, deadline=None)
    @given(bodies, st.sampled_from(CONVEX[1:]), st.sampled_from(LINES))
    def test_extension_order_follows_language(self, body, shape, line):
        """The base patterns and every group come in the order of a reference
        grouped from `language` sorted by word, by each full pattern's
        restriction to the base, and with the same offsets."""
        cfg = _body(*body)
        try:
            table = extension_counts(cfg, shape, line)
        except GeometryError:
            return
        (x0, y0), base = table.shape[0], set(table.base)
        reference: dict = {}
        for full in sorted(language(cfg, table.shape), key=attrgetter("word")):
            restricted = {(x + x0, y + y0): a for (x, y), a in full.cells if (x + x0, y + y0) in base}
            reference.setdefault(Pattern.from_cells(restricted), []).append(full)
        assert [g.cells for g in table.extensions] == [g.cells for g in reference]
        assert ([[p.cells for p in v] for v in table.extensions.values()]
                == [[p.cells for p in v] for v in reference.values()])


tiled_bodies = st.tuples(st.booleans(), st.integers(0, 10**6)).map(
    lambda sheared_seed: tiled_doubly_periodic(random.Random(sheared_seed[1]), sheared_seed[0]))


class TestPeriodLattice:
    """Bodies given by a basis coarser than their period lattice count over the
    smaller torus of that lattice and report its size as translates examined;
    every result must match sweeps over the fundamental domain of the given
    basis, which read every cell."""

    @settings(max_examples=60, deadline=None)
    @given(tiled_bodies, point_sets)
    def test_complexity_and_language(self, cfg, cells):
        brute = _brute_language(cfg, cells)
        rep = complexity(cfg, cells)
        assert rep.count == len(brute) == naive_complexity(cfg, cells, basis_det(cfg))
        assert rep.translates_examined == brute_torus_size(cfg)
        assert language(cfg, cells) == brute

    @settings(max_examples=40, deadline=None)
    @given(tiled_bodies, st.integers(1, 5), st.integers(1, 5))
    def test_table(self, cfg, n_max, k_max):
        torus = brute_torus_size(cfg)
        for (n, k), rep in complexity_table(cfg, n_max, k_max).items():
            cells = tuple((x, y) for x in range(n) for y in range(k))
            assert rep.count == _naive_count(cfg, cells)
            assert rep.translates_examined == torus

    @settings(max_examples=40, deadline=None)
    @given(tiled_bodies, point_sets, st.sampled_from(LINES), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    def test_directional_language(self, cfg, cells, line, base):
        v = line.minimal_vector()
        brute = {extract_pattern(cfg, cells, (base[0] + t * v[0], base[1] + t * v[1]))
                 for t in range(-SWEEP, SWEEP + 1)}
        assert directional_language(cfg, cells, line, base).patterns == frozenset(brute)

    @settings(max_examples=40, deadline=None)
    @given(tiled_bodies, st.sampled_from(CONVEX[1:]), st.sampled_from(LINES))
    def test_extension_counts(self, cfg, shape, line):
        try:
            table = extension_counts(cfg, shape, line)
        except GeometryError:
            return
        grouped: dict = {}
        for u in _brute_translates(cfg, table.shape):
            base = extract_pattern(cfg, table.base, u)
            grouped.setdefault(base, set()).add(extract_pattern(cfg, table.shape, u))
        assert {g: set(v) for g, v in table.extensions.items()} == grouped

    @settings(max_examples=30, deadline=None)
    @given(tiled_bodies)
    def test_is_period(self, cfg):
        r = max(map(abs, (*cfg.basis[0], *cfg.basis[1]))) + 1
        for h in ((x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)):
            assert cfg.is_period(h) == (h != (0, 0) and brute_is_period(cfg, h)), (cfg.basis, h)


def _naive_count(cfg, cells) -> int:
    """`naive_complexity` over a box holding every pattern; a window's sweep for windows."""
    if isinstance(cfg, WindowSample):
        return len(_brute_language(cfg, cells))
    return naive_exact_count(cfg, cells)


class TestTable:
    def test_low_range_values(self, diagonal):
        table = complexity_table(diagonal, 4, 4)
        for (n, k), rep in table.items():
            if n + k <= 7:
                assert rep.count == n + k

    @pytest.mark.parametrize("count, letters", [(1, "ab"), (10, "ab"), (30, "abc")])
    def test_defect_table_matches_complexity(self, count, letters):
        # Defects in [6, 14]^2: the brute-force box [0, 24)^2 holds every
        # translate that meets one and translates that meet none.
        rng = random.Random(count)
        defects = {}
        while len(defects) < count:
            defects[rng.randint(6, 14), rng.randint(6, 14)] = rng.choice(letters[1:])
        cfg = FiniteDefect(Alphabet(tuple(letters)), "a", defects)
        table = complexity_table(cfg, 4, 5)
        for (n, k), rep in table.items():
            cells = tuple((x, y) for x in range(n) for y in range(k))
            assert rep == complexity(cfg, cells)
            assert rep.count == naive_complexity(cfg, cells, 24)

    def test_csv_shape(self, checkerboard):
        text = table_to_csv(complexity_table(checkerboard, 2, 2))
        assert text.splitlines()[0] == "n,k,count,exact"
        assert len(text.splitlines()) == 5

    @settings(max_examples=40, deadline=None)
    @given(bodies, st.integers(1, 6), st.integers(1, 6))
    def test_every_entry_is_the_complexity_of_its_block(self, body, n_max, k_max):
        """Equal reports (shape, count, exactness, translates_examined) and brute-force counts."""
        cfg = _body(*body)
        if isinstance(cfg, WindowSample) and (n_max > cfg.width or k_max > cfg.height):
            with pytest.raises(UnknownLetterError, match="cannot fit the shape anywhere"):
                complexity_table(cfg, n_max, k_max)
            return
        table = complexity_table(cfg, n_max, k_max)
        assert list(table) == [(n, k) for n in range(1, n_max + 1) for k in range(1, k_max + 1)]
        for (n, k), rep in table.items():
            cells = tuple((x, y) for x in range(n) for y in range(k))
            assert rep == complexity(cfg, cells)
            if n <= 4 and k <= 4:
                assert rep.count == _naive_count(cfg, cells)

    def test_any_other_body_counts_block_by_block(self):
        """A body outside the row-slice and diagonal kinds, a defect body among
        them, gets the table of its per-block `complexity` reports."""

        class VerticalStripes(Configuration):
            alphabet = Alphabet(("a", "b"))

            def letter_at(self, g):
                return "ab"[g[0] % 2]

            def enumeration_domain(self, shape):
                return ((0, 0), (1, 0))

            def is_period(self, h):
                return h[0] % 2 == 0

            def directional_translates(self, shape, base, v):
                return range(2)

        defects = FiniteDefect(AB, "a", {(0, 0): "b", (2, 1): "b", (-1, 3): "b", (4, 4): "b", (1, -2): "b"})
        for cfg in (VerticalStripes(), defects):
            table = complexity_table(cfg, 3, 2)
            assert list(table) == [(n, k) for n in range(1, 4) for k in range(1, 3)]
            for (n, k), rep in table.items():
                assert rep == complexity(cfg, tuple((x, y) for x in range(n) for y in range(k)))
                if cfg is not defects:
                    assert (rep.count, rep.translates_examined) == (2, 2)

    def test_diagonal_table_counts_one_factor_set_per_length(self, monkeypatch):
        """A diagonal table reads the band word once per length n + k - 1; no
        block reads its own keys or is counted on its own."""
        cfg = DiagonalFamily()
        lengths = []
        band = cfg.band

        def recorded(lo, hi):
            lengths.append(lo + hi)  # the length-L read spans -m, ..., m + L - 1
            return band(lo, hi)

        def refused(*args):
            raise AssertionError("a diagonal table read the keys of one block")

        monkeypatch.setattr(cfg, "band", recorded)
        monkeypatch.setattr(complexity_module, "_domain_keys", refused)
        monkeypatch.setattr(complexity_module, "complexity", refused)
        table = complexity_table(cfg, 4, 3)
        assert lengths == [1, 2, 3, 4, 5, 6]
        assert len(table) == 12 and all(rep.exact for rep in table.values())
        by_length: dict = {}
        for (n, k), rep in table.items():
            by_length.setdefault(n + k - 1, set()).add((rep.count, rep.translates_examined))
        assert sorted(by_length) == lengths and all(len(v) == 1 for v in by_length.values())

    @pytest.mark.parametrize("kind", ["periodic", "sheared"])
    def test_torus_table_grows_each_column(self, kind, monkeypatch):
        """Each column reads every torus row it needs once, d + k_max - 1 of them;
        no block reads its own keys or is counted on its own."""
        cfg = _body(kind, 5)
        a, _, d = cfg._hnf
        reads = []
        row = cfg.row

        def recorded(y, lo, hi):
            reads.append((y, lo, hi))
            return row(y, lo, hi)

        def refused(*args):
            raise AssertionError("a torus table read the keys of one block")

        monkeypatch.setattr(cfg, "row", recorded)
        monkeypatch.setattr(complexity_module, "_domain_keys", refused)
        monkeypatch.setattr(complexity_module, "complexity", refused)
        table = complexity_table(cfg, 4, 3)
        assert reads == [(y, 0, a - 1 + n) for n in range(1, 5) for y in range(d + 2)]
        assert len(table) == 12 and all(rep.exact for rep in table.values())
        assert {rep.translates_examined for rep in table.values()} == {a * d}

    def test_columns_stop_growing_once_distinct(self, monkeypatch):
        """A column whose first block has distinct keys at every translate grows no key."""

        def refused(*args):
            raise AssertionError("a column grew keys after they were all distinct")

        monkeypatch.setattr(complexity_module, "add", refused)
        torus = DoublyPeriodic.from_rows(AB, ["ab"])
        window = WindowSample(Alphabet(tuple("abcd")), (2, -1), ["ab", "cd"])
        for cfg, n_max, k_max, translates in [(torus, 3, 4, lambda n, k: 2),
                                              (window, 2, 2, lambda n, k: (3 - n) * (3 - k))]:
            for (n, k), rep in complexity_table(cfg, n_max, k_max).items():
                assert rep.count == rep.translates_examined == translates(n, k)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["periodic", "sheared", "column", "window"]), st.integers(0, 10**6),
           st.integers(1, 5), st.integers(1, 5))
    def test_grown_tables_on_small_bodies(self, kind, seed, n_max, k_max):
        """Tori with few translates (sheared, and one cell wide) and windows exactly
        n_max wide, where columns stop growing early and one translate per row
        cuts a single piece: every block against brute force."""
        rng = random.Random(seed)
        if kind == "periodic":
            cfg = random_doubly_periodic(rng, max_det=4)
        elif kind == "sheared":
            p, q = rng.choice([(1, 2), (2, 1), (2, 2), (3, 1), (1, 3)])
            cfg = sheared_doubly_periodic(rng, p, q, rng.randint(-4, 4))
        else:
            width, height = 1 if kind == "column" else n_max, rng.randint(max(k_max, 2), 5)
            while True:
                rows = ["".join(rng.choice("ab") for _ in range(width)) for _ in range(height)]
                if set("".join(rows)) == {"a", "b"}:
                    break
            cfg = (DoublyPeriodic.from_rows(AB, rows) if kind == "column"
                   else WindowSample(AB, (rng.randint(-3, 3), rng.randint(-3, 3)), rows))
        table = complexity_table(cfg, n_max, k_max)
        for (n, k), rep in table.items():
            cells = tuple((x, y) for x in range(n) for y in range(k))
            assert rep.shape == cells and rep.count == _naive_count(cfg, cells)
            if isinstance(cfg, WindowSample):
                assert rep.translates_examined == (cfg.width - n + 1) * (cfg.height - k + 1)
            else:
                assert rep.translates_examined == brute_torus_size(cfg)

    def test_window_table_counts_every_block(self):
        """Every (n, k) of a window table equals an in-window sweep that reads each cell.

        Origins on both sides of zero; windows with room to spare, exactly
        n_max wide or k_max tall, one row or one column; a window one short in
        either direction raises the one fits-nowhere error.
        """
        sizes = [(7, 6, 3, 4), (3, 6, 3, 4), (7, 4, 3, 4), (3, 4, 3, 4), (1, 6, 1, 4), (7, 1, 3, 1)]
        for origin in [(-4, -7), (0, 0), (3, 5), (-2, 6)]:
            for width, height, n_max, k_max in sizes:
                rng = random.Random(f"{origin} {width} {height}")
                while True:
                    rows = ["".join(rng.choice("ab") for _ in range(width)) for _ in range(height)]
                    if set("".join(rows)) == {"a", "b"}:
                        break
                cfg = WindowSample(AB, origin, rows)
                table = complexity_table(cfg, n_max, k_max)
                assert list(table) == [(n, k) for n in range(1, n_max + 1) for k in range(1, k_max + 1)]
                for (n, k), rep in table.items():
                    cells = tuple((x, y) for x in range(n) for y in range(k))
                    # Row r from the top of the window holds y = origin[1] + height - 1 - r.
                    seen = {tuple(rows[origin[1] + height - 1 - (uy + y)][ux + x - origin[0]]
                                  for x, y in cells)
                            for ux in range(origin[0], origin[0] + width - n + 1)
                            for uy in range(origin[1], origin[1] + height - k + 1)}
                    assert rep.shape == cells and rep.count == len(seen)
                    assert rep.exactness is Exactness.LOWER_BOUND
                    assert rep.translates_examined == (width - n + 1) * (height - k + 1)
                for too_big in [(width + 1, 1), (1, height + 1), (width + 1, height + 1)]:
                    with pytest.raises(UnknownLetterError) as raised:
                        complexity_table(cfg, *too_big)
                    assert str(raised.value) == f"the {width}x{height} window cannot fit the shape anywhere"


# -- the diagonal family as a word ------------------------------------------------------

# Past the certified sweep of every shape below: their x - y values span at
# most 24, whose sweep reaches 361.
DIAG_REACH = 450
# Point sets in the box [-5, 5] x [-4, 4], most of them with several x - y runs.
scattered = st.sets(st.tuples(st.integers(-5, 5), st.integers(-4, 4)), min_size=1, max_size=12)
hexagons = st.builds(
    lambda a, b, c, at: convex_hull([(0, 0), (a, 0), (a + b, b), (a + b, b + c), (b, b + c), (0, c)]
                                    ).translate(at).points,
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
blocks = st.builds(lambda n, k, at: block(n, k).translate(at).points,
                   st.integers(1, 9), st.integers(1, 9), st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
diagonal_shapes = st.one_of(scattered, hexagons, blocks).map(lambda pts: tuple(sorted(pts)))
diagonal_letters = st.sampled_from([("b", "w"), ("w", "b"), ("x", "y")])


def _block_cells(n: int, k: int) -> tuple:
    return tuple((x, y) for x in range(n) for y in range(k))


class TestDiagonalSweep:
    """Counts over the sweep view and tables from factor counts, against a
    brute-force sweep that reads every cell's letter."""

    @settings(max_examples=80, deadline=None)
    @given(diagonal_shapes, diagonal_letters)
    def test_complexity_and_language(self, cells, letters):
        cfg = DiagonalFamily(*letters)
        brute = naive_diagonal_language(cfg, cells, DIAG_REACH)
        rep = complexity(cfg, cells)
        assert rep.count == len(brute) and rep.exact
        assert rep.translates_examined == len(cfg.enumeration_domain(cells))
        patterns = language(cfg, cells)
        assert sorted(p.letters for p in patterns) == sorted(brute)
        assert {p.offsets for p in patterns} == {tuple(psub(g, cells[0]) for g in cells)}

    @settings(max_examples=3, deadline=None)
    @given(st.integers(1, 13), st.integers(1, 13), diagonal_letters)
    @example(13, 13, ("b", "w"))
    def test_tables_against_brute_force(self, n_max, k_max, letters):
        cfg = DiagonalFamily(*letters)
        table = complexity_table(cfg, n_max, k_max)
        assert list(table) == [(n, k) for n in range(1, n_max + 1) for k in range(1, k_max + 1)]
        for (n, k), rep in table.items():
            cells = _block_cells(n, k)
            assert rep.shape == cells and rep.exact
            assert rep.count == len(naive_diagonal_language(cfg, cells, DIAG_REACH))
            assert rep.translates_examined == len(cfg.enumeration_domain(cells))

    @settings(max_examples=3, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30))
    @example(30, 30)
    def test_tables_against_each_block(self, n_max, k_max):
        cfg = DiagonalFamily()
        for (n, k), rep in complexity_table(cfg, n_max, k_max).items():
            cells = _block_cells(n, k)
            assert rep == complexity(cfg, cells)
            assert rep.translates_examined == len(cfg.enumeration_domain(cells))


# -- finite-defect domains read from their defects alone --------------------------------


def _defect_body(count: int, letters: str) -> FiniteDefect:
    """`count` defects in [-9, -3] x [-8, -2], cycling through the letters after the background."""
    rng = random.Random(count)
    defects = {}
    while len(defects) < count:
        defects[rng.randint(-9, -3), rng.randint(-8, -2)] = letters[1 + len(defects) % (len(letters) - 1)]
    return FiniteDefect(Alphabet(tuple(letters)), "a", defects)


class TestDefectKeys:
    """A finite-defect body's keys come from its defects: no translate is read cell by cell."""

    @pytest.mark.parametrize("count, letters", [(1, "ab"), (10, "ab"), (10, "abc"), (30, "ab"), (30, "abc")])
    def test_counts_without_letter_at(self, count, letters, monkeypatch):
        cfg = _defect_body(count, letters)
        # Every translate that meets a defect, and many that meet none.
        sweep = [(x, y) for x in range(-16, 17) for y in range(-16, 17)]
        shapes = [block(1, 1), block(3, 3), block(4, 2).translate((-2, -3)), HEXAGON.translate((-1, -2))]
        point_sets = [tuple(sorted(s.points)) for s in shapes] + [GAPPED[3]]
        brute = {cells: {extract_pattern(cfg, cells, u) for u in sweep} for cells in point_sets}
        blocks = {(n, k): tuple((x, y) for x in range(n) for y in range(k))
                  for n in range(1, 4) for k in range(1, 5)}
        brute_table = {nk: len({extract_pattern(cfg, cells, u) for u in sweep})
                       for nk, cells in blocks.items()}
        brute_extensions = {}
        for shape in shapes[1:]:
            for line in (HORIZONTAL, DIAGONAL):
                base = tuple(sorted(shape.points - line_section(shape, supporting_line(shape, line))))
                grouped: dict = {}
                for u in sweep:
                    grouped.setdefault(extract_pattern(cfg, base, u), set()).add(
                        extract_pattern(cfg, shape, u))
                brute_extensions[shape, line] = grouped

        def refuse(self, g):
            raise AssertionError(f"letter_at{g} read on a finite-defect body")

        monkeypatch.setattr(FiniteDefect, "letter_at", refuse)
        for cells, patterns in brute.items():
            rep = complexity(cfg, cells)
            assert rep.count == len(patterns) and rep.exact
            assert language(cfg, cells) == patterns
        for (shape, line), grouped in brute_extensions.items():
            table = extension_counts(cfg, shape, line)
            assert {g: set(v) for g, v in table.extensions.items()} == grouped
        table = complexity_table(cfg, 3, 4)
        assert {nk: rep.count for nk, rep in table.items()} == brute_table
        assert all(rep.exact for rep in table.values())

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.sampled_from("bc"),
                           min_size=1, max_size=30), st.integers(1, 6), st.integers(1, 6))
    def test_table_translates(self, defects, n_max, k_max):
        """1 to 30 defects in a 7 x 7 box, many sharing rows and columns: every
        block examines exactly its domain's translates and counts its complexity."""
        cfg = FiniteDefect(Alphabet(("a", *sorted(set(defects.values())))), "a", defects)
        for (n, k), rep in complexity_table(cfg, n_max, k_max).items():
            cells = _block_cells(n, k)
            assert rep.translates_examined == len(cfg.enumeration_domain(cells))
            assert rep == complexity(cfg, cells)
