import random

import pytest
from hypothesis import given, settings
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
    DiagonalFamily,
    DoublyPeriodic,
    Exactness,
    FiniteDefect,
    WindowSample,
    extract_pattern,
)
from nivatlab.errors import GeometryError
from nivatlab.geometry import ConvexLatticeSet, Line, block, convex_hull

from conftest import (
    DIAGONAL,
    HORIZONTAL,
    VERTICAL,
    enumerate_convex_subsets,
    naive_complexity,
    random_doubly_periodic,
    random_finite_defect,
)


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
            m = abs(cfg._det)
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
            box = abs(cfg._det)
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


class TestTable:
    def test_low_range_values(self, diagonal):
        table = complexity_table(diagonal, 4, 4)
        for (n, k), rep in table.items():
            if n + k <= 7:
                assert rep.count == n + k

    def test_csv_shape(self, checkerboard):
        text = table_to_csv(complexity_table(checkerboard, 2, 2))
        assert text.splitlines()[0] == "n,k,count,exact"
        assert len(text.splitlines()) == 5


class TestDirectionalLanguage:
    def test_period_direction_is_constant(self, diagonal):
        for shape in (block(2, 2), block(3, 4)):
            dl = directional_language(diagonal, shape, DIAGONAL)
            assert len(dl) == 1 and dl.exactness is Exactness.EXACT

    def test_checkerboard_single_cell(self, checkerboard):
        dl = directional_language(checkerboard, [(0, 0)], HORIZONTAL)
        assert len(dl) == 2

    def test_forward_equals_all_for_doubly_periodic(self, checkerboard):
        shape = block(2, 2)
        full = directional_language(checkerboard, shape, HORIZONTAL)
        fwd = directional_language(checkerboard, shape, HORIZONTAL, trange=("forward", 5))
        bwd = directional_language(checkerboard, shape, HORIZONTAL, trange=("backward", -3))
        assert fwd.patterns == full.patterns == bwd.patterns

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
        return _sheared(rng, p, q, shear)
    if kind == "defect":
        return random_finite_defect(rng, AB)
    while True:
        rows = ["".join(rng.choice("ab") for _ in range(rng.randint(5, 7))) for _ in range(6)]
        if len(set(map(len, rows))) == 1 and set("".join(rows)) == {"a", "b"}:
            return WindowSample(AB, (rng.randint(-3, 3), rng.randint(-3, 3)), rows)


def _sheared(rng, p: int, q: int, shear: int) -> DoublyPeriodic:
    letters = [rng.choice("ab") for _ in range(p * q - 2)] + ["a", "b"]
    rng.shuffle(letters)
    table = {(x, y): letters[x * q + y] for x in range(p) for y in range(q)}
    return DoublyPeriodic(AB, ((p, 0), (shear, q)), table)


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
            p = q = abs(cfg._det)
        us = [(x, y) for x in range(p) for y in range(q)]
    else:  # defects lie in [-4, 4]^2 and windows in [-3, 10]^2; cells lie in [-5, 5)^2
        us = [(x, y) for x in range(-14, 15) for y in range(-14, 15)]
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

    def test_band_runs_skip_gaps(self, diagonal):
        """A gap in the x - y values of the cells is not read into the key."""
        for cells in GAPPED + [((0, 0), (2, 0), (5, 0)), ((0, 0), (6, 0), (7, 0))]:
            assert complexity(diagonal, cells).count == len(_brute_language(diagonal, cells))

    def test_sheared_torus_and_rows(self):
        """The basis (30, 0), (7, 20) rotates each row by 7 per 20 rows; rows with gaps split."""
        cfg = _sheared(random.Random(3), 30, 20, 7)
        assert cfg.translate_box(()) == (range(30), range(20))
        for y in (-41, -20, -1, 0, 13, 20, 27, 45):
            assert cfg.row(y, -35, 40) == "".join(cfg.letter_at((x, y)) for x in range(-35, 40))
            assert cfg.row(y + 20, 7, 37) == cfg.row(y, 0, 30)
        shapes = [block(6, 6), block(2, 3).translate((-5, -7)), HEXAGON]
        for cells in [tuple(sorted(shape.points)) for shape in shapes] + GAPPED:
            brute = {extract_pattern(cfg, cells, (x, y)) for x in range(30) for y in range(20)}
            rep = complexity(cfg, cells)
            assert rep.count == len(brute) and rep.translates_examined == 600
            assert language(cfg, cells) == brute

    @settings(max_examples=120, deadline=None)
    @given(bodies, point_sets)
    def test_complexity_and_language(self, body, cells):
        cfg = _body(*body)
        brute = _brute_language(cfg, cells)
        rep = complexity(cfg, cells)
        assert rep.count == len(brute)
        assert rep.exact == (not isinstance(cfg, WindowSample))
        assert language(cfg, cells) == brute
        if isinstance(cfg, DoublyPeriodic):
            assert rep.count == naive_complexity(cfg, cells, abs(cfg._det))

    @settings(max_examples=80, deadline=None)
    @given(bodies, point_sets, st.sampled_from(LINES),
           st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
           st.sampled_from([("all", 0), ("forward", 2), ("backward", -1)]))
    def test_directional_language(self, body, cells, line, base, trange):
        cfg = _body(*body)
        v = line.minimal_vector()
        kind, a = trange
        if kind == "backward":
            v = (-v[0], -v[1])
        ts = range(-SWEEP, SWEEP + 1) if kind == "all" else range(a, a + 2 * SWEEP + 1)
        us = [(base[0] + t * v[0], base[1] + t * v[1]) for t in ts]
        brute = {extract_pattern(cfg, cells, u) for u in us if _fits(cfg, cells, u)}
        assert directional_language(cfg, cells, line, base, trange).patterns == frozenset(brute)

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

    @settings(max_examples=40, deadline=None)
    @given(bodies, st.integers(1, 4), st.integers(1, 4))
    def test_complexity_table(self, body, n_max, k_max):
        cfg = _body(*body)
        table = complexity_table(cfg, n_max, k_max)
        assert sorted(table) == [(n, k) for n in range(1, n_max + 1) for k in range(1, k_max + 1)]
        for (n, k), rep in table.items():
            cells = tuple((x, y) for x in range(n) for y in range(k))
            assert rep == complexity(cfg, cells)
            assert rep.count == len(_brute_language(cfg, cells))

