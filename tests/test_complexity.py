import random

import pytest

from nivatlab.complexity import (
    complexity,
    complexity_table,
    directional_language,
    extension_counts,
    language,
    language_report,
    table_to_csv,
)
from nivatlab.configurations import Exactness, WindowSample, extract_pattern
from nivatlab.errors import GeometryError
from nivatlab.geometry import ConvexLatticeSet, block, convex_hull

from conftest import (
    DIAGONAL,
    HORIZONTAL,
    VERTICAL,
    enumerate_convex_subsets,
    naive_complexity,
    random_doubly_periodic,
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
