import random

import pytest

from nivatlab.complexity import complexity, directional_language
from nivatlab.configurations import (
    Alphabet,
    Configuration,
    DiagonalFamily,
    DoublyPeriodic,
    Exactness,
    FiniteDefect,
    Pattern,
    WindowSample,
    config_from_dict,
    extract_pattern,
)
from nivatlab.errors import ConfigurationError, UnknownLetterError
from nivatlab.geometry import Line, block

from conftest import (
    DIAGONAL,
    HORIZONTAL,
    VERTICAL,
    coset_representatives,
    random_doubly_periodic,
)


class TestAlphabet:
    def test_needs_two_letters(self):
        with pytest.raises(ConfigurationError):
            Alphabet(("a",))

    def test_distinct(self):
        with pytest.raises(ConfigurationError):
            Alphabet(("a", "a"))

    def test_single_characters(self):
        with pytest.raises(ConfigurationError):
            Alphabet(("ab", "c"))


class TestLetterAt:
    def test_diagonal_main(self, diagonal):
        assert diagonal.letter_at((5, 5)) == "b"

    def test_diagonal_first_offset(self, diagonal):
        # a = 5, offset 6: (5, 5) + (6, 0)
        assert diagonal.letter_at((11, 5)) == "b"

    def test_diagonal_gaps(self, diagonal):
        assert diagonal.letter_at((5, 0)) == "w"
        assert diagonal.letter_at((6, 0)) == "b"
        assert diagonal.letter_at((13, 0)) == "b"
        assert diagonal.letter_at((14, 0)) == "w"

    def test_defect_background_far_away(self, one_defect):
        assert one_defect.letter_at((7, -3)) == "a"

    def test_window_out_of_range(self, ab):
        w = WindowSample(ab, (0, 0), ["ab", "ba"])
        assert w.letter_at((0, 0)) == "b"  # first row is the top
        with pytest.raises(UnknownLetterError):
            w.letter_at((5, 5))


class TestValidation:
    def test_doubly_periodic_needs_all_letters(self, ab):
        with pytest.raises(ConfigurationError):
            DoublyPeriodic.from_rows(ab, ["aa", "aa"])

    def test_dependent_basis_rejected(self, ab):
        with pytest.raises(ConfigurationError):
            DoublyPeriodic(ab, ((1, 0), (2, 0)), {(0, 0): "a"})

    def test_defect_equal_background_rejected(self, ab):
        with pytest.raises(ConfigurationError):
            FiniteDefect(ab, "a", {(0, 0): "a"})

    def test_defects_required(self, ab):
        with pytest.raises(ConfigurationError):
            FiniteDefect(ab, "a", {})

    def test_window_needs_all_letters(self, ab):
        with pytest.raises(ConfigurationError):
            WindowSample(ab, (0, 0), ["aa", "aa"])


class TestEvaluation:
    def test_doubly_periodic_basis_invariance(self, checkerboard):
        rng = random.Random(1)
        for _ in range(1000):
            g = (rng.randint(-50, 50), rng.randint(-50, 50))
            for b in checkerboard.basis:
                assert checkerboard.letter_at(g) == checkerboard.letter_at(
                    (g[0] + b[0], g[1] + b[1])
                )

    def test_diagonal_family_period(self, diagonal):
        rng = random.Random(2)
        for _ in range(1000):
            g = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            assert diagonal.letter_at(g) == diagonal.letter_at((g[0] + 1, g[1] + 1))

    def test_skew_basis_reduction(self):
        alpha = Alphabet(tuple("abc"))
        reps = coset_representatives((2, 1), (-1, 1), 3)
        cfg = DoublyPeriodic(alpha, ((2, 1), (-1, 1)), dict(zip(reps, "abc")))
        rng = random.Random(3)
        for _ in range(500):
            g = (rng.randint(-30, 30), rng.randint(-30, 30))
            for b in cfg.basis:
                assert cfg.letter_at(g) == cfg.letter_at((g[0] + b[0], g[1] + b[1]))


class TestExtraction:
    def test_background_pattern_far_from_defects(self, one_defect):
        pat = extract_pattern(one_defect, block(2, 2), (100, 100))
        assert set(pat.letters) == {"a"}

    def test_checkerboard_phases_differ(self, checkerboard):
        p0 = extract_pattern(checkerboard, block(2, 2), (0, 0))
        p1 = extract_pattern(checkerboard, block(2, 2), (1, 0))
        assert p0 != p1

    def test_singleton_restriction(self, diagonal):
        pat = extract_pattern(diagonal, [(0, 0)], (4, 4))
        assert pat.letters == (diagonal.letter_at((4, 4)),)

    def test_shift_equivariance(self, checkerboard, one_defect):
        shape = block(2, 3)
        for cfg in (checkerboard, one_defect):
            for v in [(1, 0), (0, 1), (2, -1)]:
                shifted = cfg.shifted(v)
                for u in [(0, 0), (3, 1), (-2, 2)]:
                    uv = (u[0] + v[0], u[1] + v[1])
                    assert extract_pattern(cfg, shape, uv) == extract_pattern(
                        shifted, shape, u
                    )


class TestPattern:
    def test_canonicalization(self):
        a = Pattern.from_cells({(3, 4): "x", (4, 4): "y"})
        b = Pattern.from_cells({(0, 0): "x", (1, 0): "y"})
        assert a == b
        assert a.offsets[0] == (0, 0)

    def test_render(self):
        pat = Pattern.from_cells({(0, 0): "a", (1, 1): "b"})
        assert pat.render() == ".b\na."


class TestEnumerationDomains:
    def test_doubly_periodic_domain_size(self, ab):
        cfg = DoublyPeriodic.from_rows(ab, ["ab", "ba"])  # basis (2,0),(0,2)
        dom = cfg.enumeration_domain(block(3, 3).points)
        assert len(dom) == 4
        assert dom.exactness is Exactness.EXACT

    def test_finite_defect_domain(self, one_defect):
        dom = one_defect.enumeration_domain(block(2, 2).points)
        assert len(dom) == 5  # 4 overlapping + 1 far translate
        assert dom.exactness is Exactness.EXACT

    def test_diagonal_domain_gives_known_count(self, diagonal):
        rep = complexity(diagonal, block(3, 4))
        assert (rep.count, rep.exactness) == (7, Exactness.EXACT)

    def test_window_domain_is_lower_bound(self, ab):
        w = WindowSample(ab, (0, 0), ["ab" * 3] * 6)
        dom = w.enumeration_domain(block(2, 2).points)
        assert dom.exactness is Exactness.LOWER_BOUND
        assert len(dom) == 25

    def test_window_smaller_than_shape_errors(self, ab):
        w = WindowSample(ab, (0, 0), ["ab", "ba"])
        with pytest.raises(UnknownLetterError):
            w.enumeration_domain(block(5, 5).points)


class TestDiagonalDirectionalExactness:
    """The certified directional sweeps must agree with wide brute sweeps."""

    @pytest.mark.parametrize(
        "line,base",
        [
            (HORIZONTAL, (0, 0)),
            (HORIZONTAL, (37, 2)),
            (VERTICAL, (0, 0)),
            (Line(2, 1, 0), (0, 0)),
            (Line(2, 1, 0), (11, 3)),
            (Line(3, 1, 0), (5, -9)),
            (Line(1, -2, 0), (-4, 4)),
            (DIAGONAL, (3, 7)),
        ],
    )
    def test_all_range_matches_brute(self, diagonal, line, base):
        shape = block(3, 3).points
        result = directional_language(diagonal, shape, line, base=base)
        assert result.exactness is Exactness.EXACT
        v = line.minimal_vector()
        brute = set()
        for t in range(-1500, 1501):
            u = (base[0] + t * v[0], base[1] + t * v[1])
            brute.add(extract_pattern(diagonal, shape, u))
        assert result.patterns == brute

    @pytest.mark.parametrize("a", [-3, 0, 5, 40])
    @pytest.mark.parametrize("kind", ["forward", "backward"])
    def test_half_ranges_match_brute(self, diagonal, kind, a):
        shape = block(2, 2).points
        line = Line(2, 1, 0)
        base = (1, 4)
        result = directional_language(diagonal, shape, line, base=base, trange=(kind, a))
        v = line.minimal_vector()
        step = v if kind == "forward" else (-v[0], -v[1])
        brute = set()
        for t in range(a, a + 2500):
            u = (base[0] + t * step[0], base[1] + t * step[1])
            brute.add(extract_pattern(diagonal, shape, u))
        assert result.patterns == brute


class TestDiagonalOffsets:
    def test_offsets_are_partial_sums(self, diagonal):
        # partial sums 6, 6+7, 6+7+8, ... mirrored through zero
        offs = diagonal.offsets_within(100)
        assert offs == [-90, -76, -63, -51, -40, -30, -21, -13, -6, 0,
                        6, 13, 21, 30, 40, 51, 63, 76, 90]

    def test_positive_gaps_strictly_increase(self, diagonal):
        pos = [d for d in diagonal.offsets_within(5000) if d >= 0]
        gaps = [b - a for a, b in zip(pos, pos[1:])]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


class TestConfigFromDict:
    def test_round_trip_types(self):
        diag = config_from_dict({"type": "diagonal_family"})
        assert isinstance(diag, DiagonalFamily)
        dp = config_from_dict(
            {"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": ["ab", "ba"]}
        )
        assert dp.letter_at((0, 0)) != dp.letter_at((1, 0))
        fd = config_from_dict(
            {
                "type": "finite_defect",
                "alphabet": ["w", "b"],
                "background": "w",
                "defects": [[0, 0, "b"]],
            }
        )
        assert fd.letter_at((0, 0)) == "b"
        ws = config_from_dict(
            {"type": "window", "alphabet": ["a", "b"], "origin": [0, 0], "rows": ["ab", "ba"]}
        )
        assert isinstance(ws, WindowSample)

    def test_missing_field_is_diagnosed(self):
        with pytest.raises(ConfigurationError, match="missing field"):
            config_from_dict({"type": "finite_defect", "alphabet": ["a", "b"]})

    def test_unknown_type(self):
        with pytest.raises(ConfigurationError, match="unknown configuration type"):
            config_from_dict({"type": "mystery"})

    @pytest.mark.parametrize("spec, field", [
        ([1, 2], "JSON object"),
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": [1, 2]}, "'rows'"),
        ({"type": "doubly_periodic", "alphabet": [1, 2], "rows": ["ab"]}, "'alphabet'"),
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "basis": [[2, 0], [0]],
          "table": []}, "'basis'"),
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "basis": [[2, 0], [0, 1]],
          "table": [[[0, 0], 1]]}, "'table'"),
        ({"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",
          "defects": [[0, 0]]}, "'defects'"),
        ({"type": "finite_defect", "alphabet": ["w", "b"], "background": ["w"],
          "defects": [[0, 0, "b"]]}, "'background'"),
        ({"type": "diagonal_family", "white": None}, "'white'"),
        ({"type": "window", "alphabet": ["a", "b"], "origin": 3, "rows": ["ab"]}, "'origin'"),
    ])
    def test_malformed_field_is_named(self, spec, field):
        with pytest.raises(ConfigurationError, match=field):
            config_from_dict(spec)


class TestPeriods:
    def test_cached_is_period_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(12):
            cfg = random_doubly_periodic(rng)
            domain = cfg.fundamental_domain()
            r = 2 * abs(cfg._det)
            for h in ((x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)):
                brute = h != (0, 0) and all(
                    cfg.letter_at(g) == cfg.letter_at((g[0] + h[0], g[1] + h[1])) for g in domain
                )
                assert cfg.is_period(h) == brute, (cfg.basis, h)

    def test_torus_contract(self):
        """The torus holds exactly one point of each class modulo the basis lattice."""
        rng = random.Random(43)
        bodies = [random_doubly_periodic(rng) for _ in range(12)]
        bodies.append(DoublyPeriodic(Alphabet(("a", "b")), ((30, 0), (7, 20)),
                                     {(x, y): "ab"[(x * y + x) % 3 == 0]
                                      for x in range(30) for y in range(20)}))
        for cfg in bodies:
            xs, ys = cfg.translate_box(block(2, 2))
            assert xs.start == ys.start == 0 and xs.step == ys.step == 1
            reduced = [cfg.reduce((x, y)) for x in xs for y in ys]
            assert sorted(reduced) == list(cfg.fundamental_domain()), cfg.basis
            assert cfg.reduce((len(xs), 0)) == (0, 0)  # (a, 0) is a lattice vector

    def test_rows_match_letter_at(self, diagonal):
        """row(y, lo, hi) and band(lo, hi) read the same letters as letter_at."""
        rng = random.Random(47)
        bodies = [random_doubly_periodic(rng) for _ in range(10)]
        bodies.append(WindowSample(Alphabet(("a", "b")), (-4, 3), ["abbab", "bbaab", "aabab"]))
        for cfg in bodies:
            if isinstance(cfg, WindowSample):
                spans = [(y, lo, hi) for y in range(3, 6) for lo in range(-4, 1)
                         for hi in range(lo + 1, 2)]
            else:
                spans = [(rng.randint(-40, 40), lo, lo + rng.randint(0, 50))
                         for lo in range(-30, 30, 7)]
            for y, lo, hi in spans:
                assert cfg.row(y, lo, hi) == "".join(cfg.letter_at((x, y)) for x in range(lo, hi))
        for lo, hi in [(-5, 5), (-300, -200), (990, 1010), (-3000, 3000)]:
            assert diagonal.band(lo, hi) == "".join(diagonal.letter_at((c, 0)) for c in range(lo, hi))

    def test_periods_from_lattice_match_scan(self):
        """periods_within lists the period lattice; it must equal testing every h in the box."""
        rng = random.Random(53)
        bodies = [random_doubly_periodic(rng) for _ in range(30)]
        for p, q, shear, tile in [(60, 60, 0, 1), (40, 40, 0, 1), (20, 50, 0, 2), (30, 20, 7, 1),
                                  (24, 36, 0, 6), (12, 8, 5, 3), (18, 4, 3, 6)]:
            rows = ["a" * p]
            while len(set("".join(rows))) < 2:  # each row repeats a random tile
                rows = [("".join(rng.choice("ab") for _ in range(tile)) * p)[:p] for _ in range(q)]
            bodies.append(DoublyPeriodic(Alphabet(("a", "b")), ((p, 0), (shear, q)),
                                         {(x, y): rows[y][x] for x in range(p) for y in range(q)}))
        found = 0
        for cfg in bodies:
            for bound in (5, 10, 60) if abs(cfg._det) >= 100 else (5, 10):
                scan = Configuration.periods_within(cfg, bound)
                assert cfg.periods_within(bound) == scan, (cfg.basis, bound)
                found += len(scan)
        assert found > 0

    def test_window_period_matches_brute_force(self, ab):
        rng = random.Random(59)
        for _ in range(20):
            rows = ["".join(rng.choice("ab") for _ in range(6)) for _ in range(5)]
            rows[0] = "ab" + rows[0][2:]
            cfg = WindowSample(ab, (rng.randint(-3, 3), rng.randint(-3, 3)), rows)
            cells = [(x, y) for x in range(-10, 10) for y in range(-10, 10) if cfg._inside((x, y))]
            for h in [(x, y) for x in range(-7, 8) for y in range(-6, 7)]:
                pairs = [(g, (g[0] + h[0], g[1] + h[1])) for g in cells]
                pairs = [(g, gh) for g, gh in pairs if cfg._inside(gh)]
                brute = h != (0, 0) and bool(pairs) and all(
                    cfg.letter_at(g) == cfg.letter_at(gh) for g, gh in pairs)
                assert cfg.is_period(h) == brute, (rows, h)

    def test_uncertified_bodies_never_merge(self, ab, one_defect):
        """Without certified periods no two translates are merged: a window's
        box of translates is its whole domain, and a defect body has no box."""
        window = WindowSample(ab, (-2, 1), ["ab" * 4] * 8)
        for cells in [((0, 0),), ((0, 0), (2, 1)), tuple(sorted(block(3, 2).points))]:
            xs, ys = window.translate_box(cells)
            assert [(x, y) for x in xs for y in ys] == list(window.enumeration_domain(cells))
        assert not hasattr(one_defect, "translate_box")
