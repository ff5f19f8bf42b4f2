import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nivatlab.complexity import (
    complexity,
    complexity_table,
    directional_language,
    extension_counts,
    language,
    language_report,
)
from nivatlab.configurations import (
    Alphabet,
    Configuration,
    DiagonalFamily,
    DoublyPeriodic,
    Exactness,
    FiniteDefect,
    Pattern,
    TranslateBox,
    WindowSample,
    config_from_dict,
    extract_pattern,
)
from nivatlab.errors import ConfigurationError, UnknownLetterError
from nivatlab.geometry import Line, block, convex_hull, psub

from conftest import (
    BODY_DIAGNOSTICS,
    DIAGONAL,
    HORIZONTAL,
    PERIODIC_TABLES,
    VERTICAL,
    basis_det,
    basis_domain,
    basis_reduce,
    brute_is_period,
    brute_torus_size,
    coset_representatives,
    random_doubly_periodic,
    random_finite_defect,
    sheared_doubly_periodic,
    tiled_doubly_periodic,
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

    def test_window_names_first_foreign_letter_in_row_order(self, ab):
        with pytest.raises(ConfigurationError) as exc:
            WindowSample(ab, (0, 0), ["abz", "xab", "zxa"])
        assert str(exc.value) == "letter 'z' not in alphabet"


def _from_table(alphabet, rows):
    """The body of a character grid through the table constructor, first row at the top."""
    n, k = len(rows[0]), len(rows)
    table = {(x, k - 1 - y): rows[y][x] for y in range(k) for x in range(n)}
    return DoublyPeriodic(alphabet, ((n, 0), (0, k)), table)


class TestFromRows:
    """`from_rows` keeps its rows as torus rows; the table constructor is the reference."""

    def test_random_grids_match_the_table_constructor(self):
        rng = random.Random(23)
        shapes = [block(1, 1), block(2, 3), block(4, 2), convex_hull([(0, 0), (2, 1), (1, 3)])]
        for _ in range(150):
            alphabet = Alphabet(tuple("abcd"[:rng.randint(2, 4)]))
            w, h = rng.randint(1, 4), rng.randint(1, 4)
            tile = ["".join(rng.choice(alphabet.letters) for _ in range(w)) for _ in range(h)]
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            rows = [row * i for row in tile] * j
            if set("".join(rows)) != set(alphabet.letters):
                continue
            body, reference = DoublyPeriodic.from_rows(alphabet, rows), _from_table(alphabet, rows)
            assert list(vars(body)) == list(vars(reference))  # attributes set in one order
            assert (body.alphabet, body.basis, body._hnf, body._rows) == (
                reference.alphabet, reference.basis, reference._hnf, reference._rows)
            assert body.periods_within(6) == reference.periods_within(6)
            assert [complexity(body, s).count for s in shapes] == [complexity(reference, s).count for s in shapes]

    @pytest.mark.parametrize("rows, message", [
        (["ab", "b"], "rows must be nonempty and rectangular"),
        (["az", "b"], "rows must be nonempty and rectangular"),
        ([""], "basis vectors must be linearly independent"),
        (["", ""], "basis vectors must be linearly independent"),
        (["ab", "zx"], "letter 'z' not in alphabet"),
        (["abx", "zab"], "letter 'x' not in alphabet"),
        (["aaz", "aaa"], "letter 'z' not in alphabet"),
        (["aa", "aa"], "every alphabet letter must occur in the fundamental domain"),
    ])
    def test_diagnostics_in_order(self, ab, rows, message):
        with pytest.raises(ConfigurationError) as exc:
            DoublyPeriodic.from_rows(ab, rows)
        assert str(exc.value) == message
        if len(set(map(len, rows))) == 1:
            with pytest.raises(ConfigurationError) as exc:
                _from_table(ab, rows)
            assert str(exc.value) == message


class TestPeriodicTableDiagnostics:
    """Each table of PERIODIC_TABLES loads, or draws its one diagnostic, both
    from the constructor and from its JSON spec."""

    @pytest.mark.parametrize("basis, entries, message", PERIODIC_TABLES)
    def test_constructor(self, ab, basis, entries, message):
        if message is not None:
            with pytest.raises(ConfigurationError) as exc:
                DoublyPeriodic(ab, basis, dict(entries))
            assert str(exc.value) == message
            return
        cfg = DoublyPeriodic(ab, basis, dict(entries))
        # A coset listed twice is one coset: the body is the one its first
        # cells give, which list each coset once.
        once = DoublyPeriodic(ab, basis, dict(entries[:-1]))
        assert basis_det(cfg) == len(entries) - 1
        # The domain is the torus of the period lattice, whose index is read by brute force.
        assert list(cfg.enumeration_domain(())) == list(once.enumeration_domain(()))
        assert len(cfg.enumeration_domain(())) == brute_torus_size(cfg)
        box = [(x, y) for x in range(-5, 6) for y in range(-5, 6)]
        assert [cfg.letter_at(g) for g in box] == [once.letter_at(g) for g in box]
        assert all(cfg.letter_at(g) == a for g, a in entries)

    @pytest.mark.parametrize("basis, entries, message", PERIODIC_TABLES)
    def test_spec(self, basis, entries, message):
        spec = {"type": "doubly_periodic", "alphabet": ["a", "b"], "basis": [list(b) for b in basis],
                "table": [[list(g), a] for g, a in entries]}
        if message is None:
            cfg = config_from_dict(spec)
            built = DoublyPeriodic(cfg.alphabet, basis, dict(entries))
            assert list(cfg.enumeration_domain(())) == list(built.enumeration_domain(()))
            assert all(cfg.letter_at(g) == a for g, a in entries)
        else:
            with pytest.raises(ConfigurationError) as exc:
                config_from_dict(spec)
            assert str(exc.value) == message


class TestBodyDiagnostics:
    """Each body of BODY_DIAGNOSTICS draws its one diagnostic, both from the
    constructor and from its JSON spec."""

    @pytest.mark.parametrize("build, args, spec, message", BODY_DIAGNOSTICS)
    def test_constructor_and_spec(self, build, args, spec, message):
        with pytest.raises(ConfigurationError) as exc:
            build(*args)
        assert str(exc.value) == message
        with pytest.raises(ConfigurationError) as exc:
            config_from_dict(spec)
        assert str(exc.value) == message

    def test_window_row_stays_inside_the_window(self, ab):
        w = WindowSample(ab, (-2, -1), ["abbab", "babba", "abaab"])  # x in -2..2, y in -1..1
        assert [w.row(y, -2, 3) for y in (1, 0, -1)] == ["abbab", "babba", "abaab"]
        for y, lo, hi in [(2, -2, 3), (-2, 0, 1), (0, -3, 1), (0, 0, 4)]:
            with pytest.raises(UnknownLetterError) as exc:
                w.row(y, lo, hi)
            assert str(exc.value) == f"row {y} from {lo} to {hi} leaves the sampled window"


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


def _grid(cells, outside: str) -> str:
    """A text grid of (point, letter) pairs, highest y first, drawn without Pattern."""
    at = dict(cells)
    xs, ys = [x for x, _ in at], [y for _, y in at]
    return "\n".join("".join(at.get((x, y), outside) for x in range(min(xs), max(xs) + 1))
                     for y in range(max(ys), min(ys) - 1, -1))


def _check_language(cfg, translates, cells, outside: str) -> frozenset:
    """The engine's language of the cells, checked pattern by pattern against
    patterns built from letters read with letter_at at every translate."""
    engine = language(cfg, cells)
    twins = {p: p for p in engine}
    read = set()
    for ux, uy in translates:
        if isinstance(cfg, WindowSample) and not all(
                cfg._inside((x + ux, y + uy)) for x, y in cells):
            continue
        letters = {(x, y): cfg.letter_at((x + ux, y + uy)) for x, y in cells}
        x0, y0 = cells[0]
        expected = tuple(((x - x0, y - y0), letters[x, y]) for x, y in cells)
        if expected in read:
            continue
        read.add(expected)
        for pat in (Pattern(expected), Pattern.from_cells(letters), Pattern.from_cells(expected)):
            twin = twins[pat]
            assert pat == twin and twin == pat and hash(pat) == hash(twin)
            assert pat.cells == twin.cells == expected
            assert pat.offsets == twin.offsets == tuple(g for g, _ in expected)
            assert pat.letters == twin.letters == tuple(a for _, a in expected)
            assert len(pat) == len(twin) == len(cells)
            assert repr(pat) == repr(twin) == f"Pattern(cells={expected!r})"
            assert pat.render(outside) == twin.render(outside) == _grid(expected, outside)
    assert {p.cells for p in engine} == read
    return engine


CONTRACT_KINDS = ["defect", "diagonal", "periodic", "window"]
HEXAGON = convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])


def _contract_body(kind: str, rng: random.Random):
    """A body, and translates that realize every pattern of cells in [-2, 2]^2."""
    if kind == "periodic":
        # A lattice of index d holds (d, 0) and (0, d), so [0, d)^2 holds a residue system.
        cfg = random_doubly_periodic(rng)
        d = basis_det(cfg)
        return cfg, [(x, y) for x in range(d) for y in range(d)]
    if kind == "defect":  # defects lie in [-4, 4]^2
        cfg = random_finite_defect(rng, Alphabet(("a", "b")))
        return cfg, [(x, y) for x in range(-8, 9) for y in range(-8, 9)]
    if kind == "diagonal":
        return DiagonalFamily(*rng.sample("bw", 2)), [(t, 0) for t in range(-80, 81)]
    origin = (rng.randint(-4, 4), rng.randint(-4, 4))
    while True:
        rows = ["".join(rng.choice("abc") for _ in range(6)) for _ in range(5)]
        if set("".join(rows)) == set("abc"):
            cfg = WindowSample(Alphabet(("a", "b", "c")), origin, rows)
            return cfg, [(x, y) for x in range(origin[0] - 3, origin[0] + 9)
                         for y in range(origin[1] - 3, origin[1] + 8)]


class TestPattern:
    def test_canonicalization(self):
        a = Pattern.from_cells({(3, 4): "x", (4, 4): "y"})
        b = Pattern.from_cells({(0, 0): "x", (1, 0): "y"})
        assert a == b
        assert a.offsets[0] == (0, 0)

    def test_render(self):
        pat = Pattern.from_cells({(0, 0): "a", (1, 1): "b"})
        assert pat.render() == ".b\na."

    def test_value_semantics(self):
        """Equal exactly when the cells are; immutable; copies and pickles are equal."""
        row = Pattern.from_cells({(0, 0): "a", (1, 0): "b"})
        column = Pattern.from_cells({(0, 0): "a", (0, 1): "b"})
        assert row.word == column.word and row != column and row != row.cells
        pat = Pattern.from_cells({(2, 1): "a", (3, 3): "b"})
        for name in ("cells", "offsets", "word", "letters", "extra"):
            with pytest.raises(AttributeError):
                setattr(pat, name, None)
        with pytest.raises(AttributeError):
            del pat.word
        assert pat.cells == (((0, 0), "a"), ((1, 2), "b"))
        for twin in (copy.copy(pat), copy.deepcopy(pat), pickle.loads(pickle.dumps(pat))):
            assert twin == pat and repr(twin) == repr(pat)
        with pytest.raises(ValueError, match="single characters"):
            Pattern((((0, 0), "ab"),))

    def test_empty_pattern(self):
        empty = Pattern(())
        assert (empty.cells, empty.offsets, empty.letters, len(empty)) == ((), (), (), 0)
        assert empty == Pattern.from_cells({}) and repr(empty) == "Pattern(cells=())"
        assert empty.render() == "" and language(DiagonalFamily(), []) == {empty}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CONTRACT_KINDS), st.integers(0, 10**6),
           st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=6),
           st.sampled_from([".", " ", "#", "--"]))
    def test_every_constructor_keeps_the_contract(self, kind, seed, cells, outside):
        """Patterns from `Pattern(cells)`, `from_cells`, `language` and
        `extension_counts` agree on every part of the API, on any cell set."""
        cfg, translates = _contract_body(kind, random.Random(seed))
        checked = _check_language(cfg, translates, sorted(cells), outside)
        shape = random.Random(seed).choice([block(2, 3), block(3, 2), HEXAGON])
        line = random.Random(seed).choice([HORIZONTAL, VERTICAL, DIAGONAL])
        table = extension_counts(cfg, shape, line)
        full = _check_language(cfg, translates, sorted(shape.points), outside)
        base = _check_language(cfg, translates, table.base, outside)
        # A window fits the base at translates where the shape does not fit.
        assert set(table.extensions) == base or cfg.exactness is not Exactness.EXACT
        assert set(table.extensions) <= base
        assert {p for group in table.extensions.values() for p in group} == full
        for pat in [*checked, *table.extensions, *table.extensions[next(iter(table.extensions))]]:
            with pytest.raises(AttributeError):
                pat.word = "x"



def _parallelogram(b1, b2) -> list:
    """The lattice points s*b1 + t*b2 with 0 <= s, t < 1, in ascending order."""
    det = b1[0] * b2[1] - b1[1] * b2[0]
    xs, ys = (0, b1[0], b2[0], b1[0] + b2[0]), (0, b1[1], b2[1], b1[1] + b2[1])
    return [(x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)
            if 0 <= Fraction(x * b2[1] - y * b2[0], det) < 1
            and 0 <= Fraction(b1[0] * y - b1[1] * x, det) < 1]


EXACTNESS_BODIES = {
    "doubly_periodic": DoublyPeriodic(Alphabet(("a", "b")), ((3, 1), (-1, 2)),
                                      {g: "ab"[i % 2] for i, g in enumerate(_parallelogram((3, 1), (-1, 2)))}),
    "defect": FiniteDefect(Alphabet(("a", "b")), "a", {(0, 0): "b", (2, -1): "b", (-3, 4): "b"}),
    "diagonal": DiagonalFamily(),
    "window": WindowSample(Alphabet(("a", "b")), (-2, 1), ["abbab", "babba", "abaab", "bbaba"]),
}

# The box bodies, each with shapes to take its domain of: the torus of the
# checkerboard is 2 x 1, of the sheared body 30 x 20, and the diagonal
# family's sweep is one row.
BOX_BODIES = {
    "checkerboard": (DoublyPeriodic.from_rows(Alphabet(("a", "b")), ["ab", "ba"]), [block(3, 3).points]),
    "sheared": (sheared_doubly_periodic(random.Random(3), 30, 20, 7), [block(2, 2).points, HEXAGON.points]),
    "window": (EXACTNESS_BODIES["window"], [block(2, 2).points, [(0, 0), (3, 1)]]),
    "diagonal": (DiagonalFamily(), [block(1, 1).points, block(3, 4).translate((5, -2)).points,
                                    [(0, 0), (3, 1)], HEXAGON.translate((-7, 30)).points]),
}


class TestEnumerationDomains:
    """Each domain's translates in order, and the exactness every report takes from its body.

    Domain order shows in `MClass.translate` and `condition_ii`, which keep
    the first translate of each class.
    """

    def test_doubly_periodic_domain_size(self, ab):
        # The checkerboard's basis is (2,0),(0,2), its period lattice (2,0),(1,1).
        cfg = DoublyPeriodic.from_rows(ab, ["ab", "ba"])
        assert list(cfg.enumeration_domain(block(3, 3).points)) == [(0, 0), (1, 0)]
        # Basis (3,1),(-1,2), of prime index 7 and with no period but its own lattice,
        # whose Hermite normal form is (7,0),(b,1): the torus is one row of 7.
        sheared = EXACTNESS_BODIES["doubly_periodic"]
        for cells in [block(3, 3).points, [(5, -2)]]:
            assert list(sheared.enumeration_domain(cells)) == [(x, 0) for x in range(7)]
        assert len(_parallelogram((3, 1), (-1, 2))) == brute_torus_size(sheared) == 7

    def test_finite_defect_domain(self, one_defect):
        dom = one_defect.enumeration_domain(block(2, 2).points)
        assert len(dom) == 5  # 4 overlapping + 1 far translate
        assert list(dom) == [(-1, -1), (-1, 0), (0, -1), (0, 0), (1, 0)]
        cfg = EXACTNESS_BODIES["defect"]
        for cells in [block(2, 3).points, convex_hull([(-1, 2), (3, 0), (1, 4)]).points]:
            overlapping = sorted({(dx - sx, dy - sy) for dx, dy in cfg.defects for sx, sy in cells})
            far = (max(dx for dx, _ in cfg.defects) - min(sx for sx, _ in cells) + 1, 0)
            assert list(cfg.enumeration_domain(cells)) == overlapping + [far]

    def test_diagonal_domain_gives_known_count(self, diagonal):
        rep = complexity(diagonal, block(3, 4))
        assert (rep.count, rep.exactness) == (7, Exactness.EXACT)
        for cells in [block(3, 4).points, convex_hull([(-1, 2), (3, 0), (1, 4)]).points]:
            dom = list(diagonal.enumeration_domain(cells))
            first = dom[0][0]
            assert dom == [(d, 0) for d in range(first, first + len(dom))]
            # The sweep is symmetric about minus the least x - y of the shape.
            assert first + dom[-1][0] == -2 * min(x - y for x, y in cells)

    @pytest.mark.parametrize("kind", sorted(BOX_BODIES))
    def test_box_domain_is_a_product_view(self, kind):
        """A box body's domain is a read-only sequence with the length, order,
        indexing, slicing and search of the list of `product(xs, ys)`."""
        cfg, shapes = BOX_BODIES[kind]
        for cells in shapes:
            dom = cfg.enumeration_domain(cells)
            assert isinstance(dom, TranslateBox) and isinstance(dom.xs, range) and isinstance(dom.ys, range)
            old = list(product(dom.xs, dom.ys))
            n = len(old)
            if kind == "diagonal":  # the sweep (d, 0): the window minimum lo + d runs across [-m, m]
                lo, m = min(x - y for x, y in cells), n // 2
                assert old == [(d, 0) for d in range(-m - lo, m - lo + 1)]
            assert len(dom) == n and list(dom) == old and list(reversed(dom)) == old[::-1]
            for i in (0, 1, n // 2, n - 1, -1, -2, -(n // 2), -n):
                assert dom[i] == old[i]
            for s in (slice(None), slice(3, 9), slice(-5, None), slice(None, -7), slice(None, None, -2),
                      slice(10, 2, -3), slice(n + 5, None)):
                assert dom[s] == tuple(old[s])
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    dom[i]
            assert old[n // 2] in dom and old[-1] in dom
            assert (dom.xs[0] - 1, dom.ys[0]) not in dom and (dom.xs[-1], dom.ys[-1] + 1) not in dom
            assert dom.index(old[-1]) == n - 1 and dom.count(old[0]) == 1
            with pytest.raises(TypeError):
                dom[0] = (0, 0)

    def test_one_domain_method(self):
        """`enumeration_domain` is the only domain method of every body."""
        for cfg in EXACTNESS_BODIES.values():
            for name in ("translate_box", "domain_size", "block_domain_size"):
                assert not hasattr(cfg, name), (type(cfg).__name__, name)

    def test_window_domain_is_lower_bound(self, ab):
        w = WindowSample(ab, (0, 0), ["ab" * 3] * 6)
        assert w.exactness is Exactness.LOWER_BOUND
        assert len(w.enumeration_domain(block(2, 2).points)) == 25

    def test_window_smaller_than_shape_errors(self, ab):
        w = WindowSample(ab, (0, 0), ["ab", "ba"])
        with pytest.raises(UnknownLetterError):
            w.enumeration_domain(block(5, 5).points)

    @pytest.mark.parametrize("kind", sorted(EXACTNESS_BODIES))
    def test_reports_take_the_body_exactness(self, kind):
        cfg = EXACTNESS_BODIES[kind]
        expected = Exactness.LOWER_BOUND if kind == "window" else Exactness.EXACT
        assert cfg.exactness is expected
        assert "exactness" not in vars(cfg)  # a fact of the class, not of the instance
        shape = block(3, 2)
        cells = sorted(shape.points)
        rep = complexity(cfg, shape)
        assert rep.exactness is expected
        assert rep.translates_examined == len(cfg.enumeration_domain(cells))
        assert language_report(cfg, shape)[1] is expected
        for line in (HORIZONTAL, VERTICAL, DIAGONAL):
            assert directional_language(cfg, shape, line, base=(-1, 2)).exactness is expected
            assert extension_counts(cfg, shape, line).exactness is expected
        for (n, k), r in complexity_table(cfg, 3, 3).items():
            assert r.exactness is expected
            assert r.translates_examined == len(cfg.enumeration_domain(block(n, k).points))

    def test_diagonal_domain_sizes_in_closed_form(self, diagonal):
        # 2m + 1 translates with m = sigma(max(6, w) + 2) + w + 1, where w is
        # the shape's x - y width and sigma(c) = 6 + 7 + ... + c: 45 for one
        # cell, 723 for block(13, 13) (w = 24).  A table reports the same sizes.
        table = complexity_table(diagonal, 13, 13)
        for (n, k), size in [((1, 1), 45), ((3, 4), 55), ((13, 13), 723)]:
            assert len(diagonal.enumeration_domain(block(n, k).points)) == size
            assert table[n, k].translates_examined == size

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(CONTRACT_KINDS), st.integers(0, 10**6), st.data())
    def test_domain_size_is_the_domain_length(self, kind, seed, data):
        """`len(enumeration_domain)` is the number of translates the domain
        yields on blocks, hexagons, point sets whose x - y values have gaps and
        the empty shape; a count examines exactly the domain's translates.  The
        empty shape's domain is nonempty on every body: a defect body's is its
        far translate alone, a window's the whole window."""
        cfg, _ = _contract_body(kind, random.Random(seed))
        at = data.draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
        a, b, c = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
        shape = data.draw(st.sampled_from([
            sorted(block(a + 1, c + 1).points),
            sorted(convex_hull([(0, 0), (a, 0), (a + b, b), (a + b, b + c), (b, b + c), (0, c)]).points),
            sorted(data.draw(st.sets(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                                     min_size=1, max_size=6))),
            [],
        ]))
        cells = [(x + at[0], y + at[1]) for x, y in shape]
        if not cells:
            domain = cfg.enumeration_domain(cells)
            assert len(domain) >= 1
            assert len(list(domain)) == len(domain)
            if isinstance(cfg, FiniteDefect):
                assert len(domain) == 1
            if isinstance(cfg, WindowSample):
                assert len(domain) == cfg.width * cfg.height
            return
        span = [max(v) - min(v) + 1 for v in zip(*cells)]
        if isinstance(cfg, WindowSample) and (span[0] > cfg.width or span[1] > cfg.height):
            message = f"the {cfg.width}x{cfg.height} window cannot fit the shape anywhere"
            for call in (cfg.enumeration_domain, lambda g: complexity(cfg, g)):
                with pytest.raises(UnknownLetterError) as err:
                    call(cells)
                assert str(err.value) == message
            return
        size = len(cfg.enumeration_domain(cells))
        assert len(list(cfg.enumeration_domain(cells))) == size
        assert complexity(cfg, cells).translates_examined == size


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
        # Coordinates are JSON integers only, and rows and alphabets arrays only:
        # nothing is truncated, converted or split into letters.
        ({"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",
          "defects": [[0.9, 0, "b"]]}, "'defects'"),
        ({"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",
          "defects": [[0, True, "b"]]}, "'defects'"),
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "basis": [[2.5, 0], [0, 1]],
          "table": [[[0, 0], "a"], [[1, 0], "b"]]}, "'basis'"),
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "basis": [[2, 0], [0, 1]],
          "table": [[[0, 0.0], "a"], [[1, 0], "b"]]}, "'table'"),
        ({"type": "window", "alphabet": ["a", "b"], "origin": [True, "7"], "rows": ["ab"]}, "'origin'"),
        ({"type": "window", "alphabet": ["a", "b"], "origin": "12", "rows": ["ab"]}, "'origin'"),
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": "ab"}, "'rows'"),
        ({"type": "window", "alphabet": ["a", "b"], "rows": "ab"}, "'rows'"),
        ({"type": "window", "alphabet": "ab", "rows": ["ab"]}, "'alphabet'"),
        # A spec that could mean two bodies is refused: a coordinate listed
        # twice, or rows given beside a basis or a table.
        ({"type": "finite_defect", "alphabet": ["w", "b", "c"], "background": "w",
          "defects": [[0, 0, "b"], [0, 0, "c"], [1, 0, "b"]]}, "'defects'"),
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "basis": [[2, 0], [0, 1]],
          "table": [[[0, 0], "a"], [[1, 0], "b"], [[0, 0], "b"]]}, "'table'"),
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": ["ab", "ba"], "basis": "junk"},
         "'basis'"),
    ])
    def test_malformed_field_is_named(self, spec, field):
        with pytest.raises(ConfigurationError, match=field):
            config_from_dict(spec)


class TestPeriods:
    def test_cached_is_period_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(12):
            cfg = random_doubly_periodic(rng)
            domain = basis_domain(cfg.basis)
            r = 2 * basis_det(cfg)
            for h in ((x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)):
                brute = h != (0, 0) and all(
                    cfg.letter_at(g) == cfg.letter_at((g[0] + h[0], g[1] + h[1])) for g in domain
                )
                assert cfg.is_period(h) == brute, (cfg.basis, h)

    def test_torus_contract(self):
        """The torus holds exactly one point of each class modulo the full
        period lattice: that lattice holds the basis, every vector of it is a
        period, and every period in a box is one of its vectors."""
        rng = random.Random(43)
        bodies = [random_doubly_periodic(rng) for _ in range(12)]
        bodies += [tiled_doubly_periodic(rng, sheared) for sheared in (False, True) for _ in range(8)]
        bodies.append(DoublyPeriodic(Alphabet(("a", "b")), ((30, 0), (7, 20)),
                                     {(x, y): "ab"[(x * y + x) % 3 == 0]
                                      for x in range(30) for y in range(20)}))
        finer = [cfg for cfg in bodies if basis_det(cfg) > len(cfg.enumeration_domain(()))]
        assert len(finer) >= 8  # bodies whose period lattice is finer than their basis lattice
        for cfg in bodies:
            domain = basis_domain(cfg.basis)
            torus = cfg.enumeration_domain(block(2, 2))
            xs, ys = torus.xs, torus.ys
            assert xs.start == ys.start == 0 and xs.step == ys.step == 1
            assert list(torus) == [(x, y) for x in xs for y in ys]
            assert list(cfg._rows) == [cfg.row(y, 0, len(xs)) for y in ys]  # the body keeps this torus only
            # The periods modulo the basis lattice, one per class of the domain.
            periods = [h for h in domain if brute_is_period(cfg, h)]
            assert len(xs) * len(ys) * len(periods) == len(domain), cfg.basis
            # Two torus points never differ by a period: their classes are distinct.
            classes = {min(basis_reduce(cfg.basis, (x + h[0], y + h[1])) for h in periods) for x in xs for y in ys}
            assert len(classes) == len(xs) * len(ys), cfg.basis
            for b in cfg.basis:
                assert cfg.is_period(b) and brute_is_period(cfg, b), (cfg.basis, b)
            bound = max(len(xs), len(ys)) + 1
            box = range(-bound, bound + 1)
            scan = tuple((x, y) for x in box for y in box if (x or y) and brute_is_period(cfg, (x, y)))
            assert cfg.periods_within(bound) == scan, cfg.basis
            assert (len(xs), 0) in scan  # (a, 0) is a period

    def test_torus_domain_contract(self):
        """The enumeration domain is the sorted torus [0, a) x [0, d) of the
        period lattice, with (a, 0) and (b, d) its Hermite basis found by brute
        force; it is a residue system modulo the periods, it meets every coset
        of the given basis, and every count reports its size as translates."""
        rng = random.Random(61)
        bodies = [random_doubly_periodic(rng) for _ in range(12)]
        bodies += [tiled_doubly_periodic(rng, sheared) for sheared in (False, True) for _ in range(8)]
        bodies += [sheared_doubly_periodic(rng, p, q, rng.randint(-4, 4)) for p, q in [(3, 2), (2, 3), (4, 1)]]
        finer = 0
        for cfg in bodies:
            cosets, det = basis_domain(cfg.basis), basis_det(cfg)
            a = next(x for x in range(1, det + 1) if brute_is_period(cfg, (x, 0)))
            d = next(y for y in range(1, det + 1) if any(brute_is_period(cfg, (x, y)) for x in range(a)))
            finer += a * d < det
            domain = cfg.enumeration_domain(HEXAGON.points)
            assert list(domain) == sorted((x, y) for x in range(a) for y in range(d)), cfg.basis
            assert not any(brute_is_period(cfg, psub(u2, u)) for u, u2 in combinations(domain, 2)), cfg.basis
            for g in cosets:
                assert sum(brute_is_period(cfg, psub(g, u)) for u in domain) == 1, (cfg.basis, g)
            assert complexity(cfg, HEXAGON).translates_examined == len(domain)
            assert {rep.translates_examined for rep in complexity_table(cfg, 3, 3).values()} == {len(domain)}
        assert finer >= 8  # bodies whose period lattice is finer than their basis lattice

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
            for bound in (5, 10, 60) if basis_det(cfg) >= 100 else (5, 10):
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
            domain = window.enumeration_domain(cells)
            assert [(x, y) for x in domain.xs for y in domain.ys] == list(domain)
            assert isinstance(one_defect.enumeration_domain(cells), list)
