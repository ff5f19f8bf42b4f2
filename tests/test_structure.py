import importlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nivatlab.structure as structure
from nivatlab.complexity import complexity, directional_language, extension_counts
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
from nivatlab.errors import (
    ConstructionError,
    GeometryError,
    HypothesisNotMet,
    InexactDataError,
    UnknownLetterError,
)
from nivatlab.geometry import Line, block, convex_hull, line_section, supporting_line
from nivatlab.structure import (
    BalancedSetCertificate,
    GeneratingKind,
    MClass,
    PhiReport,
    StripLemmaStatus,
    audit_mlc_inequality,
    construct_balanced_set,
    directional_point_sets,
    expansive_witness,
    find_directional_generating_set,
    find_generating_set,
    find_mlc_set,
    is_generated,
    lemma_thickness_audit,
    m_classes,
    phi,
    remark_i_instance,
    thickness_ok,
    verify_strip_lemma,
)

from conftest import (
    DIAGONAL,
    HORIZONTAL,
    VERTICAL,
    basis_det,
    basis_domain,
    basis_reduce,
    brute_is_period,
    convex_subsets_of_box,
    naive_exact_count,
    random_doubly_periodic,
    random_finite_defect,
    sheared_doubly_periodic,
    tiled_doubly_periodic,
)

complexity_module = importlib.import_module("nivatlab.complexity")  # the package binds the function


@pytest.fixture(scope="module")
def stripe():
    return DoublyPeriodic.from_rows(Alphabet(("a", "b")), ["aab"])


@pytest.fixture(scope="module")
def row_constant():
    return DoublyPeriodic.from_rows(Alphabet(("a", "b")), ["a", "b"])


class TestIsGenerated:
    def test_checkerboard_domino_top(self, checkerboard):
        assert is_generated(checkerboard, [(0, 0), (0, 1)], (0, 1))

    def test_strict_monotone_case(self, diagonal):
        # removing the unique extreme-delta corner of R_{3,4} loses a pattern
        assert not is_generated(diagonal, block(3, 4), (2, 0))
        assert is_generated(diagonal, block(3, 4), (0, 0))

    def test_refuses_lower_bound_data(self, ab):
        w = WindowSample(ab, (0, 0), ["ab" * 4] * 6)
        with pytest.raises(InexactDataError):
            is_generated(w, block(2, 2), (0, 0))


class TestFindGeneratingSet:
    def test_checkerboard_descends_to_domino(self, checkerboard):
        r = find_generating_set(checkerboard, block(2, 2))
        assert len(r.set) == 2
        assert r.kind is GeneratingKind.GENERATING
        assert all(c.generated for c in r.certificates)

    def test_stripe_keeps_horizontal_triple(self, stripe):
        r = find_generating_set(stripe, block(3, 1))
        assert sorted(r.set.points) == [(0, 0), (1, 0), (2, 0)]

    def test_row_constant_minimal_column(self, row_constant):
        r = find_generating_set(row_constant, block(1, 2))
        assert sorted(r.set.points) == [(0, 0), (0, 1)]

    def test_hypothesis_gate(self, one_defect):
        with pytest.raises(HypothesisNotMet):
            find_generating_set(one_defect, block(2, 2))


class TestDirectionalGeneratingSet:
    def test_checkerboard_horizontal(self, checkerboard):
        r = find_directional_generating_set(checkerboard, block(2, 2), HORIZONTAL)
        assert r.kind is GeneratingKind.DIRECTIONAL
        if r.remark_i is not None:
            drop, allowed = r.remark_i
            assert drop <= allowed
        assert all(c.generated for c in r.certificates)

    def test_checkerboard_vertical_symmetry(self, checkerboard):
        rh = find_directional_generating_set(checkerboard, block(2, 2), HORIZONTAL)
        rv = find_directional_generating_set(checkerboard, block(2, 2), VERTICAL)
        assert len(rh.set) == len(rv.set)

    def test_diagonal_frozen_result(self, diagonal):
        r = find_directional_generating_set(diagonal, block(3, 4), HORIZONTAL)
        assert sorted(r.set.points) == [(0, 2), (0, 3), (1, 3), (2, 3)]
        assert r.remark_i == (0, 0)
        assert r.peeling_trace == ((12, 7), (9, 6), (6, 5), (3, 4))
        # the peeled remainder is the start shape cut by a half plane
        assert r.half_plane_line is not None
        cut = {g for g in block(3, 4).points if r.half_plane_line.half_plane_contains(g)}
        assert cut == set(block(3, 4).points) & cut
        assert {g for g in r.set.points if r.half_plane_line.half_plane_contains(g)} == cut & set(r.set.points)


class TestFindMlcSet:
    def test_checkerboard_domino(self, checkerboard):
        r = find_mlc_set(checkerboard, block(2, 2))
        assert len(r.set) == 2
        assert r.bound_check.satisfied

    def test_diagonal_pair(self, diagonal):
        r = find_mlc_set(diagonal, block(3, 4))
        pts = sorted(r.set.points)
        assert len(pts) == 2
        (x0, y0), (x1, y1) = pts
        assert (x1 - x0, y1 - y0) == (1, 1)  # a period step
        assert not r.set.has_positive_area()

    def test_fixed_point_when_already_minimal(self, checkerboard):
        domino = convex_hull([(0, 0), (0, 1)])
        r = find_mlc_set(checkerboard, domino)
        assert set(r.set.points) == set(domino.points)

    def test_gate(self, one_defect):
        with pytest.raises(HypothesisNotMet):
            find_mlc_set(one_defect, block(2, 2))

    def test_inequality_audit(self, checkerboard, diagonal):
        for cfg, shape in ((checkerboard, block(2, 2)), (diagonal, block(3, 4))):
            r = find_mlc_set(cfg, shape)
            for audit in audit_mlc_inequality(cfg, r):
                assert audit.ok

    def test_remark_instances(self, diagonal):
        r = find_mlc_set(diagonal, block(3, 4))
        for line in (HORIZONTAL, VERTICAL, DIAGONAL):
            instance = remark_i_instance(diagonal, r, line)
            if instance is not None:
                drop, allowed = instance
                assert drop <= allowed

    def test_thickness_audit_paths(self, diagonal, checkerboard):
        r = find_mlc_set(diagonal, block(3, 4))
        audit = lemma_thickness_audit(r, DIAGONAL, aperiodic_certified=False)
        assert not audit.applicable and "aperiodic" in audit.reason
        audit2 = lemma_thickness_audit(r, DIAGONAL, aperiodic_certified=True)
        assert not audit2.applicable and "null-area" in audit2.reason
        g = find_generating_set(checkerboard, block(2, 2))
        assert not lemma_thickness_audit(g, DIAGONAL, True).applicable


class TestDirectionalPointSets:
    def test_square_rows(self):
        d = directional_point_sets(block(3, 3), HORIZONTAL, 2)
        assert set(d.initials) == {(0, 1), (0, 2)}
        assert set(d.finals) == {(2, 1), (2, 2)}

    def test_thick_requirement_empties(self):
        d = directional_point_sets(block(3, 3), HORIZONTAL, 4)
        assert d.initials == () and d.finals == ()

    def test_triangle(self):
        tri = convex_hull([(0, 0), (2, 0), (0, 2)])
        d = directional_point_sets(tri, HORIZONTAL, 2)
        assert set(d.initials) == {(0, 1)}

    def test_thickness_check(self):
        tri = convex_hull([(0, 0), (2, 0), (0, 2)])
        ok, witness = thickness_ok(tri, HORIZONTAL, 2)
        assert not ok  # the apex row has a single point
        ok2, _ = thickness_ok(block(3, 3), HORIZONTAL, 3)
        assert ok2


# -- peeling and thickness off the axes ---------------------------------------

LEVEL_LINES = [HORIZONTAL, VERTICAL, DIAGONAL, Line(1, 2, 0), Line(2, -1, 0), Line(1, -1, 0), Line(-1, 3, 0)]
# (w, e) with det(w, e) = +-1, so t*w + s*e are all the lattice points of their hull.
SHEARS = [((1, 3), (0, 1)), ((2, -3), (1, -1)), ((3, 1), (1, 0)), ((-1, 3), (0, 1)), ((3, 2), (1, 1))]


def _level_shapes(seed: int):
    """A random hull, and a thin sheared one: a segment or a two-wide strip
    along w, which some line of LEVEL_LINES crosses with empty lattice lines
    between its support and its far side."""
    rng = random.Random(seed)
    hull = convex_hull([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(2, 6))])
    (w, e), length, width = rng.choice(SHEARS), rng.randint(1, 4), rng.randint(1, 2)
    ox, oy = rng.randint(-3, 3), rng.randint(-3, 3)
    sheared = convex_hull([(ox + t * w[0] + s * e[0], oy + t * w[1] + s * e[1])
                           for t in range(length + 1) for s in range(width)])
    assert len(sheared) == (length + 1) * width
    return hull, sheared


def _sections(shape, line):
    """(c, section) for every lattice line parallel to `line` from past the
    support to the far side, empty ones included."""
    low = supporting_line(shape, line).c
    high = -supporting_line(shape, line.reverse()).c
    return [(c, line_section(shape, Line(line.dx, line.dy, c))) for c in range(low + 1, high + 1)]


class TestLevelSets:
    """The peeling stages, thickness witness and directional point sets
    against the definitions they are computed without, on every line."""

    @pytest.mark.parametrize("seed", range(12))
    def test_peeling_trace_is_the_successive_peels(self, seed, diagonal, checkerboard):
        searched = 0
        for shape in _level_shapes(seed):
            for body in (diagonal, checkerboard):
                for line in LEVEL_LINES:
                    try:
                        r = find_directional_generating_set(body, shape, line)
                    except HypothesisNotMet:
                        continue
                    searched += 1
                    stages = [frozenset(shape.points)]
                    while stages[-1]:
                        stage = stages[-1]
                        stages.append(stage - line_section(stage, supporting_line(stage, line)))
                    counts = [complexity(body, s).count for s in stages[:-1]]
                    assert r.peeling_trace == tuple(zip(map(len, stages), counts))
                    # the linear bound |S| + |A| - 2 is |S| on these two-letter bodies
                    big_i = max(i for i, s in enumerate(stages[:-1]) if counts[i] <= len(s))
                    assert stages[big_i + 1] <= r.set.points <= stages[big_i]
        assert searched

    @pytest.mark.parametrize("seed", range(12))
    def test_thickness_and_point_sets_scan_every_line(self, seed):
        gaps = 0
        for shape in _level_shapes(seed):
            for line in LEVEL_LINES:
                sections = _sections(shape, line)
                gaps += any(not s for _, s in sections)
                v = line.minimal_vector()

                def along(g):
                    return g[0] * v[0] + g[1] * v[1]

                for p in (1, 2, 3):
                    ok, witness = thickness_ok(shape, line, p)
                    assert witness == tuple((c, len(s)) for c, s in sections)
                    assert ok == all(len(s) >= p for _, s in sections)
                    thick = [(c, s) for c, s in sections if len(s) >= p]
                    d = directional_point_sets(shape, line, p)
                    assert d.initials == tuple(min(s, key=along) for _, s in thick)
                    assert d.finals == tuple(max(s, key=along) for _, s in thick)
                    assert d.qualifying_lines == tuple((c, len(s)) for c, s in thick)
        assert gaps


class TestBalancedSet:
    def test_diagonal_certificate(self, diagonal):
        w = expansive_witness(diagonal, HORIZONTAL, 1)
        cert = construct_balanced_set(
            diagonal, block(3, 4), HORIZONTAL, witness_absent=not w.found
        )
        assert sorted(cert.set.points) == [(0, 2), (0, 3), (1, 3), (2, 3)]
        assert cert.p == 0 and not cert.nonexpansive_regime
        assert cert.drop == 0 and cert.drop_bound == 0
        assert len(cert.support_section) <= len(cert.antiparallel_section)
        assert cert.half_plane_cut == tuple(sorted(block(3, 4).points))

    def test_checkerboard_certificate(self, checkerboard):
        cert = construct_balanced_set(checkerboard, block(2, 2), HORIZONTAL)
        assert cert.p >= 1
        assert cert.drop <= cert.drop_bound
        # independent thickness re-check matches the recorded witness
        assert all(size >= cert.p for _, size in cert.condition_i)

    def test_cut_of_half_plus_one_passes_the_half_count(self, diagonal):
        # The cut keeps |T| = 3 of |S| = 4 points, exactly |S|/2 + 1: the
        # half-count step, which needs |T| >= |S|/2 + 1, lets it through.
        shape = convex_hull([(0, 0), (0, 1), (1, 1), (1, 2)])
        cert = construct_balanced_set(diagonal, shape, HORIZONTAL)
        assert 2 * len(cert.half_plane_cut) == len(shape) + 2

    def test_non_quasi_regular_rejected(self, checkerboard):
        tri = convex_hull([(0, 0), (2, 0), (0, 2)])
        with pytest.raises(GeometryError):
            construct_balanced_set(checkerboard, tri, HORIZONTAL)

    def test_hypothesis_gate(self, one_defect):
        with pytest.raises(HypothesisNotMet):
            construct_balanced_set(one_defect, block(2, 2), HORIZONTAL)

    def test_directional_search_shares_the_counter(self, diagonal, monkeypatch):
        # The cut lies inside the shape, so the directional search counts it
        # with the shape's counter instead of reading the cut's keys again.
        built = []

        class Recording(structure._Counter):
            def __init__(self, config, root):
                built.append(root)
                super().__init__(config, root)

        monkeypatch.setattr(structure, "_Counter", Recording)
        construct_balanced_set(diagonal, block(3, 4), HORIZONTAL)
        assert len(built) == 1


class TestPhi:
    def test_diagonal_constructed_set(self, diagonal):
        cert = construct_balanced_set(diagonal, block(3, 4), HORIZONTAL, witness_absent=False)
        rep = phi(diagonal, cert.set, HORIZONTAL, cert.p)
        assert rep.case == "complexity_difference"
        assert rep.value == 0
        # the halved-section budget from the constructed certificate
        assert 2 * rep.value <= 2 * ((len(cert.support_section) + 1) // 2) - 2 + 2

    def test_checkerboard_strip(self, checkerboard):
        cert = construct_balanced_set(checkerboard, block(2, 2), HORIZONTAL)
        rep = phi(checkerboard, cert.set, HORIZONTAL, cert.p)
        assert rep.value in (0, 1)

    def test_empty_classes_first_case(self, diagonal):
        rep = phi(diagonal, block(3, 4), HORIZONTAL, 2)
        assert rep.case == "complexity_difference"
        assert rep.value == 1  # P(3,4) - P(3,3)

    def test_p_zero_with_classes_makes_no_claim(self, diagonal):
        """p = 0 is refused, not a soundness failure, when ambiguous-extension classes exist."""
        assert m_classes(diagonal, block(2, 2), DIAGONAL, 1)[0]
        with pytest.raises(HypothesisNotMet, match="p = 0 but ambiguous-extension classes exist"):
            phi(diagonal, block(2, 2), DIAGONAL, 0)


class TestStripLemma:
    def test_diagonal_pass(self, diagonal):
        cert = construct_balanced_set(diagonal, block(3, 4), HORIZONTAL, witness_absent=False)
        rep = verify_strip_lemma(diagonal, cert.set, HORIZONTAL, cert.p, window=12)
        assert rep.status is StripLemmaStatus.PASS

    def test_checkerboard_pass(self, checkerboard):
        cert = construct_balanced_set(checkerboard, block(2, 2), HORIZONTAL)
        rep = verify_strip_lemma(checkerboard, cert.set, HORIZONTAL, max(cert.p, 1), window=10)
        assert rep.status is StripLemmaStatus.PASS

    def test_window_sample_never_fails(self, ab):
        # Lower-bound data can neither verify nor refute the lemma.
        w = WindowSample(ab, (0, 0), ["ab" * 5] * 10)
        for p in (0, 1):
            rep = verify_strip_lemma(w, block(2, 2), HORIZONTAL, p, window=4)
            assert rep.status is StripLemmaStatus.INCONCLUSIVE
            assert rep.data_exact is False and rep.outcomes == ()

    def test_phi_refuses_lower_bound_data(self, ab):
        w = WindowSample(ab, (0, 0), ["ab" * 5] * 10)
        with pytest.raises(InexactDataError):
            phi(w, block(2, 2), HORIZONTAL, 1)


def _ambiguous_body() -> DoublyPeriodic:
    """An 8-coset configuration whose 2x2 language has a translate class where
    every directional base pattern extends two ways (found by random search,
    then frozen)."""
    table = {(-3, 5): "b", (-3, 6): "a", (-2, 3): "a", (-2, 4): "b",
             (-2, 5): "a", (-1, 2): "b", (-1, 3): "b", (0, 0): "a"}
    return DoublyPeriodic(Alphabet(("a", "b")), ((-3, 4), (-1, 4)), table)


@pytest.fixture(scope="module")
def ambiguous_rows():
    return _ambiguous_body()


class TestAmbiguousExtensionFixture:
    def test_phi_max_alphabet_branch(self, ambiguous_rows):
        rep = phi(ambiguous_rows, block(2, 2), HORIZONTAL, 2)
        assert rep.case == "max_alphabet_form"
        assert rep.value == 2 and rep.diff == 2

    def test_class_structure(self, ambiguous_rows):
        classes, diff = m_classes(ambiguous_rows, block(2, 2), HORIZONTAL, 2)
        assert diff == 2
        assert [x.alphabet_size for x in classes] == [2]

    def test_strip_lemma_nonvacuous_pass(self, ambiguous_rows):
        rep = verify_strip_lemma(ambiguous_rows, block(2, 2), HORIZONTAL, 2, window=20)
        assert rep.status is StripLemmaStatus.PASS and not rep.vacuous
        assert [o.status for o in rep.outcomes] == ["pass"]
        assert rep.outcomes[0].period == 2

    def test_phi_unbalanced_raises_no_claim(self, ambiguous_rows):
        # at p = 1 the ambiguous class has no p_x within the bound
        with pytest.raises(HypothesisNotMet):
            phi(ambiguous_rows, block(2, 2), HORIZONTAL, 1)


class TestExpansiveWitness:
    @pytest.mark.parametrize("line", [HORIZONTAL, VERTICAL, DIAGONAL, Line(-1, -1, 0)])
    def test_checkerboard_all_directions(self, checkerboard, line):
        rep = expansive_witness(checkerboard, line, 1)
        assert rep.found
        assert rep.point is not None
        assert is_generated(checkerboard, rep.witness, rep.point)

    @pytest.mark.parametrize("line", [DIAGONAL, Line(-1, -1, 0)])
    def test_diagonal_period_direction_has_no_witness(self, diagonal, line):
        rep = expansive_witness(diagonal, line, 1)
        assert not rep.found
        assert rep.sets_examined > 0

    def test_diagonal_horizontal_has_witness(self, diagonal):
        rep = expansive_witness(diagonal, HORIZONTAL, 1)
        assert rep.found

    def test_radius_zero(self, checkerboard):
        rep = expansive_witness(checkerboard, HORIZONTAL, 0)
        assert not rep.found and rep.sets_examined == 0


class TestMClasses:
    def test_diagonal_r34_horizontal_empty(self, diagonal):
        classes, diff = m_classes(diagonal, block(3, 4), HORIZONTAL, 2)
        assert diff == 1
        assert classes == ()  # the full language contains unique-extension patterns

    @pytest.mark.parametrize("n, translates", [
        (4, [(-25, 0), (-18, 0)]),
        (5, [(-45, 0), (-38, 0), (-37, 0), (-36, 0)]),
        (6, [(-69, 0), (-62, 0), (-61, 0), (-60, 0), (-59, 0), (-58, 0)]),
    ])
    def test_diagonal_classes_keep_their_translates(self, diagonal, n, translates):
        """Each class is represented by its first translate in sweep order."""
        for p in (1, 2):
            classes, diff = m_classes(diagonal, block(n, n), DIAGONAL, p)
            assert [x.translate for x in classes] == translates and diff == len(translates)

    def test_checkerboard_row_all_qualify(self, checkerboard):
        row = convex_hull([(0, 0), (1, 0)])
        classes, diff = m_classes(checkerboard, row, HORIZONTAL, 1)
        assert diff == complexity(checkerboard, row).count - 1
        assert len(classes) == 1  # empty base extends ambiguously, one class


# -- one directional language per orbit ----------------------------------------------

AB = Alphabet(("a", "b"))
ORBIT_LINES = [HORIZONTAL, VERTICAL, DIAGONAL, Line(1, -1, 0), Line(2, 1, 0)]
ORBIT_SHAPES = [block(1, 2), block(2, 2), block(2, 3), block(3, 3), block(3, 4), block(4, 3),
                convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]),
                convex_hull([(0, 2), (0, 3), (1, 3), (2, 3)])]


def _orbit_body(kind: str, seed: int) -> Configuration:
    rng = random.Random(seed)
    if kind == "diagonal":
        return DiagonalFamily(*rng.sample("bw", 2))
    if kind == "periodic":
        return random_doubly_periodic(rng)
    if kind == "ambiguous":  # it has a class with a rich induced alphabet
        return _ambiguous_body()
    return random_finite_defect(rng, AB)


def _reference_m_classes(cfg, shape, line, p):
    """m_classes with both directional languages built afresh at every translate."""
    section = line_section(shape, supporting_line(shape, line))
    base_cells = tuple(sorted(shape.points - section))
    total = complexity(cfg, shape).count
    diff = total - complexity(cfg, base_cells).count
    n_of = extension_counts(cfg, shape, line).counts() if base_cells else {Pattern(()): total}
    initials = directional_point_sets(shape, line, p).initials
    out, seen = [], set()
    for u in cfg.enumeration_domain(shape.points):
        base_lang = directional_language(cfg, base_cells, line, base=u)
        if not all(n_of.get(g, 0) > 1 for g in base_lang.patterns):
            continue
        alpha = directional_language(cfg, initials, line, base=u)
        key = (base_lang.patterns, alpha.patterns)
        if key not in seen:
            seen.add(key)
            exact = base_lang.exactness is alpha.exactness is Exactness.EXACT
            out.append(MClass(u, *key, Exactness.EXACT if exact else Exactness.LOWER_BOUND))
    return tuple(out), diff


def _brute_m_classes(cfg: DoublyPeriodic, shape, line, p):
    """m_classes from patterns read with letter_at alone: the shape's and its
    base's languages over the fundamental domain, and each directional
    language over |det| steps, after which every orbit repeats."""
    section = line_section(shape, supporting_line(shape, line))
    cells, base_cells = tuple(sorted(shape.points)), tuple(sorted(shape.points - section))
    domain = cfg.enumeration_domain(shape.points)
    n_of: dict = {}
    for full in {extract_pattern(cfg, cells, u) for u in domain}:
        base = Pattern.from_cells({g: a for g, a in zip(cells, full.letters) if g in base_cells})
        n_of[base] = n_of.get(base, 0) + 1
    diff = sum(n_of.values()) - len(n_of)
    initials = directional_point_sets(shape, line, p).initials
    v, steps = line.minimal_vector(), range(basis_det(cfg))

    def along(part, u):
        return frozenset(extract_pattern(cfg, part, (u[0] + t * v[0], u[1] + t * v[1])) for t in steps)

    out, seen = [], set()
    for u in domain:
        key = (along(base_cells, u), along(initials, u))
        if all(n_of.get(g, 0) > 1 for g in key[0]) and key not in seen:
            seen.add(key)
            out.append(MClass(u, *key, Exactness.EXACT))
    return tuple(out), diff


def _reference_px(cfg, shape, line, p, u, diff):
    for px in range(1, p + 1):
        initials = directional_point_sets(shape, line, px).initials
        size = len(directional_language(cfg, initials, line, base=u))
        if diff <= px + size - 2:
            return px, size
    return None


def _reference_phi(cfg, shape, line, p):
    classes, diff = _reference_m_classes(cfg, shape, line, p)
    rich = [x for x in classes if x.alphabet_size > 1]
    if not rich:
        return PhiReport(diff, "complexity_difference", diff, classes)
    found = [_reference_px(cfg, shape, line, p, x.translate, diff) for x in rich]
    if None in found:
        return HypothesisNotMet
    return PhiReport(max(px + size - 2 for px, size in found), "max_alphabet_form", diff, classes)


def _outcome(fn):
    """The result of fn, or the type and message of the error it raised."""
    try:
        return fn()
    except (ConstructionError, GeometryError, HypothesisNotMet) as exc:
        return type(exc), str(exc)


def _merged_translate(cfg, u, v, s, i, j):
    """u moved by s steps along v and by one of the body's certified periods."""
    if isinstance(cfg, DoublyPeriodic):
        (ax, ay), (bx, by) = cfg.basis
        h = (i * ax + j * bx, i * ay + j * by)
    elif isinstance(cfg, DiagonalFamily):
        h = (i, i)
    else:
        h = (0, 0)
    return (u[0] + s * v[0] + h[0], u[1] + s * v[1] + h[1])


orbit_bodies = st.tuples(st.sampled_from(["diagonal", "periodic", "ambiguous", "defect"]),
                         st.integers(0, 10**6))
offsets = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


class TestOrbitSharing:
    """Classes taken once per orbit must equal classes taken at every translate."""

    @settings(max_examples=60, deadline=None)
    @given(orbit_bodies, st.sampled_from(ORBIT_SHAPES), st.sampled_from(ORBIT_LINES),
           st.integers(1, 3))
    def test_m_classes_and_phi(self, body, shape, line, p):
        cfg = _orbit_body(*body)
        assert m_classes(cfg, shape, line, p) == _reference_m_classes(cfg, shape, line, p)
        got = _outcome(lambda: phi(cfg, shape, line, p))
        ref = _reference_phi(cfg, shape, line, p)
        if ref is HypothesisNotMet:
            assert isinstance(got, tuple) and got[0] is HypothesisNotMet
        else:
            assert got == ref

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), st.integers(0, 10**6), st.sampled_from(ORBIT_SHAPES),
           st.sampled_from(ORBIT_LINES), st.integers(1, 3))
    def test_m_classes_over_the_period_lattice(self, sheared, seed, shape, line, p):
        """On a body given by a basis coarser than its period lattice, m_classes
        matches classes read with letter_at alone."""
        cfg = tiled_doubly_periodic(random.Random(seed), sheared)
        assert m_classes(cfg, shape, line, p) == _brute_m_classes(cfg, shape, line, p)

    @settings(max_examples=40, deadline=None)
    @given(orbit_bodies, st.sampled_from(ORBIT_SHAPES), st.sampled_from(ORBIT_LINES),
           st.booleans())
    def test_balanced_set(self, body, shape, line, witness_absent):
        cfg = _orbit_body(*body)
        got = _outcome(lambda: construct_balanced_set(cfg, shape, line, witness_absent))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(cfg), "orbit_class", Configuration.orbit_class)
            ref = _outcome(lambda: construct_balanced_set(cfg, shape, line, witness_absent))
        assert got == ref
        if isinstance(got, BalancedSetCertificate) and got.p >= 1:
            classes, diff = _reference_m_classes(cfg, got.set, line, got.p)
            expected = [(x.translate, *_reference_px(cfg, got.set, line, got.p, x.translate, diff))
                        for x in classes if x.alphabet_size > 1]
            assert list(got.condition_ii) == expected

    @settings(max_examples=80, deadline=None)
    @given(orbit_bodies, st.sampled_from(ORBIT_SHAPES), st.sampled_from(ORBIT_LINES),
           offsets, st.integers(-5, 5), st.integers(-2, 2), st.integers(-2, 2), offsets)
    def test_equal_labels_give_equal_languages(self, body, shape, line, u, s, i, j, w):
        cfg = _orbit_body(*body)
        v = line.minimal_vector()
        u2 = _merged_translate(cfg, u, v, s, i, j)
        assert cfg.orbit_class(u, v) == cfg.orbit_class(u2, v)
        for other in (u2, w):
            if cfg.orbit_class(u, v) == cfg.orbit_class(other, v):
                assert (directional_language(cfg, shape, line, base=u).patterns
                        == directional_language(cfg, shape, line, base=other).patterns)

    def test_periodic_labels_are_exactly_the_orbits(self):
        # u and u2 share a label exactly when u2 - u lies in P + Zv, where P,
        # the lattice of all periods, is found by brute force.  P holds the
        # lattice L of the given basis, so it is a union of cosets of L, each
        # named by its point in the fundamental domain; tiled bodies have P != L.
        # A slide along v takes the least s >= 1 steps with s*v in P.
        rng = random.Random(11)
        bodies = [random_doubly_periodic(rng) for _ in range(8)]
        bodies += [tiled_doubly_periodic(rng, sheared) for sheared in (False, True) for _ in range(8)]
        box = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        finer = 0
        for cfg in bodies:
            domain = basis_domain(cfg.basis)
            periods = {h for h in domain if brute_is_period(cfg, h)}
            finer += len(periods) > 1
            for line in ORBIT_LINES:
                v = line.minimal_vector()
                steps = next(s for s in range(1, len(domain) + 1) if basis_reduce(cfg.basis, (s * v[0], s * v[1])) in periods)
                assert len(cfg.directional_translates((), (0, 0), v)) == steps
                orbit = {basis_reduce(cfg.basis, (h[0] + t * v[0], h[1] + t * v[1]))
                         for h in periods for t in range(len(domain))}
                for u in box[::7]:
                    for u2 in box:
                        same = basis_reduce(cfg.basis, (u2[0] - u[0], u2[1] - u[1])) in orbit
                        assert (cfg.orbit_class(u, v) == cfg.orbit_class(u2, v)) == same, (cfg.basis, v, u, u2)
        assert finer >= 8

    def test_window_labels_never_merge(self):
        w = WindowSample(AB, (0, 0), ["abba", "baab", "abab"])
        box = [(x, y) for x in range(-5, 6) for y in range(-5, 6)]
        for line in ORBIT_LINES:
            v = line.minimal_vector()
            assert len({w.orbit_class(u, v) for u in box}) == len(box)

    def test_one_language_per_orbit(self, diagonal, monkeypatch):
        # Every x - y is one orbit along (0, 1): the base and the induced
        # alphabet are each built once, not once per translate (149 calls).
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return directional_language(*args, **kwargs)

        monkeypatch.setattr(structure, "directional_language", counted)
        m_classes(diagonal, block(6, 6), VERTICAL, 1)
        assert len(calls) <= 2

    def test_strip_lemma_counts_the_shape_once(self, diagonal, monkeypatch):
        # The two supporting vertices share one counter: the shape is read
        # once, and the shape and the shape minus each vertex are three
        # counts, not four.  (7, 0) is not generated, so the harness stops there.
        scans, counted = [], []
        real_keys, real_count = complexity_module._domain_keys, complexity_module._Counter.count

        def scanned(config, cells):
            scans.append(cells)
            return real_keys(config, cells)

        def projected(self, points):
            if points not in self._cache:
                counted.append(frozenset(points))
            return real_count(self, points)

        monkeypatch.setattr(complexity_module, "_domain_keys", scanned)
        monkeypatch.setattr(complexity_module._Counter, "count", projected)
        with pytest.raises(HypothesisNotMet, match=r"vertex \(7, 0\) is not generated"):
            verify_strip_lemma(diagonal, block(8, 8), HORIZONTAL, 1, window=12)
        assert scans == [tuple(sorted(block(8, 8).points))]
        assert len(counted) == 3 == len(set(counted))


# -- counts projected from a root shape's language -------------------------------------

# Roots inside [-5, 4]^2, several at negative coordinates.
PROJECTION_ROOTS = [block(4, 4), block(3, 5).translate((-4, -2)), block(1, 4),
                    convex_hull([(0, 0), (4, 1), (1, 4)]).translate((-3, -3)),
                    convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]).translate((-2, -3)),
                    convex_hull([(-5, -5), (-2, -4)])]


def _projection_body(kind: str, seed: int) -> Configuration:
    rng = random.Random(seed)
    if kind == "diagonal":
        return DiagonalFamily(*rng.sample("bw", 2))
    if kind == "periodic":
        return random_doubly_periodic(rng)
    if kind == "sheared":
        return sheared_doubly_periodic(rng, rng.randint(2, 12), rng.randint(1, 6), rng.randint(-15, 15))
    return random_finite_defect(rng, AB)


class TestProjectedCounts:
    """A subset of the root counted from the root's keys must equal its complexity."""

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(st.sampled_from(["diagonal", "periodic", "sheared", "defect"]),
                     st.integers(0, 10**6)),
           st.sampled_from(PROJECTION_ROOTS), st.data())
    def test_subset_counts_match_complexity(self, body, root, data):
        cfg = _projection_body(*body)
        cells = sorted(root.points)
        # Random subsets: most are gapped, and the root itself is drawn too.
        subsets = data.draw(st.lists(st.sets(st.sampled_from(cells), min_size=1), min_size=1, max_size=6))
        counter = structure._Counter(cfg, root.points)
        for subset in subsets + [cells]:
            assert counter.count(frozenset(subset)) == complexity(cfg, subset).count
        assert counter.keys is not None  # every count above was projected

    @pytest.mark.parametrize("kind", ["diagonal", "periodic", "sheared", "defect"])
    def test_contiguous_runs_match_tuples_and_complexity(self, kind):
        """A subset whose key positions form one run is counted by slicing each key."""
        cfg = _projection_body(kind, 11)
        for at in ((0, 0), (-4, -3)):
            root = block(3, 4).translate(at)
            counter = structure._Counter(cfg, root.points)
            counter.count(frozenset(root.points))
            cells_at: dict = {}
            for g, i in counter._position.items():
                cells_at.setdefault(i, []).append(g)
            # Shorter blocks are row-major prefixes of a row-slice key and
            # sub-runs of a band key; a defect key is in cell order.
            for k in range(1, 5):
                run = sorted({counter._position[g] for g in block(3, k).translate(at).points})
                if kind == "diagonal":
                    assert run == list(range(run[0], run[0] + len(run)))
                elif kind != "defect":
                    assert run == list(range(len(run)))
            width = len(cells_at)
            for i in range(width):
                for j in range(i, width):
                    subset = frozenset(g for p in range(i, j + 1) for g in cells_at[p])
                    tuples = {tuple(key[p] for p in range(i, j + 1)) for key in counter.keys}
                    assert counter.count(subset) == len(tuples) == complexity(cfg, subset).count

    def test_window_root_raises_on_its_first_count(self):
        w = WindowSample(AB, (-2, -1), ["abbab", "babba", "abaab", "bbaba", "aabab"])
        counter = structure._Counter(w, block(3, 3).points)
        with pytest.raises(InexactDataError):
            counter.count(frozenset([(0, 0), (1, 0)]))
        assert counter.keys is None  # a window sample is never projected
        # A subset that fits nowhere names the window, not the inexact data.
        wide = structure._Counter(w, block(6, 1).points)
        with pytest.raises(UnknownLetterError, match="cannot fit the shape anywhere"):
            wide.count(frozenset(block(6, 1).points))
        assert wide.keys is None


# -- the witness enumeration against brute force -------------------------------------------

THREE_DEFECTS = FiniteDefect(AB, "a", {(0, 0): "b", (3, 1): "b", (-2, 4): "b"})


class TestWitnessEnumeration:
    # The levels of convex subsets are cached per (radius, size) for the
    # process; each test below starts from an emptied cache.  The level check
    # runs first: a level grown wrong fails there before a search grows the
    # next one, which for a growth that repeats points never ends.
    @staticmethod
    def _levels_by_size(radius):
        by_size: dict[int, list] = {}
        for c in convex_subsets_of_box(radius):
            by_size.setdefault(len(c), []).append(tuple(sorted(c)))
        return [sorted(by_size[n]) for n in sorted(by_size)]

    @staticmethod
    def _levels(radius):
        levels, size = [], 1
        while level := structure._box_level(radius, size)[0]:
            levels.append(level)
            size += 1
        return levels

    @pytest.mark.parametrize("radius", [0, 1])
    def test_levels_are_the_convex_subsets_by_size(self, radius):
        structure._box_level.cache_clear()
        expected = self._levels_by_size(radius)
        for size, level in enumerate(expected, 1):
            cells, hulls = structure._box_level(radius, size)
            assert cells == level
            assert hulls == [convex_hull(c).vertices for c in cells]
        assert not structure._box_level(radius, len(expected) + 1)[0]
        hits = structure._box_level.cache_info().hits
        assert self._levels(radius) == expected  # read again, not regrown
        assert structure._box_level.cache_info().hits == hits + len(expected) + 1

    # Line(1, 3) and Line(3, 1) take distinct values on the radius-1 box, so
    # every examined set has a single lowest point and is counted.
    @pytest.mark.parametrize("body, line", [
        (DiagonalFamily(), DIAGONAL),
        (THREE_DEFECTS, Line(1, 3, 0)),
        (FiniteDefect(AB, "a", {(0, 0): "b"}), Line(3, 1, 0)),
    ])
    def test_examines_every_convex_subset_once(self, body, line, monkeypatch):
        tests, counted, inside = [], [], []
        real_generated, real_count = structure._generated, structure._Counter.count

        def recording_generated(counter, points, g):
            inside.append(g)
            try:
                passed = real_generated(counter, points, g)
            finally:
                inside.pop()
            tests.append((points, g, passed))
            return passed

        def recording_count(self, points):
            if not inside:
                counted.append(points)
            return real_count(self, points)

        def refused(*args, **kwargs):
            raise AssertionError("a ConvexLatticeSet was built for a rejected candidate")

        monkeypatch.setattr(structure, "_generated", recording_generated)
        monkeypatch.setattr(structure._Counter, "count", recording_count)
        monkeypatch.setattr(structure, "ConvexLatticeSet", refused)
        rep = expansive_witness(body, line, 1)
        convex = [c for c in convex_subsets_of_box(1) if len(c) >= 2]
        assert not rep.found and rep.sets_examined == len(convex) == 204
        box = [(x, y) for x in range(-1, 2) for y in range(-1, 2)]
        top = max(line.value(g) for g in box)
        # Each point below the top line is tested once, in U(g0): itself and
        # the box points above its line.  A point on the top line is never
        # the lone lowest point of a set, so it is never tested.
        tested = [g for _, g, _ in tests]
        assert len(tested) == len(set(tested))
        assert set(tested) == {g for g in box if line.value(g) < top}
        for points, g, _ in tests:
            assert points == {g} | {h for h in box if line.value(h) > line.value(g)}
        passed = {g for _, g, ok in tests if ok}

        def lowest(c):
            return min(c, key=line.value)

        # Each counted set is counted with, then without, its lowest point,
        # once; the counted sets are the lone-minimum sets whose g0 passed.
        examined = counted[0::2]
        assert counted[1::2] == [s - {lowest(s)} for s in examined]
        assert len(examined) == len(set(examined))
        single_low = [c for c in convex
                      if [line.value(g) for g in c].count(min(line.value(g) for g in c)) == 1]
        assert set(examined) == {c for c in single_low if lowest(c) in passed}

    def test_radius_two_on_three_defects(self):
        rep = expansive_witness(THREE_DEFECTS, HORIZONTAL, 2)
        assert not rep.found and rep.witness is None and rep.point is None
        assert rep.sets_examined == 33341

    def test_a_search_that_stops_early_leaves_the_levels_whole(self):
        structure._box_level.cache_clear()
        early = expansive_witness(DiagonalFamily(), HORIZONTAL, 2)
        assert early.found and early.sets_examined == 3
        assert structure._box_level.cache_info().currsize == 2  # the box and its pairs, nothing past
        full = expansive_witness(THREE_DEFECTS, HORIZONTAL, 2)
        assert not full.found and full.sets_examined == 33341
        structure._box_level.cache_clear()
        assert expansive_witness(THREE_DEFECTS, HORIZONTAL, 2) == full
        structure._box_level.cache_clear()
        assert expansive_witness(DiagonalFamily(), HORIZONTAL, 2) == early

    def test_an_inexact_body_leaves_the_levels_usable(self):
        structure._box_level.cache_clear()
        w = WindowSample(AB, (-2, -1), ["abbab", "babba", "abaab", "bbaba", "aabab"])
        with pytest.raises(InexactDataError):
            expansive_witness(w, Line(1, 3, 0), 1)
        after_error = expansive_witness(THREE_DEFECTS, Line(1, 3, 0), 1)
        structure._box_level.cache_clear()
        assert expansive_witness(THREE_DEFECTS, Line(1, 3, 0), 1) == after_error

    def test_threads_grow_each_level_once(self):
        structure._box_level.cache_clear()
        bodies = [THREE_DEFECTS, DiagonalFamily(), FiniteDefect(AB, "a", {(0, 0): "b"})] * 4
        expected = [expansive_witness(body, Line(1, 3, 0), 1) for body in bodies]
        structure._box_level.cache_clear()
        reports: list = [None] * len(bodies)

        def search(i):
            reports[i] = expansive_witness(bodies[i], Line(1, 3, 0), 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=search, args=(i,)) for i in range(len(bodies))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reports == expected
        assert self._levels(1) == self._levels_by_size(1)  # every level whole


# -- the witness search against brute force -------------------------------------------------

_WITNESS_BOXES = {radius: convex_subsets_of_box(radius) for radius in (0, 1)}


def _reference_witness(cfg, line, radius, count):
    """`expansive_witness` by brute force, as its five report fields.

    Every convex subset of the box with two or more points, by size and then
    in sorted order; a set with a lone lowest point g0 is a witness when the
    set and the set minus g0 count equal.  No pruning, no library geometry.
    """
    sets = sorted((tuple(sorted(c)) for c in _WITNESS_BOXES[radius] if len(c) >= 2), key=lambda c: (len(c), c))
    for examined, cells in enumerate(sets, 1):
        values = [line.value(g) for g in cells]
        low = min(values)
        if values.count(low) == 1:
            g0 = cells[values.index(low)]
            if count(cells) == count(tuple(g for g in cells if g != g0)):
                return True, cells, g0, examined, radius
    return False, None, None, len(sets), radius


class TestWitnessOracle:
    LINES = [Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0), Line(1, -1, 0),
             Line(2, 1, 0), Line(1, 3, 0), Line(3, 1, 0)]

    @staticmethod
    def _bodies():
        rng = random.Random(4242)
        yield DiagonalFamily()
        yield DoublyPeriodic.from_rows(AB, ["ab", "ba"])
        for _ in range(5):
            yield random_doubly_periodic(rng)
        for _ in range(5):
            yield random_finite_defect(rng, AB)

    def test_reports_match_the_unpruned_scan(self):
        found = missed = 0
        for cfg in self._bodies():
            memo: dict = {}

            def count(cells):
                if cells not in memo:
                    memo[cells] = naive_exact_count(cfg, cells) if cells else 1
                return memo[cells]

            for line in self.LINES:
                for radius in (0, 1):
                    rep = expansive_witness(cfg, line, radius)
                    got = (rep.found, rep.witness.cells if rep.witness else None, rep.point,
                           rep.sets_examined, rep.radius)
                    assert got == _reference_witness(cfg, line, radius, count), (cfg, line, radius)
                    found += rep.found
                    missed += radius == 1 and not rep.found
        assert found and missed  # both outcomes are compared

    def test_generated_points_stay_generated_in_supersets(self):
        # The lemma the search prunes by: P(T) = P(T - g) implies
        # P(T') = P(T' - g) for every T' that holds T, on an exact body.
        rng = random.Random(2024)
        box = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
        premises = 0
        for _ in range(120):
            cfg = random_doubly_periodic(rng) if rng.random() < 0.5 else random_finite_defect(rng, AB)
            small = rng.sample(box, rng.randint(2, 6))
            big = small + rng.sample([g for g in box if g not in small], rng.randint(1, 10))
            g = rng.choice(small)
            if is_generated(cfg, small, g):
                premises += 1
                assert is_generated(cfg, big, g), (cfg, small, big, g)
        assert premises >= 20

    # A 2x2 window fits every pair of the 3x3 box but not the box; a 2x1 or
    # 1x2 window fits no pair across its short side.  The first set with a
    # lone lowest point is counted first and refuses, as without pruning.
    @pytest.mark.parametrize("rows, line, error, text", [
        *((["ab", "ba"], line, InexactDataError,
           "this operation needs exact complexity; the representation only certifies lower bounds")
          for line in (HORIZONTAL, VERTICAL, DIAGONAL, Line(1, 3, 0))),
        (["ab"], HORIZONTAL, UnknownLetterError, "the 2x1 window cannot fit the shape anywhere"),
        (["ab"], Line(1, -1, 0), UnknownLetterError, "the 2x1 window cannot fit the shape anywhere"),
        (["ab"], VERTICAL, InexactDataError,
         "this operation needs exact complexity; the representation only certifies lower bounds"),
        (["a", "b"], VERTICAL, UnknownLetterError, "the 1x2 window cannot fit the shape anywhere"),
        (["a", "b"], HORIZONTAL, InexactDataError,
         "this operation needs exact complexity; the representation only certifies lower bounds"),
    ])
    def test_window_errors_come_from_the_first_set(self, rows, line, error, text):
        w = WindowSample(AB, (-1, -1), rows)
        with pytest.raises(error) as info:
            expansive_witness(w, line, 1)
        assert str(info.value) == text
