"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

from nivatlab.complexity import complexity, complexity_table
from nivatlab.configurations import DiagonalFamily, WindowSample
from nivatlab.errors import GeometryError, HypothesisNotMet
from nivatlab.geometry import block, convex_hull, is_quasi_regular
from nivatlab.structure import (
    StripLemmaStatus,
    audit_mlc_inequality,
    construct_balanced_set,
    expansive_witness,
    find_mlc_set,
    remark_i_instance,
    verify_strip_lemma,
)
from nivatlab.verifier import Verdict, diagonal_expected, nivat_check
from nivatlab.words import MHStatus, NullAreaStatus, Word, fine_wilf, mh_check, null_area_period

from conftest import (
    HORIZONTAL,
    VERTICAL,
    DIAGONAL,
    basis_det,
    enumerate_convex_subsets,
    naive_complexity,
    random_doubly_periodic,
    random_finite_defect,
)
from nivatlab.configurations import Alphabet

DIAG = DiagonalFamily()


def report(number: int, label: str, started: float, budget: float, ok: bool, detail: str = ""):
    elapsed = time.time() - started
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget:.0f}s) {label}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    assert ok, line


def test_criterion_1_low_range():
    t0 = time.time()
    bad = []
    for s in range(2, 8):
        for n in range(1, s):
            k = s - n
            count = complexity(DIAG, block(n, k)).count
            if count != n + k:
                bad.append((n, k, count))
    report(1, "block complexity equals n+k for n+k <= 7", t0, 5, not bad, str(bad))


def test_criterion_2_equality_case():
    t0 = time.time()
    count = complexity(DIAG, block(3, 4)).count
    bound = Fraction(12, 2) + 2 - 1
    ok = count == 7 and Fraction(count) == bound
    report(2, "P(3,4) = 7 = half of 12 plus |A|-1", t0, 1, ok, f"count={count}")


def test_criterion_3_high_range_closed_form():
    t0 = time.time()
    bad = []
    for s in range(8, 15):
        for n in range(1, s):
            k = s - n
            count = complexity(DIAG, block(n, k)).count
            expected = diagonal_expected(n, k)
            if count != expected:
                bad.append((n, k, count, expected))
    detail = "engine+independent oracle disagree with the stated closed form at n+k=14" if bad else ""
    report(3, "closed form for 8 <= n+k <= 14", t0, 30, not bad,
           detail + (f"; first mismatches {bad[:3]}" if bad else ""))


def test_criterion_4_strict_half_area_bound():
    t0 = time.time()
    table = complexity_table(DIAG, 12, 12)
    bad = [
        (n, k, rep.count)
        for (n, k), rep in table.items()
        if Fraction(rep.count) <= Fraction(n * k, 2)
    ]
    report(4, "P(n,k) > nk/2 for all n,k <= 12", t0, 60, not bad, str(bad[:3]))


def test_criterion_5_nivat_equality_instance():
    t0 = time.time()
    rep = nivat_check(DIAG, block(3, 4))
    ok = (
        rep.hypothesis_holds is True
        and (1, 1) in rep.periods.periods
        and rep.periods.certified
        and rep.verdict is Verdict.CONSISTENT
    )
    report(5, "diagonal family on the 3x4 block is CONSISTENT", t0, 1, ok, rep.verdict.value)


def test_criterion_6_mh_property_suite():
    t0 = time.time()
    rng = random.Random(20260810)
    violations = 0
    words = 0
    while words < 500:
        alpha_size = rng.randint(2, 4)
        period = rng.randint(1, 6)
        pre_len = rng.randint(0, 4)
        letters = "abcd"[:alpha_size]
        core = [rng.choice(letters) for _ in range(period)]
        for i, a in enumerate(letters):
            if a not in core:
                core[i % period] = a
        if len(set(core)) != alpha_size:
            continue
        pre = [rng.choice(letters) for _ in range(pre_len)]
        word = Word(tuple(pre) + tuple(core) * 15)
        words += 1
        for n0 in range(1, 7):
            if mh_check(word, n0).status is MHStatus.VIOLATION:
                violations += 1
    report(6, "500 eventually periodic words, zero periodicity-bound violations",
           t0, 10, violations == 0, f"violations={violations}")


def test_criterion_7_fine_wilf_exhaustive():
    t0 = time.time()
    checked = 0
    ok = True
    for p in range(1, 9):
        for q in range(1, 9):
            g = gcd(p, q)
            length = p + q - g
            # all binary words of critical length with both periods: choose a
            # letter per residue class modulo the forced position merging
            parent = list(range(length))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for m in (p, q):
                for i in range(length - m):
                    parent[find(i)] = find(i + m)
            classes = sorted({find(i) for i in range(length)})
            ok = ok and len(classes) == g  # independent merge oracle
            for bits in itertools.product("ab", repeat=len(classes)):
                assign = dict(zip(classes, bits))
                word = Word(tuple(assign[find(i)] for i in range(length)))
                rep = fine_wilf(word, p, q)
                ok = ok and rep.applies and rep.combined_period == g
                checked += 1
    # one constructed sub-critical non-example: both periods, gcd not forced
    non = Word.from_text("aba")
    rep = fine_wilf(non, 2, 3)
    ok = ok and not rep.applies and non.letters[0] != non.letters[1]
    report(7, "exhaustive critical-length combination for p,q <= 8 plus a non-example",
           t0, 30, ok, f"{checked} words")


def test_criterion_8_engine_vs_oracle():
    t0 = time.time()
    rng = random.Random(314159)
    shapes = enumerate_convex_subsets(4, 4, canonical=True)
    mismatches = 0
    for _ in range(50):
        cfg = random_doubly_periodic(rng)
        box = basis_det(cfg)
        for pts in shapes:
            cells = tuple(sorted(pts))
            if complexity(cfg, cells).count != naive_complexity(cfg, cells, box):
                mismatches += 1
    report(8, "hashed engine equals naive counter on 50 random configurations "
              f"x {len(shapes)} convex shapes", t0, 60, mismatches == 0,
           f"mismatches={mismatches}")


def test_criterion_9_quasi_regularity():
    t0 = time.time()
    ok = True
    for n in range(2, 9):
        for k in range(2, 9):
            ok = ok and is_quasi_regular(block(n, k)).quasi_regular
    for n in range(1, 9):  # null-area blocks are outside the definition's domain
        for degenerate in (block(n, 1), block(1, n)):
            try:
                is_quasi_regular(degenerate)
                ok = False
            except GeometryError:
                pass
    ok = ok and not is_quasi_regular(convex_hull([(0, 0), (2, 0), (0, 2)])).quasi_regular
    hexagon = convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    ok = ok and is_quasi_regular(hexagon).quasi_regular
    report(9, "quasi-regularity on blocks, triangle, hexagon", t0, 1, ok)


def test_criterion_10_structural_audit():
    t0 = time.time()
    ok = True
    details = []
    ab = Alphabet(("a", "b"))
    from nivatlab.configurations import DoublyPeriodic

    checker = DoublyPeriodic.from_rows(ab, ["ab", "ba"])
    fixtures = [(checker, block(2, 2)), (DIAG, block(3, 4))]
    rng = random.Random(2718)
    for _ in range(6):
        fixtures.append((random_doubly_periodic(rng), block(3, 3)))
    for cfg, shape in fixtures:
        try:
            result = find_mlc_set(cfg, shape)
        except HypothesisNotMet:
            continue
        for audit in audit_mlc_inequality(cfg, result):
            ok = ok and audit.ok
        for line in (HORIZONTAL, VERTICAL, DIAGONAL):
            instance = remark_i_instance(cfg, result, line)
            if instance is not None:
                drop, allowed = instance
                ok = ok and drop <= allowed
    witness = expansive_witness(DIAG, HORIZONTAL, 1)
    try:
        cert = construct_balanced_set(DIAG, block(3, 4), HORIZONTAL,
                                      witness_absent=not witness.found)
    except Exception as exc:  # any construction failure is a criterion failure
        ok = False
        details.append(f"balanced-set construction failed: {exc}")
        cert = None
    if cert is not None:
        ok = ok and cert.drop <= cert.drop_bound
        ok = ok and len(cert.support_section) <= len(cert.antiparallel_section)
        strip = verify_strip_lemma(DIAG, cert.set, HORIZONTAL, cert.p, window=12)
        ok = ok and strip.status is StripLemmaStatus.PASS
        details.append(f"p={cert.p}, strip={strip.status.value}")
    report(10, "mlc audits, balanced-set construction, strip periodicity", t0, 30, ok,
           "; ".join(details))


def test_criterion_11_global_soundness():
    t0 = time.time()
    rng = random.Random(161803)
    ab = Alphabet(("a", "b"))
    shapes = [block(2, 2), block(3, 2), block(2, 3), block(3, 3), block(3, 4), block(4, 4)]
    violations = 0
    for i in range(200):
        cfg = random_doubly_periodic(rng) if i % 2 else random_finite_defect(rng, ab)
        rep = nivat_check(cfg, rng.choice(shapes))
        if rep.verdict is Verdict.VIOLATION:
            violations += 1
    report(11, "200 random configurations through the verifier, zero VIOLATION",
           t0, 60, violations == 0, f"violations={violations}")


def test_criterion_12_null_area_corollary():
    # A segment S with P(S) <= |S| + |A| - 2 forces a period parallel to S
    # with at most that many steps: the null-area corollary of the
    # alphabetical periodicity bound for words.
    t0 = time.time()
    rng = random.Random(5)
    ab = Alphabet(("a", "b"))
    bodies = [DIAG]
    for i in range(180):
        bodies.append(random_doubly_periodic(rng) if i % 2 else random_finite_defect(rng, ab))
    box = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    statuses = Counter()
    ok = True
    for cfg in bodies:
        for v in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)):
            for k in range(2, 7):
                rep = null_area_period(cfg, convex_hull([(t * v[0], t * v[1]) for t in range(k)]))
                statuses[rep.status] += 1
                if rep.status is NullAreaStatus.PERIOD_FOUND:
                    # The period is t steps along the segment, 1 <= t <= bound,
                    # and moves no letter of a box around the origin.
                    h = rep.period
                    ok = ok and rep.carrier in (v, (-v[0], -v[1])) and rep.factor_count <= rep.bound
                    ok = ok and any(h == (t * rep.carrier[0], t * rep.carrier[1]) for t in range(1, rep.bound + 1))
                    ok = ok and all(cfg.letter_at(g) == cfg.letter_at((g[0] + h[0], g[1] + h[1])) for g in box)
                elif rep.status is NullAreaStatus.HYPOTHESIS_FAILS:
                    ok = ok and rep.factor_count > rep.bound
                else:
                    ok = False
    window = WindowSample(ab, (0, 0), ["abab", "baba"])
    ok = ok and null_area_period(window, convex_hull([(0, 0), (1, 0)])).status is NullAreaStatus.NOT_CERTIFIABLE
    ok = ok and statuses[NullAreaStatus.PERIOD_FOUND] > 0 and statuses[NullAreaStatus.HYPOTHESIS_FAILS] > 0
    report(12, f"null-area corollary on {len(bodies)} bodies x 30 segments, zero VIOLATION", t0, 5, ok,
           ", ".join(f"{s.value}={n}" for s, n in sorted(statuses.items(), key=lambda e: e[0].value)))
