"""Bounded-exhaustive check of the counting kernel and the Nivat verifier on
every small binary torus and every small defect body.

    PYTHONPATH=src python tests/exhaustive.py --scope N

The scope-N tori are the binary bodies whose table fills the fundamental
domain [0, a) x [0, d) of the basis (a, 0), (b, d), for every a * d <= N and
0 <= b < a (each lattice of index at most N once, in Hermite normal form),
with the letter at (0, 0) fixed and both letters present.  Tables that give
one body (the same period lattice and the same torus rows) are swept once.
On each body:

- counts: `complexity` of every canonical convex subset of block(3, 3)
  equals the brute-force `naive_exact_count`;
- tables: every entry of `complexity_table(body, 3, 3)` equals the
  brute-force count of its block; on most of these small tori some block
  shows every pattern over the alphabet before its last strip, so the
  table's completeness stop fires;
- the verifier: `nivat_check` of every quasi-regular subset of block(4, 4)
  reports the brute-force count as exact, the bound |S|/2 + |A| - 1, the
  hypothesis count <= bound, and CONSISTENT exactly when the hypothesis
  holds (a torus is certified periodic), VACUOUS otherwise;
- the quasi-regularity gate: `nivat_check` of every positive-area subset of
  block(3, 3) that is not quasi-regular reports the hypothesis false and
  VACUOUS, whatever the count.

The defect bodies are every `FiniteDefect` with 1 to 3 defects in the 3 x 3
box [0, 2]^2, over two or three letters, with the background fixed to the
first letter and every letter present: 129 bodies over two letters and 576
over three.  On each:

- counts: `complexity` of every canonical convex subset of block(3, 3)
  equals `naive_exact_count`;
- the verifier: `nivat_check` of every quasi-regular subset of block(4, 4)
  reports the brute-force count as exact, the bound |S|/2 + |A| - 1, the
  hypothesis false and VACUOUS.  A defect body is certified aperiodic, and
  the theorem says no aperiodic body meets the hypothesis, so a count at or
  under the bound would be a counterexample and shows as a mismatch.

Orbit labels: on every torus, along every primitive v with |vx|, |vy| <= 3,
two translates u, u2 of the box [-2, 2]^2 share an `orbit_class` exactly
when u2 - u lies in P + Zv, decided by brute force: some u2 - u - t*v is a
period, tested with `letter_at`.  `len(directional_translates)` is the least
s >= 1 with s*v a period.  The diagonal family and every defect body get
the same label check on the box [-1, 1]^2.

Which shapes are quasi-regular is decided by the brute-force
`naive_quasi_regular`, which finds edges without a hull; it agrees with
`is_quasi_regular` on every positive-area subset of block(4, 4), checked
first.

Prints, per part, the bodies, shapes, mismatches and seconds, and exits 1 on
any mismatch.  `--scope` bounds the tori only; the defect bodies are swept
in full.  Stdlib only; `tests/test_exhaustive.py` runs the same sweep at
scope 5, with the defect bodies of at most two defects.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from time import perf_counter

from nivatlab.complexity import complexity, complexity_table
from nivatlab.configurations import Alphabet, Configuration, DiagonalFamily, DoublyPeriodic, FiniteDefect
from nivatlab.geometry import ConvexLatticeSet, is_quasi_regular
from nivatlab.verifier import Verdict, nivat_check
from oracles import enumerate_convex_subsets, naive_exact_count, naive_quasi_regular

LETTERS = ("a", "b")
# Every primitive direction with |vx|, |vy| <= 3, both orientations.
VECTORS = tuple((x, y) for x in range(-3, 4) for y in range(-3, 4) if gcd(x, y) == 1)


def tori(scope: int) -> list[DoublyPeriodic]:
    """Every binary torus of the scope, one per (period lattice, torus rows)."""
    alphabet = Alphabet(LETTERS)
    bodies: dict[tuple, DoublyPeriodic] = {}
    for a in range(1, scope + 1):
        for d in range(1, scope // a + 1):
            cells = [(x, y) for y in range(d) for x in range(a)]
            for rest in product(LETTERS, repeat=a * d - 1):
                if LETTERS[1] not in rest:
                    continue
                table = dict(zip(cells, (LETTERS[0], *rest)))
                for b in range(a):
                    body = DoublyPeriodic(alphabet, ((a, 0), (b, d)), table)
                    bodies.setdefault((body._hnf, body._rows), body)
    return list(bodies.values())


def defect_bodies(most: int = 3) -> list[FiniteDefect]:
    """Every defect body with 1 to `most` defects in the 3 x 3 box, over two
    or three letters, with the background the first letter and every letter
    present."""
    box = [(x, y) for y in range(3) for x in range(3)]
    bodies = []
    for letters in (LETTERS, (*LETTERS, "c")):
        alphabet = Alphabet(letters)
        for size in range(1, most + 1):
            for cells in combinations(box, size):
                for marks in product(letters[1:], repeat=size):
                    if set(marks) == set(letters[1:]):
                        bodies.append(FiniteDefect(alphabet, letters[0], dict(zip(cells, marks))))
    return bodies


def count_shapes() -> list[frozenset]:
    """The canonical convex subsets of block(3, 3)."""
    return enumerate_convex_subsets(3, 3, canonical=True)


def area_shapes(n: int, k: int) -> list[ConvexLatticeSet]:
    """The canonical convex subsets of block(n, k) of positive area."""
    shapes = map(ConvexLatticeSet, enumerate_convex_subsets(n, k, canonical=True))
    return [s for s in shapes if s.has_positive_area()]


def verifier_shapes() -> list[ConvexLatticeSet]:
    """The canonical quasi-regular subsets of block(4, 4), of positive area,
    chosen by the brute-force `naive_quasi_regular`."""
    return [s for s in area_shapes(4, 4) if naive_quasi_regular(s.cells)]


def irregular_shapes() -> list[ConvexLatticeSet]:
    """The canonical subsets of block(3, 3) of positive area that are not
    quasi-regular, chosen by the brute-force `naive_quasi_regular`."""
    return [s for s in area_shapes(3, 3) if not naive_quasi_regular(s.cells)]


def quasi_regular_mismatches() -> list[tuple]:
    """(shape, reported) for each positive-area canonical subset of block(4, 4)
    on which `is_quasi_regular` and `naive_quasi_regular` disagree."""
    return [(s.cells, quasi) for s in area_shapes(4, 4)
            if (quasi := is_quasi_regular(s).quasi_regular) != naive_quasi_regular(s.cells)]


def table_blocks() -> list[tuple]:
    """((n, k), cells) of every entry of a 3 x 3 block table, in table order."""
    return [((n, k), tuple((x, y) for x in range(n) for y in range(k)))
            for n in range(1, 4) for k in range(1, 4)]


def table_mismatches(body: DoublyPeriodic, blocks: list[tuple]) -> list[tuple]:
    """((n, k), count, brute-force count) for each entry of the body's
    `complexity_table` whose count is wrong, the table as large as the last
    of the `table_blocks`."""
    table = complexity_table(body, *blocks[-1][0])
    return [((n, k), table[n, k].count, expected) for (n, k), cells in blocks
            if table[n, k].count != (expected := naive_exact_count(body, cells))]


def count_mismatches(body: DoublyPeriodic | FiniteDefect, shapes: list[frozenset]) -> list[tuple]:
    """(shape, count, brute-force count) for each shape whose count is wrong."""
    out = []
    for shape in shapes:
        count, expected = complexity(body, shape).count, naive_exact_count(body, shape)
        if count != expected:
            out.append((sorted(shape), count, expected))
    return out


def report_mismatches(
    body: DoublyPeriodic | FiniteDefect, shapes: list[ConvexLatticeSet], quasi: bool = True
) -> list[tuple]:
    """(shape, reported, recomputed) for each shape whose `nivat_check` report
    differs from the recomputation, as (quasi_regular, count, exact, bound,
    hypothesis_holds, verdict); `quasi` says whether the shapes are quasi-regular.
    On a defect body the recomputation expects the hypothesis false, as the
    theorem says for an aperiodic body."""
    out = []
    for shape in shapes:
        count = naive_exact_count(body, shape.cells)
        bound = Fraction(len(shape), 2) + len(body.alphabet) - 1
        holds = quasi and count <= bound and isinstance(body, DoublyPeriodic)
        expected = (quasi, count, True, bound, holds, Verdict.CONSISTENT if holds else Verdict.VACUOUS)
        report = nivat_check(body, shape)
        got = (report.quasi_regular, report.complexity.count, report.complexity.exact, report.bound,
               report.hypothesis_holds, report.verdict)
        if got != expected:
            out.append((shape.cells, got, expected))
    return out


def box(r: int) -> list[tuple[int, int]]:
    """The translates of [-r, r]^2, x-major."""
    return list(product(range(-r, r + 1), repeat=2))


def _period_cells(body: Configuration) -> list[tuple[int, int]]:
    """Cells whose letters decide whether a vector is a period: the table's
    box [0, a) x [0, d) on a swept torus (a fundamental domain of its basis),
    the defects on a defect body (a finite set is moved off itself by every
    nonzero shift), and the row y = 0, |x| <= 64, on the diagonal family
    (where a shift changing x - y by at most 56 moves some letter)."""
    if isinstance(body, DoublyPeriodic):
        return list(product(range(body.basis[0][0]), range(body.basis[1][1])))
    if isinstance(body, FiniteDefect):
        return list(body.defects)
    return [(x, 0) for x in range(-64, 65)]


def orbit_mismatches(body: Configuration, vectors: tuple, translates: list) -> list[tuple]:
    """(v, u, first, first labelled) for each translate u whose first
    translate with an equal `orbit_class` along v is not its first translate
    in the same orbit of P + Zv by brute force, and, on a torus,
    (v, len(directional_translates), least s) when the steps are not the
    least s >= 1 with s*v a period.  Both relations are equivalences, so
    they are equal exactly when every translate has the same first member.

    u2 - u lies in P + Zv when u2 - u - t*v is a period for some t: on a
    swept torus of basis determinant D, D*v lies in the basis lattice, so
    0 <= t < D suffices; otherwise t runs as far as a difference of the
    translates reaches, which covers P = 0 and P = Z(1, 1).
    """
    cells, periods = _period_cells(body), {}

    def is_period(h: tuple[int, int]) -> bool:
        if h not in periods:
            periods[h] = all(body.letter_at(g) == body.letter_at((g[0] + h[0], g[1] + h[1])) for g in cells)
        return periods[h]

    torus = isinstance(body, DoublyPeriodic)
    if torus:
        steps = range(body.basis[0][0] * body.basis[1][1])
    else:
        reach = 2 * max(max(map(abs, u)) for u in translates)
        steps = range(-2 * reach, 2 * reach + 1)
    out = []
    for v in vectors:
        firsts, labelled = [], {}
        for u in translates:
            first = next((r for r in firsts if any(
                is_period((u[0] - r[0] - t * v[0], u[1] - r[1] - t * v[1])) for t in steps)), None)
            if first is None:
                firsts.append(first := u)
            label = body.orbit_class(u, v)
            if labelled.setdefault(label, u) != first:
                out.append((v, u, first, labelled[label]))
        if torus:
            least = next(s for s in range(1, len(steps) + 1) if is_period((s * v[0], s * v[1])))
            if (along := len(body.directional_translates((), (0, 0), v))) != least:
                out.append((v, along, least))
    return out


def _name(body: Configuration) -> tuple:
    if isinstance(body, DoublyPeriodic):
        return body.basis, body._rows
    if isinstance(body, FiniteDefect):
        return body.background, sorted(body.defects.items())
    return type(body).__name__,


def _sweep(label: str, bodies: list, shapes: list, check, unit: str = "shapes") -> int:
    start = perf_counter()
    bad = [(_name(body), *m) for body in bodies for m in check(body, shapes)]
    print(f"{label}: {len(bodies)} bodies x {len(shapes)} {unit}, {len(bad)} mismatches, "
          f"{perf_counter() - start:.2f} s")
    for mismatch in bad[:5]:
        print(f"    {mismatch}")
    return len(bad)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scope", type=int, default=5, help="the largest index a * d swept (default 5)")
    scope = parser.parse_args(argv).scope
    start = perf_counter()
    bodies = tori(scope)
    print(f"scope {scope}: {len(bodies)} bodies in {perf_counter() - start:.2f} s")
    quasi = quasi_regular_mismatches()
    print(f"quasi-regularity: {len(quasi)} mismatches")
    bad = len(quasi) + _sweep("counts", bodies, count_shapes(), count_mismatches)
    bad += _sweep("tables", bodies, table_blocks(), table_mismatches)
    bad += _sweep("verifier", bodies, verifier_shapes(), report_mismatches)
    bad += _sweep("gate", bodies, irregular_shapes(),
                  lambda body, shapes: report_mismatches(body, shapes, quasi=False))
    defects = defect_bodies()
    bad += _sweep("defect counts", defects, count_shapes(), count_mismatches)
    bad += _sweep("defect verifier", defects, verifier_shapes(), report_mismatches)
    bad += _sweep("orbits", bodies, VECTORS, lambda body, vs: orbit_mismatches(body, vs, box(2)), "directions")
    bad += _sweep("other orbits", [DiagonalFamily(), *defects], VECTORS,
                  lambda body, vs: orbit_mismatches(body, vs, box(1)), "directions")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
