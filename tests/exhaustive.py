"""Bounded-exhaustive check of the counting kernel and the Nivat verifier on
every small binary torus.

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

Which shapes are quasi-regular is decided by the brute-force
`naive_quasi_regular`, which finds edges without a hull; it agrees with
`is_quasi_regular` on every positive-area subset of block(4, 4), checked
first.

Prints, per part, the bodies, shapes, mismatches and seconds, and exits 1 on
any mismatch.  Stdlib only; `tests/test_exhaustive.py` runs the same sweep
at scope 5.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import product
from time import perf_counter

from nivatlab.complexity import complexity, complexity_table
from nivatlab.configurations import Alphabet, DoublyPeriodic
from nivatlab.geometry import ConvexLatticeSet, is_quasi_regular
from nivatlab.verifier import Verdict, nivat_check
from oracles import enumerate_convex_subsets, naive_exact_count, naive_quasi_regular

LETTERS = ("a", "b")


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


def count_mismatches(body: DoublyPeriodic, shapes: list[frozenset]) -> list[tuple]:
    """(shape, count, brute-force count) for each shape whose count is wrong."""
    out = []
    for shape in shapes:
        count, expected = complexity(body, shape).count, naive_exact_count(body, shape)
        if count != expected:
            out.append((sorted(shape), count, expected))
    return out


def report_mismatches(body: DoublyPeriodic, shapes: list[ConvexLatticeSet], quasi: bool = True) -> list[tuple]:
    """(shape, reported, recomputed) for each shape whose `nivat_check` report
    differs from the recomputation, as (quasi_regular, count, exact, bound,
    hypothesis_holds, verdict); `quasi` says whether the shapes are quasi-regular."""
    out = []
    for shape in shapes:
        count = naive_exact_count(body, shape.cells)
        bound = Fraction(len(shape), 2) + len(body.alphabet) - 1
        holds = quasi and count <= bound
        expected = (quasi, count, True, bound, holds, Verdict.CONSISTENT if holds else Verdict.VACUOUS)
        report = nivat_check(body, shape)
        got = (report.quasi_regular, report.complexity.count, report.complexity.exact, report.bound,
               report.hypothesis_holds, report.verdict)
        if got != expected:
            out.append((shape.cells, got, expected))
    return out


def _sweep(label: str, bodies: list[DoublyPeriodic], shapes: list, check) -> int:
    start = perf_counter()
    bad = [(body.basis, body._rows, *m) for body in bodies for m in check(body, shapes)]
    print(f"{label}: {len(bodies)} bodies x {len(shapes)} shapes, {len(bad)} mismatches, "
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
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
