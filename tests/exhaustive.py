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
- the verifier: `nivat_check` of every quasi-regular subset of block(4, 4)
  reports the brute-force count as exact, the bound |S|/2 + |A| - 1, the
  hypothesis count <= bound, and CONSISTENT exactly when the hypothesis
  holds (a torus is certified periodic), VACUOUS otherwise.

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

from nivatlab.complexity import complexity
from nivatlab.configurations import Alphabet, DoublyPeriodic
from nivatlab.geometry import ConvexLatticeSet, is_quasi_regular
from nivatlab.verifier import Verdict, nivat_check
from oracles import enumerate_convex_subsets, naive_exact_count

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


def verifier_shapes() -> list[ConvexLatticeSet]:
    """The canonical quasi-regular subsets of block(4, 4), of positive area."""
    shapes = map(ConvexLatticeSet, enumerate_convex_subsets(4, 4, canonical=True))
    return [s for s in shapes if s.has_positive_area() and is_quasi_regular(s).quasi_regular]


def count_mismatches(body: DoublyPeriodic, shapes: list[frozenset]) -> list[tuple]:
    """(shape, count, brute-force count) for each shape whose count is wrong."""
    out = []
    for shape in shapes:
        count, expected = complexity(body, shape).count, naive_exact_count(body, shape)
        if count != expected:
            out.append((sorted(shape), count, expected))
    return out


def report_mismatches(body: DoublyPeriodic, shapes: list[ConvexLatticeSet]) -> list[tuple]:
    """(shape, reported, recomputed) for each shape whose `nivat_check` report
    differs from the recomputation, as (quasi_regular, count, exact, bound,
    hypothesis_holds, verdict)."""
    out = []
    for shape in shapes:
        count = naive_exact_count(body, shape.cells)
        bound = Fraction(len(shape), 2) + len(body.alphabet) - 1
        holds = count <= bound
        expected = (True, count, True, bound, holds, Verdict.CONSISTENT if holds else Verdict.VACUOUS)
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
    bad = _sweep("counts", bodies, count_shapes(), count_mismatches)
    bad += _sweep("verifier", bodies, verifier_shapes(), report_mismatches)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
