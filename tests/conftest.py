"""Shared fixtures: reference configurations, brute-force oracles, and
convex-subset enumeration used across the suite."""

from __future__ import annotations

import itertools
import random
import weakref

import pytest

from nivatlab.configurations import Alphabet, DiagonalFamily, DoublyPeriodic, FiniteDefect
from nivatlab.errors import GeometryError
from nivatlab.geometry import ConvexLatticeSet, Line, convex_hull

LETTERS = "abcd"


@pytest.fixture(scope="session")
def ab() -> Alphabet:
    return Alphabet(("a", "b"))


@pytest.fixture(scope="session")
def checkerboard(ab) -> DoublyPeriodic:
    return DoublyPeriodic.from_rows(ab, ["ab", "ba"])


@pytest.fixture(scope="session")
def diagonal() -> DiagonalFamily:
    return DiagonalFamily()


@pytest.fixture(scope="session")
def one_defect(ab) -> FiniteDefect:
    return FiniteDefect(ab, "a", {(0, 0): "b"})


@pytest.fixture(scope="session")
def hexagon() -> ConvexLatticeSet:
    return convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])


HORIZONTAL = Line(1, 0, 0)
VERTICAL = Line(0, 1, 0)
DIAGONAL = Line(1, 1, 0)


def enumerate_convex_subsets(n: int, k: int, canonical: bool = False) -> list[frozenset]:
    """All convex lattice subsets of the n-by-k block (optionally up to translation)."""
    out: dict[frozenset, None] = {}
    intervals = [(a, b) for a in range(n) for b in range(a, n)]
    for y0 in range(k):
        for y1 in range(y0, k):
            rows = list(range(y0, y1 + 1))
            for choice in itertools.product(intervals, repeat=len(rows)):
                pts = frozenset(
                    (x, y) for (a, b), y in zip(choice, rows) for x in range(a, b + 1)
                )
                if canonical:
                    mx = min(p[0] for p in pts)
                    my = min(p[1] for p in pts)
                    pts = frozenset((x - mx, y - my) for (x, y) in pts)
                if pts in out:
                    continue
                try:
                    ConvexLatticeSet(pts)
                except GeometryError:
                    continue
                out[pts] = None
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def random_doubly_periodic(rng: random.Random, max_det: int = 16) -> DoublyPeriodic:
    """A random doubly periodic configuration with fundamental domain <= max_det."""
    while True:
        b1 = (rng.randint(-4, 4), rng.randint(-4, 4))
        b2 = (rng.randint(-4, 4), rng.randint(-4, 4))
        det = b1[0] * b2[1] - b1[1] * b2[0]
        if det != 0 and 2 <= abs(det) <= max_det:
            break
    size = abs(det)
    alpha = Alphabet(tuple(LETTERS[: rng.randint(2, min(4, size))]))
    reps = coset_representatives(b1, b2, det)
    while True:
        letters = [rng.choice(alpha.letters) for _ in reps]
        if set(letters) == set(alpha.letters):
            break
    return DoublyPeriodic(alpha, (b1, b2), dict(zip(reps, letters)))


def coset_representatives(b1, b2, det) -> list:
    probe = DoublyPeriodic.__new__(DoublyPeriodic)
    probe.basis = (b1, b2)
    probe._det = det
    reps, seen = [], set()
    for x in range(abs(det)):
        for y in range(abs(det)):
            r = probe.reduce((x, y))
            if r not in seen:
                seen.add(r)
                reps.append(r)
            if len(reps) == abs(det):
                return reps
    return reps


_GRIDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # body -> (lo, hi, grid)


def letter_grid(config, lo: int, hi: int) -> tuple[int, int, list[list[str]]]:
    """(lo', hi', grid) with grid[x - lo'][y - lo'] the letter_at of (x, y) on [lo', hi')^2.

    The square covers [lo, hi)^2 and is read once per body, one letter_at call per point.
    """
    cached = _GRIDS.get(config)
    if cached is None or cached[0] > lo or cached[1] < hi:
        letter_at = config.letter_at
        grid = [[letter_at((x, y)) for y in range(lo, hi)] for x in range(lo, hi)]
        cached = _GRIDS[config] = (lo, hi, grid)
    return cached


def naive_complexity(config, cells, box: int) -> int:
    """Brute force over the covering box [0, box)^2, on letters read with letter_at.

    Each translate's pattern is the tuple of its cells' letters, looked up in
    the body's letter grid; nothing here calls the counting engine.
    """
    coords = [c for g in cells for c in g]
    lo, _, grid = letter_grid(config, min(0, *coords), box + max(0, *coords))
    seen: set[tuple] = set()
    for ux in range(box):
        # One list per cell over uy in [0, box); zip yields each translate's letters.
        seen.update(zip(*[grid[x + ux - lo][y - lo:y - lo + box] for x, y in cells]))
    return len(seen)


def random_finite_defect(rng: random.Random, ab: Alphabet) -> FiniteDefect:
    count = rng.randint(1, 5)
    defects = {}
    while len(defects) < count:
        defects[(rng.randint(-4, 4), rng.randint(-4, 4))] = "b"
    return FiniteDefect(ab, "a", defects)
