"""Shared fixtures: reference configurations, brute-force oracles, and
convex-subset enumeration used across the suite.  The oracles that scripts
outside pytest share live in `oracles.py` and are imported from here."""

from __future__ import annotations

import functools
import itertools
import math
import random

import pytest
from hypothesis import Phase, settings

from nivatlab.configurations import Alphabet, DiagonalFamily, DoublyPeriodic, FiniteDefect, WindowSample
from nivatlab.geometry import ConvexLatticeSet, Line, convex_hull
from oracles import (  # noqa: F401  (tests import the oracles from here)
    basis_det,
    enumerate_convex_subsets,
    naive_complexity,
    naive_exact_count,
)

LETTERS = "abcd"

# `tests/mutants.py` runs under this profile: a mutant is killed by its first
# failing example, so shrinking it would only add time.
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])


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


def basis_reduce(basis, g) -> tuple[int, int]:
    """g reduced modulo the lattice of `basis`: the unique point of g's coset
    with both rational basis coordinates in [0, 1)."""
    (b1x, b1y), (b2x, b2y) = basis
    det = b1x * b2y - b1y * b2x
    qs = (g[0] * b2y - g[1] * b2x) // det
    qt = (b1x * g[1] - b1y * g[0]) // det
    return g[0] - qs * b1x - qt * b2x, g[1] - qs * b1y - qt * b2y


@functools.cache
def basis_domain(basis) -> tuple[tuple[int, int], ...]:
    """The fundamental domain of `basis`: one reduced point per coset, sorted.

    The y of a lattice vector is a multiple of d = gcd(b1y, b2y), and the
    lattice vectors with y = 0 are the multiples of (|det| / d, 0), so the
    box [0, |det| / d) x [0, d) meets every coset once.
    """
    (b1x, b1y), (b2x, b2y) = basis
    d = math.gcd(b1y, b2y)
    width = abs(b1x * b2y - b1y * b2x) // d
    return tuple(sorted(basis_reduce(basis, (x, y)) for x in range(width) for y in range(d)))


def coset_representatives(b1, b2, det) -> list:
    """One point of each coset of the lattice of b1, b2, reduced, in order of discovery."""
    reps, seen = [], set()
    for x in range(abs(det)):
        for y in range(abs(det)):
            r = basis_reduce((b1, b2), (x, y))
            if r not in seen:
                seen.add(r)
                reps.append(r)
            if len(reps) == abs(det):
                return reps
    return reps


def naive_diagonal_language(config, cells, reach: int) -> set[tuple[str, ...]]:
    """The letters, in cell order, of cells + (d, 0) for every |d| <= reach.

    A diagonal-family letter depends only on x - y, so these translates show
    every pattern of the shape once reach passes its certified sweep.  Each
    letter is read with letter_at, once per x - y value; nothing here calls
    the counting engine.
    """
    deltas = [x - y for x, y in cells]
    lo = min(deltas) - reach
    letters = [config.letter_at((c, 0)) for c in range(lo, max(deltas) + reach + 1)]
    return {tuple([letters[e - lo + d] for e in deltas]) for d in range(-reach, reach + 1)}


def sheared_doubly_periodic(rng: random.Random, p: int, q: int, shear: int) -> DoublyPeriodic:
    """A random body with basis (p, 0), (shear, q); the box [0, p) x [0, q) is a residue system."""
    letters = [rng.choice("ab") for _ in range(p * q - 2)] + ["a", "b"]
    rng.shuffle(letters)
    table = {(x, y): letters[x * q + y] for x in range(p) for y in range(q)}
    return DoublyPeriodic(Alphabet(("a", "b")), ((p, 0), (shear, q)), table)


def tiled_doubly_periodic(rng: random.Random, sheared: bool) -> DoublyPeriodic:
    """A random body given by a basis coarser than the lattice of its tile.

    The tile is a random two-letter table on the box [0, a) x [0, d), and the
    body repeats it under (a, 0) and (b, d).  Unsheared (b = 0), the body is
    given as rows holding i x j copies of the tile; sheared, its basis is
    two random independent integer combinations of (a, 0) and (b, d), and
    its table lists the tile's letters on coset representatives of that
    basis.  The tile itself may have more periods.
    """
    while True:
        a, d = rng.randint(1, 4), rng.randint(1, 3)
        tile = ["".join(rng.choice("ab") for _ in range(a)) for _ in range(d)]
        if not sheared:
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            if {"a", "b"} <= set("".join(tile)) and i * j > 1:
                return DoublyPeriodic.from_rows(Alphabet(("a", "b")), [row * i for row in tile] * j)
            continue
        b = rng.randrange(a)
        (i1, j1), (i2, j2) = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
        if not 1 < abs(i1 * j2 - i2 * j1) <= 4:
            continue
        b1, b2 = (i1 * a + j1 * b, j1 * d), (i2 * a + j2 * b, j2 * d)
        det = b1[0] * b2[1] - b1[1] * b2[0]
        # The letter at g: g minus the tile vector (g[1] // d) * (b, d) lies in row g[1] mod d.
        table = {g: tile[g[1] % d][(g[0] - g[1] // d * b) % a] for g in coset_representatives(b1, b2, det)}
        if set(table.values()) == {"a", "b"}:
            return DoublyPeriodic(Alphabet(("a", "b")), (b1, b2), table)


# Doubly periodic tables over the alphabet ab, each with the diagnostic it
# draws (None: the body is accepted).  Where a table has several faults the
# first of these wins: a dependent basis; the first faulty cell in table
# order, a foreign letter or a second letter for its coset; too few cosets
# covered; a letter never used.  A coset listed twice with one letter is
# accepted and covered once.
PERIODIC_TABLES = [
    (((2, 0), (0, 2)), [((0, 0), "a"), ((1, 0), "b"), ((0, 1), "b"), ((1, 1), "a"), ((2, 2), "a")], None),
    (((2, 0), (1, 2)), [((0, 0), "a"), ((1, 0), "b"), ((0, 1), "b"), ((1, 1), "a"), ((-1, -2), "a")], None),
    (((2, 0), (0, 2)), [((0, 0), "a"), ((1, 0), "b"), ((0, 1), "b"), ((1, 1), "a"), ((2, 0), "b")],
     "table assigns two letters to the coset of (2, 0)"),
    (((2, 0), (1, 2)), [((0, 0), "a"), ((1, 0), "b"), ((0, 1), "b"), ((0, 2), "a")],
     "table assigns two letters to the coset of (0, 2)"),
    (((2, 0), (0, 2)), [((0, 0), "a"), ((1, 0), "b"), ((0, 1), "b")],
     "table covers 3 cosets, fundamental domain has 4"),
    (((2, 0), (0, 2)), [((0, 0), "a"), ((1, 0), "b"), ((0, 1), "b"), ((2, 0), "a")],
     "table covers 3 cosets, fundamental domain has 4"),
    (((2, 0), (0, 2)), [((0, 0), "a"), ((2, 0), "b"), ((1, 0), "z")],
     "table assigns two letters to the coset of (2, 0)"),
    (((2, 0), (0, 2)), [((0, 0), "a"), ((1, 0), "z"), ((2, 0), "b")], "letter 'z' not in alphabet"),
    (((2, 0), (0, 1)), [((0, 0), "a"), ((1, 0), "a"), ((3, 0), "a")],
     "every alphabet letter must occur in the fundamental domain"),
    (((2, 0), (0, 2)), [((0, 0), "a"), ((1, 0), "a")], "table covers 2 cosets, fundamental domain has 4"),
    (((2, 0), (4, 0)), [((0, 0), "z"), ((1, 0), "a")], "basis vectors must be linearly independent"),
    # A huge basis: the check must not allocate a slot per coset.
    (((100000000, 0), (0, 100000000)), [((0, 0), "a"), ((1, 0), "b")],
     "table covers 2 cosets, fundamental domain has 10000000000000000"),
]


# Bodies other than periodic tables that each draw one diagnostic: the
# constructor and its arguments, the same body as a JSON spec, and the
# diagnostic.
_AB = Alphabet(("a", "b"))
_DEFECT = {"type": "finite_defect", "alphabet": ["a", "b"], "background": "a", "defects": [[0, 0, "b"]]}
_RAGGED = "rows must be nonempty and rectangular"
BODY_DIAGNOSTICS = [
    (FiniteDefect, (_AB, "c", {(0, 0): "b"}), {**_DEFECT, "background": "c"}, "background 'c' not in alphabet"),
    (FiniteDefect, (_AB, "a", {(0, 0): "c"}), {**_DEFECT, "defects": [[0, 0, "c"]]}, "letter 'c' not in alphabet"),
    (FiniteDefect, (Alphabet(("a", "b", "c")), "a", {(0, 0): "b"}), {**_DEFECT, "alphabet": ["a", "b", "c"]},
     "every alphabet letter must occur"),
    (DoublyPeriodic.from_rows, (_AB, []), {"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": []}, _RAGGED),
    (DoublyPeriodic.from_rows, (_AB, ["ab", "b"]), {"type": "doubly_periodic", "alphabet": ["a", "b"],
                                                   "rows": ["ab", "b"]}, _RAGGED),
    (WindowSample, (_AB, (0, 0), []), {"type": "window", "alphabet": ["a", "b"], "rows": []}, _RAGGED),
    (WindowSample, (_AB, (0, 0), ["ab", "abb"]), {"type": "window", "alphabet": ["a", "b"], "rows": ["ab", "abb"]},
     _RAGGED),
]


def brute_is_period(cfg: DoublyPeriodic, h: tuple[int, int]) -> bool:
    """Whether h moves no letter, read with letter_at over the fundamental
    domain of the given basis (not the body's own enumeration domain, which
    a wrong period lattice would shrink along with the periods it claims)."""
    return all(cfg.letter_at(g) == cfg.letter_at((g[0] + h[0], g[1] + h[1])) for g in basis_domain(cfg.basis))


def brute_torus_size(cfg: DoublyPeriodic) -> int:
    """The index of the period lattice P, by brute force: P is a union of cosets
    of the given basis lattice, one per point of its fundamental domain that is
    a period (the origin among them)."""
    return basis_det(cfg) // sum(brute_is_period(cfg, h) for h in basis_domain(cfg.basis))


def random_finite_defect(rng: random.Random, ab: Alphabet) -> FiniteDefect:
    count = rng.randint(1, 5)
    defects = {}
    while len(defects) < count:
        defects[(rng.randint(-4, 4), rng.randint(-4, 4))] = "b"
    return FiniteDefect(ab, "a", defects)


def _turn(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(q, a, b) -> bool:
    return (_turn(a, b, q) == 0 and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= q[1] <= max(a[1], b[1]))


def _in_triangle(q, a, b, c) -> bool:
    turns = (_turn(a, b, q), _turn(b, c, q), _turn(c, a, q))
    return _turn(a, b, c) != 0 and (min(turns) >= 0 or max(turns) <= 0)


def in_hull_of(q, points) -> bool:
    """Whether q lies in a segment or a triangle of the points, so in their hull (Caratheodory).

    Only the least and greatest point of each row are tried: every other
    point lies on the segment between those two, so they have the same hull.
    """
    rows: dict = {}
    for x, y in points:
        lo, hi = rows.get(y, (x, x))
        rows[y] = (min(lo, x), max(hi, x))
    ends = sorted({(x, y) for y, pair in rows.items() for x in pair})
    return (q in ends or any(_on_segment(q, a, b) for a, b in itertools.combinations(ends, 2))
            or any(_in_triangle(q, *t) for t in itertools.combinations(ends, 3)))


def convex_subsets_of_box(radius: int) -> list[frozenset]:
    """Every nonempty convex subset of the box [-radius, radius]^2, from all of its subsets.

    C is convex when no other point of the box lies in conv(C); no point
    outside the box can, since the box is convex.  By Caratheodory a point
    lies in conv(C) exactly when it lies in a triangle or a segment of points
    of C.  Integer cross products decide that; no library geometry is used.
    """
    box = [(x, y) for x in range(-radius, radius + 1) for y in range(-radius, radius + 1)]
    out = []
    for mask in range(1, 1 << len(box)):
        cells = [g for i, g in enumerate(box) if mask >> i & 1]
        inside = set(cells)
        if not any(
            any(_on_segment(q, a, b) for a, b in itertools.combinations(cells, 2))
            or any(_in_triangle(q, *t) for t in itertools.combinations(cells, 3))
            for q in box if q not in inside
        ):
            out.append(frozenset(cells))
    return out
