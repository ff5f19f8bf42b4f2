"""Brute-force oracles and the convex-subset enumeration, shared by the
suite and by the scripts beside it (`tests/exhaustive.py`).

Stdlib only, so a script runs them without pytest; `conftest.py` imports
them, and tests take them from there as before.  Nothing here calls the
counting engine: letters are read with `letter_at`.
"""

from __future__ import annotations

import itertools
import weakref
from math import gcd

from nivatlab.configurations import DiagonalFamily, DoublyPeriodic
from nivatlab.errors import GeometryError
from nivatlab.geometry import ConvexLatticeSet


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


def naive_quasi_regular(points) -> bool:
    """Whether a finite convex lattice set of positive area is quasi-regular:
    each hull edge has an antiparallel edge with as many lattice points.

    The edges are found without a hull.  For each primitive direction v
    between two of the points, the points where cross(v, g) is least lie on
    the set's edge of direction v, when there are two or more of them; the
    points where it is greatest lie on the edge of direction -v.
    """
    pts = list(points)
    directions = set()
    for (px, py), (qx, qy) in itertools.permutations(pts, 2):
        g = gcd(qx - px, qy - py)
        directions.add(((qx - px) // g, (qy - py) // g))
    for dx, dy in directions:
        values = [dx * y - dy * x for x, y in pts]
        low, high = values.count(min(values)), values.count(max(values))
        if low >= 2 and low != high:
            return False
    return True


def basis_det(cfg: DoublyPeriodic) -> int:
    """|det| of a doubly periodic body's given basis: the number of its cosets."""
    (b1x, b1y), (b2x, b2y) = cfg.basis
    return abs(b1x * b2y - b1y * b2x)


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


def naive_exact_count(config, cells) -> int:
    """`naive_complexity` over a box holding every pattern of a small shape on
    a torus, the diagonal family, or a defect body with its defects in [-4, 4]^2."""
    if isinstance(config, DoublyPeriodic):
        return naive_complexity(config, cells, basis_det(config))
    if isinstance(config, DiagonalFamily):
        return naive_complexity(config, cells, 60)
    # Cells moved by (-14, -14) sweep the translates [-14, 15)^2.
    return naive_complexity(config, [(x - 14, y - 14) for x, y in cells], 29)
