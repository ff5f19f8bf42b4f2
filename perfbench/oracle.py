"""Reference results computed without the library's counting engine.

Every function here works from the benchmark's own description of a body
(its letter function, defect map or grid) and enumerates translates by brute
force.  None of them imports `nivatlab`, so a counting bug in the library
cannot also hide in its reference.
"""

from __future__ import annotations

import functools
from fractions import Fraction

# -- the two-letter diagonal family ---------------------------------------------


def diagonal_black_offsets(limit: int) -> set[int]:
    """Offsets d = x - y with |d| <= limit that are black: 0 and +-(6+7+...+c), c >= 6."""
    out = {0}
    total, c = 0, 6
    while True:
        total = c * (c + 1) // 2 - 15
        if total > limit:
            return out
        out.update((total, -total))
        c += 1


def diagonal_count(points) -> int:
    """Distinct patterns of a point set on the diagonal family.

    A cell's letter depends only on x - y, so the pattern at translate u is
    the window of the black/white offset sequence over u0 - u1 + D, where D
    is the set of x - y values of the shape.  Past offset sigma(W + 2), with
    W the width of D, consecutive black offsets are more than W apart, so a
    sweep over [-M, M] with M = sigma(W + 3) + 2W + 10 meets every view:
    all multi-black ones, each single-black one and the empty one.
    """
    deltas = sorted({x - y for x, y in points})
    lo, hi = deltas[0], deltas[-1]
    width = hi - lo
    c = width + 3
    reach = c * (c + 1) // 2 - 15 + 2 * width + 10
    black = diagonal_black_offsets(reach + abs(lo) + abs(hi) + 1)
    span = range(-reach - hi, reach - lo + 1)
    row = "".join("1" if d in black else "0" for d in range(span[0] + lo, span[-1] + hi + 1))
    if len(deltas) == width + 1:
        return len({row[i : i + width + 1] for i in range(len(span))})
    rel = [d - lo for d in deltas]
    return len({tuple(row[i + r] for r in rel) for i in range(len(span))})


# -- doubly periodic bodies -------------------------------------------------------


class PeriodicBody:
    """A body invariant under (p, 0) and (shear, q), given by a q-by-p letter table.

    table[y][x] is the letter at (x, y) for 0 <= x < p and 0 <= y < q; the row
    index counts up from y = 0.
    """

    def __init__(self, table: list[str], shear: int = 0) -> None:
        self.table = table
        self.p = len(table[0])
        self.q = len(table)
        self.shear = shear
        self.letters = sorted(set("".join(table)))

    def letter(self, x: int, y: int) -> str:
        wraps = y // self.q
        return self.table[y % self.q][(x - self.shear * wraps) % self.p]

    def grid(self, width: int, height: int) -> list[str]:
        """Rows 0..height-1 of the letters at x = 0..width-1."""
        return ["".join(self.letter(x, y) for x in range(width)) for y in range(height)]

    def block_patterns(self, n: int, k: int) -> set[tuple[str, ...]]:
        """Letter tuples, in (x, y) order, of the n-by-k block over one fundamental box."""
        g = self.grid(self.p + n, self.q + k)
        out = set()
        for uy in range(self.q):
            rows = g[uy : uy + k]
            for ux in range(self.p):
                cols = [r[ux : ux + n] for r in rows]
                out.add(tuple(cols[j][i] for i in range(n) for j in range(k)))
        return out

    def block_table(self, n_max: int, k_max: int) -> dict[tuple[int, int], int]:
        g = self.grid(self.p + n_max, self.q + k_max)
        out = {}
        for k in range(1, k_max + 1):
            for n in range(1, n_max + 1):
                seen = set()
                for uy in range(self.q):
                    rows = g[uy : uy + k]
                    for ux in range(self.p):
                        seen.add(tuple(r[ux : ux + n] for r in rows))
                out[(n, k)] = len(seen)
        return out

    def count(self, points) -> int:
        pts = sorted(points)
        return len(
            {
                tuple(self.letter(x + ux, y + uy) for x, y in pts)
                for uy in range(self.q)
                for ux in range(self.p)
            }
        )

    def is_period(self, h) -> bool:
        if h == (0, 0):
            return False
        return all(
            self.letter(x + h[0], y + h[1]) == self.letter(x, y)
            for y in range(self.q)
            for x in range(self.p)
        )

    @functools.lru_cache(maxsize=None)
    def periods(self, bound: int) -> list[list[int]]:
        return [
            [x, y]
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
            if self.is_period((x, y))
        ]


# -- finite-defect bodies ---------------------------------------------------------


class DefectBody:
    """A constant background letter with finitely many defects."""

    def __init__(self, background: str, defects: dict[tuple[int, int], str]) -> None:
        self.background = background
        self.defects = defects
        self.letters = sorted({background, *defects.values()})

    def letter(self, x: int, y: int) -> str:
        return self.defects.get((x, y), self.background)

    def translates(self, pts) -> list[tuple[int, int]]:
        """Every translate at which the shape meets a defect (others show background only)."""
        xs = [d[0] for d in self.defects]
        ys = [d[1] for d in self.defects]
        px = [g[0] for g in pts]
        py = [g[1] for g in pts]
        return [
            (ux, uy)
            for ux in range(min(xs) - max(px), max(xs) - min(px) + 1)
            for uy in range(min(ys) - max(py), max(ys) - min(py) + 1)
        ]

    def patterns(self, points) -> set[tuple[str, ...]]:
        pts = sorted(points)
        out = {tuple(self.background for _ in pts)}
        for ux, uy in self.translates(pts):
            out.add(tuple(self.letter(x + ux, y + uy) for x, y in pts))
        return out

    def count(self, points) -> int:
        return len(self.patterns(points))

    def library_translates(self, points) -> int:
        """Size of the library's certified domain: distinct defect overlaps plus one far translate."""
        return len({(d[0] - s[0], d[1] - s[1]) for d in self.defects for s in points}) + 1


# -- window samples ---------------------------------------------------------------


class WindowGrid:
    """Letters known on a width-by-height window with lower-left corner (0, 0).

    rows[0] is the visual top, as in the library's window format.
    """

    def __init__(self, rows: list[str]) -> None:
        self.rows = rows
        self.width = len(rows[0])
        self.height = len(rows)
        self.letters = sorted(set("".join(rows)))

    def letter(self, x: int, y: int) -> str:
        return self.rows[self.height - 1 - y][x]

    def inside(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def translates(self, pts) -> list[tuple[int, int]]:
        return [
            (ux, uy)
            for ux in range(-min(g[0] for g in pts), self.width - max(g[0] for g in pts))
            for uy in range(-min(g[1] for g in pts), self.height - max(g[1] for g in pts))
        ]

    def patterns(self, points) -> set[tuple[str, ...]]:
        pts = sorted(points)
        return {tuple(self.letter(x + ux, y + uy) for x, y in pts) for ux, uy in self.translates(pts)}

    def count(self, points) -> int:
        return len(self.patterns(points))

    def library_translates(self, points) -> int:
        return len(self.translates(sorted(points)))

    def is_period(self, h) -> bool:
        """A period of the window restriction: some overlap, and no disagreement on it."""
        if h == (0, 0):
            return False
        overlap = False
        for y in range(self.height):
            for x in range(self.width):
                if self.inside(x + h[0], y + h[1]):
                    overlap = True
                    if self.letter(x + h[0], y + h[1]) != self.letter(x, y):
                        return False
        return overlap

    def periods(self, bound: int) -> list[list[int]]:
        return [
            [x, y]
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
            if self.is_period((x, y))
        ]


# -- shared shapes and report forms ---------------------------------------------------


def rect(n: int, k: int, at=(0, 0)) -> list[tuple[int, int]]:
    return [(x + at[0], y + at[1]) for x in range(n) for y in range(k)]


def hexagon(a: int, b: int, c: int) -> list[tuple[int, int]]:
    """Lattice points of the hexagon with edge vectors (a,0), (b,b), (0,c) and their negatives."""
    return [
        (x, y)
        for x in range(a + b + 1)
        for y in range(b + c + 1)
        if -c <= x - y <= a
    ]


def block_render(pattern: tuple[str, ...], n: int, k: int) -> str:
    """A block pattern (letters in (x, y) order) as text rows, highest y first."""
    return "\n".join("".join(pattern[x * k + y] for x in range(n)) for y in range(k - 1, -1, -1))


def nivat_payload(points, count: int, exact: bool, alphabet_size: int, periods, certified: bool,
                  aperiodic: bool = False, quasi_regular: bool = True) -> dict:
    """The JSON form of a half-cardinality bound check, as the verifier defines it."""
    bound = Fraction(len(points), 2) + alphabet_size - 1
    if exact:
        hypothesis = quasi_regular and count <= bound
    elif count > bound or not quasi_regular:
        hypothesis = False
    else:
        hypothesis = None
    if hypothesis is None:
        verdict = "inconclusive"
    elif not hypothesis:
        verdict = "vacuous"
    elif periods and certified:
        verdict = "consistent"
    elif aperiodic:
        verdict = "violation"
    else:
        verdict = "inconclusive"
    return {
        "schema": 1,
        "shape": [list(g) for g in sorted(points)],
        "quasi_regular": quasi_regular,
        "count": count,
        "exact": exact,
        "bound": str(bound),
        "hypothesis_holds": hypothesis,
        "periods": [list(h) for h in sorted(map(tuple, periods))],
        "periods_certified": certified,
        "verdict": verdict,
    }
