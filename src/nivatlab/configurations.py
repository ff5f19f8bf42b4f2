"""Intensional total configurations Z^2 -> A and their finite enumeration domains.

Each representation supports exact point queries, certified period tests, and
produces a finite list of translates whose patterns realize the whole
language of a shape (flagged EXACT) or only part of it (LOWER_BOUND).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product
from math import gcd, isqrt
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import ConfigurationError, UnknownLetterError
from .geometry import ConvexLatticeSet, Point, padd, psub


class Exactness(enum.Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower_bound"

    def __and__(self, other: "Exactness") -> "Exactness":
        if self is Exactness.EXACT and other is Exactness.EXACT:
            return Exactness.EXACT
        return Exactness.LOWER_BOUND


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet of at least two distinct single-character letters."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.letters) < 2:
            raise ConfigurationError("alphabet needs at least two letters")
        if len(set(self.letters)) != len(self.letters):
            raise ConfigurationError("alphabet letters must be distinct")
        if any(len(a) != 1 for a in self.letters):
            raise ConfigurationError("letters must be single characters")

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __iter__(self):
        return iter(self.letters)


def as_points(shape: ConvexLatticeSet | Iterable[Point]) -> tuple[Point, ...]:
    """A shape argument as a sorted point tuple (complexity works on any finite set)."""
    if isinstance(shape, ConvexLatticeSet):
        return tuple(sorted(shape.points))
    pts = tuple(sorted(set((int(x), int(y)) for x, y in shape)))
    return pts


@dataclass(frozen=True)
class Pattern:
    """A finite shaped word, canonicalized so its lexicographically least cell is (0, 0)."""

    cells: tuple[tuple[Point, str], ...]

    @classmethod
    def from_cells(cls, cells: Mapping[Point, str] | Iterable[tuple[Point, str]]) -> "Pattern":
        items = sorted(dict(cells).items())
        if not items:
            return cls(())
        base = items[0][0]
        return cls(tuple((psub(g, base), a) for g, a in items))

    @property
    def offsets(self) -> tuple[Point, ...]:
        return tuple(g for g, _ in self.cells)

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(a for _, a in self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def render(self, outside: str = ".") -> str:
        """Text grid, highest y first, with `outside` marking cells off the shape."""
        if not self.cells:
            return ""
        xs = [g[0] for g, _ in self.cells]
        ys = [g[1] for g, _ in self.cells]
        grid = dict(self.cells)
        lines = []
        for y in range(max(ys), min(ys) - 1, -1):
            lines.append("".join(grid.get((x, y), outside) for x in range(min(xs), max(xs) + 1)))
        return "\n".join(lines)


class EnumerationDomain(Sequence[Point]):
    """A finite list of translates together with an exactness flag."""

    def __init__(self, translates: Sequence[Point], exactness: Exactness) -> None:
        self.translates = tuple(translates)
        self.exactness = exactness

    def __len__(self) -> int:
        return len(self.translates)

    def __getitem__(self, i):
        return self.translates[i]


class Configuration:
    """Base class; subclasses define one intensional body each."""

    alphabet: Alphabet

    def letter_at(self, g: Point) -> str:
        raise NotImplementedError

    def enumeration_domain(self, shape: Iterable[Point]) -> EnumerationDomain:
        raise NotImplementedError

    def is_period(self, h: Point) -> bool:
        """Whether h is a global period; only meaningful when periods_certified()."""
        raise NotImplementedError

    def orbit_class(self, u: Point, v: Point) -> Hashable:
        """A label for the orbit u + Zv modulo the certified periods; v is primitive.

        Contract: orbit_class(u, v) == orbit_class(u2, v) implies u2 - u is
        s*v plus a certified period (or zero) for some integer s, so the
        'all'-range directional language along v at base u equals the one at
        base u2: sliding by s*v only reindexes the steps, and the period does
        not change a letter.  The base class labels each translate by itself,
        which never merges two; bodies whose periods are not certified, or
        whose directional domains are not exact, must keep it.
        """
        return u

    def periods_certified(self) -> bool:
        """True when is_period decides global periodicity from the representation."""
        return True

    def periods_within(self, bound: int) -> tuple[Point, ...]:
        """The h != (0, 0) with sup-norm at most bound that pass is_period, sorted."""
        box = range(-bound, bound + 1)
        return tuple((x, y) for x in box for y in box if (x or y) and self.is_period((x, y)))

    def certified_aperiodic(self) -> bool:
        """True when the representation proves there is no period at all."""
        return False

    def directional_translates(
        self, shape: Iterable[Point], base: Point, v: Point, trange: tuple[str, int]
    ) -> EnumerationDomain:
        """Translate steps t such that patterns of shape+base+t*v realize the directional language.

        trange is ('all', 0), ('forward', a) for t >= a along +v, or
        ('backward', a) for t >= a along -v.
        """
        raise NotImplementedError


def extract_pattern(config: Configuration, shape: ConvexLatticeSet | Iterable[Point], u: Point) -> Pattern:
    """The pattern of the configuration on shape translated by u."""
    return Pattern.from_cells({g: config.letter_at(padd(g, u)) for g in as_points(shape)})


def _range_steps(trange: tuple[str, int], v: Point) -> tuple[Point, int]:
    kind, a = trange
    if kind == "all":
        return v, 0
    if kind == "forward":
        return v, a
    if kind == "backward":
        return (-v[0], -v[1]), a
    raise ValueError(f"bad range {trange!r}")


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# ---------------------------------------------------------------------------


class DoublyPeriodic(Configuration):
    """A configuration invariant under two independent translations.

    The table assigns letters on one fundamental domain of the lattice
    spanned by the basis; every lattice point reduces into it.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        basis: tuple[Point, Point],
        table: Mapping[Point, str],
    ) -> None:
        b1, b2 = (tuple(basis[0]), tuple(basis[1]))
        det = b1[0] * b2[1] - b1[1] * b2[0]
        if det == 0:
            raise ConfigurationError("basis vectors must be linearly independent")
        self.alphabet = alphabet
        self.basis = (b1, b2)
        self._det = det
        self._hnf = _hnf(b1, b2)
        reduced: dict[Point, str] = {}
        for g, a in table.items():
            g = (int(g[0]), int(g[1]))
            if a not in alphabet:
                raise ConfigurationError(f"letter {a!r} not in alphabet")
            r = self.reduce(g)
            if r in reduced and reduced[r] != a:
                raise ConfigurationError(f"table assigns two letters to the coset of {g}")
            reduced[r] = a
        if len(reduced) != abs(det):
            raise ConfigurationError(
                f"table covers {len(reduced)} cosets, fundamental domain has {abs(det)}"
            )
        if set(reduced.values()) != set(alphabet.letters):
            raise ConfigurationError("every alphabet letter must occur in the fundamental domain")
        self._table = reduced
        # Set here rather than added on first use: an attribute added to the
        # instance later materialises its __dict__ and slows every attribute
        # read in reduce() and letter_at().
        self._domain: tuple[Point, ...] = ()  # sorted(self._table), filled on first use
        self._rows: dict[int, str] = {}  # r -> letters at (x, r) for 0 <= x < a
        self._orbit_bases: dict[Point, tuple[int, int, int]] = {}  # v -> _orbit_basis(v)

    @classmethod
    def from_rows(cls, alphabet: Alphabet, rows: Sequence[str]) -> "DoublyPeriodic":
        """Axis-periodic configuration from a character grid; first row is the top."""
        if not rows or len(set(map(len, rows))) != 1:
            raise ConfigurationError("rows must be nonempty and rectangular")
        n, k = len(rows[0]), len(rows)
        table = {(x, k - 1 - y): rows[y][x] for y in range(k) for x in range(n)}
        return cls(alphabet, ((n, 0), (0, k)), table)

    def reduce(self, g: Point) -> Point:
        (b1x, b1y), (b2x, b2y) = self.basis
        det = self._det
        # Floor of the exact rational coordinates of g in the basis.
        qs = (g[0] * b2y - g[1] * b2x) // det
        qt = (b1x * g[1] - b1y * g[0]) // det
        return (
            g[0] - qs * b1x - qt * b2x,
            g[1] - qs * b1y - qt * b2y,
        )

    def letter_at(self, g: Point) -> str:
        return self._table[self.reduce(g)]

    def fundamental_domain(self) -> tuple[Point, ...]:
        if not self._domain:
            self._domain = tuple(sorted(self._table))
        return self._domain

    def enumeration_domain(self, shape: Iterable[Point]) -> EnumerationDomain:
        return EnumerationDomain(self.fundamental_domain(), Exactness.EXACT)

    def row(self, y: int, lo: int, hi: int) -> str:
        """The letters at (x, y) for lo <= x < hi.

        Row y is torus row y mod d rotated by (y // d) * b: (x, y) minus the
        lattice vector (y // d) * (b, d) is (x - (y // d) * b, y mod d).
        """
        a, b, d = self._hnf
        q, r = divmod(y, d)
        word = self._rows.get(r)
        if word is None:
            table, reduce = self._table, self.reduce
            word = self._rows[r] = "".join([table[reduce((x, r))] for x in range(a)])
        s, n = (lo - q * b) % a, hi - lo
        return (word * _ceil_div(s + n, a))[s:s + n]

    def translate_box(self, shape: Iterable[Point]) -> tuple[range, range]:
        """The torus [0, a) x [0, d), where (a, 0), (b, d) is the HNF of the basis.

        Contract: the torus, like the fundamental domain, holds one point of
        each class modulo the basis lattice, whose vectors are certified
        periods.  So every translate of enumeration_domain is congruent to a
        torus point modulo the certified periods, and every torus point to a
        domain translate: the kernel may count over the torus instead.
        """
        a, _, d = self._hnf
        return range(a), range(d)

    def is_period(self, h: Point) -> bool:
        # Compare each torus row with the row h[1] above it, shifted by h[0].
        a, _, d = self._hnf
        return h != (0, 0) and all(
            self.row(y + h[1], h[0], h[0] + a) == self.row(y, 0, a) for y in range(d)
        )

    def periods_within(self, bound: int) -> tuple[Point, ...]:
        """The periods h != 0 with sup-norm at most bound, listed from the period lattice.

        A period h carries torus row 0 onto row h[1] shifted by h[0], so only
        the occurrences of row 0 in the doubled torus rows take the full
        test; the survivors and the basis span the lattice of all periods.
        """
        a, _, d = self._hnf
        first, survivors = self.row(0, 0, a), []
        for y in range(d):
            doubled = self.row(y, 0, 2 * a - 1)
            x = doubled.find(first)
            while x >= 0:
                if self.is_period((x, y)):
                    survivors.append((x, y))
                x = doubled.find(first, x + 1)
        a, b, d = _hnf(*self.basis, *survivors)
        found = []
        for j in range(-(bound // d), bound // d + 1):
            first = -bound + (j * b + bound) % a  # the least x >= -bound with x = j*b mod a
            found.extend((x, j * d) for x in range(first, bound + 1, a) if x or j)
        return tuple(sorted(found))

    def _orbit_basis(self, v: Point) -> tuple[int, int, int]:
        """(a, b, d) with (a, 0) and (b, d) spanning L + Zv, a, d > 0 and 0 <= b < a.

        This is the Hermite normal form of the basis and v, found once per v.
        """
        basis = self._orbit_bases.get(v)
        if basis is None:
            basis = self._orbit_bases[v] = _hnf(*self.basis, v)
        return basis

    def orbit_class(self, u: Point, v: Point) -> Point:
        """u reduced modulo the lattice L + Zv: the canonical (x mod a, y mod d)."""
        a, b, d = self._orbit_basis(v)
        q = u[1] // d
        return ((u[0] - q * b) % a, u[1] - q * d)

    def directional_period(self, v: Point) -> int:
        """Smallest s >= 1 with s*v in the basis lattice: the index of L in L + Zv."""
        a, _, d = self._orbit_basis(v)
        return abs(self._det) // (a * d)

    def directional_translates(self, shape, base, v, trange) -> EnumerationDomain:
        step, a = _range_steps(trange, v)
        s = self.directional_period(step)
        return EnumerationDomain([a + i for i in range(s)], Exactness.EXACT)

    def shifted(self, v: Point) -> "DoublyPeriodic":
        table = {r: self.letter_at(padd(r, v)) for r in self._table}
        return DoublyPeriodic(self.alphabet, self.basis, table)


# ---------------------------------------------------------------------------


class FiniteDefect(Configuration):
    """A constant background with finitely many marked exceptions; certified aperiodic."""

    def __init__(self, alphabet: Alphabet, background: str, defects: Mapping[Point, str]) -> None:
        if background not in alphabet:
            raise ConfigurationError(f"background {background!r} not in alphabet")
        if not defects:
            raise ConfigurationError("a finite-defect body needs at least one defect")
        clean: dict[Point, str] = {}
        for g, a in defects.items():
            if a not in alphabet:
                raise ConfigurationError(f"letter {a!r} not in alphabet")
            if a == background:
                raise ConfigurationError(f"defect at {g} equals the background letter")
            clean[(int(g[0]), int(g[1]))] = a
        if {background} | set(clean.values()) != set(alphabet.letters):
            raise ConfigurationError("every alphabet letter must occur")
        self.alphabet = alphabet
        self.background = background
        self.defects = clean

    def letter_at(self, g: Point) -> str:
        return self.defects.get(g, self.background)

    def enumeration_domain(self, shape: Iterable[Point]) -> EnumerationDomain:
        pts = as_points(shape)
        overlapping = {psub(d, s) for d in self.defects for s in pts}
        far = (max(d[0] for d in self.defects) - min(g[0] for g in pts) + 1, 0)
        return EnumerationDomain(sorted(overlapping) + [far], Exactness.EXACT)

    def is_period(self, h: Point) -> bool:
        # A finite nonempty defect set cannot map onto itself under a nonzero shift.
        return False

    def certified_aperiodic(self) -> bool:
        return True

    def orbit_class(self, u: Point, v: Point) -> int:
        """The cross product of v and u: with v primitive it is equal exactly on u + Zv."""
        return v[0] * u[1] - v[1] * u[0]

    def directional_translates(self, shape, base, v, trange) -> EnumerationDomain:
        step, a = _range_steps(trange, v)
        pts = as_points(shape)
        norm = step[0] * step[0] + step[1] * step[1]
        hits: set[int] = set()
        for d in self.defects:
            for s in pts:
                delta = psub(d, padd(s, base))
                if delta[0] * step[1] == delta[1] * step[0]:  # delta = t*step: step is primitive
                    hits.add((delta[0] * step[0] + delta[1] * step[1]) // norm)
        if trange[0] != "all":
            hits = {t for t in hits if t >= a}
        far = max(hits, default=a) + 1
        return EnumerationDomain(sorted(hits) + [far], Exactness.EXACT)

    def shifted(self, v: Point) -> "FiniteDefect":
        return FiniteDefect(
            self.alphabet, self.background, {psub(d, v): a for d, a in self.defects.items()}
        )


def _clear_y(p: Point, g: Point) -> tuple[Point, Point]:
    """Euclid on the y coordinates: (p', g') spanning the lattice of p and g, with g'[1] == 0."""
    while g[1]:
        q = p[1] // g[1]
        p, g = g, (p[0] - q * g[0], p[1] - q * g[1])
    return p, g


def _hnf(p: Point, g: Point, *more: Point) -> tuple[int, int, int]:
    """The Hermite normal form (a, 0), (b, d) of the lattice of p, g (independent) and more.

    Returned as (a, b, d), with a, d > 0 and 0 <= b < a.
    """
    pivot, flat = _clear_y(p, g)
    a = abs(flat[0])
    for v in more:
        pivot, flat = _clear_y(pivot, v)
        a = gcd(a, flat[0])
    if pivot[1] < 0:
        pivot = (-pivot[0], -pivot[1])
    return a, pivot[0] % a, pivot[1]


# ---------------------------------------------------------------------------


def _sigma(c: int) -> int:
    # 6 + 7 + ... + c
    return c * (c + 1) // 2 - 15


class DiagonalFamily(Configuration):
    """The two-letter family: black exactly where x - y is 0 or +-(6+7+...+c), c >= 6.

    It is (1,1)-periodic, and gaps between consecutive black offsets increase
    strictly, which certifies finite enumeration bands below.
    """

    def __init__(self, black: str = "b", white: str = "w") -> None:
        if black == white:
            raise ConfigurationError("black and white letters must differ")
        self.alphabet = Alphabet((white, black))
        self.black = black
        self.white = white
        self._band_reach = -1  # the band word holds x - y in [-reach, reach]
        self._band_word = ""

    def band(self, lo: int, hi: int) -> str:
        """The letters of the points with x - y = c for lo <= c < hi.

        They are slices of one band word, built from the black offsets and
        doubled in reach whenever a slice falls outside it.
        """
        reach = self._band_reach
        if lo < -reach or hi > reach + 1:
            reach = max(2 * reach, -lo, hi - 1, 64)
            letters = [self.white] * (2 * reach + 1)
            for c in self.offsets_within(reach):
                letters[reach + c] = self.black
            self._band_reach, self._band_word = reach, "".join(letters)
        return self._band_word[lo + reach:hi + reach]

    def is_black(self, g: Point) -> bool:
        d = abs(g[0] - g[1])
        if d == 0:
            return True
        # d == sigma(c) for integer c >= 6?
        c = (isqrt(8 * (d + 15) + 1) - 1) // 2
        return c >= 6 and _sigma(c) == d

    def letter_at(self, g: Point) -> str:
        return self.black if self.is_black(g) else self.white

    def is_period(self, h: Point) -> bool:
        return h != (0, 0) and h[0] == h[1]

    def orbit_class(self, u: Point, v: Point) -> int:
        """x - y modulo |v0 - v1|, the change of x - y per step along v; x - y when v is (1, 1)."""
        k = abs(v[0] - v[1])
        return (u[0] - u[1]) % k if k else u[0] - u[1]

    def certified_aperiodic(self) -> bool:
        return False

    def offsets_within(self, radius: int) -> list[int]:
        out = [0]
        c = 6
        while _sigma(c) <= radius:
            out.extend((_sigma(c), -_sigma(c)))
            c += 1
        return sorted(out)

    @staticmethod
    def _delta_span(pts: Sequence[Point]) -> tuple[int, int]:
        deltas = [x - y for x, y in pts]
        return min(deltas), max(deltas)

    def enumeration_domain(self, shape: Iterable[Point]) -> EnumerationDomain:
        pts = as_points(shape)
        lo, hi = self._delta_span(pts)
        width = hi - lo
        # Beyond sigma(c0) consecutive offsets are further apart than the
        # window is wide, so sweeping the window minimum across [-m, m]
        # realizes every view: all multi-offset views, one full crossing of an
        # isolated offset, and an empty gap.
        c0 = max(6, width)
        m = _sigma(c0 + 2) + width + 1
        return EnumerationDomain(
            [(d, 0) for d in range(-m - lo, m - lo + 1)], Exactness.EXACT
        )

    def directional_translates(self, shape, base, v, trange) -> EnumerationDomain:
        step, a = _range_steps(trange, v)
        k = step[0] - step[1]
        if k == 0:
            # Sliding along the period direction never changes the pattern.
            return EnumerationDomain([a], Exactness.EXACT)
        pts = as_points(shape)
        lo, hi = self._delta_span(pts)
        width = hi - lo
        start = lo + (base[0] - base[1])  # window minimum at t = 0
        # The window minimum moves by k per step.  Offsets mod |k| repeat with
        # period 2|k| in the index c, so crossing 2|k|+2 isolated offsets past
        # the last multi-offset region exhausts the reachable single views.
        c0 = max(6, width)
        period_c = 2 * abs(k) + 2
        m = _sigma(c0 + period_c) + width + 1
        if trange[0] == "all":
            bounds = sorted((_ceil_div(-m - start, k), (m - start) // k))
            ts = list(range(bounds[0] - 1, bounds[1] + 2))
        else:
            start_a = start + a * k
            c1 = 6
            while _sigma(c1) <= abs(start_a) + width + 1:
                c1 += 1
            reach = max(m, _sigma(c1 + period_c) + width + 1)
            if k > 0:
                steps = _ceil_div(reach - start_a, k)
            else:
                steps = _ceil_div(reach + start_a, -k)
            ts = list(range(a, a + max(steps, 0) + 2))
        return EnumerationDomain(ts, Exactness.EXACT)


# ---------------------------------------------------------------------------


class WindowSample(Configuration):
    """Letters known only inside a finite window; all counts over it are lower bounds."""

    def __init__(self, alphabet: Alphabet, origin: Point, rows: Sequence[str]) -> None:
        if not rows or len(set(map(len, rows))) != 1:
            raise ConfigurationError("rows must be nonempty and rectangular")
        self.alphabet = alphabet
        self.origin = (int(origin[0]), int(origin[1]))
        self.width = len(rows[0])
        self.height = len(rows)
        self._rows = tuple(rows)  # first row is the visual top
        for a in "".join(rows):
            if a not in alphabet:
                raise ConfigurationError(f"letter {a!r} not in alphabet")
        if set("".join(rows)) != set(alphabet.letters):
            raise ConfigurationError("every alphabet letter must occur in the window")

    def letter_at(self, g: Point) -> str:
        xx, yy = g[0] - self.origin[0], self.origin[1] + self.height - 1 - g[1]
        if 0 <= xx < self.width and 0 <= yy < self.height:
            return self._rows[yy][xx]
        raise UnknownLetterError(f"point {g} lies outside the sampled window")

    def row(self, y: int, lo: int, hi: int) -> str:
        """The letters at (x, y) for lo <= x < hi, all inside the window."""
        if not (self._inside((lo, y)) and self._inside((hi - 1, y))):
            raise UnknownLetterError(f"row {y} from {lo} to {hi} leaves the sampled window")
        x0 = self.origin[0]
        return self._rows[self.origin[1] + self.height - 1 - y][lo - x0:hi - x0]

    def periods_certified(self) -> bool:
        return False

    def is_period(self, h: Point) -> bool:
        """Period of the window restriction only; never a global certificate."""
        w, height, rows = self.width, self.height, self._rows
        if h == (0, 0) or abs(h[0]) >= w or abs(h[1]) >= height:
            return False  # no point of the window stays inside it
        x0, x1 = max(0, -h[0]), min(w, w - h[0])
        return all(rows[yy][x0:x1] == rows[yy - h[1]][x0 + h[0]:x1 + h[0]]
                   for yy in range(max(0, h[1]), min(height, height + h[1])))

    def _inside(self, g: Point) -> bool:
        return (
            self.origin[0] <= g[0] < self.origin[0] + self.width
            and self.origin[1] <= g[1] < self.origin[1] + self.height
        )

    def translate_box(self, shape: Iterable[Point]) -> tuple[range, range]:
        """The x and y ranges of the translates that keep the shape inside the window."""
        pts = as_points(shape)
        xs = [g[0] for g in pts]
        ys = [g[1] for g in pts]
        x_lo, x_hi = self.origin[0] - min(xs), self.origin[0] + self.width - 1 - max(xs)
        y_lo, y_hi = self.origin[1] - min(ys), self.origin[1] + self.height - 1 - max(ys)
        return range(x_lo, x_hi + 1), range(y_lo, y_hi + 1)

    def enumeration_domain(self, shape: Iterable[Point]) -> EnumerationDomain:
        us = tuple(product(*self.translate_box(shape)))
        if not us:
            raise UnknownLetterError(
                f"the {self.width}x{self.height} window cannot fit the shape anywhere"
            )
        return EnumerationDomain(us, Exactness.LOWER_BOUND)

    def directional_translates(self, shape, base, v, trange) -> EnumerationDomain:
        """The steps t in the range that keep shape + base + t*step inside the window."""
        step, a = _range_steps(trange, v)
        lows, highs = ([] if trange[0] == "all" else [a]), []
        for r, b, s in zip(self.translate_box(shape), base, step):
            if not r or not (s or b in r):
                return EnumerationDomain([], Exactness.LOWER_BOUND)
            if s:
                first, last = (r[0], r[-1]) if s > 0 else (r[-1], r[0])
                lows.append(_ceil_div(first - b, s))
                highs.append((last - b) // s)
        return EnumerationDomain(list(range(max(lows), min(highs) + 1)), Exactness.LOWER_BOUND)


# ---------------------------------------------------------------------------


_REQUIRED = object()


def _field(spec: Mapping, name: str, read: Callable = lambda v: v, default=_REQUIRED):
    """read(spec[name]), or the default when the field is absent; raw errors name the field."""
    if name in spec:
        value = spec[name]
    elif default is _REQUIRED:
        raise ConfigurationError(f"missing field {name!r} in configuration spec")
    else:
        value = default
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed field {name!r} in configuration spec: {exc}") from None


def _pair(value, read: Callable = int) -> tuple:
    """Exactly two values, each passed through read (by default an integer coordinate)."""
    x, y = value
    return (read(x), read(y))


def _letter(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _strings(value) -> list[str]:
    return [_letter(v) for v in value]


def config_from_dict(spec: Mapping) -> Configuration:
    """Build a configuration from its JSON description.

    A spec that is not a mapping, or a field that is missing or of the wrong
    shape, raises ConfigurationError naming the field.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError("configuration spec must be a JSON object")
    kind = _field(spec, "type")
    if kind == "doubly_periodic":
        alphabet = Alphabet(tuple(_field(spec, "alphabet", _strings)))
        if "rows" in spec:
            return DoublyPeriodic.from_rows(alphabet, _field(spec, "rows", _strings))
        basis = _field(spec, "basis", lambda v: _pair(v, _pair))
        table = _field(spec, "table", lambda v: {_pair(g): _letter(a) for g, a in v})
        return DoublyPeriodic(alphabet, basis, table)
    if kind == "finite_defect":
        alphabet = Alphabet(tuple(_field(spec, "alphabet", _strings)))
        defects = _field(spec, "defects", lambda v: {_pair((x, y)): _letter(a) for x, y, a in v})
        return FiniteDefect(alphabet, _field(spec, "background", _letter), defects)
    if kind == "diagonal_family":
        return DiagonalFamily(_field(spec, "black", _letter, "b"), _field(spec, "white", _letter, "w"))
    if kind == "window":
        alphabet = Alphabet(tuple(_field(spec, "alphabet", _strings)))
        origin = _field(spec, "origin", _pair, (0, 0))
        return WindowSample(alphabet, origin, _field(spec, "rows", _strings))
    raise ConfigurationError(f"unknown configuration type {kind!r}")
