"""Intensional total configurations Z^2 -> A and their finite enumeration domains.

Each representation supports exact point queries, certified period tests, and
produces a finite sequence of translates whose patterns realize the whole
language of a shape (`exactness` EXACT) or only part of it (LOWER_BOUND).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .errors import ConfigurationError, UnknownLetterError
from .geometry import ConvexLatticeSet, Point, padd, psub


class Exactness(enum.Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower_bound"


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
        return shape.cells
    return tuple(sorted(set((int(x), int(y)) for x, y in shape)))


class Pattern:
    """A finite shaped word, canonicalized so its lexicographically least cell is (0, 0).

    A pattern is one string of single-character letters, `word`, over a tuple
    of cell offsets: the letter of `offsets[i]` is `word[i]`.  The patterns
    one count builds share one offsets tuple (the flyweight pattern), so each
    costs one string, and the hash reads the word alone.  Patterns are
    immutable.
    """

    __slots__ = ("offsets", "word")

    def __init__(self, cells: Iterable[tuple[Point, str]]) -> None:
        cells = tuple(cells)
        letters = [a for _, a in cells]
        if not all(isinstance(a, str) and len(a) == 1 for a in letters):
            raise ValueError("pattern letters must be single characters")
        _set_offsets(self, tuple(g for g, _ in cells))
        _set_word(self, "".join(letters))

    @classmethod
    def from_cells(cls, cells: Mapping[Point, str] | Iterable[tuple[Point, str]]) -> "Pattern":
        items = sorted(dict(cells).items())
        if not items:
            return cls(())
        base = items[0][0]
        return cls((psub(g, base), a) for g, a in items)

    @classmethod
    def _over(cls, offsets: tuple[Point, ...], words: Iterable[str]) -> list["Pattern"]:
        """The patterns of the words over one shared offsets tuple, in word order.

        Each word holds one single-character letter per offset; nothing here
        checks that.
        """
        new, out = object.__new__, []
        for word in words:
            pattern = new(cls)
            _set_offsets(pattern, offsets)
            _set_word(pattern, word)
            out.append(pattern)
        return out

    @property
    def cells(self) -> tuple[tuple[Point, str], ...]:
        return tuple(zip(self.offsets, self.word))

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(self.word)

    def __len__(self) -> int:
        return len(self.offsets)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word and self.offsets == other.offsets

    def __hash__(self) -> int:
        return hash(self.word)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Pattern(cells={self.cells!r})"

    def __reduce__(self):
        return (self.__class__, (self.cells,))

    def render(self, outside: str = ".") -> str:
        """Text grid, highest y first, with `outside` marking cells off the shape."""
        return _grids(self.offsets, (self.word,), outside)[0]


# The slot setters: they bypass the __setattr__ that keeps patterns immutable.
_set_offsets = Pattern.offsets.__set__
_set_word = Pattern.word.__set__


@lru_cache(maxsize=64)
def _layout(offsets: tuple[Point, ...]) -> Callable:
    """The grid of `Pattern.render` for these offsets, as a getter over the word's
    letters followed by the outside mark and a newline."""
    n = len(offsets)
    at = {g: i for i, g in enumerate(offsets)}
    xs = range(min(x for x, _ in offsets), max(x for x, _ in offsets) + 1)
    ys = range(max(y for _, y in offsets), min(y for _, y in offsets) - 1, -1)
    rows = [[at.get((x, y), n) for x in xs] for y in ys]
    return itemgetter(*[i for row in rows for i in row + [n + 1]][:-1])


def _grids(offsets: tuple[Point, ...], words: Iterable[str], outside: str = ".") -> list[str]:
    """The text grids of `Pattern.render` for words over one offsets tuple, in
    word order: one `_layout` getter draws them all."""
    if not offsets:
        return ["" for _ in words]
    grid = _layout(offsets)
    return ["".join(grid([*word, outside, "\n"])) for word in words]


class Configuration:
    """Base class; subclasses define one intensional body each."""

    alphabet: Alphabet
    # Whether enumeration_domain and directional_translates realize the whole
    # language (EXACT) or only part of it (LOWER_BOUND): a fixed fact of each
    # representation, so every count on the body shares it.
    exactness = Exactness.EXACT

    def letter_at(self, g: Point) -> str:
        raise NotImplementedError

    def enumeration_domain(self, shape: Iterable[Point]) -> Sequence[Point]:
        """Translates whose shape-patterns realize the language, as `exactness` says.

        Contract: a `Sequence` of translates in domain order, the order in
        which `m_classes` meets them, and its length is the
        `translates_examined` of every count over it.  A doubly periodic
        body, a window and the diagonal family return a `TranslateBox`, whose
        `xs` and `ys` the kernel reads.  A window raises UnknownLetterError
        when the shape fits nowhere inside it.  The empty shape gets a
        nonempty domain (the whole torus, the sweep, the far translate alone,
        the whole window), though `complexity` answers it with 0 translates
        and builds no domain.
        """
        raise NotImplementedError

    def is_period(self, h: Point) -> bool:
        """Whether h is a global period; only meaningful when periods_certified()."""
        raise NotImplementedError

    def orbit_class(self, u: Point, v: Point) -> Hashable:
        """A label for the orbit u + Zv modulo the certified periods; v is primitive.

        Contract: orbit_class(u, v) == orbit_class(u2, v) implies u2 - u is
        s*v plus a certified period (or zero) for some integer s, so the
        directional language along v at base u equals the one at base u2:
        sliding by s*v only reindexes the steps, and the period does not
        change a letter.  A body with certified period lattice P labels u by
        the cross product v x u = v0*u1 - v1*u0 modulo g, the index of
        P + Zv (`_orbit_label`).  The base class labels each translate by
        itself, which never merges two; bodies whose periods are not
        certified, or whose directional domains are not exact, must keep it.
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

    def directional_translates(self, shape: Iterable[Point], base: Point, v: Point) -> Sequence[int]:
        """Steps t such that the patterns of shape+base+t*v realize those over every integer t."""
        raise NotImplementedError


def extract_pattern(config: Configuration, shape: ConvexLatticeSet | Iterable[Point], u: Point) -> Pattern:
    """The pattern of the configuration on shape translated by u."""
    return Pattern.from_cells({g: config.letter_at(padd(g, u)) for g in as_points(shape)})


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _orbit_label(u: Point, v: Point, g: int) -> int:
    """The cross product v x u modulo g, the index of P + Zv for the certified
    period lattice P; g = 0 (P = 0, or P inside Zv) means no reduction.

    With v primitive, u -> v x u maps Z^2 onto Z with kernel Zv, so it maps
    Z^2 / (P + Zv) one-to-one onto Z / gZ, where gZ is the image of P: equal
    labels are exactly the orbits u + Zv + P.
    """
    c = v[0] * u[1] - v[1] * u[0]
    return c % g if g else c


def _check_grid(alphabet: Alphabet, rows: Sequence[str], where: str) -> None:
    """Check a character grid: nonempty and rectangular, every letter in the
    alphabet (else the first foreign one in row order is named), and every
    alphabet letter used somewhere in the `where` the grid fills."""
    if not rows or len(set(map(len, rows))) != 1:
        raise ConfigurationError("rows must be nonempty and rectangular")
    text = "".join(rows)
    present = set(text)
    if not present.issubset(alphabet.letters):
        first = next(a for a in text if a not in alphabet.letters)
        raise ConfigurationError(f"letter {first!r} not in alphabet")
    if len(present) != len(alphabet):
        raise ConfigurationError(f"every alphabet letter must occur in the {where}")


class TranslateBox(Sequence):
    """The read-only sequence of translates (x, y) for x in `xs` and y in `ys`, two ranges.

    It is x-major, and has the length, order and indexing of the tuple of
    `product(xs, ys)`; a slice gives a tuple.  It costs O(1) to build.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs: range, ys: range) -> None:
        self.xs, self.ys = xs, ys

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        x, y = divmod(range(len(self))[i], len(self.ys))
        return (self.xs[x], self.ys[y])

    def __iter__(self) -> Iterator[Point]:
        return product(self.xs, self.ys)

    def __repr__(self) -> str:
        return f"TranslateBox({self.xs!r}, {self.ys!r})"


# ---------------------------------------------------------------------------


class DoublyPeriodic(Configuration):
    """A configuration invariant under two independent translations.

    The table assigns letters on one fundamental domain of the lattice
    spanned by the given basis.  The basis is input only: the constructor
    checks the table against it, then keeps the letters once, as the rows of
    the torus of the period lattice: the lattice of all the body's periods,
    which holds the basis lattice and may be finer, found once from the
    table.  Letters, counts, the enumeration domain and every period
    question read that lattice; `basis` stays as the record of the input.
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
        a, b, d = hnf = _hnf(b1, b2)
        # The letter at (x, y), 0 <= x < a and 0 <= y < d, keyed by y * a + x.
        # The dict holds only the cosets the table lists, so a huge basis with
        # a small table allocates nothing per coset before the coverage check.
        torus: dict[int, str] = {}
        letters = alphabet.letters
        for g, letter in table.items():
            x, y = int(g[0]), int(g[1])
            if letter not in letters:
                raise ConfigurationError(f"letter {letter!r} not in alphabet")
            i = y % d * a + (x - y // d * b) % a  # (x, y) minus (y // d) * (b, d)
            if torus.setdefault(i, letter) != letter:
                raise ConfigurationError(f"table assigns two letters to the coset of {(x, y)}")
        if len(torus) != abs(det):
            raise ConfigurationError(f"table covers {len(torus)} cosets, fundamental domain has {abs(det)}")
        if set(torus.values()) != set(letters):
            raise ConfigurationError("every alphabet letter must occur in the fundamental domain")
        word = "".join(map(torus.__getitem__, range(a * d)))
        self._set_torus(alphabet, (b1, b2), hnf, [word[y * a:(y + 1) * a] for y in range(d)])

    def _set_torus(
        self, alphabet: Alphabet, basis: tuple[Point, Point], hnf: tuple[int, int, int], rows: list[str]
    ) -> None:
        """Set every attribute from the checked torus rows of the basis lattice's HNF.

        Both constructors end here, so the attributes are always set in one
        order, all of them at construction: an attribute added to the
        instance later materialises its __dict__ and slows every attribute
        read in letter_at() and row().
        """
        self.alphabet = alphabet
        self.basis = basis
        self._hnf = _period_lattice(basis, hnf, rows)  # (a', b', d') of the period lattice
        a, _, d = self._hnf
        self._rows = tuple(row[:a] for row in rows[:d])  # torus row y, x < a'
        self._domain = TranslateBox(range(a), range(d))  # the torus [0, a') x [0, d')

    @classmethod
    def from_rows(cls, alphabet: Alphabet, rows: Sequence[str]) -> "DoublyPeriodic":
        """Axis-periodic configuration from a character grid; first row is the top.

        The rows, bottom first, are the torus rows of the basis (n, 0), (0, k),
        so they are checked and kept as they are, with no table between.
        """
        rows = ["".join(row) for row in rows]
        if rows and not any(rows):  # the basis (0, 0), (0, k)
            raise ConfigurationError("basis vectors must be linearly independent")
        _check_grid(alphabet, rows, "fundamental domain")
        basis = ((len(rows[0]), 0), (0, len(rows)))
        body = cls.__new__(cls)
        body._set_torus(alphabet, basis, _hnf(*basis), rows[::-1])
        return body

    def letter_at(self, g: Point) -> str:
        a, b, d = self._hnf
        q, r = divmod(g[1], d)
        return self._rows[r][(g[0] - q * b) % a]

    def enumeration_domain(self, shape: Iterable[Point]) -> TranslateBox:
        """The torus [0, a) x [0, d), where (a, 0), (b, d) is the HNF of the period lattice.

        It holds one point of each class modulo the period lattice, whose
        vectors are all periods, so the patterns at its points are every
        pattern of the body, and no two of its points differ by a period.
        """
        return self._domain

    def row(self, y: int, lo: int, hi: int) -> str:
        """The letters at (x, y) for lo <= x < hi.

        Row y is torus row y mod d rotated by (y // d) * b, where (a, 0),
        (b, d) is the HNF of the period lattice: (x, y) minus the period
        (y // d) * (b, d) is (x - (y // d) * b, y mod d).
        """
        a, b, d = self._hnf
        q, r = divmod(y, d)
        word = self._rows[r]
        s, n = (lo - q * b) % a, hi - lo
        return (word * _ceil_div(s + n, a))[s:s + n]

    def is_period(self, h: Point) -> bool:
        """Whether h is a nonzero vector of the period lattice."""
        return h != (0, 0) and _in_lattice(h, self._hnf)

    def periods_within(self, bound: int) -> tuple[Point, ...]:
        """The periods h != 0 with sup-norm at most bound, listed from the period lattice."""
        a, b, d = self._hnf
        found = []
        for j in range(-(bound // d), bound // d + 1):
            first = -bound + (j * b + bound) % a  # the least x >= -bound with x = j*b mod a
            found.extend((x, j * d) for x in range(first, bound + 1, a) if x or j)
        return tuple(sorted(found))

    def _orbit_index(self, v: Point) -> int:
        """The index g of P + Zv: v x (a', 0) and v x (b', d') span g Z, the image of P."""
        a, b, d = self._hnf
        return gcd(v[1] * a, v[0] * d - v[1] * b)

    def orbit_class(self, u: Point, v: Point) -> int:
        return _orbit_label(u, v, self._orbit_index(v))

    def directional_translates(self, shape, base, v) -> range:
        """range(s), s >= 1 the least with s*v a period: the index a' d' / g of P in P + Zv."""
        return range(self._hnf[0] * self._hnf[2] // self._orbit_index(v))


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

    def enumeration_domain(self, shape: Iterable[Point]) -> list[Point]:
        """The translates that put a cell of the shape on a defect, sorted, and
        one far translate that puts none there."""
        pts = as_points(shape)
        far = (max(d[0] for d in self.defects) - min((g[0] for g in pts), default=0) + 1, 0)
        return sorted({(dx - sx, dy - sy) for dx, dy in self.defects for sx, sy in pts}) + [far]

    def is_period(self, h: Point) -> bool:
        # A finite nonempty defect set cannot map onto itself under a nonzero shift.
        return False

    def certified_aperiodic(self) -> bool:
        return True

    def orbit_class(self, u: Point, v: Point) -> int:
        return _orbit_label(u, v, 0)  # no period: the orbits are the lines u + Zv

    def directional_translates(self, shape, base, v) -> list[int]:
        pts = as_points(shape)
        norm = v[0] * v[0] + v[1] * v[1]
        hits: set[int] = set()
        for d in self.defects:
            for s in pts:
                delta = psub(d, padd(s, base))
                if delta[0] * v[1] == delta[1] * v[0]:  # delta = t*v: v is primitive
                    hits.add((delta[0] * v[0] + delta[1] * v[1]) // norm)
        far = max(hits, default=0) + 1
        return sorted(hits) + [far]


def _clear_y(p: Point, g: Point) -> tuple[Point, Point]:
    """Euclid on the y coordinates: (p', g') spanning the lattice of p and g, with g'[1] == 0."""
    while g[1]:
        q = p[1] // g[1]
        p, g = g, (p[0] - q * g[0], p[1] - q * g[1])
    return p, g


def _period_lattice(basis: tuple[Point, Point], hnf: tuple[int, int, int], rows: list[str]) -> tuple[int, int, int]:
    """The HNF (a', b', d') of the lattice of all periods of the body whose
    torus rows, over the HNF (a, b, d) of its basis lattice, are `rows`.

    A period (x, y) carries torus row 0 onto row y shifted by x, so only the
    occurrences of row 0 in the doubled torus rows take the full test, and
    those already in the lattice found so far are periods without one.  The
    basis and the torus points that pass span every period.
    """
    a, b, d = hnf
    doubled = [row * 2 for row in rows]
    lattice, survivors = hnf, []
    for y in range(d):
        x = doubled[y].find(rows[0], 0, 2 * a - 1)
        while x >= 0:
            if not _in_lattice((x, y), lattice) and all(
                doubled[(r + y) % d].startswith(rows[r], (x - (r + y) // d * b) % a) for r in range(d)
            ):
                survivors.append((x, y))
                lattice = _hnf(*basis, *survivors)
            x = doubled[y].find(rows[0], x + 1, 2 * a - 1)
    return lattice


def _in_lattice(h: Point, hnf: tuple[int, int, int]) -> bool:
    """Whether h lies in the lattice spanned by (a, 0) and (b, d), given as (a, b, d)."""
    a, b, d = hnf
    return h[1] % d == 0 and (h[0] - h[1] // d * b) % a == 0


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
        return _orbit_label(u, v, abs(v[0] - v[1]))  # v x (1, 1) spans the image of P = Z(1, 1)

    def offsets_within(self, radius: int) -> list[int]:
        out = [0]
        c = 6
        while _sigma(c) <= radius:
            out.extend((_sigma(c), -_sigma(c)))
            c += 1
        return sorted(out)

    @staticmethod
    def _delta_span(shape: Iterable[Point]) -> tuple[int, int]:
        deltas = [x - y for x, y in shape]
        return min(deltas, default=0), max(deltas, default=0)

    @staticmethod
    def _reach(width: int, k: int = 0) -> int:
        """The reach m of a window-minimum sweep for cells whose x - y span `width`.

        Beyond sigma(c0), c0 = max(6, width), consecutive offsets are further
        apart than the window is wide.  So sweeping the window minimum across
        [-m, m] in steps of k = vx - vy (k = 0 for the enumeration sweep, by 1)
        realizes every view: all multi-offset views, full crossings of the
        isolated offsets, and an empty gap.  Offsets mod |k| repeat with
        period 2|k| in the index c, hence 2|k| more crossings past c0.
        """
        return _sigma(max(6, width) + 2 * abs(k) + 2) + width + 1

    def enumeration_domain(self, shape: Iterable[Point]) -> TranslateBox:
        """The sweep (d, 0), -m - lo <= d <= m - lo, where lo is the least x - y of
        the shape: the window minimum lo + d runs across [-m, m]."""
        lo, hi = self._delta_span(shape)
        m = self._reach(hi - lo)
        return TranslateBox(range(-m - lo, m - lo + 1), range(1))

    def directional_translates(self, shape, base, v) -> Sequence[int]:
        k = v[0] - v[1]
        if k == 0:
            # Sliding along the period direction never changes the pattern.
            return [0]
        lo, hi = self._delta_span(shape)
        start = lo + (base[0] - base[1])  # window minimum at t = 0
        m = self._reach(hi - lo, k)
        bounds = sorted((_ceil_div(-m - start, k), (m - start) // k))
        return range(bounds[0] - 1, bounds[1] + 2)


# ---------------------------------------------------------------------------


class WindowSample(Configuration):
    """Letters known only inside a finite window; all counts over it are lower bounds."""

    exactness = Exactness.LOWER_BOUND

    def __init__(self, alphabet: Alphabet, origin: Point, rows: Sequence[str]) -> None:
        _check_grid(alphabet, rows, "window")
        self.alphabet = alphabet
        self.origin = (int(origin[0]), int(origin[1]))
        self.width = len(rows[0])
        self.height = len(rows)
        self._rows = tuple(rows)  # first row is the visual top

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

    def _box(self, shape: Iterable[Point]) -> TranslateBox:
        """The translates that keep the shape inside the window, possibly none."""
        pts = as_points(shape)
        xs = [g[0] for g in pts]
        ys = [g[1] for g in pts]
        x_lo, x_hi = self.origin[0] - min(xs, default=0), self.origin[0] + self.width - 1 - max(xs, default=0)
        y_lo, y_hi = self.origin[1] - min(ys, default=0), self.origin[1] + self.height - 1 - max(ys, default=0)
        return TranslateBox(range(x_lo, x_hi + 1), range(y_lo, y_hi + 1))

    def enumeration_domain(self, shape: Iterable[Point]) -> TranslateBox:
        """The in-window translates; UnknownLetterError when there are none."""
        box = self._box(shape)
        if not box:
            raise UnknownLetterError(
                f"the {self.width}x{self.height} window cannot fit the shape anywhere"
            )
        return box

    def directional_translates(self, shape, base, v) -> range:
        """The steps t that keep shape + base + t*v inside the window."""
        lows, highs = [], []
        box = self._box(shape)
        for r, b, s in zip((box.xs, box.ys), base, v):
            if not r or not (s or b in r):
                return range(0)
            if s:
                first, last = (r[0], r[-1]) if s > 0 else (r[-1], r[0])
                lows.append(_ceil_div(first - b, s))
                highs.append((last - b) // s)
        return range(max(lows), min(highs) + 1)


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
        raise _malformed(name, exc) from None


def _malformed(name: str, reason: object) -> ConfigurationError:
    return ConfigurationError(f"malformed field {name!r} in configuration spec: {reason}")


def _coordinate(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _pair(value, read: Callable = _coordinate) -> tuple:
    """Exactly two values, each passed through read (by default an integer coordinate)."""
    x, y = value
    return (read(x), read(y))


def _letter(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _strings(value) -> list[str]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected an array, got {value!r}")
    return [_letter(v) for v in value]


def _lettered(entries: Iterable[tuple[Point, str]]) -> dict[Point, str]:
    """(coordinate, letter) entries as a dict; a coordinate named twice is an error."""
    out: dict[Point, str] = {}
    for g, a in entries:
        if g in out:
            raise ValueError(f"coordinate {g} is listed twice")
        out[g] = a
    return out


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
            for name in ("basis", "table"):
                if name in spec:
                    raise _malformed(name, "a spec with 'rows' takes no basis or table")
            return DoublyPeriodic.from_rows(alphabet, _field(spec, "rows", _strings))
        basis = _field(spec, "basis", lambda v: _pair(v, _pair))
        table = _field(spec, "table", lambda v: _lettered((_pair(g), _letter(a)) for g, a in v))
        return DoublyPeriodic(alphabet, basis, table)
    if kind == "finite_defect":
        alphabet = Alphabet(tuple(_field(spec, "alphabet", _strings)))
        defects = _field(spec, "defects", lambda v: _lettered((_pair((x, y)), _letter(a)) for x, y, a in v))
        return FiniteDefect(alphabet, _field(spec, "background", _letter), defects)
    if kind == "diagonal_family":
        return DiagonalFamily(_field(spec, "black", _letter, "b"), _field(spec, "white", _letter, "w"))
    if kind == "window":
        alphabet = Alphabet(tuple(_field(spec, "alphabet", _strings)))
        origin = _field(spec, "origin", _pair, (0, 0))
        return WindowSample(alphabet, origin, _field(spec, "rows", _strings))
    raise ConfigurationError(f"unknown configuration type {kind!r}")
