"""Intensional total configurations Z^2 -> A and their finite enumeration domains.

Each representation supports exact point queries, certified period tests, and
produces a finite list of translates whose patterns realize the whole
language of a shape (flagged EXACT) or only part of it (LOWER_BOUND).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import ConfigurationError, UnknownLetterError
from .geometry import ConvexLatticeSet, Point, padd, pscale, psub


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

    def period_class(self, g: Point) -> Hashable:
        """A label for g modulo the certified periods.

        Contract: period_class(g) == period_class(g2) implies g == g2 or
        is_period(g - g2) is certified, so g + u and g2 + u carry the same
        letter for every u.  Counting reads one cell per class.  The base
        class labels each point by itself, which never merges two cells;
        bodies whose periods are not certified must keep it.
        """
        return g

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
        self._period_memo: dict[Point, bool] = {}  # reduce(h) -> is h a period
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
        return tuple(sorted(self._table))

    def enumeration_domain(self, shape: Iterable[Point]) -> EnumerationDomain:
        return EnumerationDomain(self.fundamental_domain(), Exactness.EXACT)

    def period_class(self, g: Point) -> Point:
        """g reduced into the fundamental domain: equal classes differ by a lattice vector."""
        return self.reduce(g)

    def is_period(self, h: Point) -> bool:
        # Whether h is a period depends only on h modulo the lattice.
        if h == (0, 0):
            return False
        r = self.reduce(h)
        known = self._period_memo.get(r)
        if known is None:
            table, reduce = self._table, self.reduce
            known = self._period_memo[r] = all(
                a == table[reduce((g[0] + r[0], g[1] + r[1]))] for g, a in table.items()
            )
        return known

    def _orbit_basis(self, v: Point) -> tuple[int, int, int]:
        """(a, b, d) with (a, 0) and (b, d) spanning L + Zv, a, d > 0 and 0 <= b < a.

        This is the Hermite normal form of the basis and v, found once per v.
        """
        basis = self._orbit_bases.get(v)
        if basis is None:
            pivot, flat1 = _clear_y(*self.basis)
            pivot, flat2 = _clear_y(pivot, v)
            if pivot[1] < 0:
                pivot = (-pivot[0], -pivot[1])
            a = gcd(flat1[0], flat2[0])  # flat1[0] != 0: the basis spans a rank-2 lattice
            basis = self._orbit_bases[v] = (a, pivot[0] % a, pivot[1])
        return basis

    def orbit_class(self, u: Point, v: Point) -> Point:
        """u reduced modulo the lattice L + Zv: the canonical (x mod a, y mod d)."""
        a, b, d = self._orbit_basis(v)
        q = u[1] // d
        return ((u[0] - q * b) % a, u[1] - q * d)

    def directional_period(self, v: Point) -> int:
        """Smallest s >= 1 with s*v in the basis lattice (divides the domain size)."""
        zero = self.reduce((0, 0))
        for s in range(1, abs(self._det) + 1):
            if self.reduce(pscale(s, v)) == zero:
                return s
        raise AssertionError("order of a coset exceeded the group size")

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
        hits: set[int] = set()
        for d in self.defects:
            for s in pts:
                delta = psub(d, padd(s, base))
                t = _solve_step(delta, step)
                if t is not None:
                    hits.add(t)
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


def _solve_step(delta: Point, step: Point) -> int | None:
    if step[0] != 0:
        if delta[0] % step[0]:
            return None
        t = delta[0] // step[0]
        return t if t * step[1] == delta[1] else None
    if delta[0] != 0 or delta[1] % step[1]:
        return None
    return delta[1] // step[1]


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

    def period_class(self, g: Point) -> int:
        """x - y: points of one class differ by a multiple of the period (1, 1)."""
        return g[0] - g[1]

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
        grid: dict[Point, str] = {}
        for yy, row in enumerate(rows):  # first row is the visual top
            for xx, a in enumerate(row):
                if a not in alphabet:
                    raise ConfigurationError(f"letter {a!r} not in alphabet")
                grid[(self.origin[0] + xx, self.origin[1] + self.height - 1 - yy)] = a
        if set(grid.values()) != set(alphabet.letters):
            raise ConfigurationError("every alphabet letter must occur in the window")
        self._grid = grid

    def letter_at(self, g: Point) -> str:
        try:
            return self._grid[g]
        except KeyError:
            raise UnknownLetterError(f"point {g} lies outside the sampled window") from None

    def periods_certified(self) -> bool:
        return False

    def is_period(self, h: Point) -> bool:
        """Period of the window restriction only; never a global certificate."""
        if h == (0, 0):
            return False
        ok = False
        for g, a in self._grid.items():
            gh = padd(g, h)
            if gh in self._grid:
                ok = True
                if self._grid[gh] != a:
                    return False
        return ok

    def _inside(self, g: Point) -> bool:
        return (
            self.origin[0] <= g[0] < self.origin[0] + self.width
            and self.origin[1] <= g[1] < self.origin[1] + self.height
        )

    def enumeration_domain(self, shape: Iterable[Point]) -> EnumerationDomain:
        pts = as_points(shape)
        xs = [g[0] for g in pts]
        ys = [g[1] for g in pts]
        x_lo, x_hi = self.origin[0] - min(xs), self.origin[0] + self.width - 1 - max(xs)
        y_lo, y_hi = self.origin[1] - min(ys), self.origin[1] + self.height - 1 - max(ys)
        us = [
            (x, y) for x in range(x_lo, x_hi + 1) for y in range(y_lo, y_hi + 1)
        ]
        if not us:
            raise UnknownLetterError(
                f"the {self.width}x{self.height} window cannot fit the shape anywhere"
            )
        return EnumerationDomain(us, Exactness.LOWER_BOUND)

    def directional_translates(self, shape, base, v, trange) -> EnumerationDomain:
        step, a = _range_steps(trange, v)
        pts = as_points(shape)
        interval = self._fit_interval(pts, base, step)
        if interval is None:
            return EnumerationDomain([], Exactness.LOWER_BOUND)
        t_lo, t_hi = interval
        if trange[0] != "all":
            t_lo = max(t_lo, a)
        return EnumerationDomain(list(range(t_lo, t_hi + 1)), Exactness.LOWER_BOUND)

    def _fit_interval(self, pts, base: Point, step: Point) -> tuple[int, int] | None:
        """The t-interval keeping shape+base+t*step inside the window, or None."""
        lo_x, hi_x = self.origin[0], self.origin[0] + self.width - 1
        lo_y, hi_y = self.origin[1], self.origin[1] + self.height - 1
        t_lo, t_hi = None, None
        for g in pts:
            for coord, (lo, hi) in (((g[0] + base[0], step[0]), (lo_x, hi_x)),
                                    ((g[1] + base[1], step[1]), (lo_y, hi_y))):
                pos, d = coord
                if d == 0:
                    if not lo <= pos <= hi:
                        return None
                    continue
                a_, b_ = _ceil_div(lo - pos, d), (hi - pos) // d
                if d < 0:
                    a_, b_ = _ceil_div(hi - pos, d), (lo - pos) // d
                t_lo = a_ if t_lo is None else max(t_lo, a_)
                t_hi = b_ if t_hi is None else min(t_hi, b_)
        if t_lo is None or t_hi is None or t_lo > t_hi:
            return None
        return t_lo, t_hi


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
