"""One-dimensional engines: factor complexity, the alphabetical periodicity
theorem, period combination, and period detection for configurations.

Words carry arbitrary hashable letters so that strip words (whose letters are
shaped patterns) reuse the same machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Hashable, Iterable, Sequence

from .complexity import complexity
from .configurations import Configuration, Exactness, as_points, extract_pattern
from .errors import GeometryError, SoundnessError
from .geometry import ConvexLatticeSet, Line, Point, padd, pscale, psub


@dataclass(frozen=True)
class Word:
    """A finite window of a sequence, indexed from start_index."""

    letters: tuple[Hashable, ...]
    start_index: int = 0

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("a word must be nonempty")

    @classmethod
    def from_text(cls, text: str, start_index: int = 0) -> "Word":
        return cls(tuple(text), start_index)

    def __len__(self) -> int:
        return len(self.letters)

    def alphabet(self) -> tuple[Hashable, ...]:
        """Distinct letters in order of first occurrence."""
        seen: dict[Hashable, None] = {}
        for a in self.letters:
            seen.setdefault(a, None)
        return tuple(seen)


def word_complexity(word: Word, n: int) -> int:
    """Number of distinct length-n factors fully inside the window."""
    if not 1 <= n <= len(word):
        raise ValueError(f"factor length {n} out of range 1..{len(word)}")
    w = word.letters
    return len({w[i : i + n] for i in range(len(w) - n + 1)})


def _window_period(letters: Sequence[Hashable], m: int) -> bool:
    return all(letters[i + m] == letters[i] for i in range(len(letters) - m))


def smallest_window_period(letters: Sequence[Hashable], max_period: int) -> int | None:
    for m in range(1, max_period + 1):
        if _window_period(letters, m):
            return m
    return None


class MHStatus(enum.Enum):
    PERIOD_FOUND = "period_found"
    HYPOTHESIS_FAILS = "hypothesis_fails"
    WINDOW_TOO_SHORT = "window_too_short"
    VIOLATION = "violation"


@dataclass(frozen=True)
class MHReport:
    n0: int
    alphabet_size: int
    factor_count: int
    predicted_period_bound: int  # n0 + |A| - 2
    hypothesis_holds: bool
    status: MHStatus
    period: int | None
    mode: str

    @property
    def ok(self) -> bool:
        return self.status is not MHStatus.VIOLATION


def mh_check(word: Word, n0: int, mode: str = "one_sided") -> MHReport:
    """Check the alphabetical complexity-to-periodicity bound on a window.

    With factor count P(n0) at most n' = n0+|A|-2, a period at most n' must
    appear; in one_sided mode the first n' positions are discarded before the
    period search.  Windows shorter than 3*n' yield WINDOW_TOO_SHORT, which is
    neither a pass nor a fail.  A long window where the bound holds but no
    period exists is reported as VIOLATION.
    """
    if mode not in ("one_sided", "two_sided"):
        raise ValueError(f"mode must be one_sided or two_sided, got {mode!r}")
    alpha = word.alphabet()
    if len(alpha) < 2:
        raise ValueError("the word must use at least two letters")
    n_prime = n0 + len(alpha) - 2
    p_value = word_complexity(word, n0)
    hypothesis = p_value <= n_prime
    if not hypothesis:
        return MHReport(n0, len(alpha), p_value, n_prime, False, MHStatus.HYPOTHESIS_FAILS, None, mode)
    if len(word) < 3 * n_prime:
        return MHReport(n0, len(alpha), p_value, n_prime, True, MHStatus.WINDOW_TOO_SHORT, None, mode)
    tail = word.letters[n_prime:] if mode == "one_sided" else word.letters
    period = smallest_window_period(tail, n_prime)
    status = MHStatus.PERIOD_FOUND if period is not None else MHStatus.VIOLATION
    return MHReport(n0, len(alpha), p_value, n_prime, True, status, period, mode)


@dataclass(frozen=True)
class FineWilfReport:
    p: int
    q: int
    length: int
    required_length: int  # p + q - gcd(p, q)
    applies: bool
    combined_period: int | None


def fine_wilf(word: Word, p: int, q: int) -> FineWilfReport:
    """Combine two verified periods into their gcd when the window is long enough.

    Raises if p or q is not actually a period of the window.  When the window
    reaches the critical length the gcd period is verified, not just asserted.
    """
    if p < 1 or q < 1:
        raise ValueError("periods must be positive")
    for m in (p, q):
        if not _window_period(word.letters, m):
            raise ValueError(f"{m} is not a period of the given window")
    g = gcd(p, q)
    needed = p + q - g
    if len(word) < needed:
        return FineWilfReport(p, q, len(word), needed, False, None)
    if not _window_period(word.letters, g):
        raise SoundnessError(
            f"window of length {len(word)} with periods {p},{q} lacks period {g}"
        )
    return FineWilfReport(p, q, len(word), needed, True, g)


# -- two-dimensional period detection ----------------------------------------


@dataclass(frozen=True)
class PeriodReport:
    periods: tuple[Point, ...]
    certified: bool
    search_bound: int

    @property
    def periodic(self) -> bool:
        return bool(self.periods)

    def smallest(self) -> Point | None:
        """The minimal positive period: smallest norm, canonical sign (x > 0,
        or x = 0 and y > 0); the negation of a period is always a period too."""
        if not self.periods:
            return None
        reps = {h if h > (0, 0) else (-h[0], -h[1]) for h in self.periods}
        return min(reps, key=lambda h: (h[0] * h[0] + h[1] * h[1], h))


def detect_periods_2d(config: Configuration, bound: int) -> PeriodReport:
    """All periods h with sup-norm at most `bound`.

    Certified for intensional bodies (the representation decides global
    periodicity); for window samples the check only covers the window.
    """
    if bound < 1:
        raise ValueError("search bound must be positive")
    found = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) != (0, 0) and config.is_period((x, y)):
                found.append((x, y))
    return PeriodReport(tuple(sorted(found)), config.periods_certified(), bound)


# -- strip words --------------------------------------------------------------


def strip_word(
    config: Configuration,
    line: Line,
    base_points: ConvexLatticeSet | Iterable[Point],
    t_range: Iterable[int],
    base: Point = (0, 0),
) -> Word:
    """The sequence of base-point patterns slid along the line's minimal vector.

    Letters are canonical patterns; the induced alphabet is their distinct set.
    """
    pts = as_points(base_points)
    if not pts:
        raise ValueError("base points must be nonempty")
    v = line.minimal_vector()
    ts = sorted(t_range)
    if not ts:
        raise ValueError("t range must be nonempty")
    letters = tuple(extract_pattern(config, pts, padd(base, pscale(t, v))) for t in ts)
    return Word(letters, start_index=ts[0])


# -- null-area periodicity -----------------------------------------------------


class NullAreaStatus(enum.Enum):
    PERIOD_FOUND = "period_found"
    HYPOTHESIS_FAILS = "hypothesis_fails"
    NOT_CERTIFIABLE = "not_certifiable"
    VIOLATION = "violation"


@dataclass(frozen=True)
class NullAreaReport:
    status: NullAreaStatus
    factor_count: int
    bound: int
    carrier: Point | None
    period: Point | None


def null_area_period(config: Configuration, shape: ConvexLatticeSet) -> NullAreaReport:
    """Periodicity forced by low complexity on a null-area convex set.

    When the shape's exact pattern count is at most |S|+|A|-2, a period
    parallel to the carrier line with at most that many steps must exist; it
    is searched through the representation's certified period test.
    """
    if shape.has_positive_area():
        raise GeometryError("null_area_period needs a null-area convex set")
    rep = complexity(config, shape)
    bound = len(shape) + len(config.alphabet) - 2
    if rep.exactness is not Exactness.EXACT:
        return NullAreaReport(NullAreaStatus.NOT_CERTIFIABLE, rep.count, bound, None, None)
    if rep.count > bound:
        return NullAreaReport(NullAreaStatus.HYPOTHESIS_FAILS, rep.count, bound, None, None)
    verts = shape.vertices
    if len(verts) < 2:
        # A singleton always fails the hypothesis (count = |A| > |A|-1).
        return NullAreaReport(NullAreaStatus.HYPOTHESIS_FAILS, rep.count, bound, None, None)
    d = psub(verts[1], verts[0])
    g = gcd(abs(d[0]), abs(d[1]))
    carrier = (d[0] // g, d[1] // g)
    if not config.periods_certified():
        return NullAreaReport(NullAreaStatus.NOT_CERTIFIABLE, rep.count, bound, carrier, None)
    for t in range(1, bound + 1):
        h = pscale(t, carrier)
        if config.is_period(h):
            return NullAreaReport(NullAreaStatus.PERIOD_FOUND, rep.count, bound, carrier, h)
    return NullAreaReport(NullAreaStatus.VIOLATION, rep.count, bound, carrier, None)
