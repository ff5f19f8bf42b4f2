"""End-to-end verification: the main-bound check on one configuration and the
reference suite for the two-letter diagonal family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .complexity import ComplexityReport, complexity, complexity_table
from .configurations import (
    Configuration,
    DiagonalFamily,
    DoublyPeriodic,
    Exactness,
    WindowSample,
)
from .geometry import ConvexLatticeSet, is_quasi_regular
from .words import PeriodReport, detect_periods_2d


class Verdict(enum.Enum):
    CONSISTENT = "consistent"
    VACUOUS = "vacuous"
    INCONCLUSIVE = "inconclusive"
    VIOLATION = "violation"


@dataclass(frozen=True)
class NivatReport:
    """Outcome of checking the half-cardinality bound implication on a shape."""

    shape: ConvexLatticeSet
    quasi_regular: bool
    complexity: ComplexityReport
    bound: Fraction
    hypothesis_holds: bool | None  # None when lower-bound data cannot decide
    periods: PeriodReport
    verdict: Verdict

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "shape": list(self.shape.cells),
            "quasi_regular": self.quasi_regular,
            "count": self.complexity.count,
            "exact": self.complexity.exact,
            "bound": str(self.bound),
            "hypothesis_holds": self.hypothesis_holds,
            "periods": sorted(self.periods.periods),
            "periods_certified": self.periods.certified,
            "verdict": self.verdict.value,
        }


def _default_period_bound(config: Configuration) -> int:
    if isinstance(config, DoublyPeriodic):
        return max(
            1, max(abs(c) for b in config.basis for c in b)
        )
    if isinstance(config, WindowSample):
        return max(1, max(config.width, config.height) - 1)
    return 1  # diagonal family's (1,1); finite defects have none at any bound


def nivat_check(
    config: Configuration, shape: ConvexLatticeSet, period_bound: int | None = None
) -> NivatReport:
    """Check the bound's hypothesis and conclusion on a concrete configuration.

    The hypothesis is quasi-regularity plus an exact pattern count at most
    |S|/2 + |A| - 1.  A configuration whose representation is certified
    aperiodic while the hypothesis holds would be a VIOLATION; lower-bound
    data can only yield VACUOUS (bound already exceeded) or INCONCLUSIVE.
    """
    quasi = shape.has_positive_area() and is_quasi_regular(shape).quasi_regular
    rep = complexity(config, shape)
    bound = Fraction(len(shape), 2) + len(config.alphabet) - 1
    if rep.exactness is Exactness.EXACT:
        hypothesis: bool | None = quasi and rep.count <= bound
    elif rep.count > bound or not quasi:
        hypothesis = False  # a lower bound above the threshold already refutes it
    else:
        hypothesis = None
    periods = detect_periods_2d(
        config, period_bound if period_bound is not None else _default_period_bound(config)
    )
    if hypothesis is None:
        verdict = Verdict.INCONCLUSIVE
    elif not hypothesis:
        verdict = Verdict.VACUOUS
    elif periods.periodic and periods.certified:
        verdict = Verdict.CONSISTENT
    elif config.certified_aperiodic():
        verdict = Verdict.VIOLATION
    else:
        verdict = Verdict.INCONCLUSIVE
    return NivatReport(shape, quasi, rep, bound, hypothesis, periods, verdict)


# -- the reference family ------------------------------------------------------


@dataclass(frozen=True)
class ExampleSuiteRow:
    n: int
    k: int
    count: int
    expected: int
    ok: bool


@dataclass(frozen=True)
class ExampleSuiteResult:
    rows: tuple[ExampleSuiteRow, ...]
    cyr_kra_rows: tuple[ExampleSuiteRow, ...]  # count must exceed nk/2
    passed: bool

    def failures(self) -> tuple[ExampleSuiteRow, ...]:
        return tuple(r for r in self.rows + self.cyr_kra_rows if not r.ok)


def diagonal_expected(n: int, k: int) -> int:
    """The closed form for the diagonal family's block complexity."""
    s = n + k
    if s <= 7:
        return s
    return s + (s - 7) * (s - 6) // 2


def example_suite(sum_max: int = 14, square_max: int = 12) -> ExampleSuiteResult:
    """Check the diagonal family's closed forms and the strict half-area bound.

    Both checks read one block table, large enough for every n + k <= sum_max
    and every n, k <= square_max.  Any mismatch is reported in the result
    rows rather than raised, so callers see exactly the offending (n, k).
    """
    size = max(sum_max - 1, square_max)
    table = complexity_table(DiagonalFamily(), size, size)
    rows = []
    for s in range(2, sum_max + 1):
        for n in range(1, s):
            k = s - n
            count, expected = table[n, k].count, diagonal_expected(n, k)
            rows.append(ExampleSuiteRow(n, k, count, expected, count == expected))
    ck_rows = []
    for n in range(1, square_max + 1):
        for k in range(1, square_max + 1):
            count = table[n, k].count
            ck_rows.append(ExampleSuiteRow(n, k, count, n * k // 2 + 1, 2 * count > n * k))
    rows_t = tuple(rows)
    ck_t = tuple(ck_rows)
    return ExampleSuiteResult(rows_t, ck_t, all(r.ok for r in rows_t + ck_t))
