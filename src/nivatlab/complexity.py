"""The pattern-counting engine: shape complexity, languages, extension counts.

Counting enumerates a certified translate domain and deduplicates patterns by
their letters.  One kernel reads the letters of a shape at every translate:
`_domain_keys` over a certified domain and `_letter_keys` over any list of
translates.  Complexities, languages, directional languages, extension counts
and tables all scan through it.  Exactness flags propagate: anything computed
from a lower-bound domain is itself a lower bound.

The kernel keys each translate by a string that determines its pattern and
back, read in slices rather than cell by cell:

- Row slices (`DoublyPeriodic`, `WindowSample`): the cells split into maximal
  runs along each row.  Per row of translates, each run gives a list of
  slices of a body row, and `zip` joins the lists into keys.  A doubly
  periodic body counts over its torus (`DoublyPeriodic.translate_box`).
- Band words (`DiagonalFamily`): a letter depends only on x - y, so a key is
  one factor of the band word per maximal run of the cells' x - y values.
- Finite-defect domains, and directional translates (a line, not a box) on
  bodies other than the diagonal family, are read cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Mapping

from .configurations import (
    Configuration,
    DiagonalFamily,
    DoublyPeriodic,
    EnumerationDomain,
    Exactness,
    Pattern,
    WindowSample,
    _range_steps,
    as_points,
)
from .errors import GeometryError, SoundnessError
from .geometry import ConvexLatticeSet, Line, Point, line_section, psub, supporting_line

_Keys = tuple[set[str], tuple[int, ...]]  # distinct keys, and each cell's position in a key


@dataclass(frozen=True)
class ComplexityReport:
    """The number of distinct patterns of a shape, with provenance."""

    shape: tuple[Point, ...]
    count: int
    exactness: Exactness
    translates_examined: int

    @property
    def exact(self) -> bool:
        return self.exactness is Exactness.EXACT


def _joined(columns: list[list[str]]) -> Iterable[str]:
    """Equal-length columns of slices joined across, one string per position."""
    return columns[0] if len(columns) == 1 else map("".join, zip(*columns))


def _runs(values: list[int]) -> list[tuple[int, int]]:
    """The maximal runs (first, length) of consecutive integers in sorted distinct values."""
    groups = groupby(enumerate(values), lambda iv: iv[1] - iv[0])
    return [(run[0][1], len(run)) for run in (list(g) for _, g in groups)]


def _row_keys(row: Callable[[int, int, int], str], cells: tuple[Point, ...], uxs, uys) -> _Keys:
    """The keys over the box uxs x uys of translates (two ranges), read as row slices.

    A key holds the letters of the cells in (y, x) order.
    """
    in_rows = sorted(cells, key=lambda g: (g[1], g[0]))
    x_lo = min(x for x, _ in cells)
    width = max(x for x, _ in cells) + 1 - x_lo
    runs = [(y, x0 - x_lo, n) for y, row_cells in groupby(in_rows, lambda g: g[1])
            for x0, n in _runs([x for x, _ in row_cells])]
    keys: set[str] = set()
    lo, span = uxs[0], len(uxs) - 1 + width
    columns: dict = {}  # (y, o, n) -> the slices of row y at o + ux - lo of length n
    for uy in uys:
        for y, o, n in runs:
            if (y + uy, o, n) not in columns:
                word = row(y + uy, x_lo + lo, x_lo + lo + span)
                columns[y + uy, o, n] = [word[i + o:i + o + n] for i in range(len(uxs))]
        keys.update(_joined([columns[y + uy, o, n] for y, o, n in runs]))
    position = {g: i for i, g in enumerate(in_rows)}
    return keys, tuple(position[g] for g in cells)


def _band_keys(config: DiagonalFamily, cells: tuple[Point, ...], translates) -> _Keys:
    """The keys over the translates: one letter per distinct x - y of the cells, in order."""
    deltas = sorted({x - y for x, y in cells})
    shifts = [ux - uy for ux, uy in translates]
    low = min(shifts)
    word = config.band(deltas[0] + low, deltas[-1] + max(shifts) + 1)
    starts = [e - low - deltas[0] for e in shifts]
    columns = [[word[i + d:i + d + n] for i in starts] for d, n in _runs(deltas)]
    position = {d: i for i, d in enumerate(deltas)}
    return set(_joined(columns)), tuple(position[x - y] for x, y in cells)


def _letter_keys(config: Configuration, cells: tuple[Point, ...], translates) -> _Keys:
    """The distinct keys of cells + u over the translates u, and the index of the keys.

    Equal keys mean equal patterns and back.  The index gives, in cell
    order, the position of each cell's letter within a key.  Diagonal
    bodies read their band word; others read each translate cell by cell.
    """
    if isinstance(config, DiagonalFamily) and translates:
        return _band_keys(config, cells, translates)
    letter_at = config.letter_at
    keys = {"".join([letter_at((g[0] + u[0], g[1] + u[1])) for g in cells]) for u in translates}
    return keys, tuple(range(len(cells)))


def _domain_keys(
    config: Configuration, cells: tuple[Point, ...]
) -> tuple[set[str], tuple[int, ...], EnumerationDomain]:
    """The keys of the cells over their domain, or its `translate_box` for row-slice bodies."""
    domain = config.enumeration_domain(cells)
    if isinstance(config, (DoublyPeriodic, WindowSample)):
        return (*_row_keys(config.row, cells, *config.translate_box(cells)), domain)
    return (*_letter_keys(config, cells, domain.translates), domain)


def _in_cell_order(keys: Iterable[str], index: tuple[int, ...]) -> Iterable[str]:
    """Keys respelled as the letters of every cell, in cell order."""
    return ("".join([k[i] for i in index]) for k in keys)


def _patterns(cells: tuple[Point, ...], keys: Iterable[str]) -> list[Pattern]:
    """Canonical patterns of full letter strings read over sorted cells, in key order."""
    offsets = tuple(psub(g, cells[0]) for g in cells)
    return [Pattern(tuple(zip(offsets, k))) for k in keys]


def complexity(config: Configuration, shape: ConvexLatticeSet | Iterable[Point]) -> ComplexityReport:
    """The number of distinct shape-patterns over all translates of the configuration."""
    cells = as_points(shape)
    if not cells:
        return ComplexityReport((), 1, Exactness.EXACT, 0)
    keys, _, domain = _domain_keys(config, cells)
    return ComplexityReport(cells, len(keys), domain.exactness, len(domain))


def language(config: Configuration, shape: ConvexLatticeSet | Iterable[Point]) -> frozenset[Pattern]:
    """The set of distinct shape-patterns (use `complexity` for the exactness flag)."""
    return language_report(config, shape)[0]


def language_report(
    config: Configuration, shape: ConvexLatticeSet | Iterable[Point]
) -> tuple[frozenset[Pattern], Exactness]:
    cells = as_points(shape)
    if not cells:
        return frozenset([Pattern(())]), Exactness.EXACT
    keys, index, domain = _domain_keys(config, cells)
    return frozenset(_patterns(cells, _in_cell_order(keys, index))), domain.exactness


def complexity_table(
    config: Configuration, n_max: int, k_max: int
) -> dict[tuple[int, int], ComplexityReport]:
    """Complexity of every n-by-k block with 1 <= n <= n_max, 1 <= k <= k_max."""
    if n_max < 1 or k_max < 1:
        raise ValueError("table dimensions must be positive")
    return {
        (n, k): complexity(config, [(x, y) for x in range(n) for y in range(k)])
        for n in range(1, n_max + 1)
        for k in range(1, k_max + 1)
    }


def table_to_csv(table: Mapping[tuple[int, int], ComplexityReport]) -> str:
    lines = ["n,k,count,exact"]
    for (n, k) in sorted(table):
        rep = table[(n, k)]
        lines.append(f"{n},{k},{rep.count},{'1' if rep.exact else '0'}")
    return "\n".join(lines) + "\n"


# -- directional languages ---------------------------------------------------


@dataclass(frozen=True)
class DirectionalLanguage:
    """Patterns seen when sliding a shape along a line's minimal vector."""

    patterns: frozenset[Pattern]
    exactness: Exactness

    def __len__(self) -> int:
        return len(self.patterns)


def directional_language(
    config: Configuration,
    shape: ConvexLatticeSet | Iterable[Point],
    line: Line,
    base: Point = (0, 0),
    trange: tuple[str, int] = ("all", 0),
) -> DirectionalLanguage:
    """The patterns of shape+base+t*v for t in the requested range.

    trange is ('all', 0), ('forward', a) meaning t >= a along +v, or
    ('backward', a) meaning t >= a along -v.
    """
    cells = as_points(shape)
    if not cells:
        return DirectionalLanguage(frozenset([Pattern(())]), Exactness.EXACT)
    v = line.minimal_vector()
    domain = config.directional_translates(cells, base, v, trange)
    step, _ = _range_steps(trange, v)
    translates = [(base[0] + t * step[0], base[1] + t * step[1]) for t in domain.translates]
    keys, index = _letter_keys(config, cells, translates)
    patterns = frozenset(_patterns(cells, _in_cell_order(keys, index)))
    return DirectionalLanguage(patterns, domain.exactness)


# -- extension counts --------------------------------------------------------


@dataclass(frozen=True)
class ExtensionTable:
    """Full-shape patterns grouped by their restriction to the shape minus its supporting line."""

    shape: tuple[Point, ...]
    base: tuple[Point, ...]
    extensions: dict[Pattern, tuple[Pattern, ...]]
    exactness: Exactness

    def count(self, base_pattern: Pattern) -> int:
        return len(self.extensions[base_pattern])

    def counts(self) -> dict[Pattern, int]:
        return {g: len(v) for g, v in self.extensions.items()}

    def excess(self) -> int:
        """Sum of (N - 1) over base patterns; equals the complexity increment when exact."""
        return sum(len(v) - 1 for v in self.extensions.values())


def extension_counts(config: Configuration, shape: ConvexLatticeSet, line: Line) -> ExtensionTable:
    """Group the shape's language by restriction to shape minus its supporting line.

    Validates, on exact data, that the summed extension excess equals the
    complexity difference between the shape and its base.
    """
    support = supporting_line(shape, line)
    on_line = line_section(shape, support)
    base_cells = tuple(sorted(shape.points - on_line))
    if not base_cells:
        raise GeometryError("the shape is a single line section; its base is empty")
    cells = as_points(shape)
    base_set = set(base_cells)
    base_index = [i for i, g in enumerate(cells) if g in base_set]
    keys, index, domain = _domain_keys(config, cells)
    ordered = sorted(_in_cell_order(keys, index))
    restricted = _patterns(base_cells, ("".join([k[i] for i in base_index]) for k in ordered))
    grouped: dict[Pattern, list[Pattern]] = {}
    for full, base_pattern in zip(_patterns(cells, ordered), restricted):
        grouped.setdefault(base_pattern, []).append(full)
    table = ExtensionTable(
        cells, base_cells, {g: tuple(v) for g, v in grouped.items()}, domain.exactness
    )
    if domain.exactness is Exactness.EXACT:
        base_count = complexity(config, base_cells).count
        if table.excess() != len(keys) - base_count:
            raise SoundnessError(
                "extension-count identity failed: "
                f"excess {table.excess()} != {len(keys)} - {base_count}"
            )
    return table
