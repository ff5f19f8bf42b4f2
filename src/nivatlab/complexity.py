"""The pattern-counting engine: shape complexity, languages, extension counts.

Counting enumerates a certified translate domain and deduplicates patterns by
their letters.  One kernel, `_letter_keys`, reads the letters of a shape at
every translate; complexities, languages, directional languages and extension
counts all scan through it.  Exactness flags propagate: anything computed from
a lower-bound domain is itself a lower bound.

The kernel counts modulo the certified periods.  Cells with equal
`Configuration.period_class` differ by a period, so at every translate they
carry the same letter: the kernel reads only the first cell of each class and
keys a translate by the string of those letters (letters are single
characters).  Distinct class keys are in bijection with distinct patterns, so
`complexity` counts them as they are; `_expanded` spreads a key back over all
cells where patterns are needed.  Bodies without certified periods label each
cell by itself, and the kernel is then one plain scan.

`complexity_table` extends blocks row by row instead of re-reading them: the
key of block(n, k) at u is the key of block(n, k-1) at u followed by the n x 1
row at u + (0, k-1).  Rows and block keys are memoised by the period class of
their translate, so a class met again is not read again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .configurations import (
    Configuration,
    EnumerationDomain,
    Exactness,
    Pattern,
    _range_steps,
    as_points,
)
from .errors import GeometryError, SoundnessError
from .geometry import ConvexLatticeSet, Line, Point, line_section, psub, supporting_line


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


def _letter_keys(
    config: Configuration, cells: tuple[Point, ...], translates
) -> tuple[set[str], tuple[int, ...] | None]:
    """The distinct class keys of cells + u over the translates u.

    A class key holds the letters of the first cell of each period class, in
    cell order.  The index gives, for each cell, the position of its class in
    the key; it is None when no two cells share a class, and the keys are
    then the full letter strings.
    """
    first: dict = {}  # period class -> its first cell
    for g in cells:
        first.setdefault(config.period_class(g), g)
    index = None
    if len(first) < len(cells):
        position = {c: i for i, c in enumerate(first)}
        index = tuple(position[config.period_class(g)] for g in cells)
        cells = tuple(first.values())
    letter_at = config.letter_at
    keys = {"".join([letter_at((g[0] + u[0], g[1] + u[1])) for g in cells]) for u in translates}
    return keys, index


def _domain_keys(
    config: Configuration, cells: tuple[Point, ...]
) -> tuple[set[str], tuple[int, ...] | None, EnumerationDomain]:
    """The class keys of the cells over their certified enumeration domain."""
    domain = config.enumeration_domain(cells)
    return (*_letter_keys(config, cells, domain.translates), domain)


def _expanded(keys: Iterable[str], index: tuple[int, ...] | None) -> Iterable[str]:
    """Class keys spread back over every cell."""
    if index is None:
        return keys
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
    return frozenset(_patterns(cells, _expanded(keys, index))), domain.exactness


def complexity_table(
    config: Configuration, n_max: int, k_max: int
) -> dict[tuple[int, int], ComplexityReport]:
    """Complexity of every n-by-k block with 1 <= n <= n_max, 1 <= k <= k_max."""
    if n_max < 1 or k_max < 1:
        raise ValueError("table dimensions must be positive")
    period_class, letter_at = config.period_class, config.letter_at
    out = {}
    for n in range(1, n_max + 1):
        rows: dict = {}  # period class of t -> letters of the n x 1 row at t

        def row(t: Point) -> str:
            c = period_class(t)
            r = rows.get(c)
            if r is None:
                r = rows[c] = "".join([letter_at((t[0] + x, t[1])) for x in range(n)])
            return r

        shorter: dict = {}  # period class of u -> key of block(n, k-1) at u
        for k in range(1, k_max + 1):
            cells = tuple((x, y) for x in range(n) for y in range(k))
            domain = config.enumeration_domain(cells)
            keys = {}
            for u in domain.translates:
                c = period_class(u)
                key = shorter.get(c)
                if key is None:
                    key = "".join([row((u[0], u[1] + y)) for y in range(k - 1)])
                keys[c] = key + row((u[0], u[1] + k - 1))
            out[(n, k)] = ComplexityReport(
                cells, len(set(keys.values())), domain.exactness, len(domain)
            )
            shorter = keys
    return out


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
    return DirectionalLanguage(frozenset(_patterns(cells, _expanded(keys, index))), domain.exactness)


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
    ordered = sorted(_expanded(keys, index))
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
