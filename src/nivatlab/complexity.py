"""The pattern-counting engine: shape complexity, languages, extension counts.

Counting enumerates a certified translate domain and deduplicates patterns by
their letters.  One kernel reads the letters of a shape at every translate:
`_domain_keys` over a certified domain, and `_band_keys` or `_letter_keys`
over a directional language's translates.  Complexities, languages,
directional languages, extension counts and tables all scan through it.
Exactness is a fact of the body, not of a count: every report takes
`config.exactness`, which is EXACT except on a window sample, whose domains
give only lower bounds.

The kernel keys each translate by a string that determines its pattern and
back, read in slices rather than cell by cell:

- Row slices (`DoublyPeriodic`, `WindowSample`): the cells split into maximal
  runs along each row.  Each body row the translates reach is read once and
  cut once per distinct run length, by one `itemgetter` of slices (one-cell
  runs by one `tuple` of the row's characters), so a run's pieces over every
  translate come out in C.  Runs of one length at several offsets share that
  cut, each reading it from its own offset on; one `zip` joins the runs'
  piece lists into keys.  Both bodies' enumeration domains are a
  `TranslateBox`, read as its two ranges: a doubly periodic body counts over
  the torus of its period lattice and reports that torus's size as
  `translates_examined`.
- Band words (`DiagonalFamily`): a letter depends only on x - y, so a key is
  one factor of the band word per maximal run of the cells' x - y values.
  The translates' x - y shifts form a `range` (the sweep's x offsets, or a
  directional language's shifts, stepped by vx - vy), so each run's factors
  are cut straight off one band word (`_band_keys`).
- Defects (`FiniteDefect`): a translate of the domain meets a defect or is the
  far translate, so its key is background except where a defect falls.
- Directional translates (a line, not a box) on the other bodies are read
  cell by cell (`_letter_keys`).

Languages are closed under restriction: for T inside a root shape S, the
T-pattern at u is the restriction of the S-pattern at u.  So on an exact
body, S's keys determine T's language, and `_Counter` counts T as the
number of distinct projections of S's keys onto T's positions in a key; when
those positions form one run, each projection is one slice of a key.  The
structure searches count their subsets that way.

Block tables go by body kind.  Row-slice bodies grow each column
(`_grown_column`): block(n, k)'s key at a translate is block(n, k - 1)'s
plus one width-n piece of the next row, and a column stops growing once its
keys are all distinct.  On the diagonal family block(n, k)'s patterns are
the band word's factors of length n + k - 1, so one count per length serves
every block of that length (`_factor_counts`).  Any other body, a defect
body among them, counts each block over its own domain, as `complexity`
does.

Languages wrap each key as a `Pattern` whose letter string is the key
respelled in cell order, over one offsets tuple that every pattern of the
call shares; no pattern is built cell by cell.  Patterns are built only
where the API returns them: `complexity --dump` takes its count and its
grids from one key read, sorting the respelled keys as strings and drawing
every grid through one layout (`_language_grids`), and `extension_counts`
groups the respelled keys by their restrictions before it wraps any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .configurations import (
    Configuration,
    DiagonalFamily,
    DoublyPeriodic,
    Exactness,
    FiniteDefect,
    Pattern,
    WindowSample,
    _grids,
    as_points,
)
from .errors import GeometryError, InexactDataError, SoundnessError
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


def _joined(columns: list[Iterable[str]]) -> Iterable[str]:
    """Equal-length columns of slices joined across, one string per position."""
    return columns[0] if len(columns) == 1 else map("".join, zip(*columns))


def _runs(values: list[int]) -> list[tuple[int, int]]:
    """The maximal runs (first, length) of consecutive integers in sorted distinct values."""
    groups = groupby(enumerate(values), lambda iv: iv[1] - iv[0])
    return [(run[0][1], len(run)) for run in (list(g) for _, g in groups)]


def _cutter(count: int, offset: int, n: int) -> Callable[[str], tuple[str, ...]]:
    """A getter of the `count` pieces of a string, n long, that start at offset, offset + 1, ...

    One-letter pieces are the string's characters, so one slice and one
    `tuple` cut them.  Longer pieces are cut by one `itemgetter` of slices,
    all in C; one slice alone gives a bare string, so it is wrapped in a tuple.
    """
    if n == 1:
        return lambda word: tuple(word[offset:offset + count])
    getter = itemgetter(*[slice(i, i + n) for i in range(offset, offset + count)])
    return getter if count > 1 else lambda word: (getter(word),)


def _row_keys(row: Callable[[int, int, int], str], cells: tuple[Point, ...], uxs, uys) -> _Keys:
    """The keys over the box uxs x uys of translates (two ranges), read as row slices.

    A key holds the letters of the cells in (y, x) order.  Each body row that
    a run meets over uys is read once, and cut once per distinct run length
    n: into the width-n pieces at len(uxs) positions plus the largest offset
    of a run of length n.  A run at offset o reads that cut from o on, and a
    length whose only offset is 0 reads its cut as it is, so a block slices
    no cut.  Rows between far-apart cells are not read.
    """
    in_rows = sorted(cells, key=lambda g: (g[1], g[0]))
    x_lo = min(x for x, _ in cells)
    width = max(x for x, _ in cells) + 1 - x_lo
    runs = [(y, x0 - x_lo, n) for y, row_cells in groupby(in_rows, lambda g: g[1])
            for x0, n in _runs([x for x, _ in row_cells])]
    lo, hi = x_lo + uxs[0], x_lo + uxs[-1] + width
    reach = {y: range(y + uys[0], y + uys[-1] + 1) for y, _, _ in runs}  # body rows that row y meets
    ys = sorted(set().union(*reach.values()))
    words = list(map(row, ys, repeat(lo), repeat(hi)))
    span: dict[int, int] = {}  # run length -> its largest offset
    for _, o, n in runs:
        span[n] = max(span.get(n, 0), o)
    cuts = {n: dict(zip(ys, map(_cutter(len(uxs) + top, 0, n), words))) for n, top in span.items()}
    # Per run, the pieces of every translate, row of translates after row.
    columns = []
    for y, o, n in runs:
        pieces = map(cuts[n].__getitem__, reach[y])
        if span[n]:  # the cut holds more positions than translates: read it from o on
            pieces = map(itemgetter(slice(o, o + len(uxs))), pieces)
        columns.append(chain.from_iterable(pieces))
    position = {g: i for i, g in enumerate(in_rows)}
    return set(_joined(columns)), tuple(position[g] for g in cells)


def _band_keys(config: DiagonalFamily, cells: tuple[Point, ...], shifts: range) -> _Keys:
    """The keys over translates whose x - y shifts are `shifts`, a range of
    any nonzero step: one band-word factor per maximal run of the cells'
    x - y values, in order.

    Each translate starts each run's factor `step` letters further on than
    the translate before, so every run's factors are cut straight off one
    band word: over the sweep the step is 1, along a direction v it is
    vx - vy.
    """
    deltas = [x - y for x, y in cells]
    distinct = sorted(set(deltas))
    low, high = sorted((shifts[0], shifts[-1]))
    word = config.band(distinct[0] + low, distinct[-1] + high + 1)
    columns = []
    for d, n in _runs(distinct):
        o = d - distinct[0] - low  # the run's factor at shift s starts at s + o in the word
        columns.append([word[i:i + n] for i in range(shifts.start + o, shifts.stop + o, shifts.step)])
    position = {d: i for i, d in enumerate(distinct)}
    return set(_joined(columns)), tuple(map(position.__getitem__, deltas))


def _letter_keys(config: Configuration, cells: tuple[Point, ...], translates) -> _Keys:
    """The distinct keys of cells + u over the translates u, and the index of the keys.

    Equal keys mean equal patterns and back.  The index gives, in cell
    order, the position of each cell's letter within a key.  Each translate
    is read cell by cell.
    """
    letter_at = config.letter_at
    keys = {"".join([letter_at((g[0] + u[0], g[1] + u[1])) for g in cells]) for u in translates}
    return keys, tuple(range(len(cells)))


def _defect_keys(
    config: FiniteDefect, cells: tuple[Point, ...]
) -> tuple[set[str], tuple[int, ...], int]:
    """The keys over a defect domain (background but where a defect falls),
    their index, and the domain's size.

    The domain holds d - s for every defect d and cell s, and one far
    translate.  The key of d - s holds d's letter at the position of cell s;
    the far translate meets no defect and keys as all background.  So the
    domain's size is the number of translates met, plus one.
    """
    blank = [config.background] * len(cells)
    met: dict[Point, list[str]] = {}
    for (dx, dy), a in config.defects.items():
        for i, (sx, sy) in enumerate(cells):
            met.setdefault((dx - sx, dy - sy), blank.copy())[i] = a
    keys = set(map("".join, met.values()))
    keys.add("".join(blank))
    return keys, tuple(range(len(cells))), len(met) + 1


def _domain_keys(
    config: Configuration, cells: tuple[Point, ...]
) -> tuple[set[str], tuple[int, ...], int]:
    """The keys of the cells over their enumeration domain, their index, and
    the domain's size.  A box body's domain, from one `enumeration_domain`
    call, is read as its ranges; a window that cannot fit the cells raises
    there.  A defect body's domain is read off its defects."""
    if isinstance(config, FiniteDefect):
        return _defect_keys(config, cells)
    domain = config.enumeration_domain(cells)
    if isinstance(config, (DoublyPeriodic, WindowSample)):
        keys = _row_keys(config.row, cells, domain.xs, domain.ys)
    elif isinstance(config, DiagonalFamily):
        keys = _band_keys(config, cells, domain.xs)
    else:
        keys = _letter_keys(config, cells, domain)
    return (*keys, len(domain))


def _require_exact(exactness: Exactness) -> None:
    if exactness is not Exactness.EXACT:
        raise InexactDataError(
            "this operation needs exact complexity; the representation "
            "only certifies lower bounds"
        )


class _Counter:
    """The structure searches' complexity cache over subsets of one root
    point set; refuses inexact counts.

    A subset's count is the number of distinct projections of the root's
    keys, read on the first count, onto the subset's positions in a key: all
    of each key when the subset is the root, one slice per key when its
    positions form one run.  It is the subset's complexity on an EXACT body.
    On a lower-bound body (a window sample) a subset fits at translates where
    the root does not, so the first count raises InexactDataError before any
    key is read, or UnknownLetterError when the subset fits nowhere.
    """

    def __init__(self, config: Configuration, root: Iterable[Point]) -> None:
        self.config = config
        self._root = as_points(root)
        self.keys: set[str] | None = None  # the root's keys, once read
        self._cache: dict[frozenset[Point], int] = {}

    def count(self, points: frozenset[Point]) -> int:
        """The complexity of `points`, a subset of the root."""
        if not points:
            return 1  # the unique empty pattern
        cached = self._cache.get(points)
        if cached is not None:
            return cached
        if self.keys is None:
            if self.config.exactness is not Exactness.EXACT:
                self.config.enumeration_domain(points)  # raises when the subset fits nowhere
                _require_exact(self.config.exactness)
            self.keys, index, _ = _domain_keys(self.config, self._root)
            self._position = dict(zip(self._root, index))
            self._width = len(set(index))
        positions = sorted({self._position[g] for g in points})
        first, last = positions[0], positions[-1]
        if len(positions) == self._width:
            count = len(self.keys)
        elif last - first + 1 == len(positions):
            count = len(set(map(itemgetter(slice(first, last + 1)), self.keys)))
        else:
            count = len(set(map(itemgetter(*positions), self.keys)))
        self._cache[points] = count
        return count


def _in_cell_order(keys: Iterable[str], index: Sequence[int]) -> Iterable[str]:
    """Keys respelled as their letters at the index's positions, in index order."""
    first, n = index[0], len(index)
    if list(index) == list(range(first, first + n)):  # one run of positions: one slice per key
        return map(itemgetter(slice(first, first + n)), keys)
    return map("".join, map(itemgetter(*index), keys))


def _offsets(cells: tuple[Point, ...]) -> tuple[Point, ...]:
    """Sorted cells as a pattern's offsets, the least one at (0, 0)."""
    return tuple(psub(g, cells[0]) for g in cells)


def _patterns(cells: tuple[Point, ...], keys: Iterable[str]) -> list[Pattern]:
    """Canonical patterns of full letter strings read over sorted cells, in key order.

    The patterns share one offsets tuple and wrap each key as it is.
    """
    return Pattern._over(_offsets(cells), keys)


def complexity(config: Configuration, shape: ConvexLatticeSet | Iterable[Point]) -> ComplexityReport:
    """The number of distinct shape-patterns over all translates of the configuration."""
    cells = as_points(shape)
    if not cells:
        return ComplexityReport((), 1, Exactness.EXACT, 0)
    keys, _, size = _domain_keys(config, cells)
    return ComplexityReport(cells, len(keys), config.exactness, size)


def language(config: Configuration, shape: ConvexLatticeSet | Iterable[Point]) -> frozenset[Pattern]:
    """The set of distinct shape-patterns (use `complexity` for the exactness flag)."""
    return language_report(config, shape)[0]


def language_report(
    config: Configuration, shape: ConvexLatticeSet | Iterable[Point]
) -> tuple[frozenset[Pattern], Exactness]:
    cells = as_points(shape)
    if not cells:
        return frozenset([Pattern(())]), Exactness.EXACT
    keys, index, _ = _domain_keys(config, cells)
    return frozenset(_patterns(cells, _in_cell_order(keys, index))), config.exactness


def _language_grids(config: Configuration, shape: ConvexLatticeSet) -> tuple[ComplexityReport, list[str]]:
    """The shape's `complexity` report and the `render` grids of its
    `language`, sorted by `Pattern.word`, from one key read.

    The respelled keys are the patterns' words, and they are distinct, so
    sorting them as strings gives the patterns' order; no pattern is built.
    """
    cells = as_points(shape)
    keys, index, size = _domain_keys(config, cells)
    words = sorted(_in_cell_order(keys, index))
    return ComplexityReport(cells, len(keys), config.exactness, size), _grids(_offsets(cells), words)


def _grown_column(
    config: DoublyPeriodic | WindowSample, n: int, k_max: int
) -> Iterator[tuple[int, int]]:
    """(count, translates) of block(n, k) on a row-slice body, for k = 1, ..., k_max.

    Each body row from the lowest translate of block(n, 1) to the top of the
    highest of block(n, k_max) is read once and cut into its width-n pieces,
    one per x of the domain, into one flat list, row after row.
    Block(n, 1)'s keys are the pieces of its rows of translates.  At a
    translate, block(n, k)'s key is block(n, k - 1)'s plus the piece of the
    row k - 1 above it: one `map(add, ...)` of the keys and the pieces from
    row k - 1 on.  On a torus the rows go on past d through `row`, so every
    block keeps all d rows of translates (a * d keys, one per point of the
    torus of the period lattice); in a window the map stops a row of
    translates sooner each step, where block(n, k) leaves the window.  Once
    a block's keys are all distinct, so are every taller block's (its
    translates are the same or fewer, and its patterns restrict to distinct
    ones), and the column stops growing: each taller block counts its own
    translates.  Each block reports its own translates as translates
    examined: a * d on a torus, as `complexity` does.
    """
    row = config.enumeration_domain(((0, 0), (n - 1, 0)))
    xs, ys = row.xs, row.ys
    top = config.enumeration_domain(((0, 0), (n - 1, k_max - 1))).ys[-1] + k_max
    cut = _cutter(len(xs), 0, n)
    pieces = list(chain.from_iterable(cut(config.row(y, xs[0], xs[-1] + n)) for y in range(ys[0], top)))
    keys, distinct = pieces[:len(xs) * len(ys)], False
    for k in range(1, k_max + 1):
        if k > 1 and not distinct:
            keys = list(map(add, keys, islice(pieces, (k - 1) * len(xs), None)))
        size = min(len(keys), len(pieces) - (k - 1) * len(xs))
        count = size if distinct else len(set(keys))
        distinct = count == size
        yield count, size


def _factor_counts(config: DiagonalFamily, longest: int) -> list[tuple[int, int]]:
    """(count, translates) of the band word's factors of length L, for L = 1, ..., longest.

    A row of L cells has x - y values 0, ..., L - 1, so its sweep (d, 0),
    |d| <= m, reads the length-L factors that start at -m, ..., m: the count
    is the number of distinct ones among them, the translates 2m + 1.
    """
    out = []
    for length in range(1, longest + 1):
        sweep = config.enumeration_domain(((0, 0), (length - 1, 0))).xs
        word = config.band(sweep[0], sweep[-1] + length)
        out.append((len({word[i:i + length] for i in range(len(sweep))}), len(sweep)))
    return out


def complexity_table(
    config: Configuration, n_max: int, k_max: int
) -> dict[tuple[int, int], ComplexityReport]:
    """Complexity of every n-by-k block with 1 <= n <= n_max, 1 <= k <= k_max.

    Block(n, k) is the prefix of n * k cells of one x-major tuple per height
    k.  Row-slice bodies (doubly periodic and window samples) grow each
    column's keys row by row (`_grown_column`): every block is counted over
    all of its own translates, the torus of the period lattice on a doubly
    periodic body and the in-window ones on a window.  On the diagonal
    family a letter depends only on x - y, and block(n, k)'s x - y values
    are the one run -(k - 1), ..., n - 1, so its patterns are the band
    word's factors of length n + k - 1 over the same sweep: one count per
    length serves every block (`_factor_counts`).  Any other body counts
    each block over its own domain, as `complexity` does: a defect body
    reads each block's keys off its defects (`_defect_keys`).  A window too
    small for block(n_max, k_max) raises UnknownLetterError from its
    columns' domains.
    """
    if n_max < 1 or k_max < 1:
        raise ValueError("table dimensions must be positive")
    heights = {k: tuple((x, y) for x in range(n_max) for y in range(k)) for k in range(1, k_max + 1)}
    if isinstance(config, (DoublyPeriodic, WindowSample)):
        columns = (_grown_column(config, n, k_max) for n in range(1, n_max + 1))
    elif isinstance(config, DiagonalFamily):
        by_length = _factor_counts(config, n_max + k_max - 1)
        columns = (by_length[n - 1:n - 1 + k_max] for n in range(1, n_max + 1))
    else:
        columns = ([(len(keys), size) for keys, _, size in
                    (_domain_keys(config, heights[k][:n * k]) for k in heights)]
                   for n in range(1, n_max + 1))
    exactness = config.exactness
    return {(n, k): ComplexityReport(heights[k][:n * k], count, exactness, size)
            for n, column in enumerate(columns, 1)
            for k, (count, size) in enumerate(column, 1)}


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
) -> DirectionalLanguage:
    """The patterns of shape+base+t*v over every integer t, where v is the line's minimal vector."""
    cells = as_points(shape)
    if not cells:
        return DirectionalLanguage(frozenset([Pattern(())]), Exactness.EXACT)
    v = line.minimal_vector()
    steps = config.directional_translates(cells, base, v)
    if isinstance(config, DiagonalFamily):  # steps is a range, or [0] when x - y never changes
        k, b = v[0] - v[1], base[0] - base[1]
        step = k or 1
        shifts = range(b + steps[0] * k, b + steps[-1] * k + step, step)
        keys, index = _band_keys(config, cells, shifts)
    else:
        translates = [(base[0] + t * v[0], base[1] + t * v[1]) for t in steps]
        keys, index = _letter_keys(config, cells, translates)
    patterns = frozenset(_patterns(cells, _in_cell_order(keys, index)))
    return DirectionalLanguage(patterns, config.exactness)


# -- extension counts --------------------------------------------------------


@dataclass(frozen=True)
class ExtensionTable:
    """Full-shape patterns grouped by their restriction to the shape minus its supporting line."""

    shape: tuple[Point, ...]
    base: tuple[Point, ...]
    extensions: dict[Pattern, tuple[Pattern, ...]]
    exactness: Exactness

    def counts(self) -> dict[Pattern, int]:
        return {g: len(v) for g, v in self.extensions.items()}

    def excess(self) -> int:
        """Sum of (N - 1) over base patterns; equals the complexity increment when exact."""
        return sum(len(v) - 1 for v in self.extensions.values())


def extension_counts(config: Configuration, shape: ConvexLatticeSet, line: Line) -> ExtensionTable:
    """Group the shape's language by restriction to shape minus its supporting line.

    The shape's respelled keys are sorted as strings and grouped by their
    base words, so base patterns come in the order of their first extension
    and each group in word order.  Patterns are built only once grouped: one
    `Pattern._over` wraps the base words, and one more each group, all over
    two shared offsets tuples.  Validates, on exact data, that the summed
    extension excess equals the complexity difference between the shape and
    its base, with the base counted on its own.
    """
    support = supporting_line(shape, line)
    on_line = line_section(shape, support)
    base_cells = tuple(sorted(shape.points - on_line))
    if not base_cells:
        raise GeometryError("the shape is a single line section; its base is empty")
    cells = as_points(shape)
    base_set = set(base_cells)
    base_index = [i for i, g in enumerate(cells) if g in base_set]
    keys, index, _ = _domain_keys(config, cells)
    ordered = sorted(_in_cell_order(keys, index))
    grouped: dict[str, list[str]] = {}
    for full, base_word in zip(ordered, _in_cell_order(ordered, base_index)):
        grouped.setdefault(base_word, []).append(full)
    offsets = _offsets(cells)
    extensions = {base: tuple(Pattern._over(offsets, group))
                  for base, group in zip(_patterns(base_cells, grouped), grouped.values())}
    table = ExtensionTable(cells, base_cells, extensions, config.exactness)
    if config.exactness is Exactness.EXACT:
        base_count = complexity(config, base_cells).count
        if table.excess() != len(keys) - base_count:
            raise SoundnessError(
                "extension-count identity failed: "
                f"excess {table.excess()} != {len(keys)} - {base_count}"
            )
    return table
