"""Core digraph representation: levels, connectivity, direct powers.

Vertices are dense 0-based integers.  Digraphs are immutable after
construction; every function here is pure.  What searches derive from a
digraph is cached on the object, and dies with it.  A digraph is also the
homomorphism solver's one relation: its edges as bit masks per vertex (the
power walks' half tables of size 1) and its loops as one mask, stepped
along by `_union`, with the solver's image memos beside them.

Powers are walked a row of tuples at a time: `PowerWalk` keeps one int
mask of visited tuples per row, and both `diagonal_component` and the
polymorphism searches' lazy indicator explore the power through it.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import Budget, BudgetExceeded, InvalidFormat, NotBalanced


@dataclass(frozen=True)
class Digraph:
    """A finite digraph: a vertex count and a set of directed edges."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Digraph":
        return cls(vertex_count, frozenset((int(u), int(v)) for u, v in edges))

    @cached_property
    def edges_sorted(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges_sorted:
            out[u].append(v)
        return tuple(tuple(ns) for ns in out)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        inn: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges_sorted:
            inn[v].append(u)
        return tuple(tuple(ns) for ns in inn)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's out- and in-neighbours in one ascending list, duplicates kept."""
        return tuple(tuple(sorted(o + i)) for o, i in zip(self.out_neighbors, self.in_neighbors))

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """out_masks[u]: the mask of u's out-neighbours."""
        return _half_tables(self, 1)[2]

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """in_masks[v]: the mask of v's in-neighbours."""
        return _half_tables(self, 1)[3]

    @cached_property
    def loop_mask(self) -> int:
        return sum(1 << u for u, v in self.edges if u == v)

    @cached_property
    def images(self) -> dict[int, int]:
        """Memo: mask -> its vertices' out-neighbours (`homsolver._ac_fixpoint`)."""
        return {}

    @cached_property
    def preimages(self) -> dict[int, int]:
        """Memo: mask -> its vertices' in-neighbours."""
        return {}

    @cached_property
    def derived(self) -> dict:
        """Memo: `PowerWalk`'s half tables by half size."""
        return {}


@dataclass(frozen=True)
class LevelAssignment:
    """Levels per vertex with lvl(head) = lvl(tail) + 1 along every edge."""

    levels: tuple[int, ...]
    height: int

    def __getitem__(self, v: int) -> int:
        return self.levels[v]


def connected_components(g: Digraph) -> list[frozenset[int]]:
    """Partition of the vertex set by weak (oriented-path) connectivity."""
    seen = [False] * g.vertex_count
    parts: list[frozenset[int]] = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        parts.append(frozenset(comp))
    return parts


def is_connected(g: Digraph) -> bool:
    return len(connected_components(g)) <= 1


def compute_levels(g: Digraph) -> LevelAssignment:
    """The unique level assignment of a connected balanced digraph.

    Raises NotBalanced when no level function exists and ValueError when the
    digraph is disconnected; a disconnected digraph raises ValueError even
    when it is also unbalanced.
    """
    levels: list[int | None] = [None] * g.vertex_count
    conflict = None
    if g.vertex_count:
        levels[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            lu = levels[u]
            for ws, lw in ((g.out_neighbors[u], lu + 1), (g.in_neighbors[u], lu - 1)):
                for w in ws:
                    if levels[w] is None:
                        levels[w] = lw
                        queue.append(w)
                    elif levels[w] != lw and conflict is None:
                        conflict = (u, w) if lw > lu else (w, u)
    if None in levels:
        raise ValueError("digraph is disconnected")
    if conflict is not None:
        raise NotBalanced(f"cycle with nonzero net orientation near edge {conflict}")
    low = min(levels, default=0)
    shifted = tuple(lv - low for lv in levels)
    return LevelAssignment(shifted, max(shifted, default=0))


def is_oriented_tree(g: Digraph) -> bool:
    """Connected with acyclic underlying graph.

    Equivalent to every two vertices being joined by a unique oriented path;
    with dense vertices this is connectivity plus |edges| = vertices - 1.
    """
    if g.vertex_count == 0:
        return False
    return len(g.edges) == g.vertex_count - 1 and is_connected(g)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(rows: tuple[int, ...], mask: int) -> int:
    """The union of rows[a] over the values a in mask: the image of mask
    under a digraph's `out_masks`, or its preimage under `in_masks`."""
    out = 0
    for a in _bits(mask):
        out |= rows[a]
    return out


def power_index(base: int, tup: tuple[int, ...]) -> int:
    """Lexicographic index of a tuple, leftmost coordinate most significant."""
    idx = 0
    for v in tup:
        idx = idx * base + v
    return idx


def _half_lists(nbrs: tuple[tuple[int, ...], ...], m: int) -> tuple[tuple[int, ...], ...]:
    """Per m-coordinate tuple index, its neighbours' indices (tuple products)."""
    n = len(nbrs)
    lists = [[0]]
    for _ in range(m):
        lists = [[q * n + w for q in lists[p] for w in nbrs[c]]
                 for p in range(len(lists)) for c in range(n)]
    return tuple(map(tuple, lists))


def _half_tables(g: Digraph, m: int) -> tuple:
    """g's out- and in-neighbour lists per m-coordinate tuple, their masks, and
    the masks of the tuples with none; made once per digraph object."""
    if (tables := g.derived.get(m)) is None:
        lists = _half_lists(g.out_neighbors, m), _half_lists(g.in_neighbors, m)
        masks = [tuple([sum(map((1).__lshift__, ls)) for ls in half]) for half in lists]
        empty = [sum(1 << lo for lo, mask in enumerate(half) if not mask) for half in masks]
        tables = g.derived[m] = (*lists, *masks, *empty)
    return tables


class PowerWalk:
    """The k-th power of g, walked a row at a time.

    A tuple index splits as `hi * split + lo`, `hi` (the row) indexing the
    first k // 2 coordinates.  The out-neighbours of a tuple are the `lo`s in
    `out_mask[lo]` of each row in `out_rows[hi]`, and likewise inward.  Each
    row keeps an int mask of its visited `lo`s, so a step marks a whole
    neighbouring row by one `mask & ~visited[row]`.  `no_out` and `no_in`
    mask the `lo`s with no out- or in-neighbour in any row.  Merge rules
    come as tables on the same rows (see `visit`), so a row's merged `lo`s
    are found by masks too.  Walks on one g share its `_half_tables`.
    """

    __slots__ = ("split", "visited", "out_rows", "in_rows", "out_lows", "out_mask", "in_mask",
                 "no_out", "no_in")

    def __init__(self, g: Digraph, k: int):
        self.split = g.vertex_count ** (k - k // 2)
        self.out_rows, self.in_rows = _half_tables(g, k // 2)[:2]
        self.visited = [0] * len(self.out_rows)
        (self.out_lows, _, self.out_mask, self.in_mask,
         self.no_out, self.no_in) = _half_tables(g, k - k // 2)

    def visit(self, starts: list[int], merges=None, budget: int | None = None
              ) -> tuple[list[int], dict[int, list[int]]]:
        """Mark visited every unvisited tuple weakly connected to the
        (distinct) starts by power edges and merge links, and return them
        and the links followed (tuple -> partners).  Raises BudgetExceeded
        once that grows past `budget` tuples (or past the starts, if more).

        `merges` is `(linked, rules)` on this walk's split: a rule
        `(match, base, add, offsets)` links each `lo` of `match[hi]` to
        `base[hi] + add[lo] + off` for each `off` in `offsets`, and
        `linked[hi]` ORs the rules' `match[hi]`, against which a popped
        row's fresh `lo`s are tested once.
        """
        split, visited = self.split, self.visited
        out_rows, in_rows = self.out_rows, self.in_rows
        out_mask, in_mask = self.out_mask, self.in_mask
        linked, rules = merges or (None, ())
        count, limit = 0, max(budget or 0, len(starts))
        tuples: list[int] = []
        links: dict[int, list[int]] = {}
        pending: dict[int, int] = {}  # row -> visited lo mask not yet expanded
        steps = [(t // split, 1 << t % split) for t in starts]
        while True:
            for r, mask in steps:
                new = mask & ~visited[r]
                if new:
                    visited[r] |= new
                    pending[r] = pending.get(r, 0) | new
                    if budget is not None:
                        count += new.bit_count()
                        if count > limit:
                            raise BudgetExceeded(f"walk exceeded budget {budget}")
            if not pending:
                return tuples, links
            row, fresh = pending.popitem()
            base = row * split
            steps = []
            if rules and fresh & linked[row]:
                for match, bases, adds, offsets in rules:
                    m = fresh & match[row]
                    while m:
                        bit = m & -m
                        m ^= bit
                        lo = bit.bit_length() - 1
                        p = bases[row] + adds[lo]
                        for w in offsets:
                            w += p
                            links.setdefault(base + lo, []).append(w)
                            steps.append((w // split, 1 << w % split))
            outs = ins = 0
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                lo = bit.bit_length() - 1
                tuples.append(base + lo)
                outs |= out_mask[lo]
                ins |= in_mask[lo]
            if outs:
                steps += [(r, outs) for r in out_rows[row]]
            if ins:
                steps += [(r, ins) for r in in_rows[row]]

    def isolated(self, linked: tuple[int, ...]) -> array:
        """Mark visited and return, ascending, every unvisited tuple with no
        power edge either way and no merge link (`linked[hi]` masks the
        linked `lo`s of each row): each is a component of its own.  Works a
        row at a time on masks of such `lo`s."""
        split, visited = self.split, self.visited
        full = (1 << split) - 1
        lone = array("q")  # unboxed: there can be millions
        for row, (outs, ins) in enumerate(zip(self.out_rows, self.in_rows)):
            iso = ((self.no_out if outs else full) & (self.no_in if ins else full)
                   & ~(linked[row] | visited[row]))
            if iso:
                visited[row] |= iso
                base = row * split
                while iso:
                    bit = iso & -iso
                    iso ^= bit
                    lone.append(base + bit.bit_length() - 1)
        return lone


def diagonal_component(g: Digraph, n: int, budget: int = Budget().power) -> frozenset[int]:
    """Indices of power tuples weakly connected to some diagonal tuple.

    Walks the power with a `PowerWalk`, so only the component itself
    (capped by the budget) is ever materialized."""
    if n < 1:
        raise ValueError("power must be positive")
    walk = PowerWalk(g, n)
    diagonal = [power_index(g.vertex_count, (v,) * n) for v in range(g.vertex_count)]
    try:
        return frozenset(walk.visit(diagonal, budget=budget)[0])
    except BudgetExceeded:
        raise BudgetExceeded(f"diagonal component exceeded budget {budget}") from None


# The text formats share one grammar: a `<name> <int> ...` header, then one
# record per line; blank lines and `#` lines, indented or not, are skipped.

def read_records(text: str, name: str, count: int, what: str) -> tuple[str, list[int], list[str]]:
    """The header line, its `count` numbers and the record lines of `text`."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise InvalidFormat(f"empty {what} file")
    head = lines[0].split()
    if len(head) != count + 1 or head[0] != name:
        raise InvalidFormat(f"bad header line: {lines[0]!r}")
    try:
        numbers = [int(x) for x in head[1:]]
    except ValueError as exc:
        raise InvalidFormat(f"bad header numbers: {lines[0]!r}") from exc
    return lines.pop(0), numbers, lines


# .dg: `digraph <n> <m>` then m lines `<u> <v>`, with a trailing newline.

def format_dg(g: Digraph) -> str:
    lines = [f"digraph {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges_sorted)
    return "\n".join(lines) + "\n"


def parse_dg(text: str) -> Digraph:
    if not text.endswith("\n"):
        raise InvalidFormat("missing trailing newline")
    head, (n, m), body = read_records(text, "digraph", 2, "digraph")
    if n < 0:
        raise InvalidFormat(f"negative vertex count: {head!r}")
    if len(body) != m:
        raise InvalidFormat(f"expected {m} edge lines, found {len(body)}")
    edges: set[tuple[int, int]] = set()
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidFormat(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InvalidFormat(f"bad edge line: {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidFormat(f"edge ({u}, {v}) out of range")
        if (u, v) in edges:
            raise InvalidFormat(f"duplicate edge ({u}, {v})")
        edges.add((u, v))
    return Digraph(n, frozenset(edges))
