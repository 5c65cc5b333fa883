"""Core digraph representation: levels, connectivity, direct powers.

Vertices are dense 0-based integers.  Digraphs are immutable after
construction; every function here is pure.

Powers are walked by tuple index: `power_step` lists a tuple's neighbours
in the k-th power by index arithmetic, and both `diagonal_component` and
the polymorphism searches' lazy indicator explore the power through it.
`direct_power` builds a whole power and is the reference they are tested
against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .errors import BudgetExceeded, InvalidFormat, NotBalanced

DEFAULT_POWER_BUDGET = 5_000_000


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

    def __str__(self) -> str:
        return f"Digraph({self.vertex_count} vertices, {len(self.edges)} edges)"


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
            for w in g.out_neighbors[u] + g.in_neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        parts.append(frozenset(comp))
    return parts


def is_connected(g: Digraph) -> bool:
    return len(connected_components(g)) <= 1


def _raw_levels(g: Digraph) -> list[int]:
    """Per-vertex levels, each component shifted so its minimum is 0."""
    levels: list[int | None] = [None] * g.vertex_count
    for start in range(g.vertex_count):
        if levels[start] is not None:
            continue
        levels[start] = 0
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            lu = levels[u]
            for w in g.out_neighbors[u]:
                if levels[w] is None:
                    levels[w] = lu + 1
                    comp.append(w)
                    queue.append(w)
                elif levels[w] != lu + 1:
                    raise NotBalanced(f"cycle with nonzero net orientation near edge ({u}, {w})")
            for w in g.in_neighbors[u]:
                if levels[w] is None:
                    levels[w] = lu - 1
                    comp.append(w)
                    queue.append(w)
                elif levels[w] != lu - 1:
                    raise NotBalanced(f"cycle with nonzero net orientation near edge ({w}, {u})")
        low = min(levels[v] for v in comp)
        if low:
            for v in comp:
                levels[v] -= low
    return levels  # type: ignore[return-value]


def compute_levels(g: Digraph) -> LevelAssignment:
    """The unique level assignment of a connected balanced digraph.

    Raises NotBalanced when no level function exists and ValueError when the
    digraph is disconnected (use component_levels for that case).
    """
    if g.vertex_count and not is_connected(g):
        raise ValueError("digraph is disconnected; use component_levels")
    levels = _raw_levels(g)
    height = max(levels, default=0)
    return LevelAssignment(tuple(levels), height)


def component_levels(g: Digraph) -> LevelAssignment:
    """Levels with each weak component independently shifted to minimum 0."""
    levels = _raw_levels(g)
    return LevelAssignment(tuple(levels), max(levels, default=0))


def is_oriented_tree(g: Digraph) -> bool:
    """Connected with acyclic underlying graph.

    Equivalent to every two vertices being joined by a unique oriented path;
    with dense vertices this is connectivity plus |edges| = vertices - 1.
    """
    if g.vertex_count == 0:
        return False
    return len(g.edges) == g.vertex_count - 1 and is_connected(g)


def power_index(base: int, tup: tuple[int, ...]) -> int:
    """Lexicographic index of a tuple, leftmost coordinate most significant."""
    idx = 0
    for v in tup:
        idx = idx * base + v
    return idx


def power_tuple(base: int, n: int, idx: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        idx, out[i] = divmod(idx, base)
    return tuple(out)


def direct_power(g: Digraph, n: int, budget: int = DEFAULT_POWER_BUDGET) -> Digraph:
    """The n-th direct power: tuples as vertices, coordinatewise edges."""
    if n < 1:
        raise ValueError("power must be positive")
    size = g.vertex_count ** n
    if size > budget:
        raise BudgetExceeded(f"{size} tuples exceed the power budget {budget}")
    base = g.vertex_count
    edges: list[tuple[int, int]] = []
    # Build edge tuples incrementally: a power edge picks one base edge
    # per coordinate.
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]  # (depth, tail_idx, head_idx)
    es = g.edges_sorted
    while stack:
        depth, tail, head = stack.pop()
        if depth == n:
            edges.append((tail, head))
            continue
        for u, v in es:
            stack.append((depth + 1, tail * base + u, head * base + v))
    return Digraph.from_edges(size, edges)


def power_step(nbrs: tuple[tuple[int, ...], ...], k: int) -> Callable[[int], list[int]]:
    """Neighbours in the k-th power, by tuple index, given per-vertex
    neighbour lists (out- or in-neighbours).

    An index splits into its first k // 2 coordinates and the rest; the
    neighbours are all sums of a neighbour of each half, read from per-half
    lists (the products of the per-coordinate neighbour lists).
    """
    n = len(nbrs)

    def halves(m: int, scale: int) -> list[list[int]]:
        lists = [[0]]
        for _ in range(m):
            lists = [[q * n + w for q in lists[p] for w in nbrs[c]]
                     for p in range(len(lists)) for c in range(n)]
        return [[q * scale for q in qs] for qs in lists]

    split = n ** (k - k // 2)
    highs, lows = halves(k // 2, split), halves(k - k // 2, 1)

    def step(t: int) -> list[int]:
        hi, lo = divmod(t, split)
        low = lows[lo]
        return [a + b for a in highs[hi] for b in low]
    return step


def diagonal_component(g: Digraph, n: int, budget: int = DEFAULT_POWER_BUDGET) -> frozenset[int]:
    """Indices of power tuples weakly connected to some diagonal tuple.

    Explores the power implicitly, so only the component itself (capped by
    the budget) is ever materialized.
    """
    if n < 1:
        raise ValueError("power must be positive")
    out, into = power_step(g.out_neighbors, n), power_step(g.in_neighbors, n)
    seen = {power_index(g.vertex_count, (v,) * n) for v in range(g.vertex_count)}
    queue = sorted(seen)
    for t in queue:  # the loop also visits the tuples it appends
        for w in out(t) + into(t):
            if w not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(f"diagonal component exceeded budget {budget}")
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


# .dg text format: `digraph <n> <m>` then m lines `<u> <v>`; '#' comments.

def format_dg(g: Digraph) -> str:
    lines = [f"digraph {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges_sorted)
    return "\n".join(lines) + "\n"


def parse_dg(text: str) -> Digraph:
    if not text.endswith("\n"):
        raise InvalidFormat("missing trailing newline")
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise InvalidFormat("empty digraph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "digraph":
        raise InvalidFormat(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError as exc:
        raise InvalidFormat(f"bad header numbers: {lines[0]!r}") from exc
    body = lines[1:]
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


def read_dg(path) -> Digraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_dg(fh.read())


def write_dg(path, g: Digraph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_dg(g))
