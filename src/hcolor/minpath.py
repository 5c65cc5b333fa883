"""Oriented paths as direction strings and minimal-path machinery.

A path of length m is a string over {'1', '0'}: '1' is an edge traversed
forward (level +1), '0' backward (level -1).  Positions 0..m are vertices;
position 0 is the initial vertex, position m the terminal one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .digraph import Digraph, _union
from .errors import HeightMismatch, NotMinimal, SearchExhausted, VerificationFailed
from .homsolver import solve_hom


@dataclass(frozen=True)
class OrientedPath:
    directions: str

    def __post_init__(self) -> None:
        if any(c not in "01" for c in self.directions):
            raise ValueError("directions must be a string over {'1', '0'}")

    @property
    def length(self) -> int:
        return len(self.directions)

    @property
    def vertex_count(self) -> int:
        return len(self.directions) + 1

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """Vertex levels: prefix sums of +-1 shifted so the minimum is 0."""
        levels = [0]
        for c in self.directions:
            levels.append(levels[-1] + (1 if c == "1" else -1))
        low = min(levels)
        return tuple(lv - low for lv in levels)

    @property
    def height(self) -> int:
        return max(self.levels)

    def to_digraph(self) -> Digraph:
        edges = []
        for i, c in enumerate(self.directions):
            edges.append((i, i + 1) if c == "1" else ((i + 1, i)))
        return Digraph.from_edges(self.vertex_count, edges)

    def __str__(self) -> str:
        return self.directions


def is_minimal(p: OrientedPath) -> bool:
    """Initial vertex at level 0, terminal at the height, interior strictly between."""
    levels = p.levels
    h = max(levels)
    if levels[0] != 0 or levels[-1] != h:
        return False
    return all(0 < lv < h for lv in levels[1:-1])


def path_onto_hom(q: OrientedPath, p: OrientedPath) -> tuple[int, ...] | None:
    """A position map q -> p preserving edges, endpoints to endpoints, onto p.

    The map is an endpoint-pinned homomorphism found by `solve_hom`.  Any
    such map between paths is onto: its image is a walk from position 0 to
    the last position of p, and a +-1 walk covers every position in
    between.  It is re-checked to be onto all the same.
    """
    if q.length == 0:  # both pins would fall on q's single position
        return (0,) if p.length == 0 else None
    found = solve_hom(q.to_digraph(), p.to_digraph(), {0: 0, q.length: p.length})
    if found is not None and set(found) != set(range(p.vertex_count)):
        raise VerificationFailed(f"map of {q} into {p} is not onto")
    return found


def minimal_path_counts(height: int, max_len: int) -> dict[int, list[int]]:
    """Suffix counts for minimal-path sampling.

    counts[j][lvl] is the number of direction strings of length j that start
    at level lvl, keep every level before the last step inside [1, height-1],
    and end exactly at the height.
    """
    counts: dict[int, list[int]] = {0: [0] * (height + 1)}
    counts[0][height] = 1
    for j in range(1, max_len + 1):
        row = [0] * (height + 1)
        prev = counts[j - 1]
        for lvl in range(height + 1):
            total = 0
            for nl in (lvl + 1, lvl - 1):
                if j == 1:
                    if nl == height:
                        total += prev[nl]
                elif 1 <= nl <= height - 1:
                    total += prev[nl]
            row[lvl] = total
        counts[j] = row
    return counts


def sample_minimal_path(rng, height: int, max_len: int) -> OrientedPath:
    """Uniform sample over all minimal paths of the height with length <= max_len."""
    counts = minimal_path_counts(height, max_len)
    weights = {length: counts[length][0] for length in range(1, max_len + 1)
               if counts[length][0] > 0}
    if not weights:
        raise ValueError(f"no minimal path of height {height} fits in length {max_len}")
    total = sum(weights.values())
    pick = rng.randrange(total)
    for length, w in sorted(weights.items()):
        if pick < w:
            break
        pick -= w
    dirs = []
    lvl = 0
    for j in range(length, 0, -1):
        options = []
        for c, nl in (("1", lvl + 1), ("0", lvl - 1)):
            if j == 1:
                if nl == height:
                    options.append((c, nl, counts[j - 1][nl]))
            elif 1 <= nl <= height - 1:
                w = counts[j - 1][nl]
                if w:
                    options.append((c, nl, w))
        total = sum(w for _, _, w in options)
        pick = rng.randrange(total)
        for c, nl, w in options:
            if pick < w:
                break
            pick -= w
        dirs.append(c)
        lvl = nl
    p = OrientedPath("".join(dirs))
    if not (is_minimal(p) and p.height == height):
        raise VerificationFailed(f"sampled path {p} is not minimal of height {height}")
    return p


def common_onto_minimal_path(
    paths: list[OrientedPath], max_len: int | None = None
) -> OrientedPath:
    """A shortest minimal path mapping onto every input, endpoints pinned.

    Inputs must be minimal paths of one common height h.  The search runs
    breadth-first over direction strings, '1' before '0'; a state keeps, per
    input path, the mask of positions an endpoint-pinned homomorphism can
    currently occupy, stepped along the path's edges.  The result
    is re-verified with path_onto_hom before it is returned.
    """
    if not paths:
        raise ValueError("need at least one path")
    for p in paths:
        if not is_minimal(p):
            raise NotMinimal(f"path {p} is not minimal")
    h = paths[0].height
    if any(p.height != h for p in paths):
        raise HeightMismatch("input paths must share one height")
    if h == 0:  # every input is the one-vertex path
        return OrientedPath("")
    if max_len is None:
        max_len = max(4 * sum(p.length for p in paths), 4)

    digraphs = [p.to_digraph() for p in paths]
    goals = [1 << p.length for p in paths]
    start = (0, (1,) * len(paths))
    seen = {start}
    frontier = deque([(start, "")])
    while frontier:
        (level, pos), word = frontier.popleft()
        if len(word) == max_len:
            break
        for c, nl in (("1", level + 1), ("0", level - 1)):
            # minimality: level 0 only at the start, level h only at the end
            if not 1 <= nl <= h:
                continue
            npos = tuple(_union(g.out_masks if c == "1" else g.in_masks, pm)
                         for g, pm in zip(digraphs, pos))
            state = (nl, npos)
            if not all(npos) or state in seen:
                continue
            seen.add(state)
            if nl < h:  # level-h states are terminal only
                frontier.append((state, word + c))
            elif all(pm & goal for pm, goal in zip(npos, goals)):
                q = OrientedPath(word + c)
                if not (is_minimal(q) and q.height == h):
                    raise VerificationFailed(f"common path {q} is not minimal of height {h}")
                for p in paths:
                    if path_onto_hom(q, p) is None:
                        raise VerificationFailed(f"common path {q} does not map onto {p}")
                return q
    raise SearchExhausted(
        f"no common path of length <= {max_len}; the cap is undersized")
