"""Special-tree templates and their compiled digraphs.

A special tree is built from a height-1 bipartite tree template
T = (A u B; E <= A x B) by replacing every template edge with a minimal
path of one common height, initial vertex glued to the A-endpoint.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .digraph import (
    Digraph,
    LevelAssignment,
    _bits,
    _union,
    compute_levels,
    is_connected,
    is_oriented_tree,
    read_records,
)
from .errors import (
    InvalidFormat,
    InvalidParams,
    InvalidSpec,
    MixedLevels,
    NotMinimal,
    VerificationFailed,
)
from .minpath import (
    OrientedPath,
    common_onto_minimal_path,
    is_minimal,
    minimal_path_counts,
    sample_minimal_path,
)

# Vertex roles in a compiled tree: ('A', i), ('B', j) or ('P', edge, pos)
# with pos counted from the A-endpoint of the attached path.
Role = tuple


@dataclass(frozen=True)
class SpecialTreeSpec:
    """Template: bottom/top vertex counts, height, and per-edge minimal paths."""

    a_count: int
    b_count: int
    height: int
    template_edges: tuple[tuple[int, int, OrientedPath], ...]

    def __post_init__(self) -> None:
        if self.a_count < 1 or self.b_count < 1:
            raise InvalidSpec("a_count and b_count must be positive")
        if self.height < 1:
            raise InvalidSpec("height must be positive")
        m = len(self.template_edges)
        if m != self.a_count + self.b_count - 1:
            raise InvalidSpec(
                f"template must be a tree: expected {self.a_count + self.b_count - 1} "
                f"edges, got {m}")
        seen_pairs = set()
        for a, b, path in self.template_edges:
            if not (0 <= a < self.a_count and 0 <= b < self.b_count):
                raise InvalidSpec(f"template edge ({a}, {b}) out of range")
            if (a, b) in seen_pairs:
                raise InvalidSpec(f"duplicate template edge ({a}, {b})")
            seen_pairs.add((a, b))
            if not is_minimal(path):
                raise InvalidSpec(f"path {path} on edge ({a}, {b}) is not minimal")
            if path.height != self.height:
                raise InvalidSpec(
                    f"path {path} has height {path.height}, template requires {self.height}")
        template = Digraph.from_edges(
            self.a_count + self.b_count,
            ((a, self.a_count + b) for a, b, _ in self.template_edges))
        if not is_connected(template):
            raise InvalidSpec("template is not connected")


@dataclass(frozen=True, eq=False)
class SpecialTree:
    """A compiled special tree with its level and role bookkeeping."""

    digraph: Digraph
    levels: LevelAssignment
    roles: tuple[Role, ...]
    spec: SpecialTreeSpec

    @cached_property
    def a_vertices(self) -> frozenset[int]:
        return frozenset(range(self.spec.a_count))

    @cached_property
    def b_vertices(self) -> frozenset[int]:
        return frozenset(range(self.spec.a_count, self.spec.a_count + self.spec.b_count))

    @cached_property
    def template_pairs(self) -> tuple[tuple[int, int], ...]:
        """(A-vertex id, B-vertex id) per template edge, in spec order."""
        return tuple((a, self.spec.a_count + b) for a, b, _ in self.spec.template_edges)

    @cached_property
    def template_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each top or bottom vertex's template neighbours, ascending."""
        return Digraph.from_edges(self.spec.a_count + self.spec.b_count, self.template_pairs).neighbors

    def parents_from(self, root: int) -> tuple[int, ...]:
        """Parent array of the undirected tree rooted at `root` (root maps to itself)."""
        parent = [-1] * self.digraph.vertex_count
        parent[root] = root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in self.digraph.neighbors[u]:
                if parent[w] < 0:
                    parent[w] = u
                    queue.append(w)
        return tuple(parent)


def compile_tree(spec: SpecialTreeSpec) -> SpecialTree:
    """Compile a template into its digraph with deterministic numbering.

    A-vertices take ids 0..|A|-1, B-vertices follow, then the interior of
    each attached path in template-edge order.
    """
    a, b = spec.a_count, spec.b_count
    roles: list[Role] = [("A", i) for i in range(a)] + [("B", j) for j in range(b)]
    edges: list[tuple[int, int]] = []
    next_id = a + b
    for e_idx, (ai, bj, path) in enumerate(spec.template_edges):
        ids = [ai]
        for pos in range(1, path.length):
            ids.append(next_id)
            roles.append(("P", e_idx, pos))
            next_id += 1
        ids.append(a + bj)
        for step, c in enumerate(path.directions):
            u, v = ids[step], ids[step + 1]
            edges.append((u, v) if c == "1" else (v, u))
    g = Digraph.from_edges(next_id, edges)
    levels = compute_levels(g)
    if levels.height != spec.height:
        raise InvalidSpec("compiled height differs from template height")
    if not is_oriented_tree(g):
        raise VerificationFailed("compiled digraph is not an oriented tree")
    return SpecialTree(g, levels, tuple(roles), spec)


def canned_triad() -> SpecialTreeSpec:
    """The 39-vertex triad whose H-coloring problem is NP-complete.

    Template: center c = A0 and arm tops A1, A2, A3 over B0, B1, B2.
    """
    P = OrientedPath
    return SpecialTreeSpec(
        a_count=4,
        b_count=3,
        height=4,
        template_edges=(
            (0, 0, P("111011")),
            (1, 0, P("110111")),
            (0, 1, P("110111")),
            (2, 1, P("111011")),
            (0, 2, P("11100111")),
            (3, 2, P("111011")),
        ),
    )


def _attached_paths(g: Digraph, levels: LevelAssignment, h: int
                    ) -> list[tuple[int, int, OrientedPath]]:
    """Split a balanced oriented tree into its maximal level-interior paths.

    Each returned triple is (bottom endpoint, top endpoint, direction string
    read from the bottom endpoint).
    """
    paths = []
    for start in range(g.vertex_count):
        if levels[start]:
            continue
        for first in g.neighbors[start]:
            walk = [start, first]
            while levels[walk[-1]] != h:
                if not levels[walk[-1]]:
                    raise InvalidSpec(
                        f"path from {start} returns to level 0 at {walk[-1]}; not a special tree")
                nxt = [w for w in g.neighbors[walk[-1]] if w != walk[-2]]
                if len(nxt) != 1:
                    raise InvalidSpec(
                        f"interior vertex {walk[-1]} has degree != 2; not a special tree")
                walk.append(nxt[0])
            dirs = "".join(
                "1" if (walk[i], walk[i + 1]) in g.edges else "0"
                for i in range(len(walk) - 1))
            paths.append((walk[0], walk[-1], OrientedPath(dirs)))
    if sum(p.length for _, _, p in paths) != len(g.edges):
        raise InvalidSpec("some path joins two top vertices; not a special tree")
    return sorted(paths, key=lambda t: (t[0], t[1], t[2].directions))


def spec_from_core(core: Digraph) -> SpecialTreeSpec:
    """Re-read a digraph as a special-tree template; raises if it is not one."""
    levels = compute_levels(core)
    h = levels.height
    a_list = sorted(v for v in range(core.vertex_count) if levels[v] == 0)
    b_list = sorted(v for v in range(core.vertex_count) if levels[v] == h)
    a_index = {v: i for i, v in enumerate(a_list)}
    b_index = {v: j for j, v in enumerate(b_list)}
    attached = _attached_paths(core, levels, h)
    edges = tuple((a_index[a], b_index[b], p) for a, b, p in attached)
    return SpecialTreeSpec(len(a_list), len(b_list), h, edges)


def recover_top_bottom(
    g: Digraph, h: int
) -> tuple[frozenset[int], frozenset[int], frozenset[tuple[int, int]]]:
    """Recover (A, B, E) from a compiled special tree of height h.

    A and B are the level-0 and level-h vertices.  E is recovered from the
    digraph alone: it is the set of endpoint images of all homomorphisms
    into g from the common onto path Q of the attached paths.  Because Q is
    minimal, its image cannot descend back to level 0 midway, so exactly the
    template pairs survive.
    """
    levels = compute_levels(g)
    if levels.height != h:
        raise NotMinimal(f"digraph has height {levels.height}, expected {h}")
    a_set = frozenset(v for v in range(g.vertex_count) if levels[v] == 0)
    b_set = frozenset(v for v in range(g.vertex_count) if levels[v] == h)
    attached = _attached_paths(g, levels, h)
    distinct = sorted({str(p) for _, _, p in attached})
    q = common_onto_minimal_path([OrientedPath(s) for s in distinct])
    pairs = set()
    for start in range(g.vertex_count):
        reach = 1 << start
        for c in q.directions:
            reach = _union(g.out_masks if c == "1" else g.in_masks, reach)
        pairs.update((start, end) for end in _bits(reach))
    return a_set, b_set, frozenset(pairs)


def dist_e(tree: SpecialTree, x: int, y: int) -> int:
    """Graph distance of two top/bottom vertices in the bipartite template:
    the first k with y in E_k({x}), as walks in a tree first reach y at the
    distance."""
    adj = tree.template_adjacency
    if not {x, y} <= tree.a_vertices | tree.b_vertices:
        raise ValueError("dist_e arguments must be template (top or bottom) vertices")
    cur = frozenset({x})
    for k in range(len(adj)):
        if y in cur:
            return k
        cur = e_neighborhood(tree, cur, 1)
    raise ValueError("template is disconnected")  # unreachable on valid trees


def e_neighborhood(tree: SpecialTree, s: frozenset[int], k: int) -> frozenset[int]:
    """k-fold iterated template neighborhood E_k(s) of a one-sided set."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cur = frozenset(s)
    if cur and not (cur <= tree.a_vertices or cur <= tree.b_vertices):
        raise MixedLevels("set must lie within A or within B")
    adj = tree.template_adjacency
    for _ in range(k):
        cur = frozenset(w for v in cur for w in adj[v])
    return cur


def preceq(tree: SpecialTree, o: int, u: int, v: int) -> bool:
    """True iff u lies on the unique oriented path from o to v."""
    parent = tree.parents_from(o)
    w = v
    while True:
        if w == u:
            return True
        if w == o:
            return False
        w = parent[w]


def gen_random_special_tree(
    seed: int, a_count: int, b_count: int, h: int, max_path_len: int
) -> SpecialTreeSpec:
    """Seeded random template: a uniform spanning tree of the complete
    bipartite template with a uniformly sampled minimal path per edge."""
    if a_count < 1 or b_count < 1 or h < 1:
        raise InvalidParams("a_count, b_count and height must be positive")
    if max_path_len < h:
        raise InvalidParams("max_path_len must be at least the height")
    counts = minimal_path_counts(h, max_path_len)
    if all(counts[ln][0] == 0 for ln in range(1, max_path_len + 1)):
        raise InvalidParams(f"no minimal path of height {h} fits in {max_path_len}")
    rng = random.Random(seed)
    # Aldous-Broder walk on the complete bipartite template gives a uniform
    # spanning tree.
    total = a_count + b_count
    pairs: set[tuple[int, int]] = set()
    if total == 2:
        pairs.add((0, 0))
    else:
        visited = {0}
        cur = 0  # template vertices: 0..a-1 bottom, a..a+b-1 top
        while len(visited) < total:
            if cur < a_count:
                nxt = a_count + rng.randrange(b_count)
            else:
                nxt = rng.randrange(a_count)
            if nxt not in visited:
                visited.add(nxt)
                a, b = (cur, nxt - a_count) if cur < a_count else (nxt, cur - a_count)
                pairs.add((a, b))
            cur = nxt
    edges = tuple(
        (a, b, sample_minimal_path(rng, h, max_path_len)) for a, b in sorted(pairs))
    return SpecialTreeSpec(a_count, b_count, h, edges)


# .stree text format: `stree <|A|> <|B|> <h> <m>` then m lines
# `<a_index> <b_index> <path>`.

def format_stree(spec: SpecialTreeSpec) -> str:
    lines = [f"stree {spec.a_count} {spec.b_count} {spec.height} {len(spec.template_edges)}"]
    lines.extend(f"{a} {b} {p}" for a, b, p in spec.template_edges)
    return "\n".join(lines) + "\n"


def parse_stree(text: str) -> SpecialTreeSpec:
    _, (a, b, h, m), body = read_records(text, "stree", 4, "template")
    if len(body) != m:
        raise InvalidFormat(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            raise InvalidFormat(f"bad edge line: {ln!r}")
        try:
            ai, bj = int(parts[0]), int(parts[1])
            path = OrientedPath(parts[2])
        except ValueError as exc:
            raise InvalidFormat(f"bad edge line: {ln!r}") from exc
        edges.append((ai, bj, path))
    return SpecialTreeSpec(a, b, h, tuple(edges))


def format_roles(tree: SpecialTree) -> str:
    """Role sidecar: one `<vertex> <role>` line per vertex."""
    lines = []
    for v, role in enumerate(tree.roles):
        if role[0] == "A":
            lines.append(f"{v} A{role[1]}")
        elif role[0] == "B":
            lines.append(f"{v} B{role[1]}")
        else:
            lines.append(f"{v} P{role[1]}:{role[2]}")
    return "\n".join(lines) + "\n"
