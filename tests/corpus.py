"""Deterministic corpora shared by the test suites."""

import random
from itertools import permutations, product

from hcolor.digraph import Digraph
from hcolor.spectree import compile_tree, gen_random_special_tree

TREE_SHAPES = [
    (2, 2, 3, 7), (3, 2, 3, 5), (2, 3, 3, 5), (3, 3, 2, 2), (2, 2, 4, 6),
    (4, 3, 2, 2), (1, 1, 4, 8), (2, 1, 4, 6), (1, 2, 3, 7), (3, 4, 2, 2),
    (2, 2, 2, 2), (1, 3, 3, 5), (3, 1, 3, 5), (1, 1, 3, 9), (2, 3, 2, 2),
]


def random_special_trees(count: int, max_vertices: int = 30, seed_base: int = 1000):
    """`count` seeded random templates compiling to at most max_vertices."""
    specs = []
    seed = seed_base
    shape = 0
    while len(specs) < count:
        a, b, h, max_len = TREE_SHAPES[shape % len(TREE_SHAPES)]
        shape += 1
        spec = gen_random_special_tree(seed, a, b, h, max_len)
        seed += 1
        if compile_tree(spec).digraph.vertex_count <= max_vertices:
            specs.append(spec)
    return specs


def random_digraph(rng: random.Random, max_n: int, density: float = 0.35,
                   loops: bool = False) -> Digraph:
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(n)
             if (loops or u != v) and rng.random() < density]
    return Digraph.from_edges(n, edges)


def random_tree_like(rng: random.Random, max_n: int) -> Digraph:
    """A random oriented tree; often solvable against balanced targets."""
    n = rng.randint(2, max_n)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph.from_edges(n, edges)


def all_digraphs(n: int) -> list[Digraph]:
    """Every digraph on n vertices, loops included."""
    pairs = list(product(range(n), repeat=2))
    return [Digraph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            for bits in range(1 << len(pairs))]


def loopless_digraphs_up_to_iso(n: int) -> list[Digraph]:
    """One digraph per isomorphism class of loopless digraphs on n vertices."""
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    bit = {arc: 1 << i for i, arc in enumerate(arcs)}
    perms = list(permutations(range(n)))
    seen: set[int] = set()
    graphs = []
    for mask in range(1 << len(arcs)):
        if mask in seen:
            continue
        chosen = [arc for arc in arcs if mask & bit[arc]]
        for p in perms:
            seen.add(sum(bit[(p[u], p[v])] for u, v in chosen))
        graphs.append(Digraph.from_edges(n, chosen))
    return graphs


def relabel(g: Digraph, perm) -> Digraph:
    """The isomorphic copy of g with vertex v renamed perm[v]."""
    return Digraph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
