"""Simple reference forms the differential tests compare the library against.

`enumerate_homs` lists homomorphisms by plain enumeration, the oracle for
the solver, and `branch_var` picks the solver's branching variable by
scanning every domain.  `search` is the backtracking search as it was
before it worked in place: every node copies the domain list, and a frame
keeps its open variables for `open_branch_var` to pick among.
`fifo_fixpoint` is a full arc-consistency call as it was before its
queue was seeded from the narrowed variables: every variable queued in
index order.  `two_wave_fixpoint` restates `homsolver._narrowed`'s
seeding as two plain FIFO waves, and `pair_consistency` is
(2,3)-consistency on pair sets, swept from the loop-filtered domains.  `two_walk_levels` is `compute_levels` as it was before it
walked the digraph once: a connectivity check, then a level walk that
shifts each component.  `sweep_core` is `compute_core` as it was before
its vertex-avoidance probes both found and certified each retraction:
every round, including the last, sweeps the same-level vertex pairs and
retracts along the first pair an endomorphism identifies.  Its choice of
retraction is arbitrary, so tests compare cores up to the maps between
them.  `direct_power` builds a whole power, the reference for
`digraph.PowerWalk`.  `power_tuple` and `net_length` invert `power_index`
and measure a path.  `format_op` writes a `.op` table as it did before it
shared one string per value: a `str` per value, joined by newlines.
The other functions evaluate operation tables one argument tuple at a
time through a Python closure, the way the library did before it built
these tables by index arithmetic.
"""

import sys
from collections import deque
from itertools import product
from math import factorial

from hcolor.algebra import OperationTable, table_from_function
from hcolor.classify import CoreResult, _idempotent_power
from hcolor.digraph import (
    DEFAULT_POWER_BUDGET,
    Digraph,
    LevelAssignment,
    _bits,
    _union,
    compute_levels,
    connected_components,
    power_index,
)
from hcolor.errors import BudgetExceeded, ConstructionStuck, NotBalanced
from hcolor.homsolver import CspInstance, _ac_fixpoint, _NodeCounter, solve_hom
from hcolor.minpath import OrientedPath

DEFAULT_ENUM_BUDGET = 5_000_000


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


def enumerate_homs(x: Digraph, h: Digraph, limit: int | None = None,
                   budget: int = DEFAULT_ENUM_BUDGET) -> list[tuple[int, ...]]:
    """All homomorphisms in lexicographic order, by plain enumeration.

    Deliberately simple: this is the oracle the solver is checked against.
    """
    if limit is None and h.vertex_count ** x.vertex_count > budget:
        raise BudgetExceeded("enumeration space exceeds budget; pass a limit")
    out: list[tuple[int, ...]] = []
    edges = x.edges_sorted
    for mapping in product(range(h.vertex_count), repeat=x.vertex_count):
        ok = True
        for u, v in edges:
            if (mapping[u], mapping[v]) not in h.edges:
                ok = False
                break
        if ok:
            out.append(mapping)
            if limit is not None and len(out) >= limit:
                break
    return out


def branch_var(domains: list[int]) -> int:
    """The variable with the fewest values among those with two or more,
    lowest index first; -1 when every domain is a singleton."""
    best = -1
    best_size = 0
    for i, d in enumerate(domains):
        size = d.bit_count()
        if size >= 2 and (best < 0 or size < best_size):
            best, best_size = i, size
    return best


def open_branch_var(domains: list[int], candidates) -> tuple[int, list[int]]:
    """The candidate with the fewest values (lowest index first) among those
    with two or more, -1 when none has; and those open candidates, in order."""
    best, best_size = -1, sys.maxsize  # more values than any domain has
    open_vars = []
    for i in candidates:
        size = domains[i].bit_count()
        if size > 1:
            open_vars.append(i)
            if size < best_size:
                best, best_size = i, size
    return best, open_vars


def search(domains: list[int], inst: CspInstance, counter: _NodeCounter) -> list[int] | None:
    """Iterative backtracking; frames hold resumable value generators and
    their open variables, the only candidates below them."""
    var, open_vars = open_branch_var(domains, range(len(domains)))
    if var < 0:
        return domains
    stack = [(domains, var, _bits(domains[var]), open_vars)]
    while stack:
        parent, var, values, open_vars = stack[-1]
        advanced = False
        for val in values:
            counter.tick()
            trial = list(parent)
            trial[var] = 1 << val
            if _ac_fixpoint(trial, inst, ([var], [parent[var]])):
                nxt, still_open = open_branch_var(trial, open_vars)
                if nxt < 0:
                    return trial
                stack.append((trial, nxt, _bits(trial[nxt]), still_open))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return None


def fifo_fixpoint(domains: list[int], inst: CspInstance) -> bool:
    """Arc consistency in place from every variable, queued in index order
    after the self-loop filter; False when a domain empties."""
    h = inst.target
    for u in inst.adjacency[2]:
        domains[u] &= h.loop_mask
        if not domains[u]:
            return False
    return fifo_wave(domains, inst, range(len(domains))) is not None


def two_wave_fixpoint(domains: list[int], inst: CspInstance) -> bool:
    """Arc consistency in place after the self-loop filter, by two FIFO
    waves in index order: from the variables whose domain is not every
    value, then from the variables that wave never narrowed; False when a
    domain is or becomes empty."""
    h = inst.target
    for u in inst.adjacency[2]:
        domains[u] &= h.loop_mask
    if 0 in domains:
        return False
    full = (1 << h.vertex_count) - 1
    seeds = [x for x, d in enumerate(domains) if d != full]
    narrowed = fifo_wave(domains, inst, seeds)
    if narrowed is None:
        return False
    reached = set(seeds) | narrowed
    rest = [x for x in range(len(domains)) if x not in reached]
    return fifo_wave(domains, inst, rest) is not None


def fifo_wave(domains: list[int], inst: CspInstance, seeds) -> set[int] | None:
    """Arc consistency in place from the seeds, one FIFO queue; the
    variables it narrowed, or None when a domain empties."""
    h = inst.target
    succs, preds, _ = inst.adjacency
    queue = deque(seeds)
    queued = [False] * len(domains)
    for x in queue:
        queued[x] = True
    narrowed_vars = set()
    supports: dict[tuple[bool, int], int] = {}  # (forward, domain) -> support
    while queue:
        x = queue.popleft()
        queued[x] = False
        for nbrs, forward in ((succs[x], True), (preds[x], False)):
            key = (forward, domains[x])
            if key not in supports:
                supports[key] = _union(h.out_masks if forward else h.in_masks, domains[x])
            for y in nbrs:
                narrowed = domains[y] & supports[key]
                if narrowed != domains[y]:
                    if not narrowed:
                        return None
                    domains[y] = narrowed
                    narrowed_vars.add(y)
                    if not queued[y]:
                        queued[y] = True
                        queue.append(y)
    return narrowed_vars


def pair_consistency(inst: CspInstance) -> dict[tuple[int, int], frozenset] | None:
    """The greatest (2,3)-consistent family by plain sweeps over pair sets,
    from the self-loop-filtered domains: a pair (a, b) on u < v stays while
    every third variable w has a value c with (a, c) kept on u, w and
    (b, c) kept on v, w.  None when a domain or a pair set empties."""
    h = inst.target
    n = len(inst.domains)
    arcs = {(u, v) for u, v in inst.constraints if u != v}
    domains = list(inst.domains)
    for u in inst.adjacency[2]:
        domains[u] &= h.loop_mask
    if 0 in domains:
        return None
    values = [list(_bits(d)) for d in domains]

    def allowed(u, a, v, b):
        return (((u, v) not in arcs or h.out_masks[a] >> b & 1)
                and ((v, u) not in arcs or h.out_masks[b] >> a & 1))

    pairs = {(u, v): {(a, b) for a in values[u] for b in values[v] if allowed(u, a, v, b)}
             for u in range(n) for v in range(u + 1, n)}

    def kept(u, a, w, c):
        return (a, c) in pairs[(u, w)] if u < w else (c, a) in pairs[(w, u)]

    changed = True
    while changed:
        changed = False
        for (u, v), family in pairs.items():
            for a, b in sorted(family):
                if not all(any(kept(u, a, w, c) and kept(v, b, w, c) for c in values[w])
                           for w in range(n) if w != u and w != v):
                    family.discard((a, b))
                    changed = True
    if any(not family for family in pairs.values()):
        return None
    return {key: frozenset(family) for key, family in pairs.items()}


def two_walk_levels(g: Digraph) -> LevelAssignment:
    """Levels of a connected balanced digraph, by two walks."""
    if g.vertex_count and len(connected_components(g)) > 1:
        raise ValueError("digraph is disconnected")
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
    return LevelAssignment(tuple(levels), max(levels, default=0))


def quotient(g: Digraph, u: int, v: int) -> tuple[Digraph, tuple[int, ...]]:
    """Identify v with u; parallel edges collapse."""
    mapping = [w - (w > v) for w in range(g.vertex_count)]
    mapping[v] = mapping[u]
    edges = {(mapping[a], mapping[b]) for a, b in g.edges}
    return Digraph.from_edges(g.vertex_count - 1, edges), tuple(mapping)


def level_groups(g: Digraph) -> list[int] | None:
    """The levels of a connected balanced digraph, else None: endomorphisms
    of such a digraph preserve levels, so only same-level pairs can merge."""
    try:
        return list(compute_levels(g).levels)
    except (NotBalanced, ValueError):
        return None


def sweep_core(g: Digraph, node_budget: int | None = None) -> CoreResult:
    """Iterated retractions, each found by the first same-level vertex pair
    (all pairs off a connected balanced digraph) that an endomorphism can
    identify; the core is certified by a round whose sweep finds none."""
    current = g
    overall = tuple(range(g.vertex_count))
    embedding = tuple(range(g.vertex_count))
    while True:
        levels = level_groups(current)
        n = current.vertex_count
        endo = None
        for u, v in ((u, v) for u in range(n) for v in range(u + 1, n)
                     if levels is None or levels[u] == levels[v]):
            q, mapping = quotient(current, u, v)
            hom = solve_hom(q, current, node_budget=node_budget)
            if hom is not None:
                endo = tuple(hom[mapping[w]] for w in range(n))
                break
        if endo is None:
            break
        retr = _idempotent_power(endo)
        image = sorted(set(retr))
        relabel = {w: i for i, w in enumerate(image)}
        current = Digraph.from_edges(len(image), {
            (relabel[a], relabel[b]) for a, b in current.edges
            if a in relabel and b in relabel})
        overall = tuple(relabel[retr[w]] for w in overall)
        embedding = tuple(embedding[w] for w in image)
    return CoreResult(current, overall, embedding)


def power_tuple(base: int, n: int, idx: int) -> tuple[int, ...]:
    """The tuple whose `power_index` is idx."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        idx, out[i] = divmod(idx, base)
    return tuple(out)


def net_length(p: OrientedPath) -> int:
    """Forward edges minus backward edges."""
    return p.directions.count("1") - p.directions.count("0")


def wnu_extension_values(tree, tau: OperationTable, delta) -> list[int]:
    """The value list `extend_wnu` builds, case by case per argument tuple."""
    n = tau.arity
    size = tree.digraph.vertex_count
    sort_key: list[tuple[int, int] | None] = [None] * size
    edge_of: list[int | None] = [None] * size
    for v, role in enumerate(tree.roles):
        if role[0] == "P":
            sort_key[v] = (role[1], role[2])
            edge_of[v] = role[1]
    lv = tree.levels
    a_set, b_set = tree.a_vertices, tree.b_vertices

    def least_interior(args) -> int:
        return min(args, key=lambda v: sort_key[v])

    def value(args) -> int:
        if all(v in a_set for v in args) or all(v in b_set for v in args):
            return tau.apply(args)
        if power_index(size, args) in delta:
            edges = [edge_of[v] for v in args]
            if None in edges:
                raise ConstructionStuck(f"diagonal-component tuple {args} leaves the paths")
            if len(set(edges)) == 1:
                return least_interior(args)
            for i in range(n):
                others = {edges[j] for j in range(n) if j != i}
                if len(others) == 1 and edges[i] not in others:
                    rotated = (args[i],) + args[:i] + args[i + 1:]
                    return tau.apply(rotated)
            return tau.apply(args)
        levels = [lv[v] for v in args]
        if len(set(levels)) == 1:
            if any(edge_of[v] is None for v in args):
                raise ConstructionStuck(f"one-level tuple {args} leaves the paths")
            return least_interior(args)
        for i in range(n):
            others = {levels[j] for j in range(n) if j != i}
            if len(others) == 1 and levels[i] not in others:
                return args[i]
        return args[0]

    return list(table_from_function(size, n, value).values)


def binary_polymer(w: OperationTable) -> OperationTable:
    """x o y = w(x, ..., x, y), one call of w per pair."""
    return table_from_function(
        w.size, 2, lambda args: w.apply((args[0],) * (w.arity - 1) + (args[1],)))


def special_polymer(w: OperationTable) -> tuple[int, OperationTable]:
    """The least m whose m-fold polymer is special, with that polymer."""
    base = binary_polymer(w)
    polymer = base
    m = 1
    r = range(w.size)
    while not all(polymer(x, polymer(x, y)) == polymer(x, y) for x in r for y in r):
        if m >= factorial(w.size):
            raise ConstructionStuck("special polymer must appear within size! iterates")
        prev = polymer
        polymer = table_from_function(
            w.size, 2, lambda args, p=prev: base(args[0], p(args[0], args[1])))
        m += 1
    return m, polymer


def star_table(polymer: OperationTable) -> OperationTable:
    """x * y: fold x through `size` right-applications of o to y."""

    def fold(args):
        x, y = args
        z = x
        for _ in range(polymer.size):
            z = polymer(z, y)
        return z

    return table_from_function(polymer.size, 2, fold)


def format_op(t: OperationTable) -> str:
    lines = [f"op {t.size} {t.arity}"]
    lines.extend(str(v) for v in t.values)
    return "\n".join(lines) + "\n"
