"""Simple reference forms the differential tests compare the library against.

`enumerate_homs` lists homomorphisms by plain enumeration, the oracle for
the solver, and `branch_var` picks the solver's branching variable by
scanning every domain.  `search` is the backtracking search as it was
before it worked in place: every node copies the domain list, and a frame
keeps its open variables for `open_branch_var` to pick among.
`fifo_fixpoint` is a full arc-consistency call as it was before its
queue was seeded from the narrowed variables: every variable queued in
index order.  `power_tuple` and `net_length` invert `power_index` and
measure a path.
The other functions evaluate operation tables one argument tuple at a
time through a Python closure, the way the library did before it built
these tables by index arithmetic.
"""

import sys
from collections import deque
from itertools import product
from math import factorial

from hcolor.algebra import OperationTable, table_from_function
from hcolor.digraph import Digraph, power_index
from hcolor.errors import BudgetExceeded, ConstructionStuck
from hcolor.homsolver import CspInstance, _ac_fixpoint, _bits, _NodeCounter, _union
from hcolor.minpath import OrientedPath

DEFAULT_ENUM_BUDGET = 5_000_000


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
    rel = inst.relation
    succs, preds, loops = inst.adjacency
    for u in loops:
        domains[u] &= rel.diagonal
        if not domains[u]:
            return False
    queue = deque(range(len(domains)))
    queued = [True] * len(domains)
    supports: dict[tuple[bool, int], int] = {}  # (forward, domain) -> support
    while queue:
        x = queue.popleft()
        queued[x] = False
        for nbrs, forward in ((succs[x], True), (preds[x], False)):
            key = (forward, domains[x])
            if key not in supports:
                supports[key] = _union(rel.fwd if forward else rel.rev, domains[x])
            for y in nbrs:
                narrowed = domains[y] & supports[key]
                if narrowed != domains[y]:
                    if not narrowed:
                        return False
                    domains[y] = narrowed
                    if not queued[y]:
                        queued[y] = True
                        queue.append(y)
    return True


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
