"""Homomorphism decisions between digraphs.

Variables carry bitmask domains over target vertices.  An instance is the
domains, the target digraph (its one relation) and successor lists: each v
in succ[u] asks for (value of u, value of v) to be an edge of the target.
Arc consistency queues variables, not pairs, and filters a popped
variable's successors through the target's memoized images (of its
`out_masks`), then its predecessors through the memoized preimages, in two
written-out blocks; every search on one target digraph object shares its
masks and memos.  It propagates only from the variables it is given: a
search node gives the variables it changed, and `_narrowed`, which starts
from scratch, gives first the variables whose domain is not every value and
then those still full.  The closure is unique, so the order changes the
work, never the domains.  Everything is deterministic: fixed variable order
(smallest domain, lowest index) and ascending value order.  The search
works on one domain list in place: each frame records the old domains of
the variables its node changed and restores them on backtracking, and the
branching variable comes from one lazy min-heap of variables per domain
size, which holds each variable at most once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import compress

from .digraph import Digraph, _bits, _union
from .errors import Budget, BudgetExceeded, InvalidPin, VerificationFailed


@dataclass(frozen=True)
class CspInstance:
    """Variables with vertex-subset domains over the target's vertices;
    each v in succ[u] (u itself included for a self-loop) requires
    (value of u, value of v) to be an edge of the target."""

    domains: tuple[int, ...]
    target: Digraph
    succ: tuple[tuple[int, ...], ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...],
                                 tuple[int, ...]]:
        """Successors and predecessors of each variable, self-loops left
        out, and the variables with a self-loop."""
        outs = []
        preds: list[list[int]] = [[] for _ in self.succ]
        loops = []
        for u, vs in enumerate(self.succ):
            if u in vs:
                loops.append(u)
                vs = tuple(v for v in vs if v != u)
            outs.append(vs)
            for v in vs:
                preds[v].append(u)
        return tuple(outs), tuple(map(tuple, preds)), tuple(loops)

    @property
    def constraints(self) -> tuple[tuple[int, int], ...]:
        """The (u, v) pairs, by u and then in successor order."""
        return tuple((u, v) for u, vs in enumerate(self.succ) for v in vs)

    @property
    def variable_count(self) -> int:
        return len(self.domains)


def build_instance(x: Digraph, h: Digraph, pins: dict[int, int] | None = None) -> CspInstance:
    """One variable per x-vertex, full target domains, x's successor lists."""
    full = (1 << h.vertex_count) - 1
    domains = [full] * x.vertex_count
    for var, val in (pins or {}).items():
        if not (0 <= var < x.vertex_count):
            raise InvalidPin(f"pin variable {var} out of range")
        if not (0 <= val < h.vertex_count):
            raise InvalidPin(f"pin value {val} out of range")
        domains[var] &= 1 << val
    return CspInstance(tuple(domains), h, x.out_neighbors)


def _ac_fixpoint(domains: list[int], inst: CspInstance,
                 trail: tuple[list[int], list[int]]) -> bool:
    """Arc consistency in place from the trail's variables; False when a
    domain empties.

    `trail` holds the variables whose domains changed and their old
    domains.  Only those variables seed the queue (the rest are assumed
    already consistent), and the first narrowing of every other variable
    appends it and its old domain to the trail.  A popped variable x
    filters each successor to the image of its domain and each
    predecessor to the preimage, both looked up in the target's memos
    (searches revisit few distinct domain masks, so the memos stay
    small); a variable whose domain shrinks is queued again.
    """
    h = inst.target
    succs, preds, _ = inst.adjacency
    changed, olds = trail
    queue = deque(changed)
    # 0: never narrowed, 1: queued, 2: narrowed (or seeded) and popped
    state = bytearray(len(domains))
    for x in queue:
        state[x] = 1
    images, preimages, fwd, rev = h.images, h.preimages, h.out_masks, h.in_masks
    while queue:
        x = queue.popleft()
        state[x] = 2
        dx = domains[x]
        nbrs = succs[x]
        if nbrs:
            support = images.get(dx)
            if support is None:
                support = images[dx] = _union(fwd, dx)
            for y in nbrs:
                dy = domains[y]
                narrowed = dy & support
                if narrowed != dy:
                    if not narrowed:
                        return False
                    domains[y] = narrowed
                    seen = state[y]
                    if seen != 1:
                        if not seen:
                            changed.append(y)
                            olds.append(dy)
                        state[y] = 1
                        queue.append(y)
        nbrs = preds[x]
        if nbrs:
            support = preimages.get(dx)
            if support is None:
                support = preimages[dx] = _union(rev, dx)
            for y in nbrs:
                dy = domains[y]
                narrowed = dy & support
                if narrowed != dy:
                    if not narrowed:
                        return False
                    domains[y] = narrowed
                    seen = state[y]
                    if seen != 1:
                        if not seen:
                            changed.append(y)
                            olds.append(dy)
                        state[y] = 1
                        queue.append(y)
    return True


def arc_consistency(inst: CspInstance) -> CspInstance | None:
    """Greatest support-filtering fixpoint; None when some domain empties.

    Sound: a value participating in any solution is never removed.
    """
    domains = _narrowed(inst)
    return None if domains is None else CspInstance(tuple(domains), inst.target, inst.succ)


def _narrowed(inst: CspInstance) -> list[int] | None:
    """A fresh list of the instance's domains at the support-filtering
    fixpoint, or None when some domain is or becomes empty.

    Self-loops reduce to a unary filter, applied once here.  Then two
    `_ac_fixpoint` calls run, each seeded in index order: first from the
    variables whose domain is not every value (pins, and variables the
    loop filter narrowed), then from the variables still full, which that
    wave never reached.  So a full-domain variable is not popped before
    the narrowing reaches it (the triad's Siggers component takes 58,899
    pops, against 132,008 from plain index order).  With no variable
    narrowed, or every one, the order is plain index order.
    """
    domains = list(inst.domains)
    h = inst.target
    for u in inst.adjacency[2]:
        domains[u] &= h.loop_mask
    if 0 in domains:
        return None
    full = (1 << h.vertex_count) - 1
    for wave in (full.__ne__, full.__eq__):
        seeds = list(compress(range(len(domains)), map(wave, domains)))
        # what the call records on the trail is dropped
        if seeds and not _ac_fixpoint(domains, inst, (seeds, [])):
            return None
    return domains


class _NodeCounter:
    """One search's nodes against the node budget, granted 1024 at a time
    (fewer up to the budget); each grant after the first tests the deadline."""

    __slots__ = ("left", "granted", "budget", "variables")

    def __init__(self, budget: Budget, variables: int):
        self.left, self.granted, self.budget, self.variables = 0, 0, budget, variables

    def tick(self) -> None:
        if self.left:
            self.left -= 1
            return
        nodes, granted = self.budget.nodes, self.granted
        if nodes is not None and granted >= nodes:
            raise BudgetExceeded(f"search node budget {nodes} exhausted "
                                 f"on a {self.variables}-variable instance")
        if granted:
            self.budget.check_deadline()
        step = 1024 if nodes is None else min(1024, nodes - granted)
        self.granted, self.left = granted + step, step - 1


class _Buckets:
    """One lazy min-heap of variable indices per domain size.

    Invariant: every open variable is in the heap of its domain's size.
    held[size][var] is 1 when heaps[size] holds var, so a heap holds each
    variable at most once; sizes 0 and 1 read as always held, so closed
    variables are never pushed.  An entry whose variable has since changed
    size is stale; `pick` drops stale tops and clears their marks.
    """

    __slots__ = ("heaps", "held")

    def __init__(self, domains: list[int]):
        n = len(domains)
        top = max(map(int.bit_count, domains), default=0)  # sizes only shrink
        self.heaps: list[list[int]] = [[] for _ in range(top + 1)]
        self.held = [b"\x01" * n] * 2 + [bytearray(n) for _ in range(2, top + 1)]
        self.push(domains, range(n))

    def push(self, domains: list[int], variables) -> None:
        """Put each open variable in the heap of its size, if not there."""
        heaps, held = self.heaps, self.held
        for var in variables:
            size = domains[var].bit_count()
            mark = held[size]
            if not mark[var]:
                mark[var] = 1
                heappush(heaps[size], var)

    def pick(self, domains: list[int]) -> int:
        """The open variable with the fewest values, lowest index first; -1
        when none is open."""
        for size in range(2, len(self.heaps)):
            heap, mark = self.heaps[size], self.held[size]
            while heap:
                var = heap[0]
                if domains[var].bit_count() == size:
                    return var
                mark[heappop(heap)] = 0
        return -1


def _restore(domains: list[int], changed: list[int], olds: list[int]) -> None:
    for var, old in zip(changed, olds):
        domains[var] = old


def _search(domains: list[int], inst: CspInstance, counter: _NodeCounter) -> list[int] | None:
    """Iterative backtracking on `domains`, changed in place.

    A frame holds its branching variable, a resumable value generator and
    the undo record of the node that made it: each variable that node
    changed (the decision, then AC's narrowings) with its old domain.
    After AC the changed variables go into the buckets of their new sizes.
    Undoing a node pushes its restored variables back, since a pick below
    it may have dropped them as stale.  A failed value needs no push: no
    pick ran since its changes.  The buckets hold at most variables times
    sizes entries, however long the search runs.
    """
    buckets = _Buckets(domains)
    var = buckets.pick(domains)
    if var < 0:
        return domains
    stack = [(var, _bits(domains[var]), ([], []))]
    while stack:
        var, values, _ = stack[-1]
        for val in values:
            counter.tick()
            trail = [var], [domains[var]]
            domains[var] = 1 << val
            if _ac_fixpoint(domains, inst, trail):
                buckets.push(domains, trail[0])
                nxt = buckets.pick(domains)
                if nxt < 0:
                    return domains
                stack.append((nxt, _bits(domains[nxt]), trail))
                break
            _restore(domains, *trail)
        else:
            changed, olds = stack.pop()[2]
            _restore(domains, changed, olds)
            buckets.push(domains, changed)
    return None


def solve_instance(inst: CspInstance, budget: Budget = Budget()) -> tuple[int, ...] | None:
    """Backtracking with support filtering at every node, on one domain
    list: the first fixpoint and the search both change it in place."""
    domains = _narrowed(inst)
    if domains is None:
        return None
    found = _search(domains, inst, _NodeCounter(budget, len(domains)))
    if found is None:
        return None
    assignment = tuple(d.bit_length() - 1 for d in found)
    fwd = inst.target.out_masks
    for u, vs in enumerate(inst.succ):
        for v in vs:
            if not fwd[assignment[u]] >> assignment[v] & 1:
                raise VerificationFailed(f"solver result violates constraint {u}->{v}")
    return assignment


def is_homomorphism(x: Digraph, h: Digraph, mapping: tuple[int, ...],
                    pins: dict[int, int] | None = None) -> bool:
    if len(mapping) != x.vertex_count:
        return False
    if any(not 0 <= t < h.vertex_count for t in mapping):
        return False
    if pins and any(mapping[var] != val for var, val in pins.items()):
        return False
    return all((mapping[u], mapping[v]) in h.edges for u, v in x.edges)


def solve_hom(x: Digraph, h: Digraph, pins: dict[int, int] | None = None,
              budget: Budget = Budget()) -> tuple[int, ...] | None:
    """A verified homomorphism x -> h respecting the pins, or None."""
    inst = build_instance(x, h, pins)
    found = solve_instance(inst, budget)
    if found is not None and not is_homomorphism(x, h, found, pins):
        raise VerificationFailed("solver result is not a homomorphism respecting the pins")
    return found


def consistency_23(inst: CspInstance) -> dict[tuple[int, int], frozenset] | None:
    """Greatest (2,3)-consistent family of pair assignments, or None.

    For every unordered variable pair the family keeps the assignments that
    extend compatibly to every third variable; the fixpoint is reached by
    repeated sweeps from the arc-consistent domains, which hold the
    greatest family.  None signals collapse (some domain or pair set
    emptied), which soundly refutes the instance.
    """
    domains = _narrowed(inst)
    if domains is None:
        return None
    n = len(domains)
    h = inst.target
    values = range(h.vertex_count)
    outs = inst.adjacency[0]
    if n < 2:
        return {}
    # rows[u][v][a] = mask of b-values compatible with u=a, v=b
    rows: dict[tuple[int, int], list[int]] = {}
    for u in range(n):
        for v in range(n):
            if u != v:
                rows[(u, v)] = [domains[v] if domains[u] >> a & 1 else 0 for a in values]
    for u, vs in enumerate(outs):
        for v in vs:
            ru, rv = rows[(u, v)], rows[(v, u)]
            for a in values:
                ru[a] &= h.out_masks[a]
                rv[a] &= h.in_masks[a]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                ruv = rows[(u, v)]
                rvu = rows[(v, u)]
                for a in values:
                    row = ruv[a]
                    if not row:
                        continue
                    for b in _bits(row):
                        for w in range(n):
                            if w == u or w == v:
                                continue
                            if not (rows[(u, w)][a] & rows[(v, w)][b]):
                                ruv[a] &= ~(1 << b)
                                rvu[b] &= ~(1 << a)
                                changed = True
                                break
        for u in range(n):
            for v in range(u + 1, n):
                if all(m == 0 for m in rows[(u, v)]):
                    return None
    family = {}
    for u in range(n):
        for v in range(u + 1, n):
            family[(u, v)] = frozenset(
                (a, b) for a in values for b in _bits(rows[(u, v)][a]))
    return family
