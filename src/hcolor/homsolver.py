"""Homomorphism decisions between digraphs.

Variables carry bitmask domains over target vertices.  An instance has one
binary relation (the target's edge relation) and gives its constraints as
successor lists: each v in succ[u] asks for (value of u, value of v) in
that relation.  Arc consistency queues variables, not pairs, and filters a
popped variable's neighbours through the relation's memoized images and
preimages.  A full call queues first the variables whose domain is not
every value (pins and self-loop filtering), runs until that wave dies out,
and then queues, in index order, every variable it never reached; a search
node's call queues only the variables the node changed.  The closure is
unique, so the order changes the work, never the domains.  Everything is
deterministic: fixed variable order (smallest domain, lowest index) and
ascending value order.  The search works on one domain list in place: each
frame records the old domains of the variables its node changed and
restores them on backtracking, and the branching variable comes from one
lazy min-heap of variables per domain size, which holds each variable at
most once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import compress

from .digraph import Digraph
from .errors import BudgetExceeded, InvalidPin, VerificationFailed


# maps `_ac_fixpoint`'s state 3 (not reached by the first wave) to 1, others to 0
_UNREACHED = bytes(s == 3 for s in range(256))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(rows: tuple[int, ...], mask: int) -> int:
    """The union of rows[a] over the values a in mask: the image of mask
    under `Relation.fwd`, or its preimage under `Relation.rev`."""
    out = 0
    for a in _bits(mask):
        out |= rows[a]
    return out


@dataclass(frozen=True)
class Relation:
    """Binary relation over 0..size-1 stored as per-value bitmasks."""

    size: int
    fwd: tuple[int, ...]  # fwd[a] = mask of b with (a, b) in the relation
    rev: tuple[int, ...]  # rev[b] = mask of a with (a, b) in the relation

    @cached_property
    def preimages(self) -> dict[int, int]:
        """Memo: mask -> values with a successor in mask (see `_ac_fixpoint`)."""
        return {}

    @cached_property
    def images(self) -> dict[int, int]:
        """Memo: mask -> values with a predecessor in mask (see `_ac_fixpoint`)."""
        return {}

    @cached_property
    def diagonal(self) -> int:
        mask = 0
        for a in range(self.size):
            if self.fwd[a] >> a & 1:
                mask |= 1 << a
        return mask


def edge_relation(h: Digraph) -> Relation:
    fwd = tuple(sum(1 << v for v in vs) for vs in h.out_neighbors)
    rev = tuple(sum(1 << u for u in us) for us in h.in_neighbors)
    return Relation(h.vertex_count, fwd, rev)


@dataclass(frozen=True)
class CspInstance:
    """Variables with vertex-subset domains over the relation's values;
    each v in succ[u] (u itself included for a self-loop) requires
    (value of u, value of v) in the one relation."""

    domains: tuple[int, ...]
    relation: Relation
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
    return CspInstance(tuple(domains), edge_relation(h), x.out_neighbors)


def _ac_fixpoint(domains: list[int], inst: CspInstance,
                 trail: tuple[list[int], list[int]] | None = None) -> bool:
    """Arc consistency in place, queueing variables; False when a domain empties.

    A popped variable x filters each successor to the image of its domain
    and each predecessor to the preimage, both looked up in the relation's
    memos (searches revisit few distinct domain masks, so the memos stay
    small); a variable whose domain shrinks is queued again.

    A full call (no `trail`) first queues, in index order, the variables
    whose domain is not every value: pins, and variables the self-loop
    filter narrowed.  When that wave has emptied the queue, it queues once,
    in index order, every variable the wave never reached, and runs the
    queue out again.  So a full-domain variable is not popped before the
    narrowing reaches it (the triad's Siggers component takes 58,899 pops,
    against 132,008 from plain index order).  With no variable narrowed,
    or every one, the order is plain index order.

    A search node passes its `trail`: the variables it changed and their
    old domains.  Only those variables seed the queue (the rest are
    assumed already consistent), and the first narrowing of every other
    variable appends it and its old domain to the trail.
    """
    rel = inst.relation
    succs, preds, loops = inst.adjacency
    n = len(domains)
    if trail is None:
        # self-loops reduce to a unary filter, applied once here;
        # incremental calls start from an already filtered state
        for u in loops:
            domains[u] &= rel.diagonal
            if not domains[u]:
                return False
        changed, olds = [], []  # no state is 0, so nothing is recorded
        full = (1 << rel.size) - 1
        sweep_left = 0 < domains.count(full) < n  # else one pass in index order
        if sweep_left:
            queue = deque(compress(range(n), map(full.__ne__, domains)))
            state = bytearray(b"\x03" * n)
        else:
            queue = deque(range(n))
            state = bytearray(n)
    else:
        changed, olds = trail
        queue = deque(changed)
        state = bytearray(n)
        sweep_left = False
    # 0: never narrowed, 1: queued, 2: narrowed (or seeded) and popped,
    # 3: not reached yet by a full call's first wave (never recorded)
    sides = ((succs, rel.images, rel.fwd), (preds, rel.preimages, rel.rev))
    while True:
        for x in queue:
            state[x] = 1
        while queue:
            x = queue.popleft()
            state[x] = 2
            dx = domains[x]
            for side, memo, rows in sides:
                nbrs = side[x]
                if not nbrs:
                    continue
                support = memo.get(dx)
                if support is None:
                    support = memo[dx] = _union(rows, dx)
                for y in nbrs:
                    dy = domains[y]
                    if dy & ~support:
                        narrowed = dy & support
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
        if not sweep_left:
            return True
        sweep_left = False
        queue.extend(compress(range(n), state.translate(_UNREACHED)))


def arc_consistency(inst: CspInstance) -> CspInstance | None:
    """Greatest support-filtering fixpoint; None when some domain empties.

    Sound: a value participating in any solution is never removed.
    """
    domains = list(inst.domains)
    if any(d == 0 for d in domains):
        return None
    if not _ac_fixpoint(domains, inst):
        return None
    return CspInstance(tuple(domains), inst.relation, inst.succ)


class _NodeCounter:
    __slots__ = ("left",)

    def __init__(self, budget: int | None):
        self.left = budget

    def tick(self) -> None:
        if self.left is not None:
            if self.left <= 0:
                raise BudgetExceeded("search node budget exhausted")
            self.left -= 1


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


def solve_instance(inst: CspInstance, node_budget: int | None = None) -> tuple[int, ...] | None:
    """Backtracking with support filtering at every node."""
    reduced = arc_consistency(inst)
    if reduced is None:
        return None
    found = _search(list(reduced.domains), inst, _NodeCounter(node_budget))
    if found is None:
        return None
    assignment = tuple(d.bit_length() - 1 for d in found)
    fwd = inst.relation.fwd
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
              node_budget: int | None = None) -> tuple[int, ...] | None:
    """A verified homomorphism x -> h respecting the pins, or None."""
    inst = build_instance(x, h, pins)
    found = solve_instance(inst, node_budget)
    if found is not None and not is_homomorphism(x, h, found, pins):
        raise VerificationFailed("solver result is not a homomorphism respecting the pins")
    return found


def consistency_23(inst: CspInstance) -> dict[tuple[int, int], frozenset] | None:
    """Greatest (2,3)-consistent family of pair assignments, or None.

    For every unordered variable pair the family keeps the assignments that
    extend compatibly to every third variable; the fixpoint is reached by
    repeated sweeps.  None signals collapse (some pair set emptied), which
    soundly refutes the instance.
    """
    n = len(inst.domains)
    rel = inst.relation
    values = range(rel.size)
    outs, _, loops = inst.adjacency
    domains = list(inst.domains)
    for u in loops:
        domains[u] &= rel.diagonal
    if any(d == 0 for d in domains):
        return None
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
                ru[a] &= rel.fwd[a]
                rv[a] &= rel.rev[a]
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
