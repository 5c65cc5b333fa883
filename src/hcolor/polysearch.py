"""Polymorphism existence via indicator structures.

A k-ary polymorphism of h is a homomorphism from the k-th power of h back
to h.  Every identity system (WNU, majority, Siggers, total symmetry) is a
list of merge and pin patterns over abstract variables: merges join power
tuples into classes and pins force classes, turning each search into a
homomorphism instance over the quotient (the indicator instance).  Values
on weakly connected components of the quotient are independent, so
components are solved separately.

Searches never build the whole quotient.  `find_polymorphism` grows one
component at a time by a `digraph.PowerWalk` over the implicit power
digraph, which follows power edges and merge links a row of tuples at a
time; the merge rules are tables on the walk's rows, built once per set of
merge rules and target size (`_merge_tables`), like the pinned tuples
(`_pin_targets`); the walk's half tables and the solver's edge masks and
memos live on the target digraph object, every sub-instance's relation.
The components holding pinned tuples are built first, all of them, so that
inconsistent pins surface before any solving; they are then solved
smallest first (by class count, then smallest tuple), and the first
refuted one ends the search.  Pinned components hold the diagonal, where
idempotency makes refutations bite, so a refutation usually touches a
small fraction of the power; `refuted_on_pins` runs this stage alone.
Only when every pinned component is solved are the remaining components
built and solved, in the same order.  Classes are numbered by their
smallest tuple, so every sub-instance, and hence every table found, is the
one the full construction gives.

A tuple -> class dict lives only inside `_LazyIndicator.close` (and, for
the pin tuples, `pinned_components`), never while solving: a component
keeps its tuples as an `array` in class order and their classes as a list,
or as a `range` when each class is one tuple.

Most remaining components of a top-and-bottom WNU search on a special tree
are lone tuples: no power edge either way, no merge partner.  They all
have one sub-instance (one variable, full domain, no constraint), so
`PowerWalk.isolated` finds them by row masks and they are solved as one
group, ordered at its smallest tuple and keyed as one lone tuple; its
value goes to all of them.  The solver sees the same calls in the same
order as with one component each.

Many components of one search are the same sub-instance (same domains,
same constraints, and within a search the same target), so each search
keeps a memo from sub-instance to assignment and solves each distinct one
once.  The sub-instance is its `succ` (each class's sorted successor
classes) and its `domains`; the memo is keyed by `succ` first, when
`close` builds it, so that equal successor lists share one copy while their
components wait to be solved, and then by the domains.  This is exact:
`solve_instance` is deterministic and starts a fresh node count on every
call, so an identical instance gets the identical answer under any node
budget.  The memo lives for one search only, and the assembled table is
still re-checked as a whole.

`indicator` and `solve_indicator` are the simple reference the lazy path is
tested against.  They build the full quotient, its classes the connected
components of every merged pair (`_merge_pairs`) and its constraints one
per k-tuple of target edges, and solve each component of it.  They share
no walk with the lazy path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .algebra import (
    OperationTable,
    _wnu_on,
    is_idempotent,
    is_majority,
    is_polymorphism,
    is_siggers,
    is_tsi,
    is_wnu,
)
from .digraph import Digraph, PowerWalk, connected_components
from .errors import Budget, BudgetExceeded, InconsistentPins, InvalidParams, VerificationFailed
from .homsolver import CspInstance, solve_instance

_UNSOLVED = object()

Pattern = tuple[str, ...]


@dataclass(frozen=True)
class IdentitySystem:
    """Merge and pin rules over abstract variables.

    A merge rule equates the images of two patterns for every substitution
    of its variables (restricted by per-variable ranges, full range when
    absent).  A pin rule forces the image of a pattern to the value of one
    of its variables.
    """

    arity: int
    merges: tuple[tuple[Pattern, Pattern, tuple[tuple[str, tuple[int, ...]], ...]], ...] = ()
    pins: tuple[tuple[Pattern, str, tuple[tuple[str, tuple[int, ...]], ...]], ...] = ()


def _rotations(k: int) -> list[Pattern]:
    return [("x",) * i + ("y",) + ("x",) * (k - 1 - i) for i in range(k)]


def wnu_system(k: int) -> IdentitySystem:
    """All one-differing-argument patterns merged, diagonal pinned."""
    rots = _rotations(k)
    merges = tuple((rots[0], rot, ()) for rot in rots[1:])
    pins = ((("x",) * k, "x", ()),)
    return IdentitySystem(k, merges, pins)


def wnu_on_sets_system(k: int, sets: list[tuple[int, ...]]) -> IdentitySystem:
    """WNU pattern merges restricted to each given vertex set, diagonal pinned."""
    rots = _rotations(k)
    merges = []
    for vals in sets:
        rng = (("x", tuple(vals)), ("y", tuple(vals)))
        merges.extend((rots[0], rot, rng) for rot in rots[1:])
    pins = ((("x",) * k, "x", ()),)
    return IdentitySystem(k, tuple(merges), pins)


def majority_system() -> IdentitySystem:
    rots = _rotations(3)
    merges = tuple((rots[0], rot, ()) for rot in rots[1:])
    pins = tuple((rot, "x", ()) for rot in rots)
    return IdentitySystem(3, merges, pins)


def siggers_system() -> IdentitySystem:
    merge = ((("a", "r", "e", "a"), ("r", "a", "r", "e"), ()),)
    pins = ((("x", "x", "x", "x"), "x", ()),)
    return IdentitySystem(4, merge, pins)


def tsi_system(k: int) -> IdentitySystem:
    """Tuples with equal argument sets merged, diagonal pinned.

    Adjacent transpositions reach every reordering of a tuple, and for
    k >= 3 the shift (v0, v0, v2, ...) ~ (v0, v2, v2, ...) moves one
    repetition from one argument to another; together they join exactly
    the tuples with one argument set.
    """
    vs = tuple(f"v{i}" for i in range(k))
    merges = [(vs, vs[:i] + (vs[i + 1], vs[i]) + vs[i + 2:], ()) for i in range(k - 1)]
    if k >= 3:
        merges.append(((vs[0], vs[0]) + vs[2:], (vs[0], vs[2]) + vs[2:], ()))
    pins = ((("x",) * k, "x", ()),)
    return IdentitySystem(k, tuple(merges), pins)


@dataclass(frozen=True)
class Indicator:
    """Quotiented indicator instance plus the tuple-to-class bookkeeping."""

    instance: CspInstance
    class_of: tuple[int, ...]
    arity: int
    base: int


def _domains(variables: tuple[str, ...], ranges, size: int) -> list[tuple[int, ...]]:
    return [dict(ranges).get(v, tuple(range(size))) for v in variables]


def _weights(pattern: Pattern, variables: tuple[str, ...], n: int) -> list[int]:
    """Per-variable weights: a pattern's tuple index under a substitution is
    the dot product of these with the substituted values."""
    weights = [0] * len(variables)
    for pos, sym in enumerate(pattern):
        weights[variables.index(sym)] += n ** (len(pattern) - 1 - pos)
    return weights


def _dots(weights: list[int], domains: list[tuple[int, ...]]) -> list[int]:
    """The weights' dot product with every substitution from the domains,
    in `itertools.product` order."""
    dots = [0]
    for w, dom in zip(weights, domains):
        dots = [d + w * v for d in dots for v in dom]
    return dots


def _merge_pairs(sys: IdentitySystem, n: int):
    """Tuple-index pairs the system equates, in rule order."""
    for pat_a, pat_b, ranges in sys.merges:
        variables = tuple(sorted(set(pat_a) | set(pat_b)))
        domains = _domains(variables, ranges, n)
        yield from zip(_dots(_weights(pat_a, variables, n), domains),
                       _dots(_weights(pat_b, variables, n), domains))


@lru_cache(maxsize=4)
def _merge_tables(sys: IdentitySystem, n: int) -> tuple[tuple[int, ...], tuple]:
    """The merge rules as `PowerWalk.visit`'s `(linked, rules)` tables:
    `_merge_pairs` factored at the split `t = hi * split + lo`, each rule
    read both ways (src pattern to dst pattern).  `match[hi]` masks the
    `lo`s whose tuple is src under a substitution (repeated symbols equal,
    a symbol on both sides keyed by its value, ranges held); their partners
    are `base[hi] + add[lo]` plus one offset per value of the symbols only
    dst names.  A tuple whose one partner is itself is left out of `match`.
    Callers drop the pins, so systems that merge alike share one entry.
    """
    half = sys.arity // 2
    split, rows = n ** (sys.arity - half), n ** half
    linked, rules = [0] * rows, []
    for pat_a, pat_b, ranges in sys.merges:
        variables = tuple(sorted(set(pat_a) | set(pat_b)))
        doms = dict(zip(variables, _domains(variables, ranges, n)))
        for src, dst in ((pat_a, pat_b), (pat_b, pat_a)):
            into = dict(zip(variables, _weights(dst, variables, n)))
            free = [v for v in variables if v not in src]
            offsets = _dots([into[v] for v in free], [doms[v] for v in free])
            his, los = tuple(sorted(set(src[:half]))), tuple(sorted(set(src[half:])))
            key = {v: n ** i for i, v in enumerate(v for v in los if v in his)}
            hi_dom, lo_dom = [doms[v] for v in his], [doms[v] for v in los]
            add, by_key, diffs = [0] * split, {}, {}
            for lo, a, kv in zip(_dots(_weights(src[half:], los, n), lo_dom),
                                 _dots([0 if v in key else into[v] for v in los], lo_dom),
                                 _dots([key.get(v, 0) for v in los], lo_dom)):
                add[lo] = a
                by_key[kv] = by_key.get(kv, 0) | 1 << lo
                diffs[a - lo] = diffs.get(a - lo, 0) | 1 << lo
            match, base = [0] * rows, [0] * rows
            for hi, b, kv in zip(_dots(_weights(src[:half], his, n), hi_dom),
                                 _dots([into[v] for v in his], hi_dom),
                                 _dots([key.get(v, 0) for v in his], hi_dom)):
                base[hi] = b
                match[hi] = m = by_key.get(kv, 0) if offsets else 0
                if len(offsets) == 1 and m & (selfs := diffs.get(hi * split - b - offsets[0], 0)):
                    match[hi] = m = m & ~selfs  # lo's paired with themselves only
                linked[hi] |= m
            rules.append((tuple(match), tuple(base), tuple(add), tuple(offsets)))
    return tuple(linked), tuple(rules)


@lru_cache(maxsize=4)
def _pin_targets(sys: IdentitySystem, n: int) -> tuple[tuple[int, int], ...]:
    """(tuple index, forced value) per pin substitution, in rule order;
    callers drop the merges, as for `_merge_tables`."""
    targets: list[tuple[int, int]] = []
    for pattern, var, ranges in sys.pins:
        variables = tuple(sorted(set(pattern)))
        domains = _domains(variables, ranges, n)
        targets += zip(_dots(_weights(pattern, variables, n), domains),
                       _dots([int(v == var) for v in variables], domains))
    return tuple(targets)


def _tuple_count(n: int, k: int, budget: int) -> int:
    total = n ** k
    if total > budget:
        raise BudgetExceeded(f"{total} indicator tuples exceed budget {budget}")
    return total


def indicator(h: Digraph, sys: IdentitySystem, budget: Budget = Budget()) -> Indicator:
    """The homomorphism instance whose solutions are exactly the operations
    satisfying the identity system.

    Its classes are the components of the merge pairs, numbered by smallest
    tuple; its constraints come from every k-tuple of target edges.
    """
    n = h.vertex_count
    k = sys.arity
    total = _tuple_count(n, k, budget.indicator)
    classes = connected_components(Digraph.from_edges(total, _merge_pairs(sys, n)))
    class_of = [0] * total
    for c, part in enumerate(classes):
        for t in part:
            class_of[t] = c

    domains = [(1 << n) - 1] * len(classes)
    pinned: dict[int, int] = {}
    for t, val in _pin_targets(IdentitySystem(k, pins=sys.pins), n):
        c = class_of[t]
        if pinned.setdefault(c, val) != val:
            raise InconsistentPins(
                f"class of tuple {min(classes[c])} pinned to both {pinned[c]} and {val}")
        domains[c] = 1 << val

    succ: list[set[int]] = [set() for _ in classes]
    for combo in product(h.edges_sorted, repeat=k) if h.edges else ():
        tail = 0
        head = 0
        for u, v in combo:
            tail = tail * n + u
            head = head * n + v
        succ[class_of[tail]].add(class_of[head])
    inst = CspInstance(tuple(domains), h, tuple(tuple(sorted(s)) for s in succ))
    return Indicator(inst, tuple(class_of), k, n)


def solve_indicator(ind: Indicator, budget: Budget = Budget()) -> tuple[int, ...] | None:
    """Assignment per class, or None.

    Components carrying pinned classes go first (those hold the diagonal,
    where idempotency makes refutations bite), smallest first within.
    """
    inst = ind.instance
    comps = [sorted(part) for part in connected_components(
        Digraph.from_edges(inst.variable_count, inst.constraints))]

    def key(comp: list[int]) -> tuple[bool, int, int]:
        pinned = any(inst.domains[v].bit_count() == 1 for v in comp)
        return (not pinned, len(comp), comp[0])

    assignment: list[int | None] = [None] * inst.variable_count
    for comp in sorted(comps, key=key):
        index = {v: i for i, v in enumerate(comp)}
        sub = CspInstance(tuple(inst.domains[v] for v in comp), inst.target,
                          tuple(tuple(index[w] for w in inst.succ[v]) for v in comp))
        found = solve_instance(sub, budget)
        if found is None:
            return None
        for v, val in zip(comp, found):
            assignment[v] = val
    return tuple(assignment)  # type: ignore[arg-type]


class _Component:
    """One weakly connected component of the quotient, with its classes
    numbered by smallest tuple; or the group of lone tuples, its first
    tuple standing for all of them.  It holds no tuple -> class map, and
    its domains and memo entry only until `_LazyIndicator.solve`."""

    __slots__ = ("tuples", "classes", "domains", "memo", "lone")

    def __init__(self, tuples: array, classes: range | list[int], domains: list[int],
                 memo: tuple[tuple, dict], lone: array | tuple = ()):
        self.tuples = tuples    # in class order, each class's smallest tuple first
        self.classes = classes  # class of each tuple; the ranks when no merge link
        self.domains: list[int] | None = domains  # per class
        self.memo: tuple[tuple, dict] | None = memo  # the search's entry for its successor lists
        self.lone = lone        # the group's tuples, else empty

    def order(self) -> tuple[int, int]:
        return (self.classes[-1] + 1, self.tuples[0])


class _LazyIndicator:
    """The indicator instance of h and an identity system, built one
    component at a time."""

    def __init__(self, h: Digraph, sys: IdentitySystem, budget: Budget):
        n = self.n = h.vertex_count
        self.total = _tuple_count(n, sys.arity, budget.indicator)
        self.budget = budget
        self.merges = _merge_tables(IdentitySystem(sys.arity, sys.merges), n)
        self.pins = _pin_targets(IdentitySystem(sys.arity, pins=sys.pins), n)
        self.walk = PowerWalk(h, sys.arity)
        self.out_bases = [[r * self.walk.split for r in rows] for rows in self.walk.out_rows]
        self.target = h
        # sub-instance -> answer: succ -> (one shared succ, domains -> answer)
        self.solutions: dict[tuple, tuple[tuple, dict]] = {}

    def close(self, start: int) -> _Component:
        """The unvisited component of `start` (after a deadline test), over power
        edges both ways and merges, with unrestricted domains and its successor lists."""
        self.budget.check_deadline()
        tuples, partners = self.walk.visit([start], self.merges)
        class_of, count = {}, 0  # tuple -> class, class count
        tuples.sort()
        for t in tuples:
            if t in class_of:
                continue
            c = class_of[t] = count
            count += 1
            stack = [t] if t in partners else []
            while stack:
                for w in partners.get(stack.pop(), ()):
                    if w not in class_of:
                        class_of[w] = c
                        stack.append(w)
        del tuples, partners  # before the successor lists are built
        ranks = count == len(class_of)
        return self.component(array("q", class_of),
                              range(count) if ranks else list(class_of.values()),
                              self.successors(class_of, ranks))

    def component(self, tuples: array, classes: range | list[int],
                  succ: tuple[tuple[int, ...], ...], lone: array | tuple = ()) -> _Component:
        """A component with unrestricted domains and the memo entry of its
        successor lists, made here if new (so each list is hashed once)."""
        entry = self.solutions.get(succ)
        if entry is None:
            entry = self.solutions[succ] = (succ, {})
        return _Component(tuples, classes, [(1 << self.n) - 1] * (classes[-1] + 1), entry, lone)

    def successors(self, class_of: dict[int, int], ranks: bool) -> tuple[tuple[int, ...], ...]:
        """Each class's successor classes, ascending; `class_of` lists each
        class's tuples together, in class order.  With `ranks` (every class
        one tuple, numbered in tuple order) a tuple's successors come out of
        the walk's ascending lists already ascending and distinct."""
        split, bases, lows = self.walk.split, self.out_bases, self.walk.out_lows
        succ: list[tuple[int, ...]] = []
        if ranks:
            for t in class_of:
                hi, lo = divmod(t, split)
                low = lows[lo]
                succ.append(tuple([class_of[a + b] for a in bases[hi] for b in low]) if low else ())
            return tuple(succ)
        targets: list[int] = []
        for t, c in class_of.items():
            if c > len(succ):
                succ.append(tuple(sorted(set(targets))) if len(targets) > 1 else tuple(targets))
                targets = []
            hi, lo = divmod(t, split)
            low = lows[lo]
            if low:  # an empty list adds nothing: skip the comprehension
                targets += [class_of[a + b] for a in bases[hi] for b in low]
        succ.append(tuple(sorted(set(targets))) if len(targets) > 1 else tuple(targets))
        return tuple(succ)

    def pinned_components(self) -> list[_Component]:
        """Every component holding a pinned tuple, pins applied; raises
        InconsistentPins before any of them could be solved."""
        comps: list[_Component] = []
        where = dict.fromkeys(t for t, _ in self.pins)  # tuple -> (component, class)
        for start, _ in self.pins:
            if where[start] is None:  # not in an earlier pinned component
                comp = self.close(start)
                for t, c in zip(comp.tuples, comp.classes):
                    if t in where:
                        where[t] = (len(comps), c)
                comps.append(comp)
        forced: dict[tuple[int, int], int] = {}
        for t, val in self.pins:
            ci, c = cls = where[t]
            if forced.setdefault(cls, val) != val:
                comp = comps[ci]  # a class's run starts at its smallest tuple
                raise InconsistentPins(f"class of tuple {comp.tuples[comp.classes.index(c)]} "
                                       f"pinned to both {forced[cls]} and {val}")
        for (ci, c), val in forced.items():
            comps[ci].domains[c] = 1 << val
        return comps

    def remaining_components(self) -> list[_Component]:
        """Every unvisited component, the lone tuples as one group."""
        lone = self.walk.isolated(self.merges[0])
        comps = [self.component(lone[:1], range(1), ((),), lone)] if lone else []
        visited, split = self.walk.visited, self.walk.split
        full = (1 << split) - 1
        for row in range(len(visited)):
            while (m := visited[row]) != full:  # start at the lowest unvisited lo
                comps.append(self.close(row * split + (~m & (m + 1)).bit_length() - 1))
        return comps

    def solve(self, comp: _Component) -> tuple[int, ...] | None:
        """The component's assignment, or None; each distinct sub-instance
        is solved once, after a deadline test.  The component lets go of its
        domains and memo entry."""
        succ, answers = comp.memo
        domains = tuple(comp.domains)
        comp.domains = comp.memo = None
        found = answers.get(domains, _UNSOLVED)
        if found is _UNSOLVED:
            self.budget.check_deadline()
            found = answers[domains] = solve_instance(CspInstance(domains, self.target, succ),
                                                      self.budget)
        return found

    def solved(self, *stages):
        """(component, assignment or None) per component of each stage in
        turn, smallest first within one; the caller stops at a refuted one."""
        for components in stages:
            for comp in sorted(components(), key=_Component.order):
                yield comp, self.solve(comp)


def refuted_on_pins(h: Digraph, sys: IdentitySystem, budget: Budget = Budget()) -> bool:
    """Whether a pinned component of the indicator is refuted, which refutes
    the system; the solver sees `find_polymorphism`'s calls up to there."""
    lazy = _LazyIndicator(h, sys, budget)
    return any(found is None for _, found in lazy.solved(lazy.pinned_components))


def _solve_lazily(h: Digraph, sys: IdentitySystem, budget: Budget) -> tuple[int, ...] | None:
    """The table values `solve_indicator(indicator(h, sys))` gives, or None:
    the pinned components smallest first, then the rest smallest first,
    stopping at the first refuted one."""
    lazy = _LazyIndicator(h, sys, budget)
    solved: list[tuple[_Component, tuple[int, ...]]] = []
    for comp, found in lazy.solved(lazy.pinned_components, lazy.remaining_components):
        if found is None:
            return None
        solved.append((comp, found))
    values = [0] * lazy.total  # after solving, so a refuted search never allocates it
    for comp, found in solved:
        for t, c in zip(comp.tuples, comp.classes):
            values[t] = found[c]
        for t in comp.lone:
            values[t] = found[0]
    return tuple(values)


def find_polymorphism(h: Digraph, sys: IdentitySystem, predicate=None,
                      budget: Budget = Budget()) -> OperationTable | None:
    """A polymorphism of h satisfying the identity system, or None (exhaustive).

    A found table is re-checked to be a polymorphism and, when `predicate`
    is given, to satisfy it; a failed re-check raises VerificationFailed,
    and one past the indicator budget (in edge tuples) a BudgetExceeded.
    """
    values = _solve_lazily(h, sys, budget)
    if values is None:
        return None
    table = OperationTable(h.vertex_count, sys.arity, values)
    try:
        preserved = is_polymorphism(h, table, budget.indicator)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"re-check of the found {sys.arity}-ary table: {exc}") from None
    if not preserved:
        raise VerificationFailed("found table is not a polymorphism of the target")
    if predicate is not None and not predicate(table):
        raise VerificationFailed(f"found table fails {predicate.__name__}")
    return table


def find_wnu(h: Digraph, k: int, budget: Budget = Budget()) -> OperationTable | None:
    """A verified k-ary idempotent WNU polymorphism, or None (exhaustive)."""
    if k < 2:
        raise InvalidParams("WNU arity must be at least 2")
    return find_polymorphism(h, wnu_system(k), is_wnu, budget)


def find_wnu_on_top_bottom(h: Digraph, k: int, a_set, b_set,
                           budget: Budget = Budget()) -> OperationTable | None:
    """A verified idempotent polymorphism that restricts to WNUs on both
    given sets, or None (exhaustive)."""
    sets = [tuple(sorted(a_set)), tuple(sorted(b_set))]

    def is_wnu_on_top_bottom(table: OperationTable) -> bool:
        return is_idempotent(table) and all(_wnu_on(table, vals) for vals in sets)

    return find_polymorphism(h, wnu_on_sets_system(k, sets), is_wnu_on_top_bottom, budget)


def find_majority(h: Digraph, budget: Budget = Budget()) -> OperationTable | None:
    return find_polymorphism(h, majority_system(), is_majority, budget)


def find_siggers(h: Digraph, budget: Budget = Budget()) -> OperationTable | None:
    """A 4-ary idempotent polymorphism with s(a,r,e,a) = s(r,a,r,e), or None.

    Presence certifies a Taylor polymorphism algebra; absence on a core
    certifies the opposite.
    """
    return find_polymorphism(h, siggers_system(), is_siggers, budget)


def find_tsi(h: Digraph, k: int, budget: Budget = Budget()) -> OperationTable | None:
    """A k-ary totally symmetric idempotent polymorphism, or None."""
    if k < 1:
        raise InvalidParams("TSI arity must be at least 1")
    return find_polymorphism(h, tsi_system(k), is_tsi, budget)
