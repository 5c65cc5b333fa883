"""Finite operations and the algebraic machinery over special trees.

An `Operation` is an explicit table or a lazy composition; both have
`size`, `arity` and `apply`, and one may be nested in the other.  The
composition g <- f of an n-ary g with a k-ary f is the kn-ary operation
applying f to n consecutive blocks and g to the results; its arity grows
multiplicatively, so composed operations are never materialized as tables.

The constructive part (binary extensions, weak-pointing certificates, the
full-domain WNU extension) re-verifies every object it builds: certificates
are checked, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial

from .digraph import DEFAULT_POWER_BUDGET, Digraph, diagonal_component, power_index, read_records
from .errors import (
    ArityBudgetExceeded,
    BudgetExceeded,
    ConstructionStuck,
    DistanceNotUniform,
    InvalidFormat,
    MixedLevels,
    NoneFound,
    NotWNU,
    PreconditionViolated,
)
from .spectree import SpecialTree, dist_e, e_neighborhood, preceq

DEFAULT_POLY_BUDGET = 5_000_000
DEFAULT_ARITY_BUDGET = 1 << 16
DEFAULT_CLOSURE_BUDGET = 1_000_000


@dataclass(frozen=True)
class OperationTable:
    """A k-ary operation on 0..size-1 as a value array.

    Values are listed over argument tuples in lexicographic order with the
    leftmost coordinate most significant.
    """

    size: int
    arity: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.size ** self.arity:
            raise ValueError("value array length must be size ** arity")
        if self.values and not (min(self.values) >= 0 and max(self.values) < self.size):
            raise ValueError("table value out of range")

    def apply(self, args) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.values[idx]

    def __call__(self, *args: int) -> int:
        return self.apply(args)


@dataclass(frozen=True)
class ComposeExpr:
    """g <- f: outer g applied to f evaluated on consecutive argument blocks."""

    outer: Operation
    inner: Operation

    def __post_init__(self) -> None:
        if self.outer.size != self.inner.size:
            raise ValueError("composed operations must share a base set")

    @property
    def size(self) -> int:
        return self.outer.size

    @property
    def arity(self) -> int:
        return self.outer.arity * self.inner.arity

    def apply(self, args) -> int:
        k = self.inner.arity
        if len(args) != self.arity:
            raise ValueError("argument count must match arity")
        inner_vals = [
            self.inner.apply(args[i * k:(i + 1) * k]) for i in range(self.outer.arity)]
        return self.outer.apply(inner_vals)


Operation = OperationTable | ComposeExpr


def table_from_function(size: int, arity: int, fn) -> OperationTable:
    values = tuple(fn(args) for args in product(range(size), repeat=arity))
    return OperationTable(size, arity, values)


# identity predicates (independent re-checks for search results)

def is_idempotent(t: OperationTable) -> bool:
    return all(t.apply((x,) * t.arity) == x for x in range(t.size))


def _wnu_on(t: OperationTable, vals) -> bool:
    """Idempotent on `vals`, with all one-differing-argument patterns over
    `vals` equal."""
    k = t.arity
    for x in vals:
        if t.apply((x,) * k) != x:
            return False
        for y in vals:
            base = t.apply((y,) + (x,) * (k - 1))
            for pos in range(1, k):
                if t.apply((x,) * pos + (y,) + (x,) * (k - 1 - pos)) != base:
                    return False
    return True


def is_wnu(t: OperationTable) -> bool:
    """Idempotent with all one-differing-argument patterns equal."""
    return _wnu_on(t, range(t.size))


def is_majority(t: OperationTable) -> bool:
    if t.arity != 3:
        return False
    return all(
        t(y, x, x) == x and t(x, y, x) == x and t(x, x, y) == x
        for x in range(t.size) for y in range(t.size))


def is_tsi(t: OperationTable) -> bool:
    """Idempotent and depending only on the set of arguments."""
    if not is_idempotent(t):
        return False
    by_set: dict[frozenset[int], int] = {}
    for args in product(range(t.size), repeat=t.arity):
        key = frozenset(args)
        val = t.apply(args)
        if by_set.setdefault(key, val) != val:
            return False
    return True


def is_siggers(t: OperationTable) -> bool:
    if t.arity != 4 or not is_idempotent(t):
        return False
    r = range(t.size)
    return all(t(a, x, e, a) == t(x, a, x, e) for a in r for x in r for e in r)


def restriction_is_wnu(t: OperationTable, subset: frozenset[int]) -> bool:
    """The restriction to `subset` is a WNU operation on it (closure included)."""
    sub = sorted(subset)
    return (all(t.apply(args) in subset for args in product(sub, repeat=t.arity))
            and _wnu_on(t, sub))


def is_polymorphism(h: Digraph, op: Operation,
                    budget: int = DEFAULT_POLY_BUDGET) -> bool:
    """Edge preservation, exhaustive over edge tuples within the budget.

    A table is checked by index arithmetic: for each choice of the first
    k - 1 edges, the tail and head indices of that prefix are computed once,
    and each last edge is tested against per-vertex successor bitmasks.  A
    composition (or a nullary table) is applied tuple by tuple.
    """
    if op.size != h.vertex_count:
        raise ValueError("operation base size must match the digraph")
    k = op.arity
    edges = h.edges_sorted
    if not edges:
        return True
    if len(edges) ** k > budget:
        raise BudgetExceeded(
            f"{len(edges)}^{k} edge tuples exceed budget {budget}")
    if isinstance(op, OperationTable) and k > 0:
        return _table_preserves_edges(h, op)
    for chosen in product(edges, repeat=k):
        tail = op.apply([e[0] for e in chosen])
        head = op.apply([e[1] for e in chosen])
        if (tail, head) not in h.edges:
            return False
    return True


def _table_preserves_edges(h: Digraph, table: OperationTable) -> bool:
    n, values, edges = table.size, table.values, h.edges_sorted
    succ = h.out_masks
    for prefix in product(edges, repeat=table.arity - 1):
        tail = head = 0
        for u, v in prefix:
            tail = tail * n + u
            head = head * n + v
        tail *= n
        head *= n
        for u, v in edges:
            if not succ[values[tail + u]] >> values[head + v] & 1:
                return False
    return True


# polymer / special WNU / star

def binary_polymer(w: OperationTable) -> OperationTable:
    """x o y = w(x, ..., x, y), read at index x * (n^(k-1) + ... + n) + y;
    requires w to be a WNU."""
    if not is_wnu(w):
        raise NotWNU("binary polymer requires a verified WNU table")
    n, wv = w.size, w.values
    stride = sum(n ** i for i in range(1, w.arity))
    return OperationTable(n, 2, tuple(wv[x * stride + y] for x in range(n) for y in range(n)))


def _is_special_polymer(p: OperationTable) -> bool:
    n, pv = p.size, p.values
    return all(pv[x * n + pv[x * n + y]] == pv[x * n + y] for x in range(n) for y in range(n))


def make_special(w: OperationTable) -> tuple[Operation, OperationTable]:
    """Iterate self-composition of a WNU until its polymer is special.

    The polymer of the m-fold composition sends (x, y) to the m-th iterate
    of z -> x o z applied to y, so only polymer tables are materialized; the
    composed WNU is returned as a lazy composition (w itself when m is 1).
    Specialness of the m-th polymer p is p(x, p(x, y)) = p(x, y); some
    m <= size! always works.
    """
    base = binary_polymer(w)
    n, bv = w.size, base.values
    expr: Operation = w
    polymer = base
    m = 1
    cap = factorial(n)
    while not _is_special_polymer(polymer):
        if m >= cap:
            raise ConstructionStuck("special polymer must appear within size! iterates")
        polymer = OperationTable(n, 2, tuple(
            bv[i - i % n + z] for i, z in enumerate(polymer.values)))
        expr = ComposeExpr(w, expr)
        m += 1
    return expr, polymer


def star_table(polymer: OperationTable) -> OperationTable:
    """x * y: fold x through `size` right-applications of o to y, applying
    the column z -> z o y (index z * size + y) to every x at once."""
    if polymer.arity != 2:
        raise ValueError("polymer must be binary")
    n, values = polymer.size, polymer.values
    out = [0] * (n * n)
    for y in range(n):
        column = values[y::n]
        zs = range(n)
        for _ in range(n):
            zs = [column[z] for z in zs]
        out[y::n] = zs
    return OperationTable(n, 2, tuple(out))


# binary star-terms: 'x', 'y', or ('star', t1, t2)

Term = object


def eval_term(term, star: OperationTable, x: int, y: int) -> int:
    if term == "x":
        return x
    if term == "y":
        return y
    _, left, right = term
    return star(eval_term(left, star, x, y), eval_term(right, star, x, y))


def term_uses_both(term) -> bool:
    def vars_of(t):
        if isinstance(t, str):
            return {t}
        return vars_of(t[1]) | vars_of(t[2])

    return vars_of(term) == {"x", "y"}


def s_set(c: int, cp: int, star: OperationTable) -> tuple[frozenset[int], dict[int, Term]]:
    """Values of all binary star-terms using both variables, at (c, cp).

    Returns the value set together with one witnessing term per value.
    The generating rules: seed with x*y and y*x; for a known term t, add
    x*t, y*t, t*x, t*y; for known t, t', add t*t'.
    """
    terms: dict[int, Term] = {}
    queue: list[tuple[int, Term]] = []

    def add(val: int, term: Term) -> None:
        if val not in terms:
            terms[val] = term
            queue.append((val, term))

    add(star(c, cp), ("star", "x", "y"))
    add(star(cp, c), ("star", "y", "x"))
    i = 0
    while i < len(queue):
        val, term = queue[i]
        i += 1
        add(star(c, val), ("star", "x", term))
        add(star(cp, val), ("star", "y", term))
        add(star(val, c), ("star", term, "x"))
        add(star(val, cp), ("star", term, "y"))
        for other_val, other_term in list(terms.items()):
            add(star(val, other_val), ("star", term, other_term))
            add(star(other_val, val), ("star", other_term, term))
    return frozenset(terms), terms


# certificates

@dataclass(frozen=True)
class WeakPointingCertificate:
    """op weakly points x_set into y_set with one witness tuple per coordinate.

    When alpha is present the certificate is symmetric: plugging any u from
    alpha's domain into coordinate i of the i-th witness yields alpha[u]
    regardless of i.
    """

    op: Operation
    x_set: frozenset[int]
    y_set: frozenset[int]
    witnesses: tuple[tuple[int, ...], ...]
    alpha: dict[int, int] | None = None


def verify_weak_pointing(cert: WeakPointingCertificate) -> bool:
    n = cert.op.arity
    if len(cert.witnesses) != n or any(len(w) != n for w in cert.witnesses):
        return False
    for i in range(n):
        base = list(cert.witnesses[i])
        for x in sorted(cert.x_set):
            base[i] = x
            if cert.op.apply(base) not in cert.y_set:
                return False
        if cert.alpha is not None:
            for u, target in sorted(cert.alpha.items()):
                base[i] = u
                if cert.op.apply(base) != target:
                    return False
    return True


def trivial_pointing(op: Operation, x: int) -> WeakPointingCertificate:
    """Points {x} to {x} with all-x witnesses; needs only idempotency at x."""
    wit = tuple(((x,) * op.arity,) * op.arity)
    cert = WeakPointingCertificate(op, frozenset({x}), frozenset({x}), wit)
    if not verify_weak_pointing(cert):
        raise ConstructionStuck(f"operation is not idempotent at {x}")
    return cert


def compose_pointing(f_cert: WeakPointingCertificate,
                     g_cert: WeakPointingCertificate) -> WeakPointingCertificate:
    """Certificate for g <- f pointing f's sources to g's targets.

    Witness tuples interleave g's witnesses (each entry repeated blockwise)
    with one f witness in the distinguished block; idempotency of f makes
    the repeated blocks collapse to g's witness entries.
    """
    if f_cert.op.size != g_cert.op.size:
        raise PreconditionViolated("certificates must share a base set")
    if not verify_weak_pointing(f_cert) or not verify_weak_pointing(g_cert):
        raise PreconditionViolated("input certificates must verify")
    if not f_cert.y_set <= g_cert.x_set:
        raise PreconditionViolated("inner targets must lie in outer sources")
    k = f_cert.op.arity
    n = g_cert.op.arity
    witnesses = []
    for i in range(n):
        b = g_cert.witnesses[i]
        for j in range(k):
            a = f_cert.witnesses[j]
            tup: list[int] = []
            for l in range(n):
                if l == i:
                    tup.extend(a)
                else:
                    tup.extend([b[l]] * k)
            witnesses.append(tuple(tup))
    alpha = None
    if f_cert.alpha is not None and g_cert.alpha is not None:
        alpha = {
            u: g_cert.alpha[v] for u, v in f_cert.alpha.items() if v in g_cert.alpha}
        if not alpha:
            alpha = None
    out = WeakPointingCertificate(
        ComposeExpr(g_cert.op, f_cert.op), f_cert.x_set, g_cert.y_set,
        tuple(witnesses), alpha)
    if not verify_weak_pointing(out):
        raise ConstructionStuck("composed pointing certificate failed verification")
    return out


def absorbs(op: Operation, superset: frozenset[int], subset: frozenset[int],
            budget: int = DEFAULT_CLOSURE_BUDGET) -> bool:
    """True iff the nonempty subset absorbs the superset via op: both are
    closed under op, and op lands in the subset whenever all but one
    argument lie there."""
    if not subset or not subset <= superset:
        return False
    k = op.arity
    if len(superset) ** k > budget:
        raise BudgetExceeded("absorption check exceeds budget")
    sup, sub = sorted(superset), sorted(subset)
    if any(op.apply(args) not in superset for args in product(sup, repeat=k)):
        return False
    if any(op.apply(args) not in subset for args in product(sub, repeat=k)):
        return False
    for i in range(k):
        for free in sup:
            for rest in product(sub, repeat=k - 1):
                if op.apply(rest[:i] + (free,) + rest[i:]) not in subset:
                    return False
    return True


# singleton absorption over a special tree

def find_singleton_absorber(tree: SpecialTree, polymer: OperationTable) -> int:
    """Least template vertex o with o o w = o across its two-step neighborhood.

    Existence is guaranteed when `polymer` is the special polymer of a WNU
    polymorphism; absence therefore diagnoses a failed precondition.
    """
    for u in sorted(tree.a_vertices | tree.b_vertices):
        e2 = e_neighborhood(tree, frozenset({u}), 2)
        if all(polymer(u, w) == u for w in sorted(e2)):
            return u
    raise NoneFound("no singleton absorber; polymer is not special or tree not Taylor")


def comparable_pair_failure(tree: SpecialTree, o: int,
                            op: OperationTable) -> tuple[int, int] | None:
    """The first comparable template pair a <= a' (on A, then on B, in
    sorted order) with op(a, a') != a, or None."""
    for side in (tree.a_vertices, tree.b_vertices):
        for a in sorted(side):
            for ap in sorted(side):
                if preceq(tree, o, a, ap) and op(a, ap) != a:
                    return a, ap
    return None


# binary extension machinery

def _anchor_map(tree: SpecialTree, anchor: int, c_list: list[int]) -> list[int | None]:
    """Per vertex: the unique c whose side of the tree (relative to the
    anchor) contains it, or None.

    A vertex's side is its ancestor next to the anchor in the tree rooted
    at the anchor; each c in c_list must have a side of its own, and that
    side holds exactly the vertices strictly between the anchor and c or
    at/beyond c.
    """
    parent = tree.parents_from(anchor)

    def side(v: int) -> int:
        while parent[v] != anchor:
            v = parent[v]
        return v

    by_side: dict[int, int] = {}
    for c in c_list:
        s = side(c)
        if s in by_side:
            raise PreconditionViolated(f"{by_side[s]} and {c} share a side of the anchor")
        by_side[s] = c
    return [None if v == anchor else by_side.get(side(v))
            for v in range(tree.digraph.vertex_count)]


def _check_template_neighbors(tree: SpecialTree, anchor: int, c_list) -> None:
    pairs = set(tree.template_pairs)
    for c in c_list:
        if (c, anchor) not in pairs and (anchor, c) not in pairs:
            raise PreconditionViolated(
                f"{c} is not a template neighbor of anchor {anchor}")


def extend_binary(tree: SpecialTree, anchor: int, c_set: frozenset[int],
                  gamma: dict[tuple[int, int], int], star: OperationTable,
                  terms: dict[tuple[int, int], Term]) -> OperationTable:
    """Extend gamma on c_set to a binary idempotent polymorphism of the tree.

    Above the anchor (at equal levels, both arguments on sides holding some
    c, c') the value is the witnessing star-term for gamma(c, c'); elsewhere
    it is x * y.  The output is verified; failure diagnoses a set that was
    not absorption-free.
    """
    c_list = sorted(c_set)
    _check_template_neighbors(tree, anchor, c_list)
    for c in c_list:
        for cp in c_list:
            val = gamma.get((c, cp))
            if val is None:
                raise PreconditionViolated(f"gamma missing pair ({c}, {cp})")
            term = terms.get((c, cp))
            if term is None or not term_uses_both(term):
                raise PreconditionViolated(f"no witnessing term for ({c}, {cp})")
            if eval_term(term, star, c, cp) != val:
                raise PreconditionViolated(
                    f"term for ({c}, {cp}) evaluates off gamma; value outside its term set")
    anchor_of = _anchor_map(tree, anchor, c_list)
    lv = tree.levels
    n = tree.digraph.vertex_count

    def fill(args):
        x, y = args
        cx, cy = anchor_of[x], anchor_of[y]
        if cx is not None and cy is not None and lv[x] == lv[y]:
            return eval_term(terms[(cx, cy)], star, x, y)
        return star(x, y)

    tau = table_from_function(n, 2, fill)
    if not is_idempotent(tau):
        raise ConstructionStuck("extension is not idempotent")
    if any(tau(c, cp) != gamma[(c, cp)] for c in c_list for cp in c_list):
        raise ConstructionStuck("extension disagrees with gamma on the set")
    if not is_polymorphism(tree.digraph, tau):
        raise ConstructionStuck(
            "extension is not a polymorphism; the set is not absorption-free")
    return tau


def _commutative_gamma(c_list: list[int], star: OperationTable,
                       overrides: dict[tuple[int, int], int]
                       ) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], Term]]:
    """A commutative gamma with each value drawn from the pair's term set."""
    gamma: dict[tuple[int, int], int] = {}
    terms: dict[tuple[int, int], Term] = {}
    for c in c_list:
        for cp in c_list:
            if (c, cp) in gamma:
                continue
            values, value_terms = s_set(c, cp, star)
            if c == cp:
                val = c
            elif (c, cp) in overrides:
                val = overrides[(c, cp)]
                if val not in values:
                    raise PreconditionViolated(
                        f"override {val} outside the term set of ({c}, {cp})")
            else:
                val = min(values)
            gamma[(c, cp)] = val
            terms[(c, cp)] = value_terms[val]
            # mirrored entry: same value, term with variables swapped
            _, rev_terms = s_set(cp, c, star)
            gamma[(cp, c)] = overrides.get((cp, c), val)
            if gamma[(cp, c)] != val:
                raise PreconditionViolated("overrides must be commutative")
            terms[(cp, c)] = rev_terms[val]
    return gamma, terms


def _point_pair(tree: SpecialTree, anchor: int, c_list: list[int],
                star: OperationTable, x: int, y: int,
                arity_budget: int) -> WeakPointingCertificate:
    """A symmetric certificate pointing {x, y} to a singleton.

    Induction on the size of the pair's term set: either one of x, y already
    lies in it (one binary extension suffices), or both are first pushed into
    the strictly smaller term set of (x * (x*y), y * (x*y)) and the smaller
    instance is composed on top.
    """
    def certify(overrides: dict, witness: int, targets: set[int]) -> WeakPointingCertificate:
        gamma, terms = _commutative_gamma(c_list, star, overrides)
        tau = extend_binary(tree, anchor, frozenset(c_list), gamma, star, terms)
        cert = WeakPointingCertificate(
            tau, frozenset({x, y}), frozenset(targets),
            ((witness, witness), (witness, witness)), {u: tau(u, witness) for u in c_list})
        if not verify_weak_pointing(cert):
            raise ConstructionStuck("pair certificate failed verification")
        return cert

    values, _ = s_set(x, y, star)
    if x in values or y in values:
        z = x if x in values else y
        return certify({(x, y): z, (y, x): z} if x != y else {}, z, {z})
    c = star(x, y)
    xp, yp = star(x, c), star(y, c)
    smaller, _ = s_set(xp, yp, star)
    if not (smaller | {xp, yp}) < (values | {x, y}):
        raise ConstructionStuck("pair recursion measure did not shrink")
    first = certify({(x, c): xp, (c, x): xp, (y, c): yp, (c, y): yp}, c, {xp, yp})
    rest = _point_pair(tree, anchor, c_list, star, xp, yp, arity_budget)
    if first.op.arity * rest.op.arity > arity_budget:
        raise ArityBudgetExceeded("composed pair certificate exceeds arity budget")
    return compose_pointing(first, rest)


def build_pointing_for_neighborhood(
        tree: SpecialTree, anchor: int, c_set: frozenset[int], star: OperationTable,
        arity_budget: int = DEFAULT_ARITY_BUDGET) -> WeakPointingCertificate:
    """A certificate weakly pointing a neighborhood subuniverse to a singleton.

    c_set must consist of template neighbors of the anchor, be closed under
    star, and be absorption-free; a wrong absorption-freeness assertion
    surfaces as ConstructionStuck from the inner constructions.
    """
    if not c_set:
        raise PreconditionViolated("cannot point an empty set")
    c_list = sorted(c_set)
    _check_template_neighbors(tree, anchor, c_list)
    for c in c_list:
        for cp in c_list:
            if star(c, cp) not in c_set:
                raise ConstructionStuck("set is not closed under star")

    def point_set(xs: tuple[int, ...]) -> WeakPointingCertificate:
        if len(xs) == 1:
            return trivial_pointing(star, xs[0])
        x, y = xs[0], xs[1]
        pair_cert = _point_pair(tree, anchor, c_list, star, x, y, arity_budget)
        if pair_cert.alpha is None:
            raise ConstructionStuck("pair certificate carries no symmetric map")
        targets = frozenset(pair_cert.alpha[u] for u in xs)
        widened = WeakPointingCertificate(
            pair_cert.op, frozenset(xs), targets, pair_cert.witnesses, pair_cert.alpha)
        if not verify_weak_pointing(widened):
            raise ConstructionStuck("widened pair certificate failed verification")
        if len(targets) >= len(xs):
            raise ConstructionStuck("pointing did not shrink the set")
        rest = point_set(tuple(sorted(targets)))
        if widened.op.arity * rest.op.arity > arity_budget:
            raise ArityBudgetExceeded("composed certificate exceeds arity budget")
        return compose_pointing(widened, rest)

    return point_set(tuple(c_list))


def build_pointing_for_af(
        tree: SpecialTree, c_set: frozenset[int], o: int, polymer: OperationTable,
        arity_budget: int = DEFAULT_ARITY_BUDGET) -> WeakPointingCertificate:
    """Pointing certificate for an absorption-free subuniverse of A or B.

    Recursion on the common template distance from o: project through the
    unique toward-o neighbor map onto the strictly closer image set, point
    that, then finish inside the single fiber returned.
    """
    if not c_set:
        raise PreconditionViolated("cannot point an empty set")
    if not (c_set <= tree.a_vertices or c_set <= tree.b_vertices):
        raise MixedLevels("set must lie within A or within B")
    star = star_table(polymer)
    dists = {dist_e(tree, o, c) for c in c_set}
    if len(dists) != 1:
        raise DistanceNotUniform(
            f"distances {sorted(dists)} from {o}; the set is not absorption-free")
    (k,) = dists
    if k == 0:
        return trivial_pointing(star, o)
    if k == 1:
        return build_pointing_for_neighborhood(tree, o, c_set, star, arity_budget)
    d_set = e_neighborhood(tree, c_set, 1) & e_neighborhood(tree, frozenset({o}), k - 1)
    if len(d_set) == 1:
        (d,) = d_set
        return build_pointing_for_neighborhood(tree, d, c_set, star, arity_budget)
    eta: dict[int, int] = {}
    for c in sorted(c_set):
        toward = [w for w in tree.template_adjacency[c] if dist_e(tree, o, w) == k - 1]
        if len(toward) != 1:
            raise ConstructionStuck(f"{c} has {len(toward)} neighbors toward {o}")
        eta[c] = toward[0]
    if set(eta.values()) != d_set:
        raise ConstructionStuck("toward-o projection is not onto the image set")
    upper = build_pointing_for_af(tree, frozenset(d_set), o, polymer, arity_budget)
    (d,) = upper.y_set
    fiber = frozenset(c for c in c_set if eta[c] == d)
    preimages: dict[int, int] = {}
    for c in sorted(c_set, reverse=True):
        preimages[eta[c]] = c  # keep the least preimage per image
    lifted_witnesses = []
    for wit in upper.witnesses:
        if any(v not in preimages for v in wit):
            raise ConstructionStuck("witness entries left the image set; cannot lift")
        lifted_witnesses.append(tuple(preimages[v] for v in wit))
    lifted = WeakPointingCertificate(
        upper.op, c_set, fiber, tuple(lifted_witnesses))
    if not verify_weak_pointing(lifted):
        raise ConstructionStuck("lifted certificate failed verification")
    finish = build_pointing_for_neighborhood(tree, d, fiber, star, arity_budget)
    if lifted.op.arity * finish.op.arity > arity_budget:
        raise ArityBudgetExceeded("composed certificate exceeds arity budget")
    return compose_pointing(lifted, finish)


# full-domain WNU extension

def _odd_position(pattern: tuple[int, ...], default: int) -> int:
    """-1 if every entry agrees; else the position of the one entry that
    differs from all others, which agree; else `default`."""
    if len(set(pattern)) == 1:
        return -1
    for i in range(len(pattern)):
        others = set(pattern[:i] + pattern[i + 1:])
        if len(others) == 1 and pattern[i] not in others:
            return i
    return default


def _wnu_extension_values(tree: SpecialTree, tau: OperationTable,
                          delta: frozenset[int]) -> list[int]:
    """The value list of `extend_wnu`, from tau's by one lexicographic walk.

    Rows share their first n - 1 coordinates.  Per row the off-component
    answer (least interior vertex, or which coordinate to return) is looked
    up per level of the last coordinate from a memo over level patterns.
    Tuples that keep tau's value are never written.
    """
    size, n, tv = tau.size, tau.arity, tau.values
    last = n - 1
    side = [{"A": 0, "B": 1}.get(role[0], 2) for role in tree.roles]
    edge_of = [role[1] if role[0] == "P" else -1 for role in tree.roles]
    by_rank = [v for *_, v in sorted(
        (role[1], role[2], v) for v, role in enumerate(tree.roles) if role[0] == "P")]
    rank = [by_rank.index(v) if edge_of[v] >= 0 else size for v in range(size)]
    lv, height = tree.levels.levels, tree.levels.height
    in_delta = bytearray(size ** n)
    for t in delta:
        in_delta[t] = 1
    out = list(tv)
    picks: dict[tuple[int, ...], list[int]] = {}
    for row, prefix in zip(range(0, size ** n, size), product(range(size), repeat=last)):
        kept = side[prefix[0]]
        if kept == 2 or any(side[u] != kept for u in prefix):
            kept = -1
        plv = tuple(lv[u] for u in prefix)
        pick = picks.get(plv)
        if pick is None:
            pick = picks[plv] = [
                _odd_position(plv + (level,), 0) for level in range(height + 1)]
        pe = tuple(edge_of[u] for u in prefix)
        on_paths = min(pe) >= 0
        least = min(rank[u] for u in prefix)
        for v in range(size):
            if side[v] == kept:
                continue  # top and bottom tuples keep tau's value
            if in_delta[row + v]:
                if not on_paths or edge_of[v] < 0:
                    raise ConstructionStuck(
                        f"diagonal-component tuple {prefix + (v,)} leaves the paths")
                i = _odd_position(pe + (edge_of[v],), n)
                if i < 0:
                    out[row + v] = by_rank[min(least, rank[v])]
                elif i < n:
                    args = prefix + (v,)
                    out[row + v] = tv[power_index(size, (args[i],) + args[:i] + args[i + 1:])]
                continue
            j = pick[lv[v]]
            if j == last:
                out[row + v] = v
            elif j >= 0:
                out[row + v] = prefix[j]
            elif not on_paths or edge_of[v] < 0:
                raise ConstructionStuck(f"one-level tuple {prefix + (v,)} leaves the paths")
            else:
                out[row + v] = by_rank[min(least, rank[v])]
    return out


def extend_wnu(tree: SpecialTree, tau: OperationTable,
               power_budget: int = DEFAULT_POWER_BUDGET,
               delta: frozenset[int] | None = None) -> OperationTable:
    """Turn a polymorphism that is a WNU on the top and bottom levels into a
    WNU on the whole tree.

    The value is redefined case by case over the n-th power: kept on top and
    bottom tuples; on the diagonal component either the least interior
    vertex (single attached path), a rotation pulling the odd coordinate
    first (exactly two paths), or tau; off the diagonal component either the
    least interior vertex, the odd coordinate out, or the first coordinate.
    The least-vertex order ranks attached paths by template edge index and
    breaks ties toward the bottom endpoint.  The table is built by one
    index walk over the power (`_wnu_extension_values`) and re-checked.
    `delta` is the diagonal component of the n-th power when the caller
    already has it (None: computed here).
    """
    n = tau.arity
    h = tree.digraph
    size = h.vertex_count
    if n < 3:
        raise PreconditionViolated("arity must be at least 3")
    if tau.size != size:
        raise PreconditionViolated("table base must match the tree")
    if not is_idempotent(tau) or not is_polymorphism(h, tau):
        raise PreconditionViolated("input must be an idempotent polymorphism")
    if not restriction_is_wnu(tau, tree.a_vertices):
        raise PreconditionViolated("input is not a WNU on the bottom level")
    if not restriction_is_wnu(tau, tree.b_vertices):
        raise PreconditionViolated("input is not a WNU on the top level")
    if size ** n > power_budget:
        raise BudgetExceeded("power membership set exceeds budget")
    if delta is None:
        delta = diagonal_component(h, n, power_budget)
    out = OperationTable(size, n, tuple(_wnu_extension_values(tree, tau, delta)))
    if not is_polymorphism(h, out):
        raise ConstructionStuck("extension is not a polymorphism")
    if not is_wnu(out):
        raise ConstructionStuck("extension is not a WNU")
    return out


# .op text format: `op <n> <k>` then n^k value lines.

def format_op(t: OperationTable) -> str:
    names = [f"{v}\n" for v in range(t.size)]  # shared by every entry: no str per entry
    return f"op {t.size} {t.arity}\n" + "".join(map(names.__getitem__, t.values))


def parse_op(text: str) -> OperationTable:
    head, (size, arity), body = read_records(text, "op", 2, "operation")
    if size < 0 or arity < 0:
        raise InvalidFormat(f"negative size or arity: {head!r}")
    if size >= 2 and arity * size.bit_length() > 10_000:
        # size ** arity is over 2 ** 5000, so not len: not computed, nor formatted
        raise InvalidFormat(f"expected {size}^{arity} values, found {len(body)}")
    if len(body) != size ** arity:
        raise InvalidFormat(f"expected {size ** arity} values, found {len(body)}")
    try:
        values = tuple(map(int, body))
    except ValueError:
        for ln in body:  # find the line to name
            try:
                int(ln)
            except ValueError:
                raise InvalidFormat(f"bad value line: {ln!r}") from None
    try:
        return OperationTable(size, arity, values)
    except ValueError as exc:
        raise InvalidFormat(str(exc)) from exc
