"""Core computation and the dichotomy pipeline for special trees.

A core special tree either has no Siggers polymorphism (its coloring
problem is NP-complete) or has one, in which case a Taylor special tree is
congruence meet-semidistributive and the problem has bounded width.  The
classifier computes the core, certifies it is again a special tree, runs
the width searches (majority, 3-ary WNU) and the Siggers search on it, and
reports the verdict with timings.  Every majority operation is an
idempotent 3-ary WNU, so one WNU3 pinned component refuted on the core
(`refuted_on_pins`) answers both width searches with "none".
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import product

from .algebra import (
    _is_special_polymer,
    comparable_pair_failure,
    eval_term,
    extend_wnu,
    find_singleton_absorber,
    is_polymorphism,
    make_special,
    s_set,
    star_table,
)
from .digraph import Digraph, diagonal_component, power_index
from .errors import (
    Budget,
    BudgetExceeded,
    ConstructionStuck,
    HcolorError,
    NoneFound,
    VerificationFailed,
)
from .homsolver import CspInstance, is_homomorphism, solve_instance
from .polysearch import (
    find_majority,
    find_siggers,
    find_wnu,
    find_wnu_on_top_bottom,
    refuted_on_pins,
    wnu_system,
)
from .spectree import (
    SpecialTree,
    SpecialTreeSpec,
    compile_tree,
    e_neighborhood,
    preceq,
    spec_from_core,
)

NP_COMPLETE = "NP_COMPLETE"
BOUNDED_WIDTH = "BOUNDED_WIDTH"
UNDETERMINED = "UNDETERMINED"
TAYLOR = "TAYLOR"
NOT_TAYLOR = "NOT_TAYLOR"
BUDGET_SKIPPED = "skipped: budget exceeded"  # a check the budgets cut short


@dataclass(frozen=True)
class CoreResult:
    """A certified core with the maps both ways."""

    core: Digraph
    retraction: tuple[int, ...]  # original vertex -> core vertex
    embedding: tuple[int, ...]  # core vertex -> original vertex


def _check_hom(x: Digraph, h: Digraph, mapping: tuple[int, ...], what: str) -> None:
    if not is_homomorphism(x, h, mapping):
        raise VerificationFailed(f"core step: {what} is not a homomorphism")


def _proper_endomorphism(g: Digraph, budget: Budget) -> tuple[int, ...] | None:
    """An endomorphism that is not onto, or None when g is a core.

    g is a core iff every endomorphism is onto (Hell and Nesetril, 1992).
    For each vertex w in turn, one probe asks for an endomorphism that never
    takes the value w; the probes share g's edge masks and memos.  The
    first endomorphism found is re-checked and returned; when every probe
    is refuted, the refutations certify that g is a core.
    """
    full = (1 << g.vertex_count) - 1
    for w in range(g.vertex_count):
        endo = solve_instance(CspInstance((full & ~(1 << w),) * g.vertex_count,
                                          g, g.out_neighbors), budget)
        if endo is not None:
            _check_hom(g, g, endo, "endomorphism")
            return endo
    return None


def _idempotent_power(endo: tuple[int, ...]) -> tuple[int, ...]:
    """The power of the endomorphism that is a retraction (f o f = f).

    The powers of a self-map of a finite set run into a cycle, and exactly
    one of them is idempotent; the powers are walked until it appears.
    """
    r = endo
    while any(r[r[x]] != r[x] for x in range(len(r))):
        r = tuple(endo[x] for x in r)
    return r


def compute_core(g: Digraph, budget: Budget = Budget()) -> CoreResult:
    """Iterated proper retractions down to a structure with none left.

    Each step takes the first vertex-avoiding endomorphism a probe finds,
    converts it into an idempotent retraction, and restricts to its image;
    the last round's n refuted probes certify minimality (see
    `_proper_endomorphism`).
    """
    current = g
    overall = tuple(range(g.vertex_count))  # original vertex -> current vertex
    embedding = tuple(range(g.vertex_count))  # current vertex -> original vertex
    while True:
        endo = _proper_endomorphism(current, budget)
        if endo is None:
            break
        retr = _idempotent_power(endo)
        _check_hom(current, current, retr, "retraction")
        image = sorted(set(retr))
        if len(image) == current.vertex_count:
            raise VerificationFailed("core step: retraction is onto")
        relabel = {w: i for i, w in enumerate(image)}
        edges = {(relabel[a], relabel[b]) for a, b in current.edges
                 if a in relabel and b in relabel}
        current = Digraph.from_edges(len(image), edges)
        overall = tuple(relabel[retr[w]] for w in overall)
        embedding = tuple(embedding[w] for w in image)
    _check_hom(g, current, overall, "map onto the core")
    _check_hom(current, g, embedding, "core embedding")
    return CoreResult(current, overall, embedding)


@dataclass
class ClassificationReport:
    """Classifier outcome.

    is_core records that the Taylor decision ran on a certified core
    (compute_core finished and its minimality certificate passed).
    """

    input_summary: dict
    is_core: bool
    core_size: int
    taylor: str
    width_certificates: dict
    verdict: str
    timings: dict
    seeds: dict

    def to_dict(self) -> dict:
        return asdict(self)


def classify_special_tree(spec: SpecialTreeSpec, budget: Budget = Budget(),
                          seed: int = 0) -> ClassificationReport:
    """Compile, take the core, decide Taylor via the Siggers search.

    Refuted on the core means NP-complete; found means bounded width for a
    special tree.
    """
    tree = compile_tree(spec)
    summary = {
        "vertices": tree.digraph.vertex_count,
        "edges": len(tree.digraph.edges),
        "height": spec.height,
        "a_count": spec.a_count,
        "b_count": spec.b_count,
    }
    return _classify(tree.digraph, summary, True, budget, seed)


def classify_digraph(g: Digraph, budget: Budget = Budget(), seed: int = 0) -> ClassificationReport:
    """Same pipeline for arbitrary digraphs; the verdict is capped at the
    Taylor / not-Taylor distinction."""
    summary = {"vertices": g.vertex_count, "edges": len(g.edges)}
    return _classify(g, summary, False, budget, seed)


def _classify(g: Digraph, summary: dict, special: bool, budget: Budget,
              seed: int) -> ClassificationReport:
    """Core, then (special trees only) width certificates, then Siggers.

    The width stage first probes the WNU3 indicator's pinned components: a
    refuted one refutes the whole indicator and so every majority operation
    too.  Otherwise, or when the probe runs out of budget, it searches for
    majority, and for a WNU3 unless majority was found.  Every stage runs
    under the one budget record, whose deadline the searches test as they
    go; exhaustion folds into UNDETERMINED.
    """
    started = time.perf_counter()
    timings: dict[str, float] = {}
    width: dict[str, str] = {}
    seeds: dict = {"seed": seed}
    try:
        core = compute_core(g, budget).core
    except BudgetExceeded:
        core = None
    timings["core"] = time.perf_counter() - started
    if core is None:
        return ClassificationReport(summary, False, -1, "budget_exceeded", width,
                                    UNDETERMINED, timings, seeds)

    def search(find, *args) -> str:
        """One search on the core: "found", "none" or "budget_exceeded"."""
        try:
            return "none" if find(core, *args, budget) is None else "found"
        except BudgetExceeded:
            return "budget_exceeded"

    if special:
        try:
            # certifies the core is a special tree
            seeds["core_height"] = spec_from_core(core).height
        except HcolorError as exc:
            seeds["diagnostic"] = str(exc)
            return ClassificationReport(summary, True, core.vertex_count, "not_attempted",
                                        width, UNDETERMINED, timings, seeds)
        t0 = time.perf_counter()
        try:
            refuted = refuted_on_pins(core, wnu_system(3), budget)
        except BudgetExceeded:
            refuted = False
        if refuted:
            width["majority"] = width["wnu3"] = "none"
        else:
            width["majority"] = search(find_majority)
            width["wnu3"] = "found" if width["majority"] == "found" else search(find_wnu, 3)
        timings["width_certificates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    outcome = search(find_siggers)
    timings["siggers"] = time.perf_counter() - t0
    found, refuted = (BOUNDED_WIDTH, NP_COMPLETE) if special else (TAYLOR, NOT_TAYLOR)
    taylor, verdict = {"found": ("siggers_found", found),
                       "none": ("refuted", refuted),
                       "budget_exceeded": ("budget_exceeded", UNDETERMINED)}[outcome]
    return ClassificationReport(summary, True, core.vertex_count, taylor, width, verdict,
                                timings, seeds)


def _check_diagonal_containment(tree: SpecialTree, n: int, delta: frozenset[int] | None) -> str:
    size = tree.digraph.vertex_count
    if delta is None:
        return BUDGET_SKIPPED
    for side in (tree.a_vertices, tree.b_vertices):
        for tup in product(sorted(side), repeat=n):
            if power_index(size, tup) not in delta:
                return f"fail: tuple {tup} outside the diagonal component"
    return "pass"


def _check_sset_identities(tree: SpecialTree, star) -> str:
    for side in (tree.a_vertices, tree.b_vertices):
        vs = sorted(side)
        for c in vs:
            values, _ = s_set(c, c, star)
            if values != frozenset({c}):
                return f"fail: terms at ({c}, {c}) reach {sorted(values)}"
            for cp in vs:
                sa, ta = s_set(c, cp, star)
                sb, _ = s_set(cp, c, star)
                if sa != sb:
                    return f"fail: term sets at ({c}, {cp}) are not symmetric"
                for val, term in ta.items():
                    if eval_term(term, star, c, cp) != val:
                        return f"fail: witnessing term broken at ({c}, {cp})"
    return "pass"


def _check_star_collapse_below(tree: SpecialTree, o: int, star) -> str:
    """On each side (A, then B), a * a' = a for every comparable pair
    a <= a' (a on the tree path from o to a', see `spectree.preceq`); fails
    at the first pair that does not collapse."""
    failure = comparable_pair_failure(tree, o, star)
    if failure is None:
        return "pass"
    b, d = failure
    return f"fail: {b} * {d} = {star(b, d)}"


def _check_anchor_absorption(tree: SpecialTree, o: int, polymer, star) -> tuple[str, str]:
    """Instance checks for the star collapse above a neighborhood.

    Picks every anchor on the opposite side of o whose strictly-above
    neighborhood is at least a pair, closed under star, and free of
    single-element polymer absorbers; for those the two-sided collapse and
    its term-level consequence are theorem-backed.
    """
    o_in_a = o in tree.a_vertices
    anchors = sorted(tree.b_vertices if o_in_a else tree.a_vertices)
    above_side = tree.b_vertices if o_in_a else tree.a_vertices
    checked = 0
    for b in anchors:
        nb = e_neighborhood(tree, frozenset({b}), 1)
        c_set = sorted(c for c in nb if c != b and preceq(tree, o, b, c))
        if len(c_set) < 2:
            continue
        if not {star(c, cp) for c in c_set for cp in c_set} <= set(c_set):
            continue
        if any(all(polymer(c, cp) == c for cp in c_set) for c in c_set):
            continue
        ds = [d for d in sorted(above_side)
              if any(preceq(tree, o, c, d) and c != d for c in c_set)]
        for d in ds:
            if star(b, d) != b or star(d, b) != b:
                return (f"fail: {b} does not swallow {d}", "skipped: collapse failed")
            for c in c_set:
                for cp in c_set:
                    _, terms = s_set(c, cp, star)
                    for term in terms.values():
                        if eval_term(term, star, b, d) != b:
                            return ("pass", f"fail: term at ({b}, {d})")
                        if eval_term(term, star, d, b) != b:
                            return ("pass", f"fail: term at ({d}, {b})")
        checked += 1
    if not checked:
        return ("skipped: no eligible neighborhood", "skipped: no eligible neighborhood")
    return ("pass", "pass")


def verify_lemma_suite(spec: SpecialTreeSpec, budget: Budget = Budget(), seed: int = 0) -> dict:
    """Instance-level checks of the structural facts behind the classifier.

    Checks needing a top-and-bottom WNU are skipped when the search finds
    none under budget.  Deterministic given the inputs; the seed is recorded
    for report provenance only.
    """
    tree = compile_tree(spec)
    report: dict = {"seed": seed, "vertices": tree.digraph.vertex_count}
    size = tree.digraph.vertex_count
    deltas = {n: diagonal_component(tree.digraph, n, budget.power)
              if size ** n <= budget.power else None for n in (2, 3)}
    for n, delta in deltas.items():
        report[f"diagonal_containment_n{n}"] = _check_diagonal_containment(tree, n, delta)
    try:
        tau = find_wnu_on_top_bottom(tree.digraph, 3, tree.a_vertices, tree.b_vertices, budget)
    except BudgetExceeded:
        tau = None
        report["top_bottom_wnu"] = BUDGET_SKIPPED
    else:
        report["top_bottom_wnu"] = "found" if tau is not None else "none"
    dependent = ["wnu_extension", "special_polymer", "singleton_absorber",
                 "comparable_pair_absorption", "sset_identities",
                 "star_collapse_below", "anchor_star_absorption", "term_absorption"]

    def skip_rest(reason: str) -> dict:  # for every dependent check not yet in the report
        for key in dependent:
            report.setdefault(key, reason)
        return report

    if tau is None:
        return skip_rest("skipped: no top-and-bottom WNU")

    try:
        # extend_wnu re-checks its table, so a returned one passes
        full_wnu = extend_wnu(tree, tau, budget, deltas[3])
        report["wnu_extension"] = "pass"
    except (ConstructionStuck, BudgetExceeded) as exc:
        report["wnu_extension"] = (BUDGET_SKIPPED if isinstance(exc, BudgetExceeded)
                                   else f"fail: {exc}")
        return skip_rest("skipped: no full WNU")

    _, polymer = make_special(full_wnu)
    report["special_polymer"] = "pass" if (
        _is_special_polymer(polymer) and is_polymorphism(tree.digraph, polymer)) else "fail"

    star = star_table(polymer)
    report["sset_identities"] = _check_sset_identities(tree, star)

    try:
        o = find_singleton_absorber(tree, polymer)
        report["singleton_absorber"] = "pass"
    except NoneFound as exc:
        report["singleton_absorber"] = f"fail: {exc}"
        return skip_rest("skipped: no absorber")

    side = tree.a_vertices if o in tree.a_vertices else tree.b_vertices
    ok14 = comparable_pair_failure(tree, o, polymer) is None and all(
        polymer(o, x) == o for x in sorted(side))
    report["comparable_pair_absorption"] = "pass" if ok14 else "fail"

    report["star_collapse_below"] = _check_star_collapse_below(tree, o, star)
    l16, l17 = _check_anchor_absorption(tree, o, polymer, star)
    report["anchor_star_absorption"] = l16
    report["term_absorption"] = l17
    return report
