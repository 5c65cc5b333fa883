import ast
import gc
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from corpus import all_digraphs, loopless_digraphs_up_to_iso, random_special_trees, relabel
from hcolor import digraph, homsolver, polysearch
from hcolor.algebra import (
    OperationTable,
    format_op,
    is_majority,
    is_polymorphism,
    is_siggers,
    is_tsi,
    is_wnu,
)
from hcolor.classify import classify_special_tree, compute_core
from hcolor.digraph import Digraph, connected_components
from hcolor.errors import BudgetExceeded, InconsistentPins, VerificationFailed
from hcolor.minpath import OrientedPath
from hcolor.polysearch import (
    IdentitySystem,
    find_majority,
    find_polymorphism,
    find_siggers,
    find_tsi,
    find_wnu,
    find_wnu_on_top_bottom,
    indicator,
    majority_system,
    refuted_on_pins,
    siggers_system,
    solve_indicator,
    tsi_system,
    wnu_on_sets_system,
    wnu_system,
)
from hcolor.spectree import canned_triad, compile_tree

EDGE = Digraph.from_edges(2, [(0, 1)])
TRIANGLE = Digraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])


def brute_force_tables(size: int, arity: int):
    cells = size ** arity
    for values in product(range(size), repeat=cells):
        yield OperationTable(size, arity, values)


def brute_force_exists(h: Digraph, arity: int, predicate) -> bool:
    return any(
        predicate(t) and is_polymorphism(h, t)
        for t in brute_force_tables(h.vertex_count, arity))


class TestIndicator:
    def test_idempotency_arity_one(self):
        from hcolor.polysearch import IdentitySystem, solve_indicator

        sys = IdentitySystem(1, (), ((("x",), "x", ()),))
        ind = indicator(EDGE, sys)
        assert all(d.bit_count() == 1 for d in ind.instance.domains)
        assert solve_indicator(ind) == (0, 1)

    def test_diagonal_classes_pinned(self):
        ind = indicator(EDGE, wnu_system(2))
        inst = ind.instance
        diag_classes = {ind.class_of[0], ind.class_of[3]}
        for cls in diag_classes:
            assert inst.domains[cls].bit_count() == 1

    def test_inconsistent_pins(self):
        from hcolor.errors import InconsistentPins
        from hcolor.polysearch import IdentitySystem

        sys = IdentitySystem(2, (), (
            (("x", "y"), "x", ()),
            (("x", "y"), "y", ()),
        ))
        with pytest.raises(InconsistentPins):
            indicator(EDGE, sys)

    def test_inconsistent_pins_name_the_smallest_tuple(self):
        # (1, 0) = tuple 2 is pinned first, but its class {1, 2} is named by 1
        only = (("x", (0,)), ("y", (1,)))
        sys_ = IdentitySystem(2, ((("x", "y"), ("y", "x"), ()),), (
            (("y", "x"), "x", only),
            (("x", "y"), "y", only),
        ))
        message = "class of tuple 1 pinned to both 0 and 1"
        with pytest.raises(InconsistentPins, match=message):
            indicator(EDGE, sys_)
        with pytest.raises(InconsistentPins, match=message):
            find_polymorphism(EDGE, sys_)

    def test_wnu3_class_count_on_two_vertices(self):
        ind = indicator(EDGE, wnu_system(3))
        assert ind.instance.variable_count == 4  # two diagonals + two merged orbits

    def test_siggers_merges(self):
        from hcolor.polysearch import siggers_system

        ind = indicator(TRIANGLE, siggers_system())
        n = 3
        for a, r, e in product(range(n), repeat=3):
            i1 = ((a * n + r) * n + e) * n + a
            i2 = ((r * n + a) * n + r) * n + e
            assert ind.class_of[i1] == ind.class_of[i2]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            indicator(TRIANGLE, wnu_system(3), budget=10)


class TestFindWnu:
    def test_edge_has_ternary_wnu(self):
        w = find_wnu(EDGE, 3)
        assert w is not None
        assert is_wnu(w) and is_polymorphism(EDGE, w)

    def test_triangle_has_none(self):
        assert find_wnu(TRIANGLE, 3) is None

    def test_binary_wnu_is_commutative(self):
        for h in (EDGE, OrientedPath("11").to_digraph()):
            w = find_wnu(h, 2)
            if w is not None:
                assert all(w(x, y) == w(y, x)
                           for x in range(h.vertex_count)
                           for y in range(h.vertex_count))
                assert all(w(x, x) == x for x in range(h.vertex_count))


class TestFindMajority:
    def test_edge(self):
        m = find_majority(EDGE)
        assert m is not None and is_majority(m) and is_polymorphism(EDGE, m)

    def test_small_minimal_paths(self):
        for dirs in ("1", "11", "11011", "110011"):
            p = OrientedPath(dirs)
            if p.height > 4:
                continue
            h = p.to_digraph()
            m = find_majority(h)
            assert m is not None
            assert is_majority(m) and is_polymorphism(h, m)

    def test_triangle_has_none(self):
        assert find_majority(TRIANGLE) is None


class TestFindTsi:
    def test_edge_binary(self):
        t = find_tsi(EDGE, 2)
        assert t is not None and is_tsi(t) and is_polymorphism(EDGE, t)

    def test_arity_one_identity(self):
        t = find_tsi(EDGE, 1)
        assert t is not None
        assert t.values == (0, 1)

    def test_budget_checked_before_enumerating_tuples(self, monkeypatch):
        monkeypatch.setattr(polysearch, "_merge_pairs", None)  # any use fails
        monkeypatch.setattr(polysearch, "_merge_tables", None)
        with pytest.raises(BudgetExceeded):
            find_tsi(TRIANGLE, 4, budget=80)

    def test_recheck_past_its_budget_names_itself(self):
        # a table is found on the looped K7; its re-check meets
        # is_polymorphism's fixed cap, as 49^4 edge tuples exceed 5,000,000
        k7 = Digraph.from_edges(7, product(range(7), repeat=2))
        with pytest.raises(BudgetExceeded) as exc:
            find_tsi(k7, 4)
        assert str(exc.value) == ("re-check of the found 4-ary table: "
                                  "49^4 edge tuples exceed budget 5000000")

    def test_pattern_merges_join_exactly_equal_argument_sets(self):
        for k, n in product(range(1, 5), range(1, 5)):
            merged = Digraph.from_edges(n ** k, polysearch._merge_pairs(tsi_system(k), n))
            by_set: dict[frozenset[int], set[int]] = {}
            for idx, tup in enumerate(product(range(n), repeat=k)):
                by_set.setdefault(frozenset(tup), set()).add(idx)
            classes = connected_components(merged)
            assert sorted(map(sorted, classes)) == sorted(map(sorted, by_set.values())), (k, n)

    def test_triangle_binary_none(self):
        assert find_tsi(TRIANGLE, 2) is None
        # independent oracle: enumerate all 3^9 binary tables
        assert not brute_force_exists(TRIANGLE, 2, is_tsi)


class TestFindSiggers:
    def test_edge(self):
        s = find_siggers(EDGE)
        assert s is not None and is_siggers(s) and is_polymorphism(EDGE, s)

    def test_triangle_none(self):
        assert find_siggers(TRIANGLE) is None


class TestWnuOnTopBottom:
    def test_path_tree(self):
        from hcolor.spectree import SpecialTreeSpec, compile_tree

        spec = SpecialTreeSpec(1, 1, 3, ((0, 0, OrientedPath("11011")),))
        tree = compile_tree(spec)
        tau = find_wnu_on_top_bottom(tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        assert tau is not None
        assert is_polymorphism(tree.digraph, tau)

    def test_found_table_is_rechecked(self, monkeypatch):
        # the all-zero table preserves 0 -> 0 and 0 -> 1 but is not
        # idempotent; the re-check catches it as find_wnu's does
        h = Digraph.from_edges(2, [(0, 0), (0, 1)])
        monkeypatch.setattr(polysearch, "_solve_lazily",
                            lambda h, sys_, budget, node_budget: (0,) * 2 ** sys_.arity)
        with pytest.raises(VerificationFailed, match="fails is_wnu_on_top_bottom"):
            find_wnu_on_top_bottom(h, 3, {0}, {1})
        with pytest.raises(VerificationFailed, match="fails is_wnu"):
            find_wnu(h, 3)


class TestQuotientSoundness:
    def test_existence_matches_brute_force(self):
        # solutions of the indicator instance correspond exactly to WNU
        # polymorphisms: compare existence against brute-force enumeration
        rng = random.Random(13)
        for _ in range(12):
            n = rng.randint(2, 3)
            edges = [(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.5]
            h = Digraph.from_edges(n, edges)
            arity = 2
            got = find_wnu(h, arity)
            expect = brute_force_exists(h, arity, is_wnu)
            assert (got is not None) == expect

    def test_solution_sets_in_bijection(self):
        # round-trip: indicator solutions <-> operations satisfying the
        # identities, counted exhaustively on small targets
        for h in (EDGE, Digraph.from_edges(2, [(0, 1), (1, 0)]),
                  OrientedPath("11").to_digraph()):
            for k in (2, 3):
                if h.vertex_count ** (h.vertex_count ** k) > 10 ** 6:
                    continue
                ind = indicator(h, wnu_system(k))
                inst = ind.instance
                count = 0
                for assign in product(range(h.vertex_count),
                                      repeat=inst.variable_count):
                    if any(not inst.domains[v] >> assign[v] & 1
                           for v in range(inst.variable_count)):
                        continue
                    if all(inst.target.out_masks[assign[u]] >> assign[v] & 1
                           for u, v in inst.constraints):
                        count += 1
                tables = sum(
                    1 for t in brute_force_tables(h.vertex_count, k)
                    if is_wnu(t) and is_polymorphism(h, t))
                assert count == tables


class TestExhaustiveAgreement:
    def test_two_vertex_digraphs(self):
        # all digraphs on two vertices, including loops
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for bits in range(16):
            h = Digraph.from_edges(2, [p for i, p in enumerate(pairs) if bits >> i & 1])
            for k in (2, 3):
                assert (find_wnu(h, k) is not None) == brute_force_exists(h, k, is_wnu)
            assert (find_majority(h) is not None) == brute_force_exists(h, 3, is_majority)
            assert (find_tsi(h, 2) is not None) == brute_force_exists(h, 2, is_tsi)


def reference_search(h, sys, budget=polysearch.DEFAULT_INDICATOR_BUDGET, node_budget=None):
    """The full indicator, split and solved component by component."""
    ind = indicator(h, sys, budget)
    found = solve_indicator(ind, node_budget)
    if found is None:
        return None
    return OperationTable(ind.base, ind.arity, tuple(found[c] for c in ind.class_of))


def outcome(search, *args, **kwargs):
    """`.op` text of the table found, None, or the (type, message) raised."""
    try:
        table = search(*args, **kwargs)
    except (BudgetExceeded, InconsistentPins) as exc:
        return type(exc).__name__, str(exc)
    return None if table is None else format_op(table)


DENSE_SYSTEMS = {
    "wnu2": lambda h: wnu_system(2),
    "wnu3": lambda h: wnu_system(3),
    "majority": lambda h: majority_system(),
    "siggers": lambda h: siggers_system(),
    "tsi2": lambda h: tsi_system(2),
}


# the row walk's edge cases: an empty high half (arity 1) and the shift merge
WALK_SYSTEMS = {**DENSE_SYSTEMS, "tsi1": lambda h: tsi_system(1), "tsi3": lambda h: tsi_system(3)}


def lone_group(h, sys_) -> set[int]:
    """The tuples the lazy indicator handles in bulk, as one group."""
    lazy = polysearch._LazyIndicator(h, sys_, polysearch.DEFAULT_INDICATOR_BUDGET)
    lazy.pinned_components()
    groups = [comp.lone for comp in lazy.remaining_components() if comp.lone]
    assert len(groups) <= 1
    return set(groups[0]) if groups else set()


def reference_lone_tuples(h, sys_) -> set[int]:
    """The tuples of the full indicator whose class is a component of one
    tuple with no constraint and no pin."""
    ind = indicator(h, sys_)
    inst = ind.instance
    size = [0] * inst.variable_count
    for c in ind.class_of:
        size[c] += 1
    constrained = {c for pair in inst.constraints for c in pair}
    full = (1 << h.vertex_count) - 1
    return {t for t, c in enumerate(ind.class_of)
            if size[c] == 1 and c not in constrained and inst.domains[c] == full}


class TestLazyMatchesFullIndicator:
    """The lazy path against the full indicator it replaces."""

    @pytest.fixture(scope="class")
    def graphs(self):
        graphs = loopless_digraphs_up_to_iso(4)
        assert len(graphs) == 218
        return graphs

    @pytest.mark.parametrize("kind", sorted(DENSE_SYSTEMS))
    def test_loopless_four_vertex_digraphs(self, graphs, kind):
        for h in graphs:
            sys_ = DENSE_SYSTEMS[kind](h)
            assert outcome(find_polymorphism, h, sys_) == outcome(reference_search, h, sys_), \
                (kind, sorted(h.edges))

    def test_searches_never_read_constraint_pairs(self, graphs, monkeypatch):
        # the lazy path hands the solver successor lists and nothing
        # downstream expands them into pairs
        def no_pairs(inst):
            raise AssertionError("constraint pairs were read")

        monkeypatch.setattr(homsolver.CspInstance, "constraints", property(no_pairs))
        found = 0
        for h in graphs[::20]:
            found += sum(t is not None for t in (find_wnu(h, 2), find_wnu(h, 3), find_siggers(h)))
        assert found

    @pytest.mark.parametrize("kind", sorted(WALK_SYSTEMS))
    def test_small_digraphs_with_loops(self, kind):
        graphs = all_digraphs(2) + random.Random(9).sample(all_digraphs(3), 40)
        for h in graphs:
            sys_ = WALK_SYSTEMS[kind](h)
            assert outcome(find_polymorphism, h, sys_) == outcome(reference_search, h, sys_), \
                (kind, h.vertex_count, sorted(h.edges))

    def test_node_budgets(self, graphs):
        # budget exhaustion and refutation must win in the same component
        # order; a zero budget is where that order shows (on 26 of the
        # 4-vertex searches it runs out in the group of lone tuples)
        for i, h in enumerate(graphs):
            for kind, make in DENSE_SYSTEMS.items():
                for nodes in (0, 1, 3) if i % 7 == 0 else (0,):
                    sys_ = make(h)
                    got = outcome(find_polymorphism, h, sys_, node_budget=nodes)
                    want = outcome(reference_search, h, sys_, node_budget=nodes)
                    assert got == want, (kind, nodes, sorted(h.edges))
        for spec in random_special_trees(25):
            tree = compile_tree(spec)
            sys_ = top_bottom_system(tree)
            for nodes in (0, 1):
                got = outcome(find_polymorphism, tree.digraph, sys_, node_budget=nodes)
                want = outcome(reference_search, tree.digraph, sys_, node_budget=nodes)
                assert got == want, (spec, nodes)

    def test_lone_group_ordered_at_its_smallest_tuple(self):
        # the 2-cycle's class {(1, 2), (2, 1)} is a one-class component
        # that refutes, between the smallest lone tuple (0, 1) and the
        # largest (3, 2); the group's zero-budget exhaustion must win
        h = Digraph.from_edges(4, [(1, 2), (2, 1)])
        sys_ = wnu_on_sets_system(2, [(1, 2)])
        assert lone_group(h, sys_) == {1, 2, 3, 4, 7, 8, 11, 12, 13, 14}
        got = outcome(find_polymorphism, h, sys_, node_budget=0)
        assert got == outcome(reference_search, h, sys_, node_budget=0)
        assert got == ("BudgetExceeded", "search node budget 0 exhausted on a 1-variable instance")
        assert outcome(find_polymorphism, h, sys_) is None

    def test_top_bottom_wnu_on_corpus_trees(self):
        for spec in random_special_trees(25):
            tree = compile_tree(spec)
            sys_ = top_bottom_system(tree)
            got = outcome(find_polymorphism, tree.digraph, sys_)
            assert got == outcome(reference_search, tree.digraph, sys_)

    @pytest.mark.parametrize("kind", sorted(DENSE_SYSTEMS))
    def test_lone_tuples_on_loopless_four_vertex_digraphs(self, graphs, kind):
        for h in graphs:
            sys_ = DENSE_SYSTEMS[kind](h)
            assert lone_group(h, sys_) == reference_lone_tuples(h, sys_), (kind, sorted(h.edges))

    @pytest.mark.parametrize("kind", sorted(WALK_SYSTEMS))
    def test_lone_tuples_on_looped_digraphs(self, kind):
        for h in all_digraphs(2) + all_digraphs(3):
            sys_ = WALK_SYSTEMS[kind](h)
            assert lone_group(h, sys_) == reference_lone_tuples(h, sys_), \
                (kind, h.vertex_count, sorted(h.edges))

    @pytest.mark.parametrize("sys_", [
        IdentitySystem(2, (), ((("x", "y"), "x", ()), (("x", "y"), "y", ()))),
        # the conflict appears only through the commutativity merge
        IdentitySystem(2, wnu_system(2).merges, ((("x", "y"), "x", ()),)),
    ])
    def test_inconsistent_pins(self, sys_):
        for h in (EDGE, TRIANGLE):
            got = outcome(find_polymorphism, h, sys_)
            assert got[0] == "InconsistentPins"
            assert got == outcome(reference_search, h, sys_)

    def test_inconsistent_pins_before_any_solve(self, monkeypatch):
        def no_solving(*args):
            raise AssertionError("a component was solved")

        monkeypatch.setattr(polysearch, "solve_instance", no_solving)
        sys_ = IdentitySystem(2, wnu_system(2).merges, ((("x", "y"), "x", ()),))
        with pytest.raises(InconsistentPins):
            find_polymorphism(TRIANGLE, sys_)

    def test_tuple_budget_before_any_work(self, monkeypatch):
        monkeypatch.setattr(polysearch, "_merge_pairs", None)  # any use fails
        monkeypatch.setattr(polysearch, "_merge_tables", None)
        with pytest.raises(BudgetExceeded):
            find_polymorphism(TRIANGLE, siggers_system(), budget=80)
        monkeypatch.undo()
        assert outcome(find_polymorphism, TRIANGLE, siggers_system(), budget=81) is None

    def test_searches_never_enumerate_merge_pairs(self, monkeypatch):
        # the lazy path reads the merge tables; only the full indicator
        # enumerates the pairs
        tree = compile_tree(random_special_trees(1)[0])
        h = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        searches = [(find_wnu, h, 2), (find_wnu, TRIANGLE, 3), (find_majority, h),
                    (find_siggers, h), (find_siggers, EDGE), (find_tsi, h, 3),
                    (find_wnu_on_top_bottom, tree.digraph, 3, tree.a_vertices,
                     tree.b_vertices)]
        want = [outcome(*search) for search in searches]

        def no_pairs(*args):
            raise AssertionError("merge pairs were enumerated")

        monkeypatch.setattr(polysearch, "_merge_pairs", no_pairs)
        polysearch._merge_tables.cache_clear()
        assert [outcome(*search) for search in searches] == want
        assert None in want and any(w is not None for w in want)

    def test_triad_refutation_explores_pinned_component_only(self, monkeypatch):
        solved = []
        solve = polysearch.solve_instance

        def counting(inst, node_budget=None):
            solved.append(inst.variable_count)
            return solve(inst, node_budget)

        monkeypatch.setattr(polysearch, "solve_instance", counting)
        assert find_siggers(compile_tree(canned_triad()).digraph) is None
        # the pinned component has 33,843 of the 2,254,161 classes
        assert 0 < sum(solved) <= 40_000


def table_links(sys_, n):
    """The tables' `linked` rows, their split, and per table rule its
    matched tuples and its (tuple, partner) links."""
    linked, rules = polysearch._merge_tables(sys_, n)
    k = sys_.arity
    split, rows = n ** (k - k // 2), n ** (k // 2)
    assert len(linked) == rows
    per_rule = []
    for match, base, add, offsets in rules:
        assert len(match) == len(base) == rows and len(add) == split
        matched = {hi * split + lo for hi in range(rows) for lo in range(split)
                   if match[hi] >> lo & 1}
        links = [(t, base[t // split] + add[t % split] + off)
                 for t in sorted(matched) for off in offsets]
        per_rule.append((matched, links))
    return linked, split, per_rule


def random_merge_system(rng, n: int) -> IdentitySystem:
    """Arity 1 to 4, some symbols ranged (possibly to one value or none),
    and the two patterns of a rule free to name different symbols."""
    k = rng.randint(1, 4)
    merges = []
    for _ in range(rng.randint(1, 3)):
        src = tuple(rng.choice("abc") for _ in range(k))
        dst = tuple(rng.choice("abcd") for _ in range(k))
        ranges = tuple((v, tuple(sorted(rng.sample(range(n), rng.randint(0, n)))))
                       for v in sorted(set(src) | set(dst)) if rng.random() < 0.4)
        merges.append((src, dst, ranges))
    return IdentitySystem(k, tuple(merges))


class TestMergeTables:
    """The lazy walk's merge tables against the pairs `_merge_pairs` lists,
    taken both ways with self-pairs dropped."""

    def check(self, sys_, n):
        want = sorted((i, j) for a, b in polysearch._merge_pairs(sys_, n)
                      for i, j in ((a, b), (b, a)) if i != j)
        linked, split, per_rule = table_links(sys_, n)
        got = sorted((t, w) for _, links in per_rule for t, w in links if t != w)
        assert got == want, (sys_, n)
        # a rule matches exactly the tuples it links to another tuple
        for matched, links in per_rule:
            assert matched == {t for t, w in links if t != w}, (sys_, n)
        rows = [0] * len(linked)
        for t, _ in want:
            rows[t // split] |= 1 << t % split
        assert list(linked) == rows, (sys_, n)

    NAMED = {**{f"wnu{k}": wnu_system(k) for k in range(1, 5)},
             "majority": majority_system(), "siggers": siggers_system(),
             **{f"tsi{k}": tsi_system(k) for k in range(1, 5)}}

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_systems(self, name):
        for n in range(6):
            self.check(self.NAMED[name], n)

    def test_wnu_on_random_sets(self):
        rng = random.Random(5)
        for n, k in product(range(6), (2, 3, 4)):
            sets = [tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for _ in range(2)]
            self.check(wnu_on_sets_system(k, sets), n)

    def test_random_systems(self):
        rng = random.Random(11)
        for n in range(6):
            for _ in range(40):
                self.check(random_merge_system(rng, n), n)


class _Stop(Exception):
    pass


class TestMergeTableMemory:
    def test_triad_siggers_peak_until_the_search(self, monkeypatch):
        # the triad's Siggers refutation searches one 33,843-class pinned
        # component; a partner list per merged tuple held 18.4 MB of the
        # 28.8 MB traced when that search started.  Tracing the search
        # itself as well takes about 15 times its 0.7 s, so the solver is
        # stopped at its first call.
        core = compute_core(compile_tree(canned_triad()).digraph).core
        n = core.vertex_count
        starts, solving = [], []
        solve = polysearch._LazyIndicator.solve

        def recording(lazy, comp, node_budget):
            solving.append(comp)
            return solve(lazy, comp, node_budget)

        def stop(inst, node_budget=None):
            starts.append((inst.variable_count, tracemalloc.get_traced_memory()[0],
                           [type(x) for x in gc.get_referents(solving[-1])]))
            raise _Stop

        monkeypatch.setattr(polysearch._LazyIndicator, "solve", recording)
        monkeypatch.setattr(polysearch, "solve_instance", stop)
        polysearch._merge_tables.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(_Stop):
                find_siggers(core)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [(variables, current, held)] = starts
        assert variables == 33_843
        assert peak < 20_000_000, peak
        # the component keeps its tuples and classes as flat sequences: no
        # tuple -> class dict outlives the build (with one per component,
        # 7.5 MB were live here)
        assert dict not in held, held
        assert current < 5_500_000, current
        # a rule reading costs a row entry (mask and base) per row and an
        # addend per lo, not an entry per merged pair (59,319 here)
        linked, rules = polysearch._merge_tables(siggers_system(), n)
        rows = split = n ** 2
        assert len(linked) == rows and len(rules) == 2 * len(siggers_system().merges)
        assert sum(len(match) + len(add) for match, _, add, _ in rules) <= \
            len(rules) * (rows + split)
        assert all(len(base) == len(match) and len(offsets) == 1
                   for match, base, _, offsets in rules)


def top_bottom_system(tree):
    return wnu_on_sets_system(3, [tuple(sorted(tree.a_vertices)),
                                  tuple(sorted(tree.b_vertices))])


def record_solves(monkeypatch) -> list:
    """Patch the solver so each call appends its (domains, constraints) key."""
    keys = []
    solve = polysearch.solve_instance

    def recording(inst, node_budget=None):
        keys.append((inst.domains, inst.constraints))
        return solve(inst, node_budget)

    monkeypatch.setattr(polysearch, "solve_instance", recording)
    return keys


class TestSolutionMemo:
    def test_each_distinct_sub_instance_solved_once(self, monkeypatch):
        tree = compile_tree(random_special_trees(1)[0])
        sys_ = top_bottom_system(tree)
        inst = indicator(tree.digraph, sys_).instance
        components = len(connected_components(
            Digraph.from_edges(inst.variable_count, inst.constraints)))
        keys = record_solves(monkeypatch)
        assert find_polymorphism(tree.digraph, sys_) is not None
        assert len(keys) == len(set(keys))
        assert 0 < len(keys) < components

    def test_memo_does_not_outlive_a_search(self, monkeypatch):
        tree = compile_tree(random_special_trees(1)[0])
        keys = record_solves(monkeypatch)
        first = find_polymorphism(tree.digraph, top_bottom_system(tree))
        solves = len(keys)
        assert find_polymorphism(tree.digraph, top_bottom_system(tree)) == first
        assert solves > 0 and keys[solves:] == keys[:solves]


def count_calls(monkeypatch, owner, name: str) -> list:
    """Patch owner.name so each call appends None to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestRefutedOnPins:
    """`refuted_on_pins` is sound for the search it shortens: True only where
    `find_polymorphism` finds nothing, on the same solver calls."""

    @staticmethod
    def check(keys: list, h, sys_) -> tuple[bool, int]:
        """The probe's answer and its solver call count; `keys` then holds
        the probe's calls and the search's."""
        keys.clear()
        refuted = refuted_on_pins(h, sys_)
        probed = len(keys)
        found = find_polymorphism(h, sys_)
        # the probe's calls are the search's first ones; a refutation ends both
        assert keys[probed:probed * 2] == keys[:probed]
        if refuted:
            assert found is None and len(keys) == 2 * probed
        return refuted, probed

    def test_four_vertex_digraphs(self, monkeypatch):
        keys = record_solves(monkeypatch)
        systems = (wnu_system(2), wnu_system(3), majority_system(), siggers_system())
        graphs = loopless_digraphs_up_to_iso(4)
        assert len(graphs) == 218
        seen = [self.check(keys, h, sys_)[0] for h in graphs for sys_ in systems]
        assert 0 < sum(seen) < len(seen)

    def test_corpus_top_bottom_systems(self, monkeypatch):
        keys = record_solves(monkeypatch)
        for tree in map(compile_tree, random_special_trees(25)):
            refuted, probed = self.check(keys, tree.digraph, top_bottom_system(tree))
            # the probe stops after the pinned components; the search goes on
            assert not refuted and 2 * probed < len(keys)

    def test_triad_refuted_and_majority_tables_shared(self):
        # majority and the 3-ary WNU merge alike, so the majority search
        # reuses the probe's merge tables
        core = compute_core(compile_tree(canned_triad()).digraph).core
        polysearch._merge_tables.cache_clear()
        assert refuted_on_pins(core, wnu_system(3))
        before = polysearch._merge_tables.cache_info()
        assert find_majority(core) is None
        after = polysearch._merge_tables.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_budgets_apply(self):
        core = compute_core(compile_tree(canned_triad()).digraph).core
        with pytest.raises(BudgetExceeded):
            refuted_on_pins(core, wnu_system(3), budget=39 ** 3 - 1)
        with pytest.raises(BudgetExceeded):
            refuted_on_pins(core, wnu_system(3), node_budget=0)


class TestWorkCounts:
    """Components built, solver calls and search nodes per search.

    Solver calls equal those of a memo keyed on the sorted constraint list:
    a different count means the memo identifies different sub-instances.
    Components built (`close` calls) leave out the lone tuples, which are
    handled as one group.  Search nodes are those of the full-scan
    branching choice.
    """

    def counts(self, monkeypatch, searches) -> tuple[int, int, int]:
        closes = count_calls(monkeypatch, polysearch._LazyIndicator, "close")
        nodes = count_calls(monkeypatch, homsolver._NodeCounter, "tick")
        keys = record_solves(monkeypatch)
        for search in searches:
            search()
        return len(closes), len(keys), len(nodes)

    def test_top_bottom_wnu_on_corpus_trees(self, monkeypatch):
        trees = [compile_tree(spec) for spec in random_special_trees(25)]
        searches = [lambda t=tree: find_wnu_on_top_bottom(t.digraph, 3, t.a_vertices,
                                                          t.b_vertices) for tree in trees]
        assert self.counts(monkeypatch, searches) == (4561, 1060, 7403)

    def test_four_vertex_slice(self, monkeypatch):
        graphs = loopless_digraphs_up_to_iso(4)[::10]
        searches = [search for h in graphs for search in (
            lambda h=h: find_wnu(h, 2), lambda h=h: find_wnu(h, 3),
            lambda h=h: find_majority(h), lambda h=h: find_siggers(h))]
        assert len(graphs) == 22
        assert self.counts(monkeypatch, searches) == (516, 191, 1090)


# the searches of one item of the benchmark's poly_dense workload, in its order
DENSE_SEARCHES = (lambda h: find_wnu(h, 2), lambda h: find_wnu(h, 3), find_majority,
                  find_siggers)


class TestSharedSetUp:
    """Searches on one target digraph object derive its walk tables, its
    edge masks and the solver's image memos once, and sharing them changes
    no table found."""

    def set_ups(self, monkeypatch, run) -> tuple[int, int]:
        """(`_half_lists` calls, image memos made) while `run` runs."""
        halves = count_calls(monkeypatch, digraph, "_half_lists")
        memos = count_calls(monkeypatch, vars(Digraph)["images"], "func")
        run()
        return len(halves), len(memos)

    def test_four_searches_on_one_digraph(self, monkeypatch):
        # half sizes 1 and 2, each out and in; the solver's edge masks are
        # the half tables of size 1, and the re-checks of the found tables
        # use them too
        h = Digraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        found = []
        assert self.set_ups(monkeypatch, lambda: found.extend(
            search(h) for search in DENSE_SEARCHES)) == (4, 1)
        assert None not in found
        assert h.out_masks is digraph._half_tables(h, 1)[2]
        assert h.in_masks is digraph._half_tables(h, 1)[3]

    def test_triad_classification(self, monkeypatch):
        # WNU3 and Siggers searches and core probes on one core digraph
        assert self.set_ups(monkeypatch, lambda: classify_special_tree(canned_triad())) == (4, 1)

    def test_shared_tables_find_the_fresh_tables(self):
        def op_bytes(tables) -> str:
            return "".join(format_op(t) if t is not None else "none\n" for t in tables)

        graphs = loopless_digraphs_up_to_iso(4)
        assert len(graphs) == 218
        for h in graphs:
            fresh = [search(Digraph.from_edges(4, h.edges)) for search in DENSE_SEARCHES]
            forward = [search(h) for search in DENSE_SEARCHES]
            g = Digraph.from_edges(4, h.edges)
            backward = [search(g) for search in reversed(DENSE_SEARCHES)][::-1]
            assert op_bytes(forward) == op_bytes(backward) == op_bytes(fresh), sorted(h.edges)


class TestSuccessorLists:
    """A component whose classes are the ranks of its tuples takes each
    tuple's successors as they come; the general loop sorts and dedups,
    except where a class has fewer than two targets."""

    def ranked(self, searches) -> tuple[int, int]:
        """(components, rank components) of the searches; every component's
        successor lists are checked against the general loop's."""
        total = ranked = 0
        for h, sys_ in searches:
            lazy = polysearch._LazyIndicator(h, sys_, polysearch.DEFAULT_INDICATOR_BUDGET)
            for comp in lazy.pinned_components() + lazy.remaining_components():
                class_of = dict(zip(comp.tuples, comp.classes))
                assert comp.memo[0] == lazy.successors(class_of, False)
                assert all(list(succ) == sorted(set(succ)) for succ in comp.memo[0])
                total += 1
                ranked += isinstance(comp.classes, range)
        return total, ranked

    def test_top_bottom_wnu_on_corpus_trees(self):
        trees = [compile_tree(spec) for spec in random_special_trees(25)]
        assert self.ranked((t.digraph, top_bottom_system(t)) for t in trees) == (4586, 4564)

    def test_four_vertex_slice(self):
        kinds = ("wnu2", "wnu3", "majority", "siggers")
        searches = [(h, DENSE_SYSTEMS[k](h)) for h in loopless_digraphs_up_to_iso(4)[::10]
                    for k in kinds]
        assert len(searches) == 88
        assert self.ranked(searches) == (554, 166)


class TestEmptyTarget:
    @pytest.mark.parametrize("search, arity", [
        (lambda h: find_wnu(h, 2), 2), (find_majority, 3), (find_siggers, 4),
        (lambda h: find_tsi(h, 1), 1)])
    def test_size_zero_table(self, search, arity):
        assert search(Digraph(0, frozenset())) == OperationTable(0, arity, ())


class TestRelabelling:
    """Existence answers do not depend on how the target's vertices are named."""

    SEARCHES = {
        "wnu2": lambda h: find_wnu(h, 2),
        "wnu3": lambda h: find_wnu(h, 3),
        "majority": find_majority,
        "siggers": find_siggers,
        "tsi2": lambda h: find_tsi(h, 2),
        "tsi3": lambda h: find_tsi(h, 3),
    }

    @pytest.mark.parametrize("kind", sorted(SEARCHES))
    def test_existence_invariant(self, kind):
        rng = random.Random(2014)
        search = self.SEARCHES[kind]
        answers = set()
        for h in rng.sample(loopless_digraphs_up_to_iso(4), 60):
            perm = rng.sample(range(4), 4)
            found = search(h) is not None
            assert found == (search(relabel(h, perm)) is not None), \
                (kind, perm, sorted(h.edges))
            answers.add(found)
        assert answers == {True, False}


CORRUPTED_SOLVERS = """
    import random
    import sys
    from hcolor import algebra, classify, homsolver, minpath, polysearch, spectree
    from hcolor.algebra import table_from_function, trivial_pointing
    from hcolor.digraph import Digraph, connected_components
    from hcolor.errors import ConstructionStuck, VerificationFailed

    assert sys.flags.optimize, "run under python -O"
    edge = Digraph.from_edges(2, [(0, 1)])

    def expect_failure(run, error=VerificationFailed):
        try:
            run()
        except error as exc:
            print("caught:", exc)
        else:
            print("not caught")

    solve_instance, search = homsolver.solve_instance, homsolver._search
    homsolver._search = lambda domains, inst, counter: [1] * len(domains)
    expect_failure(lambda: homsolver.solve_hom(edge, edge))
    homsolver._search = search
    polysearch.solve_instance = lambda inst, node_budget=None: (0,) * len(inst.domains)
    expect_failure(lambda: polysearch.find_wnu(edge, 3))
    polysearch.solve_instance = solve_instance
    # the all-zero table preserves 0 -> 0 and 0 -> 1 but is not idempotent
    solve_lazily = polysearch._solve_lazily
    polysearch._solve_lazily = lambda h, sys_, budget, node_budget: (0,) * 2 ** sys_.arity
    expect_failure(lambda: polysearch.find_wnu_on_top_bottom(
        Digraph.from_edges(2, [(0, 0), (0, 1)]), 3, {0}, {1}))
    polysearch._solve_lazily = solve_lazily
    polysearch.is_wnu = lambda table: False
    expect_failure(lambda: polysearch.find_wnu(edge, 3))

    # 0 -> 1 <- 2 retracts onto one edge; corrupt each core step in turn
    vee = Digraph.from_edges(3, [(0, 1), (2, 1)])
    classify.solve_instance = lambda inst, node_budget=None: (0,) * len(inst.domains)
    expect_failure(lambda: classify.compute_core(vee))
    classify.solve_instance = solve_instance
    classify._idempotent_power = lambda endo: (1, 1, 1)
    expect_failure(lambda: classify.compute_core(vee))
    classify._idempotent_power = lambda endo: (0, 1, 2)
    expect_failure(lambda: classify.compute_core(vee))

    # negation is not idempotent, so it points no singleton to itself
    negation = table_from_function(2, 2, lambda a: 1 - a[0])
    expect_failure(lambda: trivial_pointing(negation, 0), ConstructionStuck)

    # an all-zero extension of the majority on one edge preserves no edge
    edge_tree = spectree.compile_tree(spectree.SpecialTreeSpec(
        1, 1, 1, ((0, 0, minpath.OrientedPath("1")),)))
    majority = table_from_function(2, 3, lambda a: int(sum(a) >= 2))
    algebra._wnu_extension_values = lambda tree, tau, delta: [0] * tau.size ** tau.arity
    expect_failure(lambda: algebra.extend_wnu(edge_tree, majority), ConstructionStuck)

    # a common path that maps onto no input must not be returned
    path_onto_hom = minpath.path_onto_hom
    minpath.path_onto_hom = lambda q, p: None
    expect_failure(lambda: minpath.common_onto_minimal_path([minpath.OrientedPath("1")]))
    minpath.path_onto_hom = path_onto_hom
    # a path map that misses a position of the target is not returned
    minpath.solve_hom = lambda x, h, pins: (0,) * x.vertex_count
    expect_failure(lambda: minpath.path_onto_hom(minpath.OrientedPath("10"),
                                                 minpath.OrientedPath("10")))
    # a sampled path that is not minimal is not returned
    minpath.is_minimal = lambda p: False
    expect_failure(lambda: minpath.sample_minimal_path(random.Random(0), 2, 4))
    spectree.is_oriented_tree = lambda g: False
    expect_failure(lambda: spectree.compile_tree(spectree.canned_triad()))
"""


def test_verification_survives_optimized_mode():
    # a corrupted solver result or a failing certificate must be caught even
    # with asserts stripped
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(CORRUPTED_SOLVERS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # each corruption is caught by the check meant for it
    expected = ("violates constraint", "not a polymorphism", "fails is_wnu_on_top_bottom",
                "fails", "endomorphism is not",
                "retraction is not", "retraction is onto", "not idempotent at 0",
                "extension is not a polymorphism", "does not map onto", "is not onto",
                "is not minimal of height", "not an oriented tree")
    lines = proc.stdout.splitlines()
    assert len(lines) == len(expected), proc.stdout
    assert all(line.startswith("caught:") and part in line
               for line, part in zip(lines, expected)), proc.stdout


def test_library_has_no_assert_statements():
    # re-checks must hold under python -O, so none may be an assert
    src = Path(__file__).resolve().parents[1] / "src" / "hcolor"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
