import random
from dataclasses import replace

import pytest

from corpus import random_special_trees
from hcolor import homsolver
from hcolor.digraph import Digraph
from hcolor.errors import BudgetExceeded, InvalidPin
from hcolor.homsolver import (
    CspInstance,
    _ac_fixpoint,
    _branch_var,
    arc_consistency,
    build_instance,
    consistency_23,
    solve_hom,
)
from hcolor.minpath import OrientedPath
from hcolor.polysearch import find_wnu_on_top_bottom
from hcolor.spectree import canned_triad, compile_tree
from reference import branch_var, enumerate_homs

EDGE = Digraph.from_edges(2, [(0, 1)])


def random_digraph(rng, max_n=5, density=0.35):
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < density]
    return Digraph.from_edges(n, edges)


class TestBuildInstance:
    def test_edge_shape(self):
        inst = build_instance(EDGE, EDGE)
        assert inst.variable_count == 2
        assert len(inst.constraints) == 1
        assert inst.domains == (0b11, 0b11)

    def test_path_into_triad(self):
        x = OrientedPath("110110110001111").to_digraph()
        h = compile_tree(canned_triad()).digraph
        inst = build_instance(x, h)
        assert inst.variable_count == 16
        assert all(d.bit_count() == 39 for d in inst.domains)

    def test_pins(self):
        inst = build_instance(EDGE, EDGE, pins={0: 1})
        assert inst.domains[0] == 0b10
        with pytest.raises(InvalidPin):
            build_instance(EDGE, EDGE, pins={0: 7})
        with pytest.raises(InvalidPin):
            build_instance(EDGE, EDGE, pins={9: 0})

    def test_adjacency_read_off_successors(self):
        # the adjacency read off the successor lists equals the one built
        # pair by pair; self-loops go to the loop list only
        rng = random.Random(12)
        looped = 0
        for _ in range(100):
            x = random_looped_digraph(rng, 7, 0.4)
            inst = build_instance(x, EDGE)
            assert inst.constraints == x.edges_sorted
            assert inst.adjacency == reference_adjacency(inst)
            looped += bool(inst.adjacency[2])
            succ = tuple(tuple(sorted(rng.sample(range(7), rng.randint(0, 4))))
                         for _ in range(7))
            inst = CspInstance((3,) * 7, inst.relation, succ)
            assert inst.constraints == tuple((u, v) for u, vs in enumerate(succ) for v in vs)
            assert inst.adjacency == reference_adjacency(inst)
        assert looped


def reference_adjacency(inst):
    """Successors and predecessors per variable, pair by pair, self-loops
    out; and the variables with a self-loop pair."""
    succs = [[] for _ in inst.domains]
    preds = [[] for _ in inst.domains]
    loops = []
    for u, v in inst.constraints:
        if u == v:
            loops.append(u)
        else:
            succs[u].append(v)
            preds[v].append(u)
    return tuple(map(tuple, succs)), tuple(map(tuple, preds)), tuple(loops)


class TestArcConsistency:
    def test_solved_unchanged(self):
        inst = build_instance(EDGE, EDGE, pins={0: 0, 1: 1})
        out = arc_consistency(inst)
        assert out is not None and out.domains == inst.domains

    def test_level_clash_empties(self):
        x = OrientedPath("11").to_digraph()
        h = OrientedPath("1").to_digraph()
        assert arc_consistency(build_instance(x, h)) is None

    def test_solutions_survive(self):
        rng = random.Random(17)
        for _ in range(40):
            x, h = random_digraph(rng, 4), random_digraph(rng, 4)
            homs = enumerate_homs(x, h)
            reduced = arc_consistency(build_instance(x, h))
            if homs:
                assert reduced is not None
                for hom in homs:
                    for var, val in enumerate(hom):
                        assert reduced.domains[var] >> val & 1


def reference_ac(inst):
    """Arc consistency by plain sweeps: every pair revised both ways until
    nothing changes; None when a domain empties."""
    fwd, rev = inst.relation.fwd, inst.relation.rev
    values = range(inst.relation.size)
    doms = list(inst.domains)
    changed = True
    while changed:
        changed = False
        for u, v in inst.constraints:
            if u == v:
                keep_u = sum(1 << a for a in values if doms[u] >> a & 1 and fwd[a] >> a & 1)
                keep_v = keep_u
            else:
                keep_u = sum(1 << a for a in values if doms[u] >> a & 1 and fwd[a] & doms[v])
                keep_v = sum(1 << b for b in values if doms[v] >> b & 1 and rev[b] & doms[u])
            if (keep_u, keep_v) != (doms[u], doms[v]):
                doms[u], doms[v] = keep_u, keep_v
                changed = True
            if not keep_u or not keep_v:
                return None
    return doms


def random_looped_digraph(rng, max_n, density):
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(n)
             if rng.random() < (density / 3 if u == v else density)]
    return Digraph.from_edges(n, edges)


class TestFixpointAgainstReference:
    def test_random_instances_with_loops_and_pins(self):
        rng = random.Random(41)
        hits = {"refuted": 0, "consistent": 0, "incremental": 0}
        for _ in range(300):
            x = random_looped_digraph(rng, 7, 0.3)
            h = random_looped_digraph(rng, 5, 0.4)
            pinned = rng.sample(range(x.vertex_count), min(rng.randint(0, 2), x.vertex_count))
            pins = {var: rng.randrange(h.vertex_count) for var in pinned}
            inst = build_instance(x, h, pins)
            expect = reference_ac(inst)
            got = arc_consistency(inst)
            assert (got is None) == (expect is None)
            if got is None:
                hits["refuted"] += 1
                continue
            hits["consistent"] += 1
            assert list(got.domains) == expect
            # pinning one value after a full fixpoint: the incremental call
            # seeded with the pinned variable reaches the from-scratch result
            var = rng.randrange(x.vertex_count)
            for val in range(h.vertex_count):
                if not expect[var] >> val & 1:
                    continue
                domains = list(expect)
                domains[var] = 1 << val
                scratch = reference_ac(replace(inst, domains=tuple(domains)))
                consistent = _ac_fixpoint(domains, inst, dirty=[var])
                assert consistent == (scratch is not None)
                if consistent:
                    assert domains == scratch
                hits["incremental"] += 1
        assert all(hits.values()), hits


def open_vars(domains, candidates):
    return [i for i in candidates if domains[i].bit_count() >= 2]


class TestBranchVar:
    """The open-list scan against the full scan of every domain."""

    def test_random_domain_lists(self):
        # a child's domains shrink from its parent's, so the parent's open
        # variables are the only candidates it needs
        rng = random.Random(8)
        for _ in range(2000):
            size = rng.randint(1, 6)
            parent = [rng.randrange(1, 1 << size) for _ in range(rng.randint(0, 12))]
            var, open_parent = _branch_var(parent, range(len(parent)))
            assert (var, open_parent) == (branch_var(parent), open_vars(parent, range(len(parent))))
            child = [d & rng.choice((d, d & -d, rng.randrange(1 << size) | d & -d))
                     for d in parent]
            assert _branch_var(child, open_parent) == (branch_var(child),
                                                       open_vars(child, open_parent))

    def test_states_recorded_from_corpus_searches(self, monkeypatch):
        calls = []
        scan = homsolver._branch_var

        def recording(domains, candidates):
            got = scan(domains, candidates)
            calls.append((list(domains), list(candidates), got))
            return got

        monkeypatch.setattr(homsolver, "_branch_var", recording)
        for spec in random_special_trees(25)[::3]:
            tree = compile_tree(spec)
            find_wnu_on_top_bottom(tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        assert len(calls) > 1000
        for domains, candidates, got in calls:
            assert got == (branch_var(domains), open_vars(domains, candidates))


class TestSolveHom:
    def test_edge_to_edge(self):
        assert solve_hom(EDGE, EDGE) == (0, 1)

    def test_tall_path_into_short(self):
        assert solve_hom(OrientedPath("11").to_digraph(),
                         OrientedPath("1").to_digraph()) is None

    def test_long_path_into_triad(self):
        x = OrientedPath("110110110001111").to_digraph()
        h = compile_tree(canned_triad()).digraph
        assert solve_hom(x, h) is None  # height 5 cannot fit into height 4

    def test_budget(self):
        h = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        x = Digraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(BudgetExceeded):
            solve_hom(x, h, node_budget=0)

    def test_respects_pins(self):
        tri = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        got = solve_hom(tri, tri, pins={0: 2})
        assert got == (2, 0, 1)

    def test_empty_instance_trivially_satisfiable(self):
        empty = Digraph.from_edges(0, [])
        assert solve_hom(empty, EDGE) == ()
        assert solve_hom(EDGE, empty) is None

    def test_pins_checked_on_empty_digraphs(self):
        empty = Digraph.from_edges(0, [])
        with pytest.raises(InvalidPin):
            solve_hom(empty, EDGE, pins={5: 0})
        with pytest.raises(InvalidPin):
            solve_hom(EDGE, empty, pins={0: 3})
        assert solve_hom(empty, empty) == ()

    def test_deep_branching_no_recursion_limit(self):
        # thousands of independent branch points must not hit the
        # interpreter stack
        x = Digraph.from_edges(3000, [])
        got = solve_hom(x, EDGE)
        assert got == (0,) * 3000

    def test_agrees_with_enumeration(self):
        rng = random.Random(23)
        for _ in range(60):
            x, h = random_digraph(rng, 5), random_digraph(rng, 4)
            assert (solve_hom(x, h) is not None) == bool(enumerate_homs(x, h))

    def test_deterministic_witness(self):
        rng = random.Random(5)
        for _ in range(20):
            x, h = random_digraph(rng, 5), random_digraph(rng, 4)
            assert solve_hom(x, h) == solve_hom(x, h)


class TestEnumerateHoms:
    def test_edge_to_edge(self):
        assert enumerate_homs(EDGE, EDGE) == [(0, 1)]

    def test_single_vertex(self):
        single = Digraph.from_edges(1, [])
        h = Digraph.from_edges(4, [(0, 1)])
        assert len(enumerate_homs(single, h)) == 4

    def test_hand_count(self):
        # x = "10" has 3 vertices and edges 0->1, 2->1; target "1"
        x = OrientedPath("10").to_digraph()
        h = OrientedPath("1").to_digraph()
        by_hand = [m for m in
                   [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
                   if (m[0], m[1]) in h.edges and (m[2], m[1]) in h.edges]
        assert enumerate_homs(x, h) == by_hand
        assert len(by_hand) == 1

    def test_budget_and_limit(self):
        x = Digraph.from_edges(10, [])
        h = Digraph.from_edges(5, [])
        with pytest.raises(BudgetExceeded):
            enumerate_homs(x, h)
        assert len(enumerate_homs(x, h, limit=7)) == 7

    def test_lexicographic(self):
        x = Digraph.from_edges(2, [])
        h = Digraph.from_edges(2, [])
        assert enumerate_homs(x, h) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestConsistency23:
    def test_solved_singleton_nonempty(self):
        inst = build_instance(EDGE, EDGE, pins={0: 0, 1: 1})
        fam = consistency_23(inst)
        assert fam is not None
        assert fam[(0, 1)] == frozenset({(0, 1)})

    def test_empty_implies_unsolvable(self):
        self.check_family(lambda rng: (random_digraph(rng, 5), random_digraph(rng, 4)))

    def test_empty_implies_unsolvable_with_loops(self):
        loops = self.check_family(lambda rng: (random_looped_digraph(rng, 5, 0.4),
                                               random_looped_digraph(rng, 4, 0.4)))
        assert loops

    @staticmethod
    def check_family(draw) -> int:
        """Collapse only on unsolvable instances; every homomorphism's pair
        projections in the family, and every pair in it satisfying the
        constraints on its two variables, self-loops included.  Returns how
        many drawn instances have a self-loop."""
        rng = random.Random(31)
        hits = {"refuted": 0, "solvable": 0, "loops": 0}
        for _ in range(40):
            x, h = draw(rng)
            hits["loops"] += any(u == v for u, v in x.edges | h.edges)
            fam = consistency_23(build_instance(x, h))
            homs = enumerate_homs(x, h)
            if fam is None:
                assert not homs
                hits["refuted"] += 1
                continue
            hits["solvable"] += bool(homs)
            for hom in homs:
                for (u, v), pairs in fam.items():
                    assert (hom[u], hom[v]) in pairs
            for (u, v), pairs in fam.items():
                for a, b in pairs:
                    for (s, t), (c, d) in (((u, v), (a, b)), ((v, u), (b, a)),
                                           ((u, u), (a, a)), ((v, v), (b, b))):
                        assert (s, t) not in x.edges or (c, d) in h.edges
        assert hits["refuted"] and hits["solvable"]
        return hits["loops"]

    def test_majority_target_decides(self):
        # an oriented path admits a majority polymorphism, so pair
        # consistency collapse must match unsolvability exactly
        h = OrientedPath("11011").to_digraph()
        rng = random.Random(77)
        hits = {True: 0, False: 0}
        for _ in range(60):
            x = random_digraph(rng, 5, density=0.3)
            fam = consistency_23(build_instance(x, h))
            solvable = solve_hom(x, h) is not None
            assert (fam is not None) == solvable
            hits[solvable] += 1
        assert hits[True] and hits[False]
