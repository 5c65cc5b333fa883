import inspect
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import all_digraphs, random_special_trees, relabel
from hcolor import classify, cli, homsolver
from hcolor.classify import (
    BOUNDED_WIDTH,
    NP_COMPLETE,
    CoreResult,
    TAYLOR,
    UNDETERMINED,
    classify_digraph,
    classify_special_tree,
    compute_core,
    verify_lemma_suite,
)
from hcolor.algebra import table_from_function
from hcolor.digraph import DEFAULT_POWER_BUDGET, Digraph, diagonal_component
from hcolor.errors import BudgetExceeded, InvalidSpec
from hcolor.homsolver import (
    CspInstance,
    build_instance,
    is_homomorphism,
    solve_hom,
    solve_instance,
)
from hcolor.minpath import OrientedPath
from hcolor.spectree import (
    SpecialTreeSpec,
    canned_triad,
    compile_tree,
    recover_top_bottom,
    spec_from_core,
)
from reference import enumerate_homs, sweep_core

EDGE = Digraph.from_edges(2, [(0, 1)])


def brute_force_is_core(g: Digraph) -> bool:
    """No endomorphism identifies two vertices; direct enumeration."""
    n = g.vertex_count
    for mapping in product(range(n), repeat=n):
        if len(set(mapping)) == n:
            continue
        if all((mapping[u], mapping[v]) in g.edges for u, v in g.edges):
            return False
    return True


class TestComputeCore:
    def test_edge_is_core(self):
        res = compute_core(EDGE)
        assert res.core == EDGE
        assert res.retraction == (0, 1)

    def test_path11_is_core(self):
        g = OrientedPath("11").to_digraph()
        assert brute_force_is_core(g)  # oracle: all 27 maps
        res = compute_core(g)
        assert res.core.vertex_count == 3

    def test_doubled_arm_retracts(self):
        # two arms with identical paths into one top vertex fold together
        spec = SpecialTreeSpec(2, 1, 2, (
            (0, 0, OrientedPath("11")),
            (1, 0, OrientedPath("11")),
        ))
        g = compile_tree(spec).digraph
        res = compute_core(g)
        assert res.core.vertex_count == 3  # a single height-2 path remains
        assert is_homomorphism(g, res.core, res.retraction)
        assert is_homomorphism(res.core, g, res.embedding)

    def test_idempotent(self):
        spec = SpecialTreeSpec(2, 1, 2, (
            (0, 0, OrientedPath("11")),
            (1, 0, OrientedPath("11")),
        ))
        g = compile_tree(spec).digraph
        once = compute_core(g)
        twice = compute_core(once.core)
        assert twice.core == once.core

    def test_matches_brute_force_on_random(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 5)
            edges = [(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.4]
            g = Digraph.from_edges(n, edges)
            res = compute_core(g)
            assert brute_force_is_core(res.core)
            assert is_homomorphism(g, res.core, res.retraction)
            assert is_homomorphism(res.core, g, res.embedding)

    def test_core_size_invariant_under_relabelling(self):
        rng = random.Random(2014)
        for spec in random_special_trees(25):
            g = compile_tree(spec).digraph
            perm = rng.sample(range(g.vertex_count), g.vertex_count)
            assert (compute_core(relabel(g, perm)).core.vertex_count
                    == compute_core(g).core.vertex_count), perm

    def test_minimal_paths_are_cores(self):
        for dirs in ("1", "11", "11011", "1101011"):
            g = OrientedPath(dirs).to_digraph()
            assert compute_core(g).core.vertex_count == g.vertex_count


def worst_sweep_tree() -> Digraph:
    """The canned triad's template with the sweep's slowest paths attached."""
    triad = canned_triad()
    paths = ("111011", "111011", "110111", "11101011", "11101011", "11100111")
    return compile_tree(SpecialTreeSpec(triad.a_count, triad.b_count, triad.height, tuple(
        (a, b, OrientedPath(word)) for (a, b, _), word in zip(triad.template_edges, paths)
    ))).digraph


def avoidance_probes(g: Digraph) -> list[CspInstance]:
    """For each vertex w, the endomorphisms of g that never take the value w."""
    inst = build_instance(g, g)
    full = (1 << g.vertex_count) - 1
    return [CspInstance((full & ~(1 << w),) * g.vertex_count, inst.target, inst.succ)
            for w in range(g.vertex_count)]


def certificate_trees() -> list[Digraph]:
    """The 25 corpus trees, the triad, a tree that folds, the worst sweep tree."""
    folded = SpecialTreeSpec(2, 1, 2, ((0, 0, OrientedPath("11")),
                                       (1, 0, OrientedPath("11"))))
    specs = random_special_trees(25) + [canned_triad(), folded]
    return [compile_tree(spec).digraph for spec in specs] + [worst_sweep_tree()]


def assert_equivalent_core(g: Digraph, res: CoreResult, ref: CoreResult) -> None:
    """res is a core of g with the reference's size, the two cores map to
    each other both ways, and res's maps are a retraction onto its core and
    an embedding that the retraction undoes."""
    core, n = res.core, res.core.vertex_count
    assert n == ref.core.vertex_count, sorted(g.edges)
    assert solve_hom(core, ref.core) is not None and solve_hom(ref.core, core) is not None
    assert is_homomorphism(g, core, res.retraction) and set(res.retraction) == set(range(n))
    assert is_homomorphism(core, g, res.embedding)
    assert all(res.retraction[res.embedding[c]] == c for c in range(n))


class TestCoreCertificate:
    """`compute_core`, which retracts along the first vertex-avoidance probe
    that succeeds, against `sweep_core`, which retracts along the first
    vertex pair an endomorphism identifies: the retractions may differ, the
    cores may not."""

    def test_every_digraph_up_to_three_vertices(self):
        for n in range(4):
            for g in all_digraphs(n):
                assert_equivalent_core(g, compute_core(g), sweep_core(g))

    def test_sampled_four_and_five_vertex_digraphs(self):
        rng = random.Random(2020)
        for n in (4, 5):
            for _ in range(150):
                g = Digraph.from_edges(n, [(u, v) for u in range(n) for v in range(n)
                                           if rng.random() < 0.3])
                assert_equivalent_core(g, compute_core(g), sweep_core(g))

    def test_trees(self):
        # on special trees both choices give the same labelled core and retraction
        trees = certificate_trees()
        for g in trees:
            res, ref = compute_core(g), sweep_core(g)
            assert_equivalent_core(g, res, ref)
            assert (res.core, res.retraction) == (ref.core, ref.retraction)
        assert compute_core(trees[-1]).core.vertex_count == 37

    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_node_budget_stops_or_changes_nothing(self, budget):
        graphs = [g for n in range(4) for g in all_digraphs(n)] + certificate_trees()
        for g in graphs:
            try:
                res = compute_core(g, node_budget=budget)
            except BudgetExceeded:
                continue
            assert res == compute_core(g), sorted(g.edges)

    def test_triad_certificate_work(self, monkeypatch):
        # one probe per vertex, each refuted by AC
        calls, nodes = [], []
        real_solve, real_tick = classify.solve_instance, homsolver._NodeCounter.tick

        def counting_solve(inst, node_budget=None):
            calls.append(inst)
            return real_solve(inst, node_budget)

        def counting_tick(counter):
            nodes.append(counter)
            real_tick(counter)

        monkeypatch.setattr(classify, "solve_instance", counting_solve)
        monkeypatch.setattr(homsolver._NodeCounter, "tick", counting_tick)
        g = compile_tree(canned_triad()).digraph
        assert compute_core(g).core == g
        assert len(calls) == 39 and not nodes

    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_triad_core_under_node_budget(self, budget):
        assert compute_core(compile_tree(canned_triad()).digraph,
                            node_budget=budget).core.vertex_count == 39

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
    def test_core_refutes_every_probe(self, graph):
        n, edges = graph
        core = compute_core(Digraph.from_edges(n, edges)).core
        for probe in avoidance_probes(core):
            assert solve_instance(probe) is None
        # the oracle: every endomorphism of the core is onto
        assert all(len(set(endo)) == core.vertex_count for endo in enumerate_homs(core, core))


def brute_force_idempotent_power(endo: tuple[int, ...]) -> tuple[int, ...]:
    """Walk the powers until one repeats; exactly one of them is idempotent."""
    powers = []
    r = endo
    while r not in powers:
        powers.append(r)
        r = tuple(endo[x] for x in r)
    (idem,) = [p for p in powers if all(p[p[x]] == p[x] for x in range(len(p)))]
    return idem


class TestIdempotentPower:
    def test_matches_brute_force(self):
        rng = random.Random(2014)
        for _ in range(2000):
            n = rng.randint(0, 9)
            endo = tuple(rng.randrange(n) for _ in range(n))
            assert classify._idempotent_power(endo) == brute_force_idempotent_power(endo), endo


class TestSpecFromCore:
    def test_round_trip_on_special_tree(self):
        for spec in [canned_triad()] + random_special_trees(25):
            back = spec_from_core(compile_tree(spec).digraph)
            assert back == SpecialTreeSpec(
                spec.a_count, spec.b_count, spec.height,
                tuple(sorted(spec.template_edges, key=lambda e: e[:2])))

    def test_non_special_rejected(self):
        # 0->1<-2 with 0->3->4->5 returns to level 0; 0->1->2->3 with
        # 4->3, 4->5 hangs a path between the top vertices 3 and 5
        for edges in ([(0, 1), (2, 1), (0, 3), (3, 4), (4, 5)],
                      [(0, 1), (1, 2), (2, 3), (4, 3), (4, 5)]):
            g = Digraph.from_edges(6, edges)
            with pytest.raises(InvalidSpec):
                spec_from_core(g)
            with pytest.raises(InvalidSpec):
                recover_top_bottom(g, 3)


class TestClassify:
    def test_single_edge_bounded_width(self):
        spec = SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),))
        rep = classify_special_tree(spec)
        assert rep.verdict == BOUNDED_WIDTH
        assert rep.taylor == "siggers_found"
        assert rep.width_certificates["majority"] == "found"
        assert rep.is_core and rep.core_size == 2

    def test_path_trees_bounded_width(self):
        for dirs in ("11", "11011"):
            p = OrientedPath(dirs)
            spec = SpecialTreeSpec(1, 1, p.height, ((0, 0, p),))
            rep = classify_special_tree(spec)
            assert rep.verdict == BOUNDED_WIDTH

    def test_triad_tiny_budget_undetermined(self):
        rep = classify_special_tree(canned_triad(), indicator_budget=100)
        assert rep.verdict == UNDETERMINED
        assert rep.taylor == "budget_exceeded"

    def test_report_shape(self):
        spec = SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),))
        d = classify_special_tree(spec).to_dict()
        assert list(d) == ["input_summary", "is_core", "core_size", "taylor",
                           "width_certificates", "verdict", "timings", "seeds"]

    def test_classify_digraph_taylor_cap(self):
        rep = classify_digraph(EDGE)
        assert rep.verdict == TAYLOR
        tri = Digraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        rep = classify_digraph(tri)
        assert rep.verdict == "NOT_TAYLOR"

    def test_wall_budget_skips_every_search(self):
        # the core is still taken; each search is then skipped, not run
        spec = SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),))
        rep = classify_special_tree(spec, wall_budget=0)
        assert rep.verdict == UNDETERMINED and rep.is_core
        assert rep.width_certificates == {"majority": "budget_exceeded",
                                          "wnu3": "budget_exceeded"}
        assert rep.taylor == "budget_exceeded"
        assert list(rep.timings) == ["core", "width_certificates", "siggers"]

    def test_triad_skips_majority_search(self, monkeypatch):
        # a majority operation is a 3-ary WNU, so the refuted WNU3 pin
        # component settles both fields
        calls = []
        monkeypatch.setattr(classify, "find_majority", lambda *a: calls.append(a))
        rep = classify_special_tree(canned_triad())
        assert rep.width_certificates == {"majority": "none", "wnu3": "none"}
        assert rep.verdict == NP_COMPLETE and calls == []

    def test_probe_out_of_budget_falls_back(self, monkeypatch):
        def out_of_budget(*args):
            raise BudgetExceeded("probe")

        monkeypatch.setattr(classify, "refuted_on_pins", out_of_budget)
        rep = classify_special_tree(canned_triad())
        assert rep.width_certificates == {"majority": "none", "wnu3": "none"}

    def test_wnu3_searched_when_majority_runs_out(self, monkeypatch):
        def out_of_budget(*args):
            raise BudgetExceeded("majority")

        monkeypatch.setattr(classify, "find_majority", out_of_budget)
        p = OrientedPath("11011")
        rep = classify_special_tree(SpecialTreeSpec(1, 1, p.height, ((0, 0, p),)))
        assert rep.width_certificates == {"majority": "budget_exceeded", "wnu3": "found"}

    @pytest.mark.parametrize("node_budget", [0, 1, 5])
    def test_node_budget_width_fields(self, node_budget):
        # each field is the unbudgeted one or budget_exceeded, and none is
        # there when the core runs out; on the triad at 5 nodes the probe
        # settles both
        paths = [OrientedPath(d) for d in ("1", "11", "11011")]
        specs = [canned_triad(), *random_special_trees(25),
                 *(SpecialTreeSpec(1, 1, p.height, ((0, 0, p),)) for p in paths)]
        for spec in specs:
            want = classify_special_tree(spec).width_certificates
            got = classify_special_tree(spec, node_budget=node_budget).width_certificates
            assert list(got) in (list(want), [])
            assert all(got[k] in (want[k], "budget_exceeded") for k in got), (spec, got)
        if node_budget == 5:
            assert classify_special_tree(canned_triad(), node_budget=5).width_certificates \
                == {"majority": "none", "wnu3": "none"}

    def test_core_not_special_tree(self, monkeypatch):
        def not_special(core):
            raise InvalidSpec("not a special tree")

        monkeypatch.setattr(classify, "spec_from_core", not_special)
        spec = SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),))
        rep = classify_special_tree(spec)
        assert rep.verdict == UNDETERMINED and rep.taylor == "not_attempted"
        assert set(rep.seeds) == {"seed", "diagnostic"}
        assert list(rep.timings) == ["core"]

    def test_classify_digraph_wall_budget(self):
        tri = Digraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        assert classify_digraph(tri, wall_budget=1e-9).verdict == UNDETERMINED


class TestLemmaSuite:
    def test_single_edge_all_pass(self):
        spec = SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),))
        report = verify_lemma_suite(spec, seed=1)
        assert report["top_bottom_wnu"] == "found"
        for key in ("diagonal_containment_n2", "diagonal_containment_n3",
                    "wnu_extension", "special_polymer", "singleton_absorber",
                    "comparable_pair_absorption", "sset_identities"):
            assert report[key] == "pass", (key, report[key])

    def test_star_template(self):
        spec = SpecialTreeSpec(3, 1, 1, tuple(
            (i, 0, OrientedPath("1")) for i in range(3)))
        report = verify_lemma_suite(spec, seed=2)
        assert report["top_bottom_wnu"] == "found"
        assert report["wnu_extension"] == "pass"
        assert report["special_polymer"] == "pass"
        assert report["singleton_absorber"] == "pass"
        assert report["comparable_pair_absorption"] == "pass"
        assert report["sset_identities"] == "pass"

    def test_deterministic(self):
        spec = SpecialTreeSpec(2, 1, 2, (
            (0, 0, OrientedPath("11")),
            (1, 0, OrientedPath("11")),
        ))
        assert verify_lemma_suite(spec, seed=3) == verify_lemma_suite(spec, seed=3)

    def test_suite_extends_through_public_extend_wnu(self, monkeypatch):
        # one extend_wnu, handed the diagonal component the suite computed
        deltas = []
        real = classify.extend_wnu

        def counting(tree, tau, power_budget, delta=None):
            deltas.append(delta)
            return real(tree, tau, power_budget, delta)

        monkeypatch.setattr(classify, "extend_wnu", counting)
        spec = SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),))
        assert verify_lemma_suite(spec, seed=1)["wnu_extension"] == "pass"
        assert deltas == [diagonal_component(compile_tree(spec).digraph, 3)]

    def test_power_budget_default_matches_cli(self):
        # the library and `hcolor verify` give one report for one tree only
        # when they default to the same power budget
        param = inspect.signature(verify_lemma_suite).parameters["power_budget"]
        args = cli._build_parser().parse_args(["verify", "--tree", "t.stree"])
        assert param.default == args.budget_power == DEFAULT_POWER_BUDGET

    def test_anchor_absorption_eligibility(self):
        # star template, o = 0: the anchor 3 has the pair {1, 2} above it
        tree = compile_tree(SpecialTreeSpec(3, 1, 1, tuple(
            (i, 0, OrientedPath("1")) for i in range(3))))
        first = table_from_function(4, 2, lambda a: a[0])
        second = table_from_function(4, 2, lambda a: a[1])
        constant = table_from_function(4, 2, lambda a: 0)
        skipped = ("skipped: no eligible neighborhood",) * 2
        assert classify._check_anchor_absorption(tree, 0, second, second) == ("pass", "pass")
        # every element absorbs under the first projection
        assert classify._check_anchor_absorption(tree, 0, first, second) == skipped
        # {1, 2} is not closed under a constant star
        assert classify._check_anchor_absorption(tree, 0, second, constant) == skipped

    def test_triad_suite_skips(self):
        # no top-and-bottom WNU exists on the triad, so the dependent
        # checks skip while the diagonal containments still pass
        report = verify_lemma_suite(canned_triad(), seed=0)
        assert report["top_bottom_wnu"] == "none"
        assert report["diagonal_containment_n2"] == "pass"
        assert report["diagonal_containment_n3"] == "pass"
        assert report["wnu_extension"].startswith("skipped")
        assert report["singleton_absorber"].startswith("skipped")
