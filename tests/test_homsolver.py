import random
import tracemalloc
from dataclasses import replace
from itertools import count

import pytest

from corpus import loopless_digraphs_up_to_iso, random_special_trees
from hcolor import errors, homsolver, polysearch
from hcolor.classify import compute_core
from hcolor.digraph import Digraph
from hcolor.errors import Budget, BudgetExceeded, InvalidPin
from hcolor.homsolver import (
    CspInstance,
    _ac_fixpoint,
    _Buckets,
    _narrowed,
    _NodeCounter,
    _restore,
    _search,
    arc_consistency,
    build_instance,
    consistency_23,
    solve_hom,
)
from hcolor.minpath import OrientedPath
from hcolor.polysearch import find_majority, find_siggers, find_wnu, find_wnu_on_top_bottom
from hcolor.spectree import canned_triad, compile_tree
from reference import (
    branch_var,
    enumerate_homs,
    fifo_fixpoint,
    open_branch_var,
    pair_consistency,
    two_wave_fixpoint,
)
from reference import search as reference_search

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
            inst = CspInstance((3,) * 7, inst.target, succ)
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
    fwd, rev = inst.target.out_masks, inst.target.in_masks
    values = range(inst.target.vertex_count)
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


def loop_filtered(inst: CspInstance) -> list[int]:
    """The domains with each self-looped variable cut to the diagonal."""
    loops = inst.adjacency[2]
    return [d & inst.target.loop_mask if u in loops else d for u, d in enumerate(inst.domains)]


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
                consistent = _ac_fixpoint(domains, inst, ([var], [expect[var]]))
                assert consistent == (scratch is not None)
                if consistent:
                    assert domains == scratch
                hits["incremental"] += 1
        assert all(hits.values()), hits


class _PopLog(tuple):
    """Successor lists that log each variable whose list is read: once per
    pop in `_ac_fixpoint` and in `fifo_fixpoint`."""

    def __getitem__(self, x):
        self.log.append(x)
        return tuple.__getitem__(self, x)


def logging_pops(inst: CspInstance) -> tuple[CspInstance, list[int]]:
    """A copy of inst whose cached adjacency logs the variable of each pop."""
    succs, preds, loops = inst.adjacency
    logged = _PopLog(succs)
    logged.log = []
    copy = CspInstance(inst.domains, inst.target, inst.succ)
    copy.__dict__["adjacency"] = (logged, preds, loops)
    return copy, logged.log


class _Stop(Exception):
    pass


class TestSeededFixpoint:
    """`_narrowed`, seeded first from the narrowed variables, against
    `fifo_fixpoint`, which queues every variable in index order: the same
    domains, or a wipeout on both; and against `two_wave_fixpoint`, a
    plain FIFO restatement of its seeding: the same pops as well."""

    @staticmethod
    def same_fixpoint(inst: CspInstance) -> list[int] | None:
        logged, log = logging_pops(inst)
        got = _narrowed(logged)
        pops = list(log)
        log.clear()
        two_wave, fifo = list(inst.domains), list(inst.domains)
        assert two_wave_fixpoint(two_wave, logged) == (got is not None)
        assert log == pops
        assert (fifo_fixpoint(fifo, inst) and 0 not in fifo) == (got is not None)
        assert got is None or got == two_wave == fifo
        return got

    @pytest.fixture(scope="class")
    def triad_siggers(self):
        """The triad's pinned Siggers component as the solver gets it."""
        core = compute_core(compile_tree(canned_triad()).digraph).core
        got = []

        def stop(inst, budget):
            got.append(inst)
            raise _Stop

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polysearch, "solve_instance", stop)
            with pytest.raises(_Stop):
                find_siggers(core)
        return got[0]

    def test_polymorphism_searches(self, monkeypatch):
        # every full call of the corpus trees' top-and-bottom WNU3 and of
        # the four searches on every 10th loopless 4-vertex digraph: one
        # per solver call (1,060 and 191 in `TestWorkCounts`)
        outcomes = []

        def checking(inst):
            outcomes.append(self.same_fixpoint(inst) is not None)
            return _narrowed(inst)

        monkeypatch.setattr(homsolver, "_narrowed", checking)
        for spec in random_special_trees(25):
            tree = compile_tree(spec)
            find_wnu_on_top_bottom(tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        assert len(outcomes) == 1060
        graphs = loopless_digraphs_up_to_iso(4)[::10]
        assert len(graphs) == 22
        for h in graphs:
            for run in (lambda: find_wnu(h, 2), lambda: find_wnu(h, 3),
                        lambda: find_majority(h), lambda: find_siggers(h)):
                run()
        assert len(outcomes) == 1060 + 191
        assert not all(outcomes)

    def test_random_instances_with_loops_and_pins(self):
        # the pop order of `two_wave_fixpoint`, on instances where the loop
        # filter and the pins narrow, where they narrow every variable or
        # none, and where a wave wipes out
        rng = random.Random(43)
        hits = {"refuted": 0, "two waves": 0, "one wave": 0}
        for _ in range(300):
            x = random_looped_digraph(rng, 7, 0.3)
            h = random_looped_digraph(rng, 5, 0.4)
            pinned = rng.sample(range(x.vertex_count), min(rng.randint(0, 2), x.vertex_count))
            inst = build_instance(x, h, {var: rng.randrange(h.vertex_count) for var in pinned})
            full = (1 << h.vertex_count) - 1
            if self.same_fixpoint(inst) is None:
                hits["refuted"] += 1
            elif 0 < loop_filtered(inst).count(full) < x.vertex_count:
                hits["two waves"] += 1
            else:
                hits["one wave"] += 1
        assert all(hits.values()), hits

    def test_triad_siggers_component(self, triad_siggers):
        # the index-order queue pops 132,008 times, about four pops per
        # class, before the pins' narrowing has reached most classes;
        # seeded from the pins, the same fixpoint takes 58,899 pops
        inst, log = logging_pops(triad_siggers)
        assert inst.variable_count == 33_843
        seeded = _narrowed(inst)
        assert seeded is not None
        assert len(log) == 58_899
        log.clear()
        fifo = list(inst.domains)
        assert fifo_fixpoint(fifo, inst)
        assert len(log) == 132_008
        assert seeded == fifo

    def test_pinned_and_unpinned_parts(self):
        # 3 -> 4 with 4 pinned, beside the free path 0 -> 1 -> 2, into the
        # path 0 -> 1 -> 2: the pin's wave pops 4 and 3, then the free
        # path, which it never reached, is popped in index order
        x = Digraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        h = Digraph.from_edges(3, [(0, 1), (1, 2)])
        pinned = build_instance(x, h, {4: 1})
        inst, log = logging_pops(pinned)
        domains = _narrowed(inst)
        assert log[:5] == [4, 3, 0, 1, 2]
        assert domains == [0b001, 0b010, 0b100, 0b001, 0b010]
        assert self.same_fixpoint(pinned) == domains
        # with nothing pinned, every variable is queued in index order, as
        # in `fifo_fixpoint`, and pops the same
        free, log = logging_pops(build_instance(x, h))
        assert _narrowed(free) is not None
        seeded = list(log)
        log.clear()
        assert fifo_fixpoint(list(free.domains), free)
        assert seeded == log and seeded[:5] == [0, 1, 2, 3, 4]


def open_vars(domains, candidates):
    return [i for i in candidates if domains[i].bit_count() >= 2]


class TestBranchVar:
    """The bucket picker, and the reference search's open-list scan,
    against the full scan of every domain."""

    def test_random_domain_lists(self):
        # a child's domains shrink from its parent's, so the parent's open
        # variables are the only candidates the open-list scan needs
        rng = random.Random(8)
        for _ in range(2000):
            size = rng.randint(1, 6)
            parent = [rng.randrange(1, 1 << size) for _ in range(rng.randint(0, 12))]
            var, open_parent = open_branch_var(parent, range(len(parent)))
            assert (var, open_parent) == (branch_var(parent), open_vars(parent, range(len(parent))))
            child = [d & rng.choice((d, d & -d, rng.randrange(1 << size) | d & -d))
                     for d in parent]
            assert open_branch_var(child, open_parent) == (branch_var(child),
                                                           open_vars(child, open_parent))
            self.check_buckets(rng, parent)

    @staticmethod
    def check_buckets(rng, domains):
        """Narrow a chain of nodes in place as the search does, then undo
        them one by one; every pick, also a repeated one on a restored
        state, is the full scan's choice."""
        buckets = _Buckets(domains)
        states, records = [list(domains)], []
        assert buckets.pick(domains) == branch_var(domains)
        for _ in range(rng.randint(1, 4)):
            changed, olds = [], []
            for i, d in enumerate(domains):
                if d & (d - 1) and rng.random() < 0.4:
                    changed.append(i)
                    olds.append(d)
                    domains[i] = d & (rng.randrange(1 << d.bit_length()) | d & -d)
            buckets.push(domains, changed)
            states.append(list(domains))
            records.append((changed, olds))
            assert buckets.pick(domains) == branch_var(domains)
            assert_held_once(buckets, domains)
        while records:
            changed, olds = records.pop()
            _restore(domains, changed, olds)
            buckets.push(domains, changed)
            states.pop()
            assert domains == states[-1]
            assert buckets.pick(domains) == branch_var(domains)
            assert_held_once(buckets, domains)

    def test_states_recorded_from_corpus_searches(self, monkeypatch):
        # every choice the search makes, checked on the domains it was
        # made on
        calls = []
        pick = _Buckets.pick

        def recording(buckets, domains):
            got = pick(buckets, domains)
            calls.append(got == branch_var(domains))
            return got

        monkeypatch.setattr(_Buckets, "pick", recording)
        for spec in random_special_trees(25)[::3]:
            tree = compile_tree(spec)
            find_wnu_on_top_bottom(tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        assert len(calls) > 1000
        assert all(calls)


def assert_held_once(buckets, domains):
    """Each heap holds exactly the variables its marks say, each once, and
    every open variable is in the heap of its size."""
    assert not any(buckets.heaps[:2])
    for size in range(2, len(buckets.heaps)):
        heap, mark = buckets.heaps[size], buckets.held[size]
        assert sorted(heap) == [var for var in range(len(domains)) if mark[var]]
        assert all(mark[var] for var, d in enumerate(domains) if d.bit_count() == size)


class TestBucketsBounded:
    """Stale entries are dropped for good, so the heaps never outgrow
    variables x sizes, however long the search runs."""

    @staticmethod
    def checking_picks(monkeypatch, every: int) -> dict:
        seen = {"picks": 0, "stale": 0}
        pick = _Buckets.pick

        def checking(buckets, domains):
            seen["picks"] += 1
            entries = sum(map(len, buckets.heaps))
            assert entries <= len(domains) * (len(buckets.heaps) - 2)
            open_count = sum(d.bit_count() > 1 for d in domains)
            seen["stale"] = max(seen["stale"], entries - open_count)
            if seen["picks"] % every == 0:
                assert_held_once(buckets, domains)
            return pick(buckets, domains)

        monkeypatch.setattr(_Buckets, "pick", checking)
        return seen

    def test_seeded_random_searches(self, monkeypatch):
        # small loopless instances whose searches narrow the same variable
        # again after backtracking, at every pick
        seen = self.checking_picks(monkeypatch, 1)
        rng = random.Random(5)
        for _ in range(1000):
            x, h = random_digraph(rng, 16, 0.2), random_digraph(rng, 6, 0.4)
            try:
                solve_hom(x, h, budget=Budget(nodes=3000))
            except BudgetExceeded:
                pass
        assert seen["picks"] > 1000 and seen["stale"] > 0, seen

    def test_long_siggers_search(self, monkeypatch):
        # the Siggers search on the tail digraph runs through thousands of
        # nodes on a 505-variable component
        seen = self.checking_picks(monkeypatch, 16)
        with pytest.raises(BudgetExceeded):
            find_siggers(tail_digraph(), Budget(nodes=3000))
        assert seen["picks"] > 1000 and seen["stale"] > 0, seen


def tail_digraph() -> Digraph:
    """The looped 5-vertex digraph whose one pinned Siggers component, 505
    classes, is the slowest search of its size."""
    edges = [(v, v) for v in range(5)] + [
        (int(a), int(b)) for a, b in "02 03 10 13 14 23 24 30 31 32 40 41 42 43".split()]
    return Digraph.from_edges(5, edges)


def test_node_budget_error_names_budget_and_instance_size():
    with pytest.raises(BudgetExceeded) as exc:
        find_siggers(tail_digraph(), Budget(nodes=2000))
    assert str(exc.value) == "search node budget 2000 exhausted on a 505-variable instance"


def test_deadline_tested_every_1024_nodes(monkeypatch):
    # a fake clock reads 0 when the record is made and one second more at
    # each deadline test: the one pinned component reads 1 as it is built
    # and 2 as it is solved, node 1025 reads 3 and node 2049 reads 4, past
    # the 3.5 s deadline
    clock = count()
    monkeypatch.setattr(errors, "perf_counter", lambda: float(next(clock)))
    ticks = []
    real_tick = _NodeCounter.tick

    def counting_tick(counter):
        ticks.append(None)
        real_tick(counter)

    monkeypatch.setattr(_NodeCounter, "tick", counting_tick)
    with pytest.raises(BudgetExceeded, match="^wall budget of 3.5 s exhausted$"):
        find_siggers(tail_digraph(), Budget(wall=3.5))
    assert len(ticks) == 2049 and next(clock) == 5


def search_outcome(search, domains, inst, budget=None):
    """(assignment or None, nodes) of a search, or ("budget", nodes) when
    the node budget runs out; nodes counts the values tried."""
    counter = _NodeCounter(Budget(nodes=budget), len(domains))
    try:
        found = search(list(domains), inst, counter)
    except BudgetExceeded:
        return "budget", counter.granted - counter.left
    return (None if found is None else tuple(found)), counter.granted - counter.left


class TestSearchAgainstReference:
    """The in-place search against the copying search it replaces: the same
    assignment or refutation after the same number of nodes, and the same
    budget exhaustion under every smaller node budget."""

    def compare(self, domains, inst, every_budget: bool) -> tuple:
        got = search_outcome(_search, domains, inst)
        assert got == search_outcome(reference_search, domains, inst)
        nodes = got[1]
        budgets = range(nodes + 1) if every_budget else {0, nodes - 1, nodes} - {-1}
        for budget in budgets:
            want = got if budget == nodes else ("budget", budget)
            assert search_outcome(_search, domains, inst, budget) == want
            assert search_outcome(reference_search, domains, inst, budget) == want
        return got

    def test_seeded_random_instances(self):
        rng = random.Random(53)
        hits = {"found": 0, "refuted": 0}
        for _ in range(600):
            x = random_looped_digraph(rng, 10, 0.3)
            h = random_looped_digraph(rng, 4, 0.5)
            pinned = rng.sample(range(x.vertex_count), min(rng.randint(0, 2), x.vertex_count))
            inst = build_instance(x, h, {var: rng.randrange(h.vertex_count) for var in pinned})
            reduced = arc_consistency(inst)
            if reduced is None:
                continue
            found, nodes = self.compare(reduced.domains, inst, every_budget=True)
            if nodes:
                hits["found" if found else "refuted"] += 1
        assert hits["found"] > 100 and hits["refuted"] > 20, hits

    def test_polymorphism_searches(self, monkeypatch):
        # the corpus trees' top-and-bottom WNU3 (all found, up to 396
        # nodes) and the dense searches on every 10th loopless 4-vertex
        # digraph (some refuted after branching)
        searched = []
        search = homsolver._search

        def recording(domains, inst, counter):
            searched.append((tuple(domains), inst))
            return search(domains, inst, counter)

        monkeypatch.setattr(homsolver, "_search", recording)
        for spec in random_special_trees(25):
            tree = compile_tree(spec)
            find_wnu_on_top_bottom(tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        corpus = len(searched)
        for h in loopless_digraphs_up_to_iso(4)[::10]:
            for run in (lambda: find_wnu(h, 2), lambda: find_wnu(h, 3),
                        lambda: find_majority(h), lambda: find_siggers(h)):
                run()
        monkeypatch.undo()
        outcomes = [self.compare(domains, inst, every_budget=i >= corpus)
                    for i, (domains, inst) in enumerate(searched)]
        assert sum(nodes for _, nodes in outcomes[:corpus]) == 7403
        assert sum(nodes for _, nodes in outcomes[corpus:]) == 1090
        assert sum(found is None and nodes > 0 for found, nodes in outcomes) == 12


class TestSearchMemory:
    def test_top_bottom_wnu_peak_on_corpus_trees(self):
        # one domain list changed in place: the copying search peaked at
        # about 5 MB on these two trees, one copy of 1,043 domains per node
        specs = random_special_trees(25)
        for i in (16, 17):
            tree = compile_tree(specs[i])
            tracemalloc.start()
            try:
                find_wnu_on_top_bottom(tree.digraph, 3, tree.a_vertices, tree.b_vertices)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_500_000, (i, peak)


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
            solve_hom(x, h, budget=Budget(nodes=0))

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

    def test_greatest_family_against_pair_sets(self):
        # `consistency_23` sweeps from the arc-consistent domains, and the
        # reference from the loop-filtered ones: the same greatest family,
        # or collapse on both
        rng = random.Random(53)
        hits = {"collapsed": 0, "family": 0, "narrowed start": 0}
        for _ in range(200):
            x = random_looped_digraph(rng, 6, 0.35)
            h = random_looped_digraph(rng, 4, 0.5)
            pinned = rng.sample(range(x.vertex_count), min(rng.randint(0, 2), x.vertex_count))
            inst = build_instance(x, h, {var: rng.randrange(h.vertex_count) for var in pinned})
            fam = consistency_23(inst)
            assert fam == pair_consistency(inst)
            if fam is None:
                hits["collapsed"] += 1
                continue
            hits["family"] += 1
            hits["narrowed start"] += _narrowed(inst) != loop_filtered(inst)
        assert all(hits.values()), hits

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
