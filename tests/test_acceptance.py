"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.
"""

import random
import time
from itertools import product

from corpus import random_digraph, random_special_trees, random_tree_like
from hcolor.algebra import (
    OperationTable,
    is_majority,
    is_polymorphism,
    is_tsi,
    is_wnu,
)
from hcolor.classify import BOUNDED_WIDTH, NP_COMPLETE, classify_special_tree, verify_lemma_suite
from hcolor.digraph import Digraph
from hcolor.homsolver import build_instance, consistency_23, solve_hom
from hcolor.minpath import OrientedPath, is_minimal
from hcolor.polysearch import find_majority, find_siggers, find_tsi, find_wnu
from hcolor.spectree import SpecialTreeSpec, canned_triad, compile_tree, recover_top_bottom
from reference import enumerate_homs, net_length

TRIANGLE = Digraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])


def report(num: int, label: str, ok: bool, elapsed: float, limit: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {state} in {elapsed:.3f}s (limit {limit:g}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.3f}s)"


def test_c1_minimal_path_fidelity():
    p = OrientedPath("110110110001111")
    t0 = time.perf_counter()
    ok = is_minimal(p) and p.height == 5 and net_length(p) == 5
    elapsed = time.perf_counter() - t0
    report(1, "canned minimal path", ok, elapsed, 0.001)


def test_c2_triad_fidelity():
    t0 = time.perf_counter()
    spec = canned_triad()
    tree = compile_tree(spec)
    g = tree.digraph
    ok = (g.vertex_count == 39 and len(g.edges) == 38
          and tree.levels.height == 4
          and len(tree.a_vertices) == 4 and len(tree.b_vertices) == 3)
    a, b, e = recover_top_bottom(g, 4)
    ok = ok and a == tree.a_vertices and b == tree.b_vertices
    ok = ok and e == frozenset(tree.template_pairs)
    elapsed = time.perf_counter() - t0
    report(2, "canned triad recovery", ok, elapsed, 10.0)


def test_c3_solver_oracle_equivalence():
    rng = random.Random(303)
    t0 = time.perf_counter()
    ok = True
    for i in range(200):
        x = random_digraph(rng, 6, density=0.3, loops=(i % 7 == 0))
        h = random_digraph(rng, 5, density=0.4, loops=(i % 11 == 0))
        if (solve_hom(x, h) is not None) != bool(enumerate_homs(x, h)):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(3, "solver vs enumeration, 200 pairs", ok, elapsed, 30.0)


def _exhaustive_exists(h: Digraph, arity: int, predicate) -> bool:
    n = h.vertex_count
    return any(
        predicate(t) and is_polymorphism(h, t)
        for t in (OperationTable(n, arity, values)
                  for values in product(range(n), repeat=n ** arity)))


def test_c4_polymorphism_search_agreement():
    t0 = time.perf_counter()
    ok = True
    pairs2 = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for bits in range(16):
        h = Digraph.from_edges(2, [p for i, p in enumerate(pairs2) if bits >> i & 1])
        for k in (2, 3):
            ok &= (find_wnu(h, k) is not None) == _exhaustive_exists(h, k, is_wnu)
            ok &= (find_tsi(h, k) is not None) == _exhaustive_exists(h, k, is_tsi)
        ok &= (find_majority(h) is not None) == _exhaustive_exists(h, 3, is_majority)
        if not ok:
            break
    rng = random.Random(404)
    graphs3 = [TRIANGLE]
    while len(graphs3) < 12:
        g = random_digraph(rng, 3, density=0.5, loops=True)
        if g.vertex_count == 3:
            graphs3.append(g)
    for h in graphs3:
        ok &= (find_wnu(h, 2) is not None) == _exhaustive_exists(h, 2, is_wnu)
        ok &= (find_tsi(h, 2) is not None) == _exhaustive_exists(h, 2, is_tsi)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(4, "search vs table enumeration", ok, elapsed, 60.0)


def test_c5_hardness_smoke():
    t0 = time.perf_counter()
    ok = (find_wnu(TRIANGLE, 3) is None
          and find_majority(TRIANGLE) is None
          and find_siggers(TRIANGLE) is None)
    elapsed = time.perf_counter() - t0
    report(5, "symmetric triangle refutations", ok, elapsed, 60.0)


def _minimal_path_corpus(count: int, max_height: int = 4):
    from hcolor.minpath import sample_minimal_path

    rng = random.Random(606)
    paths = []
    while len(paths) < count:
        h = rng.randint(1, max_height)
        paths.append(sample_minimal_path(rng, h, min(h + 4, 8)))
    return paths


def test_c6_tractable_path_certificates():
    t0 = time.perf_counter()
    ok = True
    for p in _minimal_path_corpus(20):
        g = p.to_digraph()
        if find_majority(g) is None:
            ok = False
            break
        spec = SpecialTreeSpec(1, 1, p.height, ((0, 0, p),))
        if classify_special_tree(spec).verdict != BOUNDED_WIDTH:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(6, "paths have majority and bounded width", ok, elapsed, 300.0)


def test_c7_lemma_suite_on_corpus():
    t0 = time.perf_counter()
    checked = {
        "diagonal_containment_n2", "diagonal_containment_n3", "wnu_extension",
        "special_polymer", "singleton_absorber", "comparable_pair_absorption",
        "sset_identities", "star_collapse_below"}
    ok = True
    found = 0
    for i, spec in enumerate(random_special_trees(25)):
        rep = verify_lemma_suite(spec, seed=42 + i)
        if rep["top_bottom_wnu"] != "found":
            continue
        found += 1
        for key in checked:
            if rep[key] != "pass":
                print(f"  tree {i}: {key} = {rep[key]}")
                ok = False
    ok = ok and found >= 10  # the guarantee is conditional, not vacuous
    elapsed = time.perf_counter() - t0
    report(7, f"lemma suite, {found} trees with top-bottom WNU", ok, elapsed, 900.0)


def test_c8_bounded_width_operational():
    t0 = time.perf_counter()
    trees = []
    for dirs in ("1", "11", "11011", "1101011"):
        p = OrientedPath(dirs)
        trees.append(SpecialTreeSpec(1, 1, p.height, ((0, 0, p),)))
    trees.append(SpecialTreeSpec(2, 1, 2, ((0, 0, OrientedPath("11")),
                                           (1, 0, OrientedPath("11")))))
    rng = random.Random(808)
    ok = True
    for spec in trees:
        if classify_special_tree(spec).verdict != BOUNDED_WIDTH:
            ok = False
            break
        h = compile_tree(spec).digraph
        for i in range(50):
            x = random_tree_like(rng, 7) if i % 2 else random_digraph(rng, 6, 0.3)
            consistent = consistency_23(build_instance(x, h)) is not None
            solvable = solve_hom(x, h) is not None
            if consistent != solvable:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(8, "pair consistency decides on bounded-width trees", ok, elapsed, 600.0)


def test_c9_triad_refutation():
    t0 = time.perf_counter()
    rep = classify_special_tree(canned_triad())
    ok = rep.taylor == "refuted" and rep.verdict == NP_COMPLETE
    # cross-refutation: an NP-complete verdict rules out low-arity WNUs too
    g = compile_tree(canned_triad()).digraph
    ok = ok and find_wnu(g, 3) is None and find_wnu(g, 4) is None
    elapsed = time.perf_counter() - t0
    report(9, "canned triad is NP-complete", ok, elapsed, 24 * 3600.0)
