import itertools
import random

import pytest

from hcolor.digraph import is_oriented_tree
from hcolor.errors import InvalidFormat, InvalidSpec, MixedLevels
from hcolor.minpath import OrientedPath, is_minimal
from hcolor.spectree import (
    SpecialTreeSpec,
    canned_triad,
    compile_tree,
    dist_e,
    e_neighborhood,
    format_roles,
    format_stree,
    gen_random_special_tree,
    parse_stree,
    preceq,
    recover_top_bottom,
)

LONG_MINIMAL_PATH = OrientedPath("110110110001111")


def one_edge_spec(path="1"):
    return SpecialTreeSpec(1, 1, OrientedPath(path).height,
                           ((0, 0, OrientedPath(path)),))


class TestSpecValidation:
    def test_not_a_tree(self):
        with pytest.raises(InvalidSpec):
            SpecialTreeSpec(2, 2, 1, ((0, 0, OrientedPath("1")),
                                      (0, 1, OrientedPath("1")),
                                      (1, 0, OrientedPath("1")),
                                      (1, 1, OrientedPath("1"))))

    def test_duplicate_edge(self):
        with pytest.raises(InvalidSpec):
            SpecialTreeSpec(2, 1, 1, ((0, 0, OrientedPath("1")),
                                      (0, 0, OrientedPath("1"))))

    def test_nonminimal_path(self):
        with pytest.raises(InvalidSpec):
            SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("101")),))

    def test_height_mismatch(self):
        with pytest.raises(InvalidSpec):
            SpecialTreeSpec(1, 1, 2, ((0, 0, OrientedPath("1")),))

    def test_disconnected(self):
        # four edges forming a template cycle, leaving one vertex isolated
        with pytest.raises(InvalidSpec):
            SpecialTreeSpec(3, 2, 1, ((0, 0, OrientedPath("1")),
                                      (0, 1, OrientedPath("1")),
                                      (1, 0, OrientedPath("1")),
                                      (1, 1, OrientedPath("1"))))


class TestCompile:
    def test_one_edge(self):
        tree = compile_tree(one_edge_spec())
        assert tree.digraph.vertex_count == 2
        assert tree.digraph.edges == frozenset({(0, 1)})
        assert tree.a_vertices == frozenset({0})
        assert tree.b_vertices == frozenset({1})

    def test_long_path_tree(self):
        tree = compile_tree(one_edge_spec(LONG_MINIMAL_PATH.directions))
        assert tree.digraph.vertex_count == 16
        assert tree.levels.height == 5

    def test_triad(self):
        spec = canned_triad()
        assert all(is_minimal(p) and p.height == 4 for _, _, p in spec.template_edges)
        tree = compile_tree(spec)
        g = tree.digraph
        assert g.vertex_count == 39
        assert len(g.edges) == 38
        assert tree.levels.height == 4
        assert len(tree.a_vertices) == 4
        assert len(tree.b_vertices) == 3
        assert is_oriented_tree(g)

    def test_roles_cover_vertices(self):
        tree = compile_tree(canned_triad())
        assert len(tree.roles) == 39
        text = format_roles(tree)
        assert text.splitlines()[0] == "0 A0"
        assert len(text.splitlines()) == 39


class TestRecoverTopBottom:
    def test_single_edge(self):
        tree = compile_tree(one_edge_spec())
        a, b, e = recover_top_bottom(tree.digraph, 1)
        assert (a, b, e) == (frozenset({0}), frozenset({1}), frozenset({(0, 1)}))

    def test_triad_recovers_template(self):
        tree = compile_tree(canned_triad())
        a, b, e = recover_top_bottom(tree.digraph, 4)
        assert a == tree.a_vertices
        assert b == tree.b_vertices
        assert e == frozenset(tree.template_pairs)

    def test_height_one_star(self):
        spec = SpecialTreeSpec(3, 1, 1, tuple(
            (i, 0, OrientedPath("1")) for i in range(3)))
        tree = compile_tree(spec)
        a, b, e = recover_top_bottom(tree.digraph, 1)
        assert a == tree.a_vertices and b == tree.b_vertices
        assert e == frozenset(tree.template_pairs)

    def test_random_round_trip(self):
        shapes = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 2, 3)]
        done = 0
        for seed in range(40):
            a_n, b_n, h = shapes[seed % len(shapes)]
            spec = gen_random_special_tree(seed, a_n, b_n, h, h + 4)
            tree = compile_tree(spec)
            if tree.digraph.vertex_count > 30:
                continue
            a, b, e = recover_top_bottom(tree.digraph, h)
            assert a == tree.a_vertices
            assert b == tree.b_vertices
            assert e == frozenset(tree.template_pairs)
            done += 1
            if done >= 25:
                break
        assert done >= 25


class TestDistE:
    def test_triad(self):
        tree = compile_tree(canned_triad())
        c, t1, t2 = 0, 1, 2
        assert dist_e(tree, c, c) == 0
        w1 = tree.template_pairs[0][1]
        assert dist_e(tree, c, w1) == 1
        assert dist_e(tree, c, t1) == 2
        assert dist_e(tree, t1, t2) == 4


class TestENeighborhood:
    def test_zero_is_identity(self):
        tree = compile_tree(canned_triad())
        s = frozenset({0, 1})
        assert e_neighborhood(tree, s, 0) == s

    def test_triad_steps(self):
        tree = compile_tree(canned_triad())
        c = frozenset({0})
        assert e_neighborhood(tree, c, 1) == tree.b_vertices
        assert e_neighborhood(tree, c, 2) == tree.a_vertices

    def test_mixed_rejected(self):
        tree = compile_tree(canned_triad())
        with pytest.raises(MixedLevels):
            e_neighborhood(tree, frozenset({0, 4}), 1)

    def test_closed_form_and_properties(self):
        rng = random.Random(5)
        for seed in range(12):
            spec = gen_random_special_tree(seed, rng.randint(1, 4), rng.randint(1, 4), 2, 4)
            tree = compile_tree(spec)
            a_list = sorted(tree.a_vertices)
            if len(a_list) > 6:
                continue
            for bits in range(1, 2 ** len(a_list)):
                s = frozenset(a_list[i] for i in range(len(a_list)) if bits >> i & 1)
                for k in range(0, 5):
                    got = e_neighborhood(tree, s, k)
                    side = tree.a_vertices if k % 2 == 0 else tree.b_vertices
                    closed = frozenset(
                        x for x in side
                        if any(dist_e(tree, x, c) <= k and (dist_e(tree, x, c) - k) % 2 == 0
                               for c in s))
                    assert got == closed
                    assert got <= side

    def test_twelve_vertex_template_exhaustive(self):
        # every nonempty bottom subset of a 12-vertex template, both forms
        spec = gen_random_special_tree(77, 6, 6, 2, 2)
        tree = compile_tree(spec)
        a_list = sorted(tree.a_vertices)
        for bits in range(1, 2 ** len(a_list)):
            s = frozenset(a_list[i] for i in range(len(a_list)) if bits >> i & 1)
            for k in range(0, 4):
                got = e_neighborhood(tree, s, k)
                side = tree.a_vertices if k % 2 == 0 else tree.b_vertices
                closed = frozenset(
                    x for x in side
                    if any(dist_e(tree, x, c) <= k and (dist_e(tree, x, c) - k) % 2 == 0
                           for c in s))
                assert got == closed

    def test_monotone_and_eventually_full(self):
        for seed in (3, 4):
            spec = gen_random_special_tree(seed, 3, 3, 2, 4)
            tree = compile_tree(spec)
            a_sorted = sorted(tree.a_vertices)
            small = frozenset(a_sorted[:1])
            big = frozenset(a_sorted[:2])
            for k in range(6):
                assert e_neighborhood(tree, small, k) <= e_neighborhood(tree, big, k)
            hit = False
            for k in range(0, 20, 2):
                if e_neighborhood(tree, small, k) == tree.a_vertices:
                    assert e_neighborhood(tree, small, k + 1) == tree.b_vertices
                    hit = True
                    break
            assert hit


class TestPreceq:
    def test_minimum_and_reflexive(self):
        tree = compile_tree(canned_triad())
        o = 0
        for v in range(tree.digraph.vertex_count):
            assert preceq(tree, o, o, v)
            assert preceq(tree, o, v, v)

    def test_triad_chain(self):
        tree = compile_tree(canned_triad())
        c, t1 = 0, 1
        w1 = tree.template_pairs[0][1]
        assert preceq(tree, c, w1, t1)
        assert not preceq(tree, c, t1, w1)

    def test_implies_dist_monotone(self):
        tree = compile_tree(canned_triad())
        o = 0
        tv = sorted(tree.a_vertices | tree.b_vertices)
        for u, v in itertools.product(tv, tv):
            if preceq(tree, o, u, v):
                assert dist_e(tree, o, u) <= dist_e(tree, o, v)


class TestDiagonalContainment:
    def test_triad_squared(self):
        # bottom and top tuples of the squared triad stay in the diagonal
        # component of the square
        from hcolor.digraph import diagonal_component, power_index

        tree = compile_tree(canned_triad())
        delta = diagonal_component(tree.digraph, 2)
        n = tree.digraph.vertex_count
        for side in (tree.a_vertices, tree.b_vertices):
            for u in side:
                for v in side:
                    assert power_index(n, (u, v)) in delta


class TestStreeFormat:
    def test_round_trip(self):
        spec = canned_triad()
        assert parse_stree(format_stree(spec)) == spec

    def test_generator_deterministic(self):
        s1 = gen_random_special_tree(42, 3, 3, 3, 7)
        s2 = gen_random_special_tree(42, 3, 3, 3, 7)
        assert format_stree(s1) == format_stree(s2)
        s3 = gen_random_special_tree(43, 3, 3, 3, 7)
        assert s1 == s2

    def test_single_edge_forced(self):
        spec = gen_random_special_tree(9, 1, 1, 1, 1)
        assert spec == one_edge_spec()

    @pytest.mark.parametrize("text, message", [
        ("", "empty template file"),
        ("# only a comment\n", "empty template file"),
        ("strees 1 1 1 1\n0 0 1\n", "bad header line: 'strees 1 1 1 1'"),
        ("stree 1 1 1\n0 0 1\n", "bad header line: 'stree 1 1 1'"),
        ("stree 1 1 x 1\n0 0 1\n", "bad header numbers: 'stree 1 1 x 1'"),
        ("stree 1 1 1 2\n0 0 1\n", "expected 2 edge lines, found 1"),
        ("stree 1 1 1 1\n0 0\n", "bad edge line: '0 0'"),
        ("stree 1 1 1 1\nx 0 1\n", "bad edge line: 'x 0 1'"),
        ("stree 1 1 1 1\n0 0 12\n", "bad edge line: '0 0 12'"),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(InvalidFormat) as exc:
            parse_stree(text)
        assert str(exc.value) == message
