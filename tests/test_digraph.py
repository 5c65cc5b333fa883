import random
import weakref
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import all_digraphs
from corpus import random_digraph as corpus_digraph
from hcolor.algebra import parse_op
from hcolor.digraph import (
    Digraph,
    PowerWalk,
    compute_levels,
    connected_components,
    diagonal_component,
    format_dg,
    is_connected,
    is_oriented_tree,
    parse_dg,
    power_index,
    read_records,
)
from hcolor.errors import BudgetExceeded, InvalidFormat, NotBalanced
from hcolor.homsolver import solve_hom
from hcolor.minpath import OrientedPath
from hcolor.spectree import parse_stree
from reference import direct_power, power_tuple, two_walk_levels

EDGE = Digraph.from_edges(2, [(0, 1)])
TWO_CYCLE = Digraph.from_edges(2, [(0, 1), (1, 0)])
LONG_MINIMAL_PATH = OrientedPath("110110110001111")


def random_digraph(rng, max_n=5, density=0.4):
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
    return Digraph.from_edges(n, edges)


class TestLevels:
    def test_single_edge(self):
        lv = compute_levels(EDGE)
        assert lv.levels == (0, 1)
        assert lv.height == 1

    def test_minimal_path_height(self):
        lv = compute_levels(LONG_MINIMAL_PATH.to_digraph())
        assert lv.height == 5
        assert lv[LONG_MINIMAL_PATH.length] == 5

    def test_two_cycle_not_balanced(self):
        with pytest.raises(NotBalanced):
            compute_levels(TWO_CYCLE)

    def test_disconnected_rejected(self):
        g = Digraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            compute_levels(g)

    def test_oriented_trees_always_balanced(self):
        # any oriented tree admits levels
        import random

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 9)
            edges = []
            for v in range(1, n):
                u = rng.randrange(v)
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
            g = Digraph.from_edges(n, edges)
            assert is_oriented_tree(g)
            compute_levels(g)


    def test_matches_two_walk_reference(self):
        import random

        def balanced(g):
            for part in connected_components(g):
                index = {v: i for i, v in enumerate(sorted(part))}
                try:
                    compute_levels(Digraph.from_edges(len(part), [
                        (index[u], index[v]) for u, v in g.edges if u in index]))
                except NotBalanced:
                    return False
            return True

        rng = random.Random(18)
        kinds = set()
        for _ in range(600):
            n = rng.randint(0, 8)
            density = rng.choice((0.1, 0.2, 0.35))
            g = Digraph.from_edges(n, [(u, v) for u in range(n) for v in range(n)
                                       if rng.random() < density])
            outcomes = []
            for levels in (compute_levels, two_walk_levels):
                try:
                    outcomes.append(levels(g))
                except (ValueError, NotBalanced) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], g
            kinds.add((n > 0 and not is_connected(g), balanced(g)))
        assert kinds == {(False, True), (False, False), (True, True), (True, False)}


class TestComponents:
    def test_single_edge(self):
        assert connected_components(EDGE) == [frozenset({0, 1})]

    def test_two_disjoint_edges(self):
        g = Digraph.from_edges(4, [(0, 1), (2, 3)])
        assert len(connected_components(g)) == 2
        assert not is_connected(g)

    def test_triad_connected(self):
        from hcolor.spectree import canned_triad, compile_tree

        tree = compile_tree(canned_triad())
        comps = connected_components(tree.digraph)
        assert len(comps) == 1
        assert len(comps[0]) == 39


class TestDirectPower:
    def test_first_power_is_identity(self):
        g = Digraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        p = direct_power(g, 1)
        assert p.vertex_count == g.vertex_count
        assert p.edges == g.edges

    def test_edge_squared(self):
        p = direct_power(EDGE, 2)
        assert p.vertex_count == 4
        assert p.edges == frozenset({(0, 3)})  # (0,0) -> (1,1)

    def test_path11_squared(self):
        g = OrientedPath("11").to_digraph()
        p = direct_power(g, 2)
        assert p.vertex_count == 9
        assert len(p.edges) == 4

    def test_edge_count_power_law(self):
        import random

        rng = random.Random(3)
        for _ in range(10):
            g = random_digraph(rng, max_n=4)
            for n in (1, 2, 3):
                if g.vertex_count ** n <= 1000:
                    assert len(direct_power(g, n).edges) == len(g.edges) ** n

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            direct_power(EDGE, 2, budget=3)


class TestDiagonalComponent:
    def test_power_one_connected(self):
        g = OrientedPath("101").to_digraph()
        assert diagonal_component(g, 1) == frozenset(range(4))

    def test_edge_squared_diagonal(self):
        idx = diagonal_component(EDGE, 2)
        assert idx == frozenset({power_index(2, (0, 0)), power_index(2, (1, 1))})

    def test_union_of_components_containing_diagonal(self):
        import random

        rng = random.Random(11)
        for n, loops, _ in product((1, 2, 3), (False, True), range(20)):
            g = corpus_digraph(rng, max_n=5, loops=loops)
            delta = diagonal_component(g, n)
            comps = connected_components(direct_power(g, n))
            diag = {power_index(g.vertex_count, (v,) * n) for v in range(g.vertex_count)}
            assert delta == frozenset().union(*(c for c in comps if c & diag)), (n, g.edges)


    def test_empty_digraph(self):
        for n in (1, 2, 3):
            assert diagonal_component(Digraph(0, frozenset()), n) == frozenset()

    def test_budget_boundary(self):
        # the walk adds many tuples per mask operation, yet the budget still
        # bounds the component's size exactly
        import random

        rng = random.Random(5)
        graphs = [OrientedPath("1101").to_digraph()] + [
            corpus_digraph(rng, max_n=5, loops=loops) for loops in (False, True) * 5]
        for g, n in product(graphs, (2, 3)):
            size = len(diagonal_component(g, n))
            if size <= g.vertex_count:
                continue  # no tuple beyond the diagonal to refuse
            assert len(diagonal_component(g, n, budget=size)) == size
            message = f"diagonal component exceeded budget {size - 1}"
            with pytest.raises(BudgetExceeded, match=message):
                diagonal_component(g, n, budget=size - 1)


class TestSharedTables:
    """Walks on one digraph object share its half tables, never their
    visited masks, and the tables die with the digraph."""

    CYCLE = ((0, 1), (1, 2), (2, 0), (2, 3))

    def test_walks_share_tables_not_state(self):
        g = Digraph.from_edges(4, self.CYCLE)
        first, second = PowerWalk(g, 3), PowerWalk(g, 3)
        assert first.out_rows is second.out_rows and first.out_mask is second.out_mask
        assert first.visit([power_index(4, (0, 0, 0))])[0]
        assert any(first.visited) and not any(second.visited)

    def test_repeated_diagonal_components_agree(self):
        g = Digraph.from_edges(4, self.CYCLE)
        once = diagonal_component(g, 3)
        assert diagonal_component(g, 3) == once
        assert diagonal_component(Digraph.from_edges(4, self.CYCLE), 3) == once

    def test_tables_die_with_the_digraph(self):
        g = Digraph.from_edges(4, self.CYCLE)
        diagonal_component(g, 3)
        solve_hom(g, g)
        assert set(g.derived) == {1, 2}
        ref = weakref.ref(g)
        del g  # no module-level table, and no cycle, keeps it alive
        assert ref() is None


class TestEdgeTables:
    """The solver's tables on a digraph are their definitions from its edges."""

    @staticmethod
    def digraphs() -> list[Digraph]:
        """Every digraph on at most 3 vertices, and seeded looped ones on 4 to 7."""
        rng = random.Random(28)
        small = [g for n in range(4) for g in all_digraphs(n)]
        return small + [corpus_digraph(rng, n, 0.4, loops=True)
                        for n in range(4, 8) for _ in range(30)]

    def test_tables_match_edges(self):
        for g in self.digraphs():
            vs, edges = range(g.vertex_count), g.edges
            outs = [[v for v in vs if (u, v) in edges] for u in vs]
            ins = [[u for u in vs if (u, v) in edges] for v in vs]
            assert g.out_masks == tuple(sum(1 << v for v in ws) for ws in outs)
            assert g.in_masks == tuple(sum(1 << u for u in ws) for ws in ins)
            assert g.loop_mask == sum(1 << v for v in vs if (v, v) in edges)
            assert g.neighbors == tuple(tuple(sorted(o + i)) for o, i in zip(outs, ins))

    def test_memos_hold_images(self):
        rng = random.Random(7)
        filled = 0
        for _ in range(40):
            g = corpus_digraph(rng, 6, 0.4, loops=True)
            solve_hom(corpus_digraph(rng, 6, 0.3), g)
            filled += len(g.images) + len(g.preimages)
            for mask, image in g.images.items():
                assert image == sum(1 << v for v in {v for u, v in g.edges if mask >> u & 1})
            for mask, preimage in g.preimages.items():
                assert preimage == sum(1 << u for u in {u for u, v in g.edges if mask >> v & 1})
        assert filled > 100


class TestOrientedTree:
    def test_cases(self):
        assert is_oriented_tree(EDGE)
        assert not is_oriented_tree(TWO_CYCLE)
        from hcolor.spectree import canned_triad, compile_tree

        assert is_oriented_tree(compile_tree(canned_triad()).digraph)


class TestIndexing:
    @given(st.integers(2, 5), st.integers(1, 4), st.data())
    def test_round_trip(self, base, n, data):
        idx = data.draw(st.integers(0, base**n - 1))
        assert power_index(base, power_tuple(base, n, idx)) == idx


class TestDgFormat:
    def test_round_trip(self):
        g = Digraph.from_edges(4, [(0, 1), (2, 1), (2, 3)])
        assert parse_dg(format_dg(g)) == g

    def test_comments_and_errors(self):
        text = "# a comment\ndigraph 2 1\n0 1\n"
        assert parse_dg(text) == EDGE
        with pytest.raises(InvalidFormat):
            parse_dg("digraph 2 1\n0 1")  # no trailing newline
        with pytest.raises(InvalidFormat):
            parse_dg("digraph 2 2\n0 1\n0 1\n")  # duplicate edge
        with pytest.raises(InvalidFormat):
            parse_dg("digraph 2 1\n0 5\n")  # out of range
        with pytest.raises(InvalidFormat):
            parse_dg("digraph -1 0\n")  # negative vertex count


# The three text formats: parser, header name, header number count, the
# name of the file kind in "empty ... file", and one valid text.
FORMATS = [
    pytest.param(parse_dg, "digraph", 2, "digraph", "digraph 3 2\n0 1\n2 1\n", id="dg"),
    pytest.param(parse_stree, "stree", 4, "template", "stree 2 1 2 2\n0 0 11\n1 0 11\n",
                 id="stree"),
    pytest.param(parse_op, "op", 2, "operation", "op 2 1\n0\n1\n", id="op"),
]


class TestTextFormats:
    """`.dg`, `.stree` and `.op` share one header grammar, and with it the
    same three errors and the same skipped lines."""

    def test_read_records(self):
        text = "# lead\n  x 1 -2\n\n  # indented\na b\r\n c\n"
        assert read_records(text, "x", 2, "thing") == ("  x 1 -2", [1, -2], ["a b", " c"])

    @pytest.mark.parametrize("parse, name, count, what, valid", FORMATS)
    def test_shared_header_errors(self, parse, name, count, what, valid):
        numbers = " 1" * count
        cases = [
            ("\n", f"empty {what} file"),
            (" \n\t\n\r\n", f"empty {what} file"),
            ("# only a comment\n  # and an indented one\n", f"empty {what} file"),
            (f"{name}s{numbers}\n", f"bad header line: '{name}s{numbers}'"),
            (f"{name}{numbers} 1\n", f"bad header line: '{name}{numbers} 1'"),
            (f"{name}{numbers[2:]}\n", f"bad header line: '{name}{numbers[2:]}'"),
            (f"{name} x{numbers[2:]}\n", f"bad header numbers: '{name} x{numbers[2:]}'"),
            (f"  {name}{numbers[2:]} 1.5\n", f"bad header numbers: '  {name}{numbers[2:]} 1.5'"),
        ]
        for text, message in cases:
            with pytest.raises(InvalidFormat) as exc:
                parse(text)
            assert str(exc.value) == message, text

    @pytest.mark.parametrize("parse, name, count, what, valid", FORMATS)
    def test_skipped_lines_and_crlf(self, parse, name, count, what, valid):
        lines = valid.splitlines()
        decorated = "\r\n".join(f"\t\n  # note {i}\r\n{ln}" for i, ln in enumerate(lines))
        assert parse("#lead\r\n" + decorated + "\r\n\n") == parse(valid)

    @pytest.mark.parametrize("parse, text, message", [
        pytest.param(parse_dg, "  digraph -1 0\n", "negative vertex count: '  digraph -1 0'",
                     id="dg"),
        pytest.param(parse_op, "\top 2 -1 \n", "negative size or arity: '\\top 2 -1 '",
                     id="op"),
    ])
    def test_negative_counts_quote_the_header_as_read(self, parse, text, message):
        with pytest.raises(InvalidFormat) as exc:
            parse(text)
        assert str(exc.value) == message
