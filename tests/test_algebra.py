import dataclasses
import functools
import random
import time
import tracemalloc
from itertools import product

import pytest

import reference
from corpus import loopless_digraphs_up_to_iso, random_special_trees
from hcolor import algebra
from hcolor.digraph import Digraph, LevelAssignment, diagonal_component, power_index
from hcolor.errors import (
    ArityBudgetExceeded,
    ConstructionStuck,
    DistanceNotUniform,
    InvalidFormat,
    NotWNU,
    PreconditionViolated,
)
from hcolor.algebra import (
    ComposeExpr,
    OperationTable,
    WeakPointingCertificate,
    _wnu_extension_values,
    absorbs,
    binary_polymer,
    build_pointing_for_af,
    build_pointing_for_neighborhood,
    comparable_pair_failure,
    compose_pointing,
    eval_term,
    extend_binary,
    extend_wnu,
    find_singleton_absorber,
    format_op,
    is_idempotent,
    is_majority,
    is_polymorphism,
    is_siggers,
    is_tsi,
    is_wnu,
    make_special,
    parse_op,
    s_set,
    star_table,
    table_from_function,
    verify_weak_pointing,
)
from hcolor.minpath import OrientedPath
from hcolor.polysearch import find_majority, find_wnu
from hcolor.spectree import SpecialTreeSpec, compile_tree, e_neighborhood

EDGE = Digraph.from_edges(2, [(0, 1)])

BOOL_MAJORITY = OperationTable(2, 3, tuple(
    1 if sum(power_args) >= 2 else 0
    for power_args in product(range(2), repeat=3)))
BOOL_MEET = OperationTable(2, 2, (0, 0, 0, 1))
PROJ1 = table_from_function(3, 2, lambda a: a[0])


def star_tree(arms: int) -> SpecialTreeSpec:
    """Height-1 template: `arms` bottom vertices all attached to one top vertex."""
    return SpecialTreeSpec(arms, 1, 1, tuple(
        (i, 0, OrientedPath("1")) for i in range(arms)))


def commutative_star(size: int, pairs: dict[tuple[int, int], int]) -> OperationTable:
    def fn(args):
        x, y = args
        if x == y:
            return x
        if (x, y) in pairs:
            return pairs[(x, y)]
        return pairs[(y, x)]

    return table_from_function(size, 2, fn)


class TestOperationTable:
    def test_apply_lexicographic(self):
        t = OperationTable(2, 2, (0, 1, 1, 0))  # xor
        assert t(0, 1) == 1 and t(1, 1) == 0

    @pytest.mark.parametrize("size, arity, values", [
        (2, 2, (0, 1, -1, 0)), (2, 1, (2, 0)), (3, 1, (0, 3, 1)), (1, 2, (1,))])
    def test_values_out_of_range(self, size, arity, values):
        with pytest.raises(ValueError) as exc:
            OperationTable(size, arity, values)
        assert str(exc.value) == "table value out of range"

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_empty_table(self, arity):
        assert OperationTable(0, arity, ()).values == ()

    def test_op_format_round_trip(self):
        assert parse_op(format_op(BOOL_MAJORITY)) == BOOL_MAJORITY

    def test_format_op_matches_reference(self):
        rng = random.Random(5)
        tables = [OperationTable(0, 2, ()), OperationTable(1, 0, (0,)), OperationTable(1, 3, (0,)),
                  OperationTable(3, 0, (2,))]
        for _ in range(40):
            size, arity = rng.randint(1, 12), rng.randint(0, 3)
            tables.append(OperationTable(
                size, arity, tuple(rng.randrange(size) for _ in range(size ** arity))))
        for t in tables:
            assert format_op(t) == reference.format_op(t)
            assert parse_op(format_op(t)) == t

    def test_format_op_shares_value_strings(self):
        # the worst sweep tree's Siggers table is 37^4; formatting it once
        # made a str per value, 111 MB traced
        rng = random.Random(6)
        t = OperationTable(37, 4, tuple(rng.choices(range(37), k=37 ** 4)))
        tracemalloc.start()
        try:
            text = format_op(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2 ** 20
        assert text.count("\n") == 1 + 37 ** 4

    @pytest.mark.parametrize("text, message", [
        ("", "empty operation file"),
        ("# only a comment\n", "empty operation file"),
        ("ops 2 2\n0\n0\n0\n1\n", "bad header line: 'ops 2 2'"),
        ("op 2\n0\n", "bad header line: 'op 2'"),
        ("op 2 x\n0\n", "bad header numbers: 'op 2 x'"),
        ("op 2 2\n0\n1\n1\n", "expected 4 values, found 3"),
        ("op 3 1\n0\n1\n", "expected 3 values, found 2"),
        ("op 2 3\n0\n1\n", "expected 8 values, found 2"),
        ("op 2 1\n0\n2\n", "table value out of range"),
        ("op 2 -1\n", "negative size or arity: 'op 2 -1'"),
        ("op -2 2\n0\n0\n0\n0\n", "negative size or arity: 'op -2 2'"),
        # the line as read is quoted, as `.dg` quotes a bad edge line
        ("op 2 1\n0\nx\n", "bad value line: 'x'"),
        ("op 2 1\n0\n x \n", "bad value line: ' x '"),
        # the header is checked before any value line is read
        ("op -1 2\n" + "x\n" * 5, "negative size or arity: 'op -1 2'"),
    ])
    def test_parse_op_rejects(self, text, message):
        with pytest.raises(InvalidFormat) as exc:
            parse_op(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("header", ["op 3 30000000", "op 2 100000000"])
    def test_parse_op_rejects_huge_arity_fast(self, header):
        size, arity = header.split()[1:]
        start = time.perf_counter()
        with pytest.raises(InvalidFormat) as exc:
            parse_op(header + "\n0\n")
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == f"expected {size}^{arity} values, found 1"

    def test_parse_op_rejects_huge_size_without_formatting_the_count(self):
        # 9...9 ** 2 has 6,000 digits, past the int-to-str limit
        size = "9" * 3000
        start = time.perf_counter()
        with pytest.raises(InvalidFormat) as exc:
            parse_op(f"op {size} 2\n0\n0\n")
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == f"expected {size}^2 values, found 2"


class TestOperationExpr:
    def test_composition_matches_definition(self):
        rng = random.Random(2)
        for _ in range(20):
            size = rng.randint(2, 3)
            kf, kg = rng.randint(1, 2), rng.randint(1, 3)
            if kf * kg > 6:
                continue
            f = table_from_function(size, kf, lambda a, r=rng.random(): hash(a) % size)
            g = table_from_function(size, kg, lambda a: max(a))
            comp = ComposeExpr(g, f)
            assert comp.arity == kf * kg
            for args in product(range(size), repeat=kf * kg):
                blocks = [f.apply(args[i * kf:(i + 1) * kf]) for i in range(kg)]
                assert comp.apply(args) == g.apply(blocks)


class TestPredicates:
    def test_known_tables(self):
        assert is_idempotent(BOOL_MAJORITY)
        assert is_wnu(BOOL_MAJORITY)
        assert is_majority(BOOL_MAJORITY)
        assert is_tsi(BOOL_MEET)
        assert not is_majority(table_from_function(2, 3, lambda a: a[0]))

    def test_siggers_of_majority_pattern(self):
        s = table_from_function(2, 4, lambda a: 1 if sum(a) >= 3 else 0)
        # s(a,x,e,a) vs s(x,a,x,e) differ for a=0, x=1, e=1
        assert not is_siggers(s)

    def test_projection_is_polymorphism(self):
        g = Digraph.from_edges(3, [(0, 1), (1, 2)])
        assert is_polymorphism(g, table_from_function(3, 3, lambda a: a[1]))

    def test_constant_not_polymorphism(self):
        assert not is_polymorphism(EDGE, table_from_function(2, 1, lambda a: 0))

    def test_boolean_majority_preserves_edge(self):
        assert is_polymorphism(EDGE, BOOL_MAJORITY)

    def test_exhaustive_budget(self):
        from hcolor.errors import BudgetExceeded

        g = Digraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        proj = table_from_function(3, 3, lambda a: a[0])
        with pytest.raises(BudgetExceeded):
            is_polymorphism(g, proj, budget=5)


def identity_after(table):
    """The table's operation as a composition under the unary identity,
    which `is_polymorphism` checks tuple by tuple."""
    return ComposeExpr(table_from_function(table.size, 1, lambda a: a[0]), table)


class TestTablePathMatchesExpr:
    """The index path for tables against tuple-by-tuple evaluation."""

    @staticmethod
    def agree(h, table):
        fast = is_polymorphism(h, table)
        assert fast == is_polymorphism(h, identity_after(table)), (sorted(h.edges), table)
        return fast

    def test_found_tables_and_one_value_changes(self):
        rng = random.Random(11)
        verdicts = set()
        for h in loopless_digraphs_up_to_iso(4):
            for table in (find_wnu(h, 2), find_wnu(h, 3), find_majority(h)):
                if table is None:
                    continue
                assert self.agree(h, table)
                values = list(table.values)
                i = rng.randrange(len(values))
                values[i] = rng.choice([v for v in range(table.size) if v != values[i]])
                verdicts.add(self.agree(h, OperationTable(table.size, table.arity,
                                                          tuple(values))))
        assert verdicts == {True, False}

    def test_random_tables(self):
        rng = random.Random(12)
        graphs = loopless_digraphs_up_to_iso(4)
        for h in rng.sample(graphs, 30) + [graphs[0], graphs[-1]]:
            for arity in (1, 2, 3, 4):
                for _ in range(5):
                    values = tuple(rng.randrange(4) for _ in range(4 ** arity))
                    self.agree(h, OperationTable(4, arity, values))
            for arity in (1, 2):  # projections and constants
                self.agree(h, table_from_function(4, arity, lambda a: a[-1]))
                self.agree(h, table_from_function(4, arity, lambda a: 2))

    def test_budget_before_any_work(self, monkeypatch):
        from hcolor import algebra
        from hcolor.errors import BudgetExceeded

        g = Digraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        proj = table_from_function(3, 3, lambda a: a[0])
        ops = (proj, identity_after(proj))
        monkeypatch.setattr(algebra, "product", None)  # any use fails
        for op in ops:
            with pytest.raises(BudgetExceeded):
                is_polymorphism(g, op, budget=26)
        monkeypatch.undo()
        for op in ops:
            assert is_polymorphism(g, op, budget=27)


class TestPolymer:
    def test_majority_polymer_is_first_projection(self):
        p = binary_polymer(BOOL_MAJORITY)
        assert all(p(x, y) == x for x in range(2) for y in range(2))

    def test_idempotent(self):
        p = binary_polymer(BOOL_MAJORITY)
        assert all(p(x, x) == x for x in range(2))

    def test_rejects_non_wnu(self):
        with pytest.raises(NotWNU):
            binary_polymer(table_from_function(2, 3, lambda a: a[0]))

    def test_rotations_agree_on_random_wnu(self):
        from hcolor.polysearch import find_wnu

        h = OrientedPath("111").to_digraph()  # 4-element chain
        w = find_wnu(h, 3)
        assert w is not None
        p = binary_polymer(w)
        for x in range(4):
            for y in range(4):
                rotations = {
                    w.apply((x,) * i + (y,) + (x,) * (2 - i)) for i in range(3)}
                assert rotations == {p(x, y)}


class TestMakeSpecial:
    def test_already_special(self):
        expr, p = make_special(BOOL_MAJORITY)
        assert p == binary_polymer(BOOL_MAJORITY)
        assert expr is BOOL_MAJORITY

    def test_swap_polymer_needs_two_rounds(self):
        # commutative WNU on 3 elements whose polymer swaps 1 and 2 around 0
        w = commutative_star(3, {(0, 1): 2, (0, 2): 1, (1, 2): 0})
        expr, p = make_special(w)
        assert all(p(x, p(x, y)) == p(x, y) for x in range(3) for y in range(3))
        assert expr.arity == 4  # one self-composition of the binary table

    def test_random_wnu_special_polymer(self):
        from hcolor.polysearch import find_wnu

        h = OrientedPath("11011").to_digraph()
        w = find_wnu(h, 3)
        assert w is not None
        _, p = make_special(w)
        n = p.size
        assert all(p(x, p(x, y)) == p(x, y) for x in range(n) for y in range(n))
        assert is_polymorphism(h, p)


class TestStar:
    def test_projection_fixed(self):
        st = star_table(PROJ1)
        assert st == PROJ1

    def test_idempotent(self):
        w = commutative_star(3, {(0, 1): 2, (0, 2): 1, (1, 2): 0})
        st = star_table(w)
        assert is_idempotent(st)

    def test_second_projection_polymer(self):
        p = table_from_function(3, 2, lambda a: a[1])
        st = star_table(p)
        assert all(st(x, y) == y for x in range(3) for y in range(3))


class TestSSet:
    def test_diagonal_is_singleton(self):
        st = star_table(commutative_star(3, {(0, 1): 2, (0, 2): 1, (1, 2): 0}))
        for c in range(3):
            values, terms = s_set(c, c, st)
            assert values == frozenset({c})

    def test_symmetry(self):
        st = star_table(commutative_star(3, {(0, 1): 2, (0, 2): 1, (1, 2): 0}))
        for c in range(3):
            for cp in range(3):
                assert s_set(c, cp, st)[0] == s_set(cp, c, st)[0]

    def test_projection_star(self):
        values, terms = s_set(0, 2, star_table(PROJ1))
        assert values == frozenset({0, 2})

    def test_terms_witness_values(self):
        st = star_table(commutative_star(4, {(0, 1): 2, (0, 2): 3, (1, 2): 2,
                                             (2, 3): 2, (0, 3): 2, (1, 3): 3}))
        values, terms = s_set(0, 1, st)
        for val, term in terms.items():
            assert eval_term(term, st, 0, 1) == val

    def test_star_closed(self):
        st = star_table(commutative_star(3, {(0, 1): 2, (0, 2): 1, (1, 2): 0}))
        for c, cp in ((0, 1), (0, 2), (1, 2)):
            values, _ = s_set(c, cp, st)
            with_ends = values | {c, cp}
            for a in values:
                for b in values:
                    assert st(a, b) in values
            for a in with_ends:
                for b in with_ends:
                    assert st(a, b) in with_ends


class TestAbsorption:
    def test_subset_equals_superset(self):
        full = frozenset({0, 1})
        assert absorbs(BOOL_MEET, full, full)

    def test_meet_absorbs_into_zero(self):
        full = frozenset({0, 1})
        assert absorbs(BOOL_MEET, full, frozenset({0}))
        assert not absorbs(BOOL_MEET, full, frozenset({1}))

    def test_polymer_reduction_matches_full_check(self):
        # the singleton criterion of find_singleton_absorber, o p x = o for
        # the binary polymer p of a WNU w, is exactly absorption via w
        from hcolor.polysearch import find_wnu

        for dirs in ("1", "11", "111"):
            h = OrientedPath(dirs).to_digraph()
            w = find_wnu(h, 3)
            if w is None:
                continue
            p = binary_polymer(w)
            full = frozenset(range(h.vertex_count))
            for o in range(h.vertex_count):
                via_polymer = all(p(o, x) == o for x in full)
                assert via_polymer == absorbs(w, full, frozenset({o}))


class TestSingletonAbsorber:
    def test_single_edge_tree(self):
        tree = compile_tree(SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),)))
        from hcolor.polysearch import find_wnu

        w = find_wnu(tree.digraph, 3)
        _, p = make_special(w)
        o = find_singleton_absorber(tree, p)
        e2 = e_neighborhood(tree, frozenset({o}), 2)
        assert all(p(o, w_) == o for w_ in e2)

    def test_comparable_pairs_collapse(self):
        from hcolor.polysearch import find_wnu

        spec = star_tree(3)
        tree = compile_tree(spec)
        w = find_wnu(tree.digraph, 3)
        assert w is not None
        _, p = make_special(w)
        o = find_singleton_absorber(tree, p)
        assert comparable_pair_failure(tree, o, p) is None
        side = tree.a_vertices if o in tree.a_vertices else tree.b_vertices
        assert all(p(o, x) == o for x in side)

    def test_first_comparable_pair_failure(self):
        # under the second projection the upper element of a comparable pair
        # wins; o precedes every A-vertex, so (o, next A-vertex) fails first
        from hcolor.classify import _check_star_collapse_below
        from hcolor.spectree import canned_triad

        tree = compile_tree(canned_triad())
        second = table_from_function(39, 2, lambda a: a[1])
        o, first = sorted(tree.a_vertices)[:2]
        assert comparable_pair_failure(tree, o, second) == (o, first)
        assert _check_star_collapse_below(tree, o, second) == f"fail: {o} * {first} = {first}"

    def test_diagnostic_when_not_special(self):
        # second projection absorbs nowhere on the triad: every template
        # vertex has a two-step neighborhood with more than itself in it
        from hcolor.errors import NoneFound
        from hcolor.spectree import canned_triad

        tree = compile_tree(canned_triad())
        second = table_from_function(39, 2, lambda a: a[1])
        with pytest.raises(NoneFound):
            find_singleton_absorber(tree, second)


class TestWeakPointing:
    def test_trivial_cases(self):
        idem = table_from_function(2, 2, lambda a: a[0])
        cert = WeakPointingCertificate(
            idem, frozenset({0}), frozenset({0}), ((0, 0), (0, 0)))
        assert verify_weak_pointing(cert)

    def test_meet_points_to_zero(self):
        cert = WeakPointingCertificate(
            BOOL_MEET, frozenset({0, 1}), frozenset({0}),
            ((1, 0), (0, 1)))
        assert verify_weak_pointing(cert)

    def test_projection_fails(self):
        cert = WeakPointingCertificate(
            table_from_function(2, 2, lambda a: a[0]),
            frozenset({0, 1}), frozenset({0}), ((0, 0), (0, 0)))
        assert not verify_weak_pointing(cert)

    def test_alpha_mismatch_detected(self):
        cert = WeakPointingCertificate(
            BOOL_MEET, frozenset({0, 1}), frozenset({0}),
            ((1, 0), (0, 1)), alpha={0: 0, 1: 1})
        assert not verify_weak_pointing(cert)  # coordinate 1 with u=1 gives 0


class TestComposePointing:
    def test_meet_chain(self):
        first = WeakPointingCertificate(
            BOOL_MEET, frozenset({0, 1}), frozenset({0}),
            ((1, 0), (0, 1)))
        second = WeakPointingCertificate(
            BOOL_MEET, frozenset({0}), frozenset({0}),
            ((0, 0), (0, 0)))
        out = compose_pointing(first, second)
        assert out.op.arity == 4
        assert out.x_set == frozenset({0, 1})
        assert out.y_set == frozenset({0})
        assert verify_weak_pointing(out)

    def test_four_element_lattice(self):
        meet4 = table_from_function(4, 2, lambda a: a[0] & a[1])
        down = WeakPointingCertificate(
            meet4, frozenset({0, 1, 2, 3}), frozenset({0, 1}),
            ((1, 1), (1, 1)))
        finish = WeakPointingCertificate(
            meet4, frozenset({0, 1}), frozenset({0}),
            ((0, 0), (0, 0)))
        assert verify_weak_pointing(down)
        assert verify_weak_pointing(finish)
        out = compose_pointing(down, finish)
        assert verify_weak_pointing(out)

    def test_rejects_bad_input(self):
        bad = WeakPointingCertificate(
            table_from_function(2, 2, lambda a: a[0]),
            frozenset({0, 1}), frozenset({0}), ((0, 0), (0, 0)))
        good = WeakPointingCertificate(
            BOOL_MEET, frozenset({0}), frozenset({0}),
            ((0, 0), (0, 0)))
        with pytest.raises(PreconditionViolated):
            compose_pointing(bad, good)


def cyclic_star_tree():
    """3-arm height-1 tree with the cyclic commutative fold on the bottom."""
    tree = compile_tree(star_tree(3))
    b = 3
    star = table_from_function(4, 2, lambda a: _cyclic(a[0], a[1], b))
    return tree, b, star


def _cyclic(x, y, b):
    if x == y:
        return x
    if x == b or y == b:
        return b
    return 3 - x - y


def deep_star_tree():
    """4-arm height-1 tree whose fold pushes 0,1 into the closed pair {2,3}."""
    tree = compile_tree(star_tree(4))
    b = 4
    pairs = {(0, 1): 2, (0, 2): 3, (1, 2): 2, (2, 3): 2, (0, 3): 2, (1, 3): 3}
    star = commutative_star(5, {**pairs, (0, 4): 4, (1, 4): 4, (2, 4): 4, (3, 4): 4})
    return tree, b, star


class TestExtendBinary:
    def test_star_restriction_extends(self):
        tree, b, star = cyclic_star_tree()
        c_set = frozenset({0, 1, 2})
        gamma = {}
        terms = {}
        for c in c_set:
            for cp in c_set:
                gamma[(c, cp)] = star(c, cp)
                terms[(c, cp)] = ("star", "x", "y")
        tau = extend_binary(tree, b, c_set, gamma, star, terms)
        assert is_polymorphism(tree.digraph, tau)
        for c in c_set:
            for cp in c_set:
                assert tau(c, cp) == gamma[(c, cp)]

    def test_commutative_extension(self):
        tree, b, star = cyclic_star_tree()
        c_set = frozenset({0, 1, 2})
        from hcolor.algebra import _commutative_gamma

        gamma, terms = _commutative_gamma(sorted(c_set), star, {})
        tau = extend_binary(tree, b, c_set, gamma, star, terms)
        assert all(tau(c, cp) == tau(cp, c) for c in c_set for cp in c_set)

    def test_rejects_value_outside_term_set(self):
        tree, b, star = cyclic_star_tree()
        c_set = frozenset({0, 1, 2})
        gamma = {(c, cp): star(c, cp) for c in c_set for cp in c_set}
        terms = {(c, cp): ("star", "x", "y") for c in c_set for cp in c_set}
        gamma[(0, 1)] = 0  # 0 is not reachable: S_{0,1} is the whole bottom triple
        # the supplied term no longer witnesses the value
        with pytest.raises(PreconditionViolated):
            extend_binary(tree, b, c_set, gamma, star, terms)


class TestNeighborhoodPointing:
    def test_singleton(self):
        tree, b, star = cyclic_star_tree()
        cert = build_pointing_for_neighborhood(tree, b, frozenset({1}), star)
        assert verify_weak_pointing(cert)
        assert cert.y_set == frozenset({1})

    def test_cyclic_star_full_neighborhood(self):
        tree, b, star = cyclic_star_tree()
        cert = build_pointing_for_neighborhood(tree, b, frozenset({0, 1, 2}), star)
        assert verify_weak_pointing(cert)
        assert cert.x_set == frozenset({0, 1, 2})
        assert len(cert.y_set) == 1

    def test_deep_branch(self):
        tree, b, star = deep_star_tree()
        values, _ = s_set(0, 1, star)
        assert values == frozenset({2, 3})  # forces the two-stage pair argument
        cert = build_pointing_for_neighborhood(tree, b, frozenset({0, 1, 2, 3}), star)
        assert verify_weak_pointing(cert)
        assert len(cert.y_set) == 1

    def test_not_star_closed_diagnosed(self):
        tree, b, star = cyclic_star_tree()
        with pytest.raises(ConstructionStuck):
            build_pointing_for_neighborhood(tree, b, frozenset({0, 1}), star)

    @pytest.mark.parametrize("make, c_set, arity", [(cyclic_star_tree, {0, 1, 2}, 4),
                                                    (deep_star_tree, {0, 1, 2, 3}, 8)])
    def test_arity_budget(self, make, c_set, arity, monkeypatch):
        # the budget bounds the composed arity inclusively, read at call time
        tree, b, star = make()
        monkeypatch.setattr(algebra, "ARITY_BUDGET", arity)
        cert = build_pointing_for_neighborhood(tree, b, frozenset(c_set), star)
        assert cert.op.arity == arity
        monkeypatch.setattr(algebra, "ARITY_BUDGET", arity - 1)
        with pytest.raises(ArityBudgetExceeded):
            build_pointing_for_neighborhood(tree, b, frozenset(c_set), star)


class TestAfPointing:
    def tractable_pipeline(self, spec):
        from hcolor.polysearch import find_wnu

        tree = compile_tree(spec)
        w = find_wnu(tree.digraph, 3)
        assert w is not None
        _, p = make_special(w)
        o = find_singleton_absorber(tree, p)
        return tree, p, o

    def test_distance_zero_trivial(self):
        tree, p, o = self.tractable_pipeline(star_tree(3))
        cert = build_pointing_for_af(tree, frozenset({o}), o, p)
        assert verify_weak_pointing(cert)

    def test_distance_one_delegates(self):
        tree, p, o = self.tractable_pipeline(star_tree(3))
        c_set = e_neighborhood(tree, frozenset({o}), 1)
        try:
            cert = build_pointing_for_af(tree, c_set, o, p)
            assert verify_weak_pointing(cert)
            assert len(cert.y_set) == 1
        except ConstructionStuck:
            pass  # legal diagnostic when the set is not absorption-free

    def test_distance_not_uniform(self):
        tree, p, o = self.tractable_pipeline(star_tree(3))
        other = sorted(v for v in tree.a_vertices if v != o)
        if o in tree.a_vertices and other:
            bad = frozenset({o, other[0]})
            with pytest.raises(DistanceNotUniform):
                build_pointing_for_af(tree, bad, o, p)

    def test_projection_branch_two_level_star(self):
        # center under two tops, two extra children per top: the distance-2
        # set projects onto both tops, driving the toward-root recursion
        spec = SpecialTreeSpec(5, 2, 1, (
            (0, 0, OrientedPath("1")),
            (0, 1, OrientedPath("1")),
            (1, 0, OrientedPath("1")),
            (2, 0, OrientedPath("1")),
            (3, 1, OrientedPath("1")),
            (4, 1, OrientedPath("1")),
        ))
        tree, p, o = self.tractable_pipeline(spec)
        assert o == 0
        near = frozenset(v for v in tree.b_vertices if _template_dist(tree, o, v) == 1)
        cert = build_pointing_for_af(tree, near, o, p)
        assert verify_weak_pointing(cert) and len(cert.y_set) == 1
        far = frozenset(v for v in tree.a_vertices if _template_dist(tree, o, v) == 2)
        # the distance-2 set is not closed under the found operations (the
        # center is itself a template child of each top vertex), so the
        # fiber lift must fail and surface as a diagnostic
        with pytest.raises(ConstructionStuck):
            build_pointing_for_af(tree, far, o, p)

    def test_deeper_tree_either_outcome(self):
        # two-level template: distances up to 4 from the absorber
        spec = SpecialTreeSpec(3, 2, 1, (
            (0, 0, OrientedPath("1")),
            (1, 0, OrientedPath("1")),
            (1, 1, OrientedPath("1")),
            (2, 1, OrientedPath("1")),
        ))
        tree, p, o = self.tractable_pipeline(spec)
        for k in (1, 2, 3, 4):
            kth = frozenset(
                v for v in sorted(tree.a_vertices | tree.b_vertices)
                if _template_dist(tree, o, v) == k)
            if not kth:
                continue
            try:
                cert = build_pointing_for_af(tree, kth, o, p)
                assert verify_weak_pointing(cert)
            except (ConstructionStuck, DistanceNotUniform):
                pass


def _template_dist(tree, x, y):
    from hcolor.spectree import dist_e

    return dist_e(tree, x, y)


class TestExtendWnu:
    def test_single_edge_tree(self):
        tree = compile_tree(SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),)))
        tau = BOOL_MAJORITY
        out = extend_wnu(tree, tau)
        assert is_wnu(out)
        assert is_polymorphism(tree.digraph, out)
        for x in (0, 1):
            assert out.apply((x, x, x)) == x

    def test_requires_arity_three(self):
        tree = compile_tree(SpecialTreeSpec(1, 1, 1, ((0, 0, OrientedPath("1")),)))
        with pytest.raises(PreconditionViolated):
            extend_wnu(tree, BOOL_MEET)

    def test_path_tree_extension(self):
        from hcolor.polysearch import find_wnu_on_top_bottom

        spec = SpecialTreeSpec(1, 1, 3, ((0, 0, OrientedPath("11011")),))
        tree = compile_tree(spec)
        tau = find_wnu_on_top_bottom(
            tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        assert tau is not None
        out = extend_wnu(tree, tau)
        assert is_wnu(out)
        assert is_polymorphism(tree.digraph, out)

    def test_multi_arm_extension(self):
        from hcolor.polysearch import find_wnu_on_top_bottom

        spec = SpecialTreeSpec(2, 1, 2, (
            (0, 0, OrientedPath("11")),
            (1, 0, OrientedPath("11")),
        ))
        tree = compile_tree(spec)
        tau = find_wnu_on_top_bottom(
            tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        assert tau is not None
        out = extend_wnu(tree, tau)
        assert is_wnu(out)
        assert is_polymorphism(tree.digraph, out)

    def test_extension_preserves_level_tuples(self):
        from hcolor.polysearch import find_wnu_on_top_bottom

        spec = SpecialTreeSpec(2, 2, 2, (
            (0, 0, OrientedPath("11")),
            (1, 0, OrientedPath("11")),
            (1, 1, OrientedPath("11")),
        ))
        tree = compile_tree(spec)
        tau = find_wnu_on_top_bottom(
            tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        assert tau is not None
        out = extend_wnu(tree, tau)
        for side in (tree.a_vertices, tree.b_vertices):
            for args in product(sorted(side), repeat=3):
                assert out.apply(args) == tau.apply(args)


def _outcome(build):
    """The built value, or the message of the ConstructionStuck it raised."""
    try:
        return "ok", build()
    except ConstructionStuck as exc:
        return "stuck", str(exc)


@functools.cache
def corpus_extension_inputs():
    """(tree, top-and-bottom WNU, diagonal component) per c7 corpus tree
    that has such a WNU."""
    from hcolor.polysearch import find_wnu_on_top_bottom

    cases = []
    for spec in random_special_trees(25):
        tree = compile_tree(spec)
        tau = find_wnu_on_top_bottom(tree.digraph, 3, tree.a_vertices, tree.b_vertices)
        if tau is not None:
            cases.append((tree, tau, diagonal_component(tree.digraph, 3)))
    return cases


def random_wnu(rng: random.Random, size: int, arity: int) -> OperationTable:
    values = [rng.randrange(size) for _ in range(size ** arity)]
    for x in range(size):
        for y in range(size):
            val = x if x == y else rng.randrange(size)
            for pos in range(arity):
                args = (x,) * pos + (y,) + (x,) * (arity - 1 - pos)
                values[power_index(size, args)] = val
    return OperationTable(size, arity, tuple(values))


def composition_depth(expr) -> int:
    return composition_depth(expr.inner) + 1 if isinstance(expr, ComposeExpr) else 1


class TestIndexWalkMatchesReference:
    """The index-arithmetic tables against their closure forms in
    tests/reference.py, values and ConstructionStuck messages alike."""

    @staticmethod
    def agree(tree, tau, delta):
        fast = _outcome(lambda: _wnu_extension_values(tree, tau, delta))
        assert fast == _outcome(lambda: reference.wnu_extension_values(tree, tau, delta))
        return fast

    def test_corpus_trees(self):
        cases = corpus_extension_inputs()
        assert len(cases) >= 10
        for tree, tau, delta in cases:
            kind, values = self.agree(tree, tau, delta)
            assert kind == "ok" and values == list(extend_wnu(tree, tau).values)

    def test_perturbed_tau_delta_and_levels(self):
        rng = random.Random(2014)
        seen = set()
        for tree, tau, delta in corpus_extension_inputs()[::3]:
            size = tau.size
            on_paths = [v for v, role in enumerate(tree.roles) if role[0] == "P"]
            for n in (3, 4) if size <= 9 else (3,):
                taus = [OperationTable(size, n, tuple(
                    rng.randrange(size) for _ in range(size ** n)))]
                if n == 3:
                    taus.append(tau)
                    base = sorted(delta)
                else:
                    base = sorted(diagonal_component(tree.digraph, n))
                dropped = frozenset(rng.sample(base, len(base) // 2))
                on_path_tuples = frozenset(
                    power_index(size, [rng.choice(on_paths) for _ in range(n)])
                    for _ in range(40))
                anywhere = frozenset(rng.sample(range(size ** n), 3))
                levels = tuple(rng.randrange(tree.levels.height + 1) for _ in range(size))
                relevelled = dataclasses.replace(
                    tree, levels=LevelAssignment(levels, tree.levels.height))
                for t in taus:
                    for d in (frozenset(base), dropped, dropped | on_path_tuples,
                              frozenset(base) | anywhere):
                        for tr in (tree, relevelled):
                            kind, out = self.agree(tr, t, d)
                            seen.add(out.split(" tuple")[0] if kind == "stuck" else kind)
        assert seen == {"ok", "diagonal-component", "one-level"}

    def test_both_stuck_messages_at_first_offender(self):
        rng = random.Random(7)
        messages = set()
        for tree, tau, delta in corpus_extension_inputs()[:8]:
            size = tau.size
            off_paths = [v for v, role in enumerate(tree.roles) if role[0] != "P"]
            interior = [v for v, role in enumerate(tree.roles) if role[0] == "P"]
            # a mixed bottom/top tuple in the component leaves the paths
            stray = power_index(size, (off_paths[0], off_paths[-1], rng.choice(interior)))
            kind, msg = self.agree(tree, tau, delta | {stray})
            messages.add(msg.split(" tuple")[0])
            # a bottom vertex put on an interior vertex's level
            levels = list(tree.levels.levels)
            levels[off_paths[0]] = levels[interior[0]]
            relevelled = dataclasses.replace(
                tree, levels=LevelAssignment(tuple(levels), tree.levels.height))
            kind, msg = self.agree(relevelled, tau, delta)
            messages.add(msg.split(" tuple")[0])
        assert messages == {"diagonal-component", "one-level"}

    def test_polymer_star_and_special(self):
        rng = random.Random(5)
        wnus = [extend_wnu(tree, tau) for tree, tau, _ in corpus_extension_inputs()]
        wnus += [random_wnu(rng, rng.randint(2, 5), rng.randint(3, 4)) for _ in range(60)]
        depths = set()
        for w in wnus:
            assert binary_polymer(w) == reference.binary_polymer(w)
            fast = _outcome(lambda: make_special(w))
            slow = _outcome(lambda: reference.special_polymer(w))
            if fast[0] == "ok":
                (expr, polymer), (m, ref_polymer) = fast[1], slow[1]
                assert (composition_depth(expr), polymer) == (m, ref_polymer)
                assert star_table(polymer) == reference.star_table(polymer)
                depths.add(m)
            else:
                assert fast == slow
        assert len(depths) > 1
        for _ in range(40):
            size = rng.randint(1, 6)
            table = OperationTable(size, 2, tuple(
                rng.randrange(size) for _ in range(size * size)))
            assert star_table(table) == reference.star_table(table)
