import random
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolor.errors import HeightMismatch, NotMinimal, SearchExhausted
from hcolor.minpath import (
    OrientedPath,
    common_onto_minimal_path,
    is_minimal,
    minimal_path_counts,
    path_onto_hom,
    sample_minimal_path,
)
from reference import net_length

LONG_MINIMAL_PATH = OrientedPath("110110110001111")

direction_strings = st.text(alphabet="01", min_size=1, max_size=10)


def brute_force_onto_hom(q: OrientedPath, p: OrientedPath):
    """Enumerate every endpoint-pinned position map and filter; oracle."""
    m, lq = p.length, q.length
    found = []
    for mid in product(range(m + 1), repeat=max(lq - 1, 0)):
        phi = (0,) + mid + ((m,) if lq else ())
        if lq == 0:
            phi = (0,)
            if m:  # single-vertex q cannot pin both endpoints of a longer p
                continue
        ok = True
        for j, c in enumerate(q.directions):
            a, b = phi[j], phi[j + 1]
            if c == "1":
                edge = (a + 1 == b and p.directions[a] == "1") or (
                    a - 1 == b and a > 0 and p.directions[a - 1] == "0")
            else:
                edge = (a + 1 == b and p.directions[a] == "0") or (
                    a - 1 == b and a > 0 and p.directions[a - 1] == "1")
            if not edge:
                ok = False
                break
        if ok and set(phi) == set(range(m + 1)):
            found.append(phi)
    return found


def sample_minimal(rng, height, max_len=9):
    while True:
        length = rng.randrange(height, max_len + 1, 2)
        dirs = []
        lvl = 0
        ok = True
        for i in range(length):
            choices = []
            for c in "10":
                nl = lvl + (1 if c == "1" else -1)
                final = i == length - 1
                if final and nl == height:
                    choices.append(c)
                elif not final and 1 <= nl <= height - 1 and nl + (length - i - 1) >= height:
                    choices.append(c)
            if not choices:
                ok = False
                break
            c = rng.choice(choices)
            dirs.append(c)
            lvl += 1 if c == "1" else -1
        if ok:
            p = OrientedPath("".join(dirs))
            if is_minimal(p) and p.height == height:
                return p


class TestNetLength:
    def test_values(self):
        assert net_length(OrientedPath("1")) == 1
        assert net_length(LONG_MINIMAL_PATH) == 5
        assert net_length(OrientedPath("10")) == 0

    def test_long_path_counts(self):
        assert LONG_MINIMAL_PATH.directions.count("1") == 10
        assert LONG_MINIMAL_PATH.directions.count("0") == 5


class TestIsMinimal:
    def test_values(self):
        assert is_minimal(OrientedPath("1"))
        assert is_minimal(LONG_MINIMAL_PATH) and LONG_MINIMAL_PATH.height == 5
        assert not is_minimal(OrientedPath("101"))

    @given(direction_strings)
    def test_minimal_net_length_is_height(self, dirs):
        p = OrientedPath(dirs)
        if is_minimal(p):
            assert net_length(p) == p.height

    @given(direction_strings)
    def test_minimal_dominates_proper_subpaths(self, dirs):
        p = OrientedPath(dirs)
        if not is_minimal(p):
            return
        full = net_length(p)
        for i in range(p.length + 1):
            for j in range(i + 1, p.length + 1):
                if (i, j) == (0, p.length):
                    continue
                assert net_length(OrientedPath(p.directions[i:j])) < full


class TestMinimalPathCounts:
    def test_agrees_with_enumeration(self):
        # the sampler draws lengths in proportion to these counts
        for h in range(1, 5):
            counts = minimal_path_counts(h, 10)
            for length in range(1, 11):
                paths = (OrientedPath("".join(d)) for d in product("01", repeat=length))
                brute = sum(1 for p in paths if is_minimal(p) and p.height == h)
                assert counts[length][0] == brute, (h, length)


class TestPathOntoHom:
    def test_identity(self):
        p = OrientedPath("1101")
        assert path_onto_hom(p, p) == tuple(range(p.vertex_count))

    def test_taller_cannot_map_down(self):
        assert path_onto_hom(OrientedPath("11"), OrientedPath("1")) is None

    def test_zero_length(self):
        assert path_onto_hom(OrientedPath(""), OrientedPath("")) == (0,)
        assert path_onto_hom(OrientedPath(""), OrientedPath("1")) is None

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="01", min_size=1, max_size=7),
           st.text(alphabet="01", min_size=1, max_size=7))
    def test_agrees_with_brute_force(self, qs, ps):
        q, p = OrientedPath(qs), OrientedPath(ps)
        got = path_onto_hom(q, p)
        brute = brute_force_onto_hom(q, p)
        assert (got is not None) == bool(brute)
        if got is not None:
            assert got in brute or set(got) == set(range(p.length + 1))


class TestCommonOntoMinimalPath:
    def test_singleton_returns_same_path(self):
        for s in ("1", "11011", "110110110001111"):
            p = OrientedPath(s)
            assert common_onto_minimal_path([p]).directions == s

    def test_repeated_input(self):
        p = OrientedPath("11011")
        assert common_onto_minimal_path([p, p]).directions == p.directions

    def test_two_paths(self):
        ps = [OrientedPath("11011"), OrientedPath("1101011")]
        q = common_onto_minimal_path(ps)
        assert is_minimal(q) and q.height == 3
        for p in ps:
            assert path_onto_hom(q, p) is not None

    def test_errors(self):
        with pytest.raises(NotMinimal):
            common_onto_minimal_path([OrientedPath("101")])
        with pytest.raises(HeightMismatch):
            common_onto_minimal_path([OrientedPath("1"), OrientedPath("11")])
        with pytest.raises(SearchExhausted):
            common_onto_minimal_path(
                [OrientedPath("11011"), OrientedPath("1101011")], max_len=5)

    def test_random_families(self):
        # verified construction on 100 random minimal-path families
        rng = random.Random(42)
        for _ in range(100):
            h = rng.randint(1, 4)
            fam = [sample_minimal(rng, h) for _ in range(rng.randint(1, 3))]
            q = common_onto_minimal_path(fam)
            assert is_minimal(q) and q.height == h
            for p in fam:
                assert path_onto_hom(q, p) is not None

    def test_first_common_path_by_brute_force(self):
        # the answer is the first string, shortest first and '1' before '0',
        # that is minimal of height h and maps onto every input
        rng = random.Random(17)
        for _ in range(30):
            h = rng.randint(2, 4)
            fam = [sample_minimal_path(rng, h, rng.randint(h + 2, h + 6))
                   for _ in range(rng.randint(2, 3))]
            strings = (OrientedPath("".join(d))
                       for length in count(h) for d in product("10", repeat=length))
            brute = next(q for q in strings if is_minimal(q) and q.height == h
                         and all(path_onto_hom(q, p) is not None for p in fam))
            assert common_onto_minimal_path(fam) == brute, fam
