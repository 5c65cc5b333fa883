"""The three benchmark workloads: inputs, the call per input, and its checks.

Every workload is a fixed, reproducible set of inputs.  The seed only
chooses the order in which they are submitted, so a run's total work does
not depend on the seed (see README.md for why the inputs are not drawn
afresh per seed).  `hc` is a namespace holding the freshly imported hcolor
modules; workloads reach the library only through it, so the tracer can
wrap names in those modules.
"""

from __future__ import annotations

import hashlib
import json
from itertools import permutations, product

# Keys of verify_lemma_suite that the c7 acceptance rule requires to pass on
# every tree with a top-and-bottom WNU.
LEMMA_CHECKED = (
    "diagonal_containment_n2", "diagonal_containment_n3", "wnu_extension",
    "special_polymer", "singleton_absorber", "comparable_pair_absorption",
    "sset_identities", "star_collapse_below")

# TREE_SHAPES of tests/corpus.py, which generates the c7 corpus, in its order.
TREE_SHAPES = (
    (2, 2, 3, 7), (3, 2, 3, 5), (2, 3, 3, 5), (3, 3, 2, 2), (2, 2, 4, 6),
    (4, 3, 2, 2), (1, 1, 4, 8), (2, 1, 4, 6), (1, 2, 3, 7), (3, 4, 2, 2),
    (2, 2, 2, 2), (1, 3, 3, 5), (3, 1, 3, 5), (1, 1, 3, 9), (2, 3, 2, 2),
)


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """One input set plus the call made per input and the checks on it."""

    name = ""

    def inputs(self, hc, tiny: bool) -> list[tuple[str, object]]:
        """(key, input) pairs; the key names the input in digests.json."""
        raise NotImplementedError

    def run(self, hc, item):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        """Why the output is wrong, or None."""
        raise NotImplementedError

    def digest(self, hc, out) -> str:
        raise NotImplementedError

    def check_all(self, outs: list, tiny: bool) -> str | None:
        """A check over the whole input set, or None when it passes."""
        return None

    def stage_timings(self, out) -> dict[str, float]:
        """Stage timings the program itself reports for one output."""
        return {}


class TriadRefute(Workload):
    """classify_special_tree on the canned 39-vertex triad."""

    name = "triad_refute"

    def inputs(self, hc, tiny):
        if tiny:
            # a single-path tree: same pipeline, bounded width, under a second
            path = hc.minpath.OrientedPath("11011")
            spec = hc.spectree.SpecialTreeSpec(1, 1, path.height, ((0, 0, path),))
            expected = {"verdict": "BOUNDED_WIDTH", "taylor": "siggers_found",
                        "majority": "found", "wnu3": "found"}
            return [("path_11011", (spec, expected))]
        expected = {"verdict": "NP_COMPLETE", "taylor": "refuted",
                    "majority": "none", "wnu3": "none"}
        return [("canned_triad", (hc.spectree.canned_triad(), expected))]

    def run(self, hc, item):
        spec, _ = item
        return hc.classify.classify_special_tree(spec).to_dict()

    def check(self, item, out):
        _, expected = item
        width = out["width_certificates"]
        got = {"verdict": out["verdict"], "taylor": out["taylor"],
               "majority": width.get("majority"), "wnu3": width.get("wnu3")}
        if got != expected:
            return f"expected {expected}, got {got}"
        return None

    def digest(self, hc, out):
        stable = {k: v for k, v in out.items() if k != "timings"}
        return short_hash(json.dumps(stable, sort_keys=True))

    def stage_timings(self, out):
        return dict(out["timings"])


class LemmaCorpus(Workload):
    """verify_lemma_suite over the 25-tree c7 corpus."""

    name = "lemma_corpus"
    MIN_FOUND = {False: 10, True: 1}  # c7 rule at full size; tiny keeps one

    def inputs(self, hc, tiny):
        count = 3 if tiny else 25
        out = []
        seed = 1000  # the c7 corpus: seed_base 1000, at most 30 vertices
        shape = 0
        while len(out) < count:
            a, b, h, max_len = TREE_SHAPES[shape % len(TREE_SHAPES)]
            shape += 1
            spec = hc.spectree.gen_random_special_tree(seed, a, b, h, max_len)
            seed += 1
            if hc.spectree.compile_tree(spec).digraph.vertex_count <= 30:
                i = len(out)
                out.append((f"tree_{i:02d}", (spec, 42 + i)))
        return out

    def run(self, hc, item):
        spec, report_seed = item
        return hc.classify.verify_lemma_suite(spec, seed=report_seed)

    def check(self, item, out):
        wnu = out["top_bottom_wnu"]
        if wnu not in ("found", "none"):
            return f"top_bottom_wnu is {wnu!r}"
        if wnu == "found":
            bad = {k: out[k] for k in LEMMA_CHECKED if out[k] != "pass"}
            if bad:
                return f"checks not passing: {bad}"
        return None

    def digest(self, hc, out):
        return short_hash(json.dumps(out, sort_keys=True))

    def check_all(self, outs, tiny):
        found = sum(out["top_bottom_wnu"] == "found" for out in outs if out)
        if found < self.MIN_FOUND[tiny]:
            return f"only {found} trees have a top-and-bottom WNU"
        return None


def loopless_digraph_classes(n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every loopless digraph on n vertices up to isomorphism.

    Each class is represented by its arc set with the smallest bitmask over
    the ordered vertex pairs, returned as (mask, arcs) in mask order.
    """
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    slot_of = {pair: i for i, pair in enumerate(slots)}
    images = [[slot_of[(p[u], p[v])] for u, v in slots]
              for p in permutations(range(n))]
    seen = bytearray(1 << len(slots))
    classes = []
    for mask in range(1 << len(slots)):
        if seen[mask]:
            continue
        bits = [i for i in range(len(slots)) if mask >> i & 1]
        for image in images:
            seen[sum(1 << image[i] for i in bits)] = 1
        classes.append((mask, [slots[i] for i in bits]))
    return classes


def _apply(values, size, args) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return values[idx]


def brute_force_problem(edges, kind: str, size: int, arity: int, values) -> str | None:
    """Re-check a found table by enumeration, independently of hcolor.algebra."""
    want_arity = {"wnu2": 2, "wnu3": 3, "majority": 3, "siggers": 4}[kind]
    if arity != want_arity or len(values) != size ** arity:
        return f"{kind}: table shape {size}^{arity} with {len(values)} values"
    f = lambda *args: _apply(values, size, args)  # noqa: E731
    xs = range(size)
    if any(f(*(x,) * arity) != x for x in xs):
        return f"{kind}: not idempotent"
    if kind in ("wnu2", "wnu3"):
        for x, y in product(xs, xs):
            images = {f(*((x,) * i + (y,) + (x,) * (arity - 1 - i))) for i in range(arity)}
            if len(images) != 1:
                return f"{kind}: not a WNU at ({x}, {y})"
    elif kind == "majority":
        for x, y in product(xs, xs):
            if not f(x, x, y) == f(x, y, x) == f(y, x, x) == x:
                return f"majority: fails at ({x}, {y})"
    else:
        for a, r, e in product(xs, xs, xs):
            if f(a, r, e, a) != f(r, a, r, e):
                return f"siggers: fails at ({a}, {r}, {e})"
    arcs = set(edges)
    for chosen in product(sorted(arcs), repeat=arity):
        tail = f(*(u for u, _ in chosen))
        head = f(*(v for _, v in chosen))
        if (tail, head) not in arcs:
            return f"{kind}: arc tuple {chosen} maps to non-arc ({tail}, {head})"
    return None


class PolyDense(Workload):
    """The four polymorphism searches on every loopless 4-vertex digraph."""

    name = "poly_dense"
    KINDS = ("wnu2", "wnu3", "majority", "siggers")
    VERTICES = 4

    def inputs(self, hc, tiny):
        classes = loopless_digraph_classes(self.VERTICES)
        if tiny:
            classes = classes[::20]
        return [(f"g{mask:03x}", hc.digraph.Digraph.from_edges(self.VERTICES, arcs))
                for mask, arcs in classes]

    def run(self, hc, g):
        ps = hc.polysearch
        return (ps.find_wnu(g, 2), ps.find_wnu(g, 3), ps.find_majority(g),
                ps.find_siggers(g))

    def check(self, g, out):
        found = dict(zip(self.KINDS, out))
        for kind, table in found.items():
            if table is not None:
                problem = brute_force_problem(
                    g.edges, kind, g.vertex_count, table.arity, table.values)
                if problem:
                    return problem
        if found["majority"] is not None and found["wnu3"] is None:
            return "majority found but no 3-ary WNU"
        if (found["wnu2"] is not None or found["wnu3"] is not None) \
                and found["siggers"] is None:
            return "a WNU found but no Siggers operation"
        return None

    def digest(self, hc, out):
        text = "".join(hc.algebra.format_op(t) if t is not None else "none\n"
                       for t in out)
        return short_hash(text)


WORKLOADS = {w.name: w for w in (TriadRefute(), LemmaCorpus(), PolyDense())}
