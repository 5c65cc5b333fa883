"""Command-line entry point: file formats, searches, classification, reports.

Exit codes: 0 found / true / pass, 1 none / false / refuted, 2 usage or
input error, 3 budget exceeded or undetermined.  A closed stdout ends the
process by SIGPIPE with no message, as it does `cat`.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .algebra import format_op
from .classify import (
    BOUNDED_WIDTH,
    BUDGET_SKIPPED,
    NP_COMPLETE,
    NOT_TAYLOR,
    TAYLOR,
    classify_digraph,
    classify_special_tree,
    compute_core,
    verify_lemma_suite,
)
from .digraph import DEFAULT_POWER_BUDGET, format_dg, parse_dg
from .errors import BudgetExceeded, HcolorError
from .homsolver import arc_consistency, build_instance, consistency_23, solve_hom
from .minpath import OrientedPath
from .polysearch import (
    DEFAULT_INDICATOR_BUDGET,
    find_majority,
    find_siggers,
    find_tsi,
    find_wnu,
)
from .spectree import (
    compile_tree,
    format_roles,
    format_stree,
    gen_random_special_tree,
    parse_stree,
)

FORMAT_VERSION = 1

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3

SEED_HELP = "recorded in the report for provenance; does not change the result"


def _given_or(value, default):
    return default if value is None else value


def _checked(convert, ok, message: str):
    """An argparse type: `convert`, then reject values failing `ok`."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


_POSITIVE_INT = _checked(int, lambda v: v > 0, "must be positive")
_NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, "must be nonnegative")
_POSITIVE_SECONDS = _checked(float, lambda v: v > 0, "must be positive")  # NaN fails


def _read(path: str, parse):
    with open(path, encoding="ascii") as fh:
        return parse(fh.read())


def _write(path: str | None, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout when there is none."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _emit_json(payload: dict, path: str | None) -> None:
    payload = {"format_version": FORMAT_VERSION, **payload}
    _write(path, json.dumps(payload, indent=2) + "\n")


def _cmd_build(args) -> int:
    tree = compile_tree(_read(args.tree, parse_stree))
    _write(args.out, format_dg(tree.digraph))
    roles_path = args.roles or (args.out + ".roles" if not args.out.endswith(".dg")
                                else args.out[:-3] + ".roles")
    _write(roles_path, format_roles(tree))
    print(f"wrote {args.out} ({tree.digraph.vertex_count} vertices) and {roles_path}")
    return EXIT_FOUND


def _parse_pins(items) -> dict[int, int]:
    pins = {}
    for item in items or []:
        var, _, val = item.partition("=")
        try:
            var, val = int(var), int(val)
        except ValueError:
            raise HcolorError(f"bad pin {item!r}, expected VAR=VAL") from None
        if var in pins:
            raise HcolorError(f"bad pin {item!r}: variable {var} pinned twice")
        pins[var] = val
    return pins


def _cmd_solve(args) -> int:
    if args.budget_nodes is not None and args.method != "bt":
        raise HcolorError(f"--budget-nodes applies to --method bt, not {args.method}")
    x = _read(args.input, parse_dg)
    h = _read(args.target, parse_dg)
    pins = _parse_pins(args.pin)
    if args.method == "bt":
        found = solve_hom(x, h, pins, args.budget_nodes)
        if found is None:
            print("no homomorphism")
            return EXIT_NONE
        for var, val in enumerate(found):
            print(f"{var} {val}")
        return EXIT_FOUND
    inst = build_instance(x, h, pins)
    if args.method == "ac":
        reduced = arc_consistency(inst)
        if reduced is None:
            print("refuted by support filtering")
            return EXIT_NONE
        for var, dom in enumerate(reduced.domains):
            vals = [str(v) for v in range(h.vertex_count) if dom >> v & 1]
            print(f"{var} {{{','.join(vals)}}}")
        return EXIT_FOUND
    family = consistency_23(inst)
    if family is None:
        print("refuted by pair consistency")
        return EXIT_NONE
    print(f"consistent ({len(family)} variable pairs)")
    return EXIT_FOUND


def _cmd_poly(args) -> int:
    kind = args.kind
    if args.arity is not None and kind not in ("wnu", "tsi"):
        raise HcolorError(f"--arity applies to --kind wnu or tsi, not {kind}")
    h = _read(args.target, parse_dg)
    budgets = (args.budget_indicator, args.budget_nodes)
    if kind == "wnu":
        table = find_wnu(h, _given_or(args.arity, 3), *budgets)
    elif kind == "majority":
        table = find_majority(h, *budgets)
    elif kind == "siggers":
        table = find_siggers(h, *budgets)
    else:
        table = find_tsi(h, _given_or(args.arity, 2), *budgets)
    if table is None:
        print(f"no {kind} polymorphism")
        return EXIT_NONE
    _write(args.out, format_op(table))
    if args.out is not None:
        print(f"wrote {args.out}")
    return EXIT_FOUND


def _cmd_classify(args) -> int:
    params = (args.budget_nodes, args.budget_indicator, args.seed, args.budget_wall)
    if args.tree:
        report = classify_special_tree(_read(args.tree, parse_stree), *params)
    else:
        report = classify_digraph(_read(args.input, parse_dg), *params)
    _emit_json(report.to_dict(), args.json)
    if report.verdict in (BOUNDED_WIDTH, TAYLOR):
        return EXIT_FOUND
    if report.verdict in (NP_COMPLETE, NOT_TAYLOR):
        return EXIT_NONE
    return EXIT_BUDGET


def _cmd_core(args) -> int:
    result = compute_core(_read(args.input, parse_dg), args.budget_nodes)
    if args.out is not None:
        _write(args.out, format_dg(result.core))
    print(f"core size {result.core.vertex_count}")
    for v, c in enumerate(result.retraction):
        print(f"{v} {c}")
    return EXIT_FOUND


def _cmd_verify(args) -> int:
    spec = _read(args.tree, parse_stree)
    report = verify_lemma_suite(
        spec, args.seed, args.budget_indicator, args.budget_nodes, args.budget_power)
    _emit_json(report, args.json)
    verdicts = [v for v in report.values() if isinstance(v, str)]
    if any(v.startswith("fail") for v in verdicts):
        return EXIT_NONE
    return EXIT_BUDGET if BUDGET_SKIPPED in verdicts else EXIT_FOUND


def _cmd_gen(args) -> int:
    spec = gen_random_special_tree(args.seed, args.a, args.b, args.height,
                                   _given_or(args.max_path_len, args.height + 4))
    _write(args.out, format_stree(spec))
    if args.out is not None:
        print(f"wrote {args.out}")
    return EXIT_FOUND


def _cmd_convert(args) -> int:
    if args.path is not None:  # "" is the one-vertex path
        try:
            g = OrientedPath(args.path).to_digraph()
        except ValueError as exc:
            raise HcolorError(f"bad path {args.path!r}: {exc}") from None
    else:
        g = compile_tree(_read(args.tree, parse_stree)).digraph
    _write(args.out, format_dg(g))
    print(f"wrote {args.out} ({g.vertex_count} vertices)")
    return EXIT_FOUND


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcolor",
        description="Special oriented trees: homomorphisms, polymorphisms, dichotomy")
    sub = parser.add_subparsers(dest="command", required=True)

    budget_flags = {
        "nodes": {"type": _NONNEGATIVE_INT, "default": None},
        "indicator": {"type": _POSITIVE_INT, "default": DEFAULT_INDICATOR_BUDGET},
        "power": {"type": _POSITIVE_INT, "default": DEFAULT_POWER_BUDGET},
        "wall": {"type": _POSITIVE_SECONDS, "default": None},
    }

    def budgets(p, *names):
        # each subcommand registers only the budgets it reads
        for name in names:
            p.add_argument(f"--budget-{name}", **budget_flags[name])

    p = sub.add_parser("build", help="compile a tree template to a digraph")
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roles", default=None)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("solve", help="decide a homomorphism instance")
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--pin", action="append", metavar="VAR=VAL")
    p.add_argument("--method", choices=["bt", "ac", "23"], default="bt")
    budgets(p, "nodes")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("poly", help="search for a polymorphism")
    p.add_argument("--target", required=True)
    p.add_argument("--kind", choices=["wnu", "siggers", "majority", "tsi"],
                   required=True)
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("--out", default=None)
    budgets(p, "nodes", "indicator")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("classify", help="run the dichotomy pipeline")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree")
    group.add_argument("--input")
    p.add_argument("--json", default=None)
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    budgets(p, "nodes", "indicator", "wall")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("core", help="compute the core of a digraph")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    budgets(p, "nodes")
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("verify", help="run instance checks on a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--suite", choices=["lemmas"], default="lemmas")
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.add_argument("--json", default=None)
    budgets(p, "nodes", "indicator", "power")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random tree template")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--max-path-len", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("convert", help="convert a path literal or template to .dg")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--path")
    group.add_argument("--tree")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else 0
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (HcolorError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    if hasattr(signal, "SIGPIPE"):  # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
