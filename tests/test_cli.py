import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcolor.classify
from hcolor.cli import _budget, _build_parser, main
from hcolor.digraph import format_dg, parse_dg
from hcolor.errors import Budget
from hcolor.homsolver import is_homomorphism
from hcolor.minpath import OrientedPath
from hcolor.spectree import canned_triad, compile_tree, format_roles, format_stree, parse_stree


@pytest.fixture
def triad_file(tmp_path):
    path = tmp_path / "triad.stree"
    path.write_text(format_stree(canned_triad()))
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.dg"
    path.write_text("digraph 2 1\n0 1\n")
    return str(path)


class TestBuild:
    def test_build_triad(self, tmp_path, triad_file, capsys):
        out = tmp_path / "triad.dg"
        code = main(["build", "--tree", triad_file, "--out", str(out)])
        assert code == 0
        g = parse_dg(out.read_text())
        assert g.vertex_count == 39
        roles = (tmp_path / "triad.roles").read_text().splitlines()
        assert len(roles) == 39
        assert roles[0] == "0 A0"

    def test_bad_tree_file(self, tmp_path, capsys):
        path = tmp_path / "bad.stree"
        path.write_text("stree 1 1 1 1\n0 0\n")
        assert main(["build", "--tree", str(path), "--out", str(tmp_path / "t.dg")]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad edge line: '0 0'\n"
        assert not (tmp_path / "t.dg").exists()


class TestSolve:
    def test_edge_to_edge(self, edge_file, capsys):
        code = main(["solve", "--input", edge_file, "--target", edge_file])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["0 0", "1 1"]

    def test_unsolvable(self, tmp_path, edge_file):
        x = tmp_path / "x.dg"
        x.write_text(format_dg(OrientedPath("11").to_digraph()))
        assert main(["solve", "--input", str(x), "--target", edge_file]) == 1

    def test_ac_and_23(self, tmp_path, edge_file, capsys):
        x = tmp_path / "x.dg"
        x.write_text(format_dg(OrientedPath("11").to_digraph()))
        assert main(["solve", "--input", str(x), "--target", edge_file,
                     "--method", "ac"]) == 1
        assert main(["solve", "--input", edge_file, "--target", edge_file,
                     "--method", "23"]) == 0
        capsys.readouterr()
        assert main(["solve", "--input", edge_file, "--target", edge_file,
                     "--method", "ac"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0 {0}", "1 {1}"]
        assert main(["solve", "--input", str(x), "--target", edge_file,
                     "--method", "23"]) == 1
        assert capsys.readouterr().out == "refuted by pair consistency\n"

    def test_pins(self, edge_file):
        assert main(["solve", "--input", edge_file, "--target", edge_file,
                     "--pin", "0=1"]) == 1

    @pytest.mark.parametrize("pin", ["abc", "0", "x=1", "0=y"])
    def test_bad_pin(self, edge_file, pin, capsys):
        assert main(["solve", "--input", edge_file, "--target", edge_file,
                     "--pin", pin]) == 2
        assert "bad pin" in capsys.readouterr().err

    @pytest.mark.parametrize("first, second", [("0=0", "0=1"), ("0=1", "0=0"), ("0=0", "0=0")])
    def test_pin_twice(self, edge_file, first, second, capsys):
        assert main(["solve", "--input", edge_file, "--target", edge_file,
                     "--pin", first, "--pin", second]) == 2
        assert "bad pin" in capsys.readouterr().err

    def test_missing_file(self, edge_file):
        assert main(["solve", "--input", "/nonexistent.dg",
                     "--target", edge_file]) == 2

    @pytest.mark.parametrize("method", ["ac", "23"])
    def test_node_budget_needs_backtracking(self, edge_file, method, capsys):
        # support filtering and pair consistency search no nodes, so a node
        # budget for them is bad input, not ignored
        assert main(["solve", "--input", edge_file, "--target", edge_file,
                     "--method", method, "--budget-nodes", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget-nodes applies to --method bt" in captured.err


class TestPoly:
    def test_wnu_on_edge(self, tmp_path, edge_file):
        out = tmp_path / "w.op"
        code = main(["poly", "--target", edge_file, "--kind", "wnu",
                     "--arity", "3", "--out", str(out)])
        assert code == 0
        from hcolor.algebra import is_wnu, parse_op

        assert is_wnu(parse_op(out.read_text()))

    def test_triangle_refutations(self, tmp_path):
        tri = tmp_path / "tri.dg"
        tri.write_text(
            "digraph 3 6\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n")
        assert main(["poly", "--target", str(tri), "--kind", "wnu",
                     "--arity", "3"]) == 1
        assert main(["poly", "--target", str(tri), "--kind", "majority"]) == 1

    def test_budget_exit(self, tmp_path, edge_file):
        assert main(["poly", "--target", edge_file, "--kind", "siggers",
                     "--budget-indicator", "2"]) == 3

    @pytest.mark.parametrize("flag", ["--budget-indicator", "--budget-power"])
    def test_zero_budget_rejected(self, edge_file, triad_file, flag, capsys):
        # a zero budget is bad input, not a request for the default
        command = {"--budget-indicator": ["poly", "--target", edge_file, "--kind", "siggers"],
                   "--budget-power": ["verify", "--tree", triad_file]}[flag]
        assert main(command + [flag, "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, arity", [("wnu", 3), ("majority", 3), ("siggers", 4),
                                             ("tsi", 2)])
    def test_empty_target(self, tmp_path, kind, arity, capsys):
        # the empty operation is a polymorphism of every kind on no vertices
        empty = tmp_path / "empty.dg"
        empty.write_text("digraph 0 0\n")
        assert main(["poly", "--target", str(empty), "--kind", kind]) == 0
        assert capsys.readouterr().out == f"op 0 {arity}\n"

    @pytest.mark.parametrize("kind, arity",
                             [("wnu", "1"), ("wnu", "0"), ("tsi", "0"), ("siggers", "7")])
    def test_bad_arity(self, edge_file, kind, arity, capsys):
        # a zero arity is bad input, not a request for the default; an arity
        # for a kind of fixed arity is bad input, not ignored
        assert main(["poly", "--target", edge_file, "--kind", kind, "--arity", arity]) == 2
        expected = "arity must be at least" if kind in ("wnu", "tsi") else "--arity applies to"
        assert expected in capsys.readouterr().err


class TestClassify:
    def test_single_edge(self, tmp_path, capsys):
        spec = tmp_path / "edge.stree"
        spec.write_text("stree 1 1 1 1\n0 0 1\n")
        out = tmp_path / "report.json"
        code = main(["classify", "--tree", str(spec), "--json", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["format_version"] == 1
        assert report["verdict"] == "BOUNDED_WIDTH"
        assert list(report)[1:] == [
            "input_summary", "is_core", "core_size", "taylor",
            "width_certificates", "verdict", "timings", "seeds"]

    def test_triad_tiny_budget(self, triad_file, capsys):
        code = main(["classify", "--tree", triad_file,
                     "--budget-indicator", "50"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "UNDETERMINED"

    def test_digraph_input(self, edge_file, capsys):
        assert main(["classify", "--input", edge_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "TAYLOR"

    def test_wall_budget_runs_out_in_the_searches(self, triad_file, capsys):
        # the core is taken; every search then meets the deadline
        assert main(["classify", "--tree", triad_file, "--budget-wall", "0.000001"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["is_core"] and report["taylor"] == "budget_exceeded"

    @pytest.mark.parametrize("wall", ["-1", "0", "nan"])
    def test_bad_wall_budget(self, edge_file, wall, capsys):
        assert main(["classify", "--input", edge_file, "--budget-wall", wall]) == 2
        assert "must be positive" in capsys.readouterr().err


class TestCoreCmd:
    def test_core_of_folded_tree(self, tmp_path, capsys):
        spec = tmp_path / "t.stree"
        spec.write_text("stree 2 1 2 2\n0 0 11\n1 0 11\n")
        dg = tmp_path / "t.dg"
        main(["build", "--tree", str(spec), "--out", str(dg)])
        capsys.readouterr()
        out = tmp_path / "core.dg"
        code = main(["core", "--input", str(dg), "--out", str(out)])
        assert code == 0
        assert parse_dg(out.read_text()).vertex_count == 3
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "core size 3"
        assert len(lines) == 1 + 5
        # the printed retraction is an onto homomorphism from the input to core.dg
        g, core = parse_dg(dg.read_text()), parse_dg(out.read_text())
        pairs = [tuple(map(int, line.split())) for line in lines[1:]]
        assert [v for v, _ in pairs] == list(range(g.vertex_count))
        retraction = tuple(c for _, c in pairs)
        assert is_homomorphism(g, core, retraction)
        assert set(retraction) == set(range(core.vertex_count))


class TestVerify:
    def test_single_edge_suite(self, tmp_path, capsys):
        spec = tmp_path / "edge.stree"
        spec.write_text("stree 1 1 1 1\n0 0 1\n")
        code = main(["verify", "--tree", str(spec), "--suite", "lemmas"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["wnu_extension"] == "pass"

    def run_edge(self, tmp_path, capsys, *flags):
        spec = tmp_path / "edge.stree"
        spec.write_text("stree 1 1 1 1\n0 0 1\n")
        code = main(["verify", "--tree", str(spec), *flags])
        return code, json.loads(capsys.readouterr().out)

    def test_power_budget_skips_extension(self, tmp_path, capsys):
        # the extension's power set outgrows the budget: undetermined, not failed
        code, report = self.run_edge(tmp_path, capsys, "--budget-power", "1")
        assert code == 3
        assert report["wnu_extension"] == "skipped: budget exceeded"
        assert report["special_polymer"] == "skipped: no full WNU"
        assert not any(str(v).startswith("fail") for v in report.values())

    def test_indicator_budget_skip_exits_3(self, tmp_path, capsys):
        code, report = self.run_edge(tmp_path, capsys, "--budget-indicator", "1")
        assert code == 3
        assert report["top_bottom_wnu"] == "skipped: budget exceeded"

    def test_power_budget_skips_diagonal_containment(self, triad_file, capsys):
        assert main(["verify", "--tree", triad_file, "--budget-power", "50"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["diagonal_containment_n2"] == "skipped: budget exceeded"
        assert report["top_bottom_wnu"] == "none"

    def test_unknown_suite(self, tmp_path):
        spec = tmp_path / "edge.stree"
        spec.write_text("stree 1 1 1 1\n0 0 1\n")
        assert main(["verify", "--tree", str(spec), "--suite", "bogus"]) == 2


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.stree"
        b = tmp_path / "b.stree"
        main(["gen", "--seed", "42", "--a", "3", "--b", "3", "--height", "3",
              "--out", str(a)])
        main(["gen", "--seed", "42", "--a", "3", "--b", "3", "--height", "3",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        spec = parse_stree(a.read_text())
        assert spec.a_count == 3

    def test_invalid_params(self, capsys):
        assert main(["gen", "--seed", "1", "--a", "0", "--b", "1",
                     "--height", "1"]) == 2

    def test_max_path_len_defaults_to_height_plus_four(self, tmp_path):
        args = ["gen", "--seed", "5", "--a", "3", "--b", "2", "--height", "3", "--out"]
        main(args + [str(tmp_path / "default.stree")])
        main(args + [str(tmp_path / "given.stree"), "--max-path-len", "7"])
        assert (tmp_path / "default.stree").read_bytes() == (tmp_path / "given.stree").read_bytes()


class TestConvert:
    def test_path_literal(self, tmp_path, capsys):
        out = tmp_path / "p.dg"
        code = main(["convert", "--path", "110110110001111", "--out", str(out)])
        assert code == 0
        assert parse_dg(out.read_text()).vertex_count == 16

    def test_bad_path_literal(self, tmp_path, capsys):
        out = tmp_path / "p.dg"
        assert main(["convert", "--path", "012", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad path '012'")
        assert not out.exists()

    def test_empty_path_is_one_vertex(self, tmp_path, capsys):
        out = tmp_path / "p.dg"
        assert main(["convert", "--path", "", "--out", str(out)]) == 0
        assert out.read_text() == "digraph 1 0\n"

    def test_round_trip_parsers(self, tmp_path, capsys):
        out = tmp_path / "t.dg"
        spec = tmp_path / "t.stree"
        spec.write_text(format_stree(canned_triad()))
        main(["convert", "--tree", str(spec), "--out", str(out)])
        assert parse_dg(out.read_text()).vertex_count == 39


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_module(module, *args, cwd, stdout=subprocess.PIPE):
    """Run `python -m module args` on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", module, *args], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


class TestModuleEntry:
    """`python -m hcolor` and `python -m hcolor.cli` run the CLI and keep
    its exit codes."""

    @pytest.mark.parametrize("module", ["hcolor", "hcolor.cli"])
    def test_missing_out_is_usage_error(self, tmp_path, module):
        done = run_module(module, "convert", "--path", "11", cwd=tmp_path)
        assert done.returncode == 2
        assert "--out" in done.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("module", ["hcolor", "hcolor.cli"])
    def test_convert_writes_file(self, tmp_path, module):
        done = run_module(module, "convert", "--path", "11", "--out", "p.dg", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert parse_dg((tmp_path / "p.dg").read_text()).vertex_count == 3


    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
    def test_closed_stdout_ends_quietly(self, tmp_path):
        # as in `hcolor core ... | head -1`: the reader is gone before the
        # first write, and the process ends by SIGPIPE with no message
        (tmp_path / "p.dg").write_text(format_dg(OrientedPath("11011").to_digraph()))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_module("hcolor", "core", "--input", "p.dg", cwd=tmp_path,
                              stdout=write_end)
        finally:
            os.close(write_end)
        assert done.stderr == ""
        assert done.returncode == -signal.SIGPIPE


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_bad_flag(self):
        assert main(["solve", "--nope"]) == 2

    def test_budget_record_defaults_stand_in_for_flags(self):
        # with no --budget-* flag, each subcommand runs under Budget()
        parser = _build_parser()
        for argv in (["solve", "--input", "x", "--target", "h"],
                     ["poly", "--target", "h", "--kind", "wnu"], ["classify", "--tree", "t"],
                     ["core", "--input", "g"], ["verify", "--tree", "t"],
                     ["gen", "--seed", "1", "--a", "1", "--b", "1", "--height", "1"]):
            assert _budget(parser.parse_args(argv)) == Budget(), argv
        args = parser.parse_args(["verify", "--tree", "t", "--budget-power", "7",
                                  "--budget-nodes", "0"])
        assert _budget(args) == Budget(nodes=0, power=7)

    def test_unread_budget_flag_rejected(self, edge_file):
        # solve reads no power budget, so it does not accept one
        assert main(["solve", "--input", edge_file, "--target", edge_file,
                     "--budget-power", "5"]) == 2

    @pytest.mark.parametrize("command, flag, name, text", [
        ("core", "--input", "g.dg", b"digraph 2 1\n0 1 \xc3\xa9\n"),
        ("classify", "--tree", "t.stree", b"stree 1 1 1 1\n0 0 1\xff\n"),
        ("core", "--input", "g.dg", b"digraph -1 0\n"),
    ])
    def test_bad_input_file_is_input_error(self, tmp_path, command, flag, name, text, capsys):
        path = tmp_path / name
        path.write_bytes(text)
        assert main([command, flag, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_solve_node_budget_exit(self, tmp_path):
        h = tmp_path / "h.dg"
        h.write_text("digraph 4 5\n0 1\n0 2\n1 2\n2 3\n3 0\n")
        x = tmp_path / "x.dg"
        x.write_text("digraph 6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert main(["solve", "--input", str(x), "--target", str(h),
                     "--budget-nodes", "0"]) == 3


class TestByteStability:
    def test_classify_json_stable_modulo_timings(self, tmp_path):
        spec = tmp_path / "t.stree"
        spec.write_text("stree 2 1 2 2\n0 0 11\n1 0 11\n")
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["classify", "--tree", str(spec), "--seed", "7",
                         "--json", str(out)]) == 0
            report = json.loads(out.read_text())
            report.pop("timings")
            outs.append(report)
        assert outs[0] == outs[1]

    def test_verify_json_stable(self, tmp_path, capsys):
        spec = tmp_path / "t.stree"
        spec.write_text("stree 1 1 2 1\n0 0 11\n")
        main(["verify", "--tree", str(spec), "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", "--tree", str(spec), "--seed", "3"])
        assert capsys.readouterr().out == first



class TestSameBytes:
    """A command writes to its file exactly the bytes it prints without one."""

    FOLD = "stree 2 1 2 2\n0 0 11\n1 0 11\n"

    @staticmethod
    def printed(argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["poly", "--kind", "majority"],
        ["poly", "--kind", "siggers"],
        ["gen", "--seed", "3", "--a", "3", "--b", "2", "--height", "3"],
    ], ids=["poly-majority", "poly-siggers", "gen"])
    def test_out_matches_stdout(self, tmp_path, argv, capsys):
        if argv[0] == "poly":
            (tmp_path / "t.stree").write_text(self.FOLD)
            self.printed(["build", "--tree", str(tmp_path / "t.stree"),
                          "--out", str(tmp_path / "t.dg")], capsys)
            argv = argv + ["--target", str(tmp_path / "t.dg")]
        out = tmp_path / "out.txt"
        text = self.printed(argv, capsys)
        assert self.printed(argv + ["--out", str(out)], capsys) == f"wrote {out}\n"
        assert out.read_bytes() == text.encode("ascii")

    def test_classify_json_matches_stdout(self, tmp_path, monkeypatch, capsys):
        # timings are the one unstable field, so the clock stands still here
        monkeypatch.setattr(hcolor.classify, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        (tmp_path / "t.stree").write_text(self.FOLD)
        argv = ["classify", "--tree", str(tmp_path / "t.stree")]
        out = tmp_path / "r.json"
        text = self.printed(argv, capsys)
        assert self.printed(argv + ["--json", str(out)], capsys) == ""
        assert out.read_bytes() == text.encode("ascii")

    def test_build_writes_the_formatted_digraph_and_roles(self, tmp_path, triad_file, capsys):
        out = tmp_path / "t.dg"
        self.printed(["build", "--tree", triad_file, "--out", str(out)], capsys)
        tree = compile_tree(canned_triad())
        assert out.read_bytes() == format_dg(tree.digraph).encode("ascii")
        assert (tmp_path / "t.roles").read_bytes() == format_roles(tree).encode("ascii")


# Input files for the fuzz test: valid, malformed, of the other format, and
# missing.  Every valid input is small enough that any search on it is fast
# at the default budgets.
FUZZ_FILES = {
    "fold.stree": "stree 2 1 2 2\n0 0 11\n1 0 11\n",
    "edge.stree": "stree 1 1 1 1\n0 0 1\n",
    "bad.stree": "stree 1 1 1 1\n0 0\n",
    "fold.dg": "digraph 5 4\n0 3\n1 4\n3 2\n4 2\n",
    "loop.dg": "digraph 2 2\n0 0\n0 1\n",
    "bad.dg": "digraph 2 3\n0 1\n",
    "empty.dg": "",
}


def _fuzz_flags() -> dict:
    """Each subcommand's flags: whether the subcommand needs the flag, and a
    strategy for its value.  Numbers stay small (heights up to 6, arities
    up to 4, budgets up to 1,000) so that no case allocates much, and some
    values are invalid on purpose."""
    small = st.integers(-1, 6).map(str)
    budget = st.integers(-1, 1000).map(str)
    trees = st.sampled_from(["fold.stree", "edge.stree", "bad.stree", "fold.dg",
                             "missing.stree"])
    digraphs = st.sampled_from(["fold.dg", "loop.dg", "bad.dg", "empty.dg", "edge.stree",
                                "missing.dg"])
    outs = st.sampled_from(["out.x", os.path.join("no-such-dir", "out.x")])
    pin = st.one_of(st.tuples(small, small).map("=".join),
                    st.sampled_from(["abc", "1", "=", "1=2=3"]))
    return {
        "build": {"--tree": (True, trees), "--out": (True, outs), "--roles": (False, outs)},
        "solve": {"--input": (True, digraphs), "--target": (True, digraphs),
                  "--pin": (False, pin),
                  "--method": (False, st.sampled_from(["bt", "ac", "23", "x"])),
                  "--budget-nodes": (False, budget)},
        "poly": {"--target": (True, digraphs),
                 "--kind": (True, st.sampled_from(["wnu", "siggers", "majority", "tsi", "x"])),
                 "--arity": (False, st.integers(-1, 4).map(str)), "--out": (False, outs),
                 "--budget-nodes": (False, budget), "--budget-indicator": (False, budget)},
        "classify": {"--tree": (False, trees), "--input": (False, digraphs),
                     "--json": (False, outs), "--seed": (False, small),
                     "--budget-nodes": (False, budget), "--budget-indicator": (False, budget),
                     "--budget-wall": (False, st.sampled_from(
                         ["0.001", "1", "0", "-1", "nan", "x"]))},
        "core": {"--input": (True, digraphs), "--out": (False, outs),
                 "--budget-nodes": (False, budget)},
        "verify": {"--tree": (True, trees), "--suite": (False, st.sampled_from(["lemmas", "x"])),
                   "--seed": (False, small), "--json": (False, outs),
                   "--budget-nodes": (False, budget), "--budget-indicator": (False, budget),
                   "--budget-power": (False, budget)},
        "gen": {"--seed": (True, small), "--a": (True, small), "--b": (True, small),
                "--height": (True, small),
                "--max-path-len": (False, st.integers(-1, 12).map(str)),
                "--out": (False, outs)},
        "convert": {"--path": (False, st.text("01x", max_size=8)), "--tree": (False, trees),
                    "--out": (True, outs)},
    }


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / name).write_text(text)
    return root


class TestFuzz:
    FLAGS = _fuzz_flags()
    PATH_FLAGS = ("--tree", "--input", "--target", "--out", "--json", "--roles")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_argv_exits_cleanly(self, fuzz_dir, data):
        # any argv ends in a documented exit code, never in a traceback; a
        # needed flag is left out one time in ten, any other one time in two
        command = data.draw(st.sampled_from(sorted(self.FLAGS) + ["nope"]))
        argv = [command]
        for flag, (needed, values) in self.FLAGS.get(command, {}).items():
            if data.draw(st.integers(0, 9)) < (9 if needed else 5):
                value = data.draw(values)
                argv += [flag, str(fuzz_dir / value) if flag in self.PATH_FLAGS else value]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv


@st.composite
def _text_file(draw, name: str, count: int, record):
    """A random file in the shape of a text format: `name` and `count`
    header numbers of at most 8, the last one mostly the record count, then
    records drawn from `record` or junk, among comments and blank lines,
    with `\n` or `\r\n` endings and mostly a trailing newline.  Three headers
    in ten are broken.  No file asks for a large structure."""
    junk = st.lists(st.sampled_from(["x", "1.5", "-1", "9", "#", "0110"]), max_size=4)
    records = draw(st.lists(st.one_of(*[record] * 9, junk), max_size=8))
    head = [name, *draw(st.lists(st.integers(-1, 8).map(str), min_size=count,
                                 max_size=count))]
    if draw(st.sampled_from([True, True, True, False])):
        head[-1] = str(len(records))
    broken = draw(st.sampled_from([None] * 7 + [0, 1, 2]))
    if broken == 2:
        head.pop()
    elif broken is not None:
        head[broken] = "x"
    lines = [" ".join(head)]
    for fields in records:
        lines += draw(st.lists(st.sampled_from(["# note", "  # indented", "", "  "]), max_size=1))
        lines.append(" ".join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end] * 7 + [""]))


_DG_FILES = _text_file("digraph", 2, st.lists(st.integers(0, 4).map(str), min_size=2,
                                               max_size=2))
_STREE_FILES = _text_file("stree", 4, st.tuples(st.integers(0, 3).map(str),
                                                st.integers(0, 3).map(str),
                                                st.one_of(st.sampled_from(["1", "11", "101"]),
                                                          st.text("01", min_size=1, max_size=8))))


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("text")


class TestTextFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_STREE_FILES, _DG_FILES, _DG_FILES)
    def test_random_files_exit_cleanly(self, text_dir, tree, input_dg, target_dg):
        # whatever a file holds, a command reading it ends in a documented
        # exit code, never in a traceback
        for name, text in (("t.stree", tree), ("x.dg", input_dg), ("h.dg", target_dg)):
            (text_dir / name).write_bytes(text.encode("ascii"))
        t, x, h = (str(text_dir / name) for name in ("t.stree", "x.dg", "h.dg"))
        for argv in (["build", "--tree", t, "--out", str(text_dir / "out.dg")],
                     ["solve", "--input", x, "--target", h, "--budget-nodes", "1000"],
                     ["poly", "--target", h, "--kind", "majority", "--budget-nodes", "1000"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, tree, input_dg, target_dg)
            assert "Traceback" not in err.getvalue(), argv
