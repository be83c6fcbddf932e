import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from skewlat import cli, constructions, core


@pytest.fixture()
def r0_file(tmp_path):
    path = tmp_path / "3R0.skl"
    core.save(constructions.fixed("3R0").pair, path)
    return str(path)


@pytest.fixture()
def one_file(tmp_path):
    path = tmp_path / "one.skl"
    core.save(core.CayleyPair.from_tables([[0]], [[0]]), path)
    return str(path)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_file_exits_zero(self, capsys, one_file):
        code, out, _ = run(capsys, "validate", one_file)
        assert code == 0 and "valid" in out

    def test_axiom_failure_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.skl"
        bad.write_text("2\n1 0\n1 1\n\n0 1\n0 1\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1 and "violation" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.skl")
        assert code == 2 and "error" in err

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.skl"
        bad.write_text("2\n0 7\n1 1\n\n0 1\n0 1\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2

    def test_unknown_verb_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


class TestReports:
    def test_structure(self, capsys, r0_file):
        code, out, _ = run(capsys, "structure", r0_file)
        assert code == 0 and "D-class" in out

    def test_props_tsv_stable_columns(self, capsys, r0_file):
        code, out, _ = run(capsys, "props", r0_file, "--format", "tsv")
        assert code == 0
        assert out.splitlines()[0] == "property\tvalue\twitness"

    def test_props_tsv_names_each_flag_once(self, capsys, r0_file):
        _, tsv, _ = run(capsys, "props", r0_file, "--format", "tsv")
        _, text, _ = run(capsys, "props", r0_file)
        names = [row.split("\t")[0] for row in tsv.splitlines()[1:]]
        flags = [line.split(":")[0] for line in text.splitlines() if not line.startswith(" ")]
        assert len(names) == len(set(names))
        assert names == flags

    def test_ybe_strong_failure(self, capsys, r0_file):
        code, out, _ = run(capsys, "ybe", "--map", "strong", r0_file)
        assert code == 1
        assert "(0, 1, 2)" in out

    def test_ybe_update_passes(self, capsys, r0_file):
        code, out, _ = run(capsys, "ybe", "--map", "update", r0_file)
        assert code == 0 and "braid: pass" in out

    def test_output_is_deterministic(self, capsys, r0_file):
        _, out1, _ = run(capsys, "props", r0_file)
        _, out2, _ = run(capsys, "props", r0_file)
        assert out1 == out2

    def test_props_lists_the_nc5_copy_in_order(self, capsys, tmp_path):
        # NC5R x a 7-element chain, with x relabeled p[x]: its first NC5R copy
        # is on {0, 4, 21, 25, 33}, which a Python set iterates out of order
        S = constructions.direct_product(constructions.chain((1,) * 7), constructions.fixed("NC5R"))
        p = list(range(S.n))
        random.Random(5).shuffle(p)
        meet, join = ([[0] * S.n for _ in p] for _ in range(2))
        for x in S.elements():
            for y in S.elements():
                meet[p[x]][p[y]], join[p[x]][p[y]] = p[S.meet(x, y)], p[S.join(x, y)]
        path = tmp_path / "relabeled.skl"
        core.save(core.CayleyPair.from_tables(meet, join), path)
        _, text, _ = run(capsys, "props", str(path))
        _, tsv, _ = run(capsys, "props", str(path), "--format", "tsv")
        assert text.splitlines()[-1] == "nc5_free: false (contains NC5R on elements {0, 4, 21, 25, 33})"
        assert tsv.splitlines()[-1].split("\t")[2].startswith("NC5R on (0, 4, 21, 25, 33)")


class TestConstructAndSearch:
    def test_construct_chain_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "c.skl"
        code, _, _ = run(capsys, "construct", "chain", "2,2", "-o", str(out_path))
        assert code == 0
        assert core.load(out_path) == constructions.chain((2, 2)).pair

    def test_construct_fixed_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "fixed", "NC5R")
        assert code == 0
        assert core.from_text(out) == constructions.fixed("NC5R").pair

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--format", "tsv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "n\tcount_up_to_iso\tnodes\texhausted"
        assert row.split("\t")[1] == "21"

    def test_enumerate_writes_witness_files(self, capsys, tmp_path):
        out_dir = tmp_path / "wit"
        code, _, _ = run(capsys, "enumerate", "3", "--out-dir", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.skl"))
        assert len(files) == 7
        for f in files:
            assert not core.axiom_violations(core.load(f))

    def test_search_found_and_not_found(self, capsys):
        code, out, _ = run(capsys, "search", "--max-n", "3", "--falsify", "x ^ y = y ^ x")
        assert code == 0 and "witness found at n=2" in out
        code, out, _ = run(
            capsys, "search", "--max-n", "3", "--satisfy", "lattice", "--falsify", "distributive"
        )
        assert (code, out) == (1, "no witness up to n=3 (exhausted, 51 nodes)\n")
        # sizes 1..4 take 870 nodes; one budget covers them all and runs out at n=5
        code, out, _ = run(
            capsys, "search", "--max-n", "6", "--falsify", "x ^ y = x ^ y", "--max-nodes", "5000"
        )
        assert (code, out) == (1, "no witness up to n=4 (budget exhausted at n=5, 5000 nodes)\n")

    def test_bad_predicate_exits_two(self, capsys):
        code, _, err = run(capsys, "enumerate", "3", "--satisfy", "nonsense")
        assert code == 2 and "unknown predicate 'nonsense'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "0"),
            ("search", "--max-n", "0"),
            ("construct", "chain", "0"),
            ("construct", "rect", "0,2"),
            ("enumerate", "3", "--limit", "-1"),
            ("enumerate", "3", "--max-nodes", "-5"),
            ("enumerate", "3", "--max-seconds", "-1"),
            ("theorems", "--max-n", "0"),
            # orders beyond search.MAX_N, rejected before any table is built
            ("enumerate", "40", "--max-nodes", "5"),
            ("search", "--max-n", "40", "--max-nodes", "5"),
            ("theorems", "--max-n", "40"),
            # orders beyond constructions.MAX_ORDER, rejected before any table is built
            ("construct", "chain", "1000000"),
            ("construct", "rect", "1000,1000"),
            # ring specs past the matrix budget, refused before the primality test
            ("construct", "ring", "300,2"),
            ("construct", "ring", "1,1000000007"),
            # formulas nested too deeply for the term walkers
            pytest.param(("enumerate", "2", "--satisfy", "(" * 3000 + "x" + ")" * 3000 + " = x"), id="deep-parens"),
            pytest.param(("enumerate", "2", "--satisfy", " ^ ".join(["x"] * 5000) + " = x"), id="long-chain"),
        ],
    )
    def test_bad_sizes_and_budgets_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and out == ""

    @pytest.mark.parametrize(
        "argv", [("enumerate", "3", "--jobs", "2"), ("search", "--max-n", "3", "--limit", "1")]
    )
    def test_unknown_option_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err and out == ""

    def test_checkpoint_resume_flow(self, capsys, tmp_path):
        ck = tmp_path / "ck.txt"
        code, out, err = run(
            capsys, "enumerate", "4", "--max-nodes", "300", "--checkpoint", str(ck)
        )
        assert code == 0 and ck.exists()
        code, out, _ = run(capsys, "enumerate", "4", "--resume", str(ck))
        assert code == 0 and "exhausted=true" in out

    def test_resumed_runs_number_witness_files_on(self, capsys, tmp_path):
        # budgeted runs chained through one checkpoint into one directory
        # leave the uninterrupted run's 53 files, names and bytes
        whole, parts, ck = tmp_path / "whole", tmp_path / "parts", tmp_path / "ck.txt"
        assert run(capsys, "enumerate", "5", "--out-dir", str(whole))[0] == 0
        argv = ["enumerate", "5", "--max-nodes", "2500", "--checkpoint", str(ck), "--out-dir", str(parts)]
        runs = 0
        while True:
            code, out, _ = run(capsys, *argv, *(["--resume", str(ck)] if runs else []))
            assert code == 0
            runs += 1
            if "exhausted=true" in out:
                break
        assert runs == 3
        names = sorted(p.name for p in whole.iterdir())
        assert len(names) == 53 and sorted(p.name for p in parts.iterdir()) == names
        assert all((parts / name).read_bytes() == (whole / name).read_bytes() for name in names)

    def test_limit_stop_writes_no_checkpoint(self, capsys, tmp_path):
        # the run ends on an emitted leaf; a checkpoint there would emit it twice
        ck = tmp_path / "lim.txt"
        code, out, err = run(capsys, "enumerate", "5", "--limit", "5", "--checkpoint", str(ck))
        assert code == 0 and "5 algebras up to isomorphism" in out and "exhausted=false" in out
        assert "stopped at the witness limit (5); no checkpoint written" in err
        assert not ck.exists()

    def test_unwritable_checkpoint_names_its_path(self, capsys, tmp_path):
        # the message names the path given, not the temporary file beside it
        ck = tmp_path / "missing" / "ck"
        code, _, err = run(capsys, "enumerate", "5", "--max-nodes", "10", "--checkpoint", str(ck))
        assert code == 2
        assert err == f"error: cannot write checkpoint {ck}: No such file or directory\n"

    # int() would raise its own message on 'x' and on a token past its digit
    # limit (4,300 by default), and read '０' (fullwidth) as 0
    @pytest.mark.parametrize(
        "path", ["99", "-1 -1", " ".join(["0"] * 25), "0 x", "\uff10 1", pytest.param("0" * 5000, id="5000-zeros")]
    )
    def test_resume_from_bad_path_exits_two(self, capsys, tmp_path, path):
        from skewlat import search

        ck = tmp_path / "ck.txt"
        header = search.CHECKPOINT_HEADER + "\n" + search.spec_hash(search.SearchSpec(n=4))
        ck.write_text(header + "\n" + path + "\n", encoding="utf-8")
        code, out, err = run(capsys, "enumerate", "4", "--resume", str(ck))
        message = "checkpoint path is not at most 24 values in 0..3"
        assert (code, out, err) == (2, "", f"error: cannot resume from {ck}: {message}\n")

    # '²' and '٣' pass str.isdigit: int() refuses the first and reads the
    # second as 3; 5,000 nines pass it too, past int()'s digit limit
    @pytest.mark.parametrize(
        "count", ["\u00b2", "\u0663", "9" * 5000], ids=["superscript-two", "arabic-indic-three", "5000-nines"]
    )
    def test_resume_from_bad_witness_count_exits_two(self, capsys, tmp_path, count):
        from skewlat import search

        ck = tmp_path / "ck.txt"
        header = search.CHECKPOINT_HEADER + "\n" + search.spec_hash(search.SearchSpec(n=4))
        ck.write_text(f"{header}\n0 1\n{count}\n", encoding="utf-8")
        code, out, err = run(capsys, "enumerate", "4", "--resume", str(ck))
        assert (code, out, err) == (2, "", f"error: cannot resume from {ck}: checkpoint line 4 is not a witness count\n")

    def test_resume_from_version_2_checkpoint_exits_two(self, capsys, tmp_path):
        from skewlat import search

        # a version 2 path went on over every join cell, version 3 over the
        # open ones alone, so an old file would resume at the wrong node
        ck = tmp_path / "ck.txt"
        ck.write_text("skewlat checkpoint v2\n" + search.spec_hash(search.SearchSpec(n=4)) + "\n0 1\n0\n")
        code, out, err = run(capsys, "enumerate", "4", "--resume", str(ck))
        assert code == 2 and "not a checkpoint file" in err and out == ""

    def test_resume_from_file_without_format_line_exits_two(self, capsys, tmp_path):
        from skewlat import search

        # a valid spec hash and path, but no format line above them
        ck = tmp_path / "ck.txt"
        ck.write_text(search.spec_hash(search.SearchSpec(n=4)) + "\n0 1\n")
        code, out, err = run(capsys, "enumerate", "4", "--resume", str(ck))
        assert code == 2 and "not a checkpoint file" in err and out == ""


class TestOneParserManyCalls:
    # every `run` in a process parses with one parser, and a parse leaves
    # nothing in it for the next

    def test_every_call_parses_with_the_same_parser(self, capsys, monkeypatch, one_file):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for argv in (("validate", one_file), ("frobnicate",), ("props", one_file), ("--help",)):
            run(capsys, *argv)
        assert len(parsers) == 4 and all(p is parsers[0] for p in parsers)

    def test_appended_predicates_do_not_reach_the_next_call(self, capsys):
        first = run(capsys, "search", "--max-n", "3", "--satisfy", "lattice", "--falsify", "distributive")
        second = run(capsys, "search", "--max-n", "3", "--falsify", "distributive")
        assert first == (1, "no witness up to n=3 (exhausted, 51 nodes)\n", "")
        assert second == (1, "no witness up to n=3 (exhausted, 90 nodes)\n", "")

    def test_usage_error_then_a_valid_call(self, capsys, one_file):
        code, out, err = run(capsys, "validate")
        assert (code, out) == (2, "") and err.startswith("usage: skewlat validate")
        assert run(capsys, "validate", one_file) == (0, f"{one_file}: valid skew lattice (n=1)\n", "")

    def test_help_then_a_valid_call(self, capsys, one_file):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "") and out.startswith("usage: skewlat")
        assert run(capsys, "validate", one_file) == (0, f"{one_file}: valid skew lattice (n=1)\n", "")

    def test_handlers_are_looked_up_at_call_time(self, capsys, monkeypatch, one_file):
        # a handler patched after the parser was built is the one that runs,
        # and the original runs again once the patch is undone
        assert run(capsys, "validate", one_file)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_validate", lambda args: seen.append(args.files) or 5)
        assert run(capsys, "validate", one_file) == (5, "", "")
        assert seen == [[one_file]]
        monkeypatch.undo()
        assert run(capsys, "validate", one_file) == (0, f"{one_file}: valid skew lattice (n=1)\n", "")


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "skewlat", "enumerate", "3", "--format", "tsv"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "3\t7\t84\ttrue" in proc.stdout.splitlines()


def test_a_closed_stdout_exits_141_with_nothing_on_stderr(one_file):
    # the read end of stdout's pipe is closed before the child starts, so its
    # report meets a broken pipe, as under `skewlat validate big.skl | head -1`
    src = str(Path(__file__).resolve().parents[1] / "src")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skewlat", "validate", one_file],
            stdout=write, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_only_a_checkpoint_loads_hashlib(tmp_path):
    # hashlib loads OpenSSL, 3.6 MB of resident memory: the reports, the
    # census and the battery run without it, and the first checkpoint read
    # or written in the process loads it. No command loads dataclasses or
    # the inspect module it imports: no record type is a dataclass
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = """
import contextlib, io, sys
import skewlat
from skewlat import cli, constructions, core, green, search, terms, theorems, varieties, ybe

algebra, ck = sys.argv[1], sys.argv[2]
core.save(constructions.rectangular(2, 3).pair, algebra)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["validate", algebra], ["structure", algebra], ["props", algebra], ["ybe", algebra],
                 ["enumerate", "4"], ["theorems", "--max-n", "3"]):
        assert cli.run(argv) == 0, argv
print("hashlib" in sys.modules)
print("dataclasses" in sys.modules or "inspect" in sys.modules)
search.save_checkpoint(search.SearchSpec(n=4), (0, 1), ck)
print(search.load_checkpoint(search.SearchSpec(n=4), ck))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s.skl"), str(tmp_path / "ck.txt")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nFalse\n((0, 1), 0)\n", "")


class TestTheorems:
    def test_battery_passes(self, capsys):
        code, out, _ = run(capsys, "theorems", "--max-n", "3")
        assert code == 0
        assert "pass" in out and "FAIL" not in out

    def test_battery_tsv(self, capsys):
        code, out, _ = run(capsys, "theorems", "--max-n", "2", "--format", "tsv")
        assert code == 0
        assert out.splitlines()[0] == "theorem\tchecked\tfailures"

    def test_only_runs_the_named_theorems(self, capsys):
        code, out, _ = run(capsys, "theorems", "--max-n", "2", "--only", "orders-cohere-with-green")
        assert code == 0
        assert len(out.splitlines()) == 2 and "orders-cohere-with-green" in out

    def test_repeated_name_runs_once(self, capsys):
        only = "orders-cohere-with-green,decomposition-invariants,orders-cohere-with-green"
        code, out, _ = run(capsys, "theorems", "--max-n", "2", "--only", only)
        assert code == 0
        lines = out.splitlines()[1:]
        assert len(lines) == 2 and "orders-cohere-with-green" in lines[0]
        assert all("4 checked" in ln for ln in lines)

    def test_battery_above_order_7_exits_two(self, capsys):
        # the census of order 8 does not run to the end; refused before it starts
        code, out, err = run(capsys, "theorems", "--max-n", "8")
        assert (code, out, err) == (2, "", "error: max_n must be in 1..7\n")

    def test_unknown_theorem_exits_two(self, capsys):
        code, _, _ = run(capsys, "theorems", "--max-n", "2", "--only", "nope")
        assert code == 2

    @pytest.mark.parametrize("only", ["", ","])
    def test_empty_theorem_name_exits_two(self, capsys, only):
        # an empty --only names the empty theorem, as "," does: it does not
        # mean "all"
        code, out, err = run(capsys, "theorems", "--max-n", "1", "--only", only)
        assert (code, out, err) == (2, "", "error: unknown theorem names: ['']\n")
