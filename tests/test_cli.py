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
            assert core.is_skew_lattice(core.load(f))

    def test_search_found_and_not_found(self, capsys):
        code, out, _ = run(capsys, "search", "--max-n", "3", "--falsify", "x ^ y = y ^ x")
        assert code == 0 and "witness found at n=2" in out
        code, out, _ = run(
            capsys, "search", "--max-n", "3", "--satisfy", "lattice", "--falsify", "distributive"
        )
        assert code == 1 and "no witness" in out

    def test_bad_predicate_exits_two(self, capsys):
        code, _, err = run(capsys, "enumerate", "3", "--satisfy", "nonsense")
        assert code == 2

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

    @pytest.mark.parametrize("path", ["99", "-1 -1", " ".join(["0"] * 25)])
    def test_resume_from_bad_path_exits_two(self, capsys, tmp_path, path):
        from skewlat import search

        ck = tmp_path / "ck.txt"
        header = search.CHECKPOINT_HEADER + "\n" + search.spec_hash(search.SearchSpec(n=4))
        ck.write_text(header + "\n" + path + "\n")
        code, out, err = run(capsys, "enumerate", "4", "--resume", str(ck))
        assert code == 2 and err.startswith("error: ") and out == ""

    def test_resume_from_file_without_format_line_exits_two(self, capsys, tmp_path):
        from skewlat import search

        # a valid spec hash and path, but no format line above them
        ck = tmp_path / "ck.txt"
        ck.write_text(search.spec_hash(search.SearchSpec(n=4)) + "\n0 1\n")
        code, out, err = run(capsys, "enumerate", "4", "--resume", str(ck))
        assert code == 2 and "not a checkpoint file" in err and out == ""


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

    def test_unknown_theorem_exits_two(self, capsys):
        code, _, _ = run(capsys, "theorems", "--max-n", "2", "--only", "nope")
        assert code == 2
