import json
import math
import subprocess
import sys

import pytest

import nbibp.cli as cli
from nbibp.validation import SuiteResult


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "nbibp.cli", *argv],
        capture_output=True,
        text=True,
    )


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def exit_status(argv):
    """cli.main's status, whether it returns it or argparse exits with it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestSimulate:
    def test_lines_and_summary(self, capsys):
        code, lines = run_main(
            capsys, "simulate", "--n", "2", "--reps", "3", "--seed", "5"
        )
        assert code == 0
        assert len(lines) == 4
        for ln in lines[:3]:
            rec = json.loads(ln)
            assert rec["kind"] == "array" and rec["n"] == 2
        summary = json.loads(lines[3])
        assert summary["kind"] == "summary" and summary["reps"] == 3
        assert summary["mean_kappa"] is not None

    def test_zero_reps_summary_nulls(self, capsys):
        code, lines = run_main(capsys, "simulate", "--reps", "0", "--seed", "1")
        assert code == 0
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["mean_kappa"] is None
        assert summary["mean_multiplicity"] is None

    def test_byte_identical_reruns(self):
        args = ("simulate", "--n", "2", "--reps", "5", "--seed", "11")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        c = run_cli("simulate", "--n", "2", "--reps", "5", "--seed", "12")
        assert c.stdout != a.stdout

    def test_constructions(self, capsys):
        code, lines = run_main(
            capsys,
            "simulate", "--construction", "truncated", "--epsilon", "1e-3",
            "--n", "2", "--reps", "2", "--seed", "3",
        )
        assert code == 0 and json.loads(lines[0])["kind"] == "array"
        code, lines = run_main(
            capsys, "simulate", "--construction", "finitary", "--reps", "2", "--seed", "3"
        )
        assert code == 0
        rec = json.loads(lines[0])
        assert rec["kind"] == "masses" and "fixed" in rec and "diffuse" in rec

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "sim.jsonl"
        code, lines = run_main(
            capsys, "simulate", "--reps", "2", "--seed", "4", "--out", str(path)
        )
        assert code == 0 and lines == []
        assert len(path.read_text().splitlines()) == 3


class TestPmf:
    def test_relations(self, tmp_path, capsys):
        records = [
            {"kind": "struct", "n": 2, "counts": []},
            {"kind": "array", "n": 2, "columns": [[1, 0], [0, 1]]},
            {"kind": "struct", "n": 2, "counts": [[[0, 1], 1], [[1, 0], 1]]},
        ]
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, lines = run_main(capsys, "pmf", "--in", str(path))
        assert code == 0
        vals = [json.loads(ln)["log_pmf"] for ln in lines]
        # empty structure: -c T (psi(c + 2r) - psi(c)) at the defaults
        assert vals[0] == pytest.approx(-1.5, rel=1e-12)
        # struct with two distinct columns = array + log(orderings)
        assert vals[2] == pytest.approx(vals[1] + math.log(2.0), abs=1e-12)

    def test_malformed_record_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"array","n":2,"columns":[[0,0]]}\n')
        code = cli.main(["pmf", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "record 0" in captured.err

    def test_mixed_good_and_bad(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"kind":"array","n":1,"columns":[[2]]}\n{"kind":"what"}\n'
        )
        code = cli.main(["pmf", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert len(captured.out.splitlines()) == 1  # good record still evaluated


class TestSample:
    def test_draws_and_summary(self, capsys):
        code, lines = run_main(
            capsys, "sample", "--dist", "digamma", "--r", "1", "--theta", "1",
            "--reps", "6", "--seed", "9",
        )
        assert code == 0
        draws = [int(x) for x in lines[:6]]
        assert all(z >= 1 for z in draws)
        summary = json.loads(lines[6])
        assert summary["dist"] == "digamma"
        assert summary["mean"] == pytest.approx(sum(draws) / 6)

    def test_bnb_and_nb(self, capsys):
        code, lines = run_main(
            capsys, "sample", "--dist", "bnb", "--alpha", "2", "--beta", "3",
            "--reps", "4", "--seed", "2",
        )
        assert code == 0 and all(int(x) >= 0 for x in lines[:4])
        code, lines = run_main(
            capsys, "sample", "--dist", "nb", "--p", "0.3", "--reps", "4", "--seed", "2"
        )
        assert code == 0 and all(int(x) >= 0 for x in lines[:4])

    def test_deterministic(self):
        args = ("sample", "--dist", "bnb", "--reps", "8", "--seed", "33")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestInfer:
    def test_synthetic_stream(self, capsys):
        code, lines = run_main(
            capsys,
            "infer", "--synthetic", "--n", "2", "--V", "1",
            "--sweeps", "3", "--seed", "17",
        )
        assert code == 0
        truth = json.loads(lines[0])
        assert truth["kind"] == "truth" and len(truth["y"]) == 2
        records = [json.loads(ln) for ln in lines[1:]]
        assert len(records) == 4  # init plus three sweeps
        assert [r["sweep"] for r in records] == [0, 1, 2, 3]
        for r in records:
            assert set(r) >= {"kappa", "T", "c", "r", "total_count", "log_joint"}

    def test_thinning_and_zero_sweeps(self, capsys):
        code, lines = run_main(
            capsys,
            "infer", "--synthetic", "--n", "2", "--V", "1",
            "--sweeps", "4", "--thin", "2", "--seed", "17",
        )
        assert code == 0
        assert [json.loads(ln)["sweep"] for ln in lines[1:]] == [0, 2, 4]
        code, lines = run_main(
            capsys,
            "infer", "--synthetic", "--n", "2", "--V", "1",
            "--sweeps", "0", "--seed", "17",
        )
        assert code == 0 and len(lines) == 2

    def test_file_mode_with_point_priors(self, tmp_path, capsys):
        path = tmp_path / "y.txt"
        path.write_text("1 0\n2 1\n")
        code, lines = run_main(
            capsys,
            "infer", "--in", str(path), "--sweeps", "5", "--seed", "21",
            "--c-prior", "point", "--r-prior", "point",
        )
        assert code == 0
        for ln in lines:
            rec = json.loads(ln)
            assert rec["c"] == 1.0 and rec["r"] == 1.0

    def test_json_count_input(self, tmp_path, capsys):
        path = tmp_path / "y.json"
        path.write_text('{"y": [[1, 0], [0, 2]]}')
        code, lines = run_main(
            capsys, "infer", "--in", str(path), "--sweeps", "2", "--seed", "21"
        )
        assert code == 0 and len(lines) == 3

    def test_full_records(self, capsys):
        code, lines = run_main(
            capsys,
            "infer", "--synthetic", "--n", "2", "--V", "1",
            "--sweeps", "1", "--seed", "17", "--full",
        )
        assert code == 0
        rec = json.loads(lines[-1])
        assert "W" in rec and "Theta" in rec
        assert len(rec["W"]) == rec["kappa"]

    def test_deterministic(self):
        args = (
            "infer", "--synthetic", "--n", "2", "--V", "1",
            "--sweeps", "4", "--seed", "29",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_lognormal_prior_file_mode(self, tmp_path, capsys):
        path = tmp_path / "y.txt"
        path.write_text("1 0 2\n0 3 1\n2 1 0\n")
        code, lines = run_main(
            capsys, "infer", "--in", str(path), "--sweeps", "5", "--seed", "3",
            "--c-prior", "lognormal:0,1", "--r-prior", "lognormal:0.5,0.5",
        )
        assert code == 0 and len(lines) == 6

    def test_one_by_one_whitespace_file(self, tmp_path, capsys):
        # "3" also parses as a JSON number; it must be read as a 1x1 matrix
        path = tmp_path / "y.txt"
        path.write_text("3\n")
        code, lines = run_main(
            capsys, "infer", "--in", str(path), "--sweeps", "2", "--seed", "1"
        )
        assert code == 0 and len(lines) == 3

    def test_source_flags_are_exclusive(self, tmp_path, capsys):
        path = tmp_path / "y.txt"
        path.write_text("1\n")
        with pytest.raises(SystemExit):
            cli.main(["infer", "--seed", "1"])
        with pytest.raises(SystemExit):
            cli.main(["infer", "--in", str(path), "--synthetic", "--seed", "1"])
        capsys.readouterr()


class TestErrorBoundary:
    def test_bad_flags_exit_2_with_one_line(self, tmp_path, capsys):
        good = tmp_path / "y.txt"
        good.write_text("1 0\n2 1\n")
        ragged = tmp_path / "ragged.txt"
        ragged.write_text("1 0\n2\n")
        missing = str(tmp_path / "missing.txt")
        bad = [
            ["simulate", "--reps", "-1", "--seed", "1"],
            ["simulate", "--n", "0", "--seed", "1"],
            ["simulate", "--construction", "truncated", "--epsilon", "0", "--seed", "1"],
            ["simulate", "--r", "0", "--seed", "1"],
            ["simulate", "--reps", "1"],  # --seed is mandatory
            ["simulate", "--reps", "two", "--seed", "1"],
            ["sample", "--reps", "-1", "--seed", "1"],
            ["sample", "--dist", "nb", "--p", "1.5", "--seed", "1"],
            ["pmf", "--in", missing],
            ["infer", "--seed", "1"],
            ["infer", "--in", str(good), "--synthetic", "--seed", "1"],
            ["infer", "--in", missing, "--seed", "1"],
            ["infer", "--in", str(ragged), "--seed", "1"],
            ["infer", "--synthetic", "--sweeps", "-1", "--seed", "1"],
            ["infer", "--synthetic", "--thin", "0", "--seed", "1"],
            ["infer", "--synthetic", "--n", "0", "--seed", "1"],
            ["infer", "--synthetic", "--V", "0", "--seed", "1"],
            ["infer", "--synthetic", "--c-prior", "gamma:1", "--seed", "1"],
            ["infer", "--synthetic", "--r-prior", "gamma:-1,1", "--seed", "1"],
            ["validate", "--suite", "none", "--suite", "t-update"],
            ["validate", "--suite", "no-such-suite"],
        ]
        for argv in bad:
            code = exit_status(argv)
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == "", argv
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("nbibp: error: "), (argv, lines)

    def test_cold_starts_run_to_the_end(self, capsys):
        # a cold start can leave a counted row without features, a state the
        # data rule out; the chain must move on from it, not stop
        for seed in range(1, 41):
            code = cli.main(
                ["infer", "--synthetic", "--n", "5", "--V", "3",
                 "--sweeps", "20", "--seed", str(seed)]
            )
            captured = capsys.readouterr()
            assert code == 0, seed
            assert captured.err == "", seed
            assert len(captured.out.splitlines()) == 22, seed  # truth + 21 states

    def test_entry_point_has_no_traceback(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("1 -2\n0 3\n")
        out = run_cli("infer", "--in", str(path), "--sweeps", "2", "--seed", "1")
        assert out.returncode == 2
        assert out.stderr.splitlines() == ["nbibp: error: y entries must be >= 0"]

    def test_json_counts_must_be_integers(self, tmp_path, capsys):
        # JSON input reaches the model's integer check uncast, as text input does
        path = tmp_path / "y.json"
        path.write_text('{"y": [[1.5, 0], [0, 2]]}')
        code = cli.main(["infer", "--in", str(path), "--sweeps", "2", "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "nbibp: error: y entries must be integers"
        ]


class TestValidate:
    def test_none_reports_pass(self, capsys):
        code, lines = run_main(capsys, "validate", "--suite", "none")
        assert code == 0
        assert json.loads(lines[-1]) == {"kind": "report", "suites": [], "passed": True}

    def test_selected_fast_suites(self, capsys):
        code, lines = run_main(
            capsys,
            "validate", "--suite", "digamma-identity", "--suite", "t-update",
        )
        assert code == 0
        names = [json.loads(ln).get("name") for ln in lines[:-1]]
        assert names == ["digamma-identity", "t-update"]
        assert json.loads(lines[-1])["passed"] is True

    def test_geweke_report_plumbing(self, capsys, monkeypatch):
        # the verdict of `validate --suite geweke` sets the exit status
        def fake(passed):
            return lambda seed=None: SuiteResult("geweke", passed, 1.0, {"kappa": {"pull": 0.5}})

        monkeypatch.setitem(cli.SUITES, "geweke", fake(True))
        code, lines = run_main(capsys, "validate", "--suite", "geweke")
        assert code == 0
        assert json.loads(lines[0])["metrics"] == {"kappa": {"pull": 0.5}}
        assert json.loads(lines[-1]) == {"kind": "report", "passed": True}
        monkeypatch.setitem(cli.SUITES, "geweke", fake(False))
        code, lines = run_main(capsys, "validate", "--suite", "geweke")
        assert code == 1 and json.loads(lines[-1]) == {"kind": "report", "passed": False}

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["validate", "--suite", "no-such-suite"])
        capsys.readouterr()
