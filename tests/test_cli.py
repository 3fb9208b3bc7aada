import json
import math
import subprocess
import sys

import pytest

import nbibp.cli as cli
import nbibp.validation
from nbibp.distributions import (
    BnbParams,
    DigammaParams,
    NbParams,
    bnb_sample,
    digamma_sample,
    nb_sample,
)
from nbibp.generative import bnbp_sample_finitary, nbibp_simulate, truncated_oracle_simulate
from nbibp.numerics import RngStream
from nbibp.structures import Hyperparams, array_to_json
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


class TestReplicateFanOut:
    """Replicate k of simulate and sample is a standalone draw from
    RngStream(seed, k), whatever the replicates before it drew."""

    REPS = 6

    @pytest.mark.parametrize("seed", [7, -5])
    def test_simulate_records(self, capsys, seed):
        hp = Hyperparams(1.5, 2.0, 2.0)
        hyper = ("--r", "1.5", "--c", "2", "--mass-T", "2")
        common = (*hyper, "--reps", str(self.REPS), "--seed", str(seed))

        def masses(rng):
            fixed, diffuse = bnbp_sample_finitary(hp, rng)
            rec = {"kind": "masses", "fixed": fixed, "diffuse": diffuse}
            return json.dumps(rec, sort_keys=True, separators=(",", ":"))

        runs = {
            "sequential": (
                ("--n", "3"),
                lambda rng: array_to_json(nbibp_simulate(3, hp, rng)),
            ),
            "truncated": (
                ("--n", "2", "--epsilon", "1e-3"),
                lambda rng: array_to_json(truncated_oracle_simulate(2, hp, 1e-3, rng)),
            ),
            "finitary": ((), masses),
        }
        for construction, (flags, draw) in runs.items():
            code, lines = run_main(
                capsys, "simulate", "--construction", construction, *flags, *common
            )
            assert code == 0 and len(lines) == self.REPS + 1
            want = [draw(RngStream(seed, k)) for k in range(self.REPS)]
            assert lines[:-1] == want, construction

    @pytest.mark.parametrize("seed", [7, -5])
    def test_sample_lines(self, capsys, seed):
        runs = {
            "digamma": (
                ("--r", "0.7", "--theta", "1.5"),
                lambda rng: digamma_sample(DigammaParams(0.7, 1.5), rng),
            ),
            "bnb": (
                ("--r", "1.5", "--alpha", "2", "--beta", "1.5"),
                lambda rng: bnb_sample(BnbParams(1.5, 2.0, 1.5), rng),
            ),
            "nb": (
                ("--r", "2.5", "--p", "0.3"),
                lambda rng: nb_sample(NbParams(2.5, 0.3), rng),
            ),
        }
        for dist, (flags, draw) in runs.items():
            code, lines = run_main(
                capsys, "sample", "--dist", dist, *flags,
                "--reps", str(self.REPS), "--seed", str(seed),
            )
            assert code == 0 and len(lines) == self.REPS + 1
            want = [str(draw(RngStream(seed, k))) for k in range(self.REPS)]
            assert lines[:-1] == want, dist


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
        # numpy reads JSON true and false as counts, in a mixed list and alone
        mixed_bools = tmp_path / "mixed_bools.json"
        mixed_bools.write_text('{"y": [[true, false], [1, 2]]}')
        lone_bool = tmp_path / "lone_bool.json"
        lone_bool.write_text("[[true]]")
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
            ["sample", "--dist", "nb", "--p", "1", "--seed", "1"],
            ["pmf", "--in", missing],
            ["infer", "--seed", "1"],
            ["infer", "--in", str(good), "--synthetic", "--seed", "1"],
            ["infer", "--in", missing, "--seed", "1"],
            ["infer", "--in", str(ragged), "--seed", "1"],
            ["infer", "--in", str(mixed_bools), "--seed", "1"],
            ["infer", "--in", str(lone_bool), "--seed", "1"],
            ["infer", "--synthetic", "--sweeps", "-1", "--seed", "1"],
            ["infer", "--synthetic", "--thin", "0", "--seed", "1"],
            ["infer", "--synthetic", "--n", "0", "--seed", "1"],
            ["infer", "--synthetic", "--V", "0", "--seed", "1"],
            ["infer", "--synthetic", "--c-prior", "gamma:1", "--seed", "1"],
            ["infer", "--synthetic", "--r-prior", "gamma:-1,1", "--seed", "1"],
            ["validate", "--suite", "none", "--suite", "t-update"],
            ["validate", "--suite", "no-such-suite"],
            # an infinite parameter is refused before any draw, like a zero one
            ["simulate", "--n", "2", "--seed", "1", "--c", "inf"],
            ["simulate", "--n", "2", "--seed", "1", "--mass-T", "inf"],
            ["sample", "--dist", "digamma", "--theta", "inf", "--seed", "1"],
            ["sample", "--dist", "bnb", "--alpha", "inf", "--seed", "1"],
            ["sample", "--dist", "nb", "--r", "inf", "--seed", "1"],
            *(
                ["infer", "--synthetic", "--n", "3", "--V", "2", "--sweeps", "2",
                 "--seed", "1", *flag]
                for flag in (
                    ["--a-theta", "inf"],
                    ["--b-theta", "inf"],
                    ["--t-alpha", "inf"],
                    ["--t-beta", "inf"],
                    ["--c-prior", "gamma:inf,1"],
                    ["--r-prior", "lognormal:inf,1"],
                    ["--r-prior", "lognormal:0,inf"],
                )
            ),
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

    def test_factor_draws_that_underflow_keep_running(self, capsys):
        # a Gamma(a_theta << 1) factor draw can round to 0.0; the chain must
        # keep Theta positive rather than refuse its own state
        for argv in (
            ["--n", "10", "--V", "5", "--a-theta", "0.01", "--sweeps", "30", "--seed", "1"],
            ["--n", "10", "--V", "5", "--a-theta", "0.01", "--sweeps", "30", "--seed", "5"],
            ["--n", "4", "--V", "3", "--a-theta", "1e-300", "--sweeps", "30", "--seed", "1"],
        ):
            code = cli.main(["infer", "--synthetic", *argv])
            captured = capsys.readouterr()
            assert code == 0, argv
            assert captured.err == "", argv
            records = [json.loads(ln) for ln in captured.out.splitlines()[1:]]
            assert len(records) == 31, argv
            assert all(math.isfinite(rec["log_joint"]) for rec in records), argv

    def test_mass_draws_that_underflow_keep_running(self, capsys):
        # a Gamma(t_alpha << 1) draw of T can round to 0.0, and then c T can
        # round to 0.0 inside the array p.m.f. the c/r slice moves evaluate
        code = cli.main(
            ["infer", "--synthetic", "--n", "4", "--V", "3", "--sweeps", "10",
             "--t-alpha", "0.001", "--t-beta", "1000", "--seed", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        records = [json.loads(ln) for ln in captured.out.splitlines()[1:]]
        assert len(records) == 11
        assert all(rec["T"] > 0.0 for rec in records)
        assert min(rec["T"] for rec in records) == math.ulp(0.0)

    def test_entry_column_sums_stay_in_int64(self, tmp_path, capsys):
        # on this planted input the c/r moves drift to c ~ 0.07 and r ~ 0.004,
        # a birth lands near the 1e18 rate cap, and entry proposals of that
        # size would carry the column sum past int64 at sweep 5
        y = [
            [0, 3, 7, 0, 3, 3, 1, 1, 3, 2], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 1, 3, 0, 0, 1, 1, 2],
            [4, 3, 9, 1, 0, 5, 7, 3, 1, 1], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [2, 5, 5, 3, 4, 10, 6, 3, 2, 0], [8, 6, 9, 4, 10, 7, 8, 2, 10, 3],
            [1, 0, 3, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [5, 1, 6, 0, 1, 3, 6, 1, 2, 0], [1, 0, 1, 0, 2, 0, 0, 0, 0, 0],
            [1, 3, 2, 1, 0, 1, 2, 4, 1, 3], [2, 2, 1, 0, 6, 1, 2, 2, 0, 0],
            [0, 3, 5, 1, 4, 0, 3, 4, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [10, 6, 4, 4, 0, 2, 4, 3, 3, 0], [5, 1, 4, 0, 3, 2, 2, 0, 0, 0],
            [6, 3, 3, 1, 1, 0, 2, 1, 1, 2], [0, 1, 1, 0, 2, 0, 2, 1, 1, 0],
        ]
        path = tmp_path / "y.json"
        path.write_text(json.dumps(y))
        code = cli.main(
            ["infer", "--in", str(path), "--sweeps", "8", "--seed", "2356886480085435644"]
        )
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        counts = [json.loads(ln)["total_count"] for ln in captured.out.splitlines()]
        assert len(counts) == 9 and all(0 <= t < 2**63 for t in counts)
        assert max(counts) > 2**62  # the chain does reach the bound

    def test_lognormal_prior_far_from_its_mode(self, capsys):
        # ((log c - mu) / sigma) ** 2 overflows a double for a tiny sigma
        code = cli.main(
            ["infer", "--synthetic", "--n", "4", "--V", "3", "--sweeps", "5",
             "--c-prior", "lognormal:0,1e-300", "--seed", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert {json.loads(ln)["c"] for ln in captured.out.splitlines()[1:]} == {1.0}

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


    @pytest.mark.parametrize(
        "name, text",
        [
            ("y.txt", "99999999999999999999999\n"),
            ("y.json", '{"y": [[1e300]]}'),
            ("y.json", '{"y": [[100000000000000000000000000000]]}'),
        ],
        ids=["text-int", "json-float", "json-int"],
    )
    def test_counts_past_int64_refused(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code = cli.main(["infer", "--in", str(path), "--sweeps", "2", "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "nbibp: error: y entries must be < 2**63"
        ]


class TestValidate:
    def test_none_reports_pass(self, capsys):
        code, lines = run_main(capsys, "validate", "--suite", "none")
        assert code == 0
        assert lines == ['{"kind":"report","passed":true}']

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

    def test_all_suites_run_in_registration_order(self, capsys, monkeypatch):
        # with no --suite every suite runs in the order run_suites(None) uses,
        # which is not alphabetical here
        def fake(name):
            return lambda seed=None: SuiteResult(name, True, 1.0, {})

        monkeypatch.setattr(nbibp.validation, "SUITES", {"zeta": fake("zeta"), "alpha": fake("alpha")})
        code, lines = run_main(capsys, "validate")
        assert code == 0
        assert [json.loads(ln)["name"] for ln in lines[:-1]] == ["zeta", "alpha"]
        assert lines[-1] == '{"kind":"report","passed":true}'

    def test_unknown_suite_rejected(self, capsys):
        for _ in range(2):  # the parser the first call builds lists the same choices
            assert exit_status(["validate", "--suite", "no-such-suite"]) == 2
            err = capsys.readouterr().err
            listed = err.split("(choose from ", 1)[1].rstrip(")\n").split(",")
            assert {name.strip(" '") for name in listed} == {*cli.SUITES, "none"}


class TestParserReuse:
    @pytest.fixture
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once_per_process(self, capsys, monkeypatch, fresh_parser):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        calls = (
            ["sample", "--reps", "2", "--seed", "1"],
            ["simulate", "--n", "2", "--reps", "2", "--seed", "1"],
            ["infer", "--synthetic", "--n", "3", "--V", "2", "--sweeps", "2", "--seed", "1"],
            ["validate", "--suite", "none"],
        )
        for argv in calls:
            assert cli.main(argv) == 0
            assert len(built) == 6, argv  # the top parser and one per command, once
        capsys.readouterr()

    def test_import_builds_no_parser(self, tmp_path):
        # a fresh interpreter: importing nbibp.cli builds no parser and loads
        # neither scipy.stats nor scipy.integrate, and of the commands only the
        # truncated oracle (and validate, not run here) loads scipy.integrate;
        # the truncated call shows that the check can fail
        code = """if True:
            import argparse
            import contextlib
            import io
            import sys
            built = []
            init = argparse.ArgumentParser.__init__

            def counting(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                init(self, *args, **kwargs)

            def heavy():
                loaded = {".".join(m.split(".")[:2]) for m in sys.modules}
                return loaded & {"scipy.stats", "scipy.integrate"}

            argparse.ArgumentParser.__init__ = counting
            import nbibp.cli
            assert not built, built
            assert heavy() == set(), heavy()

            records = sys.argv[1]
            with open(records, "w") as f:
                f.write('{"kind": "array", "n": 2, "columns": [[1, 0], [2, 3]]}\\n')
            for argv in (
                ["simulate", "--n", "3", "--reps", "2", "--seed", "1"],
                ["simulate", "--construction", "finitary", "--reps", "2", "--seed", "1"],
                ["sample", "--dist", "digamma", "--reps", "3", "--seed", "1"],
                ["sample", "--dist", "bnb", "--reps", "3", "--seed", "1"],
                ["pmf", "--in", records],
                ["infer", "--synthetic", "--n", "4", "--V", "3", "--sweeps", "3", "--seed", "7"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert nbibp.cli.main(argv) == 0, argv
                assert heavy() == set(), (argv, heavy())

            argv = ["simulate", "--construction", "truncated", "--n", "2", "--seed", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert nbibp.cli.main(argv) == 0, argv
            assert heavy() == {"scipy.integrate"}, heavy()
        """
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "in.jsonl")],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr

    def test_usage_error_leaves_next_call_unchanged(self, capsys, fresh_parser):
        argvs = (
            ["infer", "--synthetic", "--n", "4", "--V", "3", "--sweeps", "3", "--seed", "7"],
            ["validate", "--suite", "none"],
        )
        firsts = []
        for argv in argvs:
            assert cli.main(argv) == 0
            firsts.append(capsys.readouterr().out)
        for bad in (
            ["infer", "--synthetic", "--sweeps", "two", "--seed", "7"],
            ["validate", "--suite", "none", "--suite", "none"],
            ["validate", "--suite", "no-such-suite"],
            ["no-such-command"],
        ):
            assert exit_status(bad) == 2, bad
            captured = capsys.readouterr()
            assert captured.out == "", bad
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("nbibp: error: "), (bad, lines)
            for argv, first in zip(argvs, firsts):
                assert cli.main(argv) == 0
                assert capsys.readouterr().out == first, (bad, argv)
