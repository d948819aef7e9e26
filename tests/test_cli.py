"""End-to-end checks of the command line front end.

Everything here goes through ``python -m greenfcc`` in a subprocess so the
exit codes, stream separation, and byte-level determinism seen by a shell
user are what gets tested.
"""

import json
import os
import resource
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "greenfcc"]

EVAL_KEYS = [
    "t",
    "gamma",
    "l",
    "m",
    "n",
    "method",
    "accel",
    "value",
    "abs_error_estimate",
    "terms_used",
    "converged",
    "wall_time_ms",
]

SWEEP_HEADER = "t,gamma,l,m,n,method,value,error,terms,converged"


def run(*args, timeout=120, **kwargs):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=timeout, **kwargs
    )


def cap_address_space():
    """Limit a child to 1 GiB of address space, so a runaway list fails fast."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestEval:
    def test_record_schema(self):
        r = run("eval", "--t", "4", "--gamma", "1", "--lmn", "0", "0", "0")
        assert r.returncode == 0
        (rec,) = json_lines(r.stdout)
        assert list(rec) == EVAL_KEYS
        assert rec["method"] == "series5"
        assert rec["converged"] is True
        assert 0.2 < rec["value"] < 0.3
        assert rec["wall_time_ms"] >= 0.0

    def test_series6_at_t_1e300_with_a_loose_tol(self):
        # the row envelope's 2 Jn[q] / (pi t tol_q) underflows to 0.0 here;
        # its logarithm once ended the command with "math domain error"
        r = run("eval", "--t", "1e300", "--method", "series6", "--tol", "1e10")
        assert r.returncode == 0, r.stderr
        (rec,) = json_lines(r.stdout)
        assert rec["value"] == 1e-300 and rec["converged"] is True

    def test_series6_where_gamma_over_t_underflows(self):
        # gamma/t = 1e-330 is 0.0: the row width once took its logarithm
        r = run("eval", "--t", "1e300", "--gamma", "1e-30", "--method", "series6", "--tol", "1e-3")
        assert r.returncode == 0, r.stderr
        (rec,) = json_lines(r.stdout)
        assert rec["value"] == 1e-300 and rec["converged"] is True

    def test_parity_error(self):
        r = run("eval", "--t", "4", "--lmn", "1", "1", "1")
        assert r.returncode == 1
        assert r.stdout == ""
        assert "l+m+n must be even" in r.stderr

    def test_below_band_edge(self):
        r = run("eval", "--t", "2.5")
        assert r.returncode == 1
        assert "2.5" in r.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (("eval", "--t", "inf", "--method", "quadrature"), "t must be finite"),
            (("eval", "--t", "4", "--gamma", "inf"), "gamma must be finite"),
            # a sweep over one non-finite point is refused before any row
            (("sweep", "--t", "nan"), "t must be finite"),
            (("sweep", "--t", "inf"), "t must be finite"),
            (("sweep", "--t", "4", "--gamma", "nan"), "gamma must be finite"),
            (("sweep", "--t", "4", "--gamma", "inf", "--format", "csv"), "gamma must be finite"),
        ],
    )
    def test_non_finite_input_rejected(self, args, message):
        r = run(*args)
        assert r.returncode == 1
        assert r.stdout == ""
        assert message in r.stderr

    def test_unconverged_exit_code(self):
        r = run("eval", "--t", "3", "--n-max", "50")
        assert r.returncode == 2
        (rec,) = json_lines(r.stdout)
        assert rec["converged"] is False

    def test_l_max_cut_prints_null_estimate(self):
        r = run("eval", "--t", "9.01", "--gamma", "7", "--lmn", "2", "1", "1",
                "--method", "series6", "--l-max", "50")
        assert r.returncode == 2
        (rec,) = json_lines(r.stdout)
        assert rec["abs_error_estimate"] is None
        assert rec["converged"] is False

    def test_transformed_value_exits_unconverged(self):
        r = run("eval", "--t", "3.001", "--lmn", "2", "2", "0", "--accel", "wynn", "--tol", "1e-7")
        assert r.returncode == 2
        (rec,) = json_lines(r.stdout)
        assert rec["accel"] == "wynn"
        assert rec["converged"] is False

    def test_accel_echoes_effective_choice(self):
        r = run("eval", "--t", "3", "--accel", "wynn")
        assert r.returncode == 2
        (rec,) = json_lines(r.stdout)
        assert rec["accel"] == "wynn"
        assert rec["abs_error_estimate"] < 1e-4

    def test_quadrature_method(self):
        r = run("eval", "--t", "4", "--method", "quadrature")
        assert r.returncode == 0
        (rec,) = json_lines(r.stdout)
        assert rec["method"] == "quadrature"
        s = run("eval", "--t", "4")
        (ref,) = json_lines(s.stdout)
        assert abs(rec["value"] - ref["value"]) < 1e-8

    def test_quadrature_far_axis_site_converges(self):
        # the trapezoid grid resolves cos(12x), so its estimate is honest
        r = run("eval", "--t", "4", "--lmn", "12", "0", "0", "--method", "quadrature")
        assert r.returncode == 0
        (rec,) = json_lines(r.stdout)
        assert rec["converged"] is True

    @pytest.mark.parametrize(
        "t, l, reference",
        # the Gauss-Legendre corner rule at 32 nodes on 6 cells per axis
        # and 30 dyadic shells, which a run at 40 nodes on 8 cells and 34
        # shells meets within 1.2e-16
        [("3", "24", 0.0066300111060372735), ("3.01", "40", 7.278643276239724e-05)],
    )
    def test_quadrature_far_site_near_edge_converges(self, t, l, reference):
        r = run("eval", "--t", t, "--lmn", l, "0", "0", "--method", "quadrature")
        assert r.returncode == 0
        (rec,) = json_lines(r.stdout)
        assert rec["converged"] is True
        assert abs(rec["value"] - reference) <= rec["abs_error_estimate"]

    @pytest.mark.parametrize("method", ["series5", "series6"])
    def test_far_site_needs_no_deep_table(self, method):
        # every J_p(20000) with p <= the series depth is a selection-rule
        # zero, so no table column is built for the site
        r = run("eval", "--t", "4", "--lmn", "0", "0", "20000", "--method", method, timeout=20)
        assert r.returncode == 2
        (rec,) = json_lines(r.stdout)
        assert rec["value"] == 0.0
        assert rec["abs_error_estimate"] is None

    def test_bad_method(self):
        r = run("eval", "--t", "4", "--method", "series7")
        assert r.returncode == 1
        assert "series7" in r.stderr

    def test_missing_subcommand(self):
        r = run()
        assert r.returncode == 1

    def test_unknown_flag(self):
        r = run("eval", "--t", "4", "--frobnicate")
        assert r.returncode == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("eval", "--t", "4", "--method", "quadrature", "--n-max", "-5"),
            ("eval", "--t", "4", "--method", "series5", "--l-max", "0"),
            ("eval", "--t", "4", "--method", "series6", "--l-max", "0"),
            ("compare", "--t", "4", "--method", "series5,quadrature", "--l-max", "5000"),
            ("sweep", "--t", "4:5:0.5", "--method", "quadrature", "--n-max", "1001"),
            ("convergence", "--t", "4", "--l-max", "-1"),
        ],
    )
    def test_order_limits_checked_for_every_method(self, args):
        # --n-max and --l-max lie in [1, 1000] whether or not the method reads them
        r = run(*args)
        assert r.returncode == 1
        assert r.stdout == ""
        assert "must lie in [1, 1000]" in r.stderr

    def test_order_limits_at_the_cap_accepted(self):
        r = run("eval", "--t", "4", "--method", "quadrature", "--n-max", "1000", "--l-max", "1")
        assert r.returncode == 0

    def test_range_rejected_outside_sweep(self):
        r = run("eval", "--t", "3.5:10:0.5")
        assert r.returncode == 1
        assert "sweep" in r.stderr

    def test_out_file(self, tmp_path):
        target = tmp_path / "result.json"
        r = run("eval", "--t", "4", "--out", str(target))
        assert r.returncode == 0
        assert r.stdout == ""
        (rec,) = json_lines(target.read_text())
        assert list(rec) == EVAL_KEYS


class TestSweep:
    def test_csv_grid(self):
        r = run("sweep", "--t", "3.5:10:0.5", "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 14
        values = [float(line.split(",")[6]) for line in lines[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_empty_range(self):
        r = run("sweep", "--t", "5:4:1")
        assert r.returncode == 1

    @pytest.mark.parametrize("spec", ["0:1e308:1e-308", "3:4:1e-300"])
    def test_unbounded_point_count_rejected(self, spec):
        # an infinite or astronomically large count is refused before any point is built
        r = run("sweep", "--t", spec, preexec_fn=cap_address_space)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error:")
        assert "more than 1000000 points" in r.stderr

    def test_gamma_range(self):
        r = run("sweep", "--t", "4", "--gamma", "0.5:1.5:0.5", "--format", "csv")
        assert r.returncode == 0
        assert len(r.stdout.splitlines()) == 1 + 3

    def test_domain_error_recorded_in_row(self):
        # gamma = 2 pushes the band edge above t = 3.5; that row must carry
        # the failure instead of killing the run
        r = run("sweep", "--t", "3.5", "--gamma", "0.5:2:0.75", "--format", "csv")
        assert r.returncode == 2
        lines = r.stdout.splitlines()
        assert len(lines) == 1 + 3
        good = [l for l in lines[1:] if l.split(",")[6]]
        bad = [l for l in lines[1:] if not l.split(",")[6]]
        assert len(good) == 2 and len(bad) == 1
        fields = bad[0].split(",")
        assert "t >= 2+gamma" in fields[7]
        assert fields[8] == "0"
        assert fields[9] == "false"

    def test_two_method_columns(self):
        r = run(
            "sweep", "--t", "4:5:1", "--method", "series5,series6", "--format", "csv"
        )
        assert r.returncode == 0
        header = r.stdout.splitlines()[0]
        assert header == (
            "t,gamma,l,m,n,"
            "value_series5,error_series5,terms_series5,converged_series5,"
            "value_series6,error_series6,terms_series6,converged_series6"
        )
        assert len(r.stdout.splitlines()) == 1 + 2

    def test_json_format(self):
        r = run("sweep", "--t", "4:5:1")
        recs = json_lines(r.stdout)
        assert len(recs) == 2
        assert recs[0]["t"] == 4.0


class TestCompare:
    def test_diff_rows(self):
        r = run("compare", "--t", "4")
        assert r.returncode == 0
        recs = json_lines(r.stdout)
        methods = [rec["method"] for rec in recs]
        assert methods == ["series5", "series6", "diff:series5-series6"]
        diff = recs[-1]
        assert abs(diff["value"]) < 1e-9
        assert diff["terms_used"] is None
        assert diff["converged"] is True
        assert "wall_time_ms" not in recs[0]

    def test_three_way(self):
        r = run("compare", "--t", "4", "--method", "series5,series6,quadrature")
        recs = json_lines(r.stdout)
        assert len(recs) == 3 + 3
        names = {rec["method"] for rec in recs}
        assert "diff:series5-quadrature" in names
        assert "diff:series6-quadrature" in names

    def test_single_method_rejected(self):
        r = run("compare", "--t", "4", "--method", "series5")
        assert r.returncode == 1


class TestConvergence:
    def test_row_count(self):
        # 30 terms at t = 5 leave the tail above the default tolerance, so
        # the full row budget is emitted and the exit code reports that
        r = run("convergence", "--t", "5", "--n-max", "30", "--format", "csv")
        assert r.returncode == 2
        lines = r.stdout.splitlines()
        assert lines[0] == "i,term,partial_sum,tail_bound,accelerated_estimate"
        assert len(lines) == 1 + 30

    def test_ratio_roughly_settles(self):
        r = run("convergence", "--t", "5", "--n-max", "40")
        recs = json_lines(r.stdout)
        terms = [rec["term"] for rec in recs]
        ratio = terms[26] / terms[25]
        assert 0.5 < ratio < 0.65

    def test_huge_t_single_row(self):
        r = run("convergence", "--t", "1e6", "--tol", "1e-9")
        assert r.returncode == 0
        recs = json_lines(r.stdout)
        assert recs[0]["i"] == 0
        assert recs[0]["tail_bound"] <= 1e-9

    def test_quadrature_rejected(self):
        r = run("convergence", "--t", "4", "--method", "quadrature")
        assert r.returncode == 1
        assert "series" in r.stderr

    def test_unconverged_exit(self):
        r = run("convergence", "--t", "3", "--n-max", "30")
        assert r.returncode == 2

    def test_exit_code_matches_eval(self):
        # --l-max 20 leaves the inner sums open: the outer tail bound meets
        # the tolerance, but the evaluation of the same scan is unconverged
        point = ["--t", "3.5", "--lmn", "2", "1", "1", "--method", "series6", "--l-max", "20"]
        assert run("eval", *point).returncode == 2
        assert run("convergence", *point).returncode == 2

    def test_series6_rows_end_on_eval_value(self):
        # --l-max 20 stops inner sums that would run on at t = 3.01
        point = ["--t", "3.01", "--lmn", "2", "1", "1", "--method", "series6",
                 "--n-max", "60", "--l-max", "20"]
        rows = json_lines(run("convergence", *point).stdout)
        value = json_lines(run("eval", *point).stdout)[0]["value"]
        assert rows[-1]["partial_sum"] == value


class TestDeterminism:
    def test_sweep_bytes(self):
        a = run("sweep", "--t", "3.5:5:0.5", "--format", "csv")
        b = run("sweep", "--t", "3.5:5:0.5", "--format", "csv")
        assert a.stdout == b.stdout

    def test_convergence_bytes(self):
        a = run("convergence", "--t", "3", "--n-max", "60", "--accel", "wynn")
        b = run("convergence", "--t", "3", "--n-max", "60", "--accel", "wynn")
        assert a.stdout == b.stdout

    def test_compare_bytes(self):
        a = run("compare", "--t", "4", "--method", "series5,series6,quadrature")
        b = run("compare", "--t", "4", "--method", "series5,series6,quadrature")
        assert a.stdout == b.stdout

    def test_eval_stable_apart_from_timing(self):
        a = json_lines(run("eval", "--t", "4").stdout)[0]
        b = json_lines(run("eval", "--t", "4").stdout)[0]
        a.pop("wall_time_ms")
        b.pop("wall_time_ms")
        assert a == b

    @pytest.mark.parametrize(
        "args",
        [
            ("compare", "--t", "3.01", "--lmn", "2", "1", "1", "--method",
             "series5,series6,quadrature", "--n-max", "1000"),
            ("eval", "--t", "3", "--method", "quadrature"),
        ],
    )
    def test_bytes_independent_of_blas_threads(self, args):
        # the series5 moments and the quadrature's contractions go through BLAS
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            records = json_lines(run(*args, env=env).stdout)
            for record in records:
                record.pop("wall_time_ms", None)
            outputs.append(records)
        assert outputs[0] and outputs[0] == outputs[1]


class TestOutPath:
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out_is_an_error(self, tmp_path, where):
        # a path in a missing directory, or a directory itself, gives
        # exit 1 and one error line where it used to give a traceback
        out = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
        r = run("eval", "--t", "4", "--out", str(out))
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr
        assert r.stdout == ""


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 4\nlmn = 2 0 0\nformat = csv\n")
        r = run("sweep", "--config", str(cfg))
        assert r.returncode == 0
        line = r.stdout.splitlines()[1]
        assert line.startswith("4.0,1.0,2,0,0,")

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# site and t come from here\nt = 4\nlmn = 2 0 0\n")
        r = run("eval", "--config", str(cfg), "--t", "5")
        (rec,) = json_lines(r.stdout)
        assert rec["t"] == 5.0
        assert rec["l"] == 2

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("temperature = 4\n")
        r = run("eval", "--config", str(cfg))
        assert r.returncode == 1
        assert "temperature" in r.stderr
