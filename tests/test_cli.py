import math
import re

import pytest

from driftbench import experiments

from driftbench.cli import main, read_config_file
from driftbench.diophantine import DirichletScan
from driftbench.experiments import data_section
from driftbench.series import (
    Domain, FiniteDiff, FourierTaylorSeries, Gevrey, load_series, save_series,
    split_by_modes,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _quasi_convex_series(center=None, R=1.0):
    d = Domain(2, R)
    return (FourierTaylorSeries.monomial(d, (2, 0), 0.5, 1, 2, center)
            + FourierTaylorSeries.monomial(d, (0, 2), 0.5, 1, 2, center)
            + FourierTaylorSeries.cosine(d, (1, 1), 1e-4, 1, 2, center))


def _off_center_series_file(tmp_path):
    """|I - c|^2/2 + 1e-4 cos(2 pi (theta_1 + theta_2)) at c = (3, -1.5),
    R = 0.5, far from the origin."""
    path = tmp_path / "off.series"
    save_series(path, _quasi_convex_series((3.0, -1.5), 0.5), Gevrey(1.0, 0.5))
    return path


class TestExponents:
    def test_prints_exact_rationals(self, capsys):
        code, out, _ = run(capsys, "exponents", "--n", "2", "--tau", "2")
        assert code == 0
        assert "1/432" in out and "1/144" in out and "1/12" in out

    def test_decimal_alongside(self, capsys):
        _, out, _ = run(capsys, "exponents", "--n", "2", "--tau", "2")
        assert "0.002314814815" in out


class TestApprox:
    def test_sqrt2_example(self, capsys):
        code, out, _ = run(capsys, "approx", "--v", "1,0.41421356", "--Q", "10")
        assert code == 0
        assert "(1, 2/5)" in out
        assert "T = 5" in out

    def test_margins_printed(self, capsys):
        _, out, _ = run(capsys, "approx", "--v", "1,0.41421356", "--Q", "10")
        assert "error_margin" in out and "period_upper_margin" in out

    def test_stops_at_the_first_feasible_shell(self, capsys, monkeypatch):
        # T = 1000 sits in shell 737 of 1,000,000: no later shell is read
        shells = []
        roundings = DirichletScan.roundings
        monkeypatch.setattr(DirichletScan, "roundings",
                            lambda scan, q: shells.append(q) or roundings(scan, q))
        code, out, _ = run(capsys, "approx", "--v", "0.737,0.191", "--Q", "1000000")
        assert code == 0
        assert "T = 6638305850744111104/6638305850744111 = 1000\n" in out
        assert shells == list(range(1, 738))

    def test_default_cap_beyond_islice_stop(self, capsys):
        code, out, _ = run(capsys, "approx", "--v", "1,0.5", "--Q", "3e18")
        assert code == 0
        assert "omega = (1, 1/2)\n" in out and "T = 2 = 2\n" in out

    def test_subnormal_vector_is_error(self, capsys):
        code, out, err = run(capsys, "approx", "--v", "0,1e-320", "--Q", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: |v| = 1e-320 is too small")

    @pytest.mark.parametrize("v, Q", [
        ("1,0.41421356", "inf"), ("1,inf", "10"), ("1,-inf", "10"), ("nan,1", "10"),
        ("1,0.41421356", "nan"),
    ])
    def test_non_finite_input_is_error(self, capsys, v, Q):
        code, out, err = run(capsys, "approx", "--v", v, "--Q", Q)
        assert code == 1 and out == ""
        assert err.startswith("error: Q and v must be finite")


class TestMorseCheck:
    def test_pass_exit_zero(self, capsys, tmp_path):
        out_csv = tmp_path / "margins.csv"
        code, out, _ = run(
            capsys, "morse-check", "--system", "quasiconvex", "--eps", "1e-4",
            "--gamma", "0.9", "--tau", "2", "--L-max", "2", "--grid", "9",
            "--out", str(out_csv),
        )
        assert code == 0 and "PASS" in out
        assert out_csv.exists()
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("normals,L_min,margin")

    def test_fail_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "morse-check", "--system", "degenerate", "--eps", "1e-4",
            "--gamma", "0.9", "--tau", "2", "--L-max", "2", "--grid", "9",
        )
        assert code == 2 and "FAIL" in out

    def test_degenerate_failures_and_worst_points_pinned(self, capsys):
        # each subspace's basis of Lambda fixes where on the grid its worst
        # point lies; a change of basis must not move these silently
        code, out, _ = run(
            capsys, "morse-check", "--system", "degenerate", "--eps", "1e-4",
            "--gamma", "0.9", "--tau", "2", "--L-max", "3",
        )
        assert code == 2
        assert "subspaces tested per dimension: {1: 8, 2: 1}" in out
        failures = re.findall(r"normals=(\(.*?\)) lattice=.*? at point (\(.*?\)):", out)
        assert failures == [
            ("((1, 0),)", "(0.0, -1.0)"),
            ("()", "(0.0, 0.0)"),
            ("((1, 1),)", "(-0.125, 0.1875)"),
            ("((1, -1),)", "(-0.125, -0.1875)"),
            ("((2, 1),)", "(0.25, 0.375)"),
            ("((2, -1),)", "(0.25, -0.375)"),
            ("((1, 2),)", "(-0.3125, 0.4375)"),
            ("((1, -2),)", "(-0.3125, -0.4375)"),
        ]

    def test_series_quartic_fails_exit_two(self, capsys, tmp_path):
        # I_1^4 + 0.05 I_1^2 + 0.5 I_2^2 has equal Hessians at the two ends
        # of the grid and a degenerate direction on the line I_1 = 0
        d = Domain(2, 1.0)
        path = tmp_path / "quartic.series"
        save_series(path, FourierTaylorSeries.monomial(d, (4, 0), 1.0)
                    + FourierTaylorSeries.monomial(d, (2, 0), 0.05)
                    + FourierTaylorSeries.monomial(d, (0, 2), 0.5), Gevrey(1.0, 0.5))
        code, out, _ = run(capsys, "morse-check", "--series", str(path),
                           "--gamma", "0.9", "--tau", "2")
        assert code == 2
        assert out.count("  FAIL subspace") == 2

    def test_series_off_center_checks_ball_around_its_center(self, capsys, tmp_path):
        # the degenerate toy 1/2 (I1-c1)^2 + (I1-c1)(I2-c2)^2 fails on the
        # same lattices whatever its center c; the worst points move with c
        def toy(c):
            d = Domain(2, 1.0)
            return (FourierTaylorSeries.monomial(d, (2, 0), 0.5, 1, 3, c)
                    + FourierTaylorSeries.monomial(d, (1, 2), 1.0, 1, 3, c)
                    + FourierTaylorSeries.cosine(d, (1, 1), 1e-4, 1, 3, c))

        fails = {}
        for c in ((0.0, 0.0), (3.0, -1.5)):
            path = tmp_path / f"toy{c}.series"
            save_series(path, toy(c), Gevrey(1.0, 0.5))
            code, out, _ = run(capsys, "morse-check", "--series", str(path), "--gamma",
                               "0.9", "--tau", "2", "--L-max", "2", "--grid", "9")
            assert code == 2 and "morse-check: FAIL" in out
            fails[c] = [
                (lattice, tuple(float(x) - ci for x, ci in zip(point.split(","), c)), rest)
                for lattice, point, rest in re.findall(
                    r"lattice=(.*) at point \((.*)\): (.*)", out)
            ]
        assert len(fails[(0.0, 0.0)]) == 4
        assert fails[(3.0, -1.5)] == fails[(0.0, 0.0)]

    @pytest.mark.parametrize("flag, value", [
        ("--tau", "nan"), ("--tau", "inf"), ("--gamma", "nan"), ("--gamma", "inf"),
    ])
    def test_non_finite_gamma_or_tau_is_error(self, capsys, flag, value):
        opts = {"--gamma": "0.9", "--tau": "2", flag: value}
        code, out, err = run(
            capsys, "morse-check", "--system", "degenerate", "--eps", "1e-4",
            "--L-max", "2", "--grid", "9", *[x for kv in opts.items() for x in kv],
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and flag[2:] in err

    @pytest.mark.parametrize("grid", ["1", "2"])
    def test_grid_without_ball_points_is_error(self, capsys, grid):
        code, out, err = run(
            capsys, "morse-check", "--system", "quasiconvex", "--eps", "1e-4",
            "--gamma", "0.9", "--tau", "2", "--grid", grid,
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: grid_res={grid} ")


class TestDrift:
    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "drift", "--system", "pendulum", "--eps", "1e-3",
                "--seed", "7", "--threshold", "0.5", "--t-cap", "5",
                "--step", "0.01", "--out", str(path),
            )
            assert code == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
        assert strip(a) == strip(b)

    def test_columns(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        run(capsys, "drift", "--system", "quasiconvex", "--eps", "1e-3",
            "--seed", "1", "--threshold", "0.9", "--t-cap", "2", "--out", str(path))
        header = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][0]
        assert header == "t,theta_1,theta_2,I_1,I_2,H,config_hash"

    def test_series_off_center_starts_inside_its_ball(self, capsys, tmp_path):
        # I0 is drawn in [-R/2, R/2]^n around the center of h, so the
        # trajectory starts inside the ball and is integrated
        traj = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "drift", "--series", str(_off_center_series_file(tmp_path)),
                         "--seed", "1", "--t-cap", "5", "--out", str(traj))
        assert code == 0
        rows = [ln.split(",") for ln in traj.read_text().splitlines()[2:]]
        assert len(rows) > 2
        I0 = (float(rows[0][3]), float(rows[0][4]))
        assert abs(I0[0] - 3.0) <= 0.25 and abs(I0[1] + 1.5) <= 0.25

    @pytest.mark.parametrize("flag, value, name", [
        ("--step", "inf", "step"), ("--step", "nan", "step"),
        ("--t-cap", "inf", "t_max"), ("--t-cap", "nan", "t_max"),
    ])
    def test_non_finite_step_or_cap_is_error(self, capsys, flag, value, name):
        opts = {"--step": "0.01", "--t-cap": "100", flag: value}
        code, out, err = run(
            capsys, "drift", "--system", "pendulum", "--eps", "0.01",
            "--threshold", "0.5", *[x for kv in opts.items() for x in kv],
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and name in err


    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_non_finite_threshold_is_error(self, capsys, value):
        # a NaN threshold was never crossed and printed "sentinel (no crossing)"
        code, out, err = run(
            capsys, "drift", "--system", "pendulum", "--eps", "1e-3", "--seed", "7",
            "--threshold", value, "--t-cap", "50",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "threshold" in err


class TestNormalform:
    def test_runs_and_saves(self, capsys, tmp_path):
        gpath = tmp_path / "g.series"
        code, out, _ = run(
            capsys, "normalform", "--system", "quasiconvex", "--eps", "1e-8",
            "--center", "0.3,-0.3", "--frame", "3/10,-3/10", "--mu", "0.02",
            "--m", "2", "--save-g", str(gpath),
        )
        assert code == 0
        assert "resonant-symmetry check: PASS" in out
        assert gpath.exists()

    def test_epsilon_violation_is_error(self, capsys):
        code, _, err = run(
            capsys, "normalform", "--system", "quasiconvex", "--eps", "1e-2",
            "--center", "0.3,-0.3", "--frame", "3/10,-3/10", "--mu", "0.02",
        )
        assert code == 1
        assert "epsilon" in err

    @pytest.mark.parametrize("center, frame, dims", [
        ("0.3", "3/10,-3/10", "center has dimension 1"),
        ("0.3,-0.3,0.1", "3/10,-3/10", "center has dimension 3"),
        ("0.3,-0.3", "3/10,-3/10,1/10", "periodic vector has dimension 3"),
    ], ids=["short-center", "long-center", "long-frame"])
    def test_dimension_mismatch_is_error(self, capsys, center, frame, dims):
        code, out, err = run(
            capsys, "normalform", "--system", "quasiconvex", "--eps", "1e-8",
            "--center", center, "--frame", frame, "--mu", "0.02",
        )
        assert code == 1 and out == ""
        assert err == f"error: {dims}, the system has dimension 2\n"


class TestRestrain:
    def test_failure_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "restrain", "--system", "quasiconvex", "--eps", "1e-4",
            "--seed", "3", "--mu0", "0.02", "--t-cap", "10",
        )
        assert code == 2
        assert "NOT RESTRAINED" in out

    def test_certificate_written(self, capsys, tmp_path):
        # engineered configuration known to certify (nonresonant gradient)
        path = tmp_path / "cert.txt"
        code, out, _ = run(
            capsys, "restrain", "--system", "quasiconvex", "--eps", "1e-6",
            "--seed", "12", "--mu0", "0.05", "--t-cap", "8",
            "--multipliers", "c_mu=1.2,smallness=3,length=4",
            "--out", str(path),
        )
        if code == 0:
            text = path.read_text()
            assert "restrain certificate" in text
            assert "conditions:" in text
        else:
            assert "NOT RESTRAINED" in out  # honest failure also acceptable

    @pytest.mark.parametrize("flag, value, name", [
        ("--multipliers", "c_mu=1.2,smalness=3,length=4", "'smalness'"),
        ("--multipliers", "c_mu=nan", "c_mu"),
        ("--multipliers", "c_mu=-1.2", "c_mu"),
        ("--multipliers", "smallness=inf", "smallness"),
        ("--multipliers", "length=-4", "length"),
        ("--mu0", "nan", "mu0"),
    ])
    def test_invalid_multiplier_or_mu0_is_error(self, capsys, flag, value, name):
        code, out, err = run(
            capsys, "restrain", "--system", "quasiconvex", "--eps", "1e-6",
            "--seed", "12", "--t-cap", "8", flag, value,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("t_cap", ["0", "-8"], ids=["zero", "backward"])
    def test_degenerate_horizon_is_error(self, capsys, tmp_path, t_cap):
        # a zero or negative cap leaves no forward horizon to certify
        path = tmp_path / "cert.txt"
        code, out, err = run(
            capsys, "restrain", "--system", "quasiconvex", "--eps", "1e-6",
            "--seed", "12", "--mu0", "0.05", "--t-cap", t_cap, "--out", str(path),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "two samples at increasing times" in err
        assert not path.exists()

    def test_non_positive_m_multiplier_is_error(self, capsys, tmp_path):
        # rejected, not clamped to m = 1 (this run would certify at m = 1)
        path = tmp_path / "cert.txt"
        code, out, err = run(
            capsys, "restrain", "--system", "quasiconvex", "--eps", "1e-6",
            "--seed", "12", "--mu0", "0.05", "--t-cap", "8", "--m-multiplier", "-1",
            "--out", str(path),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: m_multiplier must be finite and positive")
        assert not path.exists()

    def test_series_without_eps_uses_perturbation_norm(self, capsys, tmp_path):
        # without --eps the time budget reads epsilon = |f|, as every other
        # --series command does; the run must equal one given that value
        path = tmp_path / "h.series"
        save_series(path, _quasi_convex_series(), Gevrey(1.0, 0.5))
        args = ("restrain", "--series", str(path), "--seed", "3", "--t-cap", "5")
        code, out, err = run(capsys, *args)
        assert code in (0, 2) and "Traceback" not in err
        f_norm = split_by_modes(load_series(path)[0])[1].coefficient_norm()
        assert run(capsys, *args, "--eps", repr(f_norm)) == (code, out, err)

    def test_series_off_center_starts_inside_its_ball(self, capsys, tmp_path):
        # the start is drawn around the center of h: the monitor gets past
        # the domain check and runs its witness search
        code, out, err = run(
            capsys, "restrain", "--series", str(_off_center_series_file(tmp_path)),
            "--seed", "1", "--t-cap", "5", "--mu0", "0.01",
        )
        assert code in (0, 2) and "Traceback" not in err
        assert "left B_R" not in out

    def test_series_with_zero_eps_rejected(self, capsys, tmp_path):
        # an explicit --eps 0 is an error, as with --system; it is not
        # replaced by |f|
        path = tmp_path / "h.series"
        save_series(path, _quasi_convex_series(), Gevrey(1.0, 0.5))
        for source in (("--series", str(path)), ("--system", "quasiconvex")):
            code, out, err = run(capsys, "restrain", *source, "--eps", "0",
                                 "--seed", "3", "--t-cap", "5")
            assert code == 1 and out == ""
            assert err.startswith("error: ") and "Traceback" not in err


class TestConditions:
    def test_exit_codes(self, capsys):
        code, out, _ = run(
            capsys, "conditions", "--n", "2", "--tau", "2", "--gamma", "0.9",
            "--eps", "1e-12", "--m", "1", "--mu0", "1e-2",
            "--mus", "5e-5,3e-5", "--Ts", "2,3", "--Ls", "2,3",
        )
        assert code == 2   # nesting 2 mu_2 <= mu_1 fails at these parameters
        assert "[FAIL] nesting 2 mu_2 <= mu_1" in out
        assert "overall: FAIL" in out

    def test_nan_input_is_error(self, capsys):
        code, out, err = run(
            capsys, "conditions", "--n", "2", "--tau", "2", "--gamma", "0.9",
            "--eps", "1e-12", "--m", "1", "--mu0", "1e-2",
            "--mus", "5e-5,nan", "--Ts", "2,3", "--Ls", "2,3",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: mus must be finite")

    @pytest.mark.parametrize("name, value", [
        ("Ls", "0,3"), ("Ts", "-2,3"), ("eps", "-1e-12"), ("gamma", "0"),
        ("mu0", "-1e-2"), ("mus", "5e-5,0"), ("m", "-1"),
    ])
    def test_non_positive_input_is_error(self, capsys, name, value):
        # each is rejected before a row prints, not by a ZeroDivisionError
        # or a math domain error partway through the table
        args = {"n": "2", "tau": "2", "gamma": "0.9", "eps": "1e-12", "m": "1",
                "mu0": "1e-2", "mus": "5e-5,2e-5", "Ts": "2,3", "Ls": "2,3", name: value}
        code, out, err = run(capsys, "conditions", *(f"--{k}={v}" for k, v in args.items()))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name} must be finite and positive")

    def test_overflowing_term_is_error(self, capsys):
        # (T_1 mu_1 / L_1)^tau at T_1 = 1e300 overflows a float: an error
        # line before any row, not an OverflowError traceback
        code, out, err = run(
            capsys, "conditions", "--n", "2", "--tau", "2", "--gamma", "0.9",
            "--eps", "1e-12", "--m", "1", "--mu0", "1e-2",
            "--mus", "5e-5,2e-5", "--Ts", "1e300,3", "--Ls", "2,3",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: a condition term overflows a float")


MULTIPLIER_ERRORS = [
    ("bogus=1", "unknown multiplier 'bogus'"),
    ("smallness=-1", "multiplier smallness must be finite and positive"),
    ("c_mu", "malformed multiplier 'c_mu'"),
    ("c_mu=abc", "malformed multiplier 'c_mu=abc'"),
    ("c_mu=1.2,", "malformed multiplier ''"),
    ("smallness=2,smallness=3", "multiplier 'smallness' given twice"),
]


@pytest.mark.parametrize("command", [
    ("restrain", "--system", "quasiconvex", "--eps", "1e-6", "--seed", "12", "--t-cap", "8"),
    ("conditions", "--n", "2", "--tau", "2", "--gamma", "0.9", "--eps", "1e-12", "--m", "1",
     "--mu0", "1e-2", "--mus", "5e-5,2e-5", "--Ts", "2,3", "--Ls", "2,3"),
], ids=["restrain", "conditions"])
@pytest.mark.parametrize("text, message", MULTIPLIER_ERRORS,
                         ids=[t for t, _ in MULTIPLIER_ERRORS])
def test_multipliers_error_names_the_item(capsys, command, text, message):
    # restrain and conditions read one syntax, checked by one validator
    code, out, err = run(capsys, *command, "--multipliers", text)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("text", ["bogus=1", "smallness=-1", "c_mu"])
def test_restrain_checks_multipliers_before_integrating(capsys, monkeypatch, text):
    # a long run used to integrate in full before its multipliers were read
    import driftbench.cli as cli

    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *a, **kw: calls.append(a))
    code, out, _ = run(capsys, "restrain", "--system", "quasiconvex", "--eps", "1e-6",
                       "--m-multiplier", "9", "--t-cap", "5000", "--step", "0.005",
                       "--multipliers", text)
    assert code == 1 and out == "" and calls == []


class TestScaling:
    ARGS = [
        "scaling", "--system", "pendulum", "--eps-ladder", "1e-2,1e-3",
        "--num-ic", "2", "--seed", "5", "--step", "0.01", "--stride", "10",
        "--t-cap", "10", "--threshold-mode", "sqrt", "--threshold-scale", "2.0",
    ]

    def test_byte_identical_data_sections(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, *self.ARGS, "--out", str(path))
            assert code == 0
        assert data_section(a) == data_section(b)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_threshold_scale_is_error(self, capsys, tmp_path, value):
        args = [x if x != "2.0" else value for x in self.ARGS]
        path = tmp_path / "s.csv"
        code, _, err = run(capsys, *args, "--out", str(path))
        assert code == 1 and err.startswith("error:") and "threshold_scale" in err
        assert not path.exists()

    def test_negative_t_cap_is_error(self, capsys, tmp_path):
        # a negative cap would run every row backward
        args = list(self.ARGS)
        args[args.index("--t-cap") + 1] = "-10"
        path = tmp_path / "s.csv"
        code, out, err = run(capsys, *args, "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: t_cap must be finite and positive")
        assert not path.exists()

    def test_non_positive_m_multiplier_is_error(self, capsys, tmp_path):
        # rejected before any row runs or any line is written
        path = tmp_path / "s.csv"
        code, out, err = run(capsys, *self.ARGS, "--m-multiplier", "0", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: m_multiplier must be finite and positive")
        assert not path.exists()

    def test_resume_skips_finished_rows(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        run(capsys, *self.ARGS, "--out", str(path))
        before = data_section(path)
        code, out, _ = run(capsys, *self.ARGS, "--out", str(path))
        assert code == 0
        # the finished rows are read back, not run again: the report covers
        # the whole ladder and the data section gains no row
        assert "scaling: 4 rows" in out
        assert data_section(path) == before

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "system = pendulum\n"
            "eps_ladder = 1e-2\n"
            "num_ic = 1\n"
            "seed = 3\n"
            "step = 0.01\n"
            "t_cap = 5  # short\n"
            "threshold_mode = sqrt\n"
        )
        path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "scaling", "--config", str(cfg), "--no-resume",
                         "--out", str(path))
        assert code == 0
        assert path.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--eps-ladder", ",", "eps_ladder"), ("--num-ic", "0", "num_ic"),
    ])
    def test_empty_ladder_or_no_ic_is_error(self, capsys, tmp_path, flag, value, field):
        args = list(self.ARGS)
        args[args.index(flag) + 1] = value
        path = tmp_path / "e.csv"
        code, out, err = run(capsys, *args, "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and field in err
        assert not path.exists()

    def test_config_values_cast_by_field_type(self, capsys, tmp_path, monkeypatch):
        seen = {}

        def fake_run_scaling(cfg, out, resume):
            seen["cfg"] = cfg
            return [], experiments.FitSummary("empty", math.nan, math.nan, math.nan, 0)

        monkeypatch.setattr(experiments, "run_scaling", fake_run_scaling)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("system = pendulum\neps_ladder = 1e-2, 1e-3\nnum_ic = 3\n"
                       "t_cap = 5\nrun_restrain = Yes\nthreshold_mode = sqrt\n")
        code, _, _ = run(capsys, "scaling", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert seen["cfg"] == experiments.ExperimentConfig(
            system="pendulum", eps_ladder=(1e-2, 1e-3), num_ic=3, t_cap=5.0,
            run_restrain=True, threshold_mode="sqrt",
        )
        assert type(seen["cfg"].num_ic) is int and type(seen["cfg"].t_cap) is float

    @pytest.mark.parametrize("flag", [
        ("--seed", "99"), ("--seed", "0"), ("--num-ic", "3"), ("--run-restrain",),
        ("--threshold-mode", "theorem"), ("--eps-ladder", "1e-2,1e-3"), ("--stride", "20"),
    ], ids=["seed", "seed_default", "num_ic", "run_restrain", "mode_default", "ladder_default",
            "stride_default"])
    def test_scaling_flag_next_to_config_is_error(self, capsys, tmp_path, flag):
        # the config file sets the whole run, so a flag beside it, whatever
        # its value, would be dropped; --out and --no-resume stay allowed
        cfg = tmp_path / "c.cfg"
        cfg.write_text("system = pendulum\neps_ladder = 1e-2\nnum_ic = 1\nt_cap = 5\n")
        path = tmp_path / "a.csv"
        code, out, err = run(capsys, "scaling", "--config", str(cfg), *flag, "--no-resume",
                             "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and flag[0] in err
        assert not path.exists()

    def test_flag_defaults(self, capsys, tmp_path, monkeypatch):
        seen = {}

        def fake_run_scaling(cfg, out, resume):
            seen["cfg"] = cfg
            return [], experiments.FitSummary("empty", math.nan, math.nan, math.nan, 0)

        monkeypatch.setattr(experiments, "run_scaling", fake_run_scaling)
        code, _, _ = run(capsys, "scaling", "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert seen["cfg"] == experiments.ExperimentConfig(
            system="quasiconvex", eps_ladder=(1e-2, 1e-3), num_ic=2, seed=0, step=0.05,
            sample_stride=20, m_multiplier=1.0, t_cap=100.0, threshold_mode="theorem",
            threshold_scale=1.0, run_restrain=False,
        )

    def test_config_file_missing_keys_take_flag_defaults(self, capsys, tmp_path, monkeypatch):
        # one table of defaults: a file that sets only the system runs what
        # the flags run with only --system
        seen = []

        def fake_run_scaling(cfg, out, resume):
            seen.append(cfg)
            return [], experiments.FitSummary("empty", math.nan, math.nan, math.nan, 0)

        monkeypatch.setattr(experiments, "run_scaling", fake_run_scaling)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("system = pendulum\n")
        out = str(tmp_path / "x.csv")
        assert run(capsys, "scaling", "--config", str(cfg), "--out", out)[0] == 0
        assert run(capsys, "scaling", "--system", "pendulum", "--out", out)[0] == 0
        assert seen[0] == seen[1] == experiments.ExperimentConfig(system="pendulum")
        assert (seen[0].eps_ladder, seen[0].num_ic, seen[0].t_cap) == ((1e-2, 1e-3), 2, 100.0)

    def test_system_kwargs_config_key_is_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("system_kwargs = 1\n")
        code, _, err = run(capsys, "scaling", "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1 and "system_kwargs" in err

    def test_workers_flag_is_gone(self, capsys, tmp_path):
        # rows run in this process only, so there is no worker count to set
        path = tmp_path / "s.csv"
        code, out, err = run(capsys, *self.ARGS, "--workers", "2", "--out", str(path))
        assert code == 1 and out == ""
        assert "unrecognized arguments: --workers 2" in err
        assert not path.exists()

    def test_unknown_config_key_is_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "scaling", "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1 and "bogus" in err


class TestErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "exponents", "--n", "2", "--tau", "2", "--bogus")
        assert code == 1

    def test_missing_series_file(self, capsys):
        code, _, err = run(
            capsys, "morse-check", "--series", "/does/not/exist",
            "--gamma", "0.9", "--tau", "2",
        )
        assert code == 1

    @pytest.mark.parametrize("command", [
        ("morse-check", "--gamma", "0.9", "--tau", "2"),
        ("drift", "--t-cap", "1"),
    ])
    @pytest.mark.parametrize("text", ["", "ft-series 1\nn 2\n"], ids=["empty", "no-coeffs"])
    def test_malformed_series_file_is_error(self, capsys, tmp_path, command, text):
        path = tmp_path / "bad.series"
        path.write_text(text)
        code, out, err = run(capsys, command[0], "--series", str(path), *command[1:])
        assert code == 1 and out == ""
        assert err.startswith(f"error: series file {path}, line ")

    @pytest.mark.parametrize("argv", [
        ("exponents", "--n", "2", "--tau", "1"),
        ("restrain", "--system", "quasiconvex", "--eps", "1e-4", "--tau", "1.5",
         "--t-cap", "5"),
        ("restrain", "--system", "quasiconvex", "--eps", "1e-4", "--tau", "inf",
         "--t-cap", "5"),
        ("conditions", "--n", "2", "--tau", "1", "--gamma", "0.9", "--eps", "1e-12",
         "--m", "1", "--mu0", "1e-2", "--mus", "5e-5,2e-5", "--Ts", "2,3", "--Ls", "2,3"),
    ], ids=["exponents", "restrain", "restrain-inf", "conditions"])
    def test_tau_below_two_is_error(self, capsys, argv):
        # tau < 2 is rejected, never raised to 2 behind the user's back
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: tau must be") and "Traceback" not in err

    @pytest.mark.parametrize("tau", ["1.5", "inf"])
    def test_scaling_config_tau_below_two_is_error(self, capsys, tmp_path, tau):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"system = pendulum\neps_ladder = 1e-2\nnum_ic = 1\ntau = {tau}\n")
        path = tmp_path / "s.csv"
        code, out, err = run(capsys, "scaling", "--config", str(cfg), "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: tau must be finite and >= 2")
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ("normalform", "--series", "F", "--frame", "3/10,-3/10", "--mu", "0.02",
         "--center", "0.3,-0.3", "--m", "2"),
        ("restrain", "--series", "F", "--eps", "1e-6", "--mu0", "0.05", "--t-cap", "8",
         "--m-multiplier", "2"),
        ("restrain", "--system", "quasiconvex", "--eps", "1e-6", "--mu0", "0.05",
         "--t-cap", "8", "--m-multiplier", "1000"),
    ], ids=["normalform-ck", "restrain-ck", "restrain-gevrey"])
    def test_tau_m_overflow_is_error(self, capsys, tmp_path, argv):
        # F is tagged C^k with k* = 1100, so tau_m = m^1100 overflows at m = 2;
        # the Gevrey tau_m = exp(m) overflows at the m that 1000 x eps^-a gives
        path = tmp_path / "F.series"
        save_series(path, _quasi_convex_series(), FiniteDiff(2201, 1100))
        code, out, err = run(capsys, *(str(path) if a == "F" else a for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: tau_m overflows a float at m=")

    def test_series_input_accepted(self, capsys, tmp_path):
        path = tmp_path / "h.series"
        save_series(path, _quasi_convex_series(), Gevrey(1.0, 0.5))
        code, out, _ = run(
            capsys, "morse-check", "--series", str(path),
            "--gamma", "0.9", "--tau", "2", "--L-max", "2", "--grid", "9",
        )
        assert code == 0 and "PASS" in out


def test_read_config_file_roundtrip(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a = 1\n# comment\nb = two words\n")
    assert read_config_file(p) == {"a": "1", "b": "two words"}
