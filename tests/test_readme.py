"""Every command of README's CLI block runs and exits as documented: 0, and 2
for ``conditions``, whose example parameters fail a condition on purpose.
The restrain line's certificate keeps its condition log and reports the
horizon it covers, the criterion 11 regime keeps failing at (B_1), the
pendulum study command given in prose builds the study's config, and the
Layout table lists every module of the package."""

import math
import re
import shlex
from pathlib import Path

import pytest

from driftbench import experiments
from driftbench.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _cli_lines() -> list[str]:
    text = README.read_text()
    block = text[text.index("## CLI"):].split("```")[1]
    return [ln for ln in block.splitlines() if ln.strip()]


def test_cli_block_has_every_command():
    commands = [shlex.split(ln)[1] for ln in _cli_lines()]
    assert commands == ["exponents", "approx", "morse-check", "normalform",
                        "drift", "restrain", "conditions", "scaling"]


@pytest.mark.parametrize("line", _cli_lines(), ids=lambda ln: shlex.split(ln)[1])
def test_cli_line_exit_code(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line)
    assert argv[0] == "driftbench"
    monkeypatch.chdir(tmp_path)   # the --out files land in tmp_path
    code = main(argv[1:])
    out = capsys.readouterr()
    assert code == (2 if argv[1] == "conditions" else 0), out


# the README restrain certificate's condition log as ([flag], name), in log
# order; lhs and rhs are left out, so numeric changes elsewhere do not move it
README_RESTRAIN_CONDITIONS = [
    ("ok", "(x) mu_0 << gamma"),
    ("ok", "(xi) mu_0 << 1"),
    ("ok", "(n+1)^2 mu_0 < R/2"),
    ("ok", "(C_0) c_0 << gamma L_0^-tau"),
    ("ok", "(C_0) |I^0(t) - I^0(t_0)| < mu_0"),
    ("ok", "(B_1) |grad h - w_1| < mu_1"),
    ("ok", "(B_1) T mu << 1"),
    ("ok", "(B_1) m T mu << 1"),
    ("ok", "(B_1) mu << 1"),
    ("ok", "(B_1) eps < mu^2"),
    ("ok", "nesting 2 mu_1 <= mu_0"),
    ("ok", "(C_1) c_1 << gamma L_1^-tau"),
    ("ok", "(C_1) |I^1(t) - I^1(t_1)| < mu_1"),
    ("VIOLATED", "guard (iv, info) mu_2 << c_1^2tau"),
    ("ok", "(B_2) |grad h - w_2| < mu_2"),
    ("ok", "(B_2) T mu << 1"),
    ("ok", "(B_2) m T mu << 1"),
    ("ok", "(B_2) mu << 1"),
    ("ok", "(B_2) eps < mu^2"),
    ("ok", "nesting 2 mu_2 <= mu_1"),
    ("ok", "(B_2) |w_2 - w_1| << mu_1"),
    ("ok", "(C_2) |I^2(t) - I^2(t_2)| < mu_2"),
]


def test_restrain_line_condition_log(tmp_path, monkeypatch, capsys):
    line = next(ln for ln in _cli_lines() if shlex.split(ln)[1] == "restrain")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:] + ["--out", "cert.txt"]) == 0
    rows = (tmp_path / "cert.txt").read_text().split("conditions:\n")[1].splitlines()
    assert [re.fullmatch(r"  \[(\w+)\] (.*): lhs=.*", r).groups()
            for r in rows] == README_RESTRAIN_CONDITIONS


def test_restrain_line_reports_the_covered_horizon(tmp_path, monkeypatch, capsys):
    # tau_m = e, but the trajectory's last sample is at 2.7: the ladder
    # certifies up to that sample, and the output says so
    line = next(ln for ln in _cli_lines() if shlex.split(ln)[1] == "restrain")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:] + ["--out", "cert.txt"]) == 0
    assert "  horizon=2.7 (tau_m=2.71828)\n" in capsys.readouterr().out
    row = next(r for r in (tmp_path / "cert.txt").read_text().splitlines()
               if r.startswith("horizon "))
    _, horizon, _, tau_m, _, m = row.split()
    assert float(horizon) == pytest.approx(2.7, abs=1e-12)
    assert float(tau_m) == pytest.approx(math.e) and m == "1"


def test_pendulum_study_command_builds_the_study_config(tmp_path, monkeypatch):
    # the scaling study that README gives in prose: the pendulum ladder with
    # sqrt(eps) thresholds, written out field by field
    line = re.search(r"`(driftbench scaling [^`\n]+)`", README.read_text()).group(1)
    seen = {}

    def fake_run_scaling(cfg, out, resume):
        seen["cfg"] = cfg
        return [], experiments.FitSummary("empty", math.nan, math.nan, math.nan, 0)

    monkeypatch.setattr(experiments, "run_scaling", fake_run_scaling)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    study = experiments.ExperimentConfig(
        system="pendulum", eps_ladder=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4), num_ic=8,
        seed=11, step=0.005, sample_stride=20, m_multiplier=6.0, t_cap=400.0,
        threshold_mode="sqrt", threshold_scale=0.5,
    )
    assert seen["cfg"] == study and repr(seen["cfg"]) == repr(study)


def test_layout_table_lists_every_module():
    text = README.read_text()
    table = text[text.index("## Layout"):text.index("\n\n", text.index("| module"))]
    listed = re.findall(r"^\| `driftbench\.(\w+)` \|", table, re.M)
    modules = sorted(p.stem for p in (ROOT / "src" / "driftbench").glob("*.py"))
    assert sorted(listed) == [m for m in modules if m != "__init__"]


def test_criterion_11_regime_fails_at_b1(capsys):
    # the c11 settings of the drift_series_eval benchmark (--m-multiplier 10
    # gives its m = 10 at eps = 1e-4) from one seeded start
    code = main(["restrain", "--system", "quasiconvex", "--eps", "1e-4", "--seed", "4",
                 "--mu0", "0.045", "--m-multiplier", "10", "--t-cap", "2000",
                 "--step", "0.05", "--stride", "40",
                 "--multipliers", "c_mu=1.2,smallness=3,length=4"])
    assert code == 2
    assert capsys.readouterr().out.startswith(
        "NOT RESTRAINED: stage j=0: (B_1) m T mu << 1 -- ")
