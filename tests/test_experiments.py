import math

import numpy as np
import pytest

from driftbench import experiments
from driftbench.experiments import (
    ExperimentConfig,
    FitSummary,
    ScalingRecord,
    data_section,
    fit_scaling,
    run_row,
    run_scaling,
)
from driftbench.restrain import exponents
from driftbench.series import FiniteDiff, Gevrey

FAST = dict(
    system="pendulum", eps_ladder=(1e-2, 1e-3), num_ic=2, seed=5,
    step=0.01, sample_stride=10, t_cap=10.0,
    threshold_mode="sqrt", threshold_scale=2.0,
)



def _row_failing_at_third_pair(cfg, ei, ii):
    if (ei, ii) == (1, 0):
        raise RuntimeError("run_row failed at the third pair")
    return run_row(cfg, ei, ii)


class TestRunRow:
    def test_deterministic_records(self):
        cfg = ExperimentConfig(**FAST)
        a = run_row(cfg, 0, 1)
        b = run_row(cfg, 0, 1)
        assert a.csv_row()[:-1] == b.csv_row()[:-1]  # runtime column excluded

    def test_threshold_modes(self):
        sqrt_cfg = ExperimentConfig(**FAST)
        rec = run_row(sqrt_cfg, 1, 0)
        assert rec.threshold == pytest.approx(2.0 * math.sqrt(1e-3))
        theorem_cfg = ExperimentConfig(**{**FAST, "threshold_mode": "theorem"})
        rec2 = run_row(theorem_cfg, 0, 0)
        exps = exponents(1, 2)
        assert rec2.threshold == pytest.approx(
            min(4 * 1e-2 ** float(exps.b), 2.0)
        )

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="threshold_scale"):
            ExperimentConfig(**{**FAST, "threshold_scale": scale})

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**FAST, "eps_ladder": (1e-3, 1e-2)})  # ascending
        with pytest.raises(ValueError):
            ExperimentConfig(**{**FAST, "eps_ladder": (2.0,)})

    def test_empty_ladder_rejected(self):
        # an empty ladder has no epsilon to build the fit's system from
        with pytest.raises(ValueError, match="eps_ladder"):
            ExperimentConfig(**{**FAST, "eps_ladder": ()})

    @pytest.mark.parametrize("num_ic", [0, -1])
    def test_num_ic_must_be_positive(self, num_ic):
        with pytest.raises(ValueError, match="num_ic"):
            ExperimentConfig(**{**FAST, "num_ic": num_ic})

    @pytest.mark.parametrize("tau", [1.5, 0.0, math.nan, math.inf])
    def test_tau_must_be_finite_and_at_least_two(self, tau):
        with pytest.raises(ValueError, match="tau must be finite and >= 2"):
            ExperimentConfig(**{**FAST, "tau": tau})

    @pytest.mark.parametrize("t_cap", [-10.0, 0.0, math.nan, math.inf])
    def test_t_cap_must_be_finite_and_positive(self, t_cap):
        # a row integrates to min(tau_m, t_cap), which must be a forward time
        with pytest.raises(ValueError, match="t_cap must be finite and positive"):
            ExperimentConfig(**{**FAST, "t_cap": t_cap})

    @pytest.mark.parametrize("mult", [-1.0, 0.0, math.nan])
    def test_m_multiplier_must_be_finite_and_positive(self, mult):
        # rejected before any row is written, as run_row's time_budget would
        with pytest.raises(ValueError, match="m_multiplier must be finite and positive"):
            ExperimentConfig(**{**FAST, "m_multiplier": mult})


class TestFit:
    def _records(self, times):
        return [
            ScalingRecord(
                eps=e, ic_index=0, seed=0, threshold=0.1, drift_time=t,
                drift_at_budget=0.0, tau_m=10.0, m=1, certificate="none",
                censored=False, runtime_s=0.0, config_hash="x",
            )
            for e, t in times
        ]

    def test_gevrey_fit_recovers_trend(self):
        exps = exponents(1, 2)
        a = float(exps.a)
        recs = self._records(
            [(e, math.exp(2.0 + 3.0 * e ** (-a))) for e in (1e-2, 1e-3, 1e-4)]
        )
        fit = fit_scaling(recs, Gevrey(1.0, 0.5), exps)
        assert fit.kind == "gevrey"
        assert fit.slope == pytest.approx(3.0, rel=1e-6)
        assert fit.intercept == pytest.approx(2.0, rel=1e-4)

    def test_ck_fit_kind(self):
        exps = exponents(1, 2)
        recs = self._records([(1e-2, 5.0), (1e-3, 9.0), (1e-4, 14.0)])
        fit = fit_scaling(recs, FiniteDiff(4, 3), exps)
        assert fit.kind == "ck"

    def test_empty_fit(self):
        recs = self._records([(1e-2, math.inf)])
        fit = fit_scaling(recs, Gevrey(1.0, 0.5), exponents(1, 2))
        assert fit.kind == "empty"
        assert fit.describe() == "fit needs >= 2 finite crossing times, got 0"

    def test_single_finite_row_fit_message(self):
        # one finite crossing is too few for a line, and the message says so
        # instead of claiming there were none
        recs = self._records([(1e-2, 5.0), (1e-3, math.inf)])
        fit = fit_scaling(recs, Gevrey(1.0, 0.5), exponents(1, 2))
        assert fit.kind == "empty"
        assert fit.describe() == "fit needs >= 2 finite crossing times, got 1"


class TestRunScaling:
    def test_resume_appends_only_missing(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        out = tmp_path / "s.csv"
        records, _ = run_scaling(cfg, out, resume=False)
        assert len(records) == 4
        section = data_section(out)
        again, _ = run_scaling(cfg, out, resume=True)
        assert [r.csv_row()[:-1] for r in again] == [r.csv_row()[:-1] for r in records]
        assert data_section(out) == section

    def test_resume_keeps_one_fit_line(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        out = tmp_path / "s.csv"
        run_scaling(cfg, out, resume=False)
        section = data_section(out)
        run_scaling(cfg, out, resume=True)
        _, fit = run_scaling(cfg, out, resume=True)
        fits = [ln for ln in out.read_text().splitlines() if ln.startswith("# fit")]
        assert fits == [f"# {fit.describe()}"]
        assert data_section(out) == section

    def test_resume_returns_whole_ladder(self, tmp_path):
        # interrupted after 2 of 6 rows: the resumed run reads those 2 back,
        # so its records and its fit cover all 6
        cfg = ExperimentConfig(**{**FAST, "eps_ladder": (1e-2, 1e-3, 1e-4)})
        full_path, cut_path = tmp_path / "full.csv", tmp_path / "cut.csv"
        full, full_fit = run_scaling(cfg, full_path, resume=False)
        lines = full_path.read_text().splitlines(keepends=True)
        header = [ln for ln in lines if ln.startswith("#") and "fit" not in ln]
        cut_path.write_text("".join(header + [ln for ln in lines if not ln.startswith("#")][:3]))
        records, fit = run_scaling(cfg, cut_path, resume=True)
        assert len(records) == 6
        assert [r.csv_row()[:-1] for r in records] == [r.csv_row()[:-1] for r in full]
        assert fit.points == full_fit.points
        assert data_section(cut_path) == data_section(full_path)

    def test_resume_after_crash_between_unlink_and_rename(self, tmp_path):
        # the rewrite unlinks the target before it renames <name>.tmp into
        # place; a crash in between leaves only the .tmp, which a resume
        # must take up instead of starting over
        cfg = ExperimentConfig(**FAST)
        full_path, cut_path = tmp_path / "full.csv", tmp_path / "cut.csv"
        full, _ = run_scaling(cfg, full_path, resume=False)
        lines = full_path.read_text().splitlines(keepends=True)
        header = [ln for ln in lines if ln.startswith("#") and "fit" not in ln]
        rows = [ln for ln in lines if not ln.startswith("#")]
        # the first two rows carry a runtime no run could write, to tell them apart
        kept = [rows[0]] + [ln.rsplit(",", 1)[0] + ",123.000\n" for ln in rows[1:3]]
        tmp = tmp_path / "cut.csv.tmp"
        tmp.write_text("".join(header + kept))
        records, _ = run_scaling(cfg, cut_path, resume=True)
        assert not tmp.exists()
        assert cut_path.read_text().count(",123.000\n") == 2   # the .tmp's rows were kept
        assert [r.csv_row()[:-1] for r in records] == [r.csv_row()[:-1] for r in full]
        assert data_section(cut_path) == data_section(full_path)

    def test_symlinked_output_keeps_its_link(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        plain, target = tmp_path / "plain.csv", tmp_path / "target.csv"
        link = tmp_path / "s.csv"
        run_scaling(cfg, plain, resume=False)
        target.write_text("stale\n")
        link.symlink_to(target)
        run_scaling(cfg, link, resume=False)
        assert link.is_symlink() and data_section(target) == data_section(plain)
        run_scaling(cfg, link, resume=True)   # the .tmp sits next to the target
        assert link.is_symlink() and data_section(target) == data_section(plain)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.csv", "s.csv", "target.csv"]

    def test_resume_refuses_other_config(self, tmp_path):
        out = tmp_path / "s.csv"
        run_scaling(ExperimentConfig(**FAST), out, resume=False)
        before = out.read_text()
        with pytest.raises(ValueError, match="config line"):
            run_scaling(ExperimentConfig(**{**FAST, "seed": 6}), out, resume=True)
        assert out.read_text() == before

    def test_interrupted_run_keeps_finished_rows(self, tmp_path, monkeypatch):
        # run_row fails at the third pair; the rows before it must already be
        # on disk, and a resume must reach the uninterrupted data section
        cfg = ExperimentConfig(**FAST)
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        run_scaling(cfg, full, resume=False)
        monkeypatch.setattr(experiments, "run_row", _row_failing_at_third_pair)
        with pytest.raises(RuntimeError, match="third pair"):
            run_scaling(cfg, cut, resume=False)
        monkeypatch.undo()
        assert len(data_section(cut).splitlines()) == 1 + 2  # header + 2 rows
        run_scaling(cfg, cut, resume=True)
        assert data_section(cut) == data_section(full)

    def test_lines_end_in_newline_only(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        out = tmp_path / "s.csv"
        run_scaling(cfg, out, resume=False)
        assert b"\r" not in out.read_bytes()
        # a file written with csv's "\r\n" on the header and data rows and
        # "\n" on the comment lines still resumes, unchanged but for endings
        section = data_section(out)
        mixed = [ln if ln.startswith("#") else ln.replace("\n", "\r\n")
                 for ln in out.read_text().splitlines(keepends=True)]
        out.write_bytes("".join(mixed).encode())
        assert out.read_bytes().count(b"\r\n") == 5
        records, _ = run_scaling(cfg, out, resume=True)
        assert len(records) == 4
        assert data_section(out) == section
        assert b"\r" not in out.read_bytes()

    def test_fit_comment_appended(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        out = tmp_path / "s.csv"
        run_scaling(cfg, out, resume=False)
        assert any(ln.startswith("# fit") for ln in out.read_text().splitlines())
