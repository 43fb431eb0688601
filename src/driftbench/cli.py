"""Command-line surface: approx, normalform, morse-check, drift, restrain,
scaling, exponents, conditions.

Exit codes: 0 on success, 2 when a check or certificate reports a condition
failure, 1 on errors (bad flags, missing files).  All state flows through
flags and files; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import experiments
from .diophantine import ResonanceFrame, dirichlet_approx, period_of
from .dynamics import IntegratorConfig, drift_time, integrate
from .normalform import NormalFormConfig, local_normal_form
from .restrain import _multipliers, check_conditions, exponents, time_budget, try_restrain
from .series import (
    Gevrey,
    HamiltonianSystem,
    load_series,
    open_new,
    save_series,
    split_by_modes,
)
from .steepness import MorseParams, check_morse
from .systems import BUILTIN_SYSTEMS, System, make_system


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); errors are exit 1
        raise CliError(message)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_fractions(text: str) -> list[Fraction]:
    return [Fraction(x) for x in text.split(",") if x.strip()]


def _parse_frame(text: str) -> ResonanceFrame:
    vectors = [
        period_of(_parse_fractions(chunk))
        for chunk in text.split(";")
        if chunk.strip()
    ]
    return ResonanceFrame.build(vectors)


def _parse_multipliers(text: str | None) -> dict[str, float]:
    """'key=value,...' as a dict, for ``restrain._multipliers`` to check."""
    out: dict[str, float] = {}
    for item in text.split(",") if text else ():
        key, _, val = (part.strip() for part in item.partition("="))
        try:
            value = float(val)
        except ValueError:
            raise CliError(f"malformed multiplier {item!r}: expected key=value") from None
        if key in out:
            raise CliError(f"multiplier {key!r} given twice")
        out[key] = value
    return out


def read_config_file(path) -> dict[str, str]:
    """Flat key = value text config; '#' starts a comment."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise CliError(f"malformed config line: {raw!r}")
        out[key.strip()] = val.strip()
    return out


def _load_system(args) -> System:
    if getattr(args, "series", None):
        s, reg = load_series(args.series)
        h, f = split_by_modes(s)
        reg = reg or Gevrey(1.0, 0.5)
        eps = f.coefficient_norm() if getattr(args, "eps", None) is None else args.eps
        ham = HamiltonianSystem(h, f, eps, reg)
        return System(f"series:{args.series}", ham)
    name = getattr(args, "system", None)
    if not name:
        raise CliError("need --system NAME or --series FILE")
    eps = getattr(args, "eps", None)
    if eps is None:
        raise CliError("--eps is required with --system")
    return make_system(name, eps)


# -- subcommand handlers ----------------------------------------------------------


def cmd_exponents(args) -> int:
    exps = exponents(args.n, Fraction(args.tau))
    for j, aj in enumerate(exps.a_list, start=1):
        print(f"a_{j} = {aj} = {float(aj):.10g}")
    print(f"a = b = {exps.a} = {float(exps.a):.10g}")
    return 0


def cmd_approx(args) -> int:
    v = _parse_floats(args.v)
    res = dirichlet_approx(v, args.Q, args.cap)
    pv = res.vector
    print("omega =", "(" + ", ".join(str(w) for w in pv.omega) + ")")
    print("omega ~", "(" + ", ".join(f"{float(w):.12g}" for w in pv.omega) + ")")
    print(f"T = {pv.period} = {float(pv.period):.12g}")
    print(f"error |v - omega| = {float(res.error):.6g} <= bound {res.error_bound:.6g}")
    for name, val in res.margins().items():
        print(f"{name} = {val:.6g}")
    return 0


def cmd_morse_check(args) -> int:
    system = _load_system(args)
    params = MorseParams(args.gamma, args.tau)
    report = check_morse(
        system.h_action, params, args.L_max, system.domain.n, grid_res=args.grid,
    )
    print(f"morse-check: {'PASS' if report.passed else 'FAIL'} "
          f"(gamma={args.gamma}, tau={args.tau}, L<= {args.L_max}, grid={args.grid})")
    print("subspaces tested per dimension:", dict(sorted(report.subspace_counts.items())))
    for fail in report.failures:
        print(f"  FAIL subspace normals={fail.subspace.normals} "
              f"lattice={fail.subspace.lattice_key()} at point {fail.worst_point}: "
              f"grad={fail.worst_grad:.4g} sigma={fail.worst_sigma:.4g} "
              f"thr={params.threshold(fail.L_min):.4g}")
    if args.out:
        with open_new(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["normals", "L_min", "margin", "worst_grad", "worst_sigma", "point"]
            )
            for m in report.margins:
                writer.writerow([
                    ";".join(",".join(map(str, u)) for u in m.subspace.normals),
                    m.L_min, format(m.margin, ".17g"),
                    format(m.worst_grad, ".17g"), format(m.worst_sigma, ".17g"),
                    ",".join(format(x, ".17g") for x in m.worst_point),
                ])
        print(f"margins written to {args.out}")
    return 0 if report.passed else 2


def cmd_normalform(args) -> int:
    system = _load_system(args)
    frame = _parse_frame(args.frame)
    mus = _parse_floats(args.mu)
    center = _parse_floats(args.center)
    cfg = NormalFormConfig(m=args.m, lie_order=args.lie_order)
    result = local_normal_form(system.hamiltonian, center, frame, mus, cfg)
    print(f"normal form around I = {center} with {frame.j} frequencies, m={args.m}")
    for key in sorted(result.certificates):
        print(f"  {key:<42} {result.certificates[key]:.6g}")
    print(f"  resonant-symmetry check: {'PASS' if result.symmetry_checked else 'FAIL'}")
    if args.save_g:
        save_series(args.save_g, result.g, system.hamiltonian.regularity)
        print(f"g written to {args.save_g}")
    if args.save_remainder:
        save_series(args.save_remainder, result.remainder, system.hamiltonian.regularity)
        print(f"remainder written to {args.save_remainder}")
    return 0 if result.symmetry_checked else 2


def cmd_drift(args) -> int:
    system = _load_system(args)
    n = system.domain.n
    cfg = IntegratorConfig(step=args.step, sample_stride=args.stride)
    start = experiments.initial_condition(system, np.random.default_rng(args.seed))
    res = drift_time(system, start, args.threshold, args.t_cap, cfg)
    label = "sentinel (no crossing)" if not res.crossed else f"{res.time:.6g}"
    print(f"drift time at threshold {args.threshold}: {label}")
    if args.out:
        traj = res.trajectory
        with open_new(args.out) as fh:
            fh.write(f"# driftbench trajectory; system={system.name} seed={args.seed}\n")
            writer = csv.writer(fh)
            writer.writerow(
                ["t"] + [f"theta_{i+1}" for i in range(n)]
                + [f"I_{i+1}" for i in range(n)] + ["H", "config_hash"]
            )
            h = traj.metadata["config_hash"]
            for i in range(len(traj.times)):
                writer.writerow(
                    [format(traj.times[i], ".17g")]
                    + [format(x, ".17g") for x in traj.thetas[i]]
                    + [format(x, ".17g") for x in traj.actions[i]]
                    + [format(traj.energy[i], ".17g"), h]
                )
        print(f"trajectory written to {args.out}")
    return 0


def cmd_restrain(args) -> int:
    system = _load_system(args)
    morse = MorseParams(args.gamma, args.tau)  # rejects a non-finite tau
    exps = exponents(system.domain.n, Fraction(args.tau))
    ham = system.hamiltonian
    budget = time_budget(ham.epsilon, ham.regularity, exps, args.m_multiplier)
    mult = _multipliers(_parse_multipliers(args.multipliers))
    tau_m = min(budget.tau_m, args.t_cap)
    cfg = IntegratorConfig(step=args.step, sample_stride=args.stride)
    start = experiments.initial_condition(system, np.random.default_rng(args.seed))
    traj = integrate(system, start, tau_m, cfg)
    res = try_restrain(system, traj, args.mu0, budget, morse, exps=exps, multipliers=mult)
    if res.restrained:
        cert = res.certificate
        # the ladder certifies up to the last sample, which can fall short of tau_m
        horizon = min(cert.budget.tau_m, float(traj.times[-1]))
        print("RESTRAINED: certificate issued")
        print(f"  mu ladder: mu_0={cert.mu0}  " +
              "  ".join(f"mu_{i+1}={m:.6g}" for i, m in enumerate(cert.mus)))
        print(f"  times: " + "  ".join(f"t_{i+1}={t:.6g}" for i, t in enumerate(cert.times))
              + f"  horizon={horizon:.6g} (tau_m={cert.budget.tau_m:.6g})")
        for i, pv in enumerate(cert.frame.vectors, start=1):
            print(f"  omega_{i} ~ ("
                  + ", ".join(f"{float(w):.10g}" for w in pv.omega)
                  + f")  T_{i} = {float(pv.period):.10g}")
        print(f"  approximate: {cert.approximate}  "
              f"displacement budget: {cert.displacement_budget:.3g}")
        print(f"  binds trajectory {cert.trajectory_hash} config {cert.config_hash}")
        if args.out:
            _write_certificate(args.out, cert, horizon)
            print(f"certificate written to {args.out}")
        return 0
    print(f"NOT RESTRAINED: {res.failure}")
    for name, val in (res.failure.margins or {}).items():
        print(f"  {name} = {val:.6g}")
    return 2


def _write_certificate(path, cert, horizon: float) -> None:
    lines = ["driftbench restrain certificate v1"]
    lines.append(f"mu_0 {cert.mu0!r}")
    lines.append("mus " + " ".join(format(m, ".17g") for m in cert.mus))
    lines.append("times " + " ".join(format(t, ".17g") for t in cert.times))
    lines.append(f"horizon {format(horizon, '.17g')} "
                 f"tau_m {format(cert.budget.tau_m, '.17g')} m {cert.budget.m}")
    for i, pv in enumerate(cert.frame.vectors, start=1):
        lines.append(f"omega_{i} " + " ".join(str(w) for w in pv.omega)
                     + f" T {pv.period}")
    for i, c in enumerate(cert.centers, start=1):
        lines.append(f"I_{i} " + " ".join(format(x, ".17g") for x in c))
    lines.append("multipliers " + " ".join(f"{k}={v}" for k, v in cert.multipliers.items()))
    lines.append(f"displacement_budget {format(cert.displacement_budget, '.17g')}")
    lines.append(f"approximate {int(cert.approximate)}")
    lines.append(f"trajectory_hash {cert.trajectory_hash}")
    lines.append(f"config_hash {cert.config_hash}")
    lines.append("conditions:")
    for e in cert.condition_log:
        lines.append(f"  [{'ok' if e.ok else 'VIOLATED'}] {e.name}: "
                     f"lhs={e.lhs:.6g} rhs={e.rhs:.6g} log-margin={e.log_margin:+.3f}")
    with open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_conditions(args) -> int:
    report = check_conditions(
        args.n, args.tau, args.gamma, args.eps, args.m, args.mu0, _parse_floats(args.mus),
        _parse_floats(args.Ts), tuple(int(x) for x in args.Ls.split(",")),
        _parse_multipliers(args.multipliers),
    )
    for e in report.entries:
        print(f"[{'ok' if e.ok else 'FAIL'}] {e.name:<44} "
              f"lhs={e.lhs:.4g} rhs={e.rhs:.4g} log-margin={e.log_margin:+.3f}")
    for e in report.info:
        print(f"[info] {e.name:<44} lhs={e.lhs:.4g} rhs={e.rhs:.4g}")
    print("overall:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def cmd_scaling(args) -> int:
    # a scaling flag not given parses to None, and --config replaces them all
    given = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "func", "config", "out", "no_resume")}
    if args.config and given:
        flags = ", ".join("--stride" if k == "sample_stride" else "--" + k.replace("_", "-")
                          for k in given)
        raise CliError(f"{flags} would be ignored next to --config: set them in its file")
    if args.config:
        # each value is cast by the type of its field's default
        defaults = {f.name: f.default for f in dataclasses.fields(experiments.ExperimentConfig)}
        kwargs = {}
        for key, val in read_config_file(args.config).items():
            if key not in defaults:
                raise CliError(f"unknown config key {key!r}")
            default = defaults[key]
            if isinstance(default, bool):
                kwargs[key] = val.lower() in ("1", "true", "yes")
            elif isinstance(default, tuple):
                kwargs[key] = _parse_floats(val)
            else:
                kwargs[key] = type(default)(val)
        cfg = experiments.ExperimentConfig(**kwargs)
    else:
        cfg = experiments.ExperimentConfig(**given)
    records, fit = experiments.run_scaling(cfg, args.out, resume=not args.no_resume)
    finite = [r for r in records if math.isfinite(r.drift_time)]
    print(f"scaling: {len(records)} rows ({len(finite)} finite crossings) -> {args.out}")
    print(fit.describe())
    return 0


# -- parser wiring ------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="driftbench", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("exponents", help="stability exponents as exact rationals")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--tau", type=str, required=True)
    q.set_defaults(func=cmd_exponents)

    q = sub.add_parser("approx", help="Dirichlet approximation by a periodic vector")
    q.add_argument("--v", type=str, required=True, help="comma-separated components")
    q.add_argument("--Q", type=float, required=True)
    q.add_argument("--cap", type=int, default=None)
    q.set_defaults(func=cmd_approx)

    def add_system_flags(sp):
        sp.add_argument("--system", type=str, choices=sorted(BUILTIN_SYSTEMS),
                        default=None)
        sp.add_argument("--series", type=str, default=None,
                        help="series file holding H = h + f (split by modes)")
        sp.add_argument("--eps", type=float, default=None)

    q = sub.add_parser("morse-check", help="Diophantine Morse verification")
    add_system_flags(q)
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--tau", type=float, required=True)
    q.add_argument("--L-max", dest="L_max", type=int, default=3)
    q.add_argument("--grid", type=int, default=33)
    q.add_argument("--out", type=str, default=None, help="margins CSV")
    q.set_defaults(func=cmd_morse_check)

    q = sub.add_parser("normalform", help="local normal form around an action point")
    add_system_flags(q)
    q.add_argument("--center", type=str, required=True)
    q.add_argument("--frame", type=str, required=True,
                   help="periodic vectors 'w11,w12;w21,w22' as exact fractions")
    q.add_argument("--mu", type=str, required=True, help="radius schedule mu_1..mu_j")
    q.add_argument("--m", type=int, default=3)
    q.add_argument("--lie-order", dest="lie_order", type=int, default=5)
    q.add_argument("--save-g", dest="save_g", type=str, default=None)
    q.add_argument("--save-remainder", dest="save_remainder", type=str, default=None)
    q.set_defaults(func=cmd_normalform)

    q = sub.add_parser("drift", help="integrate and report the drift time")
    add_system_flags(q)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--threshold", type=float, default=0.1)
    q.add_argument("--t-cap", dest="t_cap", type=float, default=1e3)
    q.add_argument("--step", type=float, default=0.01)
    q.add_argument("--stride", type=int, default=10)
    q.add_argument("--out", type=str, default=None, help="trajectory CSV")
    q.set_defaults(func=cmd_drift)

    q = sub.add_parser("restrain", help="run the restrain monitor on a trajectory")
    add_system_flags(q)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--mu0", type=float, default=0.05)
    q.add_argument("--gamma", type=float, default=0.9)
    q.add_argument("--tau", type=float, default=2.0)
    q.add_argument("--m-multiplier", dest="m_multiplier", type=float, default=1.0)
    q.add_argument("--t-cap", dest="t_cap", type=float, default=1e3)
    q.add_argument("--step", type=float, default=0.05)
    q.add_argument("--stride", type=int, default=20)
    q.add_argument("--multipliers", type=str, default=None,
                   help="implicit-constant overrides, e.g. 'c_mu=1.2,smallness=3'")
    q.add_argument("--out", type=str, default=None, help="certificate file")
    q.set_defaults(func=cmd_restrain)

    q = sub.add_parser("conditions", help="the restrain ladder's trajectory-independent rows")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--tau", type=float, required=True)
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--mu0", type=float, required=True)
    q.add_argument("--mus", type=str, required=True)
    q.add_argument("--Ts", type=str, required=True)
    q.add_argument("--Ls", type=str, required=True)
    q.add_argument("--multipliers", type=str, default=None, help="as for restrain")
    q.set_defaults(func=cmd_conditions)

    q = sub.add_parser("scaling", help="drift-time scaling study over an eps ladder")
    q.add_argument("--config", type=str, default=None, help="flat key=value file")
    q.add_argument("--system", type=str)
    q.add_argument("--eps-ladder", dest="eps_ladder", type=_parse_floats)
    q.add_argument("--num-ic", dest="num_ic", type=int)
    q.add_argument("--seed", type=int)
    q.add_argument("--step", type=float)
    q.add_argument("--stride", dest="sample_stride", type=int)
    q.add_argument("--m-multiplier", dest="m_multiplier", type=float)
    q.add_argument("--t-cap", dest="t_cap", type=float)
    q.add_argument("--threshold-mode", dest="threshold_mode", type=str,
                   choices=("theorem", "sqrt"))
    q.add_argument("--threshold-scale", dest="threshold_scale", type=float)
    q.add_argument("--run-restrain", dest="run_restrain", action="store_true", default=None)
    q.add_argument("--no-resume", dest="no_resume", action="store_true")
    q.add_argument("--out", type=str, required=True)
    q.set_defaults(func=cmd_scaling)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
