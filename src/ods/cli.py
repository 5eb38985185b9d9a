"""Command line front end: simulate | plan | fig2 | fig3.

Writes trajectory/scan CSV files plus standalone gnuplot scripts; all
numeric output uses 17 significant digits so regression baselines
round-trip losslessly.
"""

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import adiabaticity, drive, evolver, planner
from .config import ExperimentConfig, parse_config
from .errors import (
    ConfigError,
    IntegratorError,
    NotOdsError,
    OdsError,
    ValidationError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTEGRATOR = 4
EXIT_IO = 5

TRAJECTORY_HEADER = "t,rho11,rho22,rho33,re_rho21,im_rho21,abs_rho21_sq,dark_overlap"
SCAN_HEADER = "n,t,F,F2"


def _g17(x) -> str:
    return format(float(x), ".17g")


def write_csv(path: str, header: str, columns) -> None:
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_g17(v) for v in row) + "\n")


def estimate_period(times: np.ndarray, rho11: np.ndarray, rho22: np.ndarray) -> float:
    """Dark-state rotation period estimated from the population oscillation.

    The populations swing twice per dark-state rotation (rho11 tracks
    cos^2 of the rotation angle), so zero crossings of rho11 - rho22 are
    a quarter rotation apart: the rotation period is four times the mean
    crossing spacing.
    """
    d = rho11 - rho22
    sign = np.sign(d)
    idx = np.where(np.diff(sign) != 0)[0]
    if len(idx) < 2:
        return math.nan
    crossings = []
    for i in idx:
        frac = d[i] / (d[i] - d[i + 1])
        crossings.append(times[i] + frac * (times[i + 1] - times[i]))
    return 4.0 * float(np.mean(np.diff(crossings)))


def _simulate_trajectory(cfg: ExperimentConfig):
    return evolver.evolve(
        cfg.initial_density(),
        cfg.drive,
        cfg.schedule,
        cfg.rates,
        (cfg.schedule.t_on, cfg.schedule.t_on + cfg.t_final),
        config=cfg.integrator,
        frame=cfg.run.frame,
    )


def _summary(cfg, obs) -> str:
    lines = [
        f"samples: {len(obs['t'])}",
        f"max rho33: {_g17(obs['rho33'].max())}",
        f"max |rho21|^2: {_g17(obs['abs_rho21_sq'].max())}",
        f"period estimate: {_g17(estimate_period(obs['t'], obs['rho11'], obs['rho22']))}",
    ]
    if cfg.drive.is_ods_valid:
        plateau_t = cfg.schedule.t_on + cfg.schedule.tau
        report = adiabaticity.evolving_margin(cfg.drive, cfg.schedule, plateau_t + 1e-9)
        lines.append(f"adiabaticity ratio: {_g17(report.ratio)} ({report.regime})")
    return "\n".join(lines)


def _gnuplot_trajectory(csv_name: str, title: str) -> str:
    return f"""# gnuplot script; run: gnuplot -persist {csv_name.rsplit('.', 1)[0]}.gnuplot
set datafile separator ','
set key autotitle columnhead
set xlabel 't [1/gamma31]'
set ylabel 'population / coherence'
set title '{title}'
plot '{csv_name}' using 1:2 with lines title 'rho11', \\
     '{csv_name}' using 1:3 with lines title 'rho22', \\
     '{csv_name}' using 1:4 with lines title 'rho33', \\
     '{csv_name}' using 1:7 with lines title '|rho21|^2'
"""


def _gnuplot_scan(csv_name: str, inset_name: str) -> str:
    return f"""# gnuplot script; run: gnuplot -persist {csv_name.rsplit('.', 1)[0]}.gnuplot
set datafile separator ','
set key autotitle columnhead
set xlabel 'n (periods)'
set ylabel 'fidelity'
set yrange [0:1.02]
set multiplot
plot '{csv_name}' using 1:3 with linespoints title 'F', \\
     '{csv_name}' using 1:4 with lines title 'F^2'
set origin 0.45, 0.15
set size 0.5, 0.45
set xlabel 't [1/gamma31] (first period)'
plot '{inset_name}' using 2:3 with lines title 'F'
unset multiplot
"""


def cmd_simulate(cfg: ExperimentConfig, out_dir: str) -> int:
    traj = _simulate_trajectory(cfg)
    obs = traj.observables()
    path = os.path.join(out_dir, "trajectory.csv")
    write_csv(path, TRAJECTORY_HEADER, [obs[k] for k in TRAJECTORY_HEADER.split(",")])
    print(f"wrote {path}")
    print(_summary(cfg, obs))
    return EXIT_OK


def cmd_plan(cfg: ExperimentConfig, out_dir: str, verify: bool) -> int:
    target = cfg.target()
    if target is None:
        raise ValidationError("plan requires a target (set target_alpha, optionally target_beta)")
    if not cfg.drive.is_ods_valid:
        raise NotOdsError("plan refused: drive parameters are not ODS-valid")
    plan = planner.plan_superposition(target, cfg.drive, schedule=cfg.schedule)
    print(f"target: alpha = {_g17(target.alpha)}, beta = {_g17(target.beta)}")
    print(f"delta_phi = {_g17(plan.delta_phi)}")
    print(f"t0 = {_g17(plan.t0)}  (T = {_g17(cfg.drive.period)})")
    print("retrieval times: " + ", ".join(_g17(t) for t in plan.retrieval_times[:5]))
    if verify:
        result = planner.run_protocol(
            plan, cfg.initial_density(), cfg.drive, cfg.rates,
            config=cfg.integrator, frame=cfg.run.frame,
        )
        print(f"verified at t = {_g17(result.retrieval_time)}: "
              f"F = {_g17(result.fidelity)}, F2 = {_g17(result.overlap)}")
    return EXIT_OK


def cmd_fig2(variant: str, cfg: ExperimentConfig, out_dir: str) -> int:
    omega = drive.FIG2_OMEGA[variant]
    params = replace(cfg.drive, omega12=omega, omega34=omega)
    cfg = replace(cfg, drive=params, run=replace(cfg.run, n_periods=None, t_final=4.0 * params.period))
    traj = _simulate_trajectory(cfg)
    obs = traj.observables()
    csv_name = f"fig2{variant}.csv"
    path = os.path.join(out_dir, csv_name)
    write_csv(path, TRAJECTORY_HEADER, [obs[k] for k in TRAJECTORY_HEADER.split(",")])
    script = os.path.join(out_dir, f"fig2{variant}.gnuplot")
    with open(script, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_gnuplot_trajectory(csv_name, f"three-level populations, variant {variant}"))
    print(f"wrote {path}")
    print(f"wrote {script}")
    print(_summary(cfg, obs))
    return EXIT_OK


def cmd_fig3(cfg: ExperimentConfig, out_dir: str, n_max: int) -> int:
    # the scan measures the return to |1>; the inset shows its first period
    if cfg.run.initial_state != "1":
        raise ValidationError("fig3 scans from |1>; initial_state must be 1")
    scan = planner.fidelity_scan(
        cfg.drive, cfg.rates,
        config=replace(cfg.integrator, method="dop853-adaptive"),
        n_periods=n_max, schedule=cfg.schedule,
    )
    path = os.path.join(out_dir, "fig3.csv")
    write_csv(path, SCAN_HEADER, [scan["n"], scan["t"], scan["F"], scan["F2"]])

    # first-period fine sampling for the inset
    period = cfg.drive.period
    fine_cfg = replace(cfg.integrator, sample_interval=period / 100.0)
    traj = evolver.evolve(
        cfg.initial_density(), cfg.drive, cfg.schedule, cfg.rates,
        (0.0, period), config=fine_cfg, frame=cfg.run.frame,
    )
    f2 = traj.states[:, 0, 0].real.clip(0.0, 1.0)
    inset_path = os.path.join(out_dir, "fig3_inset.csv")
    write_csv(inset_path, SCAN_HEADER,
              [traj.times / period, traj.times, np.sqrt(f2), f2])

    script = os.path.join(out_dir, "fig3.gnuplot")
    with open(script, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_gnuplot_scan("fig3.csv", "fig3_inset.csv"))
    for p in (path, inset_path, script):
        print(f"wrote {p}")
    print(f"F({n_max}T) = {_g17(scan['F'][-1])}, F2 = {_g17(scan['F2'][-1])}")
    if math.isnan(scan["lambda2"]):
        print("one-period propagator: not used (finite t_off, or no whole period "
              "left after the upload); integrated directly")
    else:
        print(f"one-period propagator: fixed-point rho11 = {_g17(scan['fixed_rho11'])}")
        print(f"one-period propagator: |lambda_2| = {_g17(scan['lambda2'])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ods",
        description="Oscillating-dark-state laboratory for a three-level Lambda atom",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="FILE", help="key=value config file")
        p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                       dest="overrides", help="override one config key (repeatable)")
        p.add_argument("--out", metavar="DIR",
                       default=os.environ.get("ODS_OUT_DIR", "."),
                       help="output directory (default: $ODS_OUT_DIR or .)")

    add_common(sub.add_parser("simulate", help="run one trajectory, write CSV + summary"))
    p_plan = sub.add_parser("plan", help="print the retrieval plan for a target state")
    add_common(p_plan)
    p_plan.add_argument("--verify", action="store_true",
                        help="also run the protocol and print the achieved fidelity")
    p_fig2 = sub.add_parser("fig2", help="reproduce one drive-regime trajectory panel")
    add_common(p_fig2)
    p_fig2.add_argument("variant", choices=("a", "b", "c"))
    p_fig3 = sub.add_parser("fig3", help="long-horizon fidelity scan at integer periods")
    add_common(p_fig3)
    p_fig3.add_argument("--n-max", type=int, default=1000,
                        help="number of periods to scan (default 1000)")
    return parser


def _load_config(args) -> ExperimentConfig:
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return parse_config(text, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "plan":
            return cmd_plan(cfg, args.out, args.verify)
        if args.command == "fig2":
            return cmd_fig2(args.variant, cfg, args.out)
        return cmd_fig3(cfg, args.out, args.n_max)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, NotOdsError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegratorError as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OdsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
