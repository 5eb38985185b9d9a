"""The three workloads: seeded inputs, one timed program call per job, and the
output checks that run after the timed region.

Every workload is made of rounds with a fixed make-up; the seed draws the
continuous inputs inside each round.  A job's horizon in drive periods is
computed here from its inputs, never read back from the program.
"""

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import lindblad_ref as ref
import ods
from ods import cli, planner

# All drives use the fig2 detunings delta1 = delta3 = 0.3, delta2 = delta4 = 0.2.
DETUNINGS = (0.3, 0.2, 0.3, 0.2)
DELTA = 0.05
PERIOD = 2.0 * math.pi / DELTA
GAMMA2_DEPH = (0.01, 0.02, 0.04)
CI_TAU = 0.1 * PERIOD      # counter-intuitive upload
DEFAULT_TAU = 0.01 * PERIOD  # the program's default upload
FIG3_PERIODS = 20
PROTOCOLS_PER_ROUND = 8
FIDELITY_BOUND = 0.95      # criterion 8
STATE_TOL = 1e-6           # program vs reference and full vs effective frame
SCAN_TOL = 1e-7            # fig3 F^2(nT) vs the plateau propagator
RHO1 = np.diag([1.0, 0.0, 0.0]).astype(complex)  # every job starts in |1>


@dataclass
class Job:
    periods: float
    spec: dict
    output: object = None
    error: str = ""
    seconds: float = 0.0
    problems: list = field(default_factory=list)  # failed checks
    known_fault: bool = False  # every failed check is the known 0.1 T upload fault


def _g(x: float) -> str:
    return repr(float(x))


def _rates_args(g2):
    return ["--set", f"gamma2_deph={_g(g2)}", "--set", f"gamma21_long={_g(g2 / 10.0)}"]


def _ci_args():
    return ["--set", "ramp_shape=counterintuitive", "--set", f"tau={_g(CI_TAU)}"]


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _read_csv(path, header):
    with open(path, encoding="utf-8") as fh:
        got = fh.readline().strip()
    if got != header:
        raise ValueError(f"{os.path.basename(path)}: header {got!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _ref_drive(omega, phi12=0.0, phi34=0.0):
    return ref.Drive.from_detunings(omega, omega, *DETUNINGS, phi12=phi12, phi34=phi34)


class Workload:
    trace_rounds = 1  # rounds of a traced run, a fixed amount of work
    min_rounds = 1

    def check_together(self, jobs):
        """Checks that compare jobs with each other; none by default."""


class Fig3Scan(Workload):
    """ods fig3 --n-max 20 through ods.cli.main; a round is one scan, with the
    default upload in even rounds and the 0.1 T counter-intuitive upload in odd
    ones (the two take the same time)."""

    name = "fig3-scan"
    trace_rounds = 2
    min_rounds = 2

    def make_round(self, rng, r, workdir):
        upload = ("default", "counterintuitive")[r % 2]
        spec = dict(omega=rng.uniform(1.95, 2.05), g2=float(rng.choice(GAMMA2_DEPH)),
                    phi12=rng.uniform(0.0, 2.0 * math.pi), upload=upload,
                    out=os.path.join(workdir, f"r{r}-{upload}"))
        # the scan covers N periods and the inset one more
        return [Job(FIG3_PERIODS + 1.0, spec)]

    def run(self, job):
        s = job.spec
        argv = ["fig3", "--n-max", str(FIG3_PERIODS), "--out", s["out"],
                "--set", f"omega={_g(s['omega'])}", "--set", f"phi12={_g(s['phi12'])}"]
        argv += _rates_args(s["g2"])
        if s["upload"] == "counterintuitive":
            argv += _ci_args()
        return _cli(argv)

    def check(self, job, rng):
        s = job.spec
        rc, _ = job.output
        if rc != 0:
            job.problems.append(f"exit code {rc}")
            return
        scan = _read_csv(os.path.join(s["out"], "fig3.csv"), "n,t,F,F2")
        inset = _read_csv(os.path.join(s["out"], "fig3_inset.csv"), "n,t,F,F2")
        if scan.shape != (FIG3_PERIODS + 1, 4) or np.any(scan[:, 0] != np.arange(FIG3_PERIODS + 1)):
            job.problems.append(f"fig3.csv has shape {scan.shape}")
            return
        f, f2 = scan[:, 2], scan[:, 3]
        ci = s["upload"] == "counterintuitive"
        sched = ref.Schedule(CI_TAU if ci else DEFAULT_TAU, counterintuitive=ci)
        pops = ref.periodic_populations(_ref_drive(s["omega"], s["phi12"]),
                                        ref.Rates.reference(s["g2"]), sched, RHO1, FIG3_PERIODS)
        worst = np.max(np.abs(f2 - pops))
        if abs(f[0] - 1.0) > 1e-12:
            job.problems.append(f"F(0) = {f[0]!r}")
        if worst > SCAN_TOL:
            job.problems.append(f"F^2(nT) off the reference propagator by {worst:.3e}")
        if abs(inset[-1, 1] - PERIOD) > 1e-9 * PERIOD or abs(inset[-1, 3] - pops[1]) > SCAN_TOL:
            job.problems.append(f"inset F^2(T) = {inset[-1, 3]!r}, reference {pops[1]!r}")
        if f.min() <= FIDELITY_BOUND:
            job.problems.append(f"min F(nT) = {f.min()!r}")
        if abs(f[-1] - f[10]) >= 0.03:
            job.problems.append(f"|F(NT) - F(10T)| = {abs(f[-1] - f[10])!r}")


class ProtocolSweep(Workload):
    """plan_superposition + run_protocol on fig2a with reference rates, at the
    first retrieval after the upload.  A round is eight targets, alpha
    stratified over [0, pi/2]; two of them use the 0.1 T counter-intuitive
    upload, the rest the default 0.01 T upload."""

    name = "protocol-sweep"
    trace_rounds = 13
    min_rounds = 13  # at least 104 protocols and 13 round rates per run

    def make_round(self, rng, r, workdir):
        ci_ks = [k for k in range(PROTOCOLS_PER_ROUND) if (k + r) % 4 == 0]
        default_ks = [k for k in range(PROTOCOLS_PER_ROUND) if (k + r) % 4]
        # rounds 0-2 re-run one protocol of each upload with the reference
        reference = {rng.choice(ci_ks), rng.choice(default_ks)} if r < 3 else set()
        jobs = []
        for k in range(PROTOCOLS_PER_ROUND):
            alpha = (k + rng.uniform()) * (math.pi / 2.0) / PROTOCOLS_PER_ROUND
            beta = rng.uniform(0.0, 2.0 * math.pi)
            ci = (k + r) % 4 == 0
            tau = CI_TAU if ci else DEFAULT_TAU
            t0 = (alpha / DELTA) % PERIOD
            retrieval = t0 if t0 >= tau else t0 + PERIOD
            jobs.append(Job((retrieval + tau) / PERIOD,
                            dict(alpha=alpha, beta=beta, ci=ci, tau=tau, retrieval=retrieval,
                                 reference=k in reference)))
        return jobs

    def run(self, job):
        params = ods.DriveParams.fig2("a")
        schedule = None
        if job.spec["ci"]:
            schedule = ods.RampSchedule.for_params(params, 0.1, shape="counterintuitive")
        plan = planner.plan_superposition(
            ods.TargetState(job.spec["alpha"], job.spec["beta"]), params, schedule=schedule)
        result = planner.run_protocol(plan, ods.pure_density(ods.basis_state(1)), params,
                                      ods.DecoherenceRates.reference())
        return plan, result

    def check(self, job, rng):
        s = job.spec
        plan, res = job.output
        target = np.array([math.cos(s["alpha"]), np.exp(1j * s["beta"]) * math.sin(s["alpha"]), 0.0])
        drive = _ref_drive(2.0, 0.0, -plan.delta_phi)
        closed = abs(np.vdot(target, ref.dark_state(drive, plan.t0))) ** 2
        if closed < 1.0 - 1e-12:
            job.problems.append(f"plan misses the target: |<target|a0(t0)>|^2 = {closed!r}")
        if abs(res.retrieval_time - s["retrieval"]) > 1e-9 * PERIOD:
            job.problems.append(f"retrieval at {res.retrieval_time!r}, expected {s['retrieval']!r}")
        rho = np.asarray(res.rho)
        if abs(np.trace(rho) - 1.0) > 1e-9 or np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            job.problems.append("rho is not a unit-trace Hermitian matrix")
        elif np.linalg.eigvalsh(rho).min() < -1e-9:
            job.problems.append(f"rho has eigenvalue {np.linalg.eigvalsh(rho).min():.3e}")
        fid = math.sqrt(max(np.vdot(target, rho @ target).real, 0.0))
        if abs(fid - res.fidelity) > 1e-9:
            job.problems.append(f"reported F = {res.fidelity!r}, <target|rho|target> gives {fid!r}")
        if s["reference"]:
            sched = ref.Schedule(s["tau"], t_off=s["retrieval"], counterintuitive=s["ci"])
            rho_ref = ref.evolve(RHO1, drive, ref.Rates.reference(), sched, 0.0,
                                 [s["retrieval"] + s["tau"]])[-1]
            f_ref = math.sqrt(max(np.vdot(target, rho_ref @ target).real, 0.0))
            if abs(f_ref - res.fidelity) > STATE_TOL:
                job.problems.append(f"F = {res.fidelity!r}, reference {f_ref!r}")
        if res.fidelity < FIDELITY_BOUND:
            job.problems.append(f"F = {res.fidelity:.4f} < {FIDELITY_BOUND}")
            job.known_fault = s["ci"] and len(job.problems) == 1

TRAJECTORY_HEADER = "t,rho11,rho22,rho33,re_rho21,im_rho21,abs_rho21_sq,dark_overlap"


class DenseSamples(Workload):
    """ods fig2 a|b|c and ods simulate through ods.cli.main, 4 T each.  A round
    is fig2 a (T/200 samples), fig2 b and fig2 c at about T/2000, a full-frame
    simulate at omega = 0.2 that repeats fig2 b's inputs, and a simulate at
    omega = 0.08 with the 0.1 T counter-intuitive upload."""

    name = "dense-samples"
    trace_rounds = 2

    def make_round(self, rng, r, workdir):
        phi12 = rng.uniform(0.0, 2.0 * math.pi)
        g2 = float(rng.choice(GAMMA2_DEPH))
        dense = PERIOD / 2000.0 * rng.uniform(0.95, 1.05)
        common = ["--set", f"phi12={_g(phi12)}"] + _rates_args(g2)
        fine = ["--set", f"sample_interval={_g(dense)}"]
        four_t = ["--set", "n_periods=4"]
        specs = [
            ("fig2a", 2.0, "fig2a.csv", ["fig2", "a"] + common),
            ("fig2b", 0.2, "fig2b.csv", ["fig2", "b"] + common + fine),
            ("full", 0.2, "trajectory.csv",
             ["simulate", "--set", "omega=0.2", "--set", "frame=full"] + common + fine + four_t),
            ("fig2c", 0.08, "fig2c.csv", ["fig2", "c"] + common + fine),
            ("weak-ci", 0.08, "trajectory.csv",
             ["simulate", "--set", "omega=0.08"] + _ci_args() + common + fine + four_t),
        ]
        jobs = []
        for tag, omega, csv, argv in specs:
            out = os.path.join(workdir, f"r{r}-{tag}")
            jobs.append(Job(4.0, dict(
                tag=tag, round=r, omega=omega, phi12=phi12, g2=g2, out=out,
                csv=os.path.join(out, csv), argv=argv + ["--out", out],
                ci=tag == "weak-ci")))
        return jobs

    def run(self, job):
        return _cli(job.spec["argv"])

    def check(self, job, rng):
        s = job.spec
        rc, stdout = job.output
        if rc != 0:
            job.problems.append(f"exit code {rc}")
            return
        d = _read_csv(s["csv"], TRAJECTORY_HEADER)
        t, r11, r22, r33, re21, im21, abs21, dark = d.T
        if t[0] != 0.0 or abs(t[-1] - 4.0 * PERIOD) > 1e-9 * PERIOD or np.any(np.diff(t) <= 0):
            job.problems.append(f"sample times {t[0]!r} .. {t[-1]!r}")
        if np.max(np.abs(r11 + r22 + r33 - 1.0)) > 1e-8:
            job.problems.append("populations do not sum to 1")
        if np.any(abs21 > r11 * r22 + 1e-9) or np.max(np.abs(abs21 - re21**2 - im21**2)) > 1e-12:
            job.problems.append("|rho21|^2 exceeds rho11 rho22")
        if np.any(dark < -1e-9) or np.any(dark > 1.0 + 1e-9):
            job.problems.append("dark_overlap outside [0, 1]")
        if s["tag"] == "fig2a":
            est = float(re.search(r"period estimate: (\S+)", stdout).group(1))
            if not abs(est - PERIOD) <= 0.01 * PERIOD:
                job.problems.append(f"period estimate {est!r}, 2 pi/delta = {PERIOD!r}")
        if s["round"] == 0:  # a few seeded sample times against the reference
            rows = np.sort(rng.choice(len(t), 4, replace=False))
            sched = ref.Schedule(CI_TAU if s["ci"] else DEFAULT_TAU, counterintuitive=s["ci"])
            states = ref.evolve(RHO1, _ref_drive(s["omega"], s["phi12"]),
                                ref.Rates.reference(s["g2"]), sched, 0.0, t[rows])
            want = np.column_stack([states[:, 0, 0].real, states[:, 1, 1].real, states[:, 2, 2].real,
                                    states[:, 1, 0].real, states[:, 1, 0].imag])
            worst = np.max(np.abs(d[rows, 1:6] - want))
            if worst > STATE_TOL:
                job.problems.append(f"samples off the reference by {worst:.3e}")

    def check_together(self, jobs):
        """The full-frame run and fig2 b of the same round agree in the ground block."""
        by_key = {(j.spec["round"], j.spec["tag"]): j for j in jobs}
        for (r, tag), full in by_key.items():
            eff = by_key.get((r, "fig2b"))
            if tag != "full" or eff is None or full.output[0] != 0 or eff.output[0] != 0:
                continue
            a = _read_csv(eff.spec["csv"], TRAJECTORY_HEADER)
            b = _read_csv(full.spec["csv"], TRAJECTORY_HEADER)
            if a.shape != b.shape or np.any(a[:, 0] != b[:, 0]):
                full.problems.append("full-frame sample times differ from fig2 b")
            elif np.max(np.abs(a[:, 1:6] - b[:, 1:6])) > STATE_TOL:
                full.problems.append("full and effective frames disagree")


WORKLOADS = {w.name: w for w in (Fig3Scan(), ProtocolSweep(), DenseSamples())}
