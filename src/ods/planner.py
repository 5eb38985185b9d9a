"""Retrieval-time planning and end-to-end protocol runs.

Inverting the dark state |a0(t)> = cos(delta t)|1> - i e^{-i dphi}
sin(delta t)|2> (equal Rabi frequencies) gives closed-form retrieval
schedules: population transfer to |2> at (1/4 + n/2) T, and an arbitrary
target cos(a)|1> + e^{i b} sin(a)|2> at t0 = a/delta with
dphi = (-b - pi/2) mod 2pi, repeating every T.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import core, drive, evolver
from .eigensystem import dark_state
from .errors import ValidationError

# Least gap 1 - |lambda_2| of the one-period propagator for its eigenvalue-1
# fixed point to count as unique; M carries the 1e-9 step-control error,
# and a closed system has |lambda| = 1 throughout
FIXED_POINT_GAP = 1e-6


@dataclass(frozen=True)
class TargetState:
    """Ground-level superposition cos(alpha)|1> + e^{i beta} sin(alpha)|2>."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi / 2.0:
            raise ValidationError(f"alpha must be in [0, pi/2], got {self.alpha}")

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array(
            [math.cos(self.alpha), np.exp(1j * self.beta) * math.sin(self.alpha), 0.0],
            dtype=complex,
        )


@dataclass(frozen=True)
class TransferTime:
    """One transfer retrieval instant.  The dark state sits on |2> at every
    (1/4 + n/2) T: its |2> amplitude is -i e^{-i dphi} sin(pi/2 + n pi),
    a full ground-level swap for all n."""

    n: int
    time: float


@dataclass(frozen=True)
class ProtocolPlan:
    delta_phi: float
    t0: float
    retrieval_times: tuple
    transfer_times: tuple
    schedule: drive.RampSchedule
    target: TargetState


@dataclass
class ProtocolResult:
    rho: np.ndarray
    fidelity: float
    overlap: float
    retrieval_time: float


def _require_plannable(params: drive.DriveParams):
    params.ensure_ods()
    if abs(params.omega12 - params.omega34) > 1e-12:
        raise ValidationError("planning requires omega12 == omega34 (theta = delta t)")
    if params.omega12 == 0.0:
        raise ValidationError("planning requires nonzero Rabi frequencies")


def plan_transfer(params: drive.DriveParams, n_max: int = 4) -> list:
    """Transfer retrieval times (1/4 + n/2) T for n = 0..n_max."""
    _require_plannable(params)
    period = params.period
    return [TransferTime(n, (0.25 + 0.5 * n) * period) for n in range(n_max + 1)]


def plan_superposition(
    target: TargetState,
    params: drive.DriveParams,
    schedule: drive.RampSchedule | None = None,
    n_max: int = 10,
) -> ProtocolPlan:
    """Closed-form (delta_phi, t0) plan hitting the target up to global phase."""
    _require_plannable(params)
    period = params.period
    if target.alpha == 0.0:
        delta_phi = 0.0  # target |1>: any phase works
        t0 = 0.0
    else:
        delta_phi = (-target.beta - math.pi / 2.0) % (2.0 * math.pi)
        t0 = (target.alpha / params.delta) % period
    schedule = schedule or drive.RampSchedule.for_params(params)
    retrieval = tuple(t0 + n * period for n in range(n_max + 1))
    transfer = tuple(p.time for p in plan_transfer(params, n_max))
    return ProtocolPlan(delta_phi, t0, retrieval, transfer, schedule, target)


def plan_transfer_protocol(params, schedule=None, n_max=10) -> ProtocolPlan:
    """Transfer-to-|2> plan in ProtocolPlan form (alpha = pi/2 target)."""
    plan = plan_superposition(TargetState(math.pi / 2.0, 0.0), params, schedule, n_max)
    # beta is free for a bare-state target; keep the drive's own phase
    return replace(plan, delta_phi=params.delta_phi)


def predicted_state(plan: ProtocolPlan, params: drive.DriveParams) -> np.ndarray:
    """Dark state at t0 under the planned delta_phi (analytic prediction)."""
    return dark_state(drive.with_delta_phi(params, plan.delta_phi), plan.t0)


def run_protocol(
    plan: ProtocolPlan,
    rho0: np.ndarray,
    params: drive.DriveParams,
    rates: evolver.DecoherenceRates,
    config: evolver.IntegratorConfig | None = None,
    retrieval_time: float | None = None,
    frame: str = "effective",
) -> ProtocolResult:
    """Upload, evolve, unload at a retrieval time, and score against the target.

    The plateau ends exactly at the retrieval time; the shared envelope
    then ramps down over tau and the state is scored at the unload end
    (after the fields are off only the slow ground-level decay acts, so
    scoring there isolates protocol quality).  The drive phase is forced
    to the plan's delta_phi.
    """
    params = drive.with_delta_phi(params, plan.delta_phi)
    sched = plan.schedule
    if retrieval_time is None:
        earliest = sched.t_on + sched.tau
        candidates = [t for t in plan.retrieval_times if t >= earliest]
        if not candidates:
            raise ValidationError("no retrieval time after the upload ramp; raise n_max")
        retrieval_time = candidates[0]
    sched = replace(sched, t_off=retrieval_time)
    traj = evolver.evolve(
        rho0, params, sched, rates,
        (sched.t_on, retrieval_time + sched.tau),
        config=config, frame=frame,
    )
    rho = traj.states[-1]
    target = plan.target.amplitudes
    overlap = core.state_overlap(target, rho)
    return ProtocolResult(rho, math.sqrt(overlap), overlap, retrieval_time)


def fidelity_scan(
    params: drive.DriveParams,
    rates: evolver.DecoherenceRates,
    config: evolver.IntegratorConfig | None = None,
    n_periods: int = 1000,
    schedule: drive.RampSchedule | None = None,
) -> dict:
    """Fidelity of rho(nT) to the initial |1> for n = 0..n_periods.

    Returns arrays n, t, F and F2 (the overlap <1|rho|1>); both fidelity
    readings are emitted so either convention of the published scan can
    be checked.

    With t_off = inf the generator is T-periodic once the upload has
    ended, so rho is integrated directly only up to the first kT >= t_on
    + tau; the one-period propagator M over [kT, (k+1)T] then gives
    vec rho((n+1)T) = M vec rho(nT), and every rho(nT) is audited like an
    evolve sample.  The scan also returns M's diagnostics: lambda2, the
    second-largest |eigenvalue|, and fixed_rho11, rho11 of the unit-trace
    eigenvector of the eigenvalue nearest 1 (the plateau), NaN unless
    lambda2 < 1 - FIXED_POINT_GAP.  With a finite t_off, with kT already
    the last scanned period, or with rk4-fixed, the whole scan is
    integrated directly and both diagnostics are NaN.
    """
    _require_plannable(params)
    if not 1 <= n_periods <= evolver.MAX_POINTS:
        raise ValidationError(f"n_periods must be in 1..{evolver.MAX_POINTS}, got {n_periods}")
    period = params.period
    schedule = schedule or drive.RampSchedule.for_params(params)
    config = config or evolver.IntegratorConfig(method="dop853-adaptive")
    config = replace(config, sample_interval=period)
    upload_end = schedule.t_on + schedule.tau
    k = max(1, math.ceil(upload_end / period))
    if k * period < upload_end:
        k += 1
    periodic = math.isinf(schedule.t_off) and k < n_periods and config.method != "rk4-fixed"
    n_direct = k if periodic else n_periods

    rho0 = core.pure_density(core.basis_state(1))
    traj = evolver.evolve(
        rho0, params, schedule, rates, (0.0, n_direct * period), config=config
    )
    times = period * np.arange(n_periods + 1)
    f2 = np.empty(n_periods + 1)
    f2[: n_direct + 1] = traj.states[:, 0, 0].real
    fixed_rho11 = lambda2 = math.nan
    if periodic:
        m = evolver.period_propagator(params, schedule, rates, k * period, config)
        rho = traj.states[-1]
        for n in range(k + 1, n_periods + 1):
            rho = evolver._check_sample((m @ rho.ravel()).reshape(3, 3), times[n])
            f2[n] = rho[0, 0].real
        vals, vecs = np.linalg.eig(m)
        lambda2 = np.sort(np.abs(vals))[-2]
        if lambda2 < 1.0 - FIXED_POINT_GAP:
            fixed = vecs[:, np.argmin(np.abs(vals - 1.0))].reshape(3, 3)
            fixed_rho11 = (fixed[0, 0] / np.trace(fixed)).real
    f2 = f2.clip(0.0, 1.0)
    return {
        "n": np.arange(n_periods + 1),
        "t": times,
        "F": np.sqrt(f2),
        "F2": f2,
        "fixed_rho11": fixed_rho11,
        "lambda2": lambda2,
    }
