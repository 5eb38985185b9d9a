"""Master-equation integration for the driven three-level atom.

The equation of motion is

    drho/dt = -i[H, rho] + (G31/2) D[s13] + (G32/2) D[s23]
              + (g3deph/2) D[s33] + (g2deph/2) D[s22] + (G21/2) D[s12],

with D[L] rho = 2 L rho L^dag - L^dag L rho - rho L^dag L.  H is either
the rotating-frame Hamiltonian or the explicit four-field one; the two
differ by a diagonal time-dependent phase transformation under which all
five dissipators are invariant, so populations agree between frames.

On the row-major vec(rho) both frames integrate one 9x9 generator in
coefficient form, L(t) = L0 + sum_k c_k(t) G_k with
c = (Re c31, Im c31, Re c32, Im c32) from drive.couplings.  L0 holds the
dissipators and the frame's constant detunings; G_k = -i[H_k, .] for the
unit coupling H_k.  liouvillian builds (L0, G) once per evolve.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import core, drive
from .eigensystem import dark_state
from .errors import DivergenceError, IntegratorError, ValidationError

METHODS = ("rk45-adaptive", "dop853-adaptive", "rk4-fixed")
_SCIPY_METHOD = {"rk45-adaptive": "RK45", "dop853-adaptive": "DOP853"}

POSITIVITY_FAIL = 1e-6
TRACE_FAIL = 1e-6

# Upper bound on the samples, and on the rk4-fixed steps, of one evolve
MAX_POINTS = 1_000_000

# each rate and its Lindblad operator |i><j|
_JUMPS = (("gamma31_se", 1, 3), ("gamma32_se", 2, 3), ("gamma3_deph", 3, 3),
          ("gamma2_deph", 2, 2), ("gamma21_long", 1, 2))


@dataclass(frozen=True)
class DecoherenceRates:
    """The five dissipation rates, in units of gamma31.

    Defaults keep the coherence decay rates at their reference values:
    gamma31 = G31 + G32 + g3deph = 1 (unit normalization, radiative decay
    split evenly between the two ground levels) and
    gamma21 = G21 + g2deph = 0.022 with G21 = g2deph/10.
    """

    gamma31_se: float = 0.5
    gamma32_se: float = 0.5
    gamma3_deph: float = 0.0
    gamma2_deph: float = 0.02
    gamma21_long: float = 0.002

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 <= value < math.inf:
                raise ValidationError(f"rate {name} must be finite and >= 0, got {value}")

    @property
    def gamma31(self) -> float:
        return self.gamma31_se + self.gamma32_se + self.gamma3_deph

    @property
    def gamma21(self) -> float:
        return self.gamma21_long + self.gamma2_deph

    @classmethod
    def none(cls):
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def reference(cls, gamma2_deph: float = 0.02):
        """Reference rates with G21 estimated at one tenth of g2deph."""
        return cls(gamma2_deph=gamma2_deph, gamma21_long=gamma2_deph / 10.0)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45-adaptive"
    step: float | None = None
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    sample_interval: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown integrator method {self.method!r}")
        drive.require_finite(step=self.step, abs_tol=self.abs_tol, rel_tol=self.rel_tol,
                             sample_interval=self.sample_interval)
        if self.method == "rk4-fixed" and (self.step is None or self.step <= 0):
            raise ValidationError("rk4-fixed requires a positive step")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValidationError("tolerances must be > 0")
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise ValidationError("sample_interval must be > 0")


@dataclass
class Trajectory:
    """Time-ordered density-matrix samples of one evolution run."""

    times: np.ndarray
    states: np.ndarray  # (n, 3, 3) complex
    params: drive.DriveParams
    schedule: drive.RampSchedule
    rates: DecoherenceRates
    frame: str = "effective"

    def observables(self) -> dict:
        """Per-sample populations, ground coherence and dark-state overlap.

        rho21 = <2|rho|1>.  The dark overlap <a0(t)|rho|a0(t)> uses the
        dark state of the schedule's pair envelopes at t and only involves
        the ground-level block, which the full/effective frame change leaves
        untouched; it is NaN for non-ODS drive parameters.
        """
        r = self.states
        out = {
            "t": self.times.copy(),
            "rho11": r[:, 0, 0].real.copy(),
            "rho22": r[:, 1, 1].real.copy(),
            "rho33": r[:, 2, 2].real.copy(),
            "re_rho21": r[:, 1, 0].real.copy(),
            "im_rho21": r[:, 1, 0].imag.copy(),
            "abs_rho21_sq": np.abs(r[:, 1, 0]) ** 2,
        }
        if self.params.is_ods_valid:
            overlap = np.empty(len(self.times))
            for k, t in enumerate(self.times):
                a0 = dark_state(self.params, t, self.schedule)
                overlap[k] = np.vdot(a0, r[k] @ a0).real
        else:
            overlap = np.full(len(self.times), np.nan)
        out["dark_overlap"] = overlap
        return out


def _commutator(h: np.ndarray) -> np.ndarray:
    """9x9 superoperator of rho -> -i[h, rho] on the row-major vec(rho)."""
    eye = np.eye(3)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def dissipator_matrix(rates: DecoherenceRates) -> np.ndarray:
    """9x9 superoperator D with vec(drho_dissipative) = D @ vec(rho)."""
    eye = np.eye(3)
    d = np.zeros((9, 9), dtype=complex)
    for name, i, j in _JUMPS:
        op = core.projection_operator(i, j)
        opsq = op.conj().T @ op
        d += (getattr(rates, name) / 2.0) * (
            2.0 * np.kron(op, op.conj())
            - np.kron(opsq, eye)
            - np.kron(eye, opsq.T)
        )
    return d


def liouvillian(params: drive.DriveParams, rates: DecoherenceRates, frame: str = "effective"):
    """The frame's generator as (L0, G): L0 is 9x9, G stacks the four G_k (4x9x9)."""
    l0 = dissipator_matrix(rates) + _commutator(np.diag(drive.frame_detunings(params, frame)))
    s31, s32 = core.projection_operator(3, 1), core.projection_operator(3, 2)
    units = (s31 + s31.T, 1j * (s31 - s31.T), s32 + s32.T, 1j * (s32 - s32.T))
    return l0, np.stack([_commutator(h) for h in units])


def _check_sample(rho: np.ndarray, t: float) -> np.ndarray:
    if not np.all(np.isfinite(rho)):
        raise DivergenceError(f"non-finite density matrix at t = {t}")
    rho = core.hermitize(rho)
    trace = np.trace(rho).real
    if abs(trace - 1.0) > TRACE_FAIL:
        raise IntegratorError(f"trace defect {abs(trace - 1.0):.3e} at t = {t}")
    min_eig = np.linalg.eigvalsh(rho).min()
    if min_eig < -POSITIVITY_FAIL:
        raise IntegratorError(
            f"positivity violation ({min_eig:.3e}) at t = {t}; tighten tolerances"
        )
    return rho


def _sample_times(t_span, interval):
    t0, t1 = t_span
    if (t1 - t0) / interval > MAX_POINTS:
        raise ValidationError(f"more than {MAX_POINTS} samples; raise sample_interval")
    n = max(1, int(round((t1 - t0) / interval)))
    times = t0 + interval * np.arange(n + 1)
    times[-1] = min(times[-1], t1)
    if times[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        times = np.append(times, t1)
    return times


def evolve(
    rho0: np.ndarray,
    params: drive.DriveParams,
    schedule: drive.RampSchedule,
    rates: DecoherenceRates,
    t_span,
    config: IntegratorConfig | None = None,
    frame: str = "effective",
) -> Trajectory:
    """Integrate the master equation over t_span and sample the trajectory.

    Samples are re-Hermitized (numerical hygiene) and then audited: trace
    and positivity are asserted, never repaired.
    """
    config = config or IntegratorConfig()
    rho0 = np.asarray(rho0, dtype=complex)
    core.assert_density(rho0)
    t0, t1 = float(t_span[0]), float(t_span[1])
    drive.require_finite(t_start=t0, t_end=t1)
    if not t1 > t0:
        raise ValidationError("t_span must be increasing")
    if schedule.shape == "counterintuitive":
        schedule.ramped_pair(params)  # rejects a t_on off both beat nodes
    if config.method == "rk4-fixed" and (t1 - t0) / config.step > MAX_POINTS:
        raise ValidationError(f"more than {MAX_POINTS} rk4-fixed steps; raise step")

    interval = config.sample_interval
    if interval is None:
        interval = params.period / 200.0 if params.is_ods_valid else (t1 - t0) / 400.0
    times = _sample_times((t0, t1), interval)
    l0, gens = liouvillian(params, rates, frame)  # rejects a frame outside drive.FRAMES

    def rhs(t, y):
        c31, c32 = drive.couplings(params, schedule, t, frame)
        return l0 @ y + np.array((c31.real, c31.imag, c32.real, c32.imag)) @ (gens @ y)

    if config.method == "rk4-fixed":
        states = _integrate_rk4(rhs, rho0, times, config.step)
    else:
        sol = solve_ivp(
            rhs,
            (t0, t1),
            rho0.ravel(),
            t_eval=times,
            method=_SCIPY_METHOD[config.method],
            rtol=config.rel_tol,
            atol=config.abs_tol,
        )
        if not sol.success:
            raise IntegratorError(f"integration failed: {sol.message}")
        states = sol.y.T.reshape(-1, 3, 3)

    checked = np.empty_like(states)
    for k, t in enumerate(times):
        checked[k] = _check_sample(states[k], t)
    return Trajectory(times, checked, params, schedule, rates, frame)


def _integrate_rk4(rhs, rho0, times, step):
    """Classic fixed-step RK4 on vec(rho), re-Hermitized after each step."""
    states = np.empty((len(times), 3, 3), dtype=complex)
    states[0] = rho0
    y = rho0.ravel().copy()
    t = times[0]
    for k in range(1, len(times)):
        t_target = times[k]
        while t < t_target - 1e-12:
            h = min(step, t_target - t)
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
            k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y = core.hermitize(y.reshape(3, 3)).ravel()
            t += h
        states[k] = y.reshape(3, 3)
    return states
