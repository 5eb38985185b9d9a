"""Independent reference for the driven three-level Lindblad equation.

Written from the master equation that ods.evolver documents, and from
nothing in the ods package (this module does not import it):

    drho/dt = -i[H, rho] + (G31/2) D[s13] + (G32/2) D[s23]
              + (g3deph/2) D[s33] + (g2deph/2) D[s22] + (G21/2) D[s12],
    D[L] rho = 2 L rho L^dag - L^dag L rho - rho L^dag L,

with the rotating-frame Hamiltonian H = [[0, 0, P*], [0, D', Q*], [P, Q, D]]
on (|1>, |2>, |3>), where

    P = -i e^{-i phi12} eps_P O12 sin(delta t),
    Q = -e^{-i phi34} eps_Q O34 cos(delta t).

Everything is in the row-major vectorisation vec(rho) = rho.ravel(), where
vec(A rho B) = (A kron B^T) vec(rho), so the Liouvillian is the 9x9 matrix

    L(t) = L0 + Re P L_Pr + Im P L_Pi + Re Q L_Qr + Im Q L_Qi.

Integration uses DOP853 at RTOL/ATOL, three orders of magnitude tighter
than the program's default 1e-9.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-13


@dataclass(frozen=True)
class Drive:
    """ODS drive: equal half-splittings delta, common detuning D, offset D'."""

    omega12: float
    omega34: float
    delta: float
    big_delta: float
    big_delta_prime: float = 0.0
    phi12: float = 0.0
    phi34: float = 0.0

    @classmethod
    def from_detunings(cls, omega12, omega34, d1, d2, d3, d4, phi12=0.0, phi34=0.0):
        return cls(omega12, omega34, (d1 - d2) / 2.0, (d1 + d2) / 2.0,
                   ((d1 + d2) - (d3 + d4)) / 2.0, phi12, phi34)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / abs(self.delta)


@dataclass(frozen=True)
class Rates:
    """Spontaneous emission G31, G32, dephasing g3deph, g2deph, relaxation G21."""

    g31: float = 0.5
    g32: float = 0.5
    g3deph: float = 0.0
    g2deph: float = 0.02
    g21: float = 0.002

    @classmethod
    def reference(cls, g2deph=0.02):
        return cls(g2deph=g2deph, g21=g2deph / 10.0)



@dataclass(frozen=True)
class Schedule:
    """Raised-cosine upload over [0, tau], plateau, unload over [t_off, t_off+tau].

    counterintuitive: during the upload only the |1>-|3> pair P ramps (its
    beat factor sin(delta t) vanishes at t = 0); the |2>-|3> pair Q is at
    full amplitude.  The unload is shared.
    """

    tau: float
    t_off: float = math.inf
    counterintuitive: bool = False

    def envelopes(self, t: float):
        """(eps_P, eps_Q) at t >= 0."""
        if t >= self.t_off + self.tau:
            return 0.0, 0.0
        if t < self.tau:
            eps = math.sin(math.pi * t / (2.0 * self.tau)) ** 2
            return (eps, 1.0) if self.counterintuitive else (eps, eps)
        if t < self.t_off:
            return 1.0, 1.0
        eps = math.sin(math.pi * (1.0 - (t - self.t_off) / self.tau) / 2.0) ** 2
        return eps, eps


def couplings(drive: Drive, schedule: Schedule, t: float):
    eps_p, eps_q = schedule.envelopes(t)
    p = -1j * np.exp(-1j * drive.phi12) * eps_p * drive.omega12 * math.sin(drive.delta * t)
    q = -np.exp(-1j * drive.phi34) * eps_q * drive.omega34 * math.cos(drive.delta * t)
    return complex(p), complex(q)


def hamiltonian(drive: Drive, schedule: Schedule, t: float) -> np.ndarray:
    p, q = couplings(drive, schedule, t)
    return np.array([[0.0, 0.0, p.conjugate()],
                     [0.0, drive.big_delta_prime, q.conjugate()],
                     [p, q, drive.big_delta]], dtype=complex)


def dark_state(drive: Drive, t: float) -> np.ndarray:
    """Closed-form plateau dark state for O12 = O34:
    |a0(t)> = cos(delta t)|1> - i e^{-i dphi} sin(delta t)|2>."""
    dphi = drive.phi12 - drive.phi34
    th = drive.delta * t
    return np.array([math.cos(th), -1j * np.exp(-1j * dphi) * math.sin(th), 0.0])


def _unit(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def _commutator(h):
    """Superoperator of rho -> -i[h, rho]."""
    eye = np.eye(3)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def _dissipator(op, rate):
    eye = np.eye(3)
    sq = op.conj().T @ op
    return (rate / 2.0) * (2.0 * np.kron(op, op.conj()) - np.kron(sq, eye) - np.kron(eye, sq.T))


class Liouvillian:
    """L(t) in coefficient form for one drive, rate set and schedule."""

    def __init__(self, drive: Drive, rates: Rates, schedule: Schedule):
        self.drive, self.schedule = drive, schedule
        self.l0 = _commutator(np.diag([0.0, drive.big_delta_prime, drive.big_delta]).astype(complex))
        for op, rate in ((_unit(1, 3), rates.g31), (_unit(2, 3), rates.g32),
                         (_unit(3, 3), rates.g3deph), (_unit(2, 2), rates.g2deph),
                         (_unit(1, 2), rates.g21)):
            self.l0 = self.l0 + _dissipator(op, rate)
        e31, e32 = _unit(3, 1), _unit(3, 2)
        parts = [_commutator(x) for x in (
            e31 + e31.T, 1j * (e31 - e31.T), e32 + e32.T, 1j * (e32 - e32.T))]
        self._stack = np.array([self.l0] + parts).reshape(5, 81)

    def __call__(self, t: float) -> np.ndarray:
        p, q = couplings(self.drive, self.schedule, t)
        return (np.array([1.0, p.real, p.imag, q.real, q.imag]) @ self._stack).reshape(9, 9)


def _integrate(liou: Liouvillian, y0: np.ndarray, t0: float, t1: float, t_eval=None):
    shape = y0.shape

    def rhs(t, y):
        return (liou(t) @ y.reshape(shape)).ravel()

    sol = solve_ivp(rhs, (t0, t1), y0.ravel(), method="DOP853",
                    rtol=RTOL, atol=ATOL, t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol


def evolve(rho0, drive: Drive, rates: Rates, schedule: Schedule, t0: float, times) -> np.ndarray:
    """Density matrices (n, 3, 3) at the increasing sample times, from rho0 at t0."""
    times = np.asarray(times, dtype=float)
    y0 = np.asarray(rho0, dtype=complex).reshape(9)
    sol = _integrate(Liouvillian(drive, rates, schedule), y0, t0, float(times[-1]), t_eval=times)
    return sol.y.T.reshape(-1, 3, 3)


def propagator(drive: Drive, rates: Rates, schedule: Schedule, t0: float, t1: float) -> np.ndarray:
    """9x9 map M with vec rho(t1) = M vec rho(t0)."""
    sol = _integrate(Liouvillian(drive, rates, schedule), np.eye(9, dtype=complex), t0, t1)
    return sol.y[:, -1].reshape(9, 9)


def periodic_populations(drive: Drive, rates: Rates, schedule: Schedule, rho0, n_max: int) -> np.ndarray:
    """rho11(nT) for n = 0..n_max, for a schedule whose upload ends before T and
    that never unloads: direct integration to T, then the one-period plateau
    propagator M over [T, 2T], vec rho(nT) = M^(n-1) vec rho(T)."""
    period = drive.period
    if schedule.tau >= period or schedule.t_off != math.inf:
        raise ValueError("plateau propagator needs the upload to end before T and no unload")
    vec = evolve(rho0, drive, rates, schedule, 0.0, [period])[-1].reshape(9)
    m = propagator(drive, rates, schedule, period, 2.0 * period)
    out = [np.asarray(rho0)[0, 0].real, vec[0].real]
    for _ in range(2, n_max + 1):
        vec = m @ vec
        out.append(vec[0].real)
    return np.array(out[: n_max + 1])
