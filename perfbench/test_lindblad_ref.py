"""Closed-form checks of the benchmark's independent Lindblad reference.

    python3 -m pytest perfbench/test_lindblad_ref.py
"""

import math

import numpy as np
import pytest

import lindblad_ref as ref

FIG2A = ref.Drive.from_detunings(2.0, 2.0, 0.3, 0.2, 0.3, 0.2)


def _pure(psi):
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_drive_off_decay_rates():
    """Without fields |rho21| decays at gamma21/2 and rho33 at gamma31."""
    drive = ref.Drive.from_detunings(0.0, 0.0, 0.3, 0.2, 0.3, 0.2)
    rates = ref.Rates.reference()
    rho0 = _pure([1.0, 1.0j, 1.0])
    times = np.linspace(0.0, 8.0, 9)
    states = ref.evolve(rho0, drive, rates, ref.Schedule(0.0), 0.0, times)
    gamma21 = rates.g2deph + rates.g21
    gamma31 = rates.g31 + rates.g32 + rates.g3deph
    np.testing.assert_allclose(np.abs(states[:, 1, 0]),
                               abs(rho0[1, 0]) * np.exp(-gamma21 * times / 2.0), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(states[:, 2, 2].real,
                               rho0[2, 2].real * np.exp(-gamma31 * times), rtol=1e-9, atol=1e-12)


def test_closed_system_stays_pure():
    times = np.linspace(0.0, FIG2A.period, 5)
    states = ref.evolve(_pure([1.0, 0.0, 0.0]), FIG2A, ref.Rates(0.0, 0.0, 0.0, 0.0, 0.0),
                        ref.Schedule(0.01 * FIG2A.period), 0.0, times)
    purity = np.einsum("nij,nji->n", states, states).real
    np.testing.assert_allclose(purity, 1.0, atol=1e-10)


@pytest.mark.parametrize("t", [3.0, 41.0, 97.5])
@pytest.mark.parametrize("dphi", [0.0, 1.1, -2.5])
def test_dark_state_is_null_vector(t, dphi):
    """|a0(t)> = cos(delta t)|1> - i e^{-i dphi} sin(delta t)|2> on the plateau."""
    drive = ref.Drive.from_detunings(1.3, 1.3, 0.3, 0.2, 0.3, 0.2, phi12=dphi + 0.4, phi34=0.4)
    h = ref.hamiltonian(drive, ref.Schedule(0.0), t)
    a0 = ref.dark_state(drive, t)
    assert np.linalg.norm(a0) == pytest.approx(1.0)
    assert np.linalg.norm(h @ a0) < 1e-12


def test_liouvillian_matches_commutator_form():
    """The coefficient-form Liouvillian acts as -i[H, rho] + dissipators."""
    rates = ref.Rates(0.4, 0.5, 0.1, 0.03, 0.005)
    sched = ref.Schedule(10.0, counterintuitive=True)
    rho = _pure([0.6, 0.3 - 0.2j, 0.5j])
    for t in (2.0, 30.0):
        h = ref.hamiltonian(FIG2A, sched, t)
        want = -1j * (h @ rho - rho @ h)
        for op, g in (((0, 2), rates.g31), ((1, 2), rates.g32), ((2, 2), rates.g3deph),
                      ((1, 1), rates.g2deph), ((0, 1), rates.g21)):
            lop = np.zeros((3, 3), dtype=complex)
            lop[op] = 1.0
            sq = lop.conj().T @ lop
            want += (g / 2.0) * (2.0 * lop @ rho @ lop.conj().T - sq @ rho - rho @ sq)
        got = (ref.Liouvillian(FIG2A, rates, sched)(t) @ rho.ravel()).reshape(3, 3)
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_counterintuitive_upload_ramps_p_first():
    sched = ref.Schedule(10.0, t_off=50.0, counterintuitive=True)
    eps_p, eps_q = sched.envelopes(5.0)
    assert eps_p == pytest.approx(math.sin(math.pi / 4.0) ** 2) and eps_q == 1.0
    assert sched.envelopes(10.0) == (1.0, 1.0)
    assert sched.envelopes(55.0) == (pytest.approx(0.5), pytest.approx(0.5))
    assert sched.envelopes(60.0) == (0.0, 0.0)


def test_plateau_propagator_matches_direct_integration():
    rates = ref.Rates.reference()
    sched = ref.Schedule(0.01 * FIG2A.period)
    rho0 = _pure([1.0, 0.0, 0.0])
    pops = ref.periodic_populations(FIG2A, rates, sched, rho0, 3)
    direct = ref.evolve(rho0, FIG2A, rates, sched, 0.0, FIG2A.period * np.arange(4.0))
    np.testing.assert_allclose(pops, direct[:, 0, 0].real, atol=1e-10)
