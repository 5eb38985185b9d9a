import math
from dataclasses import replace

import numpy as np
import pytest

from ods import (
    DecoherenceRates,
    DriveParams,
    IntegratorConfig,
    RampSchedule,
    ValidationError,
    IntegratorError,
    basis_state,
    evolve,
    period_propagator,
    pure_density,
)
from ods.core import projection_operator
from ods.drive import couplings, hamiltonian
from ods import evolver
from ods.evolver import MAX_POINTS, liouvillian
from tests.conftest import random_ods_params

# fields off: in the full frame the generator is the bare dissipator
FIELDS_OFF = DriveParams.ods(0.0, 0.0, delta=0.05)
PLATEAU = RampSchedule(tau=0.0, shape="instantaneous")
JUMPS = (
    ("gamma31_se", (1, 3)),
    ("gamma32_se", (2, 3)),
    ("gamma3_deph", (3, 3)),
    ("gamma2_deph", (2, 2)),
    ("gamma21_long", (1, 2)),
)


def lindblad_reference(rho, h, rates):
    """Loop-form -i[H, rho] + sum (g/2)(2 L rho L^dag - L^dag L rho - rho L^dag L)."""
    out = -1j * (h @ rho - rho @ h)
    for name, (i, j) in JUMPS:
        op = projection_operator(i, j)
        opd = op.conj().T
        out += (getattr(rates, name) / 2.0) * (
            2.0 * op @ rho @ opd - opd @ op @ rho - rho @ opd @ op
        )
    return out


def generator_rhs(rho, params, schedule, rates, t, frame="effective"):
    """drho/dt from the coefficient-form generator (L0 + c(t) . G) vec(rho)."""
    l0, gens = liouvillian(params, rates, frame)
    c31, c32 = couplings(params, schedule, t, frame)
    c = np.array([c31.real, c31.imag, c32.real, c32.imag])
    y = np.asarray(rho, dtype=complex).ravel()
    return (l0 @ y + c @ (gens @ y)).reshape(3, 3)


def random_density(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestDecoherenceRates:
    def test_defaults_normalize_gamma31(self):
        r = DecoherenceRates()
        assert r.gamma31 == 1.0
        assert r.gamma21 == pytest.approx(0.022)
        assert r.gamma21_long == pytest.approx(r.gamma2_deph / 10)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            DecoherenceRates(gamma31_se=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError):
            DecoherenceRates(gamma2_deph=value)

    def test_none(self):
        r = DecoherenceRates.none()
        assert r.gamma31 == 0.0 and r.gamma21 == 0.0


class TestIntegratorConfig:
    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "sample_interval"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError):
            IntegratorConfig(**{field: value})

    def test_non_finite_step_rejected(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(method="rk4-fixed", step=math.inf)


class TestLindbladRhs:
    """The generator built by liouvillian, checked against the loop form."""

    def test_ground_state_stationary(self):
        rho = pure_density(basis_state(1))
        d = generator_rhs(rho, FIELDS_OFF, PLATEAU, DecoherenceRates(), 0.0, "full")
        np.testing.assert_allclose(d, 0.0, atol=1e-15)

    def test_excited_state_decay_rates(self):
        rho = pure_density(basis_state(3))
        d = generator_rhs(rho, FIELDS_OFF, PLATEAU, DecoherenceRates(), 0.0, "full")
        assert d[2, 2].real == pytest.approx(-1.0)  # -(G31 + G32)
        assert d[0, 0].real == pytest.approx(0.5)  # G31
        assert d[1, 1].real == pytest.approx(0.5)  # G32

    def test_ground_coherence_decay(self):
        # rho21 perturbation decays at gamma21/2 = (G21 + g2deph)/2
        rho = np.eye(3, dtype=complex) / 3.0
        rho[1, 0] = rho[0, 1] = 0.1
        d = generator_rhs(rho, FIELDS_OFF, PLATEAU, DecoherenceRates(), 0.0, "full")
        assert d[1, 0].real == pytest.approx(-0.022 / 2 * 0.1)

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(2)
        for frame in ("effective", "full"):
            for _ in range(20):
                d = generator_rhs(random_density(rng), random_ods_params(rng), PLATEAU,
                                  DecoherenceRates(), rng.uniform(0, 300), frame)
                assert abs(np.trace(d)) < 1e-13
                assert np.max(np.abs(d - d.conj().T)) < 1e-13

    def test_matches_superoperator_matrix(self):
        # (L0 + c(t) . G) vec(rho) == -i[H, rho] + sum D[L] rho, H = hamiltonian(..., frame)
        rng = np.random.default_rng(9)
        for frame in ("effective", "full"):
            for _ in range(40):
                params = random_ods_params(rng)
                rates = DecoherenceRates(*rng.uniform(0.0, 1.0, size=5))
                rho = random_density(rng)
                t = rng.uniform(0, 300)
                expected = lindblad_reference(rho, hamiltonian(params, PLATEAU, t, frame), rates)
                got = generator_rhs(rho, params, PLATEAU, rates, t, frame)
                np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("frame", ["effective", "full"])
    def test_matches_loop_form_in_counterintuitive_upload(self, params_a, frame):
        schedule = RampSchedule.for_params(params_a, 0.1, shape="counterintuitive")
        rng = np.random.default_rng(10)
        rates = DecoherenceRates.reference()
        for t in rng.uniform(0.0, schedule.tau, size=20):
            rho = random_density(rng)
            expected = lindblad_reference(rho, hamiltonian(params_a, schedule, t, frame), rates)
            got = generator_rhs(rho, params_a, schedule, rates, t, frame)
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestEvolve:
    def test_no_drive_no_rates_constant(self, rho_ground):
        p = DriveParams.ods(0.0, 0.0, delta=0.05)
        traj = evolve(rho_ground, p, RampSchedule(0.0, shape="instantaneous"),
                      DecoherenceRates.none(), (0.0, 50.0))
        np.testing.assert_allclose(
            traj.states, np.broadcast_to(rho_ground, traj.states.shape), atol=1e-10
        )

    def test_invariant_suite_over_4T(self, params_a, schedule_a, reference_rates, rho_ground):
        traj = evolve(rho_ground, params_a, schedule_a, reference_rates,
                      (0.0, 4 * params_a.period))
        for rho in traj.states:
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_frame_equivalence(self, params_a, schedule_a, reference_rates, rho_ground):
        span = (0.0, 2 * params_a.period)
        t_eff = evolve(rho_ground, params_a, schedule_a, reference_rates, span, frame="effective")
        t_full = evolve(rho_ground, params_a, schedule_a, reference_rates, span, frame="full")
        for k in range(3):
            np.testing.assert_allclose(
                t_eff.states[:, k, k].real, t_full.states[:, k, k].real, atol=1e-6
            )

    def test_delta_phi_population_invariance(self, schedule_a, reference_rates, rho_ground):
        span = (0.0, 1.5 * DriveParams.fig2("a").period)
        pops = []
        for dphi in (0.0, 2.2):
            p = DriveParams.fig2("a", delta_phi=dphi)
            traj = evolve(rho_ground, p, schedule_a, reference_rates, span)
            pops.append(np.stack([traj.states[:, k, k].real for k in range(3)]))
        np.testing.assert_allclose(pops[0], pops[1], atol=1e-8)

    def test_closed_system_purity(self, params_a, schedule_a, rho_ground):
        traj = evolve(rho_ground, params_a, schedule_a, DecoherenceRates.none(),
                      (0.0, 4 * params_a.period))
        purity = np.einsum("nij,nji->n", traj.states, traj.states).real
        np.testing.assert_allclose(purity, 1.0, atol=1e-8)

    def test_rk4_step_halving_convergence(self, params_a, schedule_a, reference_rates, rho_ground):
        span = (0.0, params_a.period)
        ref = evolve(rho_ground, params_a, schedule_a, reference_rates, span,
                     IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12,
                                      sample_interval=span[1])).states[-1]
        errs = []
        for h in (0.5, 0.25):
            got = evolve(rho_ground, params_a, schedule_a, reference_rates, span,
                         IntegratorConfig(method="rk4-fixed", step=h,
                                          sample_interval=span[1])).states[-1]
            errs.append(np.max(np.abs(got - ref)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.5

    def test_sampling_cadence(self, params_a, schedule_a, reference_rates, rho_ground):
        traj = evolve(rho_ground, params_a, schedule_a, reference_rates, (0.0, params_a.period))
        assert len(traj.times) == 201  # default T/200 cadence
        assert np.all(np.diff(traj.times) > 0)

    def test_rejects_bad_inputs(self, params_a, schedule_a, reference_rates):
        with pytest.raises(ValidationError):
            evolve(np.diag([0.5, 0.6, 0.0]).astype(complex), params_a, schedule_a,
                   reference_rates, (0.0, 1.0))
        with pytest.raises(ValidationError):
            evolve(pure_density(basis_state(1)), params_a, schedule_a, reference_rates,
                   (1.0, 1.0))
        with pytest.raises(ValidationError):  # t_on off both beat nodes
            evolve(pure_density(basis_state(1)), params_a,
                   RampSchedule(tau=1.0, t_on=10.0, shape="counterintuitive"),
                   reference_rates, (10.0, 20.0))
        with pytest.raises(ValidationError):
            evolve(pure_density(basis_state(1)), params_a, schedule_a, reference_rates,
                   (0.0, 1.0), frame="lab")

    def test_caps_samples_and_steps(self, params_a, schedule_a, reference_rates, rho_ground):
        # each is rejected before anything is allocated or integrated
        span = (0.0, 10.0)
        with pytest.raises(ValidationError, match="samples"):
            evolve(rho_ground, params_a, schedule_a, reference_rates, span,
                   IntegratorConfig(sample_interval=span[1] / (2 * MAX_POINTS)))
        with pytest.raises(ValidationError, match="steps"):
            evolve(rho_ground, params_a, schedule_a, reference_rates, span,
                   IntegratorConfig(method="rk4-fixed", step=span[1] / (2 * MAX_POINTS),
                                    sample_interval=span[1]))
        with pytest.raises(ValidationError, match="t_end"):
            evolve(rho_ground, params_a, schedule_a, reference_rates, (0.0, math.inf))


class TestPeriodPropagator:
    def test_matches_evolve_over_one_period(self, params_a, reference_rates):
        # from inside the upload, so the period is not a plateau period
        schedule = RampSchedule.for_params(params_a, 0.1, shape="counterintuitive")
        config = IntegratorConfig(method="dop853-adaptive", sample_interval=params_a.period)
        m = period_propagator(params_a, schedule, reference_rates, 0.0, config)
        rng = np.random.default_rng(5)
        for _ in range(3):
            rho = random_density(rng)
            got = (m @ rho.ravel()).reshape(3, 3)
            traj = evolve(rho, params_a, schedule, reference_rates, (0.0, params_a.period), config)
            np.testing.assert_allclose(got, traj.states[-1], atol=1e-8)

    def test_preserves_trace_and_hermiticity(self, params_a, schedule_a, reference_rates):
        m = period_propagator(params_a, schedule_a, reference_rates, 2 * params_a.period)
        # tr(M vec E_ij) = delta_ij, and M maps Hermitian matrices to Hermitian ones
        trace_row = np.eye(3).ravel() @ m
        np.testing.assert_allclose(trace_row, np.eye(3).ravel(), atol=1e-8)
        h = random_density(np.random.default_rng(6))
        out = (m @ h.ravel()).reshape(3, 3)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_rejects_fixed_step_and_bad_inputs(self, params_a, schedule_a, reference_rates):
        with pytest.raises(ValidationError, match="adaptive"):
            period_propagator(params_a, schedule_a, reference_rates, 0.0,
                              IntegratorConfig(method="rk4-fixed", step=0.5))
        with pytest.raises(ValidationError):
            period_propagator(params_a, schedule_a, reference_rates, math.nan)
        with pytest.raises(ValidationError):
            period_propagator(params_a, schedule_a, reference_rates, 0.0, frame="lab")


class TestRhsBudget:
    def test_exceeding_budget_raises(self, params_a, schedule_a, reference_rates, rho_ground,
                                     monkeypatch):
        monkeypatch.setattr(evolver, "MAX_RHS_BASE", 100)
        monkeypatch.setattr(evolver, "MAX_RHS_PER_TIME", 1)
        with pytest.raises(IntegratorError, match="RHS evaluations"):
            evolve(rho_ground, params_a, schedule_a, reference_rates, (0.0, params_a.period))
        with pytest.raises(IntegratorError, match="RHS evaluations"):
            period_propagator(params_a, schedule_a, reference_rates, 0.0)

    def test_densest_solves_stay_well_inside(self, params_a, schedule_a, reference_rates,
                                             rho_ground, monkeypatch):
        # RK45 at 1e-12 is the densest solve of the test suite (criterion 7's
        # reference), and the scan's DOP853 propagator the longest per call
        used = []
        solve = evolver.solve_ivp

        def recording(fun, t_span, y0, **kw):
            sol = solve(fun, t_span, y0, **kw)
            budget = evolver.MAX_RHS_BASE + evolver.MAX_RHS_PER_TIME * (t_span[1] - t_span[0])
            used.append(sol.nfev / budget)
            return sol

        monkeypatch.setattr(evolver, "solve_ivp", recording)
        span = (0.0, params_a.period)
        evolve(rho_ground, params_a, schedule_a, reference_rates, span,
               IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12, sample_interval=span[1]))
        period_propagator(params_a, schedule_a, reference_rates, params_a.period,
                          IntegratorConfig(method="dop853-adaptive"))
        assert len(used) == 2 and max(used) < 0.5


class TestCounterintuitiveUpload:
    def test_frame_equivalence(self, params_a, reference_rates, rho_ground):
        schedule = RampSchedule.for_params(params_a, 0.1, shape="counterintuitive")
        span = (0.0, 0.5 * params_a.period)
        t_eff = evolve(rho_ground, params_a, schedule, reference_rates, span, frame="effective")
        t_full = evolve(rho_ground, params_a, schedule, reference_rates, span, frame="full")
        for k in range(3):
            np.testing.assert_allclose(
                t_eff.states[:, k, k].real, t_full.states[:, k, k].real, atol=1e-6
            )

    @pytest.mark.parametrize("tau_fraction", [0.05, 0.08, 0.1, 0.15, 0.2])
    def test_closed_transfer_at_adiabatic_limit(self, params_a, rho_ground, tau_fraction):
        # the pass does not hinge on one ramp length: every pump ramp lands
        # within the adiabatic-following leakage (delta/gap)^2 = 7.1e-4
        schedule = RampSchedule.for_params(params_a, tau_fraction, shape="counterintuitive")
        quarter = params_a.period / 4.0
        traj = evolve(rho_ground, params_a, schedule, DecoherenceRates.none(),
                      (0.0, quarter), IntegratorConfig(sample_interval=quarter))
        assert traj.states[-1][1, 1].real >= 0.999

    def test_starts_in_level_2_at_quarter_period(self, params_a):
        # t_on at a node of cos(delta t): the |2>-|3> pair ramps under a full
        # |1>-|3> pair, whose dark state |2> the atom starts in
        quarter = params_a.period / 4.0
        schedule = RampSchedule(0.1 * params_a.period, t_on=quarter, shape="counterintuitive")
        traj = evolve(pure_density(basis_state(2)), params_a, schedule, DecoherenceRates.none(),
                      (quarter, 2.0 * quarter), IntegratorConfig(sample_interval=quarter))
        assert traj.states[-1][0, 0].real >= 0.999


class TestObservables:
    def test_initial_sample(self, params_a, schedule_a, reference_rates, rho_ground):
        traj = evolve(rho_ground, params_a, schedule_a, reference_rates, (0.0, 10.0),
                      IntegratorConfig(sample_interval=5.0))
        obs = traj.observables()
        assert obs["rho11"][0] == pytest.approx(1.0)
        assert obs["rho22"][0] == pytest.approx(0.0, abs=1e-12)
        assert obs["abs_rho21_sq"][0] == pytest.approx(0.0, abs=1e-12)
        assert obs["dark_overlap"][0] == pytest.approx(1.0)

    def test_mixed_state_overlap(self, params_a, schedule_a):
        from ods.evolver import Trajectory

        rho = np.eye(3, dtype=complex) / 3.0
        traj = Trajectory(np.array([0.0, 31.0]), np.stack([rho, rho]), params_a,
                          schedule_a, DecoherenceRates.none())
        np.testing.assert_allclose(traj.observables()["dark_overlap"], 1 / 3, atol=1e-12)

    def test_dark_overlap_high_on_plateau(self, params_a, schedule_a, reference_rates, rho_ground):
        traj = evolve(rho_ground, params_a, schedule_a, reference_rates,
                      (0.0, 2 * params_a.period))
        obs = traj.observables()
        mid = (obs["t"] > 0.5 * params_a.period) & (obs["t"] < 1.5 * params_a.period)
        assert obs["dark_overlap"][mid].min() >= 0.95
