"""End-to-end acceptance suite.

Each criterion prints a PASS/FAIL line with the measured numbers so a
plain pytest run doubles as an acceptance report.  Criteria marked by a
failing assert are genuine misses, not loosened thresholds.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ods import (
    DecoherenceRates,
    DriveParams,
    IntegratorConfig,
    RampSchedule,
    TargetState,
    analytic_eigensystem,
    basis_state,
    dark_state,
    evolve,
    evolving_margin,
    fidelity_scan,
    hamiltonian,
    numerical_eigensystem,
    plan_superposition,
    plan_transfer_protocol,
    pure_density,
    run_protocol,
)
from ods.cli import estimate_period
from ods.eigensystem import phase_align
from ods.planner import predicted_state
from tests.conftest import random_ods_params

T_A = DriveParams.fig2("a").period


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def run_variant(variant: str):
    params = DriveParams.fig2(variant)
    schedule = RampSchedule.for_params(params)
    start = time.perf_counter()
    traj = evolve(
        pure_density(basis_state(1)), params, schedule, DecoherenceRates.reference(),
        (0.0, 4.0 * params.period),
    )
    return params, schedule, traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig2a_run():
    return run_variant("a")


class TestCriterion1Fig2a:
    def test_period_within_one_percent(self, fig2a_run):
        _, _, traj, _ = fig2a_run
        obs = traj.observables()
        period = estimate_period(obs["t"], obs["rho11"], obs["rho22"])
        ok = abs(period - T_A) / T_A < 0.01
        report("criterion 1(i) population period",
               ok, f"estimate {period:.6f} vs T {T_A:.6f}")
        assert ok

    def test_excited_population_stays_small(self, fig2a_run):
        _, schedule, traj, _ = fig2a_run
        obs = traj.observables()
        plateau = obs["t"] >= schedule.tau
        peak = obs["rho33"][plateau].max()
        report("criterion 1(ii) max rho33 on plateau", peak < 0.02, f"{peak:.6f} < 0.02")
        assert peak < 0.02

    def test_coherence_tracks_population_product(self, fig2a_run):
        _, schedule, traj, _ = fig2a_run
        obs = traj.observables()
        plateau = obs["t"] >= schedule.tau
        defect = np.abs(obs["abs_rho21_sq"] - obs["rho11"] * obs["rho22"])[plateau].max()
        report("criterion 1(iii) |rho21|^2 vs rho11 rho22",
               defect < 0.05, f"max defect {defect:.6f} < 0.05")
        assert defect < 0.05

    def test_runtime(self, fig2a_run):
        _, _, _, elapsed = fig2a_run
        report("criterion 1 runtime", elapsed < 10.0, f"{elapsed:.2f} s < 10 s")
        assert elapsed < 10.0


class TestCriterion2Regimes:
    def test_marginal_drive_excursions(self):
        _, schedule, traj, elapsed = run_variant("b")
        obs = traj.observables()
        plateau = obs["t"] >= schedule.tau
        peak33 = obs["rho33"][plateau].max()
        amp11 = obs["rho11"][plateau].max() - obs["rho11"][plateau].min()
        ok = peak33 > 0.02 and amp11 > 0.5 and elapsed < 10.0
        report("criterion 2 omega=0.2 regime", ok,
               f"max rho33 {peak33:.4f} > 0.02, rho11 amplitude {amp11:.4f} > 0.5, "
               f"{elapsed:.2f} s")
        assert ok

    def test_violated_drive_no_coherence(self):
        _, _, traj, elapsed = run_variant("c")
        peak = traj.observables()["abs_rho21_sq"].max()
        ok = peak < 0.01 and elapsed < 10.0
        report("criterion 2 omega=0.08 regime", ok,
               f"max |rho21|^2 {peak:.6f} < 0.01, {elapsed:.2f} s")
        assert ok


class TestCriterion3Transfer:
    @staticmethod
    def rho22_at_quarter_period(rates):
        # the pair-ordered upload follows the dark state adiabatically; a
        # shared-envelope upload starts suddenly and cannot reach 0.999
        params = DriveParams.fig2("a")
        schedule = RampSchedule.for_params(params, 0.1, shape="counterintuitive")
        traj = evolve(
            pure_density(basis_state(1)), params, schedule, rates,
            (0.0, params.period / 4.0),
            IntegratorConfig(sample_interval=params.period / 4.0),
        )
        return traj.states[-1][1, 1].real

    def test_open_system(self):
        start = time.perf_counter()
        p22 = self.rho22_at_quarter_period(DecoherenceRates.reference())
        elapsed = time.perf_counter() - start
        ok = p22 >= 0.95 and elapsed < 5.0
        report("criterion 3 open-system transfer", ok,
               f"rho22(T/4) = {p22:.6f} >= 0.95, {elapsed:.2f} s")
        assert ok

    def test_closed_system(self):
        p22 = self.rho22_at_quarter_period(DecoherenceRates.none())
        ok = p22 >= 0.999
        report("criterion 3 closed-system transfer", ok,
               f"rho22(T/4) = {p22:.10f} vs 0.999 "
               "(counter-intuitive 0.1 T upload; adiabatic-following leakage "
               "~(delta/gap)^2 = 7.1e-4 for delta=0.05, omega=2)")
        assert ok


@pytest.fixture(scope="module")
def scan():
    start = time.perf_counter()
    data = fidelity_scan(DriveParams.fig2("a"), DecoherenceRates.reference(),
                         n_periods=1000)
    return data, time.perf_counter() - start


class TestCriterion4LongScan:
    def test_fidelity_floor_and_plateau(self, scan):
        data, _ = scan
        samples = {n: data["F"][n] for n in (1, 2, 5, 10, 50, 100, 500, 1000)}
        floor_ok = all(f > 0.95 for f in samples.values())
        plateau_ok = abs(samples[1000] - samples[10]) < 0.03
        drop_ok = data["F"][0] == 1.0 and samples[1] <= 0.999
        ok = floor_ok and plateau_ok and drop_ok
        report("criterion 4 long-horizon fidelity", ok,
               "F(nT): " + ", ".join(f"{n}:{f:.4f}" for n, f in samples.items())
               + f"; |F(1000T)-F(10T)| = {abs(samples[1000]-samples[10]):.5f} < 0.03"
               + f"; drop within first period: {drop_ok}")
        assert ok

    def test_runtime(self, scan):
        _, elapsed = scan
        report("criterion 4 runtime", elapsed < 300.0, f"{elapsed:.1f} s < 300 s")
        assert elapsed < 300.0


class TestCriterion5Eigensystem:
    def test_thousand_random_draws(self):
        rng = np.random.default_rng(42)
        plateau = RampSchedule(tau=0.0, shape="instantaneous")
        worst_val = worst_vec = worst_res = 0.0
        for _ in range(1000):
            p = random_ods_params(rng)
            t = rng.uniform(0.0, 300.0)
            es = analytic_eigensystem(p, plateau, t)
            h = hamiltonian(p, plateau, t)
            vals, vecs = numerical_eigensystem(h)
            analytic = np.array(sorted([0.0, es.lambda_plus, es.lambda_minus]))
            worst_val = max(worst_val, np.max(np.abs(vals - analytic)))
            worst_res = max(worst_res, np.linalg.norm(h @ es.a0))
            for lam, vec in ((0.0, es.a0), (es.lambda_plus, es.a_plus),
                             (es.lambda_minus, es.a_minus)):
                col = vecs[:, np.argmin(np.abs(vals - lam))]
                worst_vec = max(worst_vec,
                                np.max(np.abs(phase_align(col, vec) - vec)))
        ok = worst_val < 1e-9 and worst_vec < 1e-9 and worst_res < 1e-10
        report("criterion 5 eigensystem oracle", ok,
               f"worst |dlambda| {worst_val:.2e} < 1e-9, "
               f"worst amplitude error {worst_vec:.2e} < 1e-9, "
               f"worst H|a0| {worst_res:.2e} < 1e-10 over 1000 draws")
        assert ok


class TestCriterion6Adiabaticity:
    def test_three_regimes(self):
        plateau = RampSchedule(tau=0.0, shape="instantaneous")
        expected = {"a": "adiabatic", "b": "marginal", "c": "violated"}
        results = []
        ok = True
        for variant, regime in expected.items():
            p = DriveParams.fig2(variant)
            rep = evolving_margin(p, plateau, 10.0)
            root = math.sqrt(p.big_delta**2 + 4.0 * p.omega12**2)
            gap = min(abs(0.5 * (p.big_delta + root)), abs(0.5 * (p.big_delta - root)))
            oracle = (p.delta / gap) ** 2
            ok &= rep.regime == regime and abs(rep.ratio - oracle) < 0.05 * oracle
            results.append(f"{variant}: {rep.ratio:.4g} ({rep.regime})")
        report("criterion 6 adiabaticity classification", ok, "; ".join(results))
        assert ok


class TestCriterion7EvolverInvariants:
    def test_invariant_suite(self):
        params = DriveParams.fig2("a")
        schedule = RampSchedule.for_params(params)
        rates = DecoherenceRates.reference()
        rho0 = pure_density(basis_state(1))
        span = (0.0, 4.0 * params.period)

        traj = evolve(rho0, params, schedule, rates, span)
        trace_defect = max(abs(np.trace(r).real - 1.0) for r in traj.states)
        herm_defect = max(np.max(np.abs(r - r.conj().T)) for r in traj.states)
        min_eig = min(np.linalg.eigvalsh(r).min() for r in traj.states)

        half = (0.0, 2.0 * params.period)
        t_eff = evolve(rho0, params, schedule, rates, half, frame="effective")
        t_full = evolve(rho0, params, schedule, rates, half, frame="full")
        frame_defect = max(
            np.max(np.abs(t_eff.states[:, k, k].real - t_full.states[:, k, k].real))
            for k in range(3)
        )

        shifted = DriveParams.fig2("a", delta_phi=1.3)
        t_shift = evolve(rho0, shifted, schedule, rates, half)
        phase_defect = max(
            np.max(np.abs(t_eff.states[:, k, k].real - t_shift.states[:, k, k].real))
            for k in range(3)
        )

        # purity probes solver accuracy directly, so run it tight enough that
        # the 1e-8 target reflects the physics rather than the step control
        closed = evolve(rho0, params, schedule, DecoherenceRates.none(), span,
                        IntegratorConfig(method="dop853-adaptive",
                                         abs_tol=1e-11, rel_tol=1e-11))
        purity_defect = np.max(np.abs(
            np.einsum("nij,nji->n", closed.states, closed.states).real - 1.0
        ))

        ref = evolve(rho0, params, schedule, rates, (0.0, params.period),
                     IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12,
                                      sample_interval=params.period)).states[-1]
        errs = [
            np.max(np.abs(
                evolve(rho0, params, schedule, rates, (0.0, params.period),
                       IntegratorConfig(method="rk4-fixed", step=h,
                                        sample_interval=params.period)).states[-1] - ref
            ))
            for h in (0.5, 0.25)
        ]
        order = math.log2(errs[0] / errs[1])

        ok = (trace_defect < 1e-8 and herm_defect < 1e-9 and min_eig > -1e-8
              and frame_defect < 1e-6 and phase_defect < 1e-8
              and purity_defect < 1e-8 and order >= 3.5)
        report("criterion 7 evolver invariants", ok,
               f"trace {trace_defect:.2e}, herm {herm_defect:.2e}, "
               f"min eig {min_eig:.2e}, frame {frame_defect:.2e}, "
               f"delta_phi {phase_defect:.2e}, purity {purity_defect:.2e}, "
               f"RK order {order:.2f}")
        assert ok


class TestCriterion8Planner:
    def test_closed_form_inversion(self):
        params = DriveParams.fig2("a")
        rng = np.random.default_rng(5)
        worst = 1.0
        for _ in range(200):
            target = TargetState(rng.uniform(0.0, math.pi / 2.0),
                                 rng.uniform(-math.pi, math.pi))
            plan = plan_superposition(target, params)
            worst = min(worst, abs(np.vdot(target.amplitudes,
                                           predicted_state(plan, params))))
        ok = worst > 1.0 - 1e-12
        report("criterion 8 closed-form inversion", ok,
               f"worst overlap 1 - {1.0 - worst:.2e} over 200 targets")
        assert ok

    def test_simulated_preparation(self):
        params = DriveParams.fig2("a")
        rates = DecoherenceRates.reference()
        rho0 = pure_density(basis_state(1))
        rng = np.random.default_rng(6)
        worst = 1.0
        for _ in range(20):
            target = TargetState(rng.uniform(0.0, math.pi / 2.0),
                                 rng.uniform(-math.pi, math.pi))
            plan = plan_superposition(target, params)
            worst = min(worst, run_protocol(plan, rho0, params, rates).fidelity)
        ok = worst >= 0.95
        report("criterion 8 simulated preparation", ok,
               f"worst fidelity {worst:.4f} >= 0.95 over 20 targets")
        assert ok


class TestCriterion9CoherenceDecay:
    def test_measured_decay_rate(self):
        # drive off: only the dissipators act on the ground-level coherence
        params = DriveParams.ods(0.0, 0.0, delta=0.05, big_delta=0.0)
        rates = DecoherenceRates.reference()
        psi = (basis_state(1) + basis_state(2)) / math.sqrt(2.0)
        t_end = 50.0
        traj = evolve(pure_density(psi), params,
                      RampSchedule(0.0, shape="instantaneous"), rates,
                      (0.0, t_end), IntegratorConfig(sample_interval=t_end))
        measured = -math.log(abs(traj.states[-1][1, 0]) / 0.5) / t_end
        expected = rates.gamma21 / 2.0
        ok = abs(measured - expected) < 1e-3 * expected
        report("criterion 9 coherence decay", ok,
               f"measured {measured:.8f} vs gamma21/2 = {expected:.8f} "
               f"(rel err {abs(measured - expected) / expected:.2e} < 1e-3)")
        assert ok
