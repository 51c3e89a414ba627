"""End-to-end acceptance runs.

Each test prints one [ACCEPTANCE n] PASS/FAIL line (visible with -s) and
asserts the same condition, so the suite doubles as a human-readable
checklist and a hard gate.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gridfreq.certify import (check_secondary_lmi, first_order_min_damping,
                              search_certificate, second_order_min_damping)
from gridfreq.cli import RunFlags, run
from gridfreq.control import ControllerGains
from gridfreq.dispatch import DispatchProblem, solve_dispatch
from gridfreq.fixtures import fixture_path
from gridfreq.generation import (LtiGenerator, dc_gain, make_first_order,
                                 make_second_order)
from gridfreq.network import Bus, BusKind, CommEdge, Line, PowerNetwork
from gridfreq.sim import (Scenario, compute_equilibrium, dissipation_check,
                          equilibrium_system_state, integrate, lyapunov_value)
from reference import check_primary, output, second_order_certificate


def _report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE {num}] {label}: " + ("PASS" if ok else "FAIL")
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_frequency_restoration(two_gen_scenario):
    scn = two_gen_scenario
    assert sum(scn.step_loads.values()) == pytest.approx(0.4)
    t0 = time.perf_counter()
    traj = integrate(scn)
    elapsed = time.perf_counter() - t0
    final = float(np.max(np.abs(traj.freqs[-1])))
    ok = final < 1e-4 and elapsed < 2.0
    _report(1, "frequency restoration", ok,
            f"final max |omega| = {final:.3e}, runtime {elapsed:.2f}s")


def test_02_optimal_allocation(two_gen_scenario):
    allocation, nu = solve_dispatch(DispatchProblem(costs={0: 1.0, 1: 2.0},
                                                    total_load=3.0))
    oracle_ok = nu == pytest.approx(2.0, abs=1e-12) and \
        allocation == pytest.approx({0: 2.0, 1: 1.0}, abs=1e-12)

    report = run(two_gen_scenario, RunFlags(optimal_gains=True))
    assert report.exit_code == 0
    status, detail = report.checks["dispatch-optimality"]
    ok = oracle_ok and status == "pass"
    _report(2, "optimal allocation", ok,
            f"oracle nu=2 p=(2,1) {'ok' if oracle_ok else 'WRONG'}; "
            f"marginal sync {status} {detail}".strip())


def test_03_lyapunov_dissipation(ring9_scenario):
    scn = ring9_scenario
    assert max(abs(v) for v in scn.step_loads.values()) <= 0.2
    certs = {}
    for g in scn.network.generator_ids:
        cert = search_certificate(scn.generators[g], scn.controllers[g],
                                  scn.network.bus(g).damping)
        assert cert is not None, f"generator {g} did not certify"
        certs[g] = cert
    eq = compute_equilibrium(scn)
    t0 = time.perf_counter()
    traj = integrate(scn)
    jump = dissipation_check(lyapunov_value(scn, certs, eq, traj.states))
    elapsed = time.perf_counter() - t0
    ok = jump <= 1e-8 and elapsed < 10.0
    _report(3, "Lyapunov dissipation", ok,
            f"max V jump = {jump:.3e}, runtime {elapsed:.2f}s")


def test_04_damping_threshold_flip():
    taus = [0.01, 0.1, 1.0, 10.0, 100.0]
    params = ControllerGains(gamma=1.0, k_f=1.0, k_c=1.0, k_d=1.0, q=1.0)
    threshold = second_order_min_damping(1.0, 1.0, 1.0)
    assert threshold == pytest.approx(1 / 3)
    bad = []
    for lam, expect in [(0.30, False), (0.34, True)]:
        for tau_a in taus:
            for tau_p in taus:
                gen = make_second_order(tau_a, tau_p, 1.0)
                cert = dataclasses.replace(
                    second_order_certificate(tau_a, tau_p, 1.0, 1.0, 1.0),
                    lambda_hat=lam * (1.0 - 1e-3))
                got = check_secondary_lmi(gen, params, cert, lam)
                if got != expect:
                    bad.append((lam, tau_a, tau_p))
    _report(4, "damping threshold flip at 1/3", not bad,
            f"50 grid checks, {len(bad)} mismatches")


def test_05_submatrix_necessity():
    rng = np.random.default_rng(424242)
    counterexamples = 0
    total = 0
    for trial in range(120):
        k_gain = float(10.0 ** rng.uniform(-1, 1))
        k_c = float(10.0 ** rng.uniform(-1, 1))
        k_d = float(10.0 ** rng.uniform(-1, 1))
        if trial % 2 == 0:
            gen = make_first_order(float(10.0 ** rng.uniform(-1.3, 0.7)), k_gain)
            threshold = first_order_min_damping(k_gain, k_c, k_d)
        else:
            gen = make_second_order(float(10.0 ** rng.uniform(-1.3, 0.7)),
                                    float(10.0 ** rng.uniform(-1.3, 0.7)), k_gain)
            threshold = second_order_min_damping(k_gain, k_c, k_d)
        lam = threshold * float(rng.uniform(1.1, 3.0)) + 0.01
        params = ControllerGains(gamma=1.0, k_f=float(10.0 ** rng.uniform(-1, 1)),
                                 k_c=k_c, k_d=k_d, q=1.0)
        cert = search_certificate(gen, params, lam)
        assert cert is not None, f"instance {trial} failed to certify"
        assert check_secondary_lmi(gen, params, cert, lam)
        total += 1
        if not check_primary(gen, params.k_d, cert, lam):
            counterexamples += 1
    ok = total >= 100 and counterexamples == 0
    _report(5, "submatrix necessity", ok,
            f"{total} certified instances, {counterexamples} counterexamples")


def test_06_dc_gain_consistency():
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.normal(scale=0.3, size=(n, n))
        np.fill_diagonal(a, 0.0)
        diag = rng.uniform(-2.0, -0.5, size=n)
        for i in range(n):
            row = np.abs(a[i]).sum()
            if row > 0.3 * abs(diag[i]):
                a[i] *= 0.3 * abs(diag[i]) / row
            a[i, i] = diag[i]
        gen = LtiGenerator(a_matrix=tuple(map(tuple, a)),
                           b_vector=tuple(rng.normal(size=n)),
                           c_vector=tuple(rng.normal(size=n)),
                           d_scalar=0.0, order=n)
        u = 0.7
        t_slow = 1.0 / min(abs(np.linalg.eigvals(a).real))
        dt = t_slow / 100.0
        steps = 10000  # 100x the slowest time constant
        b = np.array(gen.b_vector) * u
        # One RK4 step of x' = A x + b is x+ = Phi x + Psi b exactly, with
        # Phi = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and
        # Psi = h (I + hA/2 + (hA)^2/6 + (hA)^3/24).
        ha = dt * a
        ha2 = ha @ ha
        ha3 = ha2 @ ha
        phi = np.eye(n) + ha + ha2 / 2 + ha3 / 6 + ha3 @ ha / 24
        psi_b = dt * (b + ha @ b / 2 + ha2 @ b / 6 + ha3 @ b / 24)
        x = np.zeros(n)
        for _ in range(steps):
            x = phi @ x + psi_b
        worst = max(worst, abs(output(gen, x, u) - dc_gain(gen) * u))
    _report(6, "dc-gain step-response consistency", worst < 1e-6,
            f"worst terminal mismatch = {worst:.3e} over 20 random blocks")


def test_07_equilibrium_invariance_and_order(two_gen_scenario):
    base = two_gen_scenario

    # part 1: the computed equilibrium is a fixed point of the integrator
    scn = dataclasses.replace(base, disturbance_time=0.0, t_end=10.0)
    eq = compute_equilibrium(scn)
    start = equilibrium_system_state(scn, eq)
    final = integrate(scn, initial_state=start).states[-1]
    # the start has zero frequencies and every command at nu
    drift = float(np.max(np.abs(final - start)))

    # part 2: halving dt cuts the terminal error by ~2^4
    def terminal(dt):
        scn = dataclasses.replace(base, t_end=5.0, dt=dt, output_stride=1)
        return integrate(scn).states[-1]

    ref = terminal(0.0025)

    def err(state):
        return float(np.max(np.abs(state - ref)))

    e_coarse = err(terminal(0.04))
    e_fine = err(terminal(0.02))
    ratio = e_coarse / e_fine
    ok = drift <= 1e-10 and ratio >= 8.0
    _report(7, "equilibrium invariance and integrator order", ok,
            f"drift over 10s = {drift:.3e}, dt-halving error ratio = {ratio:.1f}")


def test_08_equilibrium_oracle():
    net = PowerNetwork(
        buses=[Bus(id=0, kind=BusKind.GENERATOR, inertia=1.0, damping=1.0),
               Bus(id=1, kind=BusKind.GENERATOR, inertia=1.0, damping=1.0)],
        lines=[Line(from_bus=0, to_bus=1, susceptance=1.0)],
        comm=[CommEdge(a=0, b=1, weight=1.0)])
    gen = make_first_order(0.5, 1.0)
    prm = ControllerGains(gamma=1.0, k_f=1.0, k_c=1.0, k_d=1.0, q=1.0)
    scn = Scenario(network=net, generators={0: gen, 1: gen},
                   controllers={0: prm, 1: prm}, disturbance_time=0.0,
                   step_loads={0: 0.3, 1: 0.1}, t_end=1.0, dt=0.001)
    eq = compute_equilibrium(scn)
    eta = eq.angles_star[0] - eq.angles_star[1]

    # bisection oracle: with nu = 0.2 both machines make 0.2, so the line
    # must carry sin(eta) = -0.1 from bus 0's viewpoint
    lo, hi = -math.pi / 2, math.pi / 2
    for _ in range(60):
        mid = (lo + hi) / 2
        if math.sin(mid) + 0.1 > 0.0:
            hi = mid
        else:
            lo = mid
    eta_oracle = (lo + hi) / 2

    diff = abs(eta - eta_oracle)
    ok = diff <= 1e-10 and eq.security_ok
    _report(8, "two-machine equilibrium oracle", ok,
            f"|eta - asin(-0.1)| = {diff:.3e}, security "
            + ("pass" if eq.security_ok else "FAIL"))


def test_09_golden_outputs(tmp_path, child_env):
    artifacts = ("report.txt", "trajectory.csv", "frequency.gnu",
                 "marginal_cost.gnu")
    mismatches = []
    for name in ("two_gen.scn", "ring9.scn"):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}.{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "gridfreq.cli", "simulate",
                 str(fixture_path(name)), "--out", str(out)],
                capture_output=True, text=True, env=child_env)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            dirs.append(out)
        for fname in artifacts:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    _report(9, "byte-identical outputs", not mismatches,
            "all artifacts identical" if not mismatches
            else "differs: " + ", ".join(mismatches))
