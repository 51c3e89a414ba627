"""Tests of the benchmark's own checks and inputs.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
from gridfreq import certify, cli, sim  # noqa: E402
from gridfreq.control import ControllerGains  # noqa: E402
from gridfreq.generation import make_first_order, make_second_order  # noqa: E402
from gridfreq.network import validate  # noqa: E402


# --- the independent LMI check ------------------------------------------------

@pytest.mark.parametrize("order, k, k_c, k_d", [
    (1, 1.2, 0.8, 2.0), (1, 0.9, 1.1, 0.3),
    (2, 1.1, 0.9, 0.5), (2, 1.0, 1.2, 1.5),
])
def test_analytic_certificates_flip_at_closed_form_threshold(order, k, k_c, k_d):
    if order == 1:
        taus = [0.45]
        gen = make_first_order(*taus, k)
        threshold = certify.first_order_min_damping(k, k_c, k_d)
    else:
        taus = [0.3, 1.1]
        gen = make_second_order(*taus, k)
        threshold = certify.second_order_min_damping(k, k_c, k_d)
    assert checks.min_damping(order, k, k_c, k_d) == pytest.approx(threshold,
                                                                   rel=1e-14)
    a, b, c, d = checks.block_arrays(gen)
    p = np.diag(taus) / (k * k_c)

    def top(lambda_hat):
        m = checks.secondary_matrix(a, b, c, d, k_c, k_d, p, k * k_c, lambda_hat)
        return np.linalg.eigvalsh(m)[-1]

    assert top(threshold * (1 + 1e-6)) <= certify.TOL_PSD
    assert top(threshold * (1 - 1e-6)) > certify.TOL_PSD


def test_numpy_matrix_matches_the_programs_matrix():
    gen = make_second_order(0.3, 1.1, 1.2)
    gains = ControllerGains(gamma=1.0, k_f=0.7, k_c=0.9, k_d=0.6, q=1.0)
    p = certify.SymmetricMatrix.diagonal([0.4, 1.3])
    ours = checks.secondary_matrix(*checks.block_arrays(gen), gains.k_c,
                                   gains.k_d, np.diag([0.4, 1.3]), 0.8, 0.5)
    theirs = certify.secondary_lmi_matrix(gen, gains, p, 0.5, k_f=0.8)
    np.testing.assert_allclose(ours, theirs.to_array(), rtol=1e-14, atol=1e-15)


def test_certificate_check_rejects_a_tampered_certificate():
    gen = make_first_order(0.4, 1.1)
    gains = ControllerGains(gamma=1.0, k_f=1.0, k_c=0.9, k_d=2.5, q=1.0)
    lam = 1.2 * certify.first_order_min_damping(1.1, 0.9, 2.5)
    cert = certify.search_certificate(gen, gains, lam)
    assert cert is not None
    assert checks.certificate_problems(gen, gains, lam, cert) == []
    assert checks.certificate_problems(
        gen, gains, lam, dataclasses.replace(cert, k_f=1.5 * cert.k_f))
    assert checks.certificate_problems(gen, gains, cert.lambda_hat, cert)


# --- equilibrium ---------------------------------------------------------------

def test_flow_balance_rejects_a_perturbed_equilibrium():
    scn = cli.load_scenario(inputs.RING9)
    eq = sim.compute_equilibrium(scn)
    assert checks.equilibrium_problems(scn, eq) == []
    angles = dict(eq.angles_star)
    angles[4] += 1e-6
    assert checks.equilibrium_problems(
        scn, dataclasses.replace(eq, angles_star=angles))
    assert checks.equilibrium_problems(
        scn, dataclasses.replace(eq, nu=eq.nu * (1 + 1e-9)))


# --- report and trajectory -----------------------------------------------------

@pytest.fixture(scope="module")
def two_gen_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("two_gen")
    scn = cli.load_scenario(inputs.TWO_GEN)
    report = cli.run(scn, cli.RunFlags(out_dir=str(out)))
    assert report.exit_code == 0
    return scn, report, out / "trajectory.csv"


def _tampered(src: Path, dst: Path, column: str, row: int, delta: float) -> Path:
    lines = src.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    body = lines[1:]
    cells = body[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    body[row] = ",".join(cells)
    dst.write_text("\n".join([lines[0]] + body) + "\n", encoding="utf-8")
    return dst


def test_verdict_and_trajectory_checks_pass_on_a_real_run(two_gen_run):
    scn, report, csv_path = two_gen_run
    load = sum(scn.step_loads.values())
    assert checks.verdict_problems(scn, report.report_text) == []
    assert checks.trajectory_problems(csv_path, load, checks.closed_form_nu(scn),
                                      costs={0: 1.0, 1: 2.0}) == []


def test_verdict_check_rejects_a_flipped_verdict(two_gen_run):
    scn, report, _ = two_gen_run
    text = report.report_text.replace("gen 1: found",
                                      "gen 1: no diagonal certificate found")
    assert checks.verdict_problems(scn, text)


@pytest.mark.parametrize("column, row, delta", [
    ("V", 2000, 1e-6),         # V rises between two rows
    ("omega_2", -1, 1e-3),     # not settled
    ("pm_1", -1, 1e-2),        # powers no longer sum to the load
    ("pc_0", -1, 1e-2),        # command away from nu
])
def test_trajectory_checks_reject_a_tampered_row(two_gen_run, tmp_path,
                                                 column, row, delta):
    scn, _, csv_path = two_gen_run
    bad = _tampered(csv_path, tmp_path / "trajectory.csv", column, row, delta)
    assert checks.trajectory_problems(bad, sum(scn.step_loads.values()),
                                      checks.closed_form_nu(scn))


def test_marginal_cost_check_rejects_a_tampered_row(two_gen_run, tmp_path):
    scn, _, csv_path = two_gen_run
    bad = _tampered(csv_path, tmp_path / "trajectory.csv", "pm_1", -1, 1e-3)
    load = sum(scn.step_loads.values())
    nu = checks.closed_form_nu(scn)
    assert checks.trajectory_problems(bad, load, nu, costs={0: 1.0, 1: 2.0})


# --- generated inputs -----------------------------------------------------------

def test_mesh200_validates_and_round_trips(tmp_path):
    scn = inputs.mesh200_scenario(3)
    assert validate(scn.network) == []
    assert len(scn.network.buses) == 200
    assert len(scn.network.generator_ids) == 50
    path = tmp_path / "mesh200.scn"
    path.write_text(inputs.mesh200_text(3), encoding="utf-8")
    loaded = cli.load_scenario(path)
    assert loaded.network == scn.network
    assert cli.serialize_scenario(loaded) == cli.serialize_scenario(scn)


def test_inputs_follow_the_seed():
    assert inputs.mesh200_text(5) == inputs.mesh200_text(5)
    assert inputs.mesh200_text(5) != inputs.mesh200_text(6)
    assert inputs.certify_blocks(5) == inputs.certify_blocks(5)
    assert inputs.certify_blocks(5) != inputs.certify_blocks(6)
    values = inputs.sweep_values(5)
    assert values == inputs.sweep_values(5) != inputs.sweep_values(6)
    assert len(set(values)) == inputs.SWEEP_VALUES
    assert all(inputs.SWEEP_RANGE[0] < v < inputs.SWEEP_RANGE[1] for v in values)


def test_lag_pairs_straddle_their_threshold():
    for rec, gen, gains, lam in inputs.build_blocks(inputs.certify_blocks(2)):
        if rec["kind"].startswith("lag_"):
            threshold = checks.min_damping(1, rec["params"]["K"], gains.k_c,
                                           gains.k_d)
            below = lam * (1 - certify.LAMBDA_SHAVE) < threshold
            assert below == (rec["kind"] == "lag_below")
