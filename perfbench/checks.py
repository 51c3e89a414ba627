"""Checks of the program's outputs, computed apart from the program.

Each check returns a list of problems; an empty list means the output
passed.  The checks recompute what they need in numpy from the inputs
(blocks, gains, line lists, step loads) and from the paper's closed-form
results.  They take from gridfreq only its named tolerances and the data
types they read, never a function that produced the output under test.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional

import numpy as np

from gridfreq.certify import LAMBDA_SHAVE, TOL_PSD
from gridfreq.cli import MARGINAL_TOL, SETTLING_TOL
from gridfreq.sim import EPSILON_V

#: The final mechanical powers must sum to the total step load within this
#: share of it.  What is left over goes into damping and inertia at the
#: residual frequency, a few 1e-6 rad/s at t_end on every workload here.
POWER_SUM_TOL = 1e-3

#: The recomputed equilibrium flow balance must vanish to this absolute
#: level.  Newton stops below 1e-12; summing in another order adds
#: roundoff well below this.
FLOW_BALANCE_TOL = 1e-10


# --- blocks and certificates -----------------------------------------------

def block_arrays(gen):
    """(A, B, C, D) of an LtiGenerator as numpy arrays."""
    return (np.array(gen.a_matrix, dtype=float),
            np.array(gen.b_vector, dtype=float),
            np.array(gen.c_vector, dtype=float), float(gen.d_scalar))


def dc_gain(a, b, c, d) -> float:
    """K = -C A^{-1} B + D."""
    return float(-c @ np.linalg.solve(a, b) + d)


def min_damping(order: int, k: float, k_c: float, k_d: float) -> float:
    """The paper's closed-form damping thresholds for the worked models.

    First-order lag: K (k_c - k_d)^2 / (4 k_c).  Turbine-governor cascade:
    K / (3 k_c) * (k_c^2 - k_c k_d + k_d^2).
    """
    if order == 1:
        return k * (k_c - k_d) ** 2 / (4.0 * k_c)
    if order == 2:
        return k / (3.0 * k_c) * (k_c * k_c - k_c * k_d + k_d * k_d)
    raise ValueError(f"no closed-form threshold for order {order}")


def secondary_matrix(a, b, c, d, k_c, k_d, p, k_f, lambda_hat) -> np.ndarray:
    """The (n+2)-dimensional averaging-controller matrix, assembled in numpy.

    Row/column 0: corner (D - K) k_c, border (k_c B^T P + C)/2 on the
    state block and (k_f - k_d K + D k_d - D k_c)/2 on the frequency
    entry.  The trailing (n+1) block is the droop matrix: sym(P A), column
    (k_d P B - C^T)/2, corner -lambda_hat - D k_d.
    """
    n = len(b)
    k = dc_gain(a, b, c, d)
    m = np.zeros((n + 2, n + 2))
    m[0, 0] = (d - k) * k_c
    m[0, 1:n + 1] = m[1:n + 1, 0] = (k_c * (b @ p) + c) / 2.0
    m[0, n + 1] = m[n + 1, 0] = (k_f - k_d * k + d * k_d - d * k_c) / 2.0
    pa = p @ a
    m[1:n + 1, 1:n + 1] = (pa + pa.T) / 2.0
    m[1:n + 1, n + 1] = m[n + 1, 1:n + 1] = (k_d * (p @ b) - c) / 2.0
    m[n + 1, n + 1] = -lambda_hat - d * k_d
    return m


def certificate_problems(gen, gains, lambda_bus: float, cert) -> List[str]:
    """Does a returned certificate satisfy the secondary condition?"""
    a, b, c, d = block_arrays(gen)
    p = np.array([[cert.p_matrix.entry(i, j) for j in range(len(b))]
                  for i in range(len(b))])
    problems = []
    if not cert.lambda_hat < lambda_bus:
        problems.append(f"lambda_hat {cert.lambda_hat!r} is not below "
                        f"Lambda {lambda_bus!r}")
    if not np.linalg.eigvalsh(p)[0] > 0.0:
        problems.append("P is not positive definite")
    m = secondary_matrix(a, b, c, d, gains.k_c, gains.k_d, p, cert.k_f,
                         cert.lambda_hat)
    top = float(np.linalg.eigvalsh(m)[-1])
    if not top <= TOL_PSD:
        problems.append(f"secondary matrix has eigenvalue {top!r} > TOL_PSD")
    return problems


# --- runs: report, equilibrium, trajectory -----------------------------------

_CERT_LINE = re.compile(r"^gen (\d+): (found|no diagonal certificate found)")


def report_verdicts(report_text: str) -> Dict[int, bool]:
    """Generator bus -> certificate found, from the report's [certificates]."""
    section = report_text.split("[certificates]", 1)[1].split("\n\n", 1)[0]
    out = {}
    for line in section.splitlines():
        m = _CERT_LINE.match(line)
        if m:
            out[int(m.group(1))] = m.group(2) == "found"
    return out


def verdict_problems(scn, report_text: str) -> List[str]:
    """Each verdict must match the closed-form threshold at
    lambda_hat = Lambda (1 - LAMBDA_SHAVE).  ``scn`` carries the gains the
    run certified (after any --optimal-gains rewrite)."""
    verdicts = report_verdicts(report_text)
    problems = []
    for g in sorted(scn.generators):
        a, b, c, d = block_arrays(scn.generators[g])
        gains = scn.controllers[g]
        lam = scn.network.bus(g).damping
        need = min_damping(len(b), dc_gain(a, b, c, d), gains.k_c, gains.k_d)
        expected = lam * (1.0 - LAMBDA_SHAVE) >= need
        if verdicts.get(g) != expected:
            problems.append(f"gen {g}: verdict {verdicts.get(g)} but the "
                            f"threshold {need!r} against Lambda {lam!r} "
                            f"says {expected}")
    return problems


def closed_form_nu(scn) -> float:
    """nu = total load / sum_j K_j k_c_j."""
    total = sum(scn.step_loads.values())
    return total / sum(dc_gain(*block_arrays(scn.generators[g]))
                       * scn.controllers[g].k_c for g in scn.generators)


def equilibrium_problems(scn, eq, report_text: Optional[str] = None) -> List[str]:
    """Lossless flow balance at the equilibrium angles, and nu."""
    problems = []
    nu = closed_form_nu(scn)
    if not math.isclose(eq.nu, nu, rel_tol=1e-12):
        problems.append(f"equilibrium nu {eq.nu!r} != closed form {nu!r}")
    if report_text is not None and f"nu = {eq.nu!r}" not in report_text:
        problems.append("report does not print the equilibrium nu")
    lines = scn.network.lines
    n = len(scn.network.buses)
    fr = np.array([ln.from_bus for ln in lines])
    to = np.array([ln.to_bus for ln in lines])
    sus = np.array([ln.susceptance for ln in lines])
    theta = np.array([eq.angles_star[i] for i in range(n)])
    flow = sus * np.sin(theta[fr] - theta[to])
    pushed = (np.bincount(fr, weights=flow, minlength=n)
              - np.bincount(to, weights=flow, minlength=n))
    target = np.zeros(n)
    for g in scn.generators:
        k = dc_gain(*block_arrays(scn.generators[g]))
        target[g] = k * scn.controllers[g].k_c * nu
    for bus, delta in scn.step_loads.items():
        target[bus] -= delta
    worst = float(np.max(np.abs(pushed - target)))
    if not worst <= FLOW_BALANCE_TOL:
        problems.append(f"flow balance residual {worst!r} at the equilibrium")
    return problems


def read_trajectory(path: Path):
    """(column names, rows as a float array; blank cells become nan)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) if x else math.nan for x in row] for row in reader]
    return header, np.array(rows)


def trajectory_problems(path: Path, total_load: float, nu: float,
                        costs: Optional[Mapping[int, float]] = None) -> List[str]:
    """Settling, power sum, commands at nu, non-increasing V; with ``costs``
    also equal marginal costs at total load / sum(1/q_j)."""
    header, rows = read_trajectory(path)
    col = {name: i for i, name in enumerate(header)}
    last = rows[-1]
    problems = []

    def cols(prefix):
        return [i for name, i in col.items() if name.startswith(prefix)]

    omega = float(np.max(np.abs(last[cols("omega_")])))
    if not omega < SETTLING_TOL:
        problems.append(f"final max |omega| {omega!r} >= SETTLING_TOL")
    pm_sum = float(np.sum(last[cols("pm_")]))
    if not abs(pm_sum - total_load) <= POWER_SUM_TOL * total_load:
        problems.append(f"final p_m sum {pm_sum!r} != total load {total_load!r}")
    pc_off = float(np.max(np.abs(last[cols("pc_")] - nu)))
    if not pc_off <= MARGINAL_TOL * nu:
        problems.append(f"final commands are {pc_off!r} away from nu {nu!r}")
    v = rows[:, col["V"]]
    if not np.all(np.isfinite(v)):
        problems.append("V column is missing or not finite")
    else:
        rise = float(np.max(np.diff(v)))
        if not rise <= EPSILON_V:
            problems.append(f"V rises by {rise!r} between rows")
    if costs is not None:
        price = total_load / sum(1.0 / q for q in costs.values())
        mc = np.array([costs[g] * last[col[f"pm_{g}"]] for g in sorted(costs)])
        off = float(np.max(np.abs(mc - price)))
        if not off <= MARGINAL_TOL * price:
            problems.append(f"final marginal costs are {off!r} away from "
                            f"total load / sum(1/q) = {price!r}")
    return problems
