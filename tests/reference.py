"""Physics references written apart from the program.

The scalar ones stand apart from the closed loop that sim.assemble
builds, so tests can check the program's matrices against them term by
term.  The dense ones rebuild the closed loop's matrices from the
nonzeros it holds (dense), evaluate its series as whole-matrix
products, where the program sums over the nonzeros alone, and solve the
equilibrium's Newton steps with np.linalg.solve, where the program runs
conjugate gradients over the line ends.  The certificate ones are the
primary (droop) condition, which the program only checks as the trailing
block of the secondary one, the secondary condition, assembled from its
definition, the worked models' analytic certificates, which
search_certificate builds inline, and the cascade's exact certification
boundary in closed form.
"""

import math

import numpy as np

from gridfreq import certify, sim


def net_injection(net, bus, angles):
    """Net line power flowing into ``bus`` for the angles (a mapping from
    bus id): b sin(theta_from - theta_to) in at the to-bus, out at the
    from-bus, summed over the incident lines."""
    total = 0.0
    for ln in net.lines:
        flow = ln.susceptance * math.sin(angles[ln.from_bus] - angles[ln.to_bus])
        if ln.to_bus == bus:
            total += flow
        elif ln.from_bus == bus:
            total -= flow
    return total


def output(gen, state, u):
    """A generation block's mechanical power C state + D u."""
    acc = gen.d_scalar * u
    for c, x in zip(gen.c_vector, state):
        acc += c * x
    return acc


def incidence(net, size):
    """Line incidence E (+1 at the from-bus angle, -1 at the to-bus angle,
    over ``size`` state columns) and the line susceptances."""
    e = np.zeros((len(net.lines), size))
    for row, ln in zip(e, net.lines):
        row[ln.from_bus], row[ln.to_bus] = 1.0, -1.0
    return e, np.array([ln.susceptance for ln in net.lines])


def dense(loop):
    """J, E, S and p_m's rows of a sim.ClosedLoop (or a union of loops) as
    dense arrays, rebuilt from the nonzeros the loop holds."""
    n = len(loop.load)
    (frm, to), (flow_rows, flow_vals) = loop.ends, loop.spread
    lines = np.arange(len(frm))
    jac = np.zeros((n, n))
    jac[loop.jac[:2]] = loop.jac[2]
    e = np.zeros((len(frm), n))
    e[lines, frm], e[lines, to] = 1.0, -1.0
    s = np.zeros((n, len(frm)))
    s[flow_rows, lines] = flow_vals
    gens = (len(loop.layout.gen_ids) if loop.layout is not None
            else int(loop.pm_rows[0].max(initial=-1)) + 1)
    pm_rows = np.zeros((gens, n))
    pm_rows[loop.pm_rows[:2]] = loop.pm_rows[2]
    return jac, e, s, pm_rows


def derivative(loop, x, t):
    """x' of a sim.ClosedLoop for one state at time t, or for a (samples,
    states) array at the sample times t."""
    jac, e, s, _ = dense(loop)
    return (x @ jac.T + np.multiply.outer(loop.loaded(t), loop.load)
            + np.sin(x @ e.T) @ s.T)


def series(scn, traj):
    """A trajectory's bus frequencies and generator outputs p_m."""
    loop = sim.assemble(scn)
    return (derivative(loop, traj.states, traj.times)[:, :loop.layout.n_bus],
            traj.states @ dense(loop)[3].T)


def angle_peak(scn, traj):
    """transient_angle_peak: the largest line angle difference over the
    samples, and the first time it occurs."""
    e, _ = incidence(scn.network, traj.layout.n_bus)
    peak = np.max(np.abs(traj.states[:, :traj.layout.n_bus] @ e.T), axis=1,
                  initial=0.0)
    i = int(np.argmax(peak))
    return float(peak[i]), float(traj.times[i])


def lyapunov(scn, certs, eq, state):
    """lyapunov_value: the energy-style distance of each state from the
    equilibrium, with its quadratic form and line incidence dense."""
    lay = sim.state_layout(scn)
    weights = np.zeros((lay.size, lay.size))
    for i, g in enumerate(lay.gen_ids):
        om, pc, xs = lay.omega.start + i, lay.pc.start + i, lay.x[i]
        weights[om, om] = scn.network.bus(g).inertia
        weights[xs, xs] = certs[g].p_matrix.to_array()
        weights[pc, pc] = scn.controllers[g].gamma
    e, b = incidence(scn.network, lay.size)
    x_star = sim.equilibrium_system_state(scn, eq)
    d = state - x_star
    eta_s = x_star @ e.T
    delta = state @ e.T - eta_s
    potential = (2.0 * np.sin(eta_s + delta / 2.0) * np.sin(delta / 2.0)
                 - np.sin(eta_s) * delta) @ b
    return 0.5 * np.sum((d @ weights) * d, axis=-1) + potential


def equilibrium_angles(scn, nu):
    """compute_equilibrium's angles by damped Newton with the Jacobian
    built as a dense incidence product and solved by np.linalg.solve,
    bus 0 pinned, to the same tolerance and line search."""
    net = scn.network
    nbus = len(net.buses)
    target = np.zeros(nbus)
    for g in net.generator_ids:
        target[g] = scn.generators[g].dc_gain * scn.controllers[g].k_c * nu
    for bus, delta in scn.step_loads.items():
        target[bus] -= delta
    e, b = incidence(net, nbus)

    def residual(theta):
        return target - e.T @ (b * np.sin(e @ theta))

    theta = np.zeros(nbus)
    r = residual(theta)
    for _ in range(sim.NEWTON_MAX_ITER):
        if float(np.max(np.abs(r))) < sim.NEWTON_TOL or nbus == 1:
            return theta
        jac = -(e.T * (b * np.cos(e @ theta))) @ e
        step = np.linalg.solve(jac[1:, 1:], r[1:])
        alpha = 1.0
        while True:
            cand = theta.copy()
            cand[1:] -= alpha * step
            rc = residual(cand)
            if float(np.max(np.abs(rc))) < float(np.max(np.abs(r))):
                theta, r = cand, rc
                break
            alpha /= 2.0
            assert alpha > 1e-6, "line search stalled"
    raise AssertionError("Newton did not converge")


def primary_matrix(gen, k_d, p, lambda_hat):
    """The primary (droop) passivity matrix for the (n, n) array P, block
    by block: [[sym(P A), (k_d P B - C^T)/2], [its transpose,
    -lambda_hat - D k_d]].  certify builds it as the trailing block of the
    secondary matrix."""
    p = np.asarray(p, dtype=float)
    a = np.array(gen.a_matrix, dtype=float)
    if p.shape != a.shape:
        raise ValueError(f"P has shape {p.shape}, generator has order {gen.order}")
    border = (k_d * p @ np.array(gen.b_vector) - np.array(gen.c_vector)) / 2.0
    corner = -lambda_hat - gen.d_scalar * k_d
    return np.block([[(p @ a + a.T @ p) / 2.0, border[:, None]],
                     [border[None, :], np.array([[corner]])]])


def check_primary(gen, k_d, cert, lambda_bus):
    """Does the certificate witness the primary (droop) condition?  P
    positive definite and the primary matrix negative semidefinite, to
    certify's tolerances."""
    if not cert.lambda_hat < lambda_bus:
        raise ValueError("certificate lambda_hat must be below the bus damping")
    p = cert.p_matrix.to_array()
    if not np.linalg.eigvalsh(p)[0] > certify.TOL_PD_PER_DIM * len(p):
        return False
    m = primary_matrix(gen, k_d, p, cert.lambda_hat)
    return np.linalg.eigvalsh(m)[-1] <= certify.TOL_PSD


def secondary_matrix(gen, params, p, k_f, lambda_hat):
    """The (n+2)-dimensional secondary (averaging) matrix for the (n, n)
    array P, written out from its definition: corner (D - K) k_c, border
    (k_c B^T P + C)/2 and (k_f - k_d K + D k_d - D k_c)/2, then the
    primary block, with K = D - C A^-1 B solved here."""
    a = np.array(gen.a_matrix)
    b = np.array(gen.b_vector)
    c = np.array(gen.c_vector)
    d, k_c, k_d = gen.d_scalar, params.k_c, params.k_d
    n = len(b)
    k = d - c @ np.linalg.solve(a, b)
    m = np.zeros((n + 2, n + 2))
    m[0, 0] = (d - k) * k_c
    m[0, 1:n + 1] = m[1:n + 1, 0] = (k_c * (b @ p) + c) / 2.0
    m[0, n + 1] = m[n + 1, 0] = (k_f - k_d * k + d * k_d - d * k_c) / 2.0
    m[1:n + 1, 1:n + 1] = (p @ a + a.T @ p) / 2.0
    m[1:n + 1, n + 1] = m[n + 1, 1:n + 1] = (k_d * (p @ b) - c) / 2.0
    m[n + 1, n + 1] = -lambda_hat - d * k_d
    return m


def check_secondary(gen, params, cert, lambda_bus):
    """Does the certificate witness the secondary condition?  lambda_hat
    below the bus damping, k_f > 0, P positive definite and the secondary
    matrix negative semidefinite, to certify's tolerance."""
    p = cert.p_matrix.to_array()
    return (cert.lambda_hat < lambda_bus and cert.k_f > 0.0
            and np.linalg.eigvalsh(p)[0] > 0.0
            and np.linalg.eigvalsh(secondary_matrix(
                gen, params, p, cert.k_f, cert.lambda_hat))[-1]
            <= certify.TOL_PSD)


def second_order_certificate(tau_a, tau_p, k_gain, k_c, k_d, lambda_hat=0.0):
    """The analytic certificate of the turbine-governor model:
    P = diag(tau_a, tau_p)/(K k_c) and k_f = K k_c.  The secondary matrix
    is then independent of the time constants, and negative semidefinite
    exactly when lambda_hat reaches certify.second_order_min_damping."""
    if not (tau_a > 0.0 and tau_p > 0.0 and k_gain > 0.0 and k_c > 0.0
            and k_d > 0.0):
        raise ValueError("all certificate parameters must be strictly positive")
    scale = 1.0 / (k_gain * k_c)
    return certify.Certificate(
        p_matrix=certify.SymmetricMatrix.diagonal([tau_a * scale, tau_p * scale]),
        k_f=k_gain * k_c, lambda_hat=lambda_hat)


def cascade_min_damping(tau_a, tau_p, k_gain, k_c, k_d):
    """Lambda_0 = K [rho (k_c + k_d)^2 / (4 k_c) - k_d], with rho =
    (tau_a + tau_p)^2 / (tau_a^2 + tau_a tau_p + tau_p^2), the bus damping
    below which make_second_order's cascade has no certificate.  By the
    KYP lemma a certificate exists exactly when the damping allowance
    bounds a function F of frequency built from the block's response
    G(jw); for the cascade F is largest as w -> 0, where it tends to
    Lambda_0, with rho = g1^2 / (K g2) from the Taylor coefficients g1 =
    -C A^-2 B and g2 = -C A^-3 B of G at 0.  rho <= 4/3, with equality at
    tau_a = tau_p, where Lambda_0 is certify.second_order_min_damping."""
    rho = (tau_a + tau_p) ** 2 / (tau_a * tau_a + tau_a * tau_p + tau_p * tau_p)
    return k_gain * (rho * (k_c + k_d) ** 2 / (4.0 * k_c) - k_d)


def first_order_certificate(tau, k_gain, k_c, lambda_hat=0.0):
    """The analytic certificate of the first-order lag, its only
    certifiable point: P = tau/(K k_c), k_f = K k_c."""
    if not (tau > 0.0 and k_gain > 0.0 and k_c > 0.0):
        raise ValueError("all certificate parameters must be strictly positive")
    return certify.Certificate(
        p_matrix=certify.SymmetricMatrix.diagonal([tau / (k_gain * k_c)]),
        k_f=k_gain * k_c, lambda_hat=lambda_hat)
