"""End-to-end acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  The module re-runs the shipped experiment configs at
their full budgets, so it takes a few minutes.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from _helpers import FactorizedPreconditioner
from fembem import bem
from fembem.cli import fit_slope, parse_config
from fembem.estimate import eta_fem, mu_bem
from fembem.fem import (FeFunction, assemble_riesz, assemble_w_rhs, h1_norm,
                        prolongate)
from fembem.mesh import boundary_trace, make_initial_mesh, refine_nvb
from fembem.model import make_problem, monotonicity_probe
from fembem.solver import (CholeskyFactor, JacobiPreconditioner, MeshHierarchy,
                           pcg)
from fembem.uzawa import UzawaDriver, run_experiment_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

KAPPA = 0.01          # algebraic share of the quasi-error
SLOPE_BAND = (-0.6, -0.4)


def load_config(name):
    return parse_config(CONFIG_DIR / name)


def elements(result):
    return np.array([r.num_elements for r in result.records], dtype=float)


def combined_error(result):
    return np.array([r.err_h1 + r.err_gamma for r in result.records])


class TrajectoryCollector:
    """Records every inner round of every outer step, grouped per step."""

    def __init__(self):
        self.steps = []
        self._phase = None

    def __call__(self, driver, phase, payload):
        if phase == "bem" and self._phase != "bem":
            self.steps.append({"bem": [], "fem": []})
        self._phase = phase
        ev = dict(level=len(driver.hierarchy._levels) - 1,
                  mesh=driver.mesh, bm=driver.bm)
        if phase == "fem":
            ev.update(w=payload["w"].values.copy(),
                      eta2=float(payload["eta2"].sum()),
                      u=driver.u.values.copy(),
                      psi=driver.psi_vals.copy())
        else:
            ev.update(psi=payload["psi"].values.copy(),
                      mu2=float(payload["mu2"].sum()),
                      g=payload["g"].values.copy(),
                      u=driver.u.values.copy())
        self.steps[-1][phase].append(ev)


@pytest.fixture(scope="module")
def run95():
    """Reference fixed-contraction run with a full inner-round trace."""
    cfg = load_config("lshape_gamma095.cfg")
    collector = TrajectoryCollector()
    driver = UzawaDriver(make_problem(cfg.example), cfg, observer=collector)
    result = driver.run()
    return driver, collector, result


@pytest.fixture(scope="module")
def sweep(run95):
    results = {0.95: run95[2]}
    for gamma, name in ((0.85, "lshape_gamma085.cfg"),
                        (0.90, "lshape_gamma090.cfg"),
                        (0.98, "lshape_gamma098.cfg")):
        results[gamma] = run_experiment_config(load_config(name))
    return results


@pytest.fixture(scope="module")
def adaptive_run():
    return run_experiment_config(load_config("lshape_adaptive_a005.cfg"))


@pytest.fixture(scope="module")
def zshape_run():
    return run_experiment_config(load_config("zshape_nonlinear.cfg"))


@pytest.fixture(scope="module")
def scaled_run():
    return run_experiment_config(load_config("lshape_scaled.cfg"))


# ---------------------------------------------------------------------------
# criterion 1: fixed-contraction sweep


def test_criterion_1_fixed_contraction_slopes_and_outer_counts(sweep):
    slopes = {g: fit_slope(elements(res), combined_error(res))
              for g, res in sweep.items()}
    for gamma in (0.95, 0.98):
        assert SLOPE_BAND[0] <= slopes[gamma] <= SLOPE_BAND[1], slopes
    assert slopes[0.85] >= -0.4, slopes
    outers = [sweep[g].num_outer for g in (0.85, 0.90, 0.95, 0.98)]
    assert all(b > a for a, b in zip(outers, outers[1:])), outers


# ---------------------------------------------------------------------------
# criterion 2: inner adaptive loops terminate quickly


def test_criterion_2_inner_solver_rounds_stay_bounded(run95):
    _, _, result = run95
    assert max(r.k_bem for r in result.records) <= 10
    assert max(r.k_fem for r in result.records) <= 10


# ---------------------------------------------------------------------------
# criterion 3: adaptive contraction converges and saves outer steps


def test_criterion_3_adaptive_contraction_is_more_efficient(adaptive_run, sweep):
    slope = fit_slope(elements(adaptive_run), combined_error(adaptive_run))
    assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1], slope
    assert adaptive_run.num_outer < sweep[0.95].num_outer


# ---------------------------------------------------------------------------
# criterion 4: nonlinear flux


def test_criterion_4_nonlinear_problem_converges(zshape_run):
    slope = fit_slope(elements(zshape_run), combined_error(zshape_run))
    assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1], slope
    op = make_problem("nonlinear_zshape").operator
    mesh, _ = refine_nvb(make_initial_mesh("zshape"), np.arange(14))
    lo, _ = monotonicity_probe(op, mesh, trials=1000,
                               rng=np.random.default_rng(123))
    assert lo >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# criterion 5: weak interior conductivity stays stable


def test_criterion_5_scaled_operator_runs_to_budget(scaled_run):
    assert scaled_run.stop_reason == "budget"
    err = combined_error(scaled_run)
    assert np.isfinite(err).all()
    transient = int(np.argmax(err))
    tail = err[transient:]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
    assert err[-1] < 0.1 * err[0]


# ---------------------------------------------------------------------------
# criterion 6: estimator stability under refinement, quasi-error decay


def test_criterion_6_estimator_axioms_and_quasi_error_decay(run95):
    _check_stability_axioms()
    _check_quasi_error_decay(run95)


def _check_stability_axioms():
    """Stability on common elements (A1) and reduction on refined ones (A2).

    50 random refine-and-perturb instances; the first 25 fit the
    stability constant, the remaining 25 must stay within 1.5x of it.
    """
    prob = make_problem("laplace_lshape")
    rng = np.random.default_rng(42)

    base = make_initial_mesh("lshape")
    for _ in range(2):
        base, _ = refine_nvb(base, np.arange(base.num_triangles))
    bm0 = boundary_trace(base)
    nt, nv, ns = base.num_triangles, base.num_vertices, bm0.num_segments

    def boundary_trace_prolong(gvals_coarse, mesh_c, bm_c, rel, bm_f):
        u = np.zeros(mesh_c.num_vertices)
        u[bm_c.boundary_vertices] = gvals_coarse
        uf = prolongate(FeFunction(mesh_c, u), rel)
        return uf.values[bm_f.boundary_vertices]

    eta_ratios_a1, mu_ratios_a1 = [], []
    eta_q_a2, mu_q_a2 = [], []
    for _ in range(50):
        marked = rng.choice(nt, size=rng.integers(3, 20), replace=False)
        msegs = rng.choice(ns, size=rng.integers(1, 5), replace=False)
        fine, rel = refine_nvb(base, marked, marked_segments=msegs, bmesh=bm0)
        bmf = boundary_trace(fine)

        u_prev_c = FeFunction(base, rng.standard_normal(nv))
        u_prev_f = prolongate(u_prev_c, rel)
        psi_c = rng.standard_normal(ns)
        psi_f = psi_c[rel.seg_father]

        # volume estimator, A1: perturb the transferred iterate
        w_c = FeFunction(base, rng.standard_normal(nv))
        w_f0 = prolongate(w_c, rel)
        delta = FeFunction(fine, rng.standard_normal(fine.num_vertices)
                           * 10.0 ** rng.uniform(-3, 0))
        w_f = FeFunction(fine, w_f0.values + delta.values)

        e_c = eta_fem(base, bm0, w_c, u_prev_c, prob.f, prob.phi0, psi_c,
                      prob.operator)
        e_f = eta_fem(fine, bmf, w_f, u_prev_f, prob.f, prob.phi0, psi_f,
                      prob.operator)
        common_c = np.array([i for i, s in enumerate(rel.tri_sons)
                             if len(s) == 1])
        common_f = np.array([rel.tri_sons[i][0] for i in common_c])
        diff = abs(np.sqrt(e_c[common_c].sum()) - np.sqrt(e_f[common_f].sum()))
        eta_ratios_a1.append(diff / h1_norm(delta))

        # volume estimator, A2: exact transfer, refined elements shrink
        e_f0 = eta_fem(fine, bmf, w_f0, u_prev_f, prob.f, prob.phi0, psi_f,
                       prob.operator)
        ref_c = np.array([i for i, s in enumerate(rel.tri_sons) if len(s) > 1])
        ref_f = np.concatenate([rel.tri_sons[i] for i in ref_c])
        num, den = e_f0[ref_f].sum(), e_c[ref_c].sum()
        if den > 1e-30:
            eta_q_a2.append(num / den)

        # boundary estimator, A1: perturb the density in its energy norm
        g_c_vals = rng.standard_normal(ns)
        g_f_vals = boundary_trace_prolong(g_c_vals, base, bm0, rel, bmf)
        g_c = bem.BoundaryTrace(bm0, g_c_vals)
        g_f = bem.BoundaryTrace(bmf, g_f_vals)
        dpsi = rng.standard_normal(bmf.num_segments) * 10.0 ** rng.uniform(-3, 0)
        psi_fp = psi_f + dpsi

        m_c = mu_bem(bm0, psi_c, g_c, du0_ds=prob.du0_ds)
        m_fp = mu_bem(bmf, psi_fp, g_f, du0_ds=prob.du0_ds)
        scommon_c = np.array([k for k, s in enumerate(rel.seg_sons)
                              if len(s) == 1])
        scommon_f = np.array([rel.seg_sons[k][0] for k in scommon_c])
        Vf = bem.assemble_single_layer(bmf)
        dn = float(np.sqrt(dpsi @ (Vf @ dpsi)))
        diff = abs(np.sqrt(m_c[scommon_c].sum()) - np.sqrt(m_fp[scommon_f].sum()))
        mu_ratios_a1.append(diff / dn)

        # boundary estimator, A2
        m_f0 = mu_bem(bmf, psi_f, g_f, du0_ds=prob.du0_ds)
        sref_c = np.array([k for k, s in enumerate(rel.seg_sons) if len(s) > 1])
        if len(sref_c):
            sref_f = np.concatenate([rel.seg_sons[k] for k in sref_c])
            num, den = m_f0[sref_f].sum(), m_c[sref_c].sum()
            if den > 1e-30:
                mu_q_a2.append(num / den)

    eta_r = np.array(eta_ratios_a1)
    mu_r = np.array(mu_ratios_a1)
    assert eta_r[25:].max() <= 1.5 * eta_r[:25].max(), (
        eta_r[:25].max(), eta_r[25:].max())
    assert mu_r[25:].max() <= 1.5 * mu_r[:25].max(), (
        mu_r[:25].max(), mu_r[25:].max())
    assert eta_q_a2 and max(eta_q_a2) < 1.0, max(eta_q_a2)
    assert mu_q_a2 and max(mu_q_a2) < 1.0, max(mu_q_a2)


def _check_quasi_error_decay(run95):
    """Energy error plus kappa-weighted estimator decreases along the
    inner loops, measured against a uniformly refined reference."""
    driver, collector, _ = run95
    prob = driver.problem
    levels = driver.hierarchy._levels

    def chain(vals, lo, hi):
        for level in levels[lo + 1:hi + 1]:
            vals = level.prolongation @ vals
        return vals

    fem_steps = [s for s in collector.steps if len(s["fem"]) >= 2]
    bem_steps = [s for s in collector.steps if len(s["bem"]) >= 2]
    assert fem_steps and bem_steps

    fem_pairs = fem_good = 0
    for s in fem_steps:
        evs = s["fem"]
        last = evs[-1]
        mesh_K, bm_K = last["mesh"], last["bm"]
        fine, rel = refine_nvb(mesh_K, np.arange(mesh_K.num_triangles))
        bmf = boundary_trace(fine)
        u_ref = prolongate(FeFunction(mesh_K, last["u"]), rel)
        psi_ref = last["psi"][rel.seg_father]
        R = assemble_riesz(fine)
        rhs = assemble_w_rhs(fine, bmf, prob.f, prob.phi0, psi_ref, u_ref,
                             prob.operator)
        w_star = CholeskyFactor(R).solve(rhs)
        deltas = []
        for ev in evs:
            wK = chain(ev["w"], ev["level"], last["level"])
            e = w_star - prolongate(FeFunction(mesh_K, wK), rel).values
            deltas.append(float(e @ (R @ e)) + KAPPA * ev["eta2"])
        for a, b in zip(deltas, deltas[1:]):
            fem_pairs += 1
            fem_good += b <= a * (1 + 1e-9)

    def p0_transfer(bm_c, bm_f):
        ac, bc = bm_c.endpoints()
        mid = 0.5 * sum(bm_f.endpoints())
        d = bc - ac
        L = bm_c.lengths()
        father = np.empty(bm_f.num_segments, dtype=np.int64)
        for k, x in enumerate(mid):
            v = x[None, :] - ac
            t = np.einsum("sd,sd->s", v, d) / L ** 2
            off = np.abs(v[:, 0] * d[:, 1] - v[:, 1] * d[:, 0]) / L
            ok = np.flatnonzero((off < 1e-12) & (t > -1e-12) & (t < 1 + 1e-12))
            father[k] = ok[0]
        return father

    bem_pairs = bem_good = 0
    for s in bem_steps:
        evs = s["bem"]
        last = evs[-1]
        bm_K = last["bm"]
        fine, rel = refine_nvb(last["mesh"], (),
                               marked_segments=np.arange(bm_K.num_segments),
                               bmesh=bm_K)
        bmf = boundary_trace(fine)
        V = bem.assemble_single_layer(bmf)
        uu = np.zeros(last["mesh"].num_vertices)
        uu[bm_K.boundary_vertices] = last["g"]
        gf_vals = prolongate(FeFunction(last["mesh"], uu),
                             rel).values[bmf.boundary_vertices]
        rhs = bem.assemble_dl_rhs(bmf, bem.BoundaryTrace(bmf, gf_vals))
        psi_star = CholeskyFactor(V).solve(rhs)
        deltas = []
        for ev in evs:
            fa = p0_transfer(ev["bm"], bmf)
            e = psi_star - ev["psi"][fa]
            deltas.append(float(e @ (V @ e)) + KAPPA * ev["mu2"])
        for a, b in zip(deltas, deltas[1:]):
            bem_pairs += 1
            bem_good += b <= a * (1 + 1e-9)

    assert fem_good >= 0.95 * fem_pairs, (fem_good, fem_pairs)
    assert bem_good >= 0.95 * bem_pairs, (bem_good, bem_pairs)


# ---------------------------------------------------------------------------
# criterion 7: boundary-integral kernels against independent quadrature


def test_criterion_7_boundary_kernel_oracles(run95):
    bm = boundary_trace(make_initial_mesh("lshape"))
    a, b = bm.endpoints()
    L = bm.lengths()
    V = bem.assemble_single_layer(bm)

    # diagonal: closed form and adaptive quadrature split at the singularity
    exact = L ** 2 / (2 * np.pi) * (1.5 - np.log(L))
    assert np.abs(np.diag(V) - exact).max() <= 1e-12

    def entry(i, j):
        def f(t, s):
            x = a[i] + s * (b[i] - a[i])
            y = a[j] + t * (b[j] - a[j])
            return -np.log(np.hypot(*(x - y))) / (2 * np.pi) * L[i] * L[j]
        return f

    val, _ = integrate.dblquad(entry(0, 0), 0, 1, 0, lambda s: s,
                               epsabs=1e-13, epsrel=1e-13)
    assert abs(V[0, 0] - 2.0 * val) <= 1e-10

    # well-separated entries against a high-order tensor rule
    xi, w = np.polynomial.legendre.leggauss(32)
    xi = 0.5 * (xi + 1.0)
    w = 0.5 * w
    V24 = bem.assemble_single_layer(bm, n_gauss=24)
    for i in range(bm.num_segments):
        for j in range(bm.num_segments):
            mid_i, mid_j = 0.5 * (a[i] + b[i]), 0.5 * (a[j] + b[j])
            if np.hypot(*(mid_i - mid_j)) <= 0.5 * (L[i] + L[j]) + 1e-12:
                continue
            X = a[i] + xi[:, None] * (b[i] - a[i])[None, :]
            Y = a[j] + xi[:, None] * (b[j] - a[j])[None, :]
            D = np.hypot(X[:, None, 0] - Y[None, :, 0],
                         X[:, None, 1] - Y[None, :, 1])
            ref = -(w[:, None] * w[None, :] * np.log(D)).sum() \
                * L[i] * L[j] / (2 * np.pi)
            assert abs(V24[i, j] - ref) <= 1e-10

    # positive definiteness on every boundary mesh the reference run saw
    _, collector, result = run95
    seen = {}
    for step in collector.steps:
        for phase in ("bem", "fem"):
            for ev in step[phase]:
                seen[id(ev["bm"])] = ev["bm"]
    seen[id(result.bmesh)] = result.bmesh
    assert len(seen) > 10
    for bmesh in seen.values():
        np.linalg.cholesky(bem.assemble_single_layer(bmesh))

    # double-layer row sums: K applied to the constant trace
    ones = bem.BoundaryTrace(bm, np.ones(bm.num_segments))
    pts, _ = bm.gauss_points(4)
    p0f, df, nf, Lf = bem._frames(bm)
    x0 = pts[3, 1]
    terms = bem._dl_panel_terms(x0[None, :], p0f, df, nf, Lf,
                                np.ones(bm.num_segments),
                                np.ones(bm.num_segments)) / (2 * np.pi)
    for j in (0, 2, 5, 7):
        def dl(t):
            y = a[j] + t * (b[j] - a[j])
            d = x0 - y
            nrm = np.array([(b[j] - a[j])[1], -(b[j] - a[j])[0]]) / L[j]
            return (nrm @ d) / (d @ d) / (2 * np.pi) * L[j]
        ref, _ = integrate.quad(dl, 0, 1, epsabs=1e-13, limit=200)
        assert abs(terms[0, j] - ref) <= 1e-8
    k1 = bem.double_layer_pointwise(bm, ones, pts.reshape(-1, 2))
    assert np.abs(k1 + 0.5).max() <= 1e-12


# ---------------------------------------------------------------------------
# criterion 8: linear-algebra contracts


def test_criterion_8_solver_energy_contracts(rng):
    mesh = make_initial_mesh("lshape")
    hierarchy = MeshHierarchy(mesh)
    for _ in range(2):
        mesh, rel = refine_nvb(mesh, np.arange(mesh.num_triangles))
        hierarchy.push(rel)
    S = assemble_riesz(mesh)
    b = rng.standard_normal(mesh.num_vertices)
    x_star = CholeskyFactor(S).solve(b)

    # energy of the error never grows along the iteration
    res = pcg(S, b, preconditioner=JacobiPreconditioner.of(S),
              record_iterates=True, rel_threshold=1e-20)
    energies = [float((x_star - x) @ (S @ (x_star - x))) for x in res.iterates]
    for before, after in zip(energies, energies[1:]):
        assert after <= before * (1 + 1e-12)

    # with the exact preconditioner the stopping surrogate IS the error:
    # exact at iterate 0, and both collapse together after one step
    res0 = pcg(S, b, preconditioner=FactorizedPreconditioner(S),
               max_iterations=0)
    energy0 = float(x_star @ (S @ x_star))
    assert abs(res0.final_energy - energy0) <= 1e-10 * energy0
    res1 = pcg(S, b, preconditioner=FactorizedPreconditioner(S),
               rel_threshold=0.0, max_iterations=1)
    e = x_star - res1.x
    assert float(e @ (S @ e)) <= 1e-20 * energy0
    assert res1.final_energy <= 1e-20 * energy0

    # local multilevel diagonal preconditioner stays effective: eight
    # uniform refinements grow 12 -> 3072 elements
    mesh = make_initial_mesh("lshape")
    hierarchy = MeshHierarchy(mesh)
    for _ in range(8):
        mesh, rel = refine_nvb(mesh, np.arange(mesh.num_triangles))
        hierarchy.push(rel)
    assert mesh.num_triangles == 3072
    A = assemble_riesz(mesh)
    rhs = np.random.default_rng(0).standard_normal(mesh.num_vertices)
    res = pcg(A, rhs, preconditioner=hierarchy.preconditioner(),
              rel_threshold=1e-6 ** 2)
    assert res.converged
    assert res.iterations <= 40
