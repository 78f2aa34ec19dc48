"""Inexact Uzawa outer iteration with adaptive inner solves.

One outer step j does, on a shared triangulation that both inner loops
may refine:

  [i]  update the boundary density: solve the integral equation
       ``V phi = (K - 1/2)(trace(u) - u0)`` adaptively until its
       estimator plus the algebraic solver energy drops below
       ``(c_bem * eps_j)^2``;
  [ii] compute the Riesz representer w of the interior residual at the
       current iterate, adaptively until ``eta^2 + algebraic <=
       (c_fem * eps_j)^2``;
  [iii] relax: ``u <- u + alpha * w``.

The tolerances contract geometrically, either with a fixed factor or
with the measured update-norm ratio (clamped below one).  Everything a
later step reuses - the iterate, the latest update, the density - is
carried through every refinement by prolongation, and in PCG runs the
volume mesh hierarchy feeds the multilevel preconditioner.  The BEM operators are
built with the driver and follow every refinement, keeping each entry
in its slot; a BEM round computes only the rows and columns of new
segments and, if it computed any, rebuilds the solver of ``V``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import bem
from .estimate import doerfler_mark, eta_fem, mu_bem
from .fem import FeFunction, assemble_riesz, assemble_w_rhs, h1_error, h1_norm, prolongate
from .mesh import boundary_trace, make_initial_mesh, refine_nvb
from .model import EXAMPLES, ProblemSpec, make_problem
from .solver import (CholeskyFactor, JacobiPreconditioner, MeshHierarchy, pcg)

__all__ = [
    "UzawaConfig",
    "UzawaStepRecord",
    "UzawaResult",
    "UzawaDriver",
    "run_experiment_config",
]

_GAMMA_CLAMP = 0.99
_ACCEPTS = {"bool": bool, "int": int, "float": (int, float), "str": str}   # by field type


@dataclass
class UzawaConfig:
    """Parameters of one experiment run."""

    example: str
    alpha: float = 0.05
    gamma: float = 0.95            # tolerance contraction (and adaptive bootstrap)
    adaptive_gamma: bool = False
    eps1: float = 1.0              # tolerance of the first outer step
    theta: float = 0.25            # Doerfler parameter, both loops
    tau_rel: float = 1e-3          # relative PCG stopping
    solver: str = "pcg"            # "pcg" | "exact"
    c_bem: float = 1.0             # stopping constant of step [i]
    c_fem: float = 1.0             # stopping constant of step [ii]
    budget_elements: int = 10_000
    target_nu: float = 0.0         # 0 disables the error-based stop
    max_outer: int = 1000
    mu_gauss: int = 4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool is an int to Python, so only a bool field takes one
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _ACCEPTS[f.type])):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float":    # an int is kept as a float, as a file gives it
                setattr(self, f.name, float(value))
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}; known: {sorted(EXAMPLES)}")
        if self.solver not in ("pcg", "exact"):
            raise ValueError("solver must be 'pcg' or 'exact'")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta out of (0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma out of (0, 1)")
        if not 0.0 < self.tau_rel < 1.0:
            raise ValueError("tau_rel out of (0, 1)")
        for name in ("alpha", "eps1", "c_bem", "c_fem"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("budget_elements", "max_outer", "mu_gauss"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.target_nu >= 0.0:
            raise ValueError("target_nu must not be negative")
        for name in ("alpha", "eps1", "c_bem", "c_fem", "target_nu"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class UzawaStepRecord:
    """Diagnostics of one outer step, in the order they are written out."""

    j: int
    num_elements: int
    err_h1: float
    err_gamma: float
    est_fem: float
    est_bem: float
    est_total: float
    k_bem: int
    k_fem: int
    gamma: float
    epsilon: float
    num_segments: int = 0
    w_norm: float = 0.0
    flags: tuple = ()


@dataclass
class UzawaResult:
    records: list
    u: FeFunction
    psi: bem.BemDensity
    mesh: object
    bmesh: object
    stop_reason: str
    flags: tuple = ()

    @property
    def num_outer(self) -> int:
        return len(self.records)


class UzawaDriver:
    """Stateful outer iteration; create one per run.

    ``observer(driver, phase, payload)`` is called after every inner
    round, of phase ``"bem"`` or ``"fem"``; ``step_observer(driver,
    record)`` after every outer step that :meth:`run` takes.  Besides
    the round's estimators, energy and solution, a payload carries the
    solve's ``iterations`` (0 for an exact solve) and its
    ``preconditioner``: ``"jacobi"`` (BEM) or ``"multilevel"`` (FEM) for
    PCG, ``"exact"`` otherwise.
    """

    def __init__(self, problem: ProblemSpec, config: UzawaConfig,
                 observer: Optional[Callable] = None,
                 step_observer: Optional[Callable] = None):
        self.problem = problem
        self.config = config
        self.observer = observer
        self.step_observer = step_observer
        self.mesh = make_initial_mesh(self.problem.domain)
        self.bm = boundary_trace(self.mesh)
        corners = self.mesh.vertices[self.bm.boundary_vertices]
        diam = float(np.max(np.linalg.norm(corners[:, None] - corners[None], axis=-1)))
        if diam >= 1.0:
            raise ValueError(f"domain diameter {diam:.6g} is not below 1: the "
                             "single-layer operator V is not elliptic")
        self.hierarchy = MeshHierarchy(self.mesh)
        nv, ns = self.mesh.num_vertices, self.bm.num_segments
        self.u = FeFunction(self.mesh, np.zeros(nv))
        self.w_carry = FeFunction(self.mesh, np.zeros(nv))
        self.psi_vals = np.zeros(ns)
        self.bem_ops = bem.BemOperators(self.bm, n_gauss=config.mu_gauss)
        self.bem_precond = self._v_solver()
        self.eps = config.eps1
        self.prev_w_norm = None
        self.flags: set = set()

    # -- mesh motion ---------------------------------------------------------

    def _refine(self, marked_tris=(), marked_segments=()):
        fine, rel = refine_nvb(self.mesh, marked_tris,
                               marked_segments=marked_segments, bmesh=self.bm)
        if self.config.solver == "pcg":        # only PCG reads the hierarchy
            self.hierarchy.push(rel)
        self.u = prolongate(self.u, rel)
        self.w_carry = prolongate(self.w_carry, rel)
        self.psi_vals = self.psi_vals[rel.seg_father]
        self.bem_ops.refine(rel)
        self.mesh = fine
        self.bm = rel.fine_trace

    # -- pieces of one outer step --------------------------------------------

    def _interface_gap(self) -> bem.BoundaryTrace:
        """Affine boundary datum of the integral equation: trace(u) - I_h u0."""
        vals = self.u.values[self.bm.boundary_vertices] - self.bm.vertex_values(self.problem.u0)
        return bem.BoundaryTrace(self.bm, vals)

    def _v_solver(self):
        """Jacobi scaling (pcg) or Cholesky factor (exact) of the current ``V``."""
        V = self.bem_ops.V
        return CholeskyFactor(V) if self.config.solver == "exact" else JacobiPreconditioner.of(V)

    def _solve_spd(self, matrix, rhs, x0, precond, abs_cap):
        """SPD solve honouring both the relative and the absolute tolerance.

        Exact mode solves with ``precond``, a Cholesky factor of
        ``matrix``; otherwise PCG runs to the relative threshold but
        never returns with an algebraic energy that would by itself
        exceed the inner stopping budget ``abs_cap``.  Returns
        ``(x, energy, iterations)``, with 0 iterations for an exact solve.
        """
        if self.config.solver == "exact":
            return precond.solve(rhs), 0.0, 0
        res = pcg(matrix, rhs, x0=x0, preconditioner=precond,
                  rel_threshold=self.config.tau_rel ** 2,
                  abs_threshold=0.5 * abs_cap, max_iterations=2000)
        # a non-finite start returns unconverged; the caller's estimator test sees the NaN
        if not res.converged and np.isfinite(res.final_energy):
            self.flags.add("pcg_maxiter")
        return res.x, res.final_energy, res.iterations

    def _kind(self, pcg_kind: str) -> str:
        """The preconditioner named in a round's payload: ``pcg_kind``, or ``"exact"``."""
        return "exact" if self.config.solver == "exact" else pcg_kind

    def _adaptive_loop(self, phase: str, tol: float, solve, refine):
        """Rounds of ``solve(tol) -> (est2, alg2, payload)`` until ``sum(est2) + alg2 <= tol^2``.

        A non-finite value (also one flagged earlier in the step) or a mesh
        of more than four times the element budget ends the loop with its
        flag; otherwise ``refine`` gets the Doerfler-marked indicators.
        Returns ``(est2, alg2, rounds)``.
        """
        rounds = 0
        while True:
            rounds += 1
            est2, alg2, payload = solve(tol)
            if self.observer is not None:
                self.observer(self, phase, payload)
            total = est2.sum() + alg2
            if "nonfinite" in self.flags or not np.isfinite(total):
                self.flags.add("nonfinite")
                return est2, alg2, rounds
            if total <= tol ** 2:
                return est2, alg2, rounds
            if self.mesh.num_triangles > 4 * self.config.budget_elements:
                self.flags.add("inner_budget_exceeded")
                return est2, alg2, rounds
            refine(doerfler_mark(est2, self.config.theta))

    def _bem_round(self, tol: float):
        """A round of step [i]: solve the integral equation for the density."""
        ops = self.bem_ops
        if ops.fill():
            self.bem_precond = self._v_solver()
        g = self._interface_gap()
        # V and its right-hand side run by slot, the density along the walk
        x, alg2, its = self._solve_spd(ops.V, ops.dl_rhs(g), self.psi_vals[ops.order],
                                       self.bem_precond, tol ** 2)
        self.psi_vals = x[ops.slots]
        psi = bem.BemDensity(self.bm, self.psi_vals)
        mu2 = mu_bem(self.bm, psi, g, du0_ds=self.problem.du0_ds, operators=ops)
        return mu2, alg2, dict(mu2=mu2, alg2=alg2, psi=psi, g=g, iterations=its,
                               preconditioner=self._kind("jacobi"))

    def _fem_round(self, tol: float):
        """A round of step [ii]: solve for the residual representer w, kept as ``w_carry``."""
        R = assemble_riesz(self.mesh)
        rhs = assemble_w_rhs(self.mesh, self.bm, self.problem.f,
                             self.problem.phi0, self.psi_vals, self.u,
                             self.problem.operator)
        # an exact factor is a temporary, freed before the estimator runs
        w_vals, alg2, its = self._solve_spd(
            R, rhs, self.w_carry.values,
            self.hierarchy.preconditioner() if self.config.solver == "pcg" else CholeskyFactor(R),
            tol ** 2)
        self.w_carry = w = FeFunction(self.mesh, w_vals)
        eta2 = eta_fem(self.mesh, self.bm, w, self.u, self.problem.f,
                       self.problem.phi0, self.psi_vals, self.problem.operator)
        return eta2, alg2, dict(eta2=eta2, alg2=alg2, w=w, iterations=its,
                                preconditioner=self._kind("multilevel"))

    # -- outer loop ------------------------------------------------------------

    def step(self, j: int) -> UzawaStepRecord:
        cfg = self.config
        step_flags = []

        mu2, bem_alg2, k_bem = self._adaptive_loop(
            "bem", cfg.c_bem * self.eps, self._bem_round,
            lambda marked: self._refine(marked_segments=marked))
        eta2, fem_alg2, k_fem = self._adaptive_loop(
            "fem", cfg.c_fem * self.eps, self._fem_round, self._refine)

        w = self.w_carry
        self.u = FeFunction(self.mesh, self.u.values + cfg.alpha * w.values)
        w_norm = h1_norm(w)

        # contraction of the next tolerance
        if cfg.adaptive_gamma and self.prev_w_norm is not None and self.prev_w_norm > 0:
            gamma = w_norm / self.prev_w_norm
            if gamma >= 1.0:
                gamma = _GAMMA_CLAMP
                step_flags.append("gamma_clamped")
                self.flags.add("gamma_clamped")
        else:
            gamma = cfg.gamma
        eps_used = self.eps
        self.eps = gamma * self.eps
        self.prev_w_norm = w_norm

        # nu_j: both estimators, the outer perturbation and both algebraic errors
        est_fem, est_bem = float(np.sqrt(eta2.sum())), float(np.sqrt(mu2.sum()))
        nu = est_fem + est_bem + w_norm + np.sqrt(fem_alg2) + np.sqrt(bem_alg2)

        exact = self.problem.exact
        err_h1 = h1_error(self.u, exact.u, exact.grad_u)
        err_gamma = bem.hminushalf_error_surrogate(
            self.bm, exact.phi, self.psi_vals, n_gauss=cfg.mu_gauss)

        return UzawaStepRecord(
            j=j, num_elements=self.mesh.num_triangles,
            err_h1=err_h1, err_gamma=err_gamma,
            est_fem=est_fem, est_bem=est_bem, est_total=nu,
            k_bem=k_bem, k_fem=k_fem, gamma=gamma, epsilon=eps_used,
            num_segments=self.bm.num_segments, w_norm=w_norm,
            flags=tuple(step_flags),
        )

    def run(self) -> UzawaResult:
        cfg = self.config
        records = []
        reason = "max_outer"
        for j in range(1, cfg.max_outer + 1):
            rec = self.step(j)
            records.append(rec)
            if self.step_observer is not None:
                self.step_observer(self, rec)
            if cfg.target_nu > 0.0 and rec.est_total <= cfg.target_nu:
                reason = "target"
                break
            if "nonfinite" in self.flags:
                reason = "nonfinite"
                break
            if "inner_budget_exceeded" in self.flags:
                reason = "inner_budget"
                break
            if self.mesh.num_triangles >= cfg.budget_elements:
                reason = "budget"
                break
        return UzawaResult(
            records=records, u=self.u,
            psi=bem.BemDensity(self.bm, self.psi_vals),
            mesh=self.mesh, bmesh=self.bm,
            stop_reason=reason, flags=tuple(sorted(self.flags)),
        )


def run_experiment_config(config: UzawaConfig, observer: Optional[Callable] = None,
                          step_observer: Optional[Callable] = None) -> UzawaResult:
    """Build the example named by the config and run the outer iteration."""
    return UzawaDriver(make_problem(config.example), config, observer=observer,
                       step_observer=step_observer).run()
