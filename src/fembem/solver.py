"""Linear-algebra backends: Cholesky, PCG, and a local multilevel preconditioner.

The outer iteration only ever solves symmetric positive definite
systems (the boundary-integral Galerkin matrix and the H1 Riesz
matrix), so everything here assumes SPD and fails loudly otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import assemble_riesz, riesz_diagonal
from .mesh import Mesh, RefinementRelation

__all__ = [
    "NotSpdError",
    "SolverBreakdownError",
    "CholeskyFactor",
    "PcgResult",
    "pcg",
    "JacobiPreconditioner",
    "MeshHierarchy",
    "LocalMultilevelDiagonal",
]


class NotSpdError(Exception):
    """The matrix handed to a definiteness-requiring solver is not SPD."""


class SolverBreakdownError(Exception):
    """PCG produced a non-positive curvature or preconditioner energy."""


class CholeskyFactor:
    """Reusable direct solver for an SPD matrix, dense or sparse.

    Sparse matrices go through an LU factorization with pivoting
    disabled on a symmetric fill-reducing permutation, which coincides
    with (scaled) Cholesky for SPD input; a non-positive pivot on the
    diagonal of U exposes an indefinite matrix.
    """

    def __init__(self, matrix):
        if sp.issparse(matrix):
            lu = spla.splu(
                matrix.tocsc(),
                diag_pivot_thresh=0.0,
                permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True},
            )
            if not np.all(lu.U.diagonal() > 0.0):
                raise NotSpdError("sparse factorization hit a non-positive pivot")
            self._solve = lu.solve
        else:
            a = np.asarray(matrix, dtype=float)
            try:
                factor = sla.cho_factor(a, lower=True, check_finite=False)
            except sla.LinAlgError as exc:
                raise NotSpdError("dense Cholesky failed") from exc
            self._solve = lambda b: sla.cho_solve(factor, b, check_finite=False)

    def solve(self, b):
        return self._solve(np.asarray(b, dtype=float))


# ----------------------------------------------------------------------------
# preconditioners


@dataclass(frozen=True)
class JacobiPreconditioner:
    inverse_diagonal: np.ndarray

    @classmethod
    def of(cls, matrix):
        d = matrix.diagonal()
        if np.any(d <= 0.0):
            raise NotSpdError("matrix diagonal is not positive")
        return cls(1.0 / d)

    def apply(self, r):
        return self.inverse_diagonal * r


@dataclass(frozen=True)
class _Level:
    prolongation: sp.csr_matrix | None  # from the previous level; None on level 0
    restriction: sp.csr_matrix | None   # its transpose, stored as CSR
    inverse_diagonal: np.ndarray        # of the Riesz matrix, zero off the active vertices
    coarse_factor: CholeskyFactor | None = None


class LocalMultilevelDiagonal:
    """Additive multilevel diagonal scaling on locally refined vertices.

    On each level the residual is restricted, scaled by the inverse
    Riesz diagonal on the vertices whose patch changed during that
    refinement, prolongated back and summed; the coarsest level is
    solved exactly (it never outgrows the initial mesh).  Optimal for
    newest-vertex bisection hierarchies.
    """

    def __init__(self, levels):
        self.levels = list(levels)

    def apply(self, r):
        residuals = [np.asarray(r, dtype=float)]
        for level in reversed(self.levels[1:]):
            residuals.append(level.restriction @ residuals[-1])
        residuals.reverse()
        z = self.levels[0].coarse_factor.solve(residuals[0])
        for level, res in zip(self.levels[1:], residuals[1:]):
            z = level.prolongation @ z + level.inverse_diagonal * res
        return z


class MeshHierarchy:
    """Nested mesh sequence feeding the multilevel preconditioner.

    Grown with :meth:`push` as the adaptive loop refines; every level
    caches its prolongation and restriction and its inverse Riesz
    diagonal restricted to the active vertices.
    """

    def __init__(self, mesh: Mesh):
        self.meshes = [mesh]
        d = riesz_diagonal(mesh)
        self._levels = [_Level(None, None, 1.0 / d,
                               CholeskyFactor(assemble_riesz(mesh).toarray()))]

    @property
    def finest(self) -> Mesh:
        return self.meshes[-1]

    def push(self, relation: RefinementRelation) -> None:
        if relation.coarse is not self.finest:
            raise ValueError("refinement does not start from the finest level")
        fine = relation.fine
        nvc = relation.coarse.num_vertices
        active = np.zeros(fine.num_vertices, dtype=bool)
        active[nvc:] = True
        n_sons = np.bincount(fine.father, minlength=relation.coarse.num_triangles)
        active[fine.triangles[n_sons[fine.father] > 1].ravel()] = True
        inverse_diagonal = np.where(active, 1.0 / riesz_diagonal(fine), 0.0)
        prolongation = relation.vertex_prolongation_matrix().tocsr()
        self._levels.append(
            _Level(prolongation, prolongation.T.tocsr(), inverse_diagonal)
        )
        self.meshes.append(fine)

    def preconditioner(self) -> LocalMultilevelDiagonal:
        return LocalMultilevelDiagonal(self._levels)


# ----------------------------------------------------------------------------
# conjugate gradients


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    p_energies: list          # r' P^{-1} r after 0, 1, ... updates
    converged: bool
    iterates: list = field(default_factory=list)

    @property
    def final_energy(self) -> float:
        return self.p_energies[-1]


def pcg(matrix, rhs, x0=None, preconditioner=None, rel_threshold=1e-12,
        max_iterations=10_000, record_iterates=False) -> PcgResult:
    """Preconditioned conjugate gradients with energy bookkeeping.

    Stops once ``r' P^{-1} r <= rel_threshold * (r0' P^{-1} r0)``; the
    recorded ``p_energies`` drive both stopping criteria of the inexact
    outer iteration.  ``matrix`` is a dense array or a sparse matrix;
    ``preconditioner`` is any object with ``apply(r)``, the identity if
    None.
    """
    b = np.asarray(rhs, dtype=float)
    apply = preconditioner.apply if preconditioner is not None else (lambda v: v)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - matrix @ x
    z = apply(r)
    rz = float(r @ z)
    if rz < 0.0:
        raise SolverBreakdownError("preconditioner is not positive definite")
    energies = [rz]
    iterates = [x.copy()] if record_iterates else []
    if rz == 0.0:
        return PcgResult(x, 0, energies, True, iterates)
    threshold = rel_threshold * rz
    p = z.copy()
    for k in range(1, max_iterations + 1):
        ap = matrix @ p
        curvature = float(p @ ap)
        if curvature <= 0.0:
            raise SolverBreakdownError("matrix is not positive definite along a search direction")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
        z = apply(r)
        rz_new = float(r @ z)
        if rz_new < 0.0:
            raise SolverBreakdownError("preconditioner is not positive definite")
        energies.append(rz_new)
        if record_iterates:
            iterates.append(x.copy())
        if rz_new <= threshold:
            return PcgResult(x, k, energies, True, iterates)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return PcgResult(x, max_iterations, energies, False, iterates)
