"""Linear-algebra backends: Cholesky, PCG, and a local multilevel preconditioner.

The outer iteration only ever solves symmetric positive definite
systems (the boundary-integral Galerkin matrix and the H1 Riesz
matrix), so everything here assumes SPD and fails loudly otherwise.
A PCG run needs no direct solver: the coarse level of the multilevel
preconditioner is an inverse computed once in NumPy, so SciPy's
factorizations (LAPACK ``potrs``, SuperLU) are imported by the first
:class:`CholeskyFactor`, which only exact solves build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem import assemble_riesz, riesz_diagonal
from .mesh import Mesh, RefinementRelation, vertex_prolongation_matrix

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
        import scipy.linalg as sla
        import scipy.sparse.linalg as spla

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


def _spd_inverse(matrix) -> np.ndarray:
    """Inverse of a small SPD matrix by Gauss-Jordan elimination, without BLAS.

    Elementwise row operations on ``[A | I]`` without pivoting; for a
    symmetric matrix every pivot is positive exactly when it is positive
    definite, so a non-positive pivot raises :class:`NotSpdError`.  The
    result is symmetrized, so it is exactly symmetric.
    """
    n = len(matrix)
    m = np.hstack([np.asarray(matrix, dtype=float), np.eye(n)])
    for k in range(n):
        if not m[k, k] > 0.0:
            raise NotSpdError("Gauss-Jordan elimination hit a non-positive pivot")
        m[k] /= m[k, k]
        factors = m[:, k].copy()
        factors[k] = 0.0
        m -= factors[:, None] * m[k]
    inverse = m[:, n:]
    return 0.5 * (inverse + inverse.T)


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


class _Level:
    """One refinement of the hierarchy: the parents of its new vertices.

    It keeps no matrix: each read of :attr:`prolongation` builds the
    prolongation from the previous level again.
    """

    def __init__(self, new_vertex_parents, num_coarse: int):
        self._parents = new_vertex_parents
        self._num_coarse = num_coarse

    @property
    def prolongation(self) -> sp.csr_matrix:
        return vertex_prolongation_matrix(self._parents, self._num_coarse).tocsr()


# A level is folded into the last block while that block's basis holds at
# most this many nonzeros per row; past it, the level opens a new block.
_BLOCK_FILL = 24


class LocalMultilevelDiagonal:
    """Additive multilevel diagonal scaling on locally refined vertices.

    The BPX form ``B r = C A0^{-1} C' r + Q (d * Q' r)``: C prolongates
    from the coarsest to the finest level, each column of Q is the
    prolongated hat function of one vertex that was active on its level
    (new, or in a patch that refinement changed), and d holds the inverse
    Riesz diagonal of each such hat function on its level.  The coarsest
    level is solved exactly (it never outgrows the initial mesh): its
    inverse ``A0^{-1}``, computed once, is applied by ``np.einsum``,
    which calls no BLAS.  Optimal for newest-vertex bisection
    hierarchies.

    The levels come in consecutive runs, the blocks of a
    :class:`MeshHierarchy`.  Block b is one CSR basis ``[C_b Q_b]``:
    ``C_b`` prolongates from the block's first level to its last and
    ``Q_b`` holds that run's prolongated active hats, scaled by ``d_b``.
    An apply restricts from fine to coarse with one mat-vec by each
    block's transpose, scaling its hat part and passing the C part down,
    solves on level 0, and prolongates back with one mat-vec per block.
    With a single block this is ``[C Q] (A0^{-1} ⊕ d) [C Q]' r``.
    """

    def __init__(self, blocks, coarse_inverse):
        # (basis, its CSC transpose view, d, number of coarse columns)
        self._blocks = [(basis, basis.T, d, basis.shape[1] - d.size)
                        for basis, d in blocks]
        self._coarse_inverse = coarse_inverse

    def apply(self, r):
        x = np.asarray(r, dtype=float)
        restricted = []
        for _, restriction, d, nc in reversed(self._blocks):
            y = restriction @ x
            y[nc:] *= d
            restricted.append(y)
            x = y[:nc]
        z = np.einsum("ij,j->i", self._coarse_inverse, x)
        for (basis, _, _, nc), y in zip(self._blocks, reversed(restricted)):
            y[:nc] = z
            z = basis @ y
        return z


class MeshHierarchy:
    """Nested mesh sequence feeding the multilevel preconditioner.

    :meth:`push` records the parents of each refinement's new vertices
    and folds the new level into the blocks at once;
    :meth:`preconditioner` only wraps the blocks.  Exact solves need no
    preconditioner, so only PCG runs push.

    Block 0 starts as the identity on level 0.  A level with active
    vertices ``I[:, active]`` and inverse Riesz diagonal d on them is
    folded into the last block, ``[C Q] <- [P [C Q] | I[:, active]]``
    with d appended, while that block holds at most ``_BLOCK_FILL``
    nonzeros per row; otherwise it opens the block ``[P | I[:, active]]``.
    Folding every level into one basis would let each row collect one
    entry per level it lies under, and re-multiply the whole basis by
    each P; blocks keep both the fill and the fold cost per level
    bounded, while the operator stays the same additive sum.  A fold
    reads the fine mesh and the level's prolongation P alone, which is
    built for it and not kept.  The hierarchy holds the finest mesh
    alone: :meth:`push` makes the refined mesh forget its derived facts
    and lets it go, so it is freed once its caller moves on.
    :attr:`meshes` has one slot per level, ``None`` for every coarser
    level and the finest mesh last.
    """

    def __init__(self, mesh: Mesh):
        self.finest = mesh
        self._levels = [None]               # level 0 has no previous level
        self._coarse_inverse = _spd_inverse(assemble_riesz(mesh).toarray())
        self._blocks = [(sp.identity(mesh.num_vertices, format="csr"), np.zeros(0))]

    @property
    def meshes(self) -> list:
        return [None] * (len(self._levels) - 1) + [self.finest]

    def push(self, relation: RefinementRelation) -> None:
        if relation.coarse is not self.finest:
            raise ValueError("refinement does not start from the finest level")
        # the parents alone: the relation's fine trace would keep boundary facts alive
        level = _Level(relation.new_vertex_parents, relation.coarse.num_vertices)
        self._levels.append(level)
        relation.coarse.drop_derived()
        self.finest = relation.fine
        self._fold(relation.fine, level.prolongation)

    def preconditioner(self) -> LocalMultilevelDiagonal:
        return LocalMultilevelDiagonal(self._blocks, self._coarse_inverse)

    def _fold(self, fine: Mesh, prolongation) -> None:
        active = np.zeros(fine.num_vertices, dtype=bool)
        active[prolongation.shape[1]:] = True
        n_sons = np.bincount(fine.father)
        active[fine.triangles[n_sons[fine.father] > 1].ravel()] = True
        idx = np.flatnonzero(active)
        hats = sp.csr_matrix((np.ones(idx.size), (idx, np.arange(idx.size))),
                             shape=(fine.num_vertices, idx.size))
        d = 1.0 / riesz_diagonal(fine)[idx]
        basis, d_last = self._blocks[-1]
        if basis.nnz <= _BLOCK_FILL * basis.shape[0]:
            # the old basis is freed before the grown one is stacked
            del self._blocks[-1]
            grown = prolongation @ basis
            del basis
            self._blocks.append((sp.hstack([grown, hats], format="csr"),
                                 np.concatenate([d_last, d])))
        else:
            self._blocks.append((sp.hstack([prolongation, hats], format="csr"), d))


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
        abs_threshold=np.inf, max_iterations=10_000,
        record_iterates=False) -> PcgResult:
    """Preconditioned conjugate gradients with energy bookkeeping.

    Stops once ``r' P^{-1} r <= min(rel_threshold * (r0' P^{-1} r0),
    abs_threshold)``; the recorded ``p_energies`` drive both stopping
    criteria of the inexact outer iteration.  A non-finite initial energy
    returns at once, unconverged and with that energy, since no iteration
    can help.  An energy below ``eps^2 * (r0' P^{-1} r0)`` also returns,
    unconverged: there the updated residual carries no digit of the true
    one, and iterating on it underflows into a false breakdown.
    ``matrix`` is a dense array or a sparse matrix; ``preconditioner`` is
    any object with ``apply(r)``, the identity if None.
    """
    b = np.asarray(rhs, dtype=float)
    apply = preconditioner.apply if preconditioner is not None else (lambda v: v)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - matrix @ x
    z = apply(r)
    rz = float(r @ z)
    energies = [rz]
    iterates = [x.copy()] if record_iterates else []
    if not np.isfinite(rz):
        return PcgResult(x, 0, energies, False, iterates)
    if rz < 0.0:
        raise SolverBreakdownError("preconditioner is not positive definite")
    if rz == 0.0:
        return PcgResult(x, 0, energies, True, iterates)
    threshold = min(rel_threshold * rz, abs_threshold)
    floor = np.finfo(float).eps ** 2 * rz
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
        if rz_new <= floor:
            return PcgResult(x, k, energies, False, iterates)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return PcgResult(x, max_iterations, energies, False, iterates)
