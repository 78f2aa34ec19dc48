"""Problem data: interior flux maps, manufactured solutions, registry.

Every example couples an interior problem ``-div A(grad u) = f`` on a
polygonal domain with an exterior Laplace field through transmission
data ``u0 = u - u_ext`` and ``phi0 = (A(grad u) - grad u_ext) . n`` on
the interface.  The exterior field is ``u_ext = log|x - x_star|`` with
a pole inside the domain, so the exact interface density is
``phi = n.(x - x_star)/|x - x_star|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .fem import FeFunction

__all__ = [
    "ExactData",
    "ProblemSpec",
    "chi",
    "chi_prime",
    "make_problem",
    "EXAMPLES",
    "monotonicity_probe",
]

_POLE = np.array([-0.125, 0.125])


@dataclass(frozen=True)
class ExactData:
    u: Callable               # (n,2) -> (n,)
    grad_u: Callable          # (n,2) -> (n,2)
    u_ext: Callable
    grad_u_ext: Callable

    def phi(self, points, normals):
        """Exact interface density: normal trace of the exterior field."""
        return np.einsum("nd,nd->n", np.asarray(normals, float),
                         self.grad_u_ext(points))


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the solver needs about one example, its exact solution included."""

    name: str
    domain: str
    operator: Callable                # flux map A of the gradient alone, (n,2) -> (n,2)
    f: Callable                       # volume load, (n,2) -> (n,)
    u0: Callable                      # jump of traces, (n,2) -> (n,)
    phi0: Callable                    # jump of fluxes, (points, normals) -> (n,)
    du0_ds: Callable                  # arclength derivative of u0, (points, tangents) -> (n,)
    exact: ExactData


# ----------------------------------------------------------------------------
# the tanh nonlinearity

_CHI_SMALL = 1e-4
# cosh(t)^2 overflows past |t| = 355; past |t| = 350, t / cosh(t)^2 is below
# half an ulp of tanh(t) = +-1, and so is t / cosh(350)^2 for |t| < 1e150
_COSH_CAP = 350.0


def chi(t):
    """chi(t) = 1 + tanh(t)/t, continuously extended by chi(0) = 2."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < _CHI_SMALL
    ts = np.where(small, 1.0, t)
    out = 1.0 + np.tanh(ts) / ts
    t2 = t * t
    series = 2.0 - t2 / 3.0 + 2.0 * t2 * t2 / 15.0
    return np.where(small, series, out)


def chi_prime(t):
    """Derivative of chi, with a series branch near zero; free of overflow for large |t|."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < _CHI_SMALL
    ts = np.where(small, 1.0, t)
    out = (ts / np.cosh(np.clip(ts, -_COSH_CAP, _COSH_CAP)) ** 2 - np.tanh(ts)) / ts ** 2
    series = -2.0 * t / 3.0 + 8.0 * t ** 3 / 15.0
    return np.where(small, series, out)


# ----------------------------------------------------------------------------
# corner singularities in polar form


def _polar(points):
    """Radius and angle in [0, 2*pi), branch cut inside the removed wedge."""
    p = np.asarray(points, dtype=float)
    r = np.hypot(p[..., 0], p[..., 1])
    phi = np.arctan2(p[..., 1], p[..., 0])
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi)
    return r, phi


def _corner_u(beta):
    """u = r^beta cos(beta phi), harmonic with Neumann edges at the corner."""

    def u(points):
        r, phi = _polar(points)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = r ** beta * np.cos(beta * phi)
        return np.where(r == 0.0, 0.0, vals)

    return u


def _corner_grad(beta):
    # grad(r^b cos(b phi)) = b r^(b-1) (cos((b-1)phi), -sin((b-1)phi))
    def grad(points):
        r, phi = _polar(points)
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = beta * r ** (beta - 1.0)
        mag = np.where(r == 0.0, 0.0, mag)
        return np.stack([mag * np.cos((beta - 1.0) * phi),
                         -mag * np.sin((beta - 1.0) * phi)], axis=-1)
    return grad


def _exact_data(beta):
    u = _corner_u(beta)
    grad_u = _corner_grad(beta)

    def u_ext(points):
        d = np.asarray(points, float) - _POLE
        return np.log(np.hypot(d[..., 0], d[..., 1]))

    def grad_u_ext(points):
        d = np.asarray(points, float) - _POLE
        return d / np.einsum("...d,...d->...", d, d)[..., None]

    return ExactData(u=u, grad_u=grad_u, u_ext=u_ext, grad_u_ext=grad_u_ext)


def _transmission_callbacks(exact: ExactData, flux_of_grad):
    def u0(points):
        return exact.u(points) - exact.u_ext(points)

    def phi0(points, normals):
        flux = flux_of_grad(exact.grad_u(points)) - exact.grad_u_ext(points)
        return np.einsum("nd,nd->n", np.asarray(normals, float), flux)

    def du0_ds(points, tangents):
        dg = exact.grad_u(points) - exact.grad_u_ext(points)
        return np.einsum("nd,nd->n", np.asarray(tangents, float), dg)

    return u0, phi0, du0_ds


def _lshape(name: str, scale: float) -> ProblemSpec:
    exact = _exact_data(2.0 / 3.0)

    # A = scale * I: strongly monotone and Lipschitz, both with constant scale
    def a_flux(grads):
        return scale * np.asarray(grads, float)

    u0, phi0, du0 = _transmission_callbacks(exact, a_flux)
    return ProblemSpec(
        name=name, domain="lshape", operator=a_flux,
        f=lambda x: np.zeros(len(np.atleast_2d(x))),
        u0=u0, phi0=phi0, du0_ds=du0, exact=exact)


def _nonlinear_zshape() -> ProblemSpec:
    beta = 4.0 / 7.0
    exact = _exact_data(beta)

    # A = chi(|g|) g: strongly monotone with constant 1, Lipschitz with constant 2
    def a_flux(grads):
        g = np.asarray(grads, float)
        t = np.linalg.norm(g, axis=-1)
        return chi(t)[..., None] * g

    u0, phi0, du0 = _transmission_callbacks(exact, a_flux)

    def f(points):
        # f = -div(chi(|grad u|) grad u) for the harmonic corner function:
        # only the chi'(t) grad t . grad u term survives.
        r, phi = _polar(points)
        r = np.maximum(r, 1e-300)
        t = beta * r ** (beta - 1.0)
        return -chi_prime(t) * beta ** 2 * (beta - 1.0) * r ** (2.0 * beta - 3.0) \
            * np.cos(beta * phi)

    return ProblemSpec(
        name="nonlinear_zshape", domain="zshape", operator=a_flux,
        f=f, u0=u0, phi0=phi0, du0_ds=du0, exact=exact)


EXAMPLES = {
    "laplace_lshape": partial(_lshape, "laplace_lshape", 1.0),
    "scaled_laplace_lshape": partial(_lshape, "scaled_laplace_lshape", 0.1),
    "nonlinear_zshape": _nonlinear_zshape,
}


def make_problem(name: str) -> ProblemSpec:
    try:
        return EXAMPLES[name]()
    except KeyError:
        raise ValueError(f"unknown example {name!r}; known: {sorted(EXAMPLES)}") from None


# ----------------------------------------------------------------------------
# monotonicity of the flux map on discrete functions


def monotonicity_probe(operator: Callable, mesh, *, trials: int, rng: np.random.Generator):
    """Empirical monotonicity/Lipschitz quotients of the flux map.

    Draws random pairs of P1 functions and returns (min, max) over the
    trials of ``<a(w) - a(v), w - v> / |w - v|_{H^1-semi}^2``.  Both
    forms are sums over the elements of their areas times the products
    of the constant gradients and fluxes, exact for P1.  For a linear
    flux ``A = s*I`` both bounds equal ``s``; for the tanh flux the
    quotient stays within [1, 2].
    """
    area = mesh.areas()
    nv = mesh.num_vertices
    lo, hi = np.inf, -np.inf
    for _ in range(trials):
        scale_v = 10.0 ** rng.uniform(-2, 2)
        scale_w = 10.0 ** rng.uniform(-2, 2)
        v = FeFunction(mesh, rng.standard_normal(nv) * scale_v)
        w = FeFunction(mesh, rng.standard_normal(nv) * scale_w)
        dg = w.element_gradients() - v.element_gradients()
        den = float(area @ np.einsum("td,td->t", dg, dg))
        if den <= 0:
            continue
        num = float(area @ np.einsum("td,td->t", w.flux(operator) - v.flux(operator), dg))
        q = num / den
        lo, hi = min(lo, q), max(hi, q)
    return lo, hi
