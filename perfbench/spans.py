"""Span recording around the public callables that ``fembem.uzawa`` calls.

The solver is treated as a black box: nothing under ``src/`` is edited.
``uzawa`` binds its collaborators with ``from ... import ...``, so each
one is replaced in ``fembem.uzawa``'s namespace (and, for
``boundary_trace``, also in ``fembem.mesh``, where ``refine_nvb`` looks
it up); methods are replaced on their classes.  Every wrapped call
records one span (name, start, end, parent).  Self time of a span is
its duration minus the durations of its direct children, so nested
work (``edge_structure`` inside ``refine_nvb``, the multilevel apply
inside ``pcg``) is counted once.

Only the standard library is imported at module level, so importing
this module does not disturb the set-up timing of a repetition.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict

# span name -> per-layer metric prefix; the order is the report order
LAYERS = (
    "mesh.refine_nvb",
    "mesh.boundary_trace",
    "mesh.edge_structure",
    "fem.assemble_riesz",
    "fem.assemble_w_rhs",
    "fem.prolongate",
    "bem.assemble_single_layer",
    "bem.assemble_dl_rhs",
    "estimate.mu_bem",
    "estimate.eta_fem",
    "estimate.doerfler_mark",
    "solver.pcg_bem",
    "solver.pcg_fem",
    "solver.multilevel_apply",
    "solver.cholesky",
    "solver.hierarchy_push",
    "uzawa.diagnostics.h1_error",
    "uzawa.diagnostics.h1_norm",
    "uzawa.diagnostics.hminushalf_error_surrogate",
)
ROOT = "uzawa.run"


class Tracer:
    """In-memory span log; written out only when the repetition ends."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack: list = []
        self.pcg_iterations = defaultdict(int)
        self.meshes_seen: dict = {}      # id -> Mesh, kept alive so ids stay unique
        self.v_keys: set = set()
        self.v_repeats = 0

    def call(self, name, fn, args, kwargs):
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        self.starts[sid] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per name: (self seconds, calls)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[sid]
        out = defaultdict(lambda: [0.0, 0])
        for sid, name in enumerate(self.names):
            out[name][0] += dur[sid] - child[sid]
            out[name][1] += 1
        return out


def _wrap(tracer, fn, name, after=None):
    def wrapped(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def install(tracer: Tracer) -> None:
    """Replace the layer callables of the imported ``fembem`` package."""
    import numpy as np

    import fembem.bem as bem
    import fembem.mesh as mesh
    import fembem.solver as solver
    import fembem.uzawa as uzawa

    def pcg(*args, **kwargs):
        jacobi = isinstance(kwargs.get("preconditioner"), solver.JacobiPreconditioner)
        name = "solver.pcg_bem" if jacobi else "solver.pcg_fem"
        result = tracer.call(name, pcg.__wrapped__, args, kwargs)
        tracer.pcg_iterations[name] += result.iterations
        return result

    pcg.__wrapped__ = uzawa.pcg
    uzawa.pcg = pcg

    def seen_mesh(args, kwargs, result):
        tracer.meshes_seen[id(args[0])] = args[0]

    def v_assembled(args, kwargs, result):
        a, b = args[0].endpoints()
        key = hashlib.sha1(np.ascontiguousarray(np.stack([a, b])).tobytes()).digest()
        if key in tracer.v_keys:
            tracer.v_repeats += 1
        tracer.v_keys.add(key)

    trace_fn = _wrap(tracer, mesh.boundary_trace, "mesh.boundary_trace")
    mesh.boundary_trace = uzawa.boundary_trace = trace_fn
    for attr, name in (("refine_nvb", "mesh.refine_nvb"),
                       ("assemble_riesz", "fem.assemble_riesz"),
                       ("assemble_w_rhs", "fem.assemble_w_rhs"),
                       ("prolongate", "fem.prolongate"),
                       ("mu_bem", "estimate.mu_bem"),
                       ("eta_fem", "estimate.eta_fem"),
                       ("doerfler_mark", "estimate.doerfler_mark"),
                       ("h1_error", "uzawa.diagnostics.h1_error"),
                       ("h1_norm", "uzawa.diagnostics.h1_norm")):
        setattr(uzawa, attr, _wrap(tracer, getattr(uzawa, attr), name))
    bem.assemble_single_layer = _wrap(tracer, bem.assemble_single_layer,
                                      "bem.assemble_single_layer", v_assembled)
    bem.assemble_dl_rhs = _wrap(tracer, bem.assemble_dl_rhs, "bem.assemble_dl_rhs")
    bem.hminushalf_error_surrogate = _wrap(
        tracer, bem.hminushalf_error_surrogate,
        "uzawa.diagnostics.hminushalf_error_surrogate")

    mesh.Mesh.edge_structure = _wrap(tracer, mesh.Mesh.edge_structure,
                                     "mesh.edge_structure", seen_mesh)
    solver.LocalMultilevelDiagonal.apply = _wrap(
        tracer, solver.LocalMultilevelDiagonal.apply, "solver.multilevel_apply")
    solver.MeshHierarchy.push = _wrap(tracer, solver.MeshHierarchy.push,
                                      "solver.hierarchy_push")
    solver.CholeskyFactor.__init__ = _wrap(tracer, solver.CholeskyFactor.__init__,
                                           "solver.cholesky")
    solver.CholeskyFactor.solve = _wrap(tracer, solver.CholeskyFactor.solve,
                                        "solver.cholesky")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self seconds, call counts and the derived ratios."""
    st = tracer.self_times()
    out = {}
    for name in LAYERS:
        seconds, calls = st.get(name, (0.0, 0))
        out[f"{name}.s"] = seconds
        out[f"{name}.calls"] = calls
    for name in ("solver.pcg_bem", "solver.pcg_fem"):
        out[f"{name}.iterations"] = tracer.pcg_iterations[name]
    out["uzawa.self.s"] = st.get(ROOT, (0.0, 0))[0]
    meshes = len(tracer.meshes_seen)
    out["mesh.edge_structure_calls_per_mesh"] = (
        out["mesh.edge_structure.calls"] / meshes if meshes else 0.0)
    v_calls = out["bem.assemble_single_layer.calls"]
    out["bem.v_repeat_share"] = tracer.v_repeats / v_calls if v_calls else 0.0
    return out
