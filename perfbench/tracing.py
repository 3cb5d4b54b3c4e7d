"""In-memory spans around the calls into each ``bdmfem`` module.

The program is not instrumented.  :func:`install` replaces the public
functions listed in :data:`LAYERS` by timed wrappers in the namespace
of every ``bdmfem`` module that holds them, so calls between modules
are caught too.  The SuperLU factorization and its back-solve are
wrapped as ``bdmfem.solve`` calls them, and the callables of a problem
are wrapped by :meth:`Tracer.problem`.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the operation the
span belongs to.  Self time is a span's duration minus that of its
direct children.
"""

import copy
import functools
import importlib
import time

# span name -> per-layer metric that receives its self time
LAYERS = {
    "mesh.validate_mesh": "mesh.validate_s",
    "mesh.signed_areas": "mesh.validate_s",
    "mesh.build_edge_topology": "mesh.topology_s",
    "mesh.classify_boundary": "mesh.classify_s",
    "mesh.uniform_refine": "mesh.refine_s",
    "mesh.read_mesh": "mesh.read_s",
    "geometry.barycentric_gradients": "geometry.gradients_s",
    "geometry.edge_geometry": "geometry.edge_geometry_s",
    "basis.resolve_orientation": "basis.orientation_s",
    "assembly.assemble_mass": "assembly.mass_s",
    "assembly.assemble_divergence": "assembly.divergence_s",
    "assembly.assemble_system": "assembly.system_s",
    "bc.dirichlet_term": "bc.dirichlet_s",
    "bc.source_term": "bc.source_s",
    "bc.neumann_lift": "bc.lift_s",
    "solve.solve_problem": "solve.problem_s",
    "solve.solve_reduced": "solve.reduced_s",
    "solve.splu": "solve.factor_s",
    "solve.SuperLU.solve": "solve.backsolve_s",
    "norms.convergence_study": "norms.study_s",
    "norms.compute_errors": "norms.errors_s",
    "norms.eval_sigma_h": "norms.errors_s",
    "problems.callback": "problems.callback_s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_s",
}

# count metric -> span name whose calls it counts
CALL_COUNTS = {
    "mesh.topology_calls": "mesh.build_edge_topology",
    "norms.eval_sigma_calls": "norms.eval_sigma_h",
}

# count metrics that wrappers record from return values
VALUE_COUNTS = ("solve.lu_nnz", "solve.free_dof")

PROBLEM_FIELDS = ("alpha", "source", "dirichlet", "neumann", "exact_u",
                  "exact_sigma")


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = []   # [name, value, op]
        self.op = 0
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name, value):
        self.counts.append([name, int(value), self.op])

    def merge(self, spans, counts):
        """Add the spans and counts another process recorded for the
        current operation (perf_counter is system-wide on Linux)."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1,
                               self.op])
        for name, value, _ in counts:
            self.count(name, value)

    def wrap(self, name, fn, counter=None):
        """`fn` timed as span `name`; `counter(result)` records counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                counter(result)
            return result
        return traced

    def problem(self, problem):
        """A copy of `problem` whose callables are timed."""
        traced = copy.copy(problem)
        for field in PROBLEM_FIELDS:
            fn = getattr(problem, field)
            if fn is not None:
                setattr(traced, field, self.wrap("problems.callback", fn))
        return traced


class _TracedFactor:
    """A SuperLU factor whose back-solve is timed."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("solve.SuperLU.solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedLinalg:
    """``scipy.sparse.linalg`` as ``bdmfem.solve`` sees it, with a
    timed ``splu`` that records the factor's stored nonzeros."""

    def __init__(self, linalg, tracer):
        self._linalg = linalg
        self._tracer = tracer
        self._splu = tracer.wrap(
            "solve.splu", linalg.splu,
            lambda lu: tracer.count("solve.lu_nnz", lu.nnz))

    def splu(self, *args, **kwargs):
        return _TracedFactor(self._splu(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(self._linalg, name)


MODULES = ("mesh", "geometry", "basis", "assembly", "bc", "solve", "norms",
           "problems", "cli")


def install(tracer):
    """Wrap the traced ``bdmfem`` functions in every module namespace."""
    import bdmfem
    modules = {name: importlib.import_module("bdmfem." + name)
               for name in MODULES}
    counters = {"solve.solve_reduced":
                lambda sol: tracer.count("solve.free_dof", sol.num_free)}
    wrapped = {}
    for span in LAYERS:
        module, _, func = span.partition(".")
        fn = getattr(modules.get(module), func, None)
        if callable(fn):
            wrapped[fn] = tracer.wrap(span, fn, counters.get(span))
    for namespace in [bdmfem, *modules.values()]:
        for attr, value in list(vars(namespace).items()):
            if callable(value) and value in wrapped:
                setattr(namespace, attr, wrapped[value])
    modules["solve"].spla = _TracedLinalg(modules["solve"].spla, tracer)


def self_times(spans):
    """Self time of every span, in span order."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def op_metrics(spans, counts, op):
    """Per-layer metrics of one operation: self times and counts."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        if span[4] == op:
            metric = LAYERS[span[0]]
            out[metric] = out.get(metric, 0.0) + own
    for metric, span_name in CALL_COUNTS.items():
        out[metric] = sum(1 for s in spans if s[4] == op and s[0] == span_name)
    for name, value, count_op in counts:
        if count_op == op:
            out[name] = out.get(name, 0) + value
    return out


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    names = dict.fromkeys(LAYERS.values(), "s")
    names.update(dict.fromkeys(CALL_COUNTS, "count"))
    names.update(dict.fromkeys(VALUE_COUNTS, "count"))
    return names
