"""In-memory span tracer that times the package's layers from outside.

Every traced name is replaced where its caller looks it up (for example
``interface_surrogates.pde.map_jacobian``, which the assembly code calls,
or ``Mesh.locate`` on the class), and the original object is put back when
the ``installed`` context exits.  Nothing under ``src/`` is modified.

A span is ``[name, phase, op, parent, start, end]``: ``phase`` is
``"setup"`` or ``"loop"``, ``op`` is the sample, call or cell-pair id of the
root span that caused it, and ``parent`` is the index of the enclosing span
(-1 for a root).  Spans stay in memory until the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

import contextlib
import functools
import time

ROOT = "bench.op"
# Spans whose self time is glue around the layers rather than layer work: the
# benchmark's own op and the entry points that only call into the layers.
# Their self time is what no layer span covers.
UNCOVERED = (ROOT, "pipeline.solve", "pipeline.run_experiment", "pipeline.sweep",
             "surrogate.train")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.phase = None
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def root(self, phase, op):
        """Root span of one benchmark operation; nested spans inherit its id."""
        self.phase, self.op = phase, op
        try:
            with self.span(ROOT):
                yield
        finally:
            self.phase = self.op = None

    @contextlib.contextmanager
    def span(self, name):
        record = [name, self.phase, self.op,
                  self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result
        return traced


class Untraced:
    """Tracer interface for untraced runs: roots and counts do nothing."""

    def root(self, phase, op):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


class _ModuleView:
    """Stand-in for a module object with some attributes overridden."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# -- counters: run after the call returns, outside the callee's span --------

def _count_cg(tracer, args, result):
    A = args[0]
    iterations = result[1]["iterations"]
    n = A.shape[0]
    # computed, not measured: one CSR SpMV per iteration reads values,
    # column indices, row offsets and x, and writes y
    spmv = (A.nnz * (A.data.itemsize + A.indices.itemsize)
            + (n + 1) * A.indptr.itemsize + 2 * n * A.data.itemsize)
    tracer.count("linalg.cg_iterations", iterations)
    tracer.count("linalg.cg_spmv_bytes", iterations * spmv)


def _count_fill(tracer, args, result):
    # SuperLU's own count of stored factor entries (L + U, supernodal)
    tracer.count("linalg.lu_fill_nnz", result.nnz)


def _count_points(key):
    def counter(tracer, args, result):
        points = args[1] if key == "mesh.locate_points" else args[2]
        tracer.count(key, len(points) if getattr(points, "ndim", 1) > 1 else 1)
    return counter


def targets():
    """(owner, attribute, span name, counter) for every traced name."""
    from interface_surrogates import linalg, mesh, pde, pipeline, surrogate

    Ws = pipeline.Workspace
    Ep, Hp = pde.EllipticProblem, pde.HelmholtzProblem
    return [
        (pipeline, "sample_parameters", "pipeline.sample_parameters", None),
        (Ws, "__init__", "pipeline.workspace", None),
        (Ws, "solve", "pipeline.solve", None),
        (pipeline, "gen_data", "pipeline.gen_data", None),
        (pipeline, "save_dataset", "pipeline.save_dataset", None),
        (pipeline, "load_dataset", "pipeline.load_dataset", None),
        (pipeline, "train_on_datasets", "pipeline.train", None),
        (pipeline, "run_experiment", "pipeline.run_experiment", None),
        (pipeline, "sweep", "pipeline.sweep", None),
        (pipeline, "build_square_mesh", "mesh.build", None),
        (pipeline, "build_disk_mesh", "mesh.build", None),
        (pipeline, "evaluate_qoi", "pde.qoi", None),
        (mesh.Mesh, "locate", "mesh.locate", _count_points("mesh.locate_points")),
        (Ep, "__init__", "pde.setup", None),
        (Hp, "__init__", "pde.setup", None),
        (Ep, "assemble", "pde.assemble", None),
        (Hp, "assemble", "pde.assemble", None),
        (Ep, "solve", "pde.solve", None),
        (Hp, "solve", "pde.solve", None),
        (pde, "map_jacobian", "geometry.map_jacobian",
         _count_points("geometry.jacobian_points")),
        (pde, "map_forward", "geometry.map_forward", None),
        (pde, "map_inverse", "geometry.map_inverse", None),
        (pde, "assemble_csr", "linalg.assemble_csr", None),
        (pde, "cg_solve", "linalg.cg", _count_cg),
        (pde, "lu_solve", "linalg.lu_solve", None),
        (linalg, "spla", "linalg.lu_factor", _count_fill),
        (surrogate, "train", "surrogate.train", None),
        (surrogate, "backward", "surrogate.backward", None),
        (surrogate, "adam_step", "surrogate.adam", None),
        (surrogate, "loss", "surrogate.loss", None),
        (surrogate, "forward", "surrogate.forward", None),
    ]


def _replacement(tracer, original, attr, name, counter):
    if attr == "spla":
        # splu as seen from linalg only; scipy's module itself is untouched
        return _ModuleView(original, splu=tracer.wrap(name, original.splu, counter))
    return tracer.wrap(name, original, counter)


@contextlib.contextmanager
def installed(tracer):
    """Install every wrapper for the duration of the block, then restore."""
    patches = []
    try:
        for owner, attr, name, counter in targets():
            original = vars(owner)[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, _replacement(tracer, original, attr, name, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def leftover_wrappers():
    """Traced names that currently hold a wrapper instead of the original."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in targets()
            if isinstance(vars(owner)[attr], _ModuleView)
            or hasattr(vars(owner)[attr], "__wrapped__")]


def self_times(spans, phase):
    """Total self time (s) and call count per span name within one phase."""
    child = [0.0] * len(spans)
    for name, ph, op, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    totals, calls = {}, {}
    for i, (name, ph, op, parent, start, end) in enumerate(spans):
        if ph != phase:
            continue
        totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
    return totals, calls


def durations(spans, phase, name):
    """Total duration (s) of the spans of one name, children included."""
    return sum(end - start for n, ph, _, _, start, end in spans
               if ph == phase and n == name)


def table(spans, phase, n_ops, unit):
    """Human-readable self-time table for one phase, largest first."""
    totals, calls = self_times(spans, phase)
    wall = durations(spans, phase, ROOT)
    lines = [f"  {'span':<28}{'calls':>9}{'self ms/' + unit:>16}{'share':>8}"]
    for name in sorted(totals, key=totals.get, reverse=True):
        shown = name + " (uncovered)" if name in UNCOVERED else name
        lines.append(f"  {shown:<28}{calls[name]:>9}"
                     f"{1000 * totals[name] / n_ops:>16.4f}"
                     f"{100 * totals[name] / wall if wall else 0:>7.1f}%")
    return "\n".join(lines)


# -- per-layer metrics -------------------------------------------------------

# self-time metric names that differ from "<span>_ms"
_RENAMED = {"pde.assemble": "pde.assemble_self_ms",
            "linalg.lu_solve": "linalg.lu_solve_self_ms"}
COUNTS = ("linalg.cg_iterations", "linalg.cg_spmv_bytes", "linalg.lu_fill_nnz",
          "geometry.jacobian_points", "mesh.locate_points", "pipeline.bytes_written")


def span_names():
    names = []
    for _, _, name, _ in targets():
        if name not in names:
            names.append(name)
    return names


def per_layer_names():
    spans = ["pipeline.other_ms"] + [_RENAMED.get(s, s + "_ms") for s in span_names()]
    return (spans + ["linalg.lu_ms"] + list(COUNTS)
            + ["surrogate.loss_calls_per_epoch", "trace.coverage",
               "trace.ops_per_s", "trace.spans_per_op", "trace.span_cost_us",
               "trace.overhead_est"]
            + ["setup." + s for s in spans])


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_bytes", "bytes_written")):
        return "bytes"
    return {"trace.coverage": "ratio", "trace.ops_per_s": "1/s",
            "trace.span_cost_us": "us", "trace.overhead_est": "ratio"}.get(name, "count")


def span_cost_s(calls=20000):
    """Time one wrapped call adds over a plain call, on this machine."""
    def plain():
        pass
    wrapped = Tracer().wrap("probe", plain)
    costs = []
    for fn in (plain, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append((time.perf_counter() - t0) / calls)
    return max(costs[1] - costs[0], 0.0)


def layer_metrics(tracer, n_ops, n_setups, ops_per_s):
    """Loop metrics per op and set-up metrics per set-up repetition."""
    out = {}
    for phase, n, prefix in (("loop", n_ops, ""), ("setup", n_setups, "setup.")):
        totals, _ = self_times(tracer.spans, phase)
        uncovered = sum(totals.get(s, 0.0) for s in UNCOVERED)
        out[prefix + "pipeline.other_ms"] = 1000 * uncovered / n
        for s in span_names():
            out[prefix + _RENAMED.get(s, s + "_ms")] = 1000 * totals.get(s, 0.0) / n
    totals, calls = self_times(tracer.spans, "loop")
    out["linalg.lu_ms"] = 1000 * durations(tracer.spans, "loop", "linalg.lu_solve") / n_ops
    for key in COUNTS:
        out[key] = tracer.counts.get(("loop", key), 0) / n_ops
    epochs = calls.get("surrogate.backward", 0)  # one backward pass per epoch
    out["surrogate.loss_calls_per_epoch"] = (calls.get("surrogate.loss", 0) / epochs
                                             if epochs else 0.0)
    wall = durations(tracer.spans, "loop", ROOT)
    uncovered = sum(totals.get(s, 0.0) for s in UNCOVERED)
    out["trace.coverage"] = 1.0 - uncovered / wall if wall else 0.0
    out["trace.ops_per_s"] = ops_per_s
    out["trace.spans_per_op"] = sum(calls.values()) / n_ops
    cost = span_cost_s()
    out["trace.span_cost_us"] = 1e6 * cost
    out["trace.overhead_est"] = sum(calls.values()) * cost / wall if wall else 0.0
    return out
