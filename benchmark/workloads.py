"""The benchmark's workloads: closed loop, one client, serial.

Each workload repeats one kind of operation (a sample solve, a training
epoch, a sweep cell) until the run's time is up, after a set-up phase that
is repeated and timed on its own.  Inputs come from the workload seed; the
outputs are checked against reference values committed in reference.json,
which come from a fixed parameter stream (REF_SEED), so that the checks do
not depend on the seed a run is given.
"""

import dataclasses
import json
import math
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from interface_surrogates import pipeline, surrogate

import tracing

REF_SEED = 20210118
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# ROADMAP aim 3: solver changes must reproduce the QoI to this relative tolerance
QOI_RTOL = 1e-9
# training amplifies last-bit changes in BLAS summation order over many Adam
# steps, so trained errors are compared more loosely than single solves
TRAIN_RTOL = 1e-6

# hard cap on the timed loop, so that a run ends well within its time limit
MAX_LOOP_S = 120.0


def _rel_error(value, ref):
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return math.inf
    return float(np.max(np.abs(value - ref)) / np.max(np.abs(ref)))


class Workload:
    """One workload: ``set_up(seed)`` returns the loop's state, ``op(state,
    seed, i)`` runs op call i and returns (ops done, ops failed, seconds
    spent, latency samples in ms), and ``check(state)`` runs the reference
    checks after the loop.  Failed checks are collected in ``problems``.
    """

    name = why = unit = None
    n_setups = 21
    ops_per_call = 1  # ops counted as failed when a whole call raises

    def __init__(self, reference=None):
        self.reference = reference
        self.problems = []
        self.tracer = None
        self.scratch = None

    def compare(self, label, value, ref, rtol):
        err = _rel_error(value, ref)
        if not err <= rtol:
            self.problems.append(f"{label}: relative error {err:.3e} > {rtol:g}")


class Generation(Workload):
    """sample_parameters -> Workspace.solve, on one Workspace."""

    unit = "sample"

    def __init__(self, name, why, preset, n_ref, reference=None, **overrides):
        super().__init__(reference)
        self.name, self.why, self.n_ref = name, why, n_ref
        self.config = dataclasses.replace(pipeline.preset(preset), **overrides)
        self.first = None

    def _ref_y(self, k):
        return pipeline.sample_parameters(REF_SEED, k, self.config.d)

    def set_up(self, seed):
        # a fresh Workspace plus one warm-up sample, which builds the lazy
        # point-location grid
        ws = pipeline.Workspace(self.config)
        self.compare("warm-up reference sample 0", ws.solve(self._ref_y(0)),
                     self.reference["qoi"][0], QOI_RTOL)
        return ws

    def op(self, ws, seed, i):
        t0 = time.perf_counter()
        y = pipeline.sample_parameters(seed, i, self.config.d)
        q = ws.solve(y)
        spent = time.perf_counter() - t0
        if not np.all(np.isfinite(q)):
            self.problems.append(f"sample {i}: non-finite QoI")
        if self.first is None:
            self.first = (y, q)
        return 1, 0, spent, [1000.0 * spent]

    def check(self, ws):
        for k, ref in enumerate(self.reference["qoi"]):
            self.compare(f"reference sample {k}", ws.solve(self._ref_y(k)), ref,
                         QOI_RTOL)
        if self.first is not None:
            y, q = self.first
            self.compare("re-solve of the first timed sample", ws.solve(y), q,
                         QOI_RTOL)

    def compute_reference(self):
        ws = pipeline.Workspace(self.config)
        return {"qoi": [ws.solve(self._ref_y(k)).tolist() for k in range(self.n_ref)]}

    def figures(self, m):
        """The run's figures under the names used for sample generation."""
        return {"samples_per_s": (m["ops_per_s"], "1/s"),
                "sample_ms_p50": (m["op_ms_p50"], "ms"),
                "sample_ms_p90": (m["op_ms_p90"], "ms")}


def smooth_target(Y):
    """Fixed smooth positive QoI stand-in; epoch cost ignores target values."""
    s = Y @ (1.0 / np.arange(1, Y.shape[1] + 1))
    return (1.5 + np.sin(s) + 0.25 * Y[:, 0] * Y[:, 1])[:, None]


class Training(Workload):
    """surrogate.train calls at one training-set size; an op is one epoch."""

    unit = "epoch"
    d, n_test, epochs, restarts, lr, beta = 8, 512, 20, 3, 2e-3, 0.2

    def __init__(self, name, why, n, reference=None):
        super().__init__(reference)
        self.name, self.why, self.n = name, why, n
        self.widths = surrogate.default_widths(self.d, 1)
        self.ops_per_call = self.epochs * self.restarts
        self.net = None
        self.eval_us = math.nan

    def _data(self, seed, n):
        Y = np.array([pipeline.sample_parameters(seed, i, self.d) for i in range(n)])
        return Y, smooth_target(Y)

    def set_up(self, seed):
        return (self._data(seed, self.n),
                self._data(seed + pipeline.TEST_STREAM, self.n_test))

    def _train(self, data, base_seed, restarts, callback=None):
        return surrogate.train(data[0], data[1], self.widths, epochs=self.epochs,
                               restarts=restarts, base_seed=base_seed,
                               beta=self.beta, lr=self.lr, callback=callback)

    def op(self, data, seed, i):
        marks = []

        def callback(restart, epoch, value):
            marks.append((restart, time.perf_counter()))

        t0 = time.perf_counter()
        net, best, reports = self._train(data, i, self.restarts, callback)
        spent = time.perf_counter() - t0
        self.net = net
        if not math.isfinite(best.test_error):
            self.problems.append(f"call {i}: non-finite test error")
        diverged = sum(r.diverged for r in reports)
        # epoch k's latency is the gap between callbacks k-1 and k of one
        # restart; epoch 0 is left out because its gap would include init
        lat = [1000.0 * (b[1] - a[1]) for a, b in zip(marks, marks[1:])
               if a[0] == b[0]]
        return (self.epochs * (self.restarts - diverged), self.epochs * diverged,
                spent, lat)

    def _reference_error(self):
        data = (self._data(REF_SEED, 256),
                self._data(REF_SEED + pipeline.TEST_STREAM, 64))
        return self._train(data, 0, 2)[1].test_error

    def check(self, data):
        self.compare("reference training test error", self._reference_error(),
                     self.reference["test_error"], TRAIN_RTOL)
        y = data[1][0][0]
        times = []
        for _ in range(2000):
            t0 = time.perf_counter()
            surrogate.forward(self.net, y)
            times.append(time.perf_counter() - t0)
        self.eval_us = 1e6 * statistics.median(times)

    def compute_reference(self):
        return {"test_error": self._reference_error()}

    def figures(self, m):
        return {f"epoch_ms_n{self.n}": (1000.0 / m["ops_per_s"], "ms"),
                "surrogate_eval_us": (self.eval_us, "us")}


def _stamps(out):
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in Path(out).iterdir() if p.is_file()}


_DATASET_SUFFIXES = (".samples.csv", ".qoi.csv", ".meta.json")


class SweepCells(Workload):
    """pipeline.sweep into a fresh directory, then again with reuse=True.

    An op is one cell; a pass pair over the grid is timed as a whole and
    its time is shared equally among its cells.
    """

    unit = "cell"
    axes = {"p": [1.0, 3.0]}
    # the shortest set-up (~20 ms) is the noisiest; more repetitions steady
    # the quantile reported
    n_setups = 41

    def __init__(self, name, why, reference=None):
        super().__init__(reference)
        self.name, self.why = name, why
        # a coarse mesh and tiny datasets keep each cell dominated by set-up
        # and file I/O rather than by solves
        self.config = dataclasses.replace(
            pipeline.preset("desk-elliptic"), h_interface=0.06, h_far=0.2,
            n_train=4, n_test=2, epochs=10, restarts=1)
        self.ops_per_call = 2 * len(self.axes["p"])

    def set_up(self, seed):
        # the per-config set-up each cell pays: a Workspace and one solve
        ws = pipeline.Workspace(self.config)
        y = pipeline.sample_parameters(REF_SEED, 0, self.config.d)
        self.compare("warm-up reference sample 0", ws.solve(y),
                     self.reference["setup_qoi"], QOI_RTOL)
        return ws

    def _pair(self, seed):
        """(fresh-pass cells, reuse-pass cells, seconds spent in the passes)."""
        cfg = dataclasses.replace(self.config, seed=seed)
        out = tempfile.mkdtemp(dir=self.scratch)
        try:
            t0 = time.perf_counter()
            first = pipeline.sweep(cfg, self.axes, out, kind="table",
                                   reuse=False, name="cells")
            t1 = time.perf_counter()
            before = _stamps(out)
            t2 = time.perf_counter()
            second = pipeline.sweep(cfg, self.axes, out, kind="table",
                                    reuse=True, name="cells")
            t3 = time.perf_counter()
            after = _stamps(out)
        finally:
            shutil.rmtree(out)
        rewritten = [n for n in after if before.get(n) != after[n]]
        if any(n.endswith(_DATASET_SUFFIXES) for n in rewritten):
            self.problems.append(f"seed {seed}: reuse pass regenerated datasets")
        self.tracer.count("pipeline.bytes_written",
                          sum(s for _, s in before.values())
                          + sum(after[n][1] for n in rewritten))
        return first["cells"], second["cells"], (t1 - t0) + (t3 - t2)

    def op(self, state, seed, i):
        first, second, spent = self._pair((seed * 1_000_003 + i) % 2**63)
        failed = sum("error" in c for c in first + second)
        values = [c.get("value") for c in first]
        if [c.get("value") for c in second] != values:
            self.problems.append(f"pair {i}: reuse pass changed cell values")
        if not all(v is None or math.isfinite(v) for v in values):
            self.problems.append(f"pair {i}: non-finite cell value")
        cells = len(first) + len(second)
        return cells - failed, failed, spent, [1000.0 * spent / cells]

    def _reference_cells(self):
        first, second, _ = self._pair(REF_SEED)
        return [c.get("value") for c in first]

    def check(self, state):
        self.compare("reference sweep cells", self._reference_cells(),
                     self.reference["cells"], TRAIN_RTOL)

    def compute_reference(self):
        ws = pipeline.Workspace(self.config)
        y = pipeline.sample_parameters(REF_SEED, 0, self.config.d)
        return {"setup_qoi": ws.solve(y).tolist(), "cells": self._reference_cells()}

    def figures(self, m):
        return {"cells_per_s": (m["ops_per_s"], "1/s")}


def make_all(reference):
    ref = reference or {}
    return {w.name: w for w in (
        Generation(
            "elliptic-gen",
            "CG, geometry and QoI each take about a third; small in-cache matrix",
            "desk-elliptic", n_ref=6, reference=ref.get("elliptic-gen"),
            d=16, p=1.0, n_points=64),
        Generation(
            "helmholtz-gen",
            "LU factorization dominates, then complex PML assembly; CG and QoI bypassed",
            "desk-helmholtz", n_ref=3, reference=ref.get("helmholtz-gen")),
        Training(
            "train-n2048", "training epochs at the desk size; no solver layer runs",
            2048, reference=ref.get("train")),
        Training(
            "train-n8192", "training epochs at the full-scale size; no solver layer runs",
            8192, reference=ref.get("train")),
        SweepCells(
            "sweep-cells",
            "set-up dominated write-then-read sweep: mesh, Workspace, dataset and checkpoint I/O",
            reference=ref.get("sweep-cells")),
    )}


def load(name):
    with open(REFERENCE_FILE) as fh:
        reference = json.load(fh)
    return make_all(reference)[name]


def record_reference(scratch):
    """Recompute every reference value and write reference.json."""
    ref = {}
    for wl in make_all(None).values():
        key = "train" if isinstance(wl, Training) else wl.name
        if key not in ref:
            wl.tracer, wl.scratch = tracing.Untraced(), scratch
            ref[key] = wl.compute_reference()
    ref["ref_seed"] = REF_SEED
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def execute(wl, seed, seconds, tracer, min_samples):
    """Run the timed loop with n_setups set-ups spread over it, then check.

    The loop runs until both ``seconds`` have passed and ``min_samples``
    latency samples are collected.  The first set-up comes before the loop
    and provides the loop's state; set-up k is timed once the loop is k /
    n_setups of the way to its end, so that the set-up times sample the
    same machine conditions as the operations over the whole loop.
    """
    wl.tracer = tracer
    setup_s = []

    def set_up():
        t0 = time.perf_counter()
        with tracer.root("setup", len(setup_s)):
            state = wl.set_up(seed)
        setup_s.append(time.perf_counter() - t0)
        return state

    state = set_up()
    ok = failed = 0
    busy = 0.0
    latencies, errors = [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        # the loop ends when both the time and the latency sample count are
        # reached, so progress towards its end is the lesser of the two
        progress = min(elapsed / seconds if seconds > 0 else 1.0,
                       len(latencies) / min_samples if min_samples > 0 else 1.0)
        if elapsed >= MAX_LOOP_S or progress >= 1.0:
            break
        if len(setup_s) < wl.n_setups and progress >= len(setup_s) / wl.n_setups:
            set_up()
        t0 = time.perf_counter()
        try:
            with tracer.root("loop", i):
                n_ok, n_failed, spent, lat = wl.op(state, seed, i)
        except Exception as exc:  # one bad op must not abort the run
            n_ok, n_failed = 0, wl.ops_per_call
            spent, lat = time.perf_counter() - t0, []
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        ok += n_ok
        failed += n_failed
        busy += spent
        latencies.extend(lat)
        i += 1
    loop_s = time.perf_counter() - start
    while len(setup_s) < wl.n_setups:
        set_up()

    try:
        wl.check(state)
    except Exception as exc:
        wl.problems.append(f"check raised {type(exc).__name__}: {exc}")
    return {"setup_s": setup_s, "ok": ok, "failed": failed, "busy_s": busy,
            "loop_s": loop_s, "latencies_ms": latencies,
            "calls": i, "problems": wl.problems, "errors": errors}
