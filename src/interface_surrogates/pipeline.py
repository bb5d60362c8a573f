"""End-to-end orchestration: configs, seeded datasets, training runs, sweeps.

A single ExperimentConfig describes one experiment cell: the interface
model, the PDE and its discretization, the evaluation points, the sample
counts and the training protocol.  Datasets are generated with a
counter-based RNG so that sample n is reproducible independently of the
worker count, and persisted as CSV matrices plus a JSON metadata sidecar
keyed by a hash of the data-affecting part of the config.
"""

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import numbers
import os
import time
import warnings
from datetime import datetime, timezone
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import plotting, surrogate
from .geometry import DomainMap, InterfaceModel, max_shape_variation
from .linalg import nominal_method
from .mesh import build_disk_mesh, build_square_mesh
from .pde import (
    COCG_TOL,
    EllipticProblem,
    HelmholtzProblem,
    SolverError,
    circle_points,
    evaluate_qoi,
)

# reference outer wavenumber (wavelength 0.03)
K0 = 200.0 * np.pi / 3.0

# offset added to the sample-stream key to get the disjoint test stream
TEST_STREAM = 2**64


class PipelineError(RuntimeError):
    pass


def _is_number(value, annotation):
    """value fits a config field annotated int or float; a bool fits neither."""
    kind = numbers.Integral if annotation is int else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclasses.dataclass
class ExperimentConfig:
    """One experiment cell; None fields resolve to problem-specific defaults."""

    problem: str = "elliptic"
    d: int = 8
    p: float = 3.0
    c: float = 0.08
    r0: float = None
    r_inner: float = None
    r_outer: float = None
    alpha_i: float = 10.0
    kappa_o: float = None
    kappa_i: float = None
    R: float = 0.055
    pml_thickness: float = 0.02
    pml_damping: float = 0.5
    direction: tuple = (1.0, 0.0)
    n_points: int = 1
    point_radius: float = None
    h_interface: float = None
    h_far: float = None
    cg_tol: float = 1e-10
    n_train: int = 2048
    n_test: int = 512
    epochs: int = 5000
    restarts: int = 3
    lr: float = 2e-4
    beta: float = 0.2
    depth: int = 10
    seed: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        if self.problem not in ("elliptic", "helmholtz"):
            raise PipelineError(f"unknown problem kind {self.problem!r}")
        if not isinstance(self.out_dir, str):
            raise PipelineError(f"out_dir must be a string, got {self.out_dir!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in (int, float) and not (value is None and f.default is None):
                if not _is_number(value, f.type):
                    what = "an integer" if f.type is int else "a number"
                    raise PipelineError(f"{f.name} must be {what}, got {value!r}")
                # a numpy scalar becomes the Python number, which json writes
                setattr(self, f.name, value.item() if isinstance(value, np.generic) else value)
        d = self.direction
        if not (isinstance(d, (list, tuple, np.ndarray)) and len(d) == 2
                and all(_is_number(v, float) for v in d) and any(d)):
            raise PipelineError(f"direction must be two numbers, not both 0, got {d!r}")
        self.direction = tuple(float(v) for v in self.direction)
        for name, low in (("n_points", 1), ("n_train", 1), ("n_test", 1),
                          ("epochs", 1), ("restarts", 1), ("depth", 2)):
            if getattr(self, name) < low:
                raise PipelineError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.lr > 0:
            raise PipelineError(f"lr must be > 0, got {self.lr}")
        if not 0 <= self.beta <= 1:
            raise PipelineError(f"beta must be in [0, 1], got {self.beta}")
        if not (0 <= self.seed < 2**63):
            raise PipelineError("seed must be in [0, 2**63)")
        if self.problem == "helmholtz":
            if self.cg_tol != ExperimentConfig.cg_tol:
                raise PipelineError(
                    f"cg_tol = {self.cg_tol:g} has no effect on helmholtz, "
                    f"whose solves stop at {COCG_TOL:g}; leave it at its default")
            ko, ki = self.wavenumbers()
            for name, value in (("kappa_o", ko), ("kappa_i", ki)):
                if not (np.isfinite(value) and value > 0):
                    raise PipelineError(f"{name} must be a finite number > 0, got {value!r}")
            if ki**2 / ko**2 > self.alpha_i + 1e-12:
                raise PipelineError(
                    f"trapping configuration: (kappa_i/kappa_o)^2 = "
                    f"{ki**2 / ko**2:.4g} exceeds alpha_i = {self.alpha_i:.4g}"
                )

    def wavenumbers(self):
        ko = K0 if self.kappa_o is None else float(self.kappa_o)
        ki = 0.8 * ko if self.kappa_i is None else float(self.kappa_i)
        return ko, ki

    def widths(self):
        return surrogate.default_widths(self.d, self.n_points, depth=self.depth)

    # -- identity ----------------------------------------------------------

    def data_signature(self):
        """Resolved values of every field that affects dataset content.

        This is the one place where the None fields take their
        problem-specific defaults; Workspace builds the map, mesh, problem,
        evaluation points and QoI kind from these values alone, so no field
        outside the signature can change a dataset.
        """
        elliptic = self.problem == "elliptic"
        r0 = float(self.r0) if self.r0 is not None else (0.5 if elliptic else 0.01)
        if elliptic:
            h_int, h_far, outer = 0.06 * r0, 0.16 * r0, 1.75 * r0
        else:
            # hold elements per wavelength fixed under wavenumber sweeps
            h_int = h_far = 2 * np.pi / self.wavenumbers()[0] / 12
            outer = self.R
        sig = {
            "problem": self.problem,
            "d": self.d,
            "p": self.p,
            "c": self.c,
            "r0": r0,
            "r_inner": r0 / 4 if self.r_inner is None else float(self.r_inner),
            "r_outer": outer if self.r_outer is None else float(self.r_outer),
            "alpha_i": self.alpha_i,
            "n_points": self.n_points,
            "point_radius": r0 if self.point_radius is None else self.point_radius,
            "h_interface": float(h_int if self.h_interface is None else self.h_interface),
            "h_far": float(h_far if self.h_far is None else self.h_far),
        }
        if elliptic:
            sig["cg_tol"] = self.cg_tol
        else:
            ko, ki = self.wavenumbers()
            sig.update({
                "kappa_o": ko, "kappa_i": ki, "R": self.R,
                "pml_thickness": self.pml_thickness,
                "pml_damping": self.pml_damping,
                "direction": list(self.direction),
            })
        return sig

    def data_hash(self):
        blob = json.dumps(self.data_signature(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def tag(self):
        parts = [self.problem, f"d{self.d}", f"p{self.p:g}",
                 f"a{self.alpha_i:g}", f"np{self.n_points}"]
        if self.problem == "helmholtz":
            ko, ki = self.wavenumbers()
            parts.append(f"k{ki / ko:g}")
            if abs(ko - K0) > 1e-9:
                parts.append(f"w{ko / K0:g}")
        return "-".join(parts)

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["direction"] = list(self.direction)
        return d

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise PipelineError(f"a config must be a JSON object, got {data!r}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ------------------------------------------------------------------ presets

_DESK = dict(n_train=2048, n_test=512, epochs=5000, restarts=3, lr=2e-3)
_FULL = dict(n_train=8192, n_test=2048, epochs=50_000, restarts=20, lr=2e-4)

PRESETS = {
    "desk-elliptic": dict(problem="elliptic", d=8, p=3.0, alpha_i=10.0,
                          n_points=1, **_DESK),
    "desk-helmholtz": dict(problem="helmholtz", d=8, p=3.0, alpha_i=10.0,
                           n_points=1, **_DESK),
    "table2-alpha10": dict(problem="elliptic", d=8, p=3.0, alpha_i=10.0,
                           n_points=1, h_interface=0.002, h_far=0.035, **_FULL),
    "table2-alpha100": dict(problem="elliptic", d=8, p=3.0, alpha_i=100.0,
                            n_points=1, h_interface=0.002, h_far=0.035, **_FULL),
    "table2-alpha1000": dict(problem="elliptic", d=8, p=3.0, alpha_i=1000.0,
                             n_points=1, h_interface=0.002, h_far=0.035, **_FULL),
    "table3-alpha100": dict(problem="elliptic", d=8, p=3.0, alpha_i=100.0,
                            n_points=64, h_interface=0.002, h_far=0.035, **_FULL),
    "table5-alpha10": dict(problem="helmholtz", d=8, p=3.0, alpha_i=10.0,
                           n_points=1, **_FULL),
    "table5-alpha100": dict(problem="helmholtz", d=8, p=3.0, alpha_i=100.0,
                            n_points=1, **_FULL),
    "table5-alpha1000": dict(problem="helmholtz", d=8, p=3.0, alpha_i=1000.0,
                             n_points=1, **_FULL),
    "table7-c1": dict(problem="helmholtz", d=16, p=3.0, alpha_i=1.0,
                      n_points=1, **_FULL),
    "table8-2k0": dict(problem="helmholtz", d=16, p=3.0, alpha_i=10.0,
                       kappa_o=2 * K0, kappa_i=1.6 * K0, n_points=1, **_FULL),
}

SWEEPS = {
    "table1": {"base": "desk-elliptic", "kind": "geometry",
               "axes": {"p": [1.0, 2.0, 3.0], "d": [8, 16, 32, 64]}},
    "desk-contrast-elliptic": {"base": "desk-elliptic", "kind": "table",
                               "axes": {"p": [1.0, 3.0], "d": [8, 16]}},
    "desk-contrast-helmholtz": {"base": "desk-helmholtz", "kind": "table",
                                "axes": {"p": [1.0, 3.0], "d": [8, 16]}},
    "desk-points-elliptic": {"base": "desk-elliptic", "kind": "figure",
                             "axes": {"n_points": [1, 8, 64]}},
    "desk-points-helmholtz": {"base": "desk-helmholtz", "kind": "figure",
                              "axes": {"n_points": [1, 8, 64]}},
    "desk-frequency": {"base": "desk-helmholtz", "kind": "figure",
                       "axes": {"kappa_o": [K0, 2 * K0]}},
}


def preset(name):
    if name not in PRESETS:
        raise PipelineError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return ExperimentConfig(**PRESETS[name])


def sweep_spec(name):
    if name not in SWEEPS:
        raise PipelineError(
            f"unknown sweep {name!r}; available: {', '.join(sorted(SWEEPS))}")
    spec = SWEEPS[name]
    return preset(spec["base"]), spec["axes"], spec["kind"]


# ----------------------------------------------------------------- sampling


def sample_parameters(seed, n, d):
    """Parameter draw for sample n of the stream keyed by seed.

    Each sample owns a disjoint counter block of the same keyed stream, so
    the draw depends only on (seed, n), not on worker scheduling.
    """
    bitgen = np.random.Philox(key=seed, counter=[0, n, 0, 0])
    return np.random.Generator(bitgen).uniform(-1.0, 1.0, d)


def mesh_checksum(mesh):
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.triangles, mesh.region, mesh.band,
                mesh.boundary):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _interface_model(sig):
    return InterfaceModel(sig["r0"], sig["d"], sig["p"], sig["c"])


def _nominal_mesh(sig):
    """The nominal mesh of a data signature."""
    # the builders are looked up here, at call time, where tracing patches them
    if sig["problem"] == "elliptic":
        return build_square_mesh(sig["r0"], sig["r_inner"], sig["r_outer"],
                                 sig["h_interface"], sig["h_far"])
    return build_disk_mesh(sig["r0"], sig["r_inner"], sig["R"],
                           sig["pml_thickness"], sig["h_interface"], sig["h_far"])


class Workspace:
    """Per-process solver state reused across samples of one config.

    Everything here is built from config.data_signature(): the domain map,
    the nominal mesh, the problem, the evaluation points and the QoI kind.
    """

    def __init__(self, config):
        self.config = config
        sig = config.data_signature()
        self.dm = DomainMap(_interface_model(sig), sig["r_inner"], sig["r_outer"])
        self.mesh = _nominal_mesh(sig)
        if sig["problem"] == "elliptic":
            self.problem = EllipticProblem(self.mesh, self.dm, sig["alpha_i"],
                                           cg_tol=sig["cg_tol"])
            self.kind = "value"
        else:
            self.problem = HelmholtzProblem(
                self.mesh, self.dm, sig["alpha_i"], sig["kappa_i"], sig["kappa_o"],
                direction=sig["direction"], pml_damping=sig["pml_damping"])
            self.kind = "amplitude"
        self.points = circle_points(sig["point_radius"], sig["n_points"])

    def solve(self, y):
        field = self.problem.solve(y)
        q = evaluate_qoi(field, self.dm, y, self.points, self.kind)
        if not np.isfinite(q).all():
            raise SolverError(f"non-finite QoI {q.tolist()} for y={np.asarray(y)!r}", y)
        return q


def _solve_block(config, seed, start, stop, workspace=None):
    """Samples start ... stop-1 of seed's stream and their QoIs, solved on
    workspace, or on a fresh Workspace of config when none is given."""
    ws = Workspace(config) if workspace is None else workspace
    samples = np.empty((stop - start, config.d))
    qoi = np.empty((stop - start, config.n_points))
    for k, i in enumerate(range(start, stop)):
        y = samples[k] = sample_parameters(seed, i, config.d)
        try:
            qoi[k] = ws.solve(y)
        except SolverError as exc:
            raise PipelineError(f"sample {i} failed: {exc}; y = {y.tolist()}") from exc
    return samples, qoi


# ----------------------------------------------------------------- datasets


@dataclasses.dataclass
class Dataset:
    samples: np.ndarray
    qoi: np.ndarray
    meta: dict

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.qoi = np.asarray(self.qoi, dtype=float)
        if self.samples.ndim != 2 or self.qoi.ndim != 2:
            raise PipelineError("samples and qoi must be matrices")
        if self.samples.shape[0] != self.qoi.shape[0]:
            raise PipelineError("sample and qoi row counts differ")
        if self.samples.size and np.abs(self.samples).max() > 1.0:
            raise PipelineError("parameter rows must lie in [-1, 1]^d")

    @property
    def n(self):
        return self.samples.shape[0]

    def as_pair(self):
        return self.samples, self.qoi


def gen_data(config, n=None, seed=None, workers=1, workspace=None):
    """Generate n (y, q) pairs for config; see sample_parameters for seeding.

    The samples are cut into min(max(workers, 1), n) contiguous blocks.  A
    pool of one process per block after the first solves blocks 1..., each
    on a Workspace of its own; the parent solves block 0 on workspace, a
    Workspace of config's data signature, or on a fresh one when none is
    given.  Each sample is solved alone, so no result depends on workers.
    A failed sample raises PipelineError: one in block 0 at once, the pool
    being terminated on the way out, one in a later block only once block 0
    is done, when its result is read.
    """
    n = config.n_train if n is None else int(n)
    seed = config.seed if seed is None else int(seed)
    if n < 1:
        raise PipelineError("need at least one sample")
    if workspace is not None and workspace.config.data_hash() != config.data_hash():
        raise PipelineError("workspace was built for a different data signature")
    t0 = time.perf_counter()
    k = min(max(workers, 1), n)
    edges = [n * j // k for j in range(k + 1)]
    with Pool(k - 1) if k > 1 else contextlib.nullcontext() as pool:
        rest = [pool.apply_async(_solve_block, (config, seed, a, b))
                for a, b in zip(edges[1:-1], edges[2:])]
        ws = Workspace(config) if workspace is None else workspace
        blocks = [_solve_block(config, seed, 0, edges[1], ws)] + [r.get() for r in rest]
    samples, qoi = (np.concatenate(parts) for parts in zip(*blocks))
    meta = {
        "config": config.to_dict(),
        "config_hash": config.data_hash(),
        "seed": seed,
        "n_samples": n,
        "d": config.d,
        "n_points": config.n_points,
        "mesh_checksum": mesh_checksum(ws.mesh),
        "solver": {"method": f"nominal-{nominal_method(ws.mesh.rings)}-cocg",
                   "tol": ws.problem.tol},
        "wall_time": time.perf_counter() - t0,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    return Dataset(samples, qoi, meta)


def _write_json(path, obj):
    with surrogate.atomic_open(path) as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _paths(base):
    base = Path(base)
    return {"meta": base.with_name(base.name + ".meta.json"),
            "samples": base.with_name(base.name + ".samples.csv"),
            "qoi": base.with_name(base.name + ".qoi.csv")}


def save_dataset(ds, base):
    """Write dataset files under the path prefix base; returns the paths.

    The files go to temporaries; then the old meta is removed, the CSVs are
    renamed into place and the meta last, so an interrupted write leaves the
    old set or one without meta, which load_dataset reports as no dataset.
    """
    paths = _paths(base)
    paths["meta"].parent.mkdir(parents=True, exist_ok=True)
    tmps = {key: p.with_name(p.name + ".tmp") for key, p in paths.items()}
    try:
        for key in ("samples", "qoi"):
            with open(tmps[key], "w") as fh:
                np.savetxt(fh, getattr(ds, key), fmt="%.17g", delimiter=",")
        with open(tmps["meta"], "w") as fh:
            json.dump(ds.meta, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths["meta"].unlink(missing_ok=True)
        for key in ("samples", "qoi", "meta"):
            os.replace(tmps[key], paths[key])
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
    return paths


def load_dataset(base, config=None):
    """Load a dataset saved under base; verify hash against config if given."""
    paths = _paths(base)
    if not paths["meta"].exists():
        raise PipelineError(f"no dataset at {base}")
    with open(paths["meta"]) as fh:
        meta = json.load(fh)
    stored = ExperimentConfig.from_dict(meta["config"])
    if stored.data_hash() != meta["config_hash"]:
        raise PipelineError(f"{base}: metadata hash does not match stored config")
    if config is not None and config.data_hash() != meta["config_hash"]:
        raise PipelineError(
            f"{base}: dataset was generated under a different configuration")
    samples = np.loadtxt(paths["samples"], delimiter=",", ndmin=2)
    qoi = np.loadtxt(paths["qoi"], delimiter=",", ndmin=2)
    return Dataset(samples, qoi, meta)


def split_stream(config, split):
    """Sample count and seed of a dataset split: n_train samples of the
    config seed's stream for "train", n_test of the test stream for "test"."""
    if split == "train":
        return config.n_train, config.seed
    return config.n_test, config.seed + TEST_STREAM


def _ensure_dataset(config, split, out_dir, workers, reuse, stem, workspace):
    """Load or generate one split; workspace() gives the Workspace the
    generating process solves on."""
    n, seed = split_stream(config, split)
    base = Path(out_dir) / f"{stem}-{split}"
    if reuse and all(p.exists() for p in _paths(base).values()):
        ds = load_dataset(base, config)
        # the file name holds no seed, so a stored stream may be another one
        if ds.n >= n and ds.meta["seed"] == seed:
            return Dataset(ds.samples[:n], ds.qoi[:n], ds.meta)
    ds = gen_data(config, n, seed, workers, workspace())
    save_dataset(ds, base)
    return ds


# ----------------------------------------------------------------- training


def _check_splits(train_ds, test_ds):
    seen = {row.tobytes() for row in train_ds.samples}
    for i, row in enumerate(test_ds.samples):
        if row.tobytes() in seen:
            raise PipelineError(f"test sample {i} collides with a training row")


def train_on_datasets(config, train_ds, test_ds, out_dir=None, tag=None):
    """Train the configured network on prepared datasets; returns the record."""
    _check_splits(train_ds, test_ds)
    spread = np.ptp(train_ds.qoi, axis=0).max() if train_ds.n else 0.0
    if spread < 1e-12:
        warnings.warn("zero-variance target: QoI is constant over samples")
    t0 = time.perf_counter()
    net, best, reports = surrogate.train(
        train_ds.as_pair(), test_ds.as_pair(), config.widths(),
        epochs=config.epochs, restarts=config.restarts,
        base_seed=config.seed, beta=config.beta, lr=config.lr)
    record = {
        "tag": tag or config.tag(),
        "config": config.to_dict(),
        "config_hash": config.data_hash(),
        "widths": config.widths(),
        "test_error": best.test_error,
        "train_error": best.train_error,
        "gap": best.gap,
        "best_restart": best.restart,
        "restarts": [r.to_dict() for r in reports],
        "dataset": {
            "train_seed": train_ds.meta.get("seed"),
            "test_seed": test_ds.meta.get("seed"),
            "n_train": train_ds.n,
            "n_test": test_ds.n,
            "mesh_checksum": train_ds.meta.get("mesh_checksum"),
        },
        "wall_time": time.perf_counter() - t0,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = record["tag"]
        # the record marks the checkpoint beside it as done, so an old one
        # goes before the checkpoint is replaced and the new one comes last
        (out / f"{name}.result.json").unlink(missing_ok=True)
        surrogate.save_network(net, out / f"{name}.mlpc")
        _write_json(out / f"{name}.result.json", record)
    return net, record


def run_experiment(config, out_dir=None, workers=1, reuse=True):
    """Generate or load datasets for config, train, persist, return record.

    Files are named after config.tag().  With reuse, a cell already trained
    on config is read back instead (see _train_cell).
    """
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _train_cell(config, "", config.n_points, {}, out, workers, reuse)[0]


def _stored_record(cfg, base):
    """The record in base.result.json when it was trained on cfg and
    base.mlpc loads as a network of cfg's widths and slope; None otherwise,
    a missing, unreadable or malformed file included.  out_dir is left out
    of the comparison: the files were found there, under whatever name the
    directory was given then (out, out/ or an absolute path)."""
    def trained_on(config):
        return {k: v for k, v in config.items() if k != "out_dir"}

    try:
        with open(base.with_name(base.name + ".result.json")) as fh:
            record = json.load(fh)
        if not (isinstance(record, dict) and isinstance(record.get("config"), dict)
                and trained_on(record["config"]) == trained_on(cfg.to_dict())
                and record.get("config_hash") == cfg.data_hash()):
            return None
        net = surrogate.load_network(base.with_name(base.name + ".mlpc"))
    except (OSError, ValueError):
        return None
    return record if net.widths == cfg.widths() and net.beta == cfg.beta else None


def _train_cell(cfg, suffix, top, pairs, out, workers, reuse):
    """Train cfg on its columns of a dataset pair and persist; returns the
    record and whether it was reused.

    With reuse, a cell whose stored record and checkpoint match cfg (see
    _stored_record) returns the stored record before any dataset is loaded
    or generated; training is deterministic, so a retrain would give the
    same values.  Otherwise the cell trains and rewrites both files.

    top is the sweep's largest n_points.  The pair is generated at top
    points when cfg.n_points divides top (the m-point evaluation circle is
    a stride of the k*m-point circle), at cfg.n_points otherwise.  pairs
    maps what decides dataset content (data hash, seed, sample counts) to
    the stem of the first cell that shares the pair, read back or not, and
    then to the pair once a cell trains on it; so each pair is generated or
    loaded once, and a rerun finds it under the stem the first run stored
    it.  Both splits of a pair are solved on one Workspace, built only when
    a split is generated and dropped with the pair's generation.  The
    cell's checkpoint and result are named cfg.tag() + suffix.
    """
    big = dataclasses.replace(cfg, n_points=top) if top % cfg.n_points == 0 else cfg
    key = (big.data_hash(), big.seed, big.n_train, big.n_test)
    stem = pairs.setdefault(key, big.tag() + suffix)
    name = cfg.tag() + suffix
    if reuse:
        record = _stored_record(cfg, out / name)
        if record is not None:
            return record, True
    if isinstance(stem, str):
        workspace = functools.cache(lambda: Workspace(big))
        pairs[key] = [_ensure_dataset(big, split, out, workers, reuse, stem,
                                      workspace)
                      for split in ("train", "test")]
    train_ds, test_ds = (_slice_points(ds, cfg) for ds in pairs[key])
    return train_on_datasets(cfg, train_ds, test_ds, out, name)[1], False


# ------------------------------------------------------------------- sweeps


def _check_axes(axes):
    """axes as {name: list}; PipelineError unless there are one or two axes
    and each maps an int or float config field to a non-empty list of its
    kind without a repeated value."""
    if not isinstance(axes, dict) or not axes:
        raise PipelineError(f"a sweep needs at least one axis, got {axes!r}")
    if len(axes) > 2:
        raise PipelineError(f"a sweep has at most two axes, got {list(axes)}")
    numeric = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)
               if f.type in (int, float)}
    for name, values in axes.items():
        if name not in numeric:
            raise PipelineError(f"unknown sweep axis {name!r}: an axis is a "
                                f"numeric config field")
        if (not isinstance(values, (list, tuple)) or not values
                or not all(_is_number(v, numeric[name]) for v in values)):
            what = "integers" if numeric[name] is int else "numbers"
            raise PipelineError(
                f"sweep axis {name!r} needs a non-empty list of {what}, "
                f"got {values!r}")
        if len(set(values)) < len(values):
            # two cells would train into the same files
            raise PipelineError(f"sweep axis {name!r} repeats a value: {values!r}")
    return {k: list(v) for k, v in axes.items()}


def _axis_suffix(config, overrides):
    """-<axis><value> for each swept axis that config.tag() leaves out, so
    that every cell of a sweep writes its own files."""
    tagged = {"problem", "d", "p", "alpha_i", "n_points"}
    if config.problem == "helmholtz":
        tagged |= {"kappa_o", "kappa_i"}
    return "".join(f"-{k}{v:g}" for k, v in overrides.items() if k not in tagged)


def _slice_points(ds, config):
    """ds restricted to config.n_points equispaced QoI columns; ds itself
    when it has that many."""
    total = ds.qoi.shape[1]
    if total == config.n_points:
        return ds
    cols = np.arange(0, total, total // config.n_points)
    meta = dict(ds.meta)
    meta.update({"config": config.to_dict(), "config_hash": config.data_hash(),
                 "n_points": config.n_points, "sliced_from": total})
    return Dataset(ds.samples, ds.qoi[:, cols], meta)


def sweep(base_config, axes, out_dir, kind=None, workers=1, reuse=True,
          name="sweep"):
    """Run one experiment per axis combination and emit table/figure files.

    axes maps one or two numeric config fields to non-empty lists of
    numbers; anything else, or any other kind, raises PipelineError before
    any cell runs or out_dir is created.  kind: "table" (CSV +
    Markdown, rows = first axis, columns = second), "figure" (series CSV +
    fit JSON + SVG, x = last axis), or "geometry" (no PDE: the cell value is
    the maximal shape variation in percent).

    Cells that differ only in fields outside the data signature (training
    fields such as lr, epochs or depth) share one dataset pair.  With an
    n_points axis, cells whose count divides the largest count share the
    pair generated at that count, column-sliced per cell.  Each distinct
    pair stays in memory until the sweep returns.  A cell's files are
    named after its tag, cfg.tag() plus -<axis><value> for each swept axis
    that the tag leaves out; a shared pair keeps the stem of the first cell
    that shares it.  With reuse, a cell already trained into out_dir is read
    back rather than retrained; a trained cell carries "reused": False, a
    read-back one True.  A failed cell is recorded and skipped; completed
    cells are kept in NAME.cells.json, rewritten after each cell.
    """
    axes = _check_axes(axes)
    if kind is None:
        kind = "figure" if len(axes) == 1 else "table"
    if kind not in ("table", "figure", "geometry"):
        raise PipelineError(f"unknown sweep kind {kind!r}; "
                            f"one of 'table', 'figure', 'geometry'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    top = max(axes["n_points"]) if "n_points" in axes else base_config.n_points
    pairs = {}
    cells = []
    for combo in itertools.product(*axes.values()):
        overrides = dict(zip(axes, combo))
        cell = {"axes": overrides}
        try:
            cfg = dataclasses.replace(base_config, **overrides)
            suffix = _axis_suffix(cfg, overrides)
            cell["tag"] = cfg.tag() + suffix
            if kind == "geometry":
                model = _interface_model(cfg.data_signature())
                cell["value"] = 100.0 * max_shape_variation(model)
            else:
                record, reused = _train_cell(cfg, suffix, top, pairs, out,
                                             workers, reuse)
                cell["value"] = record["test_error"]
                cell["reused"] = reused
        except (PipelineError, SolverError, ArithmeticError, ValueError) as exc:
            cell["error"] = str(exc)
        cells.append(cell)
        _write_json(out / f"{name}.cells.json",
                    {"axes": axes, "kind": kind, "cells": cells})
    if kind in ("table", "geometry"):
        _emit_table(out, name, axes, cells)
    else:
        _emit_figure(out, name, axes, cells)
    return {"axes": axes, "kind": kind, "cells": cells}


def _cell_lookup(cells):
    table = {}
    for cell in cells:
        key = tuple(sorted(cell["axes"].items()))
        table[key] = cell.get("value")
    return table


def _emit_table(out, name, axes, cells):
    rows, cols = (list(axes) + [None])[:2]
    lookup = _cell_lookup(cells)
    col_vals = axes[cols] if cols else [None]
    header = [rows] + [f"{cols}={v:g}" if cols else "value" for v in col_vals]
    lines_csv = [",".join(header)]
    lines_md = ["| " + " | ".join(header) + " |",
                "|" + "---|" * len(header)]
    for rv in axes[rows]:
        row = [f"{rv:g}"]
        for cv in col_vals:
            key = {rows: rv}
            if cols:
                key[cols] = cv
            v = lookup.get(tuple(sorted(key.items())))
            row.append("" if v is None else format(v, ".6g"))
        lines_csv.append(",".join(row))
        lines_md.append("| " + " | ".join(row) + " |")
    for suffix, lines in (("csv", lines_csv), ("md", lines_md)):
        with surrogate.atomic_open(out / f"{name}.{suffix}") as fh:
            fh.write("\n".join(lines) + "\n")


def _emit_figure(out, name, axes, cells):
    names = list(axes)
    x_axis = names[-1]
    series_axis = names[0] if len(names) > 1 else None
    groups = {}
    order = []
    for cell in cells:
        if "value" not in cell:
            continue
        label = (f"{series_axis} = {cell['axes'][series_axis]:g}"
                 if series_axis else "error")
        if label not in groups:
            groups[label] = {"label": label, "x": [], "y": []}
            order.append(label)
        groups[label]["x"].append(float(cell["axes"][x_axis]))
        groups[label]["y"].append(float(cell["value"]))
    series = [groups[k] for k in order]
    if not series:
        return
    plotting.save_series_csv(out / f"{name}.series.csv", series)
    fits = {}
    for s in series:
        if len(s["x"]) >= 2 and min(s["x"]) > 0:
            a, b = plotting.fit_log_line(s["x"], s["y"])
            fits[s["label"]] = {"intercept": a, "slope": b}
    _write_json(out / f"{name}.fits.json", fits)
    svg = plotting.render_plot(series, title=name, xlabel=x_axis,
                               ylabel="test error")
    plotting.write_svg(out / f"{name}.svg", svg)
