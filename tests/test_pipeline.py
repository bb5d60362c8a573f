import dataclasses
import itertools
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from interface_surrogates import pde, surrogate
from interface_surrogates import pipeline as pl
from interface_surrogates.linalg import SingularMatrixError
from interface_surrogates.pde import SolverError, circle_points

DIMS = [8, 16, 32, 64]
SHAPE_VARIATION_TABLE = {
    1: [23.55, 30.75, 38.25, 45.92],
    2: [16.11, 17.28, 17.93, 18.26],
    3: [13.32, 13.52, 13.58, 13.60],
}


def tiny_config(**over):
    kw = dict(problem="elliptic", d=4, p=3.0, alpha_i=10.0, n_points=2,
              h_interface=0.06, h_far=0.15, n_train=8, n_test=4,
              epochs=40, restarts=1, depth=3, seed=9)
    kw.update(over)
    return pl.ExperimentConfig(**kw)


# ------------------------------------------------------------------- config


def test_config_defaults_elliptic():
    cfg = pl.ExperimentConfig(problem="elliptic")
    sig = cfg.data_signature()
    assert sig["r0"] == 0.5
    assert (sig["r_inner"], sig["r_outer"]) == (0.125, 0.875)
    assert (sig["h_interface"], sig["h_far"]) == (0.03, 0.08)
    ws = pl.Workspace(cfg)
    np.testing.assert_allclose(ws.points, [[0.5, 0.0]])
    assert ws.kind == "value"
    assert cfg.widths() == [8] + [10] * 9 + [1]


def test_config_defaults_helmholtz():
    cfg = pl.ExperimentConfig(problem="helmholtz")
    sig = cfg.data_signature()
    assert sig["r0"] == 0.01
    assert (sig["r_inner"], sig["r_outer"]) == (0.0025, 0.055)
    ko, ki = cfg.wavenumbers()
    assert ko == pytest.approx(pl.K0) and ki == pytest.approx(0.8 * pl.K0)
    assert (sig["kappa_o"], sig["kappa_i"]) == (ko, ki)
    h_int = sig["h_interface"]
    assert h_int == pytest.approx(2 * np.pi / pl.K0 / 12)
    assert pl.Workspace(cfg).kind == "amplitude"
    # holding elements per wavelength fixed halves h when the wavenumber doubles
    cfg2 = dataclasses.replace(cfg, kappa_o=2 * pl.K0, kappa_i=1.6 * pl.K0)
    assert cfg2.data_signature()["h_interface"] == pytest.approx(h_int / 2)


def test_config_rejections():
    with pytest.raises(pl.PipelineError):
        pl.ExperimentConfig(problem="parabolic")
    with pytest.raises(pl.PipelineError):
        pl.ExperimentConfig(problem="helmholtz", alpha_i=0.5)  # trapping
    with pytest.raises(pl.PipelineError):
        pl.ExperimentConfig(n_points=0)
    with pytest.raises(pl.PipelineError):
        pl.ExperimentConfig(seed=-1)
    with pytest.raises(pl.PipelineError):
        pl.ExperimentConfig.from_dict({"problem": "elliptic", "colour": 3})


@pytest.mark.parametrize("field, value", [
    ("restarts", 0), ("epochs", 0), ("lr", -1.0), ("lr", 0.0), ("beta", 2.0),
    ("beta", -0.1), ("depth", 1), ("n_train", 0), ("n_test", 0)])
def test_config_rejects_untrainable_values(field, value):
    with pytest.raises(pl.PipelineError, match=field):
        pl.ExperimentConfig(**{field: value})
    with pytest.raises(pl.PipelineError, match=field):
        dataclasses.replace(tiny_config(), **{field: value})


@pytest.mark.parametrize("field, value", [
    ("d", "8"), ("d", 8.0), ("n_points", "4"), ("n_points", 2.0), ("seed", True),
    ("epochs", 10.0), ("alpha_i", None), ("p", "3"), ("lr", False), ("R", None),
    ("direction", (1.0,)), ("direction", ("1", 0.0)), ("direction", 1.0),
    ("direction", (0, 0.0))])
def test_config_rejects_mistyped_numbers(field, value):
    with pytest.raises(pl.PipelineError, match=field):
        pl.ExperimentConfig.from_dict({field: value})
    with pytest.raises(pl.PipelineError, match=field):
        dataclasses.replace(tiny_config(), **{field: value})


def test_config_accepts_numbers_of_any_type():
    # ints on float fields, numpy scalars, and None where the default is None
    cfg = pl.ExperimentConfig(d=np.int64(4), p=2, alpha_i=np.float32(5.0), r0=None,
                              kappa_o=None, direction=[0, 1])
    assert cfg.direction == (0.0, 1.0) and cfg.p == 2
    # numpy scalars are stored as Python numbers, so the config hashes
    assert type(cfg.d) is int and type(cfg.alpha_i) is float
    assert cfg.data_hash() == pl.ExperimentConfig(d=4, p=2, alpha_i=5.0).data_hash()


@pytest.mark.parametrize("field, value", [
    ("kappa_o", -50.0), ("kappa_o", 0.0), ("kappa_o", float("inf")), ("kappa_o", float("nan")),
    ("kappa_i", -1.0), ("kappa_i", 0.0), ("kappa_i", float("nan"))])
def test_helmholtz_rejects_bad_wavenumber(field, value):
    # named when the config is built, not later by the mesh sizes it implies
    with pytest.raises(pl.PipelineError, match=f"{field} must be a finite number > 0"):
        pl.ExperimentConfig(problem="helmholtz", **{field: value})
    with pytest.raises(pl.PipelineError, match=field):
        dataclasses.replace(pl.preset("desk-helmholtz"), **{field: value})


def test_helmholtz_rejects_cg_tol():
    # Helmholtz solves stop at pde.COCG_TOL, so a cg_tol there would be ignored
    with pytest.raises(pl.PipelineError, match="cg_tol"):
        pl.ExperimentConfig(problem="helmholtz", cg_tol=1e-6)
    with pytest.raises(pl.PipelineError, match="cg_tol"):
        dataclasses.replace(pl.preset("desk-helmholtz"), cg_tol=1e-12)
    default = pl.ExperimentConfig.cg_tol
    assert pl.ExperimentConfig(problem="helmholtz", cg_tol=default).cg_tol == default
    assert pl.Workspace(tiny_config(cg_tol=1e-6)).problem.tol == 1e-6


def test_sweep_records_helmholtz_cg_tol_cells_as_failed(tmp_path):
    # each cell fails when its config is built, before any dataset is made
    summary = pl.sweep(pl.preset("desk-helmholtz"), {"cg_tol": [1e-6, 1e-8]},
                       tmp_path, kind="figure", name="tol")
    assert [c["axes"] for c in summary["cells"]] == [{"cg_tol": 1e-6}, {"cg_tol": 1e-8}]
    assert all("cg_tol" in c["error"] and "value" not in c for c in summary["cells"])
    saved = json.loads((tmp_path / "tol.cells.json").read_text())
    assert len(saved["cells"]) == 2
    assert not list(tmp_path.glob("*.meta.json"))


def test_data_hash_tracks_data_fields_only():
    cfg = tiny_config()
    same = dataclasses.replace(cfg, epochs=999, restarts=7, lr=1.0,
                               n_train=100, n_test=50, seed=3, out_dir="x",
                               depth=5, beta=0.9)
    assert same.data_hash() == cfg.data_hash()
    for field, value in (("alpha_i", 11.0), ("h_interface", 0.05),
                         ("n_points", 3), ("p", 2.0), ("d", 6)):
        other = dataclasses.replace(cfg, **{field: value})
        assert other.data_hash() != cfg.data_hash(), field


# data_hash() and nominal-mesh checksum of every preset: stored datasets are
# matched by these, so they must survive any rewrite of the config or meshes
PRESET_DIGESTS = {
    "desk-elliptic": (
        "05d434dc420d9bbbfbf1306992ba08f67a4fff9043aed96c2ab1fdaca16f3610",
        "2ed2a41205f45501a75f8e822dda64237712c1cf98f2c094c26a3aa325a8c1ca"),
    "desk-helmholtz": (
        "07a3d103d89532bc9cb0549beaad0e2ef856544cbd85cdc70074542be37732a7",
        "c93aa4359004dc01079829208cc759c63105dd7649f1be641fdb2e2a8437adef"),
    "table2-alpha10": (
        "90f1683a7e5f9344b5f9dc5f1231cef2c07404abc3da185a8785a7336403ac42",
        "e405878ea77a9945b8f38da06066a340edd90a962a50700bd29c43ab239ada8c"),
    "table2-alpha100": (
        "981b5540a551e1f8b5b3eba24da32af44eee66279ddc63381540a048a2b1bb6a",
        "e405878ea77a9945b8f38da06066a340edd90a962a50700bd29c43ab239ada8c"),
    "table2-alpha1000": (
        "8dc5dc8990c080edcf5c151feded506a723f3d28319c17ce32dfe80e708a5b12",
        "e405878ea77a9945b8f38da06066a340edd90a962a50700bd29c43ab239ada8c"),
    "table3-alpha100": (
        "6fb4990ed239bea85b600ba90e321dce352e1eb75fa57ba1c0a79247157f829a",
        "e405878ea77a9945b8f38da06066a340edd90a962a50700bd29c43ab239ada8c"),
    "table5-alpha10": (
        "07a3d103d89532bc9cb0549beaad0e2ef856544cbd85cdc70074542be37732a7",
        "c93aa4359004dc01079829208cc759c63105dd7649f1be641fdb2e2a8437adef"),
    "table5-alpha100": (
        "176f1cac12e45e88ae7f42e3969eff14911e5a702537b55a11e170b62eccd629",
        "c93aa4359004dc01079829208cc759c63105dd7649f1be641fdb2e2a8437adef"),
    "table5-alpha1000": (
        "e380b3322c127a15d1ec34c5b821f66dc8a5f05430228f866871f739833a385c",
        "c93aa4359004dc01079829208cc759c63105dd7649f1be641fdb2e2a8437adef"),
    "table7-c1": (
        "77d868394e7c2ab6adf7d200b4feb96d26fbbd073394f78ec44606a12d81d7c0",
        "c93aa4359004dc01079829208cc759c63105dd7649f1be641fdb2e2a8437adef"),
    "table8-2k0": (
        "52d847a639ad18401d9d3da854030a55b7bf86983678bcfb6af263f6eb4134cf",
        "883d099e22e73cb011b410b31afcac644a1e46fec7a7ca03a7f2ec3cfbc6b909"),
}


def test_preset_digests_pinned():
    assert sorted(PRESET_DIGESTS) == sorted(pl.PRESETS)
    for name, digests in PRESET_DIGESTS.items():
        cfg = pl.preset(name)
        got = (cfg.data_hash(), pl.mesh_checksum(pl.Workspace(cfg).mesh))
        assert got == digests, name


def test_config_dict_roundtrip():
    cfg = tiny_config(problem="helmholtz", alpha_i=10.0, h_interface=None,
                      h_far=None)
    back = pl.ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    assert back.data_hash() == cfg.data_hash()


def test_presets():
    cfg = pl.preset("desk-elliptic")
    assert (cfg.problem, cfg.d, cfg.p, cfg.alpha_i) == ("elliptic", 8, 3.0, 10.0)
    assert (cfg.n_points, cfg.n_train, cfg.n_test) == (1, 2048, 512)
    assert (cfg.epochs, cfg.restarts) == (5000, 3)
    for name in pl.PRESETS:
        pl.preset(name)
    with pytest.raises(pl.PipelineError):
        pl.preset("desk-parabolic")


def test_sweep_specs_are_well_formed():
    for name in pl.SWEEPS:
        base, axes, kind = pl.sweep_spec(name)
        assert isinstance(base, pl.ExperimentConfig)
        assert axes and all(len(v) >= 1 for v in axes.values())
        assert kind in ("table", "figure", "geometry")
    _, axes, kind = pl.sweep_spec("desk-frequency")
    assert kind == "figure" and axes == {"kappa_o": [pl.K0, 2 * pl.K0]}
    _, axes, _ = pl.sweep_spec("desk-points-elliptic")
    assert axes == {"n_points": [1, 8, 64]}
    with pytest.raises(pl.PipelineError):
        pl.sweep_spec("nonexistent")


def test_tag_is_filesystem_friendly():
    assert tiny_config().tag() == "elliptic-d4-p3-a10-np2"
    hcfg = pl.ExperimentConfig(problem="helmholtz", kappa_o=2 * pl.K0,
                               kappa_i=1.6 * pl.K0)
    assert hcfg.tag() == "helmholtz-d8-p3-a10-np1-k0.8-w2"


# ----------------------------------------------------------------- sampling


def test_sample_parameters_counter_based():
    a = pl.sample_parameters(5, 3, 8)
    b = pl.sample_parameters(5, 3, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, pl.sample_parameters(5, 4, 8))
    assert not np.array_equal(a, pl.sample_parameters(6, 3, 8))
    ys = np.array([pl.sample_parameters(5, n, 8) for n in range(64)])
    assert np.abs(ys).max() <= 1.0


def test_test_stream_disjoint():
    tr = {pl.sample_parameters(5, n, 4).tobytes() for n in range(128)}
    te = {pl.sample_parameters(5 + pl.TEST_STREAM, n, 4).tobytes()
          for n in range(128)}
    assert not tr & te


# ----------------------------------------------------------------- gen_data


def plain_reference_qoi(mesh, source, points):
    """Textbook uniform-coefficient P1 solve, values read off ring vertices."""
    n = mesh.n_vertices
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    quad_b = np.array([[2 / 3, 1 / 6, 1 / 6],
                       [1 / 6, 2 / 3, 1 / 6],
                       [1 / 6, 1 / 6, 2 / 3]])
    for tri in mesh.triangles:
        v = mesh.vertices[tri]
        e = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
        area = 0.5 * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        K = (e @ e.T) / (4 * area)
        for i in range(3):
            for j in range(3):
                rows.append(tri[i])
                cols.append(tri[j])
                vals.append(K[i, j])
        fq = source(quad_b @ v)
        for i in range(3):
            b[tri[i]] += area * np.sum(fq * quad_b[:, i]) / 3
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    interior = mesh.interior_nodes()
    u = np.zeros(n)
    u[interior] = spla.spsolve(A[interior][:, interior].tocsc(), b[interior])
    out = []
    for x in points:
        dist = np.hypot(mesh.vertices[:, 0] - x[0], mesh.vertices[:, 1] - x[1])
        k = int(np.argmin(dist))
        assert dist[k] <= 1e-9, "evaluation point expected on a mesh vertex"
        out.append(u[k])
    return np.array(out)


def test_identity_sample_matches_plain_solve():
    cfg = tiny_config(alpha_i=1.0)
    ws = pl.Workspace(cfg)
    q = ws.solve(np.zeros(cfg.d))
    ref = plain_reference_qoi(ws.mesh, ws.problem.source, ws.points)
    np.testing.assert_allclose(q, ref, rtol=1e-9)


RESIDUAL_FACTOR = 2000.0


@pytest.mark.parametrize("name", ["table2_alpha1000", "elliptic_gen", "desk_helmholtz",
                                  "table8_2k0"])
def test_solve_matches_direct_reference(name):
    # direct SuperLU solves of the pipeline's own A(y), b(y); the tolerance is
    # a multiple of the spread between two orderings, the rounding floor
    # (tests/data/make_direct_references.py writes the files)
    ref = json.loads((Path(__file__).parent / "data"
                      / f"{name}_reference.json").read_text())
    cfg = dataclasses.replace(pl.preset(ref["preset"]), **ref.get("overrides", {}))
    assert cfg.data_hash() == ref["data_hash"]
    assert ref["rtol"] == ref["tol_factor"] * ref["floor"]
    ws = pl.Workspace(cfg)
    fields, solve = [], ws.problem.solve
    ws.problem.solve = lambda y: fields.append(solve(y)) or fields[-1]
    # the spec'd stopping tolerance, not the problem's own tol
    tol = pde.COCG_TOL if cfg.problem == "helmholtz" else cfg.cg_tol
    for i, q in zip(ref["samples"], ref["qoi"]):
        y = pl.sample_parameters(ref["seed"], i, cfg.d)
        np.testing.assert_allclose(ws.solve(y), q, rtol=ref["rtol"], atol=0)
        # a QoI within the floor can hide a solve stopped far too early; the
        # true residual stays within RESIDUAL_FACTOR of the tolerance (the
        # recursive one drifts from it by up to 437x, on table2_alpha1000)
        assert fields[-1].info["residual"] <= RESIDUAL_FACTOR * tol, i


def test_gen_data_shapes_and_metadata():
    cfg = tiny_config()
    ds = pl.gen_data(cfg, 5, cfg.seed)
    assert ds.samples.shape == (5, 4) and ds.qoi.shape == (5, 2)
    assert ds.meta["config_hash"] == cfg.data_hash()
    assert ds.meta["n_samples"] == 5 and ds.meta["seed"] == 9
    assert len(ds.meta["mesh_checksum"]) == 64
    # the square mesh's outer rings are not circles: sparse LU nominal solve
    assert ds.meta["solver"] == {"method": "nominal-lu-cocg", "tol": cfg.cg_tol}
    np.testing.assert_array_equal(ds.samples[2],
                                  pl.sample_parameters(cfg.seed, 2, cfg.d))


def _stamps_dropped(meta):
    return {k: v for k, v in meta.items() if k not in ("wall_time", "created")}


def test_gen_data_worker_invariance():
    helmholtz = pl.ExperimentConfig(problem="helmholtz", d=4, n_points=2,
                                    depth=3, seed=1)
    for cfg in (tiny_config(), helmholtz):
        single, *multi = (pl.gen_data(cfg, 7, 11, workers=w) for w in (1, 2, 3))
        for ds in multi:
            np.testing.assert_array_equal(single.samples, ds.samples)
            np.testing.assert_array_equal(single.qoi, ds.qoi)
            assert _stamps_dropped(ds.meta) == _stamps_dropped(single.meta)


def test_gen_data_reports_failed_sample_of_a_worker_block(monkeypatch):
    # n = 4 over two processes: the parent solves samples 0-1, a worker 2-3;
    # the patched method reaches the worker because the pool forks
    cfg = tiny_config()
    bad = pl.sample_parameters(5, 3, cfg.d)
    solve = pl.Workspace.solve

    def failing(self, y):
        if np.array_equal(y, bad):
            raise SolverError("injected failure", y)
        return solve(self, y)

    monkeypatch.setattr(pl.Workspace, "solve", failing)
    with pytest.raises(pl.PipelineError, match="sample 3 failed: injected") as err:
        pl.gen_data(cfg, 4, 5, workers=2)
    assert str(bad.tolist()) in str(err.value)


def test_gen_data_failure_in_parent_block_stops_the_pool(monkeypatch):
    # n = 40 over two processes: the parent fails at sample 0 while the
    # worker's block of 20 samples would take 20 x 0.1 s; the pool forks,
    # so the worker runs the patched, sleeping solve
    cfg = tiny_config()
    solve, parent = pl.Workspace.solve, os.getpid()

    def failing(self, y):
        if os.getpid() == parent:
            raise SolverError("injected failure", y)
        time.sleep(0.1)
        return solve(self, y)

    monkeypatch.setattr(pl.Workspace, "solve", failing)
    start = time.perf_counter()
    with pytest.raises(pl.PipelineError, match="sample 0 failed: injected"):
        pl.gen_data(cfg, 40, 5, workers=2)
    assert time.perf_counter() - start < 1.0
    assert multiprocessing.active_children() == []


def _count_builds(monkeypatch):
    """Record, in this process, every Workspace, mesh and process pool built."""
    built = {"workspace": 0, "mesh": 0, "pools": []}
    init, pool = pl.Workspace.__init__, pl.Pool

    def counting_init(self, config):
        built["workspace"] += 1
        init(self, config)

    def counting(build):
        def counted(*args):
            built["mesh"] += 1
            return build(*args)
        return counted

    def recording_pool(processes):
        built["pools"].append(processes)
        return pool(processes)

    monkeypatch.setattr(pl.Workspace, "__init__", counting_init)
    for name in ("build_square_mesh", "build_disk_mesh"):
        monkeypatch.setattr(pl, name, counting(getattr(pl, name)))
    monkeypatch.setattr(pl, "Pool", recording_pool)
    return built


def test_gen_data_on_given_workspace_builds_nothing(monkeypatch):
    cfg = tiny_config()
    ws = pl.Workspace(cfg)
    built = _count_builds(monkeypatch)
    ds = pl.gen_data(cfg, 3, 1, workers=1, workspace=ws)
    assert built == {"workspace": 0, "mesh": 0, "pools": []}
    assert ds.meta["mesh_checksum"] == pl.mesh_checksum(ws.mesh)


def test_gen_data_parent_builds_one_workspace_and_no_other_mesh(monkeypatch):
    built = _count_builds(monkeypatch)
    pl.gen_data(tiny_config(), 3, 1, workers=3)
    # the two worker processes build theirs out of this process's sight
    assert built == {"workspace": 1, "mesh": 1, "pools": [2]}


def test_gen_data_helmholtz_sanity():
    cfg = pl.ExperimentConfig(problem="helmholtz", d=4, n_points=2,
                              depth=3, seed=1)
    ds = pl.gen_data(cfg, 2, 1)
    assert np.all(np.isfinite(ds.qoi)) and np.all(ds.qoi > 0)
    norms = np.linalg.norm(ds.qoi, axis=1)
    assert np.all(norms < 10.0 * np.sqrt(cfg.n_points))  # max |u_inc| = 1
    # a disk mesh of circular rings: the azimuthal FFT nominal solve
    assert ds.meta["solver"] == {"method": "nominal-fft-cocg", "tol": 1e-12}


def test_dataset_invariants():
    meta = {}
    with pytest.raises(pl.PipelineError):
        pl.Dataset(np.zeros((3, 2)), np.zeros((2, 1)), meta)
    with pytest.raises(pl.PipelineError):
        pl.Dataset(np.full((2, 2), 1.5), np.zeros((2, 1)), meta)


# -------------------------------------------------------------- persistence


def test_dataset_roundtrip_csv(tmp_path):
    cfg = tiny_config()
    ds = pl.gen_data(cfg, 4, 2)
    base = tmp_path / "demo"
    pl.save_dataset(ds, base)
    back = pl.load_dataset(base, cfg)
    np.testing.assert_array_equal(back.samples, ds.samples)
    np.testing.assert_array_equal(back.qoi, ds.qoi)
    assert back.meta == ds.meta


def test_load_rejects_mismatched_config(tmp_path):
    cfg = tiny_config()
    ds = pl.gen_data(cfg, 3, 2)
    base = tmp_path / "demo"
    pl.save_dataset(ds, base)
    other = dataclasses.replace(cfg, alpha_i=99.0)
    with pytest.raises(pl.PipelineError):
        pl.load_dataset(base, other)


@pytest.mark.parametrize("key", ["config", "config_hash", "seed", None])
def test_load_rejects_malformed_metadata(tmp_path, key):
    pl.save_dataset(pl.gen_data(tiny_config(), 3, 2), tmp_path / "demo")
    meta_path = tmp_path / "demo.meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps([meta] if key is None else
                                    {k: v for k, v in meta.items() if k != key}))
    with pytest.raises(pl.PipelineError, match="metadata needs"):
        pl.load_dataset(tmp_path / "demo")


def test_load_rejects_tampered_metadata(tmp_path):
    cfg = tiny_config()
    pl.save_dataset(pl.gen_data(cfg, 3, 2), tmp_path / "demo")
    meta_path = tmp_path / "demo.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["alpha_i"] = 123.0
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(pl.PipelineError):
        pl.load_dataset(tmp_path / "demo")
    with pytest.raises(pl.PipelineError):
        pl.load_dataset(tmp_path / "nothing-here")


# ------------------------------------------------------------- experiments


def test_run_experiment_record_and_outputs(tmp_path):
    cfg = tiny_config()
    record = pl.run_experiment(cfg, out_dir=tmp_path)
    assert record["tag"] == cfg.tag()
    assert record["widths"] == [4, 10, 10, 2]
    assert 0 < record["test_error"] < 10
    assert record["best_restart"] == 0 and len(record["restarts"]) == 1
    assert (tmp_path / f"{cfg.tag()}.mlpc").exists()
    saved = json.loads((tmp_path / f"{cfg.tag()}.result.json").read_text())
    assert saved["test_error"] == record["test_error"]
    restart = saved["restarts"][0]
    assert restart["epochs_run"] == cfg.epochs
    assert restart["epoch_ms"] == pytest.approx(1000 * restart["wall_time"]
                                                / cfg.epochs)
    assert restart["epoch_ms"] > 0
    for split in ("train", "test"):
        assert (tmp_path / f"{cfg.tag()}-{split}.samples.csv").exists()


def test_run_experiment_reuses_saved_datasets(tmp_path, monkeypatch):
    cfg = tiny_config()
    first = pl.run_experiment(cfg, out_dir=tmp_path)
    stamp = (tmp_path / f"{cfg.tag()}-train.meta.json").stat().st_mtime_ns
    loaded = []
    load = pl.load_dataset

    def counting(base, config=None):
        loaded.append(Path(base).name)
        return load(base, config)

    monkeypatch.setattr(pl, "load_dataset", counting)
    # epochs is outside the data signature: the cell retrains on the same pair
    second = pl.run_experiment(dataclasses.replace(cfg, epochs=cfg.epochs + 1),
                               out_dir=tmp_path)
    assert loaded == [f"{cfg.tag()}-train", f"{cfg.tag()}-test"]
    assert (tmp_path / f"{cfg.tag()}-train.meta.json").stat().st_mtime_ns == stamp
    assert second["dataset"] == first["dataset"]
    assert second["restarts"][0]["epochs_run"] == cfg.epochs + 1


def test_run_experiment_builds_one_workspace_for_both_splits(tmp_path, monkeypatch):
    built = []
    init = pl.Workspace.__init__

    def counting(self, config):
        built.append(config.data_hash())
        init(self, config)

    monkeypatch.setattr(pl.Workspace, "__init__", counting)
    cfg = tiny_config()
    first = pl.run_experiment(cfg, out_dir=tmp_path)
    assert built == [cfg.data_hash()]
    # a rerun that cannot skip the cell loads both splits and builds none
    second = pl.run_experiment(dataclasses.replace(cfg, epochs=cfg.epochs + 1),
                               out_dir=tmp_path, reuse=True)
    assert len(built) == 1
    assert second["dataset"] == first["dataset"]


def _refuse_training(monkeypatch):
    """Make every step of training a cell raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a reused cell must not load, generate or train")

    for owner, name in ((surrogate, "train"), (pl, "gen_data"),
                        (pl, "load_dataset"), (pl.Workspace, "__init__")):
        monkeypatch.setattr(owner, name, refuse)


def _bytes(out):
    return {f.name: f.read_bytes() for f in out.iterdir()}


def test_sweep_rerun_reads_trained_cells_back(tmp_path, monkeypatch):
    base = tiny_config()
    first = pl.sweep(base, {"p": [1.0, 3.0]}, tmp_path, kind="table", name="grid")
    assert [c["reused"] for c in first["cells"]] == [False, False]
    before = _bytes(tmp_path)
    _refuse_training(monkeypatch)
    second = pl.sweep(base, {"p": [1.0, 3.0]}, tmp_path, kind="table", name="grid")
    assert [c["reused"] for c in second["cells"]] == [True, True]
    assert [c["value"] for c in second["cells"]] == [c["value"] for c in first["cells"]]
    saved = json.loads((tmp_path / "grid.cells.json").read_text())
    assert [c["reused"] for c in saved["cells"]] == [True, True]
    after = _bytes(tmp_path)
    # every dataset, checkpoint, record and table file is as the first pass left it
    assert {n: b for n, b in after.items() if n != "grid.cells.json"} == {
        n: b for n, b in before.items() if n != "grid.cells.json"}


def test_sweep_rerun_reads_cells_back_under_another_name_of_the_directory(tmp_path,
                                                                         monkeypatch):
    # as `sweep --out-dir` does, each pass records its directory in the cells'
    # configs; out, out/ and the absolute path name the same files
    monkeypatch.chdir(tmp_path)
    axes = {"p": [1.0, 3.0]}
    first = pl.sweep(tiny_config(out_dir="out"), axes, "out", name="grid")
    assert [c["reused"] for c in first["cells"]] == [False, False]
    _refuse_training(monkeypatch)
    for name in ("out/", str(tmp_path / "out")):
        again = pl.sweep(tiny_config(out_dir=name), axes, name, name="grid")
        assert [c["reused"] for c in again["cells"]] == [True, True]
        assert [c["value"] for c in again["cells"]] == [c["value"] for c in first["cells"]]


def test_rerun_trains_a_later_cell_on_the_pair_the_first_cell_stored(tmp_path,
                                                                    monkeypatch):
    base, axes = tiny_config(), {"lr": [1e-3, 2e-3]}
    first = pl.sweep(base, axes, tmp_path, kind="figure", name="lr")
    (tmp_path / f"{first['cells'][1]['tag']}.result.json").unlink()
    monkeypatch.setattr(pl, "gen_data", _refuse)
    second = pl.sweep(base, axes, tmp_path, kind="figure", name="lr")
    assert [c["reused"] for c in second["cells"]] == [True, False]
    assert [c["value"] for c in second["cells"]] == [c["value"] for c in first["cells"]]
    assert [f.name for f in tmp_path.glob("*-train.samples.csv")] == [
        "elliptic-d4-p3-a10-np2-lr0.001-train.samples.csv"]


def test_run_experiment_rerun_returns_the_stored_record(tmp_path, monkeypatch):
    cfg = tiny_config()
    first = pl.run_experiment(cfg, out_dir=tmp_path)
    _refuse_training(monkeypatch)
    second = pl.run_experiment(cfg, out_dir=tmp_path)
    assert second == first
    assert second == json.loads((tmp_path / f"{cfg.tag()}.result.json").read_text())


def test_run_and_sweep_record_the_directory_they_write(tmp_path):
    # the config names "runs"; each record and dataset meta names out_dir
    cfg = tiny_config()
    pl.run_experiment(cfg, out_dir=tmp_path / "run")
    pl.sweep(cfg, {"epochs": [cfg.epochs]}, tmp_path / "sweep")
    for out in (tmp_path / "run", tmp_path / "sweep"):
        written = [*out.glob("*.result.json"), *out.glob("*.meta.json")]
        assert len(written) == 3
        for path in written:
            assert json.loads(path.read_text())["config"]["out_dir"] == str(out)


@pytest.mark.parametrize("case", ["other epochs", "edited hash", "truncated checkpoint",
                                  "missing checkpoint", "malformed record"])
def test_rerun_retrains_a_cell_that_does_not_match(tmp_path, monkeypatch, case):
    cfg = tiny_config()
    first = pl.run_experiment(cfg, out_dir=tmp_path)
    record, ckpt = (tmp_path / f"{cfg.tag()}{ext}" for ext in (".result.json", ".mlpc"))
    pristine = ckpt.read_bytes()
    if case == "other epochs":
        cfg = dataclasses.replace(cfg, epochs=cfg.epochs + 1)
    elif case == "edited hash":
        record.write_text(json.dumps({**json.loads(record.read_text()),
                                      "config_hash": "0" * 64}))
    elif case == "truncated checkpoint":
        ckpt.write_bytes(pristine[:-8])
    elif case == "missing checkpoint":
        ckpt.unlink()
    else:
        record.write_text(record.read_text()[:-10])
    trained, written = [], []
    train, save, write = surrogate.train, surrogate.save_network, pl._write_json

    def counting_train(*args, **kwargs):
        trained.append(1)
        return train(*args, **kwargs)

    def recording(real, path_arg):
        def wrapped(*args):
            written.append(Path(args[path_arg]).name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(surrogate, "train", counting_train)
    monkeypatch.setattr(surrogate, "save_network", recording(save, 1))
    monkeypatch.setattr(pl, "_write_json", recording(write, 0))
    second = pl.run_experiment(cfg, out_dir=tmp_path)
    assert trained == [1]
    assert written == [ckpt.name, record.name]
    assert json.loads(record.read_text()) == second
    assert second["config"] == dataclasses.replace(cfg, out_dir=str(tmp_path)).to_dict()
    if case == "other epochs":
        assert ckpt.read_bytes() != pristine
    else:
        assert ckpt.read_bytes() == pristine
        assert second["test_error"] == first["test_error"]


def test_reuse_false_always_trains(tmp_path, monkeypatch):
    cfg = tiny_config()
    pl.run_experiment(cfg, out_dir=tmp_path)
    trained = []
    train = surrogate.train

    def counting(*args, **kwargs):
        trained.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(surrogate, "train", counting)
    pl.run_experiment(cfg, out_dir=tmp_path, reuse=False)
    summary = pl.sweep(cfg, {"p": [3.0]}, tmp_path, reuse=False, name="grid")
    assert trained == [1, 1]
    assert summary["cells"][0]["reused"] is False


def test_interrupted_retrain_leaves_no_record_of_the_old_training(tmp_path, monkeypatch):
    cfg = tiny_config()
    pl.run_experiment(cfg, out_dir=tmp_path)

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    # the new checkpoint is in place, its record not yet written
    monkeypatch.setattr(pl, "_write_json", interrupt)
    with pytest.raises(KeyboardInterrupt):
        pl.run_experiment(dataclasses.replace(cfg, epochs=cfg.epochs + 1),
                          out_dir=tmp_path)
    monkeypatch.undo()
    assert not (tmp_path / f"{cfg.tag()}.result.json").exists()
    again = pl.run_experiment(cfg, out_dir=tmp_path)
    fresh = pl.run_experiment(cfg, out_dir=tmp_path / "fresh")
    assert again["test_error"] == fresh["test_error"]
    assert ((tmp_path / f"{cfg.tag()}.mlpc").read_bytes()
            == (tmp_path / "fresh" / f"{cfg.tag()}.mlpc").read_bytes())


def test_durations_do_not_follow_the_wall_clock(monkeypatch):
    # a wall clock stepped back an hour at every read
    clock = itertools.count(2e9, -3600.0)
    monkeypatch.setattr(pl.time, "time", lambda: next(clock))
    cfg = tiny_config()
    train_ds = pl.gen_data(cfg, cfg.n_train, cfg.seed)
    test_ds = pl.gen_data(cfg, cfg.n_test, cfg.seed + pl.TEST_STREAM)
    record = pl.train_on_datasets(cfg, train_ds, test_ds)[1]
    assert train_ds.meta["wall_time"] > 0 and record["wall_time"] > 0


def test_gen_data_rejects_workspace_of_another_signature():
    ws = pl.Workspace(tiny_config())
    with pytest.raises(pl.PipelineError, match="data signature"):
        pl.gen_data(tiny_config(p=1.0), 2, 1, workspace=ws)


def test_reuse_regenerates_datasets_of_another_seed(tmp_path):
    pl.run_experiment(tiny_config(seed=9), out_dir=tmp_path)
    reused = pl.run_experiment(tiny_config(seed=10), out_dir=tmp_path)
    fresh = pl.run_experiment(tiny_config(seed=10), out_dir=tmp_path / "fresh")
    assert reused["dataset"]["train_seed"] == 10
    assert reused["dataset"]["test_seed"] == fresh["dataset"]["test_seed"]
    assert reused["test_error"] == fresh["test_error"]


def test_run_experiment_deterministic(tmp_path):
    r1 = pl.run_experiment(tiny_config(), out_dir=tmp_path / "a")
    r2 = pl.run_experiment(tiny_config(), out_dir=tmp_path / "b")
    assert r1["test_error"] == r2["test_error"]
    assert r1["train_error"] == r2["train_error"]


def test_zero_variance_target_warns(tmp_path):
    cfg = tiny_config(c=0.0, epochs=20)
    with pytest.warns(UserWarning, match="zero-variance"):
        record = pl.run_experiment(cfg, out_dir=tmp_path)
    assert np.isfinite(record["test_error"])


def test_split_collision_rejected():
    cfg = tiny_config()
    tr = pl.gen_data(cfg, 3, 4)
    te = pl.Dataset(tr.samples[1:2].copy(), tr.qoi[1:2].copy(), dict(tr.meta))
    with pytest.raises(pl.PipelineError):
        pl.train_on_datasets(cfg, tr, te)


# ------------------------------------------------------------------- sweeps


def test_geometry_sweep_reproduces_shape_variation_table(tmp_path):
    base = pl.preset("desk-elliptic")
    summary = pl.sweep(base, {"p": [1.0, 2.0, 3.0], "d": DIMS}, tmp_path,
                       kind="geometry", name="shape")
    assert len(summary["cells"]) == 12
    for cell in summary["cells"]:
        p, d = cell["axes"]["p"], cell["axes"]["d"]
        expected = SHAPE_VARIATION_TABLE[int(p)][DIMS.index(d)]
        assert cell["value"] == pytest.approx(expected, abs=0.03)
    table = (tmp_path / "shape.csv").read_text().splitlines()
    assert table[0] == "p,d=8,d=16,d=32,d=64"
    assert len(table) == 4
    assert (tmp_path / "shape.md").exists()
    assert json.loads((tmp_path / "shape.cells.json").read_text())["kind"] == "geometry"


def test_sweep_keeps_completed_cells_on_failure(tmp_path):
    base = tiny_config()
    summary = pl.sweep(base, {"n_points": [2, 0]}, tmp_path, kind="table",
                       name="grid")
    good, bad = summary["cells"]
    assert "value" in good and good["axes"] == {"n_points": 2}
    assert "error" in bad and "n_points" in bad["error"]
    cells_file = json.loads((tmp_path / "grid.cells.json").read_text())
    assert len(cells_file["cells"]) == 2


def test_sweep_figure_outputs(tmp_path):
    base = tiny_config()
    summary = pl.sweep(base, {"d": [4, 8]}, tmp_path, kind="figure", name="dims")
    assert all("value" in c for c in summary["cells"])
    assert (tmp_path / "dims.series.csv").exists()
    text = (tmp_path / "dims.fits.json").read_text()
    fits = json.loads(text)
    assert text == json.dumps(fits, indent=1, sort_keys=True) + "\n"
    (series_fit,) = fits.values()
    assert np.isfinite(series_fit["slope"])
    svg = (tmp_path / "dims.svg").read_text()
    assert svg.startswith("<svg ")


def _grid_cells(axes, failed):
    """Cells of a sweep over axes in the order sweep writes them; the cell at
    index failed carries an error, cell k the value 0.01 * (k + 1)."""
    cells = []
    for k, combo in enumerate(itertools.product(*axes.values())):
        cell = {"axes": dict(zip(axes, combo))}
        if k == failed:
            cell["error"] = "sample 0 failed"
        else:
            cell["value"] = 0.01 * (k + 1)
        cells.append(cell)
    return cells


def test_emitted_grid_text(tmp_path):
    # a 2 x 3 grid whose middle cell of the first row failed
    axes = {"p": [1.0, 3.0], "d": [4, 8, 16]}
    cells = _grid_cells(axes, failed=1)
    pl._emit_table(tmp_path, "grid", axes, cells)
    pl._emit_figure(tmp_path, "grid", axes, cells)
    assert (tmp_path / "grid.csv").read_bytes() == (
        b"p,d=4,d=8,d=16\n"
        b"1,0.01,,0.03\n"
        b"3,0.04,0.05,0.06\n")
    assert (tmp_path / "grid.md").read_bytes() == (
        b"| p | d=4 | d=8 | d=16 |\n"
        b"|---|---|---|---|\n"
        b"| 1 | 0.01 |  | 0.03 |\n"
        b"| 3 | 0.04 | 0.05 | 0.06 |\n")
    assert (tmp_path / "grid.series.csv").read_bytes() == (
        b"label,x,y\r\n"
        b"p = 1,4,0.01\r\n"
        b"p = 1,16,0.03\r\n"
        b"p = 3,4,0.04\r\n"
        b"p = 3,8,0.05\r\n"
        b"p = 3,16,0.06\r\n")
    assert list(json.loads((tmp_path / "grid.fits.json").read_text())) == [
        "p = 1", "p = 3"]


def test_emitted_figure_skips_a_series_without_values(tmp_path):
    axes = {"p": [1.0, 3.0], "d": [4, 8]}
    cells = _grid_cells(axes, failed=None)
    for cell in cells[:2]:
        del cell["value"]
    pl._emit_figure(tmp_path, "grid", axes, cells)
    assert (tmp_path / "grid.series.csv").read_bytes() == (
        b"label,x,y\r\n"
        b"p = 3,4,0.03\r\n"
        b"p = 3,8,0.04\r\n")
    pl._emit_figure(tmp_path, "none", {"d": [4]}, [{"axes": {"d": 4}, "error": "x"}])
    assert not list(tmp_path.glob("none.*"))


def test_point_slicing_matches_direct_generation(tmp_path):
    # the m-point evaluation circle is a stride of the 4m-point circle
    np.testing.assert_allclose(circle_points(0.5, 2),
                               circle_points(0.5, 8)[[0, 4]], atol=1e-15)
    cfg1 = tiny_config(n_points=1)
    cfg4 = tiny_config(n_points=4)
    ds1 = pl.gen_data(cfg1, 3, 7)
    ds4 = pl.gen_data(cfg4, 3, 7)
    np.testing.assert_array_equal(ds1.samples, ds4.samples)
    np.testing.assert_allclose(ds1.qoi[:, 0], ds4.qoi[:, 0], rtol=1e-12)


def test_sweep_points_shares_one_dataset(tmp_path):
    base = tiny_config(n_points=1)
    summary = pl.sweep(base, {"n_points": [1, 2]}, tmp_path, kind="figure",
                       name="pts")
    assert [c["axes"]["n_points"] for c in summary["cells"]] == [1, 2]
    assert all("value" in c for c in summary["cells"])
    # only the two-point (largest) dataset is persisted
    assert (tmp_path / "elliptic-d4-p3-a10-np2-train.samples.csv").exists()
    assert not (tmp_path / "elliptic-d4-p3-a10-np1-train.samples.csv").exists()
    assert (tmp_path / "pts.series.csv").exists()
    # the sliced one-point cell trains on the first column of the shared data
    direct = pl.train_on_datasets(
        base, pl.gen_data(base, base.n_train, base.seed),
        pl.gen_data(base, base.n_test, base.seed + pl.TEST_STREAM))[1]
    assert summary["cells"][0]["value"] == pytest.approx(direct["test_error"],
                                                         rel=1e-9)


def test_points_sweep_generates_once_per_data_signature(tmp_path, monkeypatch):
    calls = []
    real = pl.gen_data

    def counting(config, n=None, seed=None, workers=1, workspace=None):
        calls.append((config.p, config.n_points, seed))
        return real(config, n, seed, workers, workspace)

    monkeypatch.setattr(pl, "gen_data", counting)
    base = tiny_config(n_points=1)
    summary = pl.sweep(base, {"p": [1, 3], "n_points": [1, 2]}, tmp_path,
                       reuse=False, name="grid")
    assert all("value" in c for c in summary["cells"])
    test_seed = base.seed + pl.TEST_STREAM
    assert calls == [(1, 2, base.seed), (1, 2, test_seed),
                     (3, 2, base.seed), (3, 2, test_seed)]
    written = sorted(f.name for f in tmp_path.glob("*-train.samples.csv"))
    assert written == ["elliptic-d4-p1-a10-np2-train.samples.csv",
                       "elliptic-d4-p3-a10-np2-train.samples.csv"]


def test_points_sweep_non_dividing_count_gets_own_dataset(tmp_path):
    summary = pl.sweep(tiny_config(), {"n_points": [2, 3]}, tmp_path,
                       kind="figure", name="pts")
    assert all("value" in c for c in summary["cells"])
    assert (tmp_path / "elliptic-d4-p3-a10-np2-train.samples.csv").exists()
    assert (tmp_path / "elliptic-d4-p3-a10-np3-train.samples.csv").exists()


def test_cells_file_survives_interrupted_write(tmp_path, monkeypatch):
    real_open = open
    calls = []

    def open_then_fail(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if Path(path).name.startswith("shape.cells.json"):
            calls.append(path)
            if len(calls) == 2:
                fh.write('{"cells": [')
                fh.close()
                raise KeyboardInterrupt
        return fh

    monkeypatch.setattr(surrogate, "open", open_then_fail, raising=False)
    with pytest.raises(KeyboardInterrupt):
        pl.sweep(pl.preset("desk-elliptic"), {"d": [8, 16]}, tmp_path,
                 kind="geometry", name="shape")
    monkeypatch.undo()
    saved = json.loads((tmp_path / "shape.cells.json").read_text())
    assert [c["axes"] for c in saved["cells"]] == [{"d": 8}]
    assert [f.name for f in tmp_path.iterdir()] == ["shape.cells.json"]


@pytest.mark.parametrize("malformed", ["list", "no hash"])
def test_sweep_records_malformed_dataset_meta(tmp_path, malformed):
    axes = {"p": [1.0, 3.0]}
    pl.sweep(tiny_config(), axes, tmp_path, kind="figure", name="ps")
    first = tmp_path / "elliptic-d4-p1-a10-np2"
    # the cell cannot be read back from its record, so it loads its datasets
    (tmp_path / f"{first.name}.result.json").unlink()
    meta_path = tmp_path / f"{first.name}-train.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["config_hash"]
    meta_path.write_text(json.dumps([meta] if malformed == "list" else meta))
    summary = pl.sweep(tiny_config(), axes, tmp_path, kind="figure", name="ps")
    bad, good = summary["cells"]
    assert "metadata needs" in bad["error"] and "value" not in bad
    assert good["reused"] is True
    saved = json.loads((tmp_path / "ps.cells.json").read_text())
    assert saved["cells"] == summary["cells"]


def test_sweep_rejects_axis_values_that_format_alike(tmp_path, monkeypatch):
    # both cells would be tagged elliptic-d4-p1-a10-np2 and share its files
    monkeypatch.setattr(pl, "gen_data", _refuse)
    for axes in ({"p": [1.0, 1.0000001]}, {"lr": [1e-3, 1.0000001e-3]}):
        with pytest.raises(pl.PipelineError, match="repeats a value"):
            pl.sweep(tiny_config(), axes, tmp_path / "out", name="bad")
    assert not (tmp_path / "out").exists()


def test_sweep_over_untagged_axis_writes_files_per_cell(tmp_path):
    # tag() leaves c out; each cell's files carry -c<value> instead
    summary = pl.sweep(tiny_config(), {"c": [0.04, 0.08]}, tmp_path,
                       kind="figure", name="cs")
    assert all("value" in c for c in summary["cells"])
    assert [c["tag"] for c in summary["cells"]] == [
        "elliptic-d4-p3-a10-np2-c0.04", "elliptic-d4-p3-a10-np2-c0.08"]
    for cell in summary["cells"]:
        for suffix in ("-train.samples.csv", "-test.qoi.csv", ".mlpc",
                       ".result.json"):
            assert (tmp_path / (cell["tag"] + suffix)).exists()
        meta = json.loads((tmp_path / f"{cell['tag']}-train.meta.json").read_text())
        assert meta["config"]["c"] == cell["axes"]["c"]
    a, b = (np.loadtxt(tmp_path / f"{c['tag']}-train.qoi.csv", delimiter=",")
            for c in summary["cells"])
    assert not np.array_equal(a, b)


def test_sweep_over_training_field_shares_one_dataset_pair(tmp_path, monkeypatch):
    calls = []
    real = pl.gen_data

    def counting(config, n=None, seed=None, workers=1, workspace=None):
        calls.append((config.lr, seed))
        return real(config, n, seed, workers, workspace)

    monkeypatch.setattr(pl, "gen_data", counting)
    lrs = [1e-3, 2e-3, 4e-3]
    out = tmp_path / "sweep"
    summary = pl.sweep(tiny_config(), {"lr": lrs}, out, kind="figure", name="lr")
    # lr is outside the data signature: one train and one test generation
    assert calls == [(1e-3, 9), (1e-3, 9 + pl.TEST_STREAM)]
    monkeypatch.undo()
    # the pair keeps the stem of the first cell that needs it
    assert [f.name for f in out.glob("*-train.samples.csv")] == [
        "elliptic-d4-p3-a10-np2-lr0.001-train.samples.csv"]
    for cell, lr in zip(summary["cells"], lrs):
        assert cell["tag"] == f"elliptic-d4-p3-a10-np2-lr{lr:g}"
        for suffix in (".mlpc", ".result.json"):
            assert (out / (cell["tag"] + suffix)).exists()
        own = pl.run_experiment(tiny_config(lr=lr), out_dir=tmp_path / f"own{lr:g}")
        assert cell["value"] == own["test_error"]


def _refuse(*args, **kwargs):
    raise AssertionError("no cell may run")


@pytest.mark.parametrize("axes, named", [
    ({}, "at least one axis"), ([1.0, 2.0], "at least one axis"),
    ({"p": 3}, "'p'"), ({"p": []}, "'p'"),
    ({"direction": [[1, 0], [0, 1]]}, "'direction'"),
    ({"direction": [1.0]}, "'direction'"), ({"colour": [1]}, "'colour'"),
    ({"d": [8.0]}, "'d'"), ({"n_points": [2, 2.0]}, "'n_points'"),
    ({"p": [True]}, "'p'"), ({"d": [4, 4]}, "'d' repeats")])
def test_sweep_rejects_bad_axes_before_any_cell(tmp_path, monkeypatch, axes, named):
    monkeypatch.setattr(pl, "gen_data", _refuse)
    with pytest.raises(pl.PipelineError, match=named):
        pl.sweep(tiny_config(), axes, tmp_path / "out", name="bad")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axes, kind, named", [
    ({"p": [1.0, 3.0], "d": [4, 6]}, "tabel", "'tabel'"),
    ({"p": [1.0]}, "svg", "'svg'"),
    ({"p": [1.0], "d": [4], "alpha_i": [10.0]}, "table", "at most two axes"),
    ({"p": [1.0], "d": [4], "alpha_i": [10.0]}, None, "at most two axes")])
def test_sweep_rejects_bad_kind_or_third_axis_before_any_cell(tmp_path, monkeypatch,
                                                              axes, kind, named):
    monkeypatch.setattr(pl, "gen_data", _refuse)
    with pytest.raises(pl.PipelineError, match=named):
        pl.sweep(tiny_config(), axes, tmp_path / "out", kind=kind, name="bad")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("emit,interrupted", [
    ("_emit_table", "out.csv"), ("_emit_table", "out.md"),
    ("_emit_figure", "out.series.csv"), ("_emit_figure", "out.svg")])
def test_sweep_outputs_survive_interrupted_write(tmp_path, monkeypatch, emit,
                                                 interrupted):
    axes = {"d": [8, 16]}
    cells = [{"axes": {"d": 8}, "value": 0.1}, {"axes": {"d": 16}, "value": 0.05}]
    getattr(pl, emit)(tmp_path, "out", axes, cells)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert interrupted in before
    real_open = open

    def open_then_fail(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if Path(path).name.startswith(interrupted):
            fh.write("| d")
            fh.close()
            raise KeyboardInterrupt
        return fh

    monkeypatch.setattr(surrogate, "open", open_then_fail, raising=False)
    cells[0]["value"] = 0.2
    with pytest.raises(KeyboardInterrupt):
        getattr(pl, emit)(tmp_path, "out", axes, cells)
    monkeypatch.undo()
    assert (tmp_path / interrupted).read_bytes() == before[interrupted]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(before)


@pytest.mark.parametrize("step", ["qoi write", "meta write", "qoi rename"])
def test_interrupted_dataset_rewrite_never_pairs_two_streams(tmp_path, monkeypatch,
                                                             step):
    cfg = tiny_config(seed=1)
    base = tmp_path / f"{cfg.tag()}-train"
    paths = pl.save_dataset(pl.gen_data(cfg, cfg.n_train, 1), base)
    before = {k: p.read_bytes() for k, p in paths.items()}
    other = pl.gen_data(cfg, cfg.n_train, 2)
    # the third file save_dataset opens is the meta's temporary
    owner, name, k = {"qoi write": (np, "savetxt", 1),
                      "meta write": (pl, "open", 2),
                      "qoi rename": (pl.os, "replace", 1)}[step]
    real, calls = getattr(owner, name, open), []

    def fail_at_call_k(*args, **kwargs):
        calls.append(1)
        if len(calls) == k + 1:
            if name == "open":
                # part of the meta reaches its temporary before the interrupt
                with real(*args, **kwargs) as fh:
                    fh.write('{"config": {')
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, fail_at_call_k, raising=False)
    with pytest.raises(KeyboardInterrupt):
        pl.save_dataset(other, base)
    monkeypatch.undo()
    assert not list(tmp_path.glob("*.tmp"))
    if step == "qoi rename":
        # the old meta is gone: no dataset, rather than a mixed one
        with pytest.raises(pl.PipelineError, match="no dataset"):
            pl.load_dataset(base, cfg)
    else:
        assert {k: p.read_bytes() for k, p in paths.items()} == before
    reused = pl.run_experiment(cfg, out_dir=tmp_path, reuse=True)
    fresh = pl.run_experiment(cfg, out_dir=tmp_path / "fresh")
    assert reused["test_error"] == fresh["test_error"]


def test_dataset_survives_interrupted_write(tmp_path, monkeypatch):
    cfg = tiny_config()
    base = tmp_path / "ds"
    paths = pl.save_dataset(pl.gen_data(cfg, 3, 1), base)
    before = {k: p.read_bytes() for k, p in paths.items()}

    def write_then_fail(fh, *args, **kwargs):
        fh.write("1,2,")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savetxt", write_then_fail)
    with pytest.raises(KeyboardInterrupt):
        pl.save_dataset(pl.gen_data(cfg, 3, 2), base)
    monkeypatch.undo()
    assert {k: p.read_bytes() for k, p in paths.items()} == before
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        p.name for p in paths.values())


# ------------------------------------------------------- solver failures


def _singular(*args, **kwargs):
    raise SingularMatrixError("zero pivot")


def test_gen_data_reports_singular_sample(monkeypatch):
    monkeypatch.setattr(pde, "cg_solve", _singular)
    cfg = tiny_config()
    with pytest.raises(pl.PipelineError, match="sample 0 failed") as err:
        pl.gen_data(cfg, 2, 5)
    assert str(pl.sample_parameters(5, 0, cfg.d).tolist()) in str(err.value)
    assert isinstance(err.value.__cause__, SolverError)


def test_sweep_records_singular_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(pde, "cg_solve", _singular)
    summary = pl.sweep(tiny_config(), {"n_points": [1, 2]}, tmp_path,
                       kind="figure", name="pts")
    assert all("zero pivot" in c["error"] for c in summary["cells"])
    saved = json.loads((tmp_path / "pts.cells.json").read_text())
    assert len(saved["cells"]) == 2


def _nan_on_call(k):
    """cg_solve that returns a NaN solution at call k, counting from 0."""
    real, calls = pde.cg_solve, []

    def solve(*args, **kwargs):
        calls.append(1)
        u, info = real(*args, **kwargs)
        return (np.full_like(u, np.nan) if len(calls) == k + 1 else u), info
    return solve


def test_gen_data_reports_non_finite_qoi(monkeypatch):
    monkeypatch.setattr(pde, "cg_solve", _nan_on_call(1))
    cfg = tiny_config()
    with pytest.raises(pl.PipelineError, match="sample 1 failed: non-finite QoI") as err:
        pl.gen_data(cfg, 3, 5)
    assert str(pl.sample_parameters(5, 1, cfg.d).tolist()) in str(err.value)
    assert isinstance(err.value.__cause__, SolverError)


def test_sweep_records_non_finite_cell(tmp_path, monkeypatch):
    # the first cell's datasets take 8 + 4 solves; the second cell's 3rd is NaN
    monkeypatch.setattr(pde, "cg_solve", _nan_on_call(12 + 2))
    summary = pl.sweep(tiny_config(), {"d": [4, 6]}, tmp_path, kind="figure",
                       name="dims")
    first, second = summary["cells"]
    assert "value" in first
    assert "sample 2 failed: non-finite QoI" in second["error"]
    saved = json.loads((tmp_path / "dims.cells.json").read_text())
    assert len(saved["cells"]) == 2
