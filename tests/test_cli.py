import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from interface_surrogates import cli
from interface_surrogates import pipeline as pl
from interface_surrogates import surrogate


def tiny_dict(out_dir, **over):
    cfg = dict(problem="elliptic", d=4, p=3.0, alpha_i=10.0, n_points=2,
               h_interface=0.06, h_far=0.15, n_train=8, n_test=4,
               epochs=40, restarts=1, depth=3, seed=9, out_dir=str(out_dir))
    cfg.update(over)
    return cfg


def write_config(tmp_path, **over):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_dict(tmp_path / "out", **over)))
    return path


def test_argparse_surface():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_gen_data_train_evaluate_roundtrip(tmp_path, capsys):
    cfg_file = write_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(cfg_file), "--n", "4"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3  # meta + samples + qoi
    for line in printed:
        assert (tmp_path / "out").samefile(tmp_path / "out") and line
    assert (tmp_path / "out" / "elliptic-d4-p3-a10-np2-train.samples.csv").exists()

    assert cli.main(["gen-data", "--config", str(cfg_file), "--n", "3",
                     "--split", "test"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "elliptic-d4-p3-a10-np2-test.qoi.csv").exists()

    assert cli.main(["train", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "test error" in out and "best restart 0 of 1" in out
    ckpt = tmp_path / "out" / "elliptic-d4-p3-a10-np2.mlpc"
    assert ckpt.exists()

    assert cli.main(["evaluate", "--network", str(ckpt),
                     "--y", "0.1,-0.2,0.3,0.4"]) == 0
    row = capsys.readouterr().out.strip().split(",")
    assert len(row) == 2 and all(np.isfinite(float(v)) for v in row)

    assert cli.main(["evaluate", "--network", str(ckpt), "--y", "0.1,0.2"]) == 2
    assert "expects 4" in capsys.readouterr().err

    y_file = tmp_path / "y.csv"
    np.savetxt(y_file, np.full((2, 4), 0.25), delimiter=",")
    pred_file = tmp_path / "pred.csv"
    assert cli.main(["evaluate", "--network", str(ckpt), "--y-file",
                     str(y_file), "--out", str(pred_file)]) == 0
    pred = np.loadtxt(pred_file, delimiter=",", ndmin=2)
    assert pred.shape == (2, 2)
    np.testing.assert_array_equal(pred[0], pred[1])


def test_gen_data_test_split_defaults_to_n_test(tmp_path, capsys):
    cfg_file = write_config(tmp_path, n_train=5, n_test=3)
    assert cli.main(["gen-data", "--config", str(cfg_file), "--split", "test"]) == 0
    capsys.readouterr()
    ds = pl.load_dataset(tmp_path / "out" / "elliptic-d4-p3-a10-np2-test")
    assert ds.n == 3
    assert ds.meta["seed"] == 9 + pl.TEST_STREAM


def test_evaluate_truncated_checkpoint_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "net.mlpc"
    surrogate.save_network(surrogate.init([4, 3, 2], seed=0), ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:14])
    assert cli.main(["evaluate", "--network", str(ckpt), "--y", "0,0,0,0"]) == 2
    assert "truncated checkpoint" in capsys.readouterr().err


def test_evaluate_corrupt_header_exit_2(tmp_path, capsys):
    # widths [2^32 - 1, 2^32 - 1] size a body far larger than the file
    ckpt = tmp_path / "corrupt.mlpc"
    ckpt.write_bytes(b"MLPC" + struct.pack("<II2Id", 1, 2, 2**32 - 1, 2**32 - 1, 0.2))
    assert cli.main(["evaluate", "--network", str(ckpt), "--y", "0,0,0,0"]) == 2
    assert f"{ckpt}: truncated checkpoint" in capsys.readouterr().err


def test_evaluate_out_survives_interrupted_write(tmp_path, monkeypatch, capsys):
    ckpt, pred = tmp_path / "net.mlpc", tmp_path / "pred.csv"
    surrogate.save_network(surrogate.init([4, 3, 2], seed=0), ckpt)
    evaluate = ["evaluate", "--network", str(ckpt), "--out", str(pred), "--y"]
    assert cli.main(evaluate + ["0,0,0,0"]) == 0
    before = pred.read_bytes()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(surrogate.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(evaluate + ["0.5,0.5,0.5,0.5"])
    monkeypatch.undo()
    assert pred.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.mlpc", "pred.csv"]


def test_gen_data_custom_name(tmp_path, capsys):
    cfg_file = write_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(cfg_file), "--n", "2",
                     "--name", "probe"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "probe.samples.csv").exists()
    ds = pl.load_dataset(tmp_path / "out" / "probe")
    assert ds.n == 2


def test_gen_data_seed_override_changes_samples(tmp_path, capsys):
    cfg_file = write_config(tmp_path)
    cli.main(["gen-data", "--config", str(cfg_file), "--n", "2",
              "--name", "a", "--seed", "1"])
    cli.main(["gen-data", "--config", str(cfg_file), "--n", "2",
              "--name", "b", "--seed", "2"])
    capsys.readouterr()
    a = pl.load_dataset(tmp_path / "out" / "a")
    b = pl.load_dataset(tmp_path / "out" / "b")
    assert not np.array_equal(a.samples, b.samples)


def test_validate_geometry_suite(capsys):
    assert cli.main(["validate", "geometry"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") >= 4 and "[FAIL]" not in out


def test_validate_unknown_suite(capsys):
    assert cli.main(["validate", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_plot_command(tmp_path, capsys):
    src = tmp_path / "curve.series.csv"
    src.write_text("label,x,y\nerr,1,0.5\nerr,8,0.25\nerr,64,0.12\n")
    assert cli.main(["plot", str(src)]) == 0
    capsys.readouterr()
    svg = tmp_path / "curve.svg"
    assert svg.exists() and svg.read_text().startswith("<svg ")
    assert cli.main(["plot", str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()


def test_sweep_config_file(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": tiny_dict(tmp_path / "out"),
                                "axes": {"d": [4]}, "kind": "table"}))
    assert cli.main(["sweep", "--config", str(spec), "--name", "mini",
                     "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "d=4:" in out
    assert (tmp_path / "out" / "mini.csv").exists()


def test_sweep_out_dir_is_recorded_and_rerun_reuses_cells(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": tiny_dict(tmp_path / "elsewhere"),
                                "axes": {"d": [4]}, "kind": "table"}))
    argv = ["sweep", "--config", str(spec), "--name", "mini",
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert "(reused)" not in capsys.readouterr().out
    result = json.loads((tmp_path / "out" / "elliptic-d4-p3-a10-np2.result.json")
                        .read_text())
    assert result["config"]["out_dir"] == str(tmp_path / "out")
    assert not (tmp_path / "elsewhere").exists()
    assert cli.main(argv) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("d=4:")]
    assert line.endswith(" (reused)")


def test_sweep_preset_geometry(tmp_path, capsys):
    assert cli.main(["sweep", "--preset", "table1",
                     "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "p=1.0, d=8:" in out
    table = (tmp_path / "table1.csv").read_text()
    assert table.splitlines()[0] == "p,d=8,d=16,d=32,d=64"


def test_sweep_points_figure_routing(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": tiny_dict(tmp_path / "out"),
                                "axes": {"n_points": [1, 2]},
                                "kind": "figure"}))
    assert cli.main(["sweep", "--config", str(spec), "--name", "pts",
                     "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    # the shared-dataset path persists only the largest point count
    assert (tmp_path / "out" / "elliptic-d4-p3-a10-np2-train.qoi.csv").exists()
    assert not (tmp_path / "out" / "elliptic-d4-p3-a10-np1-train.qoi.csv").exists()
    assert (tmp_path / "out" / "pts.series.csv").exists()


def test_sweep_failed_cell_returns_2(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": tiny_dict(tmp_path / "out"),
                                "axes": {"n_points": [2, 0]}, "kind": "table"}))
    assert cli.main(["sweep", "--config", str(spec),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_sweep_config_missing_axes(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": tiny_dict(tmp_path / "out")}))
    assert cli.main(["sweep", "--config", str(spec)]) == 2
    assert "axes" in capsys.readouterr().err


@pytest.mark.parametrize("axes", [{}, {"p": 3}, {"direction": [[1, 0], [0, 1]]},
                                  {"d": [8.0]}, {"n_points": [2.0]}, {"d": [4, 4]}])
def test_sweep_bad_axes_exit_2(tmp_path, capsys, axes):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": tiny_dict(tmp_path / "out"), "axes": axes}))
    assert cli.main(["sweep", "--config", str(spec),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert "axis" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_unknown_kind_exit_2(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": tiny_dict(tmp_path / "out"),
                                "axes": {"p": [1.0, 3.0], "d": [4, 6]},
                                "kind": "tabel"}))
    assert cli.main(["sweep", "--config", str(spec),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert "'tabel'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["gen-data", "--config", str(bad), "--n", "1"]) == 2
    capsys.readouterr()


def test_untrainable_config_exit_2(tmp_path, capsys):
    # rejected when the config is read, before any sample is generated
    path = write_config(tmp_path, restarts=0)
    assert cli.main(["train", "--config", str(path)]) == 2
    assert "restarts" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("d", "8"), ("n_points", "4"), ("alpha_i", None), ("d", 8.0), ("seed", True)])
def test_gen_data_mistyped_number_exit_2(tmp_path, capsys, field, value):
    # rejected with the field's name when the config is read, no traceback
    path = write_config(tmp_path, **{field: value})
    assert cli.main(["gen-data", "--config", str(path), "--n", "1"]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("over, named", [
    ({"h_interface": -0.01}, "h_interface > 0"),
    ({"h_interface": 0.0}, "h_interface > 0"),
    ({"h_far": -0.15}, "h_far > 0"),
    ({"problem": "helmholtz", "h_interface": None, "h_far": None, "pml_damping": -0.5},
     "pml_damping"),
])
def test_gen_data_bad_mesh_size_or_damping_exit_2(tmp_path, capsys, over, named):
    # rejected when the mesh or problem is built, before any sample is solved
    path = write_config(tmp_path, **over)
    assert cli.main(["gen-data", "--config", str(path), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kappa_o", [-50.0, 0.0])
def test_gen_data_bad_wavenumber_exit_2(tmp_path, capsys, kappa_o):
    # rejected with the field's name when the config is read
    path = write_config(tmp_path, problem="helmholtz", kappa_o=kappa_o)
    assert cli.main(["gen-data", "--config", str(path), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "kappa_o" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, spec, named", [
    ("train", {"out_dir": 5}, "out_dir"),
    ("gen-data", [{"d": 4}], "JSON object"),
    ("sweep", {"base": 5, "axes": {"p": [1.0]}}, "JSON object"),
    ("sweep", ["preset", "axes"], "JSON object"),
])
def test_malformed_config_exit_2(tmp_path, capsys, monkeypatch, command, spec, named):
    # a config that is not an object of fields is rejected when it is read
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(spec))
    assert cli.main([command, "--config", str(path)]) == 2
    assert named in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "interface_surrogates",
                           "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout and "evaluate" in proc.stdout
