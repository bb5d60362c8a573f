"""
Training a neural surrogate for the observation map
===================================================

End to end at toy scale: draw interface parameters, solve the diffusion
problem per draw to get the observation q(y), fit a small multilayer
perceptron to y -> q, and compare the surrogate against fresh finite
element solves it has never seen.  The full-size protocol (more samples,
epochs and restarts) lives behind named presets in the pipeline module;
everything here is the same code path at a fraction of the budget.
"""

import dataclasses
import os
import tempfile
import time

import numpy as np

from interface_surrogates import pipeline as pl
from interface_surrogates import surrogate

cfg = dataclasses.replace(pl.preset("desk-elliptic"),
                          n_train=256, n_test=128, epochs=1500, restarts=2)
print(f"config {cfg.tag()}: {cfg.d} parameters -> {cfg.n_points} observation,"
      f" network widths {cfg.widths()}")

# --- data: one finite element solve per parameter draw ----------------------
t0 = time.perf_counter()
train_ds = pl.gen_data(cfg, cfg.n_train, cfg.seed)
test_ds = pl.gen_data(cfg, cfg.n_test, cfg.seed + pl.TEST_STREAM)
t_data = time.perf_counter() - t0
print(f"generated {train_ds.n}+{test_ds.n} samples in {t_data:.1f} s "
      f"({1e3 * t_data / (train_ds.n + test_ds.n):.1f} ms per solve)")

# --- fit ---------------------------------------------------------------------
t0 = time.perf_counter()
net, record = pl.train_on_datasets(cfg, train_ds, test_ds)
t_train = time.perf_counter() - t0
print(f"trained {cfg.restarts} restarts x {cfg.epochs} epochs "
      f"in {t_train:.1f} s")
print(f"  test error {record['test_error']:.3e}   "
      f"train error {record['train_error']:.3e}   "
      f"(kept restart {record['best_restart']})")

# --- confront the surrogate with solves it has never seen -------------------
ws = pl.Workspace(cfg)
print("\nfresh parameter draws: solver vs surrogate")
for k in range(3):
    y = pl.sample_parameters(cfg.seed + 999, k, cfg.d)
    t0 = time.perf_counter()
    q_fem = ws.solve(y)[0]
    t_fem = time.perf_counter() - t0
    t0 = time.perf_counter()
    q_net = surrogate.forward(net, y[None, :])[0, 0]
    t_net = time.perf_counter() - t0
    print(f"  solver {q_fem:.6f} ({1e3 * t_fem:6.1f} ms)   "
          f"surrogate {q_net:.6f} ({1e6 * t_net:6.1f} us)   "
          f"rel err {abs(q_net - q_fem) / abs(q_fem):.2e}")

# --- persistence -------------------------------------------------------------
# Checkpoints round-trip bit-exactly; predictions are reproducible anywhere.
checkpoint = os.path.join(tempfile.gettempdir(), "demo-surrogate.mlpc")
surrogate.save_network(net, checkpoint)
clone = surrogate.load_network(checkpoint)
y = pl.sample_parameters(1, 0, cfg.d)
assert surrogate.forward(clone, y[None, :])[0, 0] == \
       surrogate.forward(net, y[None, :])[0, 0]
print("\ncheckpoint saved, reloaded and verified bit-identical")
