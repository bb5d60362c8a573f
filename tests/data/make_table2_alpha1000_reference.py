"""Regenerate table2_alpha1000_reference.json beside this file.

For samples 0-2 of seed 0 of the table2-alpha1000 preset, the pipeline's
own A(y), b(y) (Workspace.problem.assemble) are solved directly by SuperLU
twice: under COLAMD (linalg.lu_solve) and under MMD_AT_PLUS_A.  The QoI of
each solution is read through evaluate_qoi.  The reference QoIs are the
COLAMD ones; the floor is the largest relative spread between the two
orderings, i.e. how far rounding alone moves the QoI, and the tolerance
is TOL_FACTOR times the floor.

    PYTHONPATH=src python tests/data/make_table2_alpha1000_reference.py
"""

import json
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from interface_surrogates import linalg
from interface_surrogates import pipeline as pl
from interface_surrogates.pde import ScalarField, evaluate_qoi

PRESET = "table2-alpha1000"
SEED = 0
SAMPLES = (0, 1, 2)
TOL_FACTOR = 10.0


def _qoi(ws, y, u_int):
    u = np.zeros(ws.mesh.n_vertices)
    u[ws.problem.interior] = u_int
    return evaluate_qoi(ScalarField(ws.mesh, u), ws.dm, y, ws.points, ws.kind)


def main():
    config = pl.preset(PRESET)
    ws = pl.Workspace(config)
    qois, spread = [], 0.0
    for i in SAMPLES:
        y = pl.sample_parameters(SEED, i, config.d)
        A, b = ws.problem.assemble(y)
        colamd = _qoi(ws, y, linalg.lu_solve(A, b))
        mmd = _qoi(ws, y, spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b))
        spread = max(spread, float(np.max(np.abs(mmd - colamd) / np.abs(colamd))))
        qois.append(colamd.tolist())
        print(f"sample {i}: colamd {colamd.tolist()} mmd {mmd.tolist()}", flush=True)
    ref = {
        "preset": PRESET,
        "data_hash": config.data_hash(),
        "seed": SEED,
        "samples": list(SAMPLES),
        "qoi": qois,
        "floor": spread,
        "tol_factor": TOL_FACTOR,
        "rtol": TOL_FACTOR * spread,
    }
    path = Path(__file__).with_name("table2_alpha1000_reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(json.dumps(ref, indent=1))


if __name__ == "__main__":
    main()
