"""Regenerate the direct-solve references beside this file.

For each entry of REFERENCES, samples 0-2 of seed 0 of a preset (with its
overrides) are solved directly: the pipeline's own A(y), b(y)
(Workspace.problem.assemble) go through SuperLU twice, under COLAMD
(linalg.lu_solve) and under MMD_AT_PLUS_A.  The QoI of each solution is
read through evaluate_qoi, from the total field (pde._TotalField) for a
Helmholtz problem.  The reference QoIs are the COLAMD ones; the floor is
the largest relative spread between the two orderings, i.e. how far
rounding alone moves the QoI, and the tolerance is TOL_FACTOR times the
floor.

    PYTHONPATH=src python tests/data/make_direct_references.py [FILE ...]

writes the named files of REFERENCES, all of them when none is named.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from interface_surrogates import linalg
from interface_surrogates import pipeline as pl
from interface_surrogates.pde import ScalarField, _TotalField, evaluate_qoi

# file name: (preset, config overrides)
REFERENCES = {
    "table2_alpha1000_reference.json": ("table2-alpha1000", {}),
    # the elliptic-gen benchmark workload's config
    "elliptic_gen_reference.json": ("desk-elliptic", {"d": 16, "p": 1.0, "n_points": 64}),
    "desk_helmholtz_reference.json": ("desk-helmholtz", {}),
    "table8_2k0_reference.json": ("table8-2k0", {}),
}
SEED = 0
SAMPLES = (0, 1, 2)
TOL_FACTOR = 10.0


def _qoi(ws, y, u_int):
    u = np.zeros(ws.mesh.n_vertices, dtype=u_int.dtype)
    u[ws.problem.interior] = u_int
    if ws.config.problem == "helmholtz":
        field = _TotalField(ws.problem, y, u, {})
    else:
        field = ScalarField(ws.mesh, u)
    return evaluate_qoi(field, ws.dm, y, ws.points, ws.kind)


def reference(preset, overrides):
    config = dataclasses.replace(pl.preset(preset), **overrides)
    ws = pl.Workspace(config)
    qois, spread = [], 0.0
    for i in SAMPLES:
        y = pl.sample_parameters(SEED, i, config.d)
        A, b = ws.problem.assemble(y)
        colamd = _qoi(ws, y, linalg.lu_solve(A, b))
        mmd = _qoi(ws, y, spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b))
        rel = float(np.max(np.abs(mmd - colamd) / np.abs(colamd)))
        spread = max(spread, rel)
        qois.append(colamd.tolist())
        print(f"{preset} sample {i}: orderings {rel:.3e} apart", flush=True)
    ref = {"preset": preset}
    if overrides:
        ref["overrides"] = overrides
    ref.update({
        "data_hash": config.data_hash(),
        "seed": SEED,
        "samples": list(SAMPLES),
        "qoi": qois,
        "floor": spread,
        "tol_factor": TOL_FACTOR,
        "rtol": TOL_FACTOR * spread,
    })
    return ref


def main(names):
    for name in names or REFERENCES:
        ref = reference(*REFERENCES[name])
        with open(Path(__file__).with_name(name), "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"{name}: floor {ref['floor']:.3e}, rtol {ref['rtol']:.3e}")


if __name__ == "__main__":
    main(sys.argv[1:])
