"""Command-line interface.

Subcommands: gen-data, train, sweep, validate, plot, evaluate.  Exit code
0 on success, 1 when a validation check fails, 2 on runtime errors such
as bad arguments, missing files or solver failures.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import pipeline, plotting, surrogate, validation
from .pde import SolverError
from .pipeline import ExperimentConfig, PipelineError


def _add_config_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named configuration preset")
    group.add_argument("--config", help="JSON configuration file")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out-dir", help="override the output directory")


def _override(cfg, args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _resolve_config(args):
    if args.config is not None:
        cfg = ExperimentConfig.from_json_file(args.config)
    else:
        cfg = pipeline.preset(args.preset)
    return _override(cfg, args)


def _cmd_gen_data(args):
    cfg = _resolve_config(args)
    n, seed = pipeline.split_stream(cfg, args.split)
    n = args.n if args.n is not None else n
    ds = pipeline.gen_data(cfg, n, seed, workers=args.workers)
    base = Path(cfg.out_dir) / (args.name or f"{cfg.tag()}-{args.split}")
    paths = pipeline.save_dataset(ds, base)
    for p in sorted(str(v) for v in paths.values()):
        print(p)
    return 0


def _cmd_train(args):
    cfg = _resolve_config(args)
    record = pipeline.run_experiment(cfg, workers=args.workers)
    print(f"tag          {record['tag']}")
    print(f"test error   {record['test_error']:.6e}")
    print(f"train error  {record['train_error']:.6e}")
    print(f"gap          {record['gap']:.3f}")
    print(f"best restart {record['best_restart']} of {len(record['restarts'])}")
    print(f"outputs in   {cfg.out_dir}")
    return 0


def _load_sweep(args):
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise PipelineError(f"a sweep config must be a JSON object, got {data!r}")
        if "preset" in data:
            base = pipeline.preset(data["preset"])
        elif "base" in data:
            base = ExperimentConfig.from_dict(data["base"])
        else:
            raise PipelineError("sweep config needs a 'preset' or 'base' entry")
        if "axes" not in data:
            raise PipelineError("sweep config needs an 'axes' mapping")
        return base, data["axes"], data.get("kind")
    return pipeline.sweep_spec(args.preset)


def _cmd_sweep(args):
    base, axes, kind = _load_sweep(args)
    base = _override(base, args)
    name = args.name or (args.preset or "sweep")
    summary = pipeline.sweep(base, axes, base.out_dir, kind=kind, workers=args.workers,
                             name=name)
    failed = [c for c in summary["cells"] if "error" in c]
    for cell in summary["cells"]:
        label = ", ".join(f"{k}={v}" for k, v in cell["axes"].items())
        if "error" in cell:
            print(f"{label}: FAILED ({cell['error']})")
        else:
            reused = " (reused)" if cell.get("reused") else ""
            print(f"{label}: {cell['value']:.6g}{reused}")
    print(f"outputs in {base.out_dir}")
    return 2 if failed else 0


def _cmd_validate(args):
    names = args.suites or None
    try:
        _, ok = validation.run_suites(names)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0 if ok else 1


def _cmd_plot(args):
    out_dir = Path(args.out_dir) if args.out_dir else None
    written = []
    for path in args.series:
        src = Path(path)
        series = plotting.load_series_csv(src)
        svg = plotting.render_plot(series, title=src.stem, xlabel=args.xlabel,
                                   ylabel=args.ylabel)
        dest_dir = out_dir if out_dir is not None else src.parent
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / (src.stem.removesuffix(".series") + ".svg")
        plotting.write_svg(dest, svg)
        written.append(dest)
    for p in written:
        print(p)
    return 0


def _parse_y(args):
    if args.y is not None:
        row = np.array([float(v) for v in args.y.split(",")], dtype=float)
        return row.reshape(1, -1)
    return np.loadtxt(args.y_file, delimiter=",", ndmin=2)


def _cmd_evaluate(args):
    net = surrogate.load_network(args.network)
    Y = _parse_y(args)
    if Y.shape[1] != net.widths[0]:
        raise PipelineError(
            f"parameter has length {Y.shape[1]}, network expects {net.widths[0]}")
    Q = surrogate.forward(net, Y)
    text = "\n".join(",".join(format(v, ".12g") for v in row) for row in Q)
    if args.out:
        with surrogate.atomic_open(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="interface-surrogates",
        description="Neural-network surrogates for point evaluations of "
                    "stochastic interface problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and persist a dataset")
    _add_config_args(p)
    p.add_argument("--n", type=int,
                   help="sample count (default: config n_train; n_test with "
                        "--split test)")
    p.add_argument("--split", choices=["train", "test"], default="train",
                   help="which seeded sample stream to draw from")
    p.add_argument("--name", help="output base name (default: <tag>-<split>)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="generate or load data, train, persist")
    _add_config_args(p)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="run an experiment grid and emit tables")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(pipeline.SWEEPS),
                       help="named sweep")
    group.add_argument("--config", help="JSON sweep file: base/preset, axes, kind")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--name", help="basename for emitted table/figure files")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="run oracle and invariant checks")
    p.add_argument("suites", nargs="*",
                   help=f"suites to run (default: all of {', '.join(sorted(validation.SUITES))})")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("plot", help="render series CSV files to SVG")
    p.add_argument("series", nargs="+", help="series files (label,x,y columns)")
    p.add_argument("--out-dir")
    p.add_argument("--xlabel", default="")
    p.add_argument("--ylabel", default="test error")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("evaluate", help="predict q for given parameters")
    p.add_argument("--network", required=True, help="checkpoint file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--y", help="comma-separated parameter vector")
    group.add_argument("--y-file", help="CSV file, one parameter row per line")
    p.add_argument("--out", help="write predictions to this CSV file")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, SolverError, ArithmeticError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
