"""Benchmark of dataset generation, surrogate training and sweeps.

Run from the repository root:

    python3 benchmark/run.py --workload elliptic-gen --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --seed 1            # every workload, untraced then traced
    python3 benchmark/run.py --record-reference  # rewrite benchmark/reference.json

A single-workload run prints a report and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Its full record, with the environment and (traced) the spans, is written
to .benchmark_out/ in the repository root.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmark_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("elliptic-gen", "helmholtz-gen", "train-n2048", "train-n8192",
             "sweep-cells")
# a p90 needs at least ten latency samples beyond it
MIN_SAMPLES = 100


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "interface_surrogates").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_rev": _git_rev(), "src_sha256": digest.hexdigest(), "seed": seed}


def peak_rss_mb():
    """Peak resident set of this process.  ru_maxrss is only the fallback:
    Linux carries the parent's resident set at fork across exec into it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB


def timing(res):
    """Every figure of a run; END_TO_END names the ones with a bound."""
    lat = res["latencies_ms"]
    if len(lat) >= 2:
        p50, p90 = statistics.median(lat), statistics.quantiles(lat, n=10)[-1]
    else:
        p50 = p90 = lat[0] if lat else 0.0
    return {
        "op_ms_p90": p90,
        "setup_s": statistics.quantiles(res["setup_s"], n=4)[2],
        "peak_rss_mb": peak_rss_mb(),
        "op_ms_p50": p50,
        "ops_per_s": res["ok"] / res["busy_s"] if res["busy_s"] else 0.0,
    }


# On a shared host the median and the mean of a run move with the share of
# the run a neighbour loads the core; an upper quantile sits at the loaded
# level and repeats run to run.  So the op latency is bounded by its p90 and
# the set-up time by the upper quartile of its repetitions (see README.md).
END_TO_END = ("op_ms_p90", "setup_s", "peak_rss_mb")
UNITS = {"op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB",
         "op_ms_p50": "ms", "ops_per_s": "1/s"}


def run_one(name, seed, seconds, trace, min_samples):
    import tracing
    import workloads

    wl = workloads.load(name)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    wl.scratch = str(scratch)
    tracer = tracing.Tracer() if trace else tracing.Untraced()
    try:
        with tracing.installed(tracer) if trace else contextlib.nullcontext():
            res = workloads.execute(wl, seed, seconds, tracer, min_samples)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    leftover = tracing.leftover_wrappers()
    if leftover:
        res["problems"].append(f"wrappers left installed: {leftover}")

    figures = timing(res)
    attempted = res["ok"] + res["failed"]
    env = environment(seed)
    print(f"workload {name}: {wl.why}")
    print(f"env {json.dumps(env)}")
    print(f"set-up runs (s): {', '.join(f'{t:.4f}' for t in res['setup_s'])}")
    print(f"{wl.unit}s: attempted {attempted}, failed {res['failed']}, "
          f"failed_frac {res['failed'] / max(attempted, 1):.4g}, "
          f"latency samples {len(res['latencies_ms'])}, calls {res['calls']}, "
          f"loop {res['loop_s']:.2f} s")
    for err in res["errors"][:10]:
        print(f"  failed: {err}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")

    if trace:
        metrics = tracing.layer_metrics(tracer, max(attempted, 1), wl.n_setups,
                                        figures["ops_per_s"])
        units = {k: tracing.unit_of(k) for k in metrics}
        print(f"set-up self time per repetition ({wl.n_setups} repetitions):")
        print(tracing.table(tracer.spans, "setup", wl.n_setups, "rep"))
        print(f"timed-loop self time per {wl.unit} ({attempted} {wl.unit}s):")
        print(tracing.table(tracer.spans, "loop", max(attempted, 1), wl.unit))
        print(f"coverage {metrics['trace.coverage']:.4f}, traced ops_per_s "
              f"{metrics['trace.ops_per_s']:.6g} (compare with an untraced run "
              f"for the tracing overhead)")
        if metrics["trace.coverage"] < 0.9:
            print("  WARNING: layer spans cover less than 90% of the traced loop")
    else:
        metrics = {k: figures[k] for k in END_TO_END}
        units = UNITS
        print("end-to-end (bounded):")
        for key in END_TO_END:
            print(f"  {key:<20}{figures[key]:>16.6g} {UNITS[key]}")
        print("end-to-end (reported, unbounded):")
        for key in UNITS:
            if key not in END_TO_END:
                print(f"  {key:<20}{figures[key]:>16.6g} {UNITS[key]}")
        for key, (value, unit) in wl.figures(figures).items():
            print(f"  {key:<20}{value:>16.6g} {unit}")

    record = {"workload": name, "seconds": seconds, "trace": trace, "env": env,
              "setup_s": res["setup_s"], "attempted": attempted,
              "failed": res["failed"], "problems": res["problems"],
              "errors": res["errors"], "figures": figures, "metrics": metrics,
              "spans": tracer.spans if trace else []}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed, seconds, min_samples):
    """Every workload in its own process, untraced then traced."""
    summary = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--min-samples", str(min_samples)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                status = 1
            with open(OUT / f"{name}-seed{seed}-trace{trace}.json") as fh:
                summary[name, trace] = json.load(fh)
    print("\ntracing overhead: untraced and traced ops_per_s, their ratio, and"
          " the overhead estimated from span count and span cost")
    for name in WORKLOADS:
        if (name, 0) in summary and (name, 1) in summary:
            plain = summary[name, 0]["figures"]["ops_per_s"]
            traced = summary[name, 1]["metrics"]
            print(f"  {name:<16}{plain:>12.5g}{traced['trace.ops_per_s']:>12.5g}"
                  f"{100 * (plain / traced['trace.ops_per_s'] - 1):>9.2f}%"
                  f"{100 * traced['trace.overhead_est']:>9.3f}%")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload; without it every workload runs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-samples", type=int, default=MIN_SAMPLES,
                    help="latency samples the timed loop collects at least")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "interface_surrogates" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    # pin BLAS and OpenMP to one thread before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.record_reference:
        scratch = OUT / f"tmp-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            workloads.record_reference(str(scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.min_samples)
    return run_one(args.workload, args.seed, args.seconds, args.trace,
                   args.min_samples)


if __name__ == "__main__":
    sys.exit(main())
