"""ternspike benchmark: train/eval throughput, run time and gradcheck, per workload.

Run from the root of a source checkout:

    python3 tsbench/run.py --workload desk-ctsn-tmpr --seed 1 --seconds 27 --trace 0
    python3 tsbench/run.py --workload all --seed 1 --seconds 27 --trace 0

The package is imported from ``src/`` of the current directory, never from
an installed copy.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give each metric's reported value (see ``REDUCE``), median,
quartiles and sample count, the error rate, the computed operation counts
and the environment.  A JSON report, and with ``--trace 1`` the recorded
spans, go to ``.tsbench_out/<workload>/``.

The benchmark reads the BLAS threading set-up and does not change it.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

NAMES = ["desk-ctsn-tmpr", "wide-static", "wide-events", "gradcheck"]
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=27.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# Imports happen once per process, so that part of set-up is repeated in
# fresh interpreters running the same statement; each probe pairs with one
# in-process set-up of config, data and network.
IMPORT = "from ternspike import bptt, cli, data, gradcheck, loss, network, neuron, numerics, trainer"
IMPORT_PROBES = 8
PROBE = f"import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); {IMPORT}; print(time.perf_counter() - t)"


def import_package(root: Path):
    """Import ternspike from ``root/src``: (modules, import seconds), or None if
    the checkout has no package."""
    src = root / "src"
    if not (src / "ternspike" / "__init__.py").is_file():
        return None
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    namespace = {}
    exec(IMPORT, namespace)
    import_s = time.perf_counter() - t0
    ts = argparse.Namespace(**{k: v for k, v in namespace.items() if k != "__builtins__"})
    if Path(ts.cli.__file__).resolve().parent != (src / "ternspike").resolve():
        return None
    return ts, import_s


def import_times(root: Path, first: float) -> list[float]:
    """The in-process import time, then one per fresh-interpreter probe."""
    times = [first]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE], cwd=root, capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout))
    return times


def environment() -> dict:
    """Cores, BLAS library and the thread count in effect; read, never set."""
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    env["blas_threads"] = fn()
                    env["blas_library"] = path
                    break
            if env["blas_threads"] is not None:
                break
    return env


# How each end-to-end metric is reduced from its samples (per batch, per
# eval pass, per run, per set-up), which are spread over the whole run.
# Throughput and run time report the slow tenth: the samples/s of the batch
# or pass at the 10th percentile, and the 90th-percentile run time.  On a
# shared host, Python-bound code alternates between two speeds about 1.6x
# apart as neighbours come and go, for 10-60 s at a time; the share of each
# speed in a run varies so much that the median moved by 30-47% (quartile
# distance over median) between runs, while the slow tail, which sits on the
# contended speed whenever that covers a tenth of a run, moved by 2-14%.
REDUCE = {
    "setup_s": "median",
    "train_samples_per_s": "p10",
    "eval_samples_per_s": "p10",
    "run_s": "p90",
    "peak_rss_mb": "median",
}


def reduce(values, how: str) -> float:
    if how == "median" or len(values) < 2:
        return statistics.median(values)
    deciles = statistics.quantiles(values, n=10)
    return deciles[0] if how == "p10" else deciles[-1]


def metric_line(name, unit, values, how) -> str:
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return (f"  {name:<20} {reduce(values, how):>12.6g} {unit:<10} ({how})  median {med:.6g}  "
            f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}  n {len(values)}")


def run_one(args, root: Path) -> int:
    imported = import_package(root)
    if imported is None:
        print(f"no ternspike source tree under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    ts, import_s = imported
    imports = import_times(root, import_s)

    import workloads
    from tracing import LAYER_UNITS

    env = environment()
    out_dir = root / ".tsbench_out" / args.workload
    spec = workloads.WORKLOADS[args.workload]
    outcome = workloads.run_workload(ts, spec, args.seed, args.seconds, bool(args.trace), out_dir)

    samples = dict(outcome.samples)
    samples["setup_s"] = [i + s for i, s in zip(imports, outcome.info.get("setup_repeat_s", []))]
    outcome.info["import_s"] = imports
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    lines = []
    if not args.trace:
        lines.append("  end-to-end metrics (reported value and its reduction; median, quartiles, samples):")
        values = {name: reduce(samples[name], REDUCE[name]) for name in END_TO_END_UNITS if samples.get(name)}
        lines += [metric_line(name, END_TO_END_UNITS[name], samples[name], REDUCE[name]) for name in values]
        units = END_TO_END_UNITS
    else:
        lines.append("  per-layer metrics (traced run):")
        values = outcome.layers
        lines += [f"  {name:<44} {values[name]:>14.6g} {unit}" for name, unit in LAYER_UNITS.items() if name in values]
        units = LAYER_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    for name in units.keys() - values.keys():
        outcome.fail(f"metric {name} was not measured")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print(f"  computed {json.dumps(outcome.info.get('computed', {}), sort_keys=True)}")
    if "eval_acc" in outcome.info:
        print(f"  eval_acc (final epoch, same every run of this seed) {outcome.info['eval_acc']!r} ratio")
    error_rate = outcome.failed / outcome.attempted
    print(f"  error_rate {error_rate!r} ratio ({outcome.failed} failed of {outcome.attempted} attempted)")
    for what in outcome.failures:
        print(f"  FAILED: {what}")
    print("\n".join(lines))

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "info": outcome.info, "samples": samples, "failures": outcome.failures,
              "result": result}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, root: Path) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if lines[:-1]:
            print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    return run_all(args, root) if args.workload == "all" else run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
