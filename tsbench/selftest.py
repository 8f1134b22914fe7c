"""Tiny-size self-test of the benchmark.  Run from the root of a checkout:

    python3 tsbench/selftest.py

It checks that the metric tables in the code match BENCHMARK.json and
predictions.json, that every workload emits every named metric with its
unit in both modes, and that a deliberately failing input is counted in the
error rate instead of crashing the run.  Exits 0 when all checks hold.
"""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "desk-ctsn-tmpr": ["--train.epochs", "2", "--data.n_train", "64", "--data.n_eval", "64"],
    "wide-static": ["--data.dims", "24", "--model.hidden", "16,16", "--data.n_train", "128", "--data.n_eval", "64"],
    "wide-events": ["--data.dims", "24", "--model.hidden", "16,16", "--data.n_train", "128", "--data.n_eval", "64"],
    "gradcheck": ["--gradcheck.networks", "3", "--gradcheck.fd_networks", "1"],
}
FAILING = {
    "desk-ctsn-tmpr": ["--train.lr0", "1e300"],  # weights overflow, so SGD meets a non-finite gradient
    "gradcheck": ["--gradcheck.fd_step", "-1"],  # finite differences reject the step and raise
}


def invoke(name: str, extra: list[str], trace: int):
    """Run one workload in-process with extra config flags; returns (exit code, result, output)."""
    spec = workloads.WORKLOADS[name]
    saved = dict(spec)
    spec["argv"] = spec["argv"] + TINY[name] + extra
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
    finally:
        spec.update(saved)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if want_e2e != run.END_TO_END_UNITS:
        problems.append(f"end-to-end table differs from BENCHMARK.json: {run.END_TO_END_UNITS} vs {want_e2e}")
    if want_layer != tracing.LAYER_UNITS:
        problems.append("per-layer table differs from BENCHMARK.json")
    if [w["name"] for w in bench["workloads"]] != run.NAMES or set(run.NAMES) != set(workloads.WORKLOADS):
        problems.append("workload names differ between BENCHMARK.json, run.py and workloads.py")
    predictions = json.loads((Path(__file__).parent / "predictions.json").read_text())
    if set(predictions["workloads"]) != set(run.NAMES):
        problems.append("predictions.json does not give a reason for every workload")
    for p in predictions["predictions"]:
        if p["layer_metric"] not in want_layer or (p["moves"] and p["moves"] not in want_e2e):
            problems.append(f"predictions.json names an unknown metric: {p}")
        if not set(p["workloads"]) <= set(run.NAMES) | {"all"}:
            problems.append(f"predictions.json names an unknown workload: {p}")

    for name in run.NAMES:
        for trace, want in ((0, want_e2e), (1, want_layer)):
            code, result, text = invoke(name, [], trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or got != want or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: exit {code}, correct {result['correct']}, "
                                f"failed {result['failed']}, metrics differ: {sorted(set(want) ^ set(got))}\n{text}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: malformed result {result}")
    for name, extra in FAILING.items():
        code, result, text = invoke(name, extra, 0)
        if code != 0 or result["correct"] or result["failed"] < 1 or "error_rate" not in text:
            problems.append(f"{name} with a failing input was not counted: exit {code}, result {result}")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
