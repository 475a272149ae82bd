#!/usr/bin/env python3
"""Run an ffrg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rules-dense --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

With ``--trace 0`` a run sets up its inputs at least three times and for at
least five seconds (``setup_s`` is the median), runs the timed body once
and prints the end-to-end metrics, their times given at one machine speed
(see ``speed.py``) and followed by the times as measured.  With
``--trace 1`` it sets up once, runs the body untraced and then traced over
the same documents, and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``all``
runs every workload, each in a process of its own, one after another, and
ends with one such object over all of them, each metric named
``<workload>.<metric>``.

The run exits with code 1 when an output check fails (the result, with
``correct`` false, is still printed), and with code 1 and no result when
the checkout's ``src/ffrg`` is missing.
"""

import os

# Pin the BLAS pool before numpy is first imported; the count is recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402
WORK = ROOT / ".bench_work"
# Set-up repeats at least this often and until this much time has gone, so
# that the median of a short set-up rests on more than three samples.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 5.0
# What `ffrg pipeline --preset noisy-bench --n 1000 --seed 0 --branches 3
# --epochs-step1 3 --epochs-step2 40 --lr 3e-3` reports as macro F1.
SEED0_PIPELINE_MACRO_F1 = 0.3834344673595432


def import_ffrg() -> None:
    """Put the checkout's src/ and root on the path; refuse any other ffrg."""
    src = ROOT / "src"
    if not (src / "ffrg" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'ffrg'} not found: run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import ffrg

    if Path(ffrg.__file__).resolve().parent != (src / "ffrg").resolve():
        raise SystemExit(f"error: imported ffrg from {ffrg.__file__}, not from {src}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    lines = 0
    for path in sorted((ROOT / "src" / "ffrg").glob("*.py")):
        with open(path, encoding="utf-8") as f:
            lines += sum(1 for _ in f)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "ffrg_threads": 1,
        "src_ffrg_lines": lines,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples beyond it; the maximum when there are ten
    or fewer samples."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), 10


def _seed0_problems(workload, seed: int, body) -> list[str]:
    if workload.name != "pipeline-noisy1k" or seed != 0:
        return []
    if body.macro_f1 == SEED0_PIPELINE_MACRO_F1:
        return []
    return [f"seed 0 macro F1 {body.macro_f1!r} != ffrg pipeline's {SEED0_PIPELINE_MACRO_F1!r}"]


def end_to_end_metrics(setup_spans: list[tuple[float, float]], body,
                       elapsed=speed.raw) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one untraced run, its times converted by
    `elapsed`; a page is the document on rules-dense, and on
    pipeline-noisy1k every document's latency is the batch's."""
    latencies = body.latencies_ms(elapsed)
    return {
        "setup_s": (statistics.median(elapsed(*s) for s in setup_spans), "s"),
        "docs_per_s": (body.items / body.seconds(elapsed), "docs/s"),
        "doc_p50_ms": (statistics.median(latencies), "ms"),
        "doc_tail_ms": (tail(latencies)[0], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _setup(workload, seed: int, tmp: str):
    """Set up repeatedly; return the clock spans, the last inputs and a
    problem if the repeats' inputs differ."""
    spans, problems, digests = [], [], []
    while len(spans) < SETUP_REPEATS or sum(t1 - t0 for t0, t1 in spans) < SETUP_MIN_SECONDS:
        d = os.path.join(tmp, f"setup{len(spans)}")
        os.makedirs(d)
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(seed, d)
        spans.append((t0, time.perf_counter()))
        digests.append(inputs.digest)
    if len(set(digests)) != 1:
        problems.append(f"set-up repeats disagree: {digests}")
    return spans, inputs, problems


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import workloads

    workload = workloads.WORKLOADS[name]()
    info = machine_info()
    print("machine " + json.dumps(info, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if trace:
            return _run_traced(workload, seed, seconds, tmp)
        with speed.Sampler() as sampler:
            setup_spans, inputs, problems = _setup(workload, seed, tmp)
            out = os.path.join(tmp, "out")
            os.makedirs(out)
            gc.collect()
            body = workload.body(inputs, out, seconds)
    body.check_values()
    problems += _seed0_problems(workload, seed, body)
    metrics = end_to_end_metrics(setup_spans, body, sampler.elapsed)
    measured = end_to_end_metrics(setup_spans, body)
    for art, digest in sorted(body.artifacts.items()):
        print(f"artifact {art} sha256 {digest}")
    print(sampler.summary())
    print(f"setup_s runs: {', '.join(f'{sampler.elapsed(*s):.3f}' for s in setup_spans)}")
    _, pct, beyond = tail(body.latencies_ms())
    for key, (value, unit) in metrics.items():
        note = f"  (measured {measured[key][0]:.6g})"
        if key == "doc_tail_ms":
            note += f"  (p{pct:.2f}, {beyond} of {len(body.doc_spans)} samples beyond)"
        print(f"{key} {value:.6g} {unit}{note}")
    print(f"macro_f1 {body.macro_f1:.6g} F1")
    print(f"error_rate {body.failed / body.items:.6g}  ({body.failed} of {body.items} documents)")
    return _finish(problems, [body], metrics)


def _run_traced(workload, seed: int, seconds: float, tmp: str) -> int:
    from perfbench.layers import layer_metrics
    from perfbench.tracer import Tracer, installed

    dirs = {name: os.path.join(tmp, name) for name in ("setup", "untraced", "traced")}
    for d in dirs.values():
        os.makedirs(d)
    inputs = workload.setup(seed, dirs["setup"])
    gc.collect()
    untraced = workload.body(inputs, dirs["untraced"], seconds)
    tracer = Tracer(f"{workload.name}-seed{seed}-{uuid.uuid4().hex[:12]}")
    gc.collect()
    with installed(tracer):
        traced = workload.body(inputs, dirs["traced"], seconds, items=untraced.items)
    untraced.check_values()
    traced.check_values()
    problems = _seed0_problems(workload, seed, untraced)
    if traced.artifacts != untraced.artifacts:
        problems.append("traced and untraced artifacts differ")
    spans_dir = WORK / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(str(spans_path))
    print(f"spans {len(tracer.spans)} written to {spans_path} (run id {tracer.run_id})")
    for art, digest in sorted(traced.artifacts.items()):
        print(f"artifact {art} sha256 {digest}")
    layer = layer_metrics(tracer, traced, untraced)
    for key, (value, unit, _) in layer.items():
        print(f"{key} {value:.6g} {unit}")
    metrics = {k: (v, unit) for k, (v, unit, _) in layer.items()}
    return _finish(problems, [untraced, traced], metrics)


def _finish(problems: list[str], bodies: list, metrics: dict) -> int:
    """Report the checks that failed on standard error, print the result
    line and return the exit code: `problems` are the run's own, the bodies
    carry per-document ones."""
    problems = problems + [f"{doc}: {what}" for b in bodies for doc, what in b.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more", file=sys.stderr)
    failed = sum(b.failed for b in bodies)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(b.items for b in bodies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    import_ffrg()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and child.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
