"""End-to-end and per-layer benchmark of the speclust CLI.

    python3 bench/run.py --workload cluster-dense --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

Run from a speclust checkout; the package is imported from its `src/`.

Each workload is a closed loop: one client in one process, BLAS threads
pinned to 1. An op is one in-process call of `speclust.cli.main(argv)` on a
CSV generated from `--seed` and written before the op's timer starts; the
timer covers argument parsing, loading, every stage and the artifact writes.
Artifacts are checked against an independent oracle (workloads.py) after the
timer stops, and their sha256 digests are printed. Op i of a run with a given
seed always gets the same input. A new op starts only while the loop is
expected to finish within `--seconds`. Reported times are corrected to a
nominal host speed with a reference kernel timed between ops (speed.py);
raw wall times are printed next to them.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs every op twice,
untraced and traced, in alternating order; it reports the per-layer metrics
from the traced ops (spans.py), checks that both produce the same artifact
digests, and writes the spans as JSON lines under bench/.work/.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, median_stats, op_layer_stats
from speed import SpeedProbe
from workloads import WORKLOADS, make_op, write_points

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 9
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import numpy, speclust\n"
    "speclust.eig_symmetric(numpy.eye(3))\n"
    "print(repr(time.perf_counter() - t))\n"
)
TAIL_BEYOND = 10  # the tail percentile has at least this many ops above it


def import_cli():
    """speclust.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "speclust" / "__init__.py").is_file():
        raise SystemExit(f"error: no speclust package under {SRC}; run from a speclust checkout")
    sys.path.insert(0, str(SRC))
    import speclust.cli

    if Path(speclust.cli.__file__).resolve().parent != SRC / "speclust":
        raise SystemExit(f"error: imported speclust from {speclust.cli.__file__}, not {SRC}")
    return speclust.cli


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def measure_setup() -> list[float]:
    """Seconds to import speclust and make a first eig_symmetric call, each in a
    fresh process, at nominal host speed (speed.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = SpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) * probe.factor())
    return times


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(cli, workload: str, seed: int, i: int, tiny: bool, tracer=None) -> dict:
    """Generate op i, time one CLI call on it, then check and digest its artifacts."""
    op = make_op(workload, seed, i, tiny)
    op_dir = WORK / "op"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    csv_path, out = op_dir / "points.csv", op_dir / "out"
    write_points(op.points, csv_path)
    argv = [op.args[0], "--input", str(csv_path), *op.args[1:], "--out", str(out)]

    captured = io.StringIO()
    problems = []
    if tracer is not None:
        tracer.install(i)
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the loop must go on; the failure is recorded
                rc = None
                problems.append(traceback.format_exc(limit=-3).strip())
            t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()

    if rc != 0:
        problems.append(f"exit code {rc}: {captured.getvalue().strip()[-400:]}")
    else:
        try:
            problems += op.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"artifact check raised {type(exc).__name__}: {exc}")
    digests = {p.name: _sha256(p) for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {
        "op": i, "traced": tracer is not None, "n": op.n, "args": list(op.args),
        "wall_s": t1 - t0, "problems": problems, "digests": digests,
    }


def run_loop(cli, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Closed loop of ops (pairs of untraced and traced ops with trace on).

    Each record's `seconds` is its `wall_s` scaled by `speed` to nominal host
    speed (speed.py).
    """
    tracer = Tracer() if trace else None
    records = []
    start = time.perf_counter()
    probe = SpeedProbe()
    i = 0
    while True:
        order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        for tracing in order:
            r = run_op(cli, workload, seed, i, tiny, tracer if tracing else None)
            r["speed"] = probe.factor()
            r["seconds"] = r["wall_s"] * r["speed"]
            records.append(r)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds:
            return records, tracer


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it.

    With too few ops for that, the minimum, which has the most ops above it.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    times = [r["seconds"] for r in records]
    tail_value, tail_pct = tail(times)
    beyond = sum(t > tail_value for t in times)
    failed = sum(bool(r["problems"]) for r in records)
    metrics = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_value, "s"),
        "points_per_s": (sum(r["n"] for r in records) / sum(times), "points/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    wall = statistics.median(r["wall_s"] for r in records)
    speed = statistics.median(r["speed"] for r in records)
    notes = {
        "op_s.p50": f"wall {wall:.6g} s, median speed factor {speed:.4g}",
        "op_s.tail": f"p{tail_pct:.1f} of {len(times)} ops, {beyond} beyond",
        "setup_s": f"median of {len(setup)} fresh processes",
    }
    lines = [f"{k:<14} {v:.6g} {u}  {notes.get(k, '')}".rstrip() for k, (v, u) in metrics.items()]
    lines.append(f"{'fail_ratio':<14} {failed / len(records):.6g}  {failed} of {len(records)} ops")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


LAYER_UNITS = {"calls": "count", "sweeps": "count", "max_residual": "norm", "edges": "count",
               "components": "count", "csv_bytes": "bytes", "kmeans_calls": "count",
               "lloyd_iters": "count"}


def per_layer(records: list[dict], tracer: Tracer) -> tuple[dict, list[str], list[str]]:
    """Per-layer medians over the traced ops, plus digest mismatches between the twins."""
    traced = [r for r in records if r["traced"]]
    plain = {r["op"]: r for r in records if not r["traced"]}
    by_op = {}
    for span in tracer.spans:
        by_op.setdefault(span["op"], []).append(span)
    per_op = []
    for r in traced:
        stats = op_layer_stats(by_op.get(r["op"], []), tracer.has_sweep_kernel)
        for k in stats:
            if k.endswith(".self_s"):
                stats[k] *= r["speed"]
        layer_sum = sum(v for k, v in stats.items() if k.endswith(".self_s"))
        stats["trace.unattributed_s"] = r["seconds"] - layer_sum
        per_op.append(stats)
    medians = median_stats(per_op)
    medians["trace.overhead_s"] = (
        statistics.median(r["seconds"] for r in traced)
        - statistics.median(r["seconds"] for r in plain.values())
    )
    metrics = {
        k: {"value": v, "unit": LAYER_UNITS.get(k.split(".", 1)[1], "s")}
        for k, v in medians.items()
    }
    lines = [f"{k:<22} {m['value'] if m['value'] is None else format(m['value'], '.6g')} {m['unit']}"
             for k, m in metrics.items()]
    mismatched = [f"op {r['op']}: traced digests differ from untraced"
                  for r in traced if r["digests"] != plain[r["op"]]["digests"]]
    return metrics, lines, mismatched


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; print a readable report and return the result object."""
    env = environment()
    setup = [] if trace else measure_setup()
    records, tracer = run_loop(cli, workload, seed, seconds, trace, tiny)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  ops {len(records)}")
    print("env " + json.dumps(env, sort_keys=True))
    for r in records:
        combined = hashlib.sha256(json.dumps(r["digests"], sort_keys=True).encode()).hexdigest()
        status = "ok" if not r["problems"] else "FAILED " + " | ".join(r["problems"])
        print(f"op {r['op']:3d} {'traced ' if r['traced'] else 'plain  '}n={r['n']:<4d} "
              f"{r['seconds']:.4f} s (wall {r['wall_s']:.4f} s)  sha256 {combined}  {status}")

    problems = [f"op {r['op']}: {p}" for r in records for p in r["problems"]]
    if trace:
        metrics, lines, mismatched = per_layer(records, tracer)
        problems += mismatched
        tracer.write_jsonl(WORK / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics, lines = end_to_end(records, setup)
    for line in lines:
        print(line)
    for p in problems:
        print("problem: " + p)

    failed = sum(bool(r["problems"]) for r in records)
    result = {"correct": not problems, "attempted": len(records), "failed": failed, "metrics": metrics}
    (WORK / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"env": env, "setup_s": setup, "ops": records, **result}, indent=1) + "\n",
        encoding="utf-8",
    )
    shutil.rmtree(WORK / "op", ignore_errors=True)
    return result


def smoke(cli) -> int:
    """Each workload at a tiny n for one op, untraced and traced.

    Fails unless every metric BENCHMARK.json names is emitted as a number and
    every check passes, including equal digests of traced and untraced runs.
    """
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    failures = []
    for workload in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(cli, workload, 0, 0.0, trace, tiny=True)
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {int(trace)}: checks failed")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or not isinstance(got["value"], (int, float)):
                    failures.append(f"{workload} trace {int(trace)}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    failures.append(f"{workload}: {metric['name']} unit {got['unit']}, "
                                    f"expected {metric['unit']}")
    for f in failures:
        print("smoke: " + f, file=sys.stderr)
    print("smoke " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one op each; self-test")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    cli = import_cli()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke(cli)
    result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
