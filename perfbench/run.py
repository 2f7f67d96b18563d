"""Layered serving benchmark: each workload as a series of fresh processes.

Run from the root of a checkout::

    python3 perfbench/run.py                  # every workload, untraced
    python3 perfbench/run.py --trace 1        # every workload, traced pass
    python3 perfbench/run.py --workload serve_mixed --seed 3 --seconds 20

One run of a workload starts child processes (``child.py``) one at a
time — a closed loop with one client — until ``--seconds`` are used,
and never fewer than ``MIN_UNTRACED`` (or, traced, one untraced plus
one traced child). Each child pays the set-up a fresh ``repro serve``
pays, runs the workload's public calls once, records its own CPU time
and peak RSS, and checks its outputs; the parent checks that every
child of the seed produced the same report digest, and prints
the median and quartiles of each metric. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from layers import WORKLOAD_ONLY_TIMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Everything a run does must end well inside 180 s.
RUN_BUDGET_S = 165.0
MIN_UNTRACED = 3


def provenance(seed: int) -> dict:
    """Host fingerprint, commit and seed, stored with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def run_child(workload: str, seed: int, traced: bool, workdir: Path,
              timeout_s: float, spans: Path | None = None) -> dict:
    """One fresh process; returns its result with ``failures`` filled.
    A traced child writes its spans to ``spans`` when one is given."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    spawn_t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--traced", str(int(traced)), "--workdir", str(workdir),
           "--spawn-t0", repr(spawn_t0)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(workdir / "stdout.txt", "wb") as out, \
            open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=env)
    timed_out = False
    try:
        proc.wait(timeout=max(0.0, spawn_t0 + timeout_s - time.monotonic()))
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        # Timed out or interrupted while waiting: leave no child behind.
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    code = proc.returncode
    child = {"traced": traced}
    result_file = workdir / "result.json"
    if code == 0 and result_file.is_file():
        child.update(json.loads(result_file.read_text()))
    else:
        stderr = (workdir / "stderr.txt").read_text(errors="replace")
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        reason = "timed out" if timed_out else f"exit code {code}"
        child["failures"] = [f"{reason}: {tail}"]
    trace_artifact = child.get("artifacts", {}).get("trace")
    if trace_artifact:
        child["failures"] += _check_trace(trace_artifact, env, max(
            10.0, spawn_t0 + timeout_s - time.monotonic()))
    shutil.rmtree(workdir, ignore_errors=True)
    # The whole cycle, checks included: the run's stop rule plans with it.
    child["duration_s"] = time.monotonic() - spawn_t0
    return child


def _check_trace(path: str, env: dict, timeout_s: float) -> list[str]:
    """Validate an exported Chrome trace in its own process (see the
    ``__main__`` block of ``checks.py``)."""
    try:
        check = subprocess.run(
            [sys.executable, str(BENCH_DIR / "checks.py"), path],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return ["chrome trace check timed out"]
    if check.returncode == 0:
        return []
    return check.stdout.split("\n")[:-1] or [
        f"chrome trace check exited {check.returncode}: "
        f"{check.stderr.strip()[-200:]}"]


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """All child processes of one run, until ``seconds`` are used."""
    run_dir = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    start = time.monotonic()
    children: list[dict] = []
    min_children = 2 if trace else MIN_UNTRACED
    # A traced run alternates untraced and traced children and stops
    # only after a traced one.
    per_step = 2 if trace else 1
    while True:
        elapsed = time.monotonic() - start
        k = len(children)
        est = (statistics.median(c["duration_s"] for c in children)
               if children else 0.0)
        if k >= min_children and k % per_step == 0 \
                and elapsed + per_step * est > seconds:
            break
        if k and elapsed + est > RUN_BUDGET_S:
            break
        traced = trace and k % 2 == 1
        children.append(run_child(
            workload, seed, traced, run_dir / f"child{k}",
            RUN_BUDGET_S - elapsed,
            # One span file per run keeps the output directory small.
            spans=run_dir / "spans.json.gz" if traced and k == 1 else None))

    # Every child of one seed must produce the same report bytes,
    # traced or not.
    digests = Counter(c["digest"] for c in children if "digest" in c)
    digest = digests.most_common(1)[0][0] if digests else None
    for child in children:
        if "digest" in child and child["digest"] != digest:
            child["failures"].append(
                f"determinism: digest {child['digest'][:12]} != "
                f"{digest[:12]} of the other runs")
    return {"workload": workload, "seconds": seconds,
            "elapsed_s": time.monotonic() - start,
            "provenance": provenance(seed), "digest": digest,
            "children": children, "run_dir": str(run_dir)}


def _stats(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(run: dict, metrics: list[dict], traced: bool) -> dict:
    """Per metric, median and quartiles over the run's children that
    finished (a failed check flags the run but keeps its sample)."""
    finished = [c for c in run["children"]
                if "wall_s" in c and c["traced"] == traced]
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = [(c["layers"] if traced else c)[name] for c in finished]
        if values:
            out[name] = {**_stats(values), "unit": metric["unit"],
                         "better": metric["better"]}
    return out


def _print_table(title: str, stats: dict) -> None:
    print(title)
    print(f"  {'metric':<28}{'unit':<8}{'median':>14}{'q1':>14}"
          f"{'q3':>14}{'n':>4}  better")
    for name, s in stats.items():
        print(f"  {name:<28}{s['unit']:<8}{s['median']:>14.6g}"
              f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>4}  {s['better']}")


def report(run: dict, bench: dict, trace: bool) -> dict | None:
    """Print the run's tables and return the contract's result object
    (``None`` when no child produced a usable result)."""
    children = run["children"]
    attempted = len(children)
    failed = sum(1 for c in children if c["failures"])
    e2e = summarize(run, bench["end_to_end"], traced=False)
    printed_layers = bench["per_layer"] + [
        {"name": name, "unit": "s", "better": "lower"}
        for name in WORKLOAD_ONLY_TIMES]
    layers = summarize(run, printed_layers, traced=True) if trace else {}
    prov = run["provenance"]
    print(f"== {run['workload']}  seed {prov['seed']}  trace {int(trace)}: "
          f"{attempted} runs, {failed} failed, {run['elapsed_s']:.1f} s ==")
    print(f"  host: python {prov['python']}, numpy {prov['numpy']}, "
          f"nproc {prov['nproc']}, cpu {prov['cpu']}; "
          f"commit {prov['commit']}")
    _print_table("end to end (untraced runs)", e2e)
    print(f"  {'failed_runs_pct':<28}{'%':<8}"
          f"{100.0 * failed / max(attempted, 1):>14.6g}"
          f"{'':>28}{attempted:>4}  lower")
    print(f"  report digest {run['digest']}")
    for i, child in enumerate(children):
        for failure in child["failures"]:
            print(f"  FAILED run {i}: {failure}")
    if trace:
        _print_table("per layer (traced runs; *_s are self times)", layers)
        traced_wall = [c["wall_s"] for c in children
                       if c["traced"] and "wall_s" in c]
        if traced_wall and "wall_s" in e2e:
            base = e2e["wall_s"]["median"]
            extra = statistics.median(traced_wall) - base
            print(f"  tracing overhead: traced wall_s - untraced wall_s = "
                  f"{extra:.4f} s ({100.0 * extra / base:+.1f}%)")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    stats = layers if trace else e2e
    if any(m["name"] not in stats for m in wanted):
        return None
    Path(run["run_dir"], "result.json").write_text(json.dumps(
        {**run, "end_to_end": e2e, "per_layer": layers}, indent=1))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": stats[m["name"]]["median"],
                                "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"error: {spec_file.name} not found", file=sys.stderr)
        return 2
    bench = json.loads(spec_file.read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else bench["run_seconds"])
    # Bytecode once, up front, so no child pays it inside set-up.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)

    status = 0
    for name in names:
        run = run_workload(name, args.seed, seconds, bool(args.trace))
        result = report(run, bench, bool(args.trace))
        if result is None:
            print(f"error: {name}: no run produced every metric",
                  file=sys.stderr)
            status = 1
            continue
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
