"""Benchmark of simplexfem: certificates, eigensolves and a convergence sweep.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --trace 0|1        # every workload in turn
    python3 bench/run.py --smoke

A run repeats passes of one workload, each in a fresh process started from
``worker.py``, until ``--seconds`` is spent (at least two passes; a traced
run alternates untraced and traced passes).  With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json as medians over the passes; after
each pass it also starts a process that only sets up, and tops these up to
six set-up samples in all, so that ``setup_s`` is a median of six or more.
With ``--trace 1`` it reports the per-layer metrics as medians over the
traced passes, and writes the span dump and the per-layer self-time table
of the last traced pass to ``bench/out/``.  Every run also writes its
passes, factorisations and environment there.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same numbers for people, with the
workload's shape, the factorisations, the environment and ``fail_frac``.

BLAS threads are fixed to min(2, nproc) through ``FEM_THREADS``.

``--smoke`` runs every workload at a small size, checks that every metric
prints by name with its unit, and that a deliberately wrong reference value
is counted as a failure; it exits 0 when all of that holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("certify-poisson-2d", "certify-stokes-3d", "eigen-2d", "convergence-sine")
END_TO_END = {"wall_s": "s", "first_result_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 2
SETUP_SAMPLES = 6
# Once MIN_PASSES are done no pass is started that would end after
# LAST_START_S, and every process is killed at RUN_LIMIT_S, so that a run
# ends within 180 s even when --seconds is set higher.
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0


def blas_threads():
    return min(2, len(os.sched_getaffinity(0)))


def run_worker(args, t0, *flags):
    threads = str(blas_threads())
    env = dict(os.environ, FEM_THREADS=threads, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *flags]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - t0))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload}: worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args):
    """Passes of one workload until the time is spent, and the extra set-up
    samples of an untraced run."""
    passes, setups = [], []
    t0 = time.perf_counter()
    while True:
        spans = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_worker(args, t0, "--spans", str(int(spans))))
        if not args.trace:
            setups.append(run_worker(args, t0, "--setup-only")["setup_s"])
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > min(args.seconds, LAST_START_S):
            break
    while not args.trace and len(passes) + len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args, t0, "--setup-only")["setup_s"])
    return passes, setups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(args, passes, setups):
    untraced = [p for p in passes if not p["spans_on"]]
    traced = [p for p in passes if p["spans_on"]]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failed if not op["expected_failure"]]
    first = passes[0]

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"passes {len(passes)} ({len(traced)} traced)")
    print(f"shape {json.dumps(first['workload_shape'])}")
    print(f"env {json.dumps(first['env'])}")
    for f in first["factors"]:
        print(f"  factorisation n={f['n']} nnz={f['nnz']} lu_nnz={f['lu_nnz']} "
              f"fill={f['fill']:.2f}")
    for op in first["ops"]:
        state = "ok" if op["ok"] else ("FAILED (expected)" if op["expected_failure"]
                                       else "FAILED")
        print(f"  op {op['op']:<24} {op['end_s'] - op['start_s']:8.3f} s  {state}")
        for problem in op["problems"]:
            print(f"      {problem}")
    print(f"ops attempted {len(ops)}  failed {len(failed)}  "
          f"unexpected {len(unexpected)}")
    print(f"{'fail_frac':<32} {len(failed) / len(ops):12.6f} 1")

    table = None
    if args.trace:
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in untraced))
        units = {name: layer_unit(name) for name in metrics}
        table = layer_table(traced[-1])
        print(table, end="")
    else:
        samples = {name: [p[name] for p in untraced] for name in END_TO_END}
        samples["setup_s"] += setups
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        units = END_TO_END
    for name, value in metrics.items():
        line = f"{name:<32} {value:12.6g} {units[name]}"
        if not args.trace:
            lo, hi = quartiles(samples[name])
            line += f"  (median of {len(samples[name])}; quartiles {lo:.6g} .. {hi:.6g})"
        print(line)

    write_outputs(args, passes, setups, metrics, table)
    return {"correct": not unexpected, "attempted": len(ops), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def layer_table(traced_pass):
    """Self time per layer of one traced pass, with the time no span covers."""
    layers = traced_pass["layers"]
    total = traced_pass["traced_s"]
    lines = [f"self time by layer, last traced pass ({total:.3f} s traced, "
             f"set-up after imports included):"]
    rows = [(k[:-len(".busy_s")], v) for k, v in layers.items() if k.endswith(".busy_s")]
    for layer, busy in sorted(rows, key=lambda r: -r[1]):
        lines.append(f"  {layer:<14} {busy:9.3f} s  {100 * busy / total:5.1f} %")
    return "\n".join(lines) + "\n"


def write_outputs(args, passes, setups, metrics, table):
    """The run's record; with a layer table also the span dump of the last
    traced pass."""
    OUT.mkdir(exist_ok=True)
    stem = f"{OUT / args.workload}-seed{args.seed}"
    summary = {"args": vars(args), "metrics": metrics, "setup_only_s": setups,
               "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes]}
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    if table:
        traced = [p for p in passes if p["spans_on"]]
        Path(f"{stem}-spans.json").write_text(json.dumps(traced[-1]["spans"]))
        Path(f"{stem}-layers.txt").write_text(table)


def smoke():
    """Small instances of every workload; returns a list of problems."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    def invoke(workload, trace, *extra):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "smoke",
               *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S + 10)
        if proc.returncode != 0:
            problems.append(f"{workload} trace {trace}: exit {proc.returncode}: "
                            f"{proc.stderr[-500:]}")
            return None, ""
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]), "\n".join(lines[:-1])

    for workload in WORKLOADS:
        for trace in (0, 1):
            result, text = invoke(workload, trace)
            if result is None:
                continue
            where = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: correct {result['correct']}, "
                                f"failed {result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {got} differ from {wanted[trace]}")
            for name, unit in wanted[trace].items():
                if not any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
                           for line in text.splitlines()):
                    problems.append(f"{where}: no line prints {name} with unit {unit}")
    for workload in ("eigen-2d", "convergence-sine"):
        result, _ = invoke(workload, 0, "--corrupt-reference")
        if result is not None and (result["correct"] or result["failed"] != result["attempted"]):
            problems.append(f"{workload}: a wrong reference was not counted as a failure "
                            f"({result['failed']} of {result['attempted']} failed)")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="scale the reference values by 1 + 1e-3 (for --smoke)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "simplexfem").is_dir():
        raise SystemExit(f"no package sources under {ROOT / 'src'}")
    if args.smoke:
        problems = smoke()
        for problem in problems:
            print(problem)
        print("smoke:", "FAILED" if problems else "ok")
        raise SystemExit(1 if problems else 0)
    for workload in [args.workload] if args.workload else WORKLOADS:
        run_args = argparse.Namespace(**{**vars(args), "workload": workload})
        print(json.dumps(report(run_args, *run_passes(run_args))))


if __name__ == "__main__":
    main()
