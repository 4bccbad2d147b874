"""nlselect benchmark: one workload, one run, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is the checkout's own
``src/nlselect``; ops call ``nlselect.cli.main`` in-process, one at a time,
in fresh worker processes started one after another, each with one BLAS /
OpenMP thread and ``NLSELECT_THREADS`` unset.

``--trace 0`` starts ``SETUP_RUNS`` workers; each times its set-up (process
start, import of ``nlselect.cli``, one discarded warm-up op) and the last one
then measures whole passes over the workload's inputs, as many as fit in
``--seconds`` and at least one.  It prints the end-to-end metrics.
``--trace 1`` starts one worker that measures untraced, then traced ops, and
prints the per-layer metrics and the tracing overhead; its exact counts must
repeat op to op and run to run (the last run's counts for the same seed and
sources are kept under ``.perfbench_work/counts``).

Every op's output is checked.  Lines before the last give the run's details
and environment; the last line is the result JSON.  Inputs, outputs and
result records go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_RUNS = 3
DEADLINE_S = 170.0
# p90 is reported only with at least this many ops beyond it
TAIL_SAMPLES = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("NLSELECT_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(mode: str, args, work: str, deadline: float) -> dict:
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    cfg = {"root": ROOT, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "mode": mode, "work": work, "t_spawn": t_spawn}
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def _environment(worker_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, **worker_env, "blas_threads": 1, "workers": 1}


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "nlselect", "*.py"))
                       + [os.path.join(HERE, "tracer.py")]):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _check_counts_repeat(args, by_input: dict) -> list[str]:
    """Exact counts must be equal for every traced op on one input, and equal
    to the last run of the same seed on the same sources."""
    errors = [f"input {k}: traced op counts {c} differ from {runs[0]}"
              for k, runs in by_input.items() for c in runs[1:] if c != runs[0]]
    now = {str(k): runs[0] for k, runs in sorted(by_input.items())}
    path = os.path.join(WORK, "counts", f"{args.workload}-s{args.seed}-{_source_hash()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        for k in sorted(set(before) & set(now)):
            diff = {m: (before[k].get(m), v) for m, v in now[k].items() if before[k].get(m) != v}
            if diff:
                errors.append(f"input {k}: counts differ from the previous run of this seed "
                              f"(before, now): {diff}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(now, fh, sort_keys=True)
    return errors


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "nlselect", "cli.py")):
        raise BenchError(f"no nlselect sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    WORKLOADS[args.workload].prepare(work, args.seed)

    if args.trace:
        res = _spawn("trace", args, work, deadline)
        setups = []
    else:
        setups = [_spawn("setup", args, work, deadline) for _ in range(SETUP_RUNS - 1)]
        res = _spawn("measure", args, work, deadline)
    errors = [e for s in setups for e in s["errors"]] + res["errors"]
    ops = res["ops"]
    untraced = [op for op in ops if not op["traced"]]
    failed = sum(op["failed"] for op in ops) + sum(s["failed"] for s in setups)
    attempted = len(ops) + len(setups)
    op_s = [op["s"] for op in untraced]
    top_hit_rate = res["hits"] / res["trials"] if res["trials"] else None
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": _environment(res["env"]),
        "ops": len(op_s), "inputs_per_run": WORKLOADS[args.workload].inputs,
        "fail_frac": failed / attempted,
        "top_hit_rate": top_hit_rate,
        "op_s_p90": (statistics.quantiles(op_s, n=10)[-1]
                     if len(op_s) >= 10 * TAIL_SAMPLES else None),
        "errors": errors,
    }
    rates = [op["models"] / op["s"] for op in untraced if op["models"]]
    if top_hit_rate is None or not (rates or args.trace):
        raise BenchError("no op's output could be read: " + "; ".join(errors)[:2000])
    if not args.trace:
        metrics = {
            "op_s_p50": _metric(statistics.median(op_s), "s"),
            "models_per_s": _metric(statistics.median(rates), "1/s"),
            "setup_s": _metric(statistics.median(
                [s["setup_s"] for s in setups] + [res["setup_s"]]), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "top_hit_rate": _metric(top_hit_rate, "share"),
        }
    else:
        traced = [op for op in ops if op["traced"]]
        by_input: dict[int, list[dict]] = {}
        for op in traced:
            by_input.setdefault(op["k"], []).append(op["counts"])
        errors += _check_counts_repeat(args, by_input)
        # counts per op: the mean over one pass of the traced inputs
        first_pass = [runs[0] for _, runs in sorted(by_input.items())]
        metrics = {name: _metric(sum(c[name] for c in first_pass) / len(first_pass), "count")
                   for name in first_pass[0]}
        traced_p50 = statistics.median(op["s"] for op in traced)
        for name in traced[0]["seconds"]:
            metrics[name] = _metric(statistics.median(op["seconds"][name] for op in traced), "s")
        metrics.update({
            "trace.untraced_op_s_p50": _metric(statistics.median(op_s), "s"),
            "trace.traced_op_s_p50": _metric(traced_p50, "s"),
            "trace.overhead_s": _metric(traced_p50 - statistics.median(op_s), "s"),
        })
        details["spans"] = res["spans"]
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return details, result, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        details, result, ops = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = os.path.join(WORK, "results",
                          f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result,
                   "ops": [{k: op[k] for k in ("k", "s", "failed", "traced", "models")}
                           for op in ops]}, fh, indent=1, sort_keys=True)
    for err in details["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
