"""Benchmark worker: one fresh, single-threaded process.

Usage (from run.py): ``python3 perfbench/worker.py '<json config>'``.  The
config names the checkout root, workload, seed, work directory, seconds to
measure, the mode, and the CLOCK_MONOTONIC reading taken just before the
process was spawned.

Every mode imports ``nlselect.cli`` from the checkout and runs one discarded
warm-up op on input 0; ``setup_s`` ends there.  Then:

* ``setup``   -- report ``setup_s`` and exit.
* ``measure`` -- closed loop, one op at a time, in whole passes over all of
  the workload's inputs: as many as fit in ``seconds``, at least one.  Peak
  RSS is read when the loop ends.
  On the study, a counter on ``greedy_search`` alone (12 calls per op) reads
  how many models each op scored.
* ``trace``   -- whole passes over the first ``TRACE_INPUTS`` inputs:
  untraced for half the time (at least one pass), then with every layer
  wrapped (see tracer.py) for the other half (at least two passes, so every
  traced input repeats within the run).

Output checks run after the loop.  The warm-up op's files and every repeat
of an input must be byte-identical to that input's first output.  The result
is one JSON line on stdout.
"""

from __future__ import annotations

import json
import os
import sys
import time

TRACE_INPUTS = 4


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import nlselect.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: imported nlselect from {cli.__file__}, not {src}", file=sys.stderr)
        return 1

    import hashlib
    import resource
    import traceback

    import numpy
    import scipy

    import tracer as tracing
    from workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[cfg["workload"]]
    seed, work = cfg["seed"], cfg["work"]

    def outputs_of(k: int) -> list[str]:
        return [path for _, outs in wl.calls(work, seed, k) for path in outs]

    def read(k: int) -> list[bytes]:
        out = []
        for path in outputs_of(k):
            with open(path, "rb") as fh:
                out.append(fh.read())
        return out

    def digest(outputs: list[bytes]) -> str:
        return hashlib.sha256(b"".join(hashlib.sha256(o).digest() for o in outputs)).hexdigest()

    def run_op(k: int):
        """One op on input k: (start, wall seconds, output digest, error)."""
        for path in outputs_of(k):
            if os.path.exists(path):
                os.remove(path)
        error = None
        t0 = time.perf_counter()
        try:
            for argv, _ in wl.calls(work, seed, k):
                rc = cli.main(argv)
                if rc != 0:
                    error = f"exit code {rc} from nlselect {' '.join(argv)}"
                    break
        except Exception:  # an op that raises counts as failed; keep measuring
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        if error is None:
            try:
                return t0, dt, digest(read(k)), None
            except OSError as exc:
                error = f"output missing: {exc}"
        return t0, dt, None, error

    _, _, warm_digest, warm_error = run_op(0)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - cfg["t_spawn"]
    result = {"setup_s": setup_s, "errors": [warm_error] if warm_error else [],
              "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__}}
    if cfg["mode"] == "setup":
        result["failed"] = int(warm_error is not None)
        print(json.dumps(result))
        return 0

    ops: list[dict] = []
    # first output digest of each input, the warm-up op's included
    first: dict[int, str] = {0: warm_digest} if warm_digest else {}

    def loop(inputs: int, seconds: float, min_passes: int, tracer=None, counter=None) -> None:
        """Whole passes over inputs 0..inputs-1, one op each: at least
        ``min_passes``, then more while the next pass is expected to end
        within ``seconds``.  So every run measures each input equally often,
        whatever the program's speed."""
        start = time.perf_counter()
        passes = 0
        while passes < min_passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
            for k in range(inputs):
                for t in (tracer, counter):
                    if t:
                        t.reset()
                        t.op_id = len(ops)
                t0, dt, out_digest, error = run_op(k)
                op = {"k": k, "s": dt, "error": error, "traced": tracer is not None}
                if tracer:
                    tracer.spans.append((tracer.op_id, "op", t0, t0 + dt, None))
                    op["counts"], op["seconds"] = tracing.per_op_metrics(tracer)
                if counter:
                    op["models"] = counter.counts["modelspace.greedy_search.scored"]
                if out_digest is not None:
                    first.setdefault(k, out_digest)
                    op["same"] = out_digest == first[k]
                ops.append(op)
            passes += 1

    tracer = None
    if cfg["mode"] == "measure":
        counter = None
        if wl.count_models:
            counter = tracing.Tracer(only={"modelspace.greedy_search"})
            counter.install()
        try:
            loop(wl.inputs, cfg["seconds"], 1, counter=counter)
        finally:
            if counter:
                counter.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        loop(TRACE_INPUTS, cfg["seconds"] / 2.0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            loop(TRACE_INPUTS, cfg["seconds"] / 2.0, 2, tracer=tracer)
        finally:
            tracer.uninstall()

    # Output checks.  Every op on an input must match that input's first
    # output byte for byte; the files left on disk (from the input's last
    # op) then get the full check.  Malformed output fails the check.
    errors = result["errors"]
    summaries: dict[int, dict] = {}
    passed: set[int] = set()
    for k, want in sorted(first.items()):
        try:
            outputs = read(k)
            summaries[k] = wl.summarize(outputs)
            if digest(outputs) != want:
                raise CheckFailed("output on disk differs from the first op's bytes")
            wl.check(seed, k, outputs)
            passed.add(k)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"input {k}: {type(exc).__name__}: {exc}")
    for op in ops:
        op["failed"] = bool(op["error"]) or op["k"] not in passed or not op["same"]
        if op["error"]:
            errors.append(op["error"])
        elif not op["same"]:
            errors.append(f"input {op['k']}: output differs from the first op's bytes")

    for op in ops:
        del op["error"]
        op.pop("same", None)
        op.setdefault("models", summaries.get(op["k"], {}).get("models"))
    result.update({
        "ops": ops,
        "hits": sum(c["hits"] for c in summaries.values()),
        "trials": sum(c["trials"] for c in summaries.values()),
    })
    if tracer is not None:
        # op and fit_model spans, written once the measuring is over
        path = os.path.join(work, "spans.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, name, t0, t1, parent in tracer.spans:
                fh.write(json.dumps({"op": op_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
        result["spans"] = {"path": os.path.relpath(path, cfg["root"]),
                           "count": len(tracer.spans)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
