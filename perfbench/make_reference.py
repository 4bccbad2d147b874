"""Add the seed commit's results to ``ref/<workload>.json``: for every input
of the given run seeds, the record of output fields that the benchmark
compares later commits against (see ``record`` in workloads.py).

    python3 perfbench/make_reference.py --seeds 0:16 [WORKLOAD ...]

Run it from the root of a checkout; it uses that checkout's ``src/``.  With
no workload named it does all of them.  The stored records were made at the
seed commit of this repository.  Add records only from a commit whose results
are meant to match that one: every output must pass its checks, against the
records already stored too, before it is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import nlselect.cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first:last run seed, last excluded")
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS),
                        help=f"any of {', '.join(sorted(WORKLOADS))}")
    args = parser.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workload {', '.join(sorted(unknown))}")
    first, last = (int(v) for v in args.seeds.split(":"))
    for name in args.workloads:
        wl = WORKLOADS[name]
        doc = {"runs": {}}
        if os.path.exists(wl.ref_path()):
            with open(wl.ref_path(), encoding="utf-8") as fh:
                doc = json.load(fh)
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            for seed in range(first, last):
                wl.prepare(tmp, seed)
                records = []
                for k in range(wl.inputs):
                    outputs = []
                    for argv, outs in wl.calls(tmp, seed, k):
                        if cli.main(argv) != 0:
                            raise SystemExit(f"nlselect failed: {' '.join(argv)}")
                        for path in outs:
                            with open(path, "rb") as fh:
                                outputs.append(fh.read())
                    wl.check(seed, k, outputs)
                    records.append(wl.record(seed, k, outputs))
                doc["runs"][str(seed)] = records
                print(f"{name}: run seed {seed} done", file=sys.stderr)
        doc["argv"] = [argv for argv, _ in wl.calls("<work>", 0, 0)]
        doc["runs"] = dict(sorted(doc["runs"].items(), key=lambda kv: int(kv[0])))
        with open(wl.ref_path(), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
