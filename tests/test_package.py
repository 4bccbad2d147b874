"""The package's public API: ``nlselect.__all__`` and the package namespace
name the same objects; and that only ``--effect-floor`` loads scipy."""

import json
import os
import subprocess
import sys
import types

import nlselect


def test_all_matches_public_names():
    missing = [name for name in nlselect.__all__ if not hasattr(nlselect, name)]
    assert missing == []
    public = {name for name, value in vars(nlselect).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(nlselect.__all__)
    assert len(nlselect.__all__) == len(set(nlselect.__all__))


# Runs nlselect commands in a fresh interpreter (this test session has already
# imported scipy) and prints, for the import and after each command, its exit
# code and the scipy modules loaded so far.
COLD_START = """
import json, sys
import nlselect, nlselect.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

steps = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    steps.append([" ".join(argv), cli.main(argv), scipy_modules()])
print(json.dumps(steps))
"""


def cold_start(tmp_path, commands):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(commands)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loads_only_for_effect_floor(tmp_path):
    without_scipy = [
        ["simulate", "--out", "g.csv", "--p", "5", "--n", "100", "--seed", "1"],
        ["simulate", "--out", "l.csv", "--p", "5", "--n", "100", "--seed", "2",
         "--family", "logistic"],
        ["simulate", "--out", "p.csv", "--p", "5", "--n", "100", "--seed", "3",
         "--family", "poisson"],
        ["fit", "--input", "g.csv", "--q", "2", "--out", "g.json"],
        ["fit", "--input", "g.csv", "--search", "--budget", "20", "--out", "gs.json"],
        ["fit", "--input", "l.csv", "--family", "logistic", "--q", "2", "--out", "l.json"],
        ["fit", "--input", "l.csv", "--family", "logistic", "--search", "--budget", "20",
         "--out", "ls.json"],
        ["fit", "--input", "p.csv", "--family", "poisson", "--q", "2", "--out", "p.json"],
        ["fit", "--input", "p.csv", "--family", "poisson", "--search", "--budget", "20",
         "--out", "ps.json"],
        ["study", "--study", "consistency", "--search", "--p", "5", "--q", "2",
         "--n-grid", "60,120", "--reps", "1", "--out", "cons"],
        ["study", "--study", "mle-rate", "--family", "poisson", "--p", "3",
         "--n-grid", "60,120", "--reps", "1", "--out", "pois"],
        ["study", "--study", "mode-rate", "--scalar", "--n-grid", "1000,10000",
         "--out", "scal"],
        ["density", "--verify", "--out", "dens.csv"],
    ]
    steps = cold_start(tmp_path, without_scipy)
    assert steps == [[label, 0, []] for label in ["import"] + [" ".join(a) for a in without_scipy]]

    [_, (_, code, loaded)] = cold_start(tmp_path, [
        ["density", "--effect-floor", "0.3", "--out", "floor.csv"]])
    assert code == 0 and "scipy.special" in loaded
