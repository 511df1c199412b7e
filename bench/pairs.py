"""Alternating fresh-interpreter pairs: a bench script measured on the source
tree of a parent commit and on the tree of a change.

Each measurement runs ``python <script> --child <mode> --src <tree>`` in a new
interpreter, which prints one JSON record.  Pair k runs the parent first when
k is even and the change first when k is odd, so a drift in the machine's
speed falls on both sides alike.  ``summarize`` reduces the records to each
side's medians and the pairs the change won; ``main`` is the command line
both bench scripts share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _child(script, src, mode):
    cmd = [sys.executable, str(script), "--child", mode, "--src", str(src)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run of {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_pairs(script, parent, change, pairs, modes=("measure",)):
    """{"parent": [...], "change": [...]}, one record per pair and side: the
    record of the first mode, holding each further mode's record under the
    mode's name.  Every mode runs in its own interpreter."""
    trees = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    for tree in trees.values():
        if not (tree / "affine_riccati" / "__init__.py").is_file():
            raise SystemExit(f"no affine_riccati package under {tree}")
    runs = {"parent": [], "change": []}
    for k in range(pairs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            record = _child(script, trees[side], modes[0])
            for mode in modes[1:]:
                record[mode] = _child(script, trees[side], mode)
            runs[side].append(record)
            print(f"{Path(script).stem}: pair {k + 1} {side} done", file=sys.stderr, flush=True)
    return runs


def _flat(record, prefix=""):
    """Numeric leaves of a record, keyed by their path."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}{key}"] = value
    return out


def summarize(runs, digest):
    """Each side's medians, the parent's quartiles, the change/parent ratios
    of the medians, the pairs the change won (lower is better) and, for each
    named digest of the dict ``digest(record)``, whether it is the same for
    every record."""
    flat = {side: [_flat(r) for r in recs] for side, recs in runs.items()}
    medians = {side: {k: statistics.median(r[k] for r in recs) for k in recs[0]}
               for side, recs in flat.items()}
    parent, change = medians["parent"], medians["change"]
    won = {k: sum(c[k] < p[k] for p, c in zip(flat["parent"], flat["change"])) for k in parent}
    q = {k: statistics.quantiles([r[k] for r in flat["parent"]], n=4) for k in parent} \
        if len(flat["parent"]) > 1 else {}
    digests = [digest(r) for side in runs for r in runs[side]]
    return {
        "pairs": len(flat["parent"]),
        "median": medians,
        "parent_quartiles": {k: [v[0], v[2]] for k, v in q.items()},
        "change_over_parent": {k: change[k] / parent[k] for k in parent if parent[k]},
        "pairs_won_by_change": won,
        "identical": {name: all(d[name] == digests[0][name] for d in digests)
                      for name in digests[0]},
    }


def main(script, measures, digest, settings, pairs, pin=False):
    """Command line of a bench script.

    ``measures`` maps each child mode to a function of the imported
    ``affine_riccati`` that returns the mode's record; the first mode's
    record holds the others.  With ``--child`` the script measures one tree
    (pinned to one CPU when ``pin``); otherwise it runs ``pairs`` pairs of
    ``--parent`` against ``--src`` and writes the records, ``settings`` and
    ``summarize(runs, digest)`` to ``--out`` (default ``BENCH_<script>.json``
    at the root of the repo).
    """
    ap = argparse.ArgumentParser(description=sys.modules["__main__"].__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(REPO / "src"), help="src/ of the change")
    ap.add_argument("--parent", help="src/ of the parent commit")
    ap.add_argument("--commit", default=None, help="parent commit, recorded as given")
    ap.add_argument("--out", default=str(REPO / f"BENCH_{Path(script).stem}.json"),
                    help="output file")
    ap.add_argument("--child", choices=tuple(measures), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.child:
        sys.path.insert(0, str(Path(args.src).resolve()))
        if pin:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        import affine_riccati as ar
        print(json.dumps(measures[args.child](ar)))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    runs = run_pairs(script, args.parent, args.src, pairs, tuple(measures))
    import numpy as np
    import scipy

    doc = {
        "machine": {"cpu": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
                    "pinned_cpus": 1 if pin else None, "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "settings": {**settings, "pairs": pairs, "parent_commit": args.commit},
        "runs": runs,
        "summary": summarize(runs, digest),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["summary"], indent=2))
    return 0
