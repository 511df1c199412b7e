"""Parent against change: a bench script measured on the source tree of a
parent commit and on the tree of a change.

Each measurement runs ``python <script> --child <mode> --src <tree>`` in a new
interpreter, which prints one JSON record.  Pair k runs the parent first when
k is even and the change first when k is odd, so a drift in the machine's
speed falls on both sides alike.  Costs of a few microseconds are too small
for that: between fresh interpreters, code neither side changed moved by
20-40%.  A script that times such costs also gives ``main`` an
``interleaved`` function, which one interpreter per pair runs with both
trees imported under separate package names (``load``), timing the two
sides in turns (``alternate``); its figures join each side's record of the
pair.  ``summarize`` reduces the records to each side's medians and the
pairs the change won; ``main`` is the command line both bench scripts
share.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# package names of the two trees in an interleaved run
PACKAGES = {"parent": "affine_riccati_parent", "change": "affine_riccati_change"}


def _child(script, src, mode, parent=None):
    cmd = [sys.executable, str(script), "--child", mode, "--src", str(src)]
    if parent is not None:
        cmd += ["--parent", str(parent)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run of {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def load(src, name):
    """The ``affine_riccati`` package of the tree ``src`` imported as the
    module ``name``; its modules import each other relatively, so two trees
    live side by side in one interpreter."""
    init = Path(src).resolve() / "affine_riccati" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def alternate(calls, rounds):
    """{side: seconds}, the minimum over ``rounds`` rounds of one call of
    each side's function; the sides take turns within a round, in the
    reverse order every other round."""
    best = dict.fromkeys(calls, float("inf"))
    order = list(calls)
    for k in range(rounds):
        for side in (order if k % 2 == 0 else order[::-1]):
            start = time.perf_counter()
            calls[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best


def run_pairs(script, parent, change, pairs, modes=("measure",), interleaved=False):
    """{"parent": [...], "change": [...]}, one record per pair and side: the
    record of the first mode, holding each further mode's record under the
    mode's name, and, with ``interleaved``, that side's figures of the
    pair's interleaved run.  Every mode, and the interleaved run, runs in
    its own interpreter."""
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
        if interleaved:
            both = _child(script, trees["change"], "interleaved", parent=trees["parent"])
            for side, records in runs.items():
                records[-1].update(both[side])
            print(f"{Path(script).stem}: pair {k + 1} interleaved done", file=sys.stderr,
                  flush=True)
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


def main(script, measures, digest, settings, pairs, pin=False, interleaved=None):
    """Command line of a bench script.

    ``measures`` maps each child mode to a function of the imported
    ``affine_riccati`` that returns the mode's record; the first mode's
    record holds the others.  ``interleaved``, when given, maps
    ``{"parent": package, "change": package}`` to ``{"parent": figures,
    "change": figures}``, measured in one interpreter.  With ``--child``
    the script measures one tree, or both with ``--child interleaved``
    (pinned to one CPU when ``pin``); otherwise it runs ``pairs`` pairs of
    ``--parent`` against ``--src`` and writes the records, ``settings`` and
    ``summarize(runs, digest)`` to ``--out`` (default ``BENCH_<script>.json``
    at the root of the repo).
    """
    modes = tuple(measures) + (("interleaved",) if interleaved else ())
    ap = argparse.ArgumentParser(description=sys.modules["__main__"].__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(REPO / "src"), help="src/ of the change")
    ap.add_argument("--parent", help="src/ of the parent commit")
    ap.add_argument("--commit", default=None, help="parent commit, recorded as given")
    ap.add_argument("--out", default=str(REPO / f"BENCH_{Path(script).stem}.json"),
                    help="output file")
    ap.add_argument("--child", choices=modes, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.child and pin:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.child == "interleaved":
        if not args.parent:
            ap.error("--parent is required")
        trees = {"parent": args.parent, "change": args.src}
        print(json.dumps(interleaved({side: load(tree, PACKAGES[side])
                                      for side, tree in trees.items()})))
        return 0
    if args.child:
        sys.path.insert(0, str(Path(args.src).resolve()))
        import affine_riccati as ar
        print(json.dumps(measures[args.child](ar)))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    runs = run_pairs(script, args.parent, args.src, pairs, tuple(measures),
                     interleaved=interleaved is not None)
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
