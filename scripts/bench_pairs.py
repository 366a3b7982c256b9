"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --out BENCH.json [--parent REV]
        [WORKLOAD[:PAIRS] ...]

The parent revision (default ``HEAD``) is extracted with ``git archive`` into
a temporary directory.  For each workload and each of the seeds 1608 and
4549, ``perfbench/run.py`` then runs PAIRS times (default 10) on each side,
one run at a time, alternating sides; the side that goes first alternates
from pair to pair, so a slow spell of the host does not fall on one side
only.  Both sides run their own copy of ``perfbench/``, which must be the
same files on both, at its own default run length.

The output file holds every run's end-to-end line (the human-readable line
and the JSON result that ``perfbench/run.py`` prints last), each run's
per-process figures (one list per workload process, from the run's results
record, in the order ``process_fields`` names: its tag, ``setup_s``,
``wall_s``, ``reps_per_s``, ``peak_rss_mb`` and ``failed``) and, for each
workload, seed and end-to-end metric, each side's median and quartiles and
the number of pairs the working tree won.  ``process_setup_s`` gives each
side's median over runs of the run's median ``setup_s`` over its processes:
a run reports its slowest process, so one process the host delays decides
its ``setup_s``.  It is indented by one space per
level, with every list of numbers and strings on one line.  Standard library
only; nothing is read from the network.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900
SEEDS = (1608, 4549)
PROCESS_FIELDS = ("tag", "setup_s", "wall_s", "reps_per_s", "peak_rss_mb", "failed")


def extract_revision(rev: str, dest: str) -> str:
    """Write the files of ``rev`` under ``dest``; return its full hash."""
    full = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", "--prefix=parent/", full],
                               cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not extract {full} under {dest}")
    return full


def same_bench_files(a: str, b: str) -> bool:
    """True when both trees hold byte-identical ``perfbench/`` files."""
    def files(root):
        base = os.path.join(root, "perfbench")
        return sorted(f for f in os.listdir(base) if f.endswith((".py", ".json")))

    if files(a) != files(b):
        return False
    for name in files(a):
        with open(os.path.join(a, "perfbench", name), "rb") as fa, \
                open(os.path.join(b, "perfbench", name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run; its end-to-end line, JSON result and
    per-process figures (a list in ``PROCESS_FIELDS`` order per process).

    The per-process figures come from the run's record in
    ``<tree>/.perfbench/results/``, read right away: the next run on the
    same tree overwrites it, and the parent tree is deleted at the end."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    failed = {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    if proc.returncode != 0 or not lines:
        return failed
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {**failed, "stdout": proc.stdout[-2000:]}
    line = next((s for s in lines if s.startswith(f"{workload} seed=")), None)
    record = os.path.join(tree, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    try:
        with open(record, encoding="utf-8") as fh:
            processes = [[p[f] for f in PROCESS_FIELDS] for p in json.load(fh)["processes"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        processes = f"unreadable: {exc}"
    return {"exit_code": 0, "line": line, "result": result, "processes": processes}


def to_json(obj, indent: str = "") -> str:
    """``obj`` as JSON with sorted keys, indented by one space per level,
    except that a list or dict holding no list or dict is written on one line."""
    inner = indent + " "
    if isinstance(obj, dict) and any(isinstance(v, (dict, list)) for v in obj.values()):
        items = [f"{inner}{json.dumps(k)}: {to_json(v, inner)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        return "[\n" + ",\n".join(inner + to_json(v, inner) for v in obj) + f"\n{indent}]"
    return json.dumps(obj, sort_keys=True)


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def process_median(run: dict, field: str):
    """Median over a run's processes of one per-process figure, or None when
    the run has no readable process list."""
    processes = run.get("processes")
    if not isinstance(processes, list) or not processes:
        return None
    i = PROCESS_FIELDS.index(field)
    return statistics.median(p[i] for p in processes)


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and pairs won; and each
    side's median over runs of the per-process median ``setup_s``."""
    out = {}
    ok = [p for p in pairs if p["parent"].get("result") and p["change"].get("result")]
    if not ok:
        return out
    for key, direction in better.items():
        par = [p["parent"]["result"]["metrics"][key]["value"] for p in ok]
        chg = [p["change"]["result"]["metrics"][key]["value"] for p in ok]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        losses = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        q_par, q_chg = quartiles(par), quartiles(chg)
        out[key] = {
            "better": direction,
            "parent_median": statistics.median(par),
            "parent_quartiles": [q_par[0], q_par[2]],
            "change_median": statistics.median(chg),
            "change_quartiles": [q_chg[0], q_chg[2]],
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(ok),
        }
    per_process = {}
    for side in ("parent", "change"):
        medians = [process_median(p[side], "setup_s") for p in ok]
        medians = [m for m in medians if m is not None]
        if medians:
            per_process[f"{side}_median"] = statistics.median(medians)
            per_process[f"{side}_runs"] = len(medians)
    out["process_setup_s"] = per_process
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("runs", nargs="*", metavar="WORKLOAD[:PAIRS]",
                        help="workloads and pairs per seed (default: all, 10 pairs)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    known = [w["name"] for w in spec["workloads"]]
    pairs_for = {}
    for item in args.runs or known:
        name, _, count = item.partition(":")
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {known}")
        if count and not (count.isdigit() and int(count) > 0):
            parser.error(f"pairs must be a positive integer in {item!r}")
        pairs_for[name] = int(count or 10)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_rev = extract_revision(args.parent, tmp)
        parent_tree = os.path.join(tmp, "parent")
        if not same_bench_files(parent_tree, ROOT):
            print("perfbench/ differs between the parent and the working tree",
                  file=sys.stderr)
            return 2
        trees = {"parent": parent_tree, "change": ROOT}
        report = {"parent": parent_rev, "run_seconds": spec["run_seconds"],
                  "process_fields": list(PROCESS_FIELDS), "workloads": {}}
        k = 0
        for workload, n_pairs in pairs_for.items():
            per_seed = {}
            for seed in SEEDS:
                pairs = []
                for i in range(n_pairs):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    k += 1
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(trees[side], workload, seed)
                        print(f"{time.strftime('%H:%M:%S')} {workload} seed={seed} "
                              f"pair {i + 1} {side}: "
                              f"{pair[side].get('line') or pair[side]}", flush=True)
                    pairs.append(pair)
                per_seed[str(seed)] = {"runs": pairs, "summary": summarize(pairs, better)}
                report["workloads"][workload] = per_seed
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(to_json(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
