"""Output bytes of a parent revision against the working tree.

    python3 scripts/csv_matrix.py [--parent REV]

The parent revision (default ``HEAD``) is extracted with ``git archive`` into
a temporary directory.  On each side, ``lilmax simulate`` runs 17 configs,
each into its own output directory, at ``--seed 1608 --set
experiment.replications=12``: the four bundled configs, ``gaussian_d1.ini``
in feller mode with ``sqrt_n``, ``rademacher_d1_selfnorm.ini`` with
``uniform_cube`` at d = 2, 3, 4, 7, 8 (each with its Gaussian reference),
``gaussian_d1.ini`` at d = 3, 4, 7, 8, and ``gaussian_d1.ini`` in
self_normalized mode with ``sqrt_n_invLL5`` and, on ``atom_ladder`` c = 0.5,
with ``sqrt_n`` at d = 1 and d = 2, which write 24 CSVs.  ``lilmax
shift-experiment`` on ``shift_ladder.ini`` and ``lilmax tightness-probe`` on
``tightness_fat.ini`` run the same way.  ``lilmax integral-test`` runs with no
config on the three boundary cells (d, a, b) = (1, 2, 1), (2, 4, 3) and
(3, 5, 2), once at the default ``integral.n_max`` and once at 123457, which
is not a multiple of the probe's block size.  Each side uses its own
``configs/``.

Every run must exit 0 and match the parent in its CSV bytes, its standard
output, and its ``summary.jsonl`` with ``runtime_seconds`` dropped.  The
``integral-test`` summary holds the probe's exact partial sum at n_max and
its Euler-Maclaurin check to full precision.  On the working tree, ``lilmax
replay`` then re-executes one replication of each simulate config, whether
or not its bytes differ.  The script prints one line per run and exits 1 on
any difference, failed run or replay mismatch.  A CSV whose bytes differ is
reported with the rows and columns that differ and the largest |change| in
``value``; a summary, with the keys that differ.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench_pairs import extract_revision  # noqa: E402

RUN_TIMEOUT_S = 900
COMMON = ["--seed", "1608", "--set", "experiment.replications=12"]
REPLAY_INDEX = 11

# (run name, subcommand, bundled config, extra --set overrides)
SIMULATE = [
    (name, "simulate", f"{name}.ini", [])
    for name in ("gaussian_d1", "rademacher_d1_selfnorm", "shift_ladder", "tightness_fat")
] + [
    ("feller_d1", "simulate", "gaussian_d1.ini",
     ["experiment.mode=feller", "experiment.scheme.family=sqrt_n"]),
] + [
    (f"cube_d{d}", "simulate", "rademacher_d1_selfnorm.ini",
     ["experiment.law.family=uniform_cube", f"experiment.d={d}"])
    for d in (2, 3, 4, 7, 8)
] + [
    (f"gauss_d{d}", "simulate", "gaussian_d1.ini", [f"experiment.d={d}"])
    for d in (3, 4, 7, 8)
] + [
    # self-normalized runs whose Gamma_k^-1 has thousands of spans, and one span not 1.0
    ("selfnorm_invLL5_d1", "simulate", "gaussian_d1.ini",
     ["experiment.mode=self_normalized", "experiment.scheme.family=sqrt_n_invLL5"]),
] + [
    (f"selfnorm_ladder_d{d}", "simulate", "gaussian_d1.ini",
     ["experiment.mode=self_normalized", "experiment.scheme.family=sqrt_n",
      "experiment.law.family=atom_ladder", "experiment.law.c=0.5", f"experiment.d={d}"])
    for d in (1, 2)
]
COMMANDS = [
    ("shift_ladder_cmd", "shift-experiment", "shift_ladder.ini", []),
    ("tightness_fat_cmd", "tightness-probe", "tightness_fat.ini", []),
] + [
    (f"integral_d{d}_a{a}_b{b}{tag}", "integral-test", None,
     [f"integral.d={d}", f"integral.a={a}", f"integral.b={b}", *n_max])
    for d, a, b in ((1, 2, 1), (2, 4, 3), (3, 5, 2))
    for tag, n_max in (("", []), ("_n123457", ["integral.n_max=123457"]))
]


def run_lilmax(tree: str, command: str, config: str | None, sets: list, out: str,
           extra: tuple = ()) -> subprocess.CompletedProcess:
    """``lilmax COMMAND`` from ``tree``'s own sources and configs; no
    ``--config`` when ``config`` is None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(tree, "src"), env.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "lilmax.cli", command, "--out", out, *COMMON]
    if config is not None:
        args += ["--config", os.path.join(tree, "configs", config)]
    for item in sets:
        args += ["--set", item]
    return subprocess.run(args + list(extra), cwd=tree, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)


def outputs(out: str) -> tuple[dict, list]:
    """CSV bytes by file name, and the summary lines without runtimes."""
    csvs = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                csvs[name] = fh.read()
    summaries = []
    with open(os.path.join(out, "summary.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("runtime_seconds", None)
            summaries.append(record)
    return csvs, summaries


def csv_diff(name: str, old: bytes, new: bytes) -> str:
    """The rows and columns in which two CSVs differ, and the largest
    |change| in their ``value`` column if they have one."""
    a, b = (list(csv.reader(io.StringIO(x.decode("utf-8")))) for x in (old, new))
    if a[:1] != b[:1] or len(a) != len(b):
        return f"{name}: header or row count differs"
    head = a[0]
    rows = [(r, q) for r, q in zip(a[1:], b[1:]) if r != q]
    cols = [c for j, c in enumerate(head) if any(r[j] != q[j] for r, q in rows)]
    said = f"{name}: {len(rows)}/{len(a) - 1} rows differ in {','.join(cols)}"
    if "value" in head:
        j = head.index("value")
        dmax = max((abs(float(q[j]) - float(r[j])) for r, q in rows), default=0.0)
        said += f", max |dvalue| {dmax:.2g}"
    return said


def compare(run: tuple, trees: dict, work: str) -> tuple[list, int]:
    """Differences between the two sides' outputs of one run, and its CSV count."""
    name, command, config, sets = run
    seen = {}
    for side, tree in trees.items():
        out = os.path.join(work, side, name)
        proc = run_lilmax(tree, command, config, sets, out)
        if proc.returncode != 0:
            return [f"{side} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"], 0
        seen[side] = (proc.stdout, *outputs(out))
    (p_out, p_csv, p_sum), (c_out, c_csv, c_sum) = seen["parent"], seen["change"]
    problems = []
    if sorted(p_csv) != sorted(c_csv):
        problems.append(f"CSV files {sorted(p_csv)} -> {sorted(c_csv)}")
    problems += [csv_diff(f, p_csv[f], c_csv[f])
                 for f in sorted(p_csv) if f in c_csv and c_csv[f] != p_csv[f]]
    if p_sum != c_sum:
        keys = sorted({k for p, c in zip(p_sum, c_sum) for k in p.keys() | c.keys()
                       if p.get(k) != c.get(k)})
        if len(p_sum) != len(c_sum):
            keys.append("line count")
        problems.append(f"summary.jsonl differs in {','.join(keys)}")
    if p_out != c_out:
        problems.append("stdout differs")
    return problems, len(c_csv)


def replay(run: tuple, work: str) -> list:
    """``lilmax replay`` of one replication against the working tree's CSV."""
    name, _, config, sets = run
    proc = run_lilmax(ROOT, "replay", config, sets, os.path.join(work, "change", name),
                      ("--replication", str(REPLAY_INDEX)))
    if proc.returncode == 0:
        return []
    said = (proc.stdout + proc.stderr).strip().splitlines()
    return [f"replay {REPLAY_INDEX} exited {proc.returncode}: {said[0] if said else ''}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)

    failures = 0
    csv_total = 0
    with tempfile.TemporaryDirectory(prefix="csv_matrix_") as tmp:
        parent_rev = extract_revision(args.parent, tmp)
        trees = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        print(f"parent {parent_rev}, change = working tree {ROOT}")
        for run in SIMULATE + COMMANDS:
            problems, n_csv = compare(run, trees, tmp)
            if run in SIMULATE and n_csv:
                csv_total += n_csv
                problems += replay(run, tmp)
            failures += bool(problems)
            status = "; ".join(problems) if problems else f"same ({n_csv} CSVs)"
            print(f"{'FAIL' if problems else 'ok'}  {run[0]:<24s} {status}", flush=True)
    print(f"{len(SIMULATE)} simulate configs ({csv_total} CSVs) and {len(COMMANDS)} "
          f"subcommand runs: {failures} with differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
