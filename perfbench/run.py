"""The lilmax benchmark: one workload per invocation, one process at a time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a lilmax checkout; the package is imported from its
``src/`` directory, so nothing needs installing.  The workloads are listed in
``WORKLOADS`` below and in ``BENCHMARK.json``, which also names the metrics;
``baseline.json`` holds the default and held-out seeds, the layer-to-end-to-end
metric map and the numbers measured when the benchmark was defined.

A run writes INI inputs (or, for ``verify_checks``, a JSON battery) derived
from ``--seed`` and starts workload processes one after another, each with
``--threads 1``, until ``--seconds`` have passed.  A Monte Carlo process is
``lilmax simulate`` on one INI file; every process gets fresh master seeds,
so the pooled records form one larger sample.  Each process is timed from
its spawn:

* ``setup_s``      until its first call into ``walkstats.de_statistic`` (on
                   ``verify_checks``, until its first check);
* ``wall_s``       until its outputs are written and checked;
* ``reps_per_s``   replications (reference included; on ``verify_checks``,
                   checks) per second of ``wall_s - setup_s``;
* ``peak_rss_mb``  its peak resident set size.

The run reports the worst of its processes on each metric: the longest
set-up and wall time, the lowest throughput and the largest peak memory (see
``end_to_end``).  ``--trace 1`` alternates an untraced process with a traced
one on the same inputs and reports the per-layer metrics of ``tracing.py``
(medians over traced processes) plus the tracing overhead, traced minus
untraced ``wall_s``.

Correctness is checked on every run and counted in ``attempted``/``failed``:
every record present and finite; sampled replications replay bit-exact
through ``lilmax replay``; the pooled KS distance to the Gumbel limit stays
under a sanity bound; and ``verify_checks`` reproduces acceptance criteria
04, 06, 07, 08 and 10.  ``failed_frac`` is printed with the other metrics.
The last line of standard output is the JSON result; the full record,
with provenance, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402

DEFAULT_SEED = 1608
HELD_OUT_SEED = 4549  # later claims must also hold on this seed
N = 100_000
CHILD_TIMEOUT_S = 150
REPLAYS = 3
# Pooled KS sanity bound: the workload's finite-horizon bias allowance plus
# the 0.1 % critical value of the Kolmogorov distribution at the pooled size.
KS_CRITICAL = 1.95
HOST_NOTE = (
    "runs are sequential and single-threaded (--threads 1); the host this "
    "benchmark was defined on reported nproc=2 but gave about one core of "
    "throughput, so parallel scaling is not measured"
)

# Each Monte Carlo workload: [experiment] fields plus an optional reference.
# Replications per process are sized to about two seconds of work.  The KS
# allowance is about 1.5x the pooled KS distance measured when the benchmark
# was defined (0.06, 0.11 and 0.23): at n = 1e5 the feller statistic is still
# far from its Gumbel limit.
WORKLOADS = {
    "mc_classical_gauss_d1": {
        "mode": "classical", "d": 1, "law": "gaussian_iso", "scheme": None,
        "replications": 500, "reference": None, "ks_allowance": 0.15,
    },
    "mc_selfnorm_cube_d2": {
        "mode": "self_normalized", "d": 2, "law": "uniform_cube", "scheme": "sqrt_n",
        "replications": 100, "reference": "gaussian_iso", "ks_allowance": 0.15,
    },
    "mc_feller_gauss_d1": {
        "mode": "feller", "d": 1, "law": "gaussian_iso", "scheme": "sqrt_n",
        "replications": 30, "reference": None, "ks_allowance": 0.40,
    },
    "verify_checks": None,
}
TINY_REPLICATIONS = 4
TINY_PSD_PAIRS = 10

SIGMAS = [round(0.1 * j, 1) for j in range(1, 10)]
GRID = [[d, a, b] for d in (1, 2, 3) for a in range(d, d + 5) for b in range(5)]
EXPECTED_VERDICTS = {
    "growth sqrt_n": "PASS",
    "growth sqrt_n_invLL5": "PASS",
    "growth c_n_equals_n": "FAIL",
    "tail gaussian small_o": "PASS",
    "tail ladder small_o": "FAIL",
    "tail ladder big_O": "PASS",
    "tail fat ladder big_O": "FAIL",
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("reps_per_s", "1/s"), ("peak_rss_mb", "MB"))


def derive_seed(*parts) -> int:
    """Unsigned 64-bit seed that is a pure function of ``parts``."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def write_ini(path: str, spec: dict, replications: int, seed: int, index: int) -> None:
    lines = [
        "[experiment]",
        "name = main",
        f"mode = {spec['mode']}",
        f"d = {spec['d']}",
        f"n = {N}",
        f"replications = {replications}",
        f"master_seed = {derive_seed(seed, index, 'main')}",
        "",
        "[experiment.law]",
        f"family = {spec['law']}",
    ]
    if spec["scheme"]:
        lines += ["", "[experiment.scheme]", f"family = {spec['scheme']}"]
    if spec["reference"]:
        lines += [
            "", "[reference]", "name = reference",
            f"master_seed = {derive_seed(seed, index, 'reference')}",
            "", "[reference.law]", f"family = {spec['reference']}",
        ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _random_psd(rng, d: int, lam_lo: float, lam_hi: float):
    import numpy as np

    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.exp(rng.uniform(np.log(lam_lo), np.log(lam_hi), size=d))
    return q @ np.diag(lam) @ q.T


def write_battery(path: str, seed: int, index: int, tiny: bool) -> int:
    """Inputs of the verify_checks battery; returns the number of checks."""
    import numpy as np

    rng = np.random.default_rng(derive_seed(seed, index, "psd"))
    pairs = []
    while len(pairs) < (TINY_PSD_PAIRS if tiny else 500):
        d = int(rng.integers(1, 5))
        a = _random_psd(rng, d, 1e-2, 1e2)
        b = a + _random_psd(rng, d, 1e-3, 1.0)
        a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
        lam_b = np.linalg.eigvalsh(b)
        if lam_b[-1] / lam_b[0] <= 1e4:
            pairs.append([a.tolist(), b.tolist()])
    grid = GRID[:: len(GRID) // 3] if tiny else GRID
    battery = {
        "psd_pairs": pairs, "sigmas": SIGMAS, "z_points": 120,
        "envelope_dims": [1, 2, 3], "grid": grid,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(battery, fh)
    return len(pairs) + len(SIGMAS) + 3 + len(grid) + len(EXPECTED_VERDICTS)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_values(csv_path: str) -> list[float]:
    with open(csv_path, encoding="utf-8") as fh:
        fh.readline()
        return [float(line.split(",")[2]) for line in fh if line.strip()]


def check_records(out_dir: str, names: list[str], replications: int):
    """(failed, values by name): rows missing or not finite count as failed."""
    failed, values = 0, {}
    for name in names:
        path = os.path.join(out_dir, f"{name}.csv")
        vals = read_values(path) if os.path.exists(path) else []
        finite = [v for v in vals if math.isfinite(v)]
        failed += replications - len(finite)
        values[name] = finite
    return failed, values


def ks_gumbel(values: list[float]) -> float:
    """One-sample KS distance to the standard Gumbel law exp(-exp(-x))."""
    xs = sorted(values)
    r = len(xs)
    dist = 0.0
    for i, x in enumerate(xs):
        cdf = math.exp(-math.exp(-x))
        dist = max(dist, (i + 1) / r - cdf, cdf - i / r)
    return dist


def check_battery(outputs: dict, battery: dict) -> int:
    """Number of failed checks in a verify_checks process's outputs."""
    import numpy as np

    def op_norm(m):
        return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (m + m.T)))))

    failed = 0
    psd = outputs["psd"]
    failed += len(battery["psd_pairs"]) - len(psd)
    for (a, b), (sa, sb, ordered) in zip(battery["psd_pairs"], psd):
        a, b, sa, sb = map(np.array, (a, b, sa, sb))
        holder = op_norm(sa - sb) ** 2 - op_norm(a - b)
        root_ok = op_norm(sa @ sa - a) <= 1e-9 * op_norm(a)
        failed += not (ordered and holder <= 1e-9 and root_ok)
    rows = outputs["density_ratio"]
    failed += len(battery["sigmas"]) - len(rows)
    for sigma, max_ratio, bound in rows:
        exact = 2.0 / math.sqrt(1.0 - sigma * sigma)
        failed += not (max_ratio <= bound + 1e-6 and abs(bound - exact) <= 1e-12 * exact)
    rows = outputs["envelope"]
    failed += len(battery["envelope_dims"]) - len(rows)
    for d, c1, c2 in rows:
        ok = 0.0 < c1 <= c2 < math.inf
        if d == 2:
            ok = ok and abs(c1 - 1.0) <= 1e-12 and abs(c2 - 1.0) <= 1e-12
        failed += not ok
    rows = outputs["grid"]
    failed += len(battery["grid"]) - len(rows)
    failed += sum(verdict != probe for _, _, _, verdict, probe in rows)
    failed += sum(outputs["verdicts"].get(k) != v for k, v in EXPECTED_VERDICTS.items())
    return failed


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], log_dir: str) -> tuple[float, int]:
    """Run child.py to completion; (spawn time, exit code)."""
    with open(os.path.join(log_dir, f"{args[0]}.log"), "ab") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args], stdout=log, stderr=log,
            env=child_env(), cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
    return t_spawn, code


def run_workload_process(name: str, seed: int, index: int, work: str,
                         tiny: bool, traced: bool) -> dict:
    """One workload process: inputs, spawn, output checks, timings."""
    tag = f"c{index:03d}{'t' if traced else 'u'}"
    out_dir = os.path.join(work, tag)
    os.makedirs(out_dir)
    result = os.path.join(out_dir, "result.json")
    spans = os.path.join(out_dir, "spans.json")
    spec = WORKLOADS[name]
    if spec is None:
        inputs = os.path.join(out_dir, "battery.json")
        attempted = write_battery(inputs, seed, index, tiny)
        args = ["verify", inputs, result]
    else:
        inputs = os.path.join(out_dir, "experiment.ini")
        reps = TINY_REPLICATIONS if tiny else spec["replications"]
        write_ini(inputs, spec, reps, seed, index)
        names = ["reference", "main"] if spec["reference"] else ["main"]
        attempted = reps * len(names)
        args = ["simulate", inputs, out_dir, result]
    if traced:
        args.append(spans)

    t_spawn, code = spawn(args, out_dir)
    rec = {"tag": tag, "config": inputs, "out_dir": out_dir,
           "attempted": attempted, "failed": attempted, "exit_code": code}
    if code != 0 or not os.path.exists(result):
        return rec
    with open(result, encoding="utf-8") as fh:
        stamps = json.load(fh)
    if spec is None:
        with open(inputs, encoding="utf-8") as fh:
            battery = json.load(fh)
        with open(stamps["outputs"], encoding="utf-8") as fh:
            rec["failed"] = check_battery(json.load(fh), battery)
    else:
        rec["failed"], rec["values"] = check_records(out_dir, names, reps)
    t_checked = time.monotonic()
    setup = stamps["first_op"] - t_spawn
    wall = t_checked - t_spawn
    rec.update(
        setup_s=setup, wall_s=wall,
        reps_per_s=attempted / (wall - setup),
        peak_rss_mb=stamps["peak_rss_kb"] / 1024.0,
        import_s=stamps["import_s"],
        provenance=stamps["provenance"],
    )
    if traced:
        with open(spans, encoding="utf-8") as fh:
            rec["spans"] = json.load(fh)
    return rec


def replay_check(rec: dict, seed: int, work: str, replications: int) -> tuple[int, int]:
    """Replay sampled replications of one process; (mismatches, replays)."""
    picks = sorted({derive_seed(seed, "replay", j) % replications for j in range(REPLAYS)})
    result = os.path.join(work, "replay.json")
    _, code = spawn(
        ["replay", rec["config"], rec["out_dir"], result, *map(str, picks)], work
    )
    if code != 0 or not os.path.exists(result):
        return len(picks), len(picks)
    with open(result, encoding="utf-8") as fh:
        codes = json.load(fh)
    return sum(codes.get(str(i)) != 0 for i in picks), len(picks)


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def end_to_end(recs: list[dict]) -> dict:
    """Run-level figures: the worst of the run's untraced processes.

    On a shared host the CPU's speed drifts between a contended and an
    uncontended level in spells of seconds to minutes.  The slowest process
    of a run sits at the contended level, which holds steady from run to
    run, while the mean and the median move with how much of the run fell
    in fast spells.
    """
    return {
        "setup_s": max(r["setup_s"] for r in recs),
        "wall_s": max(r["wall_s"] for r in recs),
        "reps_per_s": min(r["reps_per_s"] for r in recs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    os.makedirs(STATE, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=STATE)
    try:
        return _run(name, seed, seconds, trace, tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, tiny, work) -> dict:
    spec = WORKLOADS[name]
    untraced, traced = [], []
    t_start = time.monotonic()
    rounds: list[float] = []
    # start another round only if it is expected to end near the deadline
    while not rounds or time.monotonic() - t_start + statistics.median(rounds) / 2 < seconds:
        t_round = time.monotonic()
        untraced.append(run_workload_process(name, seed, len(rounds), work, tiny, False))
        if trace:
            traced.append(run_workload_process(name, seed, len(rounds), work, tiny, True))
        rounds.append(time.monotonic() - t_round)
    recs = untraced + traced
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    measured = [r for r in untraced if "wall_s" in r]
    partner = {r["tag"][:-1]: r for r in measured}
    measured_traced = [r for r in traced if "wall_s" in r and r["tag"][:-1] in partner]
    if not measured or (trace and not measured_traced):
        raise RuntimeError(f"no workload process completed; logs were in {work}")

    checks = {}
    if spec is not None:
        reps = TINY_REPLICATIONS if tiny else spec["replications"]
        mismatches, replays = replay_check(measured[-1], seed, work, reps)
        attempted += replays
        failed += mismatches
        checks["replay_mismatches"] = mismatches
        for exp in measured[0]["values"]:
            pooled = [v for r in measured for v in r["values"][exp]]
            bound = spec["ks_allowance"] + KS_CRITICAL / math.sqrt(max(len(pooled), 1))
            ks = ks_gumbel(pooled) if pooled else 1.0
            checks[f"ks_gumbel_{exp}"] = {"value": ks, "bound": bound, "pooled": len(pooled)}
            attempted += 1
            failed += not ks <= bound

    provenance = dict(measured[0]["provenance"])
    provenance.update(
        workload=name, seed=seed, default_seed=DEFAULT_SEED, held_out_seed=HELD_OUT_SEED,
        threads=1, nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        note=HOST_NOTE, processes=len(recs), n=N, tiny=tiny,
    )
    e2e = end_to_end(measured)
    units = dict(END_TO_END)
    if trace:
        scan_ms = 0.0
        if spec is not None:
            scan_path = os.path.join(work, "scan.json")
            _, code = spawn(["scan", measured[-1]["config"], scan_path], work)
            if code == 0:
                with open(scan_path, encoding="utf-8") as fh:
                    scan_ms = json.load(fh)["scan_ms"]
            else:
                failed += 1
            attempted += 1
        per_process = []
        for rec in measured_traced:
            m = tracing.layer_metrics(rec["spans"], rec["import_s"], scan_ms)
            m["harness.csv_bytes"] = sum(
                os.path.getsize(os.path.join(rec["out_dir"], f))
                for f in os.listdir(rec["out_dir"]) if f.endswith(".csv")
            )
            m["trace.overhead_s"] = rec["wall_s"] - partner[rec["tag"][:-1]]["wall_s"]
            per_process.append(m)
        metrics = {
            key: {"value": statistics.median(m[key] for m in per_process), "unit": unit}
            for key, unit in tracing.LAYER_METRICS
        }
    else:
        metrics = {key: {"value": e2e[key], "unit": units[key]} for key, _ in END_TO_END}

    return {
        "summary": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics},
        "end_to_end": e2e,
        "provenance": provenance,
        "checks": checks,
        "processes": [
            {k: r.get(k) for k in ("tag", "attempted", "failed", "exit_code", *units)}
            for r in recs
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="few replications per process; for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lilmax", "__init__.py")):
        print(f"no lilmax sources under {SRC}: run from a lilmax checkout",
              file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    summary = out["summary"]
    units = dict(END_TO_END)
    e2e = "  ".join(f"{k}={v:.6g} {units[k]}" for k, v in out["end_to_end"].items())
    frac = summary["failed"] / summary["attempted"]
    print(f"{args.workload} seed={args.seed}: {e2e}  failed_frac={frac:.6g} "
          f"({summary['failed']}/{summary['attempted']})")
    if args.trace:
        for key, m in summary["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print("checks " + json.dumps(out["checks"], sort_keys=True))
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    with open(os.path.join(STATE, "results", f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
