"""One workload process of the benchmark; started by run.py, never by hand.

    python3 perfbench/child.py simulate CONFIG OUT_DIR RESULT [SPANS]
    python3 perfbench/child.py verify INPUTS RESULT [SPANS]
    python3 perfbench/child.py scan CONFIG RESULT
    python3 perfbench/child.py replay CONFIG OUT_DIR RESULT INDEX...

``simulate`` goes through ``lilmax.cli.main`` exactly as a user would;
``verify`` calls the public check functions with the inputs run.py wrote.
Both write their timestamps (``time.monotonic``, comparable with the parent
process) to RESULT, and when SPANS is given they trace every module
boundary and write the spans there.  ``scan`` times the replication scan
alone on pre-drawn increments; ``replay`` re-executes stored replications
through ``lilmax replay``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_lilmax(stamps: dict):
    t0 = time.monotonic()
    import lilmax.cli

    stamps["import_s"] = time.monotonic() - t0
    where = os.path.realpath(lilmax.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"lilmax imported from {where}, not from {SRC}")
    return lilmax


def _provenance(lilmax) -> dict:
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lilmax": lilmax.__version__,
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
    }


def _start_tracing(spans_path):
    if spans_path is None:
        return None
    sys.path.insert(0, HERE)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish(result_path: str, stamps: dict, tracer, spans_path) -> None:
    stamps["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)


def cmd_simulate(config: str, out_dir: str, result: str, spans=None) -> int:
    stamps: dict = {}
    lilmax = _import_lilmax(stamps)
    tracer = _start_tracing(spans)
    harness = lilmax.harness
    inner = harness.de_statistic

    def first_call(*args, **kwargs):
        # setup ends at the first crossing from harness into walkstats
        stamps["first_op"] = time.monotonic()
        harness.de_statistic = inner
        return inner(*args, **kwargs)

    harness.de_statistic = first_call
    with contextlib.redirect_stdout(io.StringIO()):
        code = lilmax.cli.main(
            ["simulate", "--config", config, "--out", out_dir, "--threads", "1"]
        )
    stamps["provenance"] = _provenance(lilmax)
    _finish(result, stamps, tracer, spans)
    return code


def cmd_verify(inputs_path: str, result: str, spans=None) -> int:
    stamps: dict = {}
    lilmax = _import_lilmax(stamps)
    tracer = _start_tracing(spans)
    import numpy as np
    from lilmax import limits, models, psdmat, truncation

    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    pairs = [(np.array(a), np.array(b)) for a, b in inputs["psd_pairs"]]
    stamps["first_op"] = time.monotonic()

    out: dict = {"psd": [], "density_ratio": [], "envelope": [], "grid": []}
    for a, b in pairs:  # criterion 04
        sa = psdmat.psd_sqrt(psdmat.SymPSD.from_array(a))
        sb = psdmat.psd_sqrt(psdmat.SymPSD.from_array(b))
        ordered = psdmat.loewner_leq(sa, sb, tol=1e-9)
        out["psd"].append([sa.entries.tolist(), sb.entries.tolist(), ordered])

    z = np.geomspace(0.01, 100.0, inputs["z_points"])
    for sigma in inputs["sigmas"]:  # criterion 06
        rep = limits.aniso_chisq_density_ratio(sigma, z)
        out["density_ratio"].append([sigma, rep.max_ratio, rep.bound])

    for d in inputs["envelope_dims"]:  # criterion 07
        env = limits.chi_tail_envelope(d, np.linspace(2.0 * d, 12.0, 300))
        out["envelope"].append([d, env.c1_hat, env.c2_hat])

    for d, a, b in inputs["grid"]:  # criterion 08
        phi = limits.PhiFamily(a=float(a), b=float(b), d=d)
        verdict = limits.integral_test_classify(phi)
        probe = limits.integral_test_partial_sums(phi)
        out["grid"].append([d, a, b, verdict, probe.verdict])

    n_grid = np.geomspace(1e2, 1e8, 13)  # criterion 10
    t_grid = np.geomspace(10.0, 1e6, 11)
    out["verdicts"] = {
        "growth sqrt_n": truncation.validate_growth_window(
            truncation.sqrt_n(), n_grid).verdict,
        "growth sqrt_n_invLL5": truncation.validate_growth_window(
            truncation.sqrt_n_invLL5(), n_grid).verdict,
        "growth c_n_equals_n": truncation.validate_growth_window(
            truncation.table_scheme(np.arange(1.0, 100_001.0), 1),
            np.geomspace(1e2, 1e5, 9)).verdict,
        "tail gaussian small_o": truncation.validate_tail_condition(
            models.gaussian_iso(1), "small_o", t_grid).verdict,
        "tail ladder small_o": truncation.validate_tail_condition(
            models.atom_ladder(c=0.5), "small_o", t_grid).verdict,
        "tail ladder big_O": truncation.validate_tail_condition(
            models.atom_ladder(c=0.5), "big_O", t_grid).verdict,
        "tail fat ladder big_O": truncation.validate_tail_condition(
            models.atom_ladder_fat(), "big_O", t_grid).verdict,
    }
    outputs_path = os.path.join(os.path.dirname(result), "verify_outputs.json")
    with open(outputs_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    stamps["outputs"] = outputs_path
    stamps["provenance"] = _provenance(lilmax)
    _finish(result, stamps, tracer, spans)
    return 0


def cmd_scan(config: str, result: str, repeats: int = 5) -> int:
    """Median time of de_statistic on replication 0's increments, drawn first."""
    lilmax = _import_lilmax({})
    import numpy as np
    from lilmax import harness, models, walkstats

    cfg = harness.experiment_from_parser(harness.load_config_parser(config))
    gs = None
    if cfg.scheme is not None:
        gs = lilmax.truncation.GammaSequence(cfg.law, cfg.scheme, n_max=cfg.n)
    rng = np.random.default_rng(harness.replication_seed(cfg.master_seed, 0))
    blocks = [
        models.sample(cfg.law, rng, min(walkstats.BLOCK, cfg.n - off))
        for off in range(0, cfg.n, walkstats.BLOCK)
    ]
    traj = walkstats.from_increments(cfg.law, np.concatenate(blocks))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        walkstats.de_statistic(traj, gs, cfg.mode)
        times.append((time.perf_counter() - t0) * 1e3)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"scan_ms": statistics.median(times)}, fh)
    return 0


def cmd_replay(config: str, out_dir: str, result: str, *indices: str) -> int:
    lilmax = _import_lilmax({})
    codes = {}
    for index in indices:
        with contextlib.redirect_stdout(io.StringIO()):
            codes[index] = lilmax.cli.main(
                ["replay", "--config", config, "--out", out_dir, "--replication", index]
            )
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(codes, fh)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "replay": cmd_replay,
}

if __name__ == "__main__":
    sys.exit(COMMANDS[sys.argv[1]](*sys.argv[2:]))
