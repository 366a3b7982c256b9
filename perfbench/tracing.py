"""Spans around lilmax's module boundaries, and the per-layer metrics built
from them.

A traced workload process calls ``install`` after importing lilmax: every
boundary in ``BOUNDARIES`` is replaced by a wrapper that records one span
``[name, start_ns, end_ns, parent, elements, nbytes]`` per call, where
``parent`` is the index of the enclosing span (-1 at top level) and the two
sizes are filled only for ``models.sample`` (computed from the returned
array).  Spans stay in memory until the process writes them out at the end.
Nothing under ``src/`` is edited: a name is patched in the module that calls
it, so the span marks the crossing from one module into the next.

``layer_metrics`` turns one process's spans into the per-layer metrics.
Totals are summed over the whole workload process; names ending in
``_p50``/``_p90`` are percentiles over replications and names ending in
``_us`` are per-call medians, each paired with a ``.calls`` count.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module, attribute or Class.method, span name).  The module is the caller
# side of the boundary wherever the callee was imported by name.
BOUNDARIES = (
    ("lilmax.cli", "load_config_parser", "cli.config"),
    ("lilmax.cli", "experiment_from_parser", "cli.config"),
    ("lilmax.cli", "reference_from_parser", "cli.config"),
    ("lilmax.harness", "run_experiment", "harness.run_experiment"),
    ("lilmax.harness", "experiment_summary", "harness.ecdf_ks"),
    ("lilmax.harness", "write_records_csv", "harness.csv_write"),
    ("lilmax.harness", "de_statistic", "walkstats.de_statistic"),
    ("lilmax.walkstats", "sample", "models.sample"),
    ("lilmax.walkstats", "radial_profile", "models.radial_profile"),
    ("lilmax.truncation", "radial_profile", "models.radial_profile"),
    ("lilmax.walkstats", "c_levels", "truncation.c_levels"),
    ("lilmax.walkstats", "normalizers", "iterlog.normalizers"),
    ("lilmax.truncation", "GammaSequence.__init__", "truncation.gamma_build"),
    ("lilmax.truncation", "GammaSequence.inv_apply", "truncation.inv_apply"),
    ("lilmax.truncation", "validate_growth_window", "truncation.validate"),
    ("lilmax.truncation", "validate_tail_condition", "truncation.validate"),
    ("lilmax.limits", "GumbelLaw.cdf", "limits.gumbel_cdf"),
    ("lilmax.limits", "integral_test_partial_sums", "limits.integral_probe"),
    ("lilmax.limits", "aniso_chisq_density_ratio", "limits.density_ratio"),
    ("lilmax.limits", "chi_tail_envelope", "limits.chi_envelope"),
    ("lilmax.psdmat", "psd_sqrt", "psdmat.psd_sqrt"),
    ("lilmax.psdmat", "loewner_leq", "psdmat.loewner_leq"),
)

NAME, START, END, PARENT, ELEMENTS, NBYTES = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        sized = name == "models.sample"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if sized:
                span[ELEMENTS], span[NBYTES] = int(out.size), int(out.nbytes)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), span_name))


# ---------------------------------------------------------------------------
# per-layer metrics from one process's spans
# ---------------------------------------------------------------------------

# (metric, unit) in the order they are reported.  Units ending in
# "-computed" are derived from array sizes, not measured.
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.config_ms", "ms"),
    ("cli.config.calls", "count"),
    ("harness.run_experiment_s", "s"),
    ("harness.dispatch_overhead_ms", "ms"),
    ("harness.ecdf_ks_ms", "ms"),
    ("harness.csv_write_ms", "ms"),
    ("harness.csv_bytes", "bytes"),
    ("walkstats.de_statistic_ms_p50", "ms"),
    ("walkstats.de_statistic_ms_p90", "ms"),
    ("walkstats.de_statistic.calls", "count"),
    ("walkstats.self_ms_p50", "ms"),
    ("walkstats.scan_ms", "ms"),
    ("walkstats.floor_ratio", "ratio"),
    ("walkstats.blocks", "count"),
    ("models.sample_ms", "ms"),
    ("models.sample.calls", "count"),
    ("models.radial_profile_ms", "ms"),
    ("models.radial_profile_calls", "count"),
    ("models.draws", "count-computed"),
    ("models.bytes_drawn", "bytes-computed"),
    ("truncation.gamma_build_ms", "ms"),
    ("truncation.gamma_build.calls", "count"),
    ("truncation.inv_apply_ms", "ms"),
    ("truncation.inv_apply.calls", "count"),
    ("truncation.c_levels_ms", "ms"),
    ("truncation.c_levels.calls", "count"),
    ("truncation.validate_ms", "ms"),
    ("truncation.validate.calls", "count"),
    ("iterlog.normalizers_us", "us"),
    ("iterlog.normalizers.calls", "count"),
    ("limits.integral_probe_ms", "ms"),
    ("limits.integral_probe.calls", "count"),
    ("limits.density_ratio_ms", "ms"),
    ("limits.density_ratio.calls", "count"),
    ("limits.chi_envelope_ms", "ms"),
    ("limits.chi_envelope.calls", "count"),
    ("limits.gumbel_cdf_ms", "ms"),
    ("limits.gumbel_cdf.calls", "count"),
    ("psdmat.psd_sqrt_us", "us"),
    ("psdmat.psd_sqrt.calls", "count"),
    ("psdmat.loewner_leq_us", "us"),
    ("psdmat.loewner_leq.calls", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _quantile(values, q: float) -> float:
    """Inclusive-method quantile at a fraction q such as 0.9; 0.0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


def layer_metrics(spans: list, import_s: float, scan_ms: float) -> dict:
    """Per-layer metrics of one traced workload process.

    ``import_s`` is the process's ``import lilmax.cli`` time and ``scan_ms``
    the scan-only replication time from the scan probe (0.0 where the
    workload has no walk); neither is a span.  ``harness.csv_bytes`` and
    ``trace.overhead_s`` are filled in by the caller.
    """
    durations: dict[str, list[int]] = {}
    child_ns = [0] * len(spans)
    for span in spans:
        dur = span[END] - span[START]
        durations.setdefault(span[NAME], []).append(dur)
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += dur

    def total(name: str) -> int:
        return sum(durations.get(name, ()))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def per_call_us(name: str) -> float:
        return statistics.median(durations[name]) / 1e3 if name in durations else 0.0

    de_idx = {i for i, s in enumerate(spans) if s[NAME] == "walkstats.de_statistic"}
    run_idx = {i for i, s in enumerate(spans) if s[NAME] == "harness.run_experiment"}
    de_ms = [(spans[i][END] - spans[i][START]) / 1e6 for i in sorted(de_idx)]
    self_ms = [
        (spans[i][END] - spans[i][START] - child_ns[i]) / 1e6 for i in sorted(de_idx)
    ]
    rep_samples = [s for s in spans if s[NAME] == "models.sample" and s[PARENT] in de_idx]
    rep_sample_ns = sum(s[END] - s[START] for s in rep_samples)
    setup_builds_ns = sum(
        s[END] - s[START]
        for s in spans
        if s[NAME] == "truncation.gamma_build" and s[PARENT] in run_idx
    )
    samples = [s for s in spans if s[NAME] == "models.sample"]

    m = {
        "cli.import_s": import_s,
        "cli.config_ms": total("cli.config") / 1e6,
        "cli.config.calls": calls("cli.config"),
        "harness.run_experiment_s": total("harness.run_experiment") / 1e9,
        "harness.dispatch_overhead_ms": (
            total("harness.run_experiment") - total("walkstats.de_statistic") - setup_builds_ns
        ) / 1e6,
        "harness.ecdf_ks_ms": total("harness.ecdf_ks") / 1e6,
        "harness.csv_write_ms": total("harness.csv_write") / 1e6,
        "walkstats.de_statistic_ms_p50": _quantile(de_ms, 0.5),
        "walkstats.de_statistic_ms_p90": _quantile(de_ms, 0.9),
        "walkstats.de_statistic.calls": len(de_ms),
        "walkstats.self_ms_p50": _quantile(self_ms, 0.5),
        "walkstats.scan_ms": scan_ms,
        "walkstats.floor_ratio": (
            total("walkstats.de_statistic") / rep_sample_ns if rep_sample_ns else 0.0
        ),
        "walkstats.blocks": len(rep_samples),
        "models.sample_ms": total("models.sample") / 1e6,
        "models.sample.calls": calls("models.sample"),
        "models.radial_profile_ms": total("models.radial_profile") / 1e6,
        "models.radial_profile_calls": calls("models.radial_profile"),
        "models.draws": sum(s[ELEMENTS] for s in samples),
        "models.bytes_drawn": sum(s[NBYTES] for s in samples),
        "iterlog.normalizers_us": per_call_us("iterlog.normalizers"),
        "iterlog.normalizers.calls": calls("iterlog.normalizers"),
        "psdmat.psd_sqrt_us": per_call_us("psdmat.psd_sqrt"),
        "psdmat.psd_sqrt.calls": calls("psdmat.psd_sqrt"),
        "psdmat.loewner_leq_us": per_call_us("psdmat.loewner_leq"),
        "psdmat.loewner_leq.calls": calls("psdmat.loewner_leq"),
        "trace.spans": len(spans),
    }
    for layer, fn in (
        ("truncation", "gamma_build"), ("truncation", "inv_apply"),
        ("truncation", "c_levels"), ("truncation", "validate"),
        ("limits", "integral_probe"), ("limits", "density_ratio"),
        ("limits", "chi_envelope"), ("limits", "gumbel_cdf"),
    ):
        name = f"{layer}.{fn}"
        m[f"{name}_ms"] = total(name) / 1e6
        m[f"{name}.calls"] = calls(name)
    return m
