"""Reproducible Monte Carlo experiment runner.

Schedules replications over a thread pool, derives one child random stream
per replication from a master seed, and persists results as CSV plus a
JSON-lines summary.  Output is a pure function of the configuration: the
thread count changes speed, never bytes.

Config files are INI-style.  The [experiment] section carries the scalar
fields; the increment law and truncation scheme live in the sub-sections
[experiment.law] and [experiment.scheme].  An optional [reference] section
(with its own optional sub-sections) describes a second experiment that
inherits any field it does not override, which is how a same-horizon
Gaussian baseline is attached to a two-sample comparison.
"""

from __future__ import annotations

import configparser
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .limits import GumbelLaw
from .models import IncrementLaw, law_from_mapping, law_id
from .truncation import GammaSequence, TruncationScheme, scheme_from_mapping, scheme_id
from .walkstats import MODES, StatRecord, de_statistic, trajectory

CSV_HEADER = "replication_index,mode,value,argmax_k,n,d,seed"
SUMMARY_QUANTILES = (0.01, 0.05, 0.25, 0.50, 0.75, 0.95, 0.99)
_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


class ConfigError(ValueError):
    """Invalid configuration file, section, key, or value."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit for bit."""

    name: str
    law: IncrementLaw
    scheme: Optional[TruncationScheme]
    mode: str
    n: int
    replications: int
    master_seed: int

    def __post_init__(self):
        if not self.name or not set(self.name) <= _NAME_OK:
            raise ConfigError(
                f"experiment name {self.name!r} must be nonempty and use only "
                "letters, digits, '_', '.', '-'"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != "classical" and self.scheme is None:
            raise ConfigError(f"mode {self.mode!r} requires a truncation scheme")
        if self.mode == "feller" and self.law.d != 1:
            raise ConfigError(f"mode 'feller' is defined for d = 1, got d = {self.law.d}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.mode != "classical" and self.scheme.family == "table":
            need = max(self.n, self.scheme.n0)
            if len(self.scheme.levels) < need:
                raise ConfigError(
                    f"table scheme has {len(self.scheme.levels)} levels; mode "
                    f"{self.mode!r} at n = {self.n} needs {need}"
                )
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in an unsigned 64-bit integer")

    @property
    def d(self) -> int:
        return self.law.d

    def scheme_label(self) -> str:
        return "none" if self.scheme is None else scheme_id(self.scheme)


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------


def load_config_parser(
    path: str, overrides: Sequence[str] = ()
) -> configparser.ConfigParser:
    """Read an INI file and apply dotted ``section.key=value`` overrides.

    The key after the last dot names the option; everything before it names
    the section, so ``experiment.law.family=uniform_cube`` targets the
    [experiment.law] section.
    """
    cp = configparser.ConfigParser(interpolation=None)
    read = cp.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    apply_overrides(cp, overrides)
    return cp


def apply_overrides(cp: configparser.ConfigParser, overrides: Sequence[str]) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(
                f"override key {dotted!r} must be dotted, e.g. experiment.n"
            )
        section, key = dotted.rsplit(".", 1)
        if not section or not key:
            raise ConfigError(f"override key {dotted!r} has an empty part")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key.strip(), value.strip())


def _section_mapping(cp: configparser.ConfigParser, name: str) -> Optional[dict]:
    if not cp.has_section(name):
        return None
    return dict(cp.items(name))


def _build_law(mapping: dict, sec: dict, section: str, d: int) -> IncrementLaw:
    """The law of [section.law]; a ``d`` given there and in [section] must agree."""
    m = dict(mapping)
    if "d" in sec and "d" in m and _get_int(m, "d") != d:
        raise ConfigError(
            f"[{section}] d = {d} disagrees with [{section}.law] d = {m['d']}"
        )
    m.setdefault("d", d)
    try:
        return law_from_mapping(m)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad law section: {exc}") from exc


def _build_scheme(mapping: Optional[dict]) -> Optional[TruncationScheme]:
    if mapping is None or mapping.get("family", "none") == "none":
        return None
    try:
        return scheme_from_mapping(mapping)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad scheme section: {exc}") from exc


def _get_int(sec: dict, key: str, fallback: Optional[int] = None) -> int:
    raw = sec.get(key)
    if raw is None:
        if fallback is None:
            raise ConfigError(f"missing required integer key {key!r}")
        return fallback
    try:
        return int(str(raw).strip())
    except ValueError as exc:
        raise ConfigError(f"key {key!r} must be an integer, got {raw!r}") from exc


def experiment_from_parser(
    cp: configparser.ConfigParser, section: str = "experiment"
) -> ExperimentConfig:
    sec = _section_mapping(cp, section)
    if sec is None:
        raise ConfigError(f"config needs an [{section}] section")
    law_map = _section_mapping(cp, f"{section}.law")
    if law_map is None:
        raise ConfigError(f"config needs an [{section}.law] section")
    law = _build_law(law_map, sec, section, _get_int(sec, "d", 1))
    scheme = _build_scheme(_section_mapping(cp, f"{section}.scheme"))
    return ExperimentConfig(
        name=sec.get("name", section),
        law=law,
        scheme=scheme,
        mode=sec.get("mode", "classical"),
        n=_get_int(sec, "n"),
        replications=_get_int(sec, "replications"),
        master_seed=_get_int(sec, "master_seed"),
    )


def reference_from_parser(
    cp: configparser.ConfigParser, base: ExperimentConfig
) -> Optional[ExperimentConfig]:
    """Build the optional [reference] experiment, inheriting from ``base``.

    The reference shares the horizon, replication count, mode, and dimension
    of the base experiment unless it overrides them, and it must carry its
    own master seed so the two samples are independent.  Without a
    [reference.law] section it takes the base law's family at its own d.
    """
    sec = _section_mapping(cp, "reference")
    if sec is None:
        return None
    d = _get_int(sec, "d", base.d)
    law_map = _section_mapping(cp, "reference.law")
    if law_map is not None:
        law = _build_law(law_map, sec, "reference", d)
    else:
        try:
            law = replace(base.law, d=d)
        except ValueError as exc:
            raise ConfigError(f"bad [reference] d: {exc}") from exc
    if cp.has_section("reference.scheme"):
        scheme = _build_scheme(_section_mapping(cp, "reference.scheme"))
    else:
        scheme = base.scheme
    seed = _get_int(sec, "master_seed")
    if seed == base.master_seed:
        raise ConfigError("reference master_seed must differ from the experiment's")
    return ExperimentConfig(
        name=sec.get("name", f"{base.name}_reference"),
        law=law,
        scheme=scheme,
        mode=sec.get("mode", base.mode),
        n=_get_int(sec, "n", base.n),
        replications=_get_int(sec, "replications", base.replications),
        master_seed=seed,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def replication_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Child stream for replication ``index``: spawn-key derivation keeps
    streams statistically independent for every index without coordination."""
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


def build_normalizer(cfg: ExperimentConfig) -> Optional[GammaSequence]:
    """The normalizer sequence an experiment's replications share, or None in
    classical mode, which reads none and so ignores any scheme;
    ``run_experiment`` and ``replay`` both build it here."""
    if cfg.mode == "classical":
        return None
    return GammaSequence(cfg.law, cfg.scheme, n_max=cfg.n)


def replicate(
    cfg: ExperimentConfig, gs: Optional[GammaSequence], index: int
) -> StatRecord:
    """Replication ``index`` of ``cfg``: the walk of its child seed, reduced by
    ``de_statistic`` against the experiment's shared normalizer sequence."""
    traj = trajectory(cfg.law, cfg.n, replication_seed(cfg.master_seed, index))
    return de_statistic(traj, gs, cfg.mode)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[StatRecord]:
    """Execute all replications; the result never depends on ``threads``."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    gs = build_normalizer(cfg)
    indices = range(cfg.replications)
    if threads == 1:
        return [replicate(cfg, gs, r) for r in indices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: replicate(cfg, gs, r), indices))


# ---------------------------------------------------------------------------
# empirical CDFs and Kolmogorov-Smirnov distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ECDF:
    """Right-continuous empirical CDF of a finite sample."""

    values: np.ndarray  # sorted ascending

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("ECDF needs a nonempty 1-d sample")
        if not np.all(np.isfinite(v)):
            raise ValueError("ECDF sample must be finite")
        if np.any(np.diff(v) < 0):
            raise ValueError("ECDF values must be sorted ascending")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_sample(cls, xs: Iterable[float]) -> "ECDF":
        return cls(values=np.sort(np.asarray(list(xs), dtype=float)))

    @classmethod
    def from_records(cls, records: Sequence[StatRecord]) -> "ECDF":
        return cls.from_sample(rec.value for rec in records)

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.values, x, side="right") / len(self.values)
        return float(out) if out.ndim == 0 else out

    def quantiles(self, qs: Sequence[float] = SUMMARY_QUANTILES) -> list[float]:
        return [float(q) for q in np.quantile(self.values, list(qs))]


def ks_one_sample(ecdf: ECDF, law) -> float:
    """sup_x |ECDF(x) - law.cdf(x)|, evaluated at both sides of every step.

    Valid for any sample size (a single draw at the continuous law's median
    gives exactly 0.5).
    """
    r = len(ecdf)
    cdf = np.asarray(law.cdf(ecdf.values), dtype=float)
    upper = np.arange(1, r + 1) / r - cdf
    lower = cdf - np.arange(0, r) / r
    return float(max(np.max(upper), np.max(lower)))


def ks_two_sample(e1: ECDF, e2: ECDF) -> float:
    """sup_x |ECDF1(x) - ECDF2(x)| over the merged support."""
    merged = np.concatenate([e1.values, e2.values])
    c1 = np.searchsorted(e1.values, merged, side="right") / len(e1)
    c2 = np.searchsorted(e2.values, merged, side="right") / len(e2)
    return float(np.max(np.abs(c1 - c2)))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def record_row(index: int, rec: StatRecord) -> str:
    return (
        f"{index},{rec.mode},{repr(rec.value)},{rec.argmax_k},"
        f"{rec.n},{rec.d},{rec.seed}"
    )


def write_records_csv(records: Sequence[StatRecord], path: str) -> None:
    """Deterministic CSV: fixed header, repr floats, LF endings, UTF-8.

    Written to ``<path>.tmp`` and renamed over ``path``, so a failed write
    leaves any previous file intact and no partial file behind.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for index, rec in enumerate(records):
                fh.write(record_row(index, rec) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_records_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r} in {path}")
        cols = header.split(",")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",", len(cols) - 1)
            if len(parts) != len(cols):
                raise ValueError(f"malformed CSV row {line!r} in {path}")
            rows.append(dict(zip(cols, parts)))
    return rows


def experiment_summary(
    cfg: ExperimentConfig,
    records: Sequence[StatRecord],
    runtime_seconds: float,
    reference: Optional[ECDF] = None,
) -> dict:
    """Quantiles, KS distance to the standard Gumbel limit (and to
    ``reference`` when given) and provenance of one experiment."""
    ecdf = ECDF.from_records(records)
    qs = ecdf.quantiles()
    summary = {
        "experiment": cfg.name,
        "law": law_id(cfg.law),
        "scheme": cfg.scheme_label(),
        "mode": cfg.mode,
        "d": cfg.d,
        "n": cfg.n,
        "replications": cfg.replications,
        "master_seed": cfg.master_seed,
        "quantiles": {
            "q01": qs[0], "q05": qs[1], "q25": qs[2], "q50": qs[3],
            "q75": qs[4], "q95": qs[5], "q99": qs[6],
        },
        "runtime_seconds": round(float(runtime_seconds), 3),
        # replay bytes depend on numpy's generator streams and reduction order
        "lilmax_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
        "ks_gumbel": ks_one_sample(ecdf, GumbelLaw()),
    }
    if reference is not None:
        summary["ks_two_sample"] = ks_two_sample(ecdf, reference)
    return summary


def append_jsonl(obj: dict, path: str) -> None:
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def run_and_persist(
    cfg: ExperimentConfig,
    out_dir: str,
    threads: int = 1,
    reference: Optional[ECDF] = None,
) -> tuple[list[StatRecord], dict]:
    """Run one experiment, write ``<name>.csv``, append to ``summary.jsonl``."""
    start = time.perf_counter()
    records = run_experiment(cfg, threads=threads)
    runtime = time.perf_counter() - start
    os.makedirs(out_dir, exist_ok=True)
    write_records_csv(records, os.path.join(out_dir, f"{cfg.name}.csv"))
    summary = experiment_summary(cfg, records, runtime, reference=reference)
    append_jsonl(summary, os.path.join(out_dir, "summary.jsonl"))
    return records, summary


def run_pair(
    cfg: ExperimentConfig,
    ref: Optional[ExperimentConfig],
    out_dir: str,
    threads: int = 1,
) -> tuple[Optional[dict], dict]:
    """Run and persist the optional reference, then ``cfg`` with its
    two-sample KS distance to the reference; the two summaries, the first
    None without a reference."""
    if ref is None:
        return None, run_and_persist(cfg, out_dir, threads)[1]
    ref_records, ref_summary = run_and_persist(ref, out_dir, threads)
    _, summary = run_and_persist(
        cfg, out_dir, threads, reference=ECDF.from_records(ref_records)
    )
    return ref_summary, summary
