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

Every number in a config, the CLI's own sections included, is read by
``parse_number``: it must be finite, and a whole-number key also accepts
``1e5`` and ``2.0`` but no fractional value.  Each error names its key.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .limits import GumbelLaw
from .models import FAMILIES, IncrementLaw, law_id
from .truncation import SCHEME_FAMILIES, GammaSequence, TruncationScheme, scheme_id
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
            if self.scheme.n_levels < need:
                raise ConfigError(
                    f"table scheme has {self.scheme.n_levels} levels; mode "
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
    path: Optional[str], overrides: Sequence[str] = ()
) -> configparser.ConfigParser:
    """Read an INI file (none when ``path`` is None) and apply dotted
    ``section.key=value`` overrides.

    The key after the last dot names the option; everything before it names
    the section, so ``experiment.law.family=uniform_cube`` targets the
    [experiment.law] section.
    """
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None and not cp.read(path, encoding="utf-8"):
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


# The keys a section may set, by the part of its name after the last dot; a
# [reference] section sets the keys of [experiment].  A law or scheme
# section may set those of any family; ``_from_family`` narrows them to the
# family it names.
KNOWN_KEYS = {
    "experiment": ("name", "mode", "d", "n", "replications", "master_seed"),
    "law": ("family", *dict.fromkeys(k for _, ks in FAMILIES.values() for k in ks)),
    "scheme": ("family", *dict.fromkeys(k for _, ks in SCHEME_FAMILIES.values() for k in ks)),
    "shift": ("n_grid",),
    "probe": ("horizons", "y_grid"),
    "integral": ("a", "b", "d", "n_max"),
    "tails": ("sigmas",),
}


def read_section(cp: configparser.ConfigParser, name: str) -> dict:
    """The keys of section [name], or an empty dict when it is absent; a key
    outside the section's ``KNOWN_KEYS`` is a config error, which lists the
    keys of the family a law or scheme section names, if it is known."""
    sec = dict(cp.items(name)) if cp.has_section(name) else {}
    kind = name.rsplit(".", 1)[-1]
    known = KNOWN_KEYS["experiment" if kind == "reference" else kind]
    unknown = sorted(set(sec) - set(known))
    if unknown:
        families = {"law": FAMILIES, "scheme": SCHEME_FAMILIES}.get(kind, {})
        if sec.get("family") in families:
            known = ("family", *families[sec["family"]][1])
        raise ConfigError(
            f"unknown key {unknown[0]!r} in [{name}]; it takes {', '.join(known)}"
        )
    return sec


def parse_number(text: str, whole: bool = False):
    """The finite number ``text`` spells, an int when ``whole``; ValueError
    "whole" for a fractional one, "finite" for any other misfit.  ``int()``
    goes first, so a whole value past 2**53 (a 64-bit seed) stays exact."""
    if whole:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("finite")
    if whole and not value.is_integer():
        raise ValueError("whole")
    return int(value) if whole else value


def config_number(sec: dict, key: str, default=None, whole: bool = False):
    """``sec[key]`` through ``parse_number``; ``default`` when the key is
    absent, which makes the key required when ``default`` is None."""
    raw = sec.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return parse_number(raw, whole)
    except ValueError as exc:
        noun = "a whole number" if str(exc) == "whole" else "a number"
        raise ConfigError(f"key {key!r} must be {noun}, got {raw!r}") from None


def config_numbers(sec: dict, key: str, default, whole: bool = False) -> list:
    """The nonempty comma-separated list ``sec[key]``, each entry through
    ``parse_number``; ``default`` when the key is absent."""
    raw = sec.get(key)
    if raw is None:
        return list(default)
    kind = "finite"
    try:
        values = [parse_number(tok, whole) for tok in raw.split(",") if tok.strip()]
        if values:
            return values
    except ValueError as exc:
        kind = str(exc)
    raise ConfigError(
        f"key {key!r} must be a comma-separated nonempty list of {kind} numbers, got {raw}"
    )


def _from_family(kind: str, families: dict, m: dict, section: str, **given):
    """The ``kind`` that the family ``m`` names builds from ``given`` and the
    keys ``m`` sets; a key that family does not take is a config error."""
    fam = m["family"]
    if fam not in families:
        raise ConfigError(f"bad {kind} section: unknown {kind} family {fam!r}")
    build, keys = families[fam]
    foreign = sorted(set(m) - {"family", *keys})
    if foreign:
        raise ConfigError(
            f"key {foreign[0]!r} in [{section}] does not apply to {kind} family "
            f"{fam!r}, which takes {', '.join(keys)}"
        )
    try:
        for key in keys:
            if key in m:
                given[key] = (
                    config_numbers(m, key, ()) if key == "levels"
                    else config_number(m, key, whole=key in ("d", "k0", "n0"))
                )
        return build(**given)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} section: {exc}") from exc


def law_from_mapping(m: dict, d: int = 1, section: str = "*.law") -> IncrementLaw:
    """The increment law of the law section ``section``; ``d`` when it sets none."""
    if "family" not in m:
        raise ConfigError("law section needs a 'family' key")
    return _from_family("law", FAMILIES, m, section, d=d)


def scheme_from_mapping(m: dict, section: str = "*.scheme") -> TruncationScheme:
    """The truncation scheme of the scheme section ``section``, family
    ``sqrt_n`` when it names none."""
    return _from_family("scheme", SCHEME_FAMILIES, {"family": "sqrt_n", **m}, section)


def read_scheme(cp: configparser.ConfigParser, section: str) -> Optional[TruncationScheme]:
    """The scheme of [section.scheme]; None for an absent section or family
    ``none``, which may set no other key."""
    m = read_section(cp, f"{section}.scheme")
    if m.get("family", "none") == "none":
        extra = sorted(set(m) - {"family"})
        if extra:
            raise ConfigError(
                f"[{section}.scheme] sets {', '.join(extra)} but names no scheme family"
            )
        return None
    return scheme_from_mapping(m, f"{section}.scheme")


def read_law(cp: configparser.ConfigParser, section: str, d: int = 1) -> IncrementLaw:
    """The law of [section.law]; its ``d`` is that of [section] or of the law
    section, which must agree when both set one, else ``d``."""
    sec, m = read_section(cp, section), read_section(cp, f"{section}.law")
    d = config_number(sec, "d", d, whole=True)
    if "d" in sec and "d" in m and config_number(m, "d", whole=True) != d:
        raise ConfigError(
            f"[{section}] d = {d} disagrees with [{section}.law] d = {m['d']}"
        )
    return law_from_mapping(m, d, f"{section}.law")


def experiment_from_parser(
    cp: configparser.ConfigParser, section: str = "experiment",
    base: Optional[ExperimentConfig] = None,
) -> ExperimentConfig:
    """The experiment of [section], [section.law] and [section.scheme].

    With a ``base`` experiment, a field [section] does not set is the
    base's, the law without [section.law] is the base law at this d, and the
    master seed must differ from the base's, so the two samples are
    independent.
    """
    if not cp.has_section(section):
        raise ConfigError(f"config needs an [{section}] section")
    sec = read_section(cp, section)
    if cp.has_section(f"{section}.law"):
        law = read_law(cp, section, getattr(base, "d", 1))
    elif base is None:
        raise ConfigError(f"config needs an [{section}.law] section")
    else:
        try:
            law = replace(base.law, d=config_number(sec, "d", base.d, whole=True))
        except ValueError as exc:
            raise ConfigError(f"bad [{section}] d: {exc}") from exc
    scheme = getattr(base, "scheme", None)
    if cp.has_section(f"{section}.scheme"):
        scheme = read_scheme(cp, section)
    seed = config_number(sec, "master_seed", whole=True)
    if base is not None and seed == base.master_seed:
        raise ConfigError(f"{section} master_seed must differ from the experiment's")
    return ExperimentConfig(
        name=sec.get("name", section if base is None else f"{base.name}_{section}"),
        law=law,
        scheme=scheme,
        mode=sec.get("mode", getattr(base, "mode", "classical")),
        n=config_number(sec, "n", getattr(base, "n", None), whole=True),
        replications=config_number(
            sec, "replications", getattr(base, "replications", None), whole=True
        ),
        master_seed=seed,
    )


def reference_from_parser(
    cp: configparser.ConfigParser, base: ExperimentConfig
) -> Optional[ExperimentConfig]:
    """The optional [reference] experiment, inheriting from ``base``."""
    if not cp.has_section("reference"):
        return None
    return experiment_from_parser(cp, "reference", base)


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
    ``run_experiment`` and ``replay`` both build it here.

    Feller's sqrt(B_k) table is built before this returns, so the build
    counts as set-up and worker threads never race on it.  A self-normalized
    sequence holds its spans from construction and builds nothing later.
    """
    if cfg.mode == "classical":
        return None
    gs = GammaSequence(cfg.law, cfg.scheme, n_max=cfg.n)
    if cfg.mode == "feller":
        gs.sqrt_feller_bn
    return gs


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
