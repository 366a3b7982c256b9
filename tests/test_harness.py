"""Tests for the experiment runner, ECDFs, KS distances, and persistence."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import lilmax
from lilmax.harness import (
    CSV_HEADER,
    ConfigError,
    ECDF,
    ExperimentConfig,
    append_jsonl,
    apply_overrides,
    build_normalizer,
    experiment_from_parser,
    experiment_summary,
    ks_one_sample,
    ks_two_sample,
    load_config_parser,
    read_law,
    read_records_csv,
    read_scheme,
    record_row,
    reference_from_parser,
    replication_seed,
    run_and_persist,
    run_experiment,
    write_records_csv,
)
from lilmax import models as M
from lilmax import truncation as T
from lilmax.limits import GumbelLaw
from lilmax.models import gaussian_iso, rademacher_product
from lilmax.truncation import GammaSequence, sqrt_n

BASIC_INI = """\
[experiment]
name = demo
mode = self_normalized
d = 1
n = 4000
replications = 6
master_seed = 123

[experiment.law]
family = rademacher_product

[experiment.scheme]
family = sqrt_n

[reference]
master_seed = 456

[reference.law]
family = gaussian_iso
"""


def _cfg(**kw):
    base = dict(
        name="unit",
        law=gaussian_iso(1),
        scheme=None,
        mode="classical",
        n=2000,
        replications=4,
        master_seed=99,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(BASIC_INI, encoding="utf-8")
    cp = load_config_parser(str(path))
    cfg = experiment_from_parser(cp)
    assert cfg.name == "demo"
    assert cfg.mode == "self_normalized"
    assert cfg.d == 1
    assert cfg.n == 4000
    assert cfg.replications == 6
    assert cfg.master_seed == 123
    assert cfg.scheme_label().startswith("sqrt_n")
    ref = reference_from_parser(cp, cfg)
    assert ref is not None
    assert ref.name == "demo_reference"
    assert ref.master_seed == 456
    assert ref.n == cfg.n and ref.replications == cfg.replications
    assert ref.mode == cfg.mode
    assert ref.law.d == 1 and "gaussian" in str(ref.law.family)


def test_config_overrides(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(BASIC_INI, encoding="utf-8")
    cp = load_config_parser(
        str(path),
        overrides=[
            "experiment.n=8000",
            "experiment.law.family=uniform_cube",
            "experiment.law.d=2",
            "experiment.d=2",
        ],
    )
    cfg = experiment_from_parser(cp)
    assert cfg.n == 8000
    assert cfg.d == 2
    assert "cube" in str(cfg.law.family)


def test_config_two_d_keys_must_agree(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(BASIC_INI.replace("d = 1\n", ""), encoding="utf-8")

    def dims(*overrides):
        cp = load_config_parser(str(path), overrides)
        cfg = experiment_from_parser(cp)
        return cfg.d, reference_from_parser(cp, cfg).d

    # either key alone sets d, and two equal keys agree
    assert dims() == (1, 1)
    assert dims("experiment.d=2") == (2, 2)
    assert dims("experiment.law.d=2") == (2, 2)
    assert dims("experiment.d=2", "experiment.law.d=2") == (2, 2)
    assert dims("reference.d=3") == (1, 3)
    assert dims("reference.law.d=3") == (1, 3)
    assert dims("reference.d=3", "reference.law.d=3") == (1, 3)
    with pytest.raises(ConfigError, match=r"\[experiment\] d = 2 disagrees"):
        dims("experiment.d=2", "experiment.law.d=1")
    with pytest.raises(ConfigError, match=r"\[reference\] d = 2 disagrees"):
        dims("reference.d=2", "reference.law.d=3")


def test_config_override_validation(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(BASIC_INI, encoding="utf-8")
    cp = load_config_parser(str(path))
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides(cp, ["experiment.n"])
    with pytest.raises(ConfigError, match="dotted"):
        apply_overrides(cp, ["n=10"])
    with pytest.raises(ConfigError, match="empty"):
        apply_overrides(cp, [".n=10"])


def test_config_missing_pieces(tmp_path):
    path = tmp_path / "missing.ini"
    path.write_text("[experiment]\nname = x\n", encoding="utf-8")
    cp = load_config_parser(str(path))
    with pytest.raises(ConfigError, match="law"):
        experiment_from_parser(cp)
    with pytest.raises(ConfigError, match="not found"):
        load_config_parser(str(tmp_path / "absent.ini"))


def test_config_reference_needs_distinct_seed(tmp_path):
    text = BASIC_INI.replace("master_seed = 456", "master_seed = 123")
    path = tmp_path / "demo.ini"
    path.write_text(text, encoding="utf-8")
    cp = load_config_parser(str(path))
    cfg = experiment_from_parser(cp)
    with pytest.raises(ConfigError, match="differ"):
        reference_from_parser(cp, cfg)


def test_config_reference_d_without_law_section(tmp_path):
    """A [reference] d with no [reference.law] reads the Gaussian at that d,
    as ``read_law`` does for every section: the reference runs, and is
    summarized, in d = 2, and a bad d is refused by the law's own check."""
    text = BASIC_INI.replace("[reference.law]\nfamily = gaussian_iso\n", "")
    text = text.replace("n = 4000\nreplications = 6", "n = 300\nreplications = 3")
    text = text.replace("master_seed = 456\n", "master_seed = 456\nd = 2\n")
    path = tmp_path / "demo.ini"
    path.write_text(text, encoding="utf-8")
    cp = load_config_parser(str(path))
    cfg = experiment_from_parser(cp)
    ref = reference_from_parser(cp, cfg)
    assert cfg.law == rademacher_product(1)
    assert ref.law == gaussian_iso(2)
    records, _ = run_and_persist(ref, str(tmp_path / "out"))
    assert {r.d for r in records} == {2}
    lines = (tmp_path / "out" / "summary.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["d"] == 2
    assert json.loads(lines[0])["law"] == "gaussian_iso-d2"
    with pytest.raises(
        ConfigError, match=r"^bad law section: dimension must be in 1\.\.8, got 9$"
    ):
        reference_from_parser(load_config_parser(str(path), ["reference.d=9"]), cfg)


def test_config_dataclass_validation():
    with pytest.raises(ConfigError, match="name"):
        _cfg(name="bad name")
    with pytest.raises(ConfigError, match="mode"):
        _cfg(mode="maximal")
    with pytest.raises(ConfigError, match="scheme"):
        _cfg(mode="self_normalized", scheme=None)
    with pytest.raises(ConfigError, match=">= 1"):
        _cfg(replications=0)
    with pytest.raises(ConfigError, match="64-bit"):
        _cfg(master_seed=2**64)
    # feller's running variance is a d = 1 quantity: rejected before any
    # normalizer is built, not at the first replication
    with pytest.raises(ConfigError, match="d = 1, got d = 2"):
        _cfg(mode="feller", scheme=sqrt_n(), law=gaussian_iso(2))


def _read_law(mapping: dict):
    cp = load_config_parser(None, [f"experiment.law.{k}={v}" for k, v in mapping.items()])
    return read_law(cp, "experiment")


def _read_scheme(mapping: dict):
    cp = load_config_parser(None, [f"experiment.scheme.{k}={v}" for k, v in mapping.items()])
    return read_scheme(cp, "experiment")


def test_law_id_and_mapping_roundtrip():
    laws = [
        M.gaussian_iso(1), M.gaussian_iso(3), M.rademacher_product(1),
        M.rademacher_product(4), M.uniform_cube(1), M.uniform_cube(2),
        M.uniform_cube(5), M.atom_ladder(0.5, 2, d=1),
        M.atom_ladder(0.5, 1, d=2), M.atom_ladder_fat(2, d=3),
    ]
    # a new family cannot land without a case here
    assert {law.family for law in laws} == set(M.FAMILIES)
    for law in laws:
        assert M.law_id(law)
        mapping = {"family": law.family, "d": str(law.d)}
        if law.family == "atom_ladder":
            mapping.update(c=str(law.c), k0=str(law.k0))
        if law.family == "atom_ladder_fat":
            mapping.update(k0=str(law.k0))
        assert _read_law(mapping) == law
    # a key a section leaves out takes the constructor's default
    assert _read_law({"family": "atom_ladder"}) == M.atom_ladder()
    assert _read_law({"family": "atom_ladder_fat"}) == M.atom_ladder_fat()
    with pytest.raises(ValueError):
        _read_law({"d": "2"})
    with pytest.raises(ValueError):
        _read_law({"family": "levy"})


def test_read_law_without_a_law_section_is_the_gaussian_at_its_d():
    """An absent law section is ``gaussian_iso`` at the section's d (else the
    ``d`` argument); a present one must still name its family."""
    assert read_law(load_config_parser(None), "experiment") == gaussian_iso(1)
    cp = load_config_parser(None, ["experiment.d=3", "reference.master_seed=2"])
    assert read_law(cp, "experiment") == gaussian_iso(3)
    assert read_law(cp, "reference", d=5) == gaussian_iso(5)
    assert read_law(load_config_parser(None, ["reference.d=2"]), "reference", 5) == gaussian_iso(2)
    for sets in (["experiment.law.d=2"], ["experiment.d=2", "experiment.law.d=2"]):
        with pytest.raises(ConfigError, match=r"^law section needs a 'family' key$"):
            read_law(load_config_parser(None, sets), "experiment")
    cp = load_config_parser(None)
    cp.add_section("experiment.law")  # present, but empty
    with pytest.raises(ConfigError, match=r"^law section needs a 'family' key$"):
        read_law(cp, "experiment")


def test_scheme_mapping_roundtrip():
    cases = [
        ({"family": "sqrt_n", "n0": "1"}, T.sqrt_n()),
        ({"family": "sqrt_n", "n0": "7"}, T.sqrt_n(7)),
        ({"family": "sqrt_n_invLL5", "n0": "308"}, T.sqrt_n_invLL5()),
        ({"family": "sqrt_n_invLL5", "n0": "5"}, T.sqrt_n_invLL5(5)),
        ({"family": "sqrt_n_polylog", "q": "-2.5", "n0": "44"}, T.sqrt_n_polylog(-2.5)),
        ({"family": "sqrt_n_polylog", "q": "0.75"}, T.sqrt_n_polylog(0.75, 1)),
        ({"family": "table", "levels": "1.5,2.5,3.5", "n0": "2"},
         T.table_scheme([1.5, 2.5, 3.5], n0=2)),
        ({"family": "table", "levels": "1.5, 2.5,"}, T.table_scheme([1.5, 2.5], n0=1)),
    ]
    # a new family cannot land without a case here
    assert {mapping["family"] for mapping, _ in cases} == set(T.SCHEME_FAMILIES)
    for mapping, want in cases:
        assert _read_scheme(mapping) == want
    assert _read_scheme({"family": "sqrt_n_polylog"}) == T.sqrt_n_polylog(0.0)
    with pytest.raises(ValueError):
        _read_scheme({"family": "exp_n"})


def test_table_levels_must_be_finite():
    # NaN compares False against everything, so the order and sign checks
    # alone let it through; 1e400 parses to inf
    for levels in ("nan,1,2", "1,nan", "1e400", "1,2,inf"):
        with pytest.raises(ValueError, match="finite"):
            _read_scheme({"family": "table", "levels": levels})


# (dotted key, value, spellings): every spelling of a whole-number key must
# read as the same int, at the horizon, seed or index a config would use
_WHOLE_SPELLINGS = [
    ("experiment.n", 100000, ("100000", "1e5", "100000.0")),
    ("experiment.replications", 2, ("2", "2e0", "2.0")),
    ("experiment.master_seed", 100000, ("100000", "1e5", "100000.0")),
    ("experiment.d", 2, ("2", "2e0", "2.0")),
    ("experiment.law.d", 1, ("1", "1e0", "1.0")),
    ("experiment.law.k0", 3, ("3", "3e0", "3.0")),
    ("experiment.scheme.n0", 100, ("100", "1e2", "100.0")),
    ("reference.n", 100000, ("100000", "1e5", "100000.0")),
    ("reference.replications", 2, ("2", "2e0", "2.0")),
    ("reference.master_seed", 100000, ("100000", "1e5", "100000.0")),
    ("reference.d", 2, ("2", "2e0", "2.0")),
]


def _read_both(path, *overrides):
    cp = load_config_parser(str(path), ["experiment.law.family=atom_ladder", *overrides])
    cfg = experiment_from_parser(cp)
    return cfg, reference_from_parser(cp, cfg)


@pytest.mark.parametrize("key, want, spellings", _WHOLE_SPELLINGS,
                         ids=[row[0] for row in _WHOLE_SPELLINGS])
def test_whole_number_keys_accept_every_spelling(tmp_path, key, want, spellings):
    path = tmp_path / "demo.ini"
    path.write_text(BASIC_INI.replace("d = 1\n", ""), encoding="utf-8")
    section, field = key.rsplit(".", 1)
    for text in spellings:
        cfg, ref = _read_both(path, f"{key}={text}")
        obj = {"experiment": cfg, "reference": ref, "experiment.law": cfg.law,
               "experiment.scheme": cfg.scheme}[section]
        got = getattr(obj, field)
        assert got == want and type(got) is int, (key, text)


def test_master_seed_stays_exact_past_2_53(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(BASIC_INI, encoding="utf-8")
    seed = "18446744073709551615"
    cp = load_config_parser(str(path), [f"experiment.master_seed={seed}"])
    assert experiment_from_parser(cp).master_seed == 2**64 - 1
    cp = load_config_parser(str(path), [f"reference.master_seed={seed}"])
    assert reference_from_parser(cp, experiment_from_parser(cp)).master_seed == 2**64 - 1


def test_reference_inherits_what_it_does_not_set(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(BASIC_INI, encoding="utf-8")
    cp = load_config_parser(str(path), ["experiment.scheme.n0=7"])
    cfg = experiment_from_parser(cp)
    ref = reference_from_parser(cp, cfg)
    assert (ref.scheme, ref.mode, ref.n, ref.replications) == (
        cfg.scheme, cfg.mode, cfg.n, cfg.replications)
    cp = load_config_parser(str(path), ["reference.scheme.family=sqrt_n_invLL5",
                                        "reference.mode=feller", "reference.n=300"])
    ref = reference_from_parser(cp, experiment_from_parser(cp))
    assert (ref.scheme, ref.mode, ref.n) == (T.sqrt_n_invLL5(), "feller", 300)
    path.write_text(BASIC_INI.split("[reference]")[0], encoding="utf-8")
    cp = load_config_parser(str(path))
    assert reference_from_parser(cp, experiment_from_parser(cp)) is None


# ---------------------------------------------------------------------------
# ECDF
# ---------------------------------------------------------------------------


def test_ecdf_step_evaluation():
    e = ECDF.from_sample([3.0, 1.0, 2.0])
    assert e(0.5) == 0.0
    assert e(1.0) == pytest.approx(1 / 3)  # right-continuous: jump included
    assert e(1.5) == pytest.approx(1 / 3)
    assert e(3.0) == 1.0
    assert e(100.0) == 1.0
    assert np.allclose(e(np.array([0.0, 2.0])), [0.0, 2 / 3])


@given(
    xs=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    qs=st.lists(st.floats(-60, 60), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_ecdf_matches_naive_scan(xs, qs):
    e = ECDF.from_sample(xs)
    for q in qs:
        naive = sum(1 for x in xs if x <= q) / len(xs)
        assert e(q) == pytest.approx(naive, abs=0)


def test_ecdf_validation():
    with pytest.raises(ValueError, match="nonempty"):
        ECDF(values=np.array([]))
    with pytest.raises(ValueError, match="finite"):
        ECDF.from_sample([1.0, float("nan")])
    with pytest.raises(ValueError, match="sorted"):
        ECDF(values=np.array([2.0, 1.0]))


def test_ecdf_quantiles_monotone():
    e = ECDF.from_sample(np.random.default_rng(5).normal(size=500))
    qs = e.quantiles()
    assert len(qs) == 7
    assert all(a <= b for a, b in zip(qs, qs[1:]))


# ---------------------------------------------------------------------------
# KS distances
# ---------------------------------------------------------------------------


def test_ks_one_sample_quantile_construction():
    law = GumbelLaw()
    r = 200
    pts = [law.quantile((i + 1) / (r + 1)) for i in range(r)]
    d = ks_one_sample(ECDF.from_sample(pts), law)
    assert d <= 1 / (r + 1) + 1e-12


def test_ks_one_sample_single_median_point():
    law = GumbelLaw()
    d = ks_one_sample(ECDF.from_sample([law.median()]), law)
    assert d == pytest.approx(0.5, abs=1e-12)


def test_ks_one_sample_gumbel_draws():
    rng = np.random.default_rng(2026)
    draws = rng.gumbel(loc=0.0, scale=1.0, size=2000)
    d = ks_one_sample(ECDF.from_sample(draws), GumbelLaw())
    assert d < 0.036  # 99% critical value 1.628 / sqrt(2000)


def test_ks_two_sample_identical_and_disjoint():
    e1 = ECDF.from_sample([1.0, 2.0, 3.0])
    assert ks_two_sample(e1, e1) == 0.0
    e2 = ECDF.from_sample([10.0, 11.0])
    assert ks_two_sample(e1, e2) == 1.0


def test_ks_two_sample_same_law():
    rng = np.random.default_rng(31337)
    e1 = ECDF.from_sample(rng.gumbel(size=2000))
    e2 = ECDF.from_sample(rng.gumbel(size=2000))
    assert ks_two_sample(e1, e2) <= 1.628 * math.sqrt(2 / 2000)


@given(
    xs=st.lists(st.floats(-9, 9), min_size=1, max_size=25),
    ys=st.lists(st.floats(-9, 9), min_size=1, max_size=25),
)
@settings(max_examples=100, deadline=None)
def test_ks_two_sample_matches_naive(xs, ys):
    e1, e2 = ECDF.from_sample(xs), ECDF.from_sample(ys)
    naive = max(abs(e1(q) - e2(q)) for q in xs + ys)
    assert ks_two_sample(e1, e2) == pytest.approx(naive, abs=0)


def test_ks_two_sample_symmetry():
    rng = np.random.default_rng(8)
    e1 = ECDF.from_sample(rng.normal(size=37))
    e2 = ECDF.from_sample(rng.normal(size=61))
    assert ks_two_sample(e1, e2) == ks_two_sample(e2, e1)


# ---------------------------------------------------------------------------
# execution determinism
# ---------------------------------------------------------------------------


def test_run_experiment_single_replication_replays():
    cfg = _cfg(replications=1)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert len(a) == 1
    assert a[0].value == b[0].value
    assert a[0].argmax_k == b[0].argmax_k
    assert a[0].seed == b[0].seed


def test_run_experiment_thread_count_irrelevant():
    cfg = ExperimentConfig(
        name="threads",
        law=rademacher_product(1),
        scheme=sqrt_n(),
        mode="self_normalized",
        n=5000,
        replications=12,
        master_seed=777,
    )
    serial = run_experiment(cfg, threads=1)
    parallel = run_experiment(cfg, threads=4)
    assert [r.value for r in serial] == [r.value for r in parallel]
    assert [r.argmax_k for r in serial] == [r.argmax_k for r in parallel]
    assert [r.seed for r in serial] == [r.seed for r in parallel]


def test_build_normalizer():
    assert build_normalizer(_cfg()) is None
    assert build_normalizer(_cfg(scheme=sqrt_n())) is None  # classical reads none
    cfg = _cfg(law=rademacher_product(2), scheme=sqrt_n(), mode="self_normalized")
    gs = build_normalizer(cfg)
    assert isinstance(gs, GammaSequence)
    assert (gs.law, gs.scheme, gs.n_max) == (cfg.law, cfg.scheme, cfg.n)


def test_build_normalizer_builds_only_its_mode_table():
    law = gaussian_iso(1)
    feller = build_normalizer(_cfg(law=law, scheme=sqrt_n(), mode="feller"))  # loads scipy.special
    assert "sqrt_feller_bn" in vars(feller)
    selfnorm = build_normalizer(_cfg(law=law, scheme=sqrt_n(), mode="self_normalized"))
    assert "sqrt_feller_bn" not in vars(selfnorm)
    # a self-normalized sequence holds Gamma_k^{-1} as spans, not as an
    # n-long table (8 MB here; the build peaked at 7.85 MiB when it held one)
    for scheme in (sqrt_n(), T.sqrt_n_invLL5()):
        cfg = _cfg(law=law, scheme=scheme, mode="self_normalized", n=10**6)
        tracemalloc.start()
        try:
            build_normalizer(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, (scheme, peak)


def test_feller_build_normalizer_holds_one_table():
    law = gaussian_iso(1)
    build_normalizer(_cfg(law=law, scheme=sqrt_n(), mode="feller", n=10))  # loads scipy.special
    cfg = _cfg(law=law, scheme=sqrt_n(), mode="feller", n=10**6)
    tracemalloc.start()
    try:
        build_normalizer(cfg).sqrt_feller_bn
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # sqrt(B_k) alone is 8 MB; with inv_scales and a one-cumsum B_k it was 40 MB
    assert peak < 10_000_000, peak


def test_run_experiment_distinct_streams():
    cfg = _cfg(replications=8)
    recs = run_experiment(cfg)
    assert len({r.seed for r in recs}) == 8
    assert len({r.value for r in recs}) == 8


def test_replication_seed_no_collisions():
    words = set()
    for r in range(64):
        ss = replication_seed(424242, r)
        words.add(tuple(ss.generate_state(4).tolist()))
    assert len(words) == 64


def test_run_experiment_validates_threads():
    with pytest.raises(ValueError, match="threads"):
        run_experiment(_cfg(), threads=0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_csv_header_and_roundtrip(tmp_path):
    cfg = _cfg(replications=3)
    recs = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_records_csv(recs, str(path))
    raw = path.read_bytes()
    assert raw.startswith(CSV_HEADER.encode() + b"\n")
    assert b"\r" not in raw
    rows = read_records_csv(str(path))
    assert len(rows) == 3
    for i, (row, rec) in enumerate(zip(rows, recs)):
        assert int(row["replication_index"]) == i
        assert row["mode"] == rec.mode
        assert float(row["value"]) == rec.value  # repr round-trips exactly
        assert int(row["argmax_k"]) == rec.argmax_k
        assert row["seed"] == rec.seed


def test_csv_bytes_identical_across_runs(tmp_path):
    cfg = _cfg(replications=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(run_experiment(cfg, threads=1), str(p1))
    write_records_csv(run_experiment(cfg, threads=3), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_failed_write_keeps_previous_file(tmp_path):
    recs = run_experiment(_cfg(replications=2))
    path = tmp_path / "out.csv"
    write_records_csv(recs, str(path))
    before = path.read_bytes()
    # the second row cannot be formatted, after the header and one row went out
    with pytest.raises(AttributeError):
        write_records_csv([recs[0], None], str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,beta\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_records_csv(str(path))


def test_record_row_shape():
    cfg = _cfg(replications=1)
    rec = run_experiment(cfg)[0]
    row = record_row(0, rec)
    assert row.count(",") == CSV_HEADER.count(",")


def test_summary_schema(tmp_path):
    cfg = _cfg(replications=16)
    recs = run_experiment(cfg)
    ref = ECDF.from_sample(np.random.default_rng(1).gumbel(size=64))
    summary = experiment_summary(cfg, recs, 1.5, reference=ref)
    assert summary["experiment"] == "unit"
    assert summary["replications"] == 16
    assert set(summary["quantiles"]) == {
        "q01", "q05", "q25", "q50", "q75", "q95", "q99"
    }
    assert 0.0 <= summary["ks_gumbel"] <= 1.0
    assert 0.0 <= summary["ks_two_sample"] <= 1.0
    assert summary["lilmax_version"] == lilmax.__version__
    assert summary["numpy_version"] == np.__version__
    assert summary["scipy_version"] == scipy.__version__
    assert summary["bit_generator"] == type(np.random.default_rng().bit_generator).__name__
    path = tmp_path / "summary.jsonl"
    append_jsonl(summary, str(path))
    append_jsonl(summary, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["experiment"] == "unit"


def test_run_and_persist(tmp_path):
    cfg = _cfg(name="persist_demo", replications=4)
    records, summary = run_and_persist(cfg, str(tmp_path), threads=2)
    assert (tmp_path / "persist_demo.csv").exists()
    assert (tmp_path / "summary.jsonl").exists()
    assert len(records) == 4
    assert "ks_gumbel" in summary
    assert summary["runtime_seconds"] >= 0.0
