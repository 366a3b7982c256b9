"""End-to-end tests for the command-line interface.

Every invocation goes through main(argv), so exit codes and side effects are
exactly what a shell user gets.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import lilmax
from lilmax.cli import main, shift_driver_table
from lilmax.limits import aniso_chisq_density_ratio
from lilmax.models import atom_ladder

GAUSS_INI = """\
[experiment]
name = cli_gauss
mode = classical
d = 1
n = 3000
replications = 12
master_seed = 501

[experiment.law]
family = gaussian_iso
"""

REF_INI = """\
[experiment]
name = cli_signs
mode = self_normalized
d = 1
n = 2500
replications = 10
master_seed = 601

[experiment.law]
family = rademacher_product

[experiment.scheme]
family = sqrt_n

[reference]
master_seed = 602

[reference.law]
family = gaussian_iso
"""

SHIFT_INI = """\
[experiment]
name = cli_shift
mode = classical
d = 1
n = 4000
replications = 30
master_seed = 701

[experiment.law]
family = atom_ladder
c = 0.5

[reference]
master_seed = 702

[reference.law]
family = gaussian_iso

[shift]
n_grid = 10000,100000000
"""

PROBE_INI = """\
[experiment]
name = cli_probe
mode = classical
d = 1
n = 4000
replications = 10
master_seed = 801

[experiment.law]
family = atom_ladder_fat

[probe]
horizons = 1000,4000
y_grid = -2,0
"""


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _summaries(out_dir):
    lines = (out_dir / "summary.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "cli_gauss.csv").exists()
    (summary,) = _summaries(out)
    assert summary["experiment"] == "cli_gauss"
    assert "ks_gumbel" in summary
    assert "ks_two_sample" not in summary
    assert "cli_gauss" in capsys.readouterr().out


def test_simulate_with_reference_reports_two_sample(tmp_path):
    cfg = _write(tmp_path, "r.ini", REF_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "cli_signs.csv").exists()
    assert (out / "cli_signs_reference.csv").exists()
    summaries = _summaries(out)
    assert len(summaries) == 2
    main_summary = [s for s in summaries if s["experiment"] == "cli_signs"][0]
    assert "ks_two_sample" in main_summary
    assert "ks_gumbel" in main_summary


def test_simulate_bad_scheme_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    code = main(
        [
            "simulate", "--config", cfg, "--out", str(tmp_path / "o"),
            "--set", "experiment.scheme.family=mystery",
        ]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["experiment.mode=feller", "experiment.scheme.family=sqrt_n",
          "experiment.d=2"], "d = 1, got d = 2"),
        (["experiment.d=2", "experiment.law.d=1"], "disagrees"),
    ],
    ids=["feller_d2", "two_d_keys"],
)
def test_simulate_bad_dimension_exits_2(tmp_path, capsys, overrides, message):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    out = tmp_path / "o"
    args = ["simulate", "--config", cfg, "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not out.exists() or not any(out.iterdir())


def test_classical_simulate_ignores_scheme(tmp_path):
    # classical mode reads no normalizer, so even a table scheme too short
    # for the horizon is never built and the records keep their bytes
    cfg = os.path.join(CONFIGS, "gaussian_d1.ini")
    small = ["--set", "experiment.n=3000", "--set", "experiment.replications=5"]
    table = ["--set", "experiment.scheme.family=table",
             "--set", "experiment.scheme.levels=0.5,1"]
    plain, schemed = tmp_path / "plain", tmp_path / "schemed"
    assert main(["simulate", "--config", cfg, "--out", str(plain), *small]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(schemed), *small, *table]) == 0
    csv = "gaussian_d1.csv"
    assert (schemed / csv).read_bytes() == (plain / csv).read_bytes()
    assert _summaries(schemed)[0]["scheme"] == "table[2]-n01"


_TABLE = ["experiment.scheme.family=table"]


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["experiment.n=3", "experiment.mode=self_normalized", *_TABLE,
          "experiment.scheme.levels=nan,1,2"], "'levels' must be a comma-separated nonempty list of finite numbers"),
        (["experiment.n=3", "experiment.mode=self_normalized", *_TABLE,
          "experiment.scheme.levels=1e400"], "'levels' must be a comma-separated nonempty list of finite numbers"),
        (["experiment.n=300", "experiment.mode=self_normalized", *_TABLE,
          "experiment.scheme.levels=0.5,1"], "has 2 levels; mode 'self_normalized' at n = 300"),
        (["experiment.n=300", "experiment.mode=feller", *_TABLE,
          "experiment.scheme.levels=0.5,1"], "has 2 levels; mode 'feller' at n = 300"),
        (["experiment.n=3", "experiment.mode=self_normalized", *_TABLE,
          "experiment.scheme.levels=0.5,1,2", "experiment.scheme.n0=4"], "needs 4"),
        (["experiment.n=3", "experiment.mode=self_normalized", *_TABLE,
          "experiment.scheme.levels=0.5,1,2", "reference.master_seed=7",
          "reference.n=300"], "at n = 300 needs 300"),
        (["experiment.n=3", "reference.master_seed=7", "reference.mode=feller",
          "reference.scheme.family=table", "reference.scheme.levels=1,2"], "needs 3"),
        (["experiment.mode=self_normalized", *_TABLE], "table scheme needs at least one level"),
    ],
    ids=["nan_level", "inf_level", "short_selfnorm", "short_feller", "short_n0",
         "short_reference_n", "short_reference_scheme", "no_levels"],
)
def test_bad_table_scheme_exits_2(tmp_path, capsys, overrides, message):
    cfg = os.path.join(CONFIGS, "gaussian_d1.ini")
    out = tmp_path / "o"
    args = ["simulate", "--config", cfg, "--out", str(out),
            "--set", "experiment.replications=3"]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("mode", ["self_normalized", "feller"])
def test_table_scheme_as_long_as_the_horizon_runs(tmp_path, mode):
    cfg = os.path.join(CONFIGS, "gaussian_d1.ini")
    levels = ",".join(str(1.0 + k / 8.0) for k in range(40))
    args = ["simulate", "--config", cfg, "--out", str(tmp_path),
            "--set", "experiment.n=40", "--set", "experiment.replications=3",
            "--set", f"experiment.mode={mode}", "--set", _TABLE[0],
            "--set", f"experiment.scheme.levels={levels}"]
    assert main(args) == 0
    assert _summaries(tmp_path)[0]["scheme"] == "table[40]-n01"


def test_feller_near_singular_gamma_exits_3(tmp_path, capsys):
    # feller builds no inv_scales, yet the checkpoint eigenvalue floor still
    # runs when its GammaSequence is constructed
    cfg = os.path.join(CONFIGS, "gaussian_d1.ini")
    args = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
    for item in ("experiment.mode=feller", "experiment.scheme.family=sqrt_n_polylog",
                 "experiment.scheme.q=-20", "experiment.scheme.n0=1", "experiment.n=10000"):
        args += ["--set", item]
    assert main(args) == 3
    assert "Gamma_23 has eigenvalue 0.0972 below the floor 0.1" in capsys.readouterr().err


def test_simulate_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2


def test_seed_flag_overrides_master_seed(tmp_path):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "11"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "11"]) == 0
    assert (out1 / "cli_gauss.csv").read_bytes() == (out2 / "cli_gauss.csv").read_bytes()
    assert _summaries(out1)[0]["master_seed"] == 11


def test_threads_do_not_change_bytes(tmp_path):
    cfg = _write(tmp_path, "r.ini", REF_INI)
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    assert (out1 / "cli_signs.csv").read_bytes() == (out2 / "cli_signs.csv").read_bytes()


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_untampered_ok(tmp_path):
    cfg = _write(tmp_path, "r.ini", REF_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    code = main(
        ["replay", "--config", cfg, "--out", str(out), "--replication", "7"]
    )
    assert code == 0


def test_replay_detects_tampering(tmp_path, capsys):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    csv_path = out / "cli_gauss.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    head, first = lines[1].split(",", 1)
    parts = lines[1].split(",")
    parts[2] = "0.123456"  # corrupt the stored value
    lines[1] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["replay", "--config", cfg, "--out", str(out), "--replication", "0"])
    assert code == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_replay_out_of_range_exits_2(tmp_path):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["replay", "--config", cfg, "--out", str(out), "--replication", "99"]) == 2


def test_replay_missing_csv_exits_3(tmp_path):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    assert main(["replay", "--config", cfg, "--out", str(tmp_path / "void")]) == 3


# ---------------------------------------------------------------------------
# shift-experiment
# ---------------------------------------------------------------------------


def test_shift_experiment_driver_and_medians(tmp_path, capsys):
    cfg = _write(tmp_path, "s.ini", SHIFT_INI)
    out = tmp_path / "out"
    assert main(["shift-experiment", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "driver" in captured
    payload = [s for s in _summaries(out) if s.get("command") == "shift-experiment"][0]
    assert payload["c"] == 0.5
    drivers = {row["n"]: row["driver"] for row in payload["driver"]}
    assert abs(drivers[100000000] - 0.5) < 0.05  # within 10% of c at n=1e8
    assert "median" in payload and "reference_median" in payload


def test_shift_experiment_rejects_other_laws(tmp_path, capsys):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    assert main(["shift-experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: shift-experiment requires the atom_ladder increment law\n"


def test_shift_experiment_rejects_d_above_1(tmp_path, capsys):
    # the driver (1 - sigma_n) b_{1,n} centers the d = 1 statistic only
    cfg = _write(tmp_path, "s.ini", SHIFT_INI)
    out = tmp_path / "out"
    assert main(["shift-experiment", "--config", cfg, "--out", str(out),
                 "--set", "experiment.d=2"]) == 2
    assert "defined for d = 1, got d = 2" in capsys.readouterr().err
    assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "extra",
    ["experiment.law.c=0", "experiment.d=2", "experiment.mode=feller",
     "experiment.n=-5", "experiment.replications=0", "reference.master_seed=701"],
)
def test_shift_experiment_refuses_c0_as_simulate_does(tmp_path, capsys, extra):
    """c = 0 is no atom_ladder law: the experiment is read as simulate reads
    it, so no other key of a c = 0 config is ever run or reported."""
    cfg = _write(tmp_path, "s.ini", SHIFT_INI)
    out = tmp_path / "out"
    for command in ("simulate", "shift-experiment"):
        args = [command, "--config", cfg, "--out", str(out),
                "--set", "experiment.law.c=0", "--set", extra]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: bad law section: atom_ladder needs c > 0\n"
        assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "sets, message",
    [
        (["reference.d=2"], "law = gaussian_iso-d1, got gaussian_iso-d2"),
        (["reference.n=100"], "n = 2000, got 100"),
        (["reference.mode=feller", "reference.scheme.family=sqrt_n"],
         "mode = classical, got feller"),
        (["reference.law.family=atom_ladder"],
         "law = gaussian_iso-d1, got atom_ladder-d1-c0.5-k02-sphere"),
        (["reference.law.family=rademacher_product"],
         "law = gaussian_iso-d1, got rademacher_product-d1"),
    ],
    ids=["d2", "n100", "feller", "atom_ladder", "rademacher_product"],
)
def test_shift_experiment_refuses_a_reference_it_cannot_compare(
    tmp_path, capsys, sets, message
):
    """The gap measures the shift only against the classical gaussian_iso(1)
    walk at the experiment's n; each of these once printed a gap and exited 0."""
    cfg = os.path.join(CONFIGS, "shift_ladder.ini")
    out = tmp_path / "out"
    small = ["experiment.replications=10", "experiment.n=2000", *sets]
    assert main(["shift-experiment", "--config", cfg, "--out", str(out),
                 *[arg for item in small for arg in ("--set", item)]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: shift-experiment needs [reference] {message}\n"
    assert not (out / "summary.jsonl").exists()


def test_shift_experiment_reference_without_law_section_is_gaussian(tmp_path, capsys):
    """With [reference.law] removed, the reference is the Gaussian d = 1 walk
    and replications may differ; before, it was the ladder under another seed."""
    with open(os.path.join(CONFIGS, "shift_ladder.ini"), encoding="utf-8") as fh:
        text = fh.read()
    assert "[reference.law]\nfamily = gaussian_iso\n" in text
    cfg = _write(tmp_path, "s.ini", text.replace("[reference.law]\nfamily = gaussian_iso\n", ""))
    out = tmp_path / "out"
    assert main(["shift-experiment", "--config", cfg, "--out", str(out),
                 "--set", "experiment.replications=10", "--set", "experiment.n=2000",
                 "--set", "reference.replications=6"]) == 0
    ref, exp, payload = _summaries(out)
    assert (ref["experiment"], ref["law"], ref["mode"]) == (
        "shift_gaussian_ref", "gaussian_iso-d1", "classical")
    assert (ref["n"], ref["replications"]) == (2000, 6)
    assert exp["law"] == "atom_ladder-d1-c0.5-k02-sphere"
    assert payload["reference_median"] == ref["quantiles"]["q50"]
    assert "(downward shift expected)" in capsys.readouterr().out


def test_shift_driver_table_monotone_approach():
    rows = shift_driver_table(atom_ladder(c=0.5), [10**j for j in range(4, 9)])
    drivers = [row["driver"] for row in rows]
    assert all(d > 0 for d in drivers)
    assert abs(drivers[-1] - 0.5) < 0.05


# ---------------------------------------------------------------------------
# tightness-probe
# ---------------------------------------------------------------------------


def test_tightness_probe_rows_and_flag(tmp_path, capsys):
    cfg = _write(tmp_path, "p.ini", PROBE_INI)
    out = tmp_path / "out"
    assert main(["tightness-probe", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "qualitative" in captured
    payload = [s for s in _summaries(out) if s.get("command") == "tightness-probe"][0]
    assert payload["horizons"] == [1000, 4000]
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        assert set(row["frequencies"]) == {"-2.0", "0.0"}
        for freq in row["frequencies"].values():
            assert 0.0 <= freq <= 1.0
    assert isinstance(payload["drift_downward"], bool)


@pytest.mark.parametrize("command", ["shift-experiment", "tightness-probe"])
def test_classical_probes_reject_other_modes(tmp_path, capsys, command):
    # both subcommands measure the classical statistic; another mode is a
    # config error, not a run that silently measures something else
    text = {"shift-experiment": SHIFT_INI, "tightness-probe": PROBE_INI}[command]
    cfg = _write(tmp_path, "p.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--set", "experiment.mode=feller",
                 "--set", "experiment.scheme.family=sqrt_n"]) == 2
    assert f"{command} measures the classical statistic" in capsys.readouterr().err
    assert not (out / "summary.jsonl").exists()


def test_tightness_probe_rejects_tight_laws(tmp_path, capsys):
    cfg = _write(tmp_path, "g.ini", GAUSS_INI)
    assert main(["tightness-probe", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "atom_ladder_fat" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, family",
    [("shift-experiment", "atom_ladder"), ("tightness-probe", "atom_ladder_fat")],
)
def test_classical_probes_reject_the_other_ladder(tmp_path, capsys, command, family):
    # each ladder config reads as a valid experiment, of the other command's law
    text = {"shift-experiment": PROBE_INI, "tightness-probe": SHIFT_INI}[command]
    cfg = _write(tmp_path, "c.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {command} requires the {family} increment law\n"
    assert not (out / "summary.jsonl").exists()


# ---------------------------------------------------------------------------
# integral-test / tail-bounds / validate
# ---------------------------------------------------------------------------


def test_integral_test_convergent(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["integral-test", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "convergent" in captured
    assert "PASS" in captured
    payload = _summaries(out)[0]
    assert payload["classifier"] == "convergent"
    assert payload["probe_verdict"] == "convergent"
    for key in ("em_validation_rel", "tail_increment"):
        assert math.isfinite(payload[key]), key


def test_integral_test_divergent_override(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["integral-test", "--out", str(out), "--set", "integral.a=3", "--set", "integral.b=0"]
    )
    assert code == 0
    assert "divergent" in capsys.readouterr().out


def test_integral_test_overflowed_tail_is_null(tmp_path):
    out = tmp_path / "out"
    assert main(["integral-test", "--out", str(out), "--set", "integral.a=1"]) == 0
    line = (out / "summary.jsonl").read_text(encoding="utf-8")

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(line, parse_constant=reject)
    assert payload["probe_verdict"] == "divergent"
    assert payload["tail_increment"] is None
    assert math.isfinite(payload["em_validation_rel"])


@pytest.mark.parametrize(
    "a, b, where",
    [
        (-1000, 998, "t = 1000000000.0:"),  # once exited 3 after its verdict lines
        (-6000, 6648, "LLL t = 10.0027"),  # once printed a NaN verdict and exited 0
    ],
)
def test_integral_test_rejects_phi_squared_negative_past_one(tmp_path, capsys, a, b, where):
    """phi^2(1) >= 0, but phi^2 < 0 where a summation leg (n = 10^9) or the
    verdict side (w = LLL t = 10) evaluates it: exit 2, before any output."""
    out = tmp_path / "out"
    sets = ["--set", f"integral.a={a}", "--set", f"integral.b={b}"]
    assert main(["integral-test", "--out", str(out), *sets]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"config error: bad integral section: phi^2 is negative at {where}"
    )
    assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "items",
    [["integral.a=1e308"], ["integral.b=1e308"], ["integral.a=1e308", "integral.b=1e308"]],
    ids=["a", "b", "both"],
)
def test_integral_test_rejects_coefficients_too_large_for_the_probe(tmp_path, capsys, items):
    """a w or b log w overflows at the verdict side's nodes, up to w = 10^5:
    exit 2 before any output and with no RuntimeWarning (this once printed
    NaN slopes with "agreement: PASS" and exited 0)."""
    out = tmp_path / "out"
    sets = [arg for item in items for arg in ("--set", item)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["integral-test", "--out", str(out), *sets]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error: bad integral section: the probe's log-integrand is not finite"
    )
    assert ", b = " in captured.err
    assert not (out / "summary.jsonl").exists()


def test_integral_test_keeps_large_finite_coefficients(tmp_path, capsys):
    # a = 1e20: slopes of order -1e19 and -1e23, large but finite
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["integral-test", "--out", str(out), "--set", "integral.a=1e20"]) == 0
    assert "agreement:  PASS" in capsys.readouterr().out
    payload = _summaries(out)[-1]
    assert math.isfinite(payload["slope_linear"]) and payload["slope_linear"] < -1e19
    assert math.isfinite(payload["slope_loglog"]) and payload["slope_loglog"] < -1e23


@pytest.mark.parametrize("k0", [710, 10**6])
@pytest.mark.parametrize("config", ["shift_ladder.ini", "tightness_fat.ini"])
def test_ladder_with_no_representable_rung_runs(tmp_path, capsys, config, k0):
    """From k0 = 710 on, exp(k0) itself overflows; these runs once exited 3
    with "OverflowError: math range error"."""
    cfg = os.path.join(CONFIGS, config)
    small = ["--set", f"experiment.law.k0={k0}", "--set", "experiment.n=2000",
             "--set", "experiment.replications=4"]
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"), *small]) == 0
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "val"), *small]) == 0
    assert f"k0{k0}-sphere" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, item, message",
    [
        ("integral-test", "integral.n_max=5e4", "between 1e5 and 1e9"),
        ("integral-test", "integral.n_max=inf", "'n_max' must be a number"),
        ("integral-test", "integral.d=9", "dimension must be in 1..8"),
        ("integral-test", "integral.d=1.5", "'d' must be a whole number"),
        ("integral-test", "integral.a=x", "'a' must be a number"),
        ("integral-test", "integral.b=nan", "'b' must be a number"),
        ("integral-test", "integral.a=-3", "phi^2 is negative"),
        ("tail-bounds", "tails.sigmas=1.5", "must lie in (0, 1)"),
        ("tail-bounds", "tails.sigmas=0.5,0", "must lie in (0, 1)"),
    ],
)
def test_bad_verification_values_exit_2(tmp_path, capsys, command, item, message):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "command, item, message",
    [
        ("shift-experiment", "experiment.law.c=abc", "'c' must be a number"),
        ("shift-experiment", "shift.n_grid=0,100", "horizons must be >= 1"),
        ("shift-experiment", "shift.n_grid=1e400", "finite numbers"),
        ("shift-experiment", "shift.n_grid=", "nonempty list"),
        ("tightness-probe", "probe.horizons=1e400", "finite numbers"),
        ("tightness-probe", "probe.horizons=1000,0.5", "whole numbers, got 1000,0.5"),
        ("tightness-probe", "probe.y_grid=0,nan", "finite numbers"),
        ("tightness-probe", "probe.y_grid=x", "'y_grid' must be a comma"),
    ],
)
def test_bad_section_values_exit_2(tmp_path, capsys, command, item, message):
    text = {"shift-experiment": SHIFT_INI, "tightness-probe": PROBE_INI}[command]
    cfg = _write(tmp_path, "c.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--set", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "command, item, message",
    [
        ("tightness-probe", "probe.horizons=100000,1000",
         "probe.horizons: horizons must be strictly increasing, got [100000, 1000]"),
        ("tightness-probe", "probe.horizons=1000,1000",
         "probe.horizons: horizons must be strictly increasing, got [1000, 1000]"),
        ("shift-experiment", "shift.n_grid=1000,100",
         "shift.n_grid: horizons must be strictly increasing, got [1000, 100]"),
        ("tightness-probe", "probe.y_grid=0,0.0,1",
         "probe.y_grid: thresholds must be strictly increasing, got [0.0, 0.0, 1.0]"),
    ],
)
def test_horizons_not_increasing_exit_2(tmp_path, capsys, command, item, message):
    """The probe judges drift from its first and last horizons, so a list out
    of order, or with a repeat, once gave a verdict on the wrong pair of n;
    and a repeated threshold once printed two columns for one frequency."""
    text = {"shift-experiment": SHIFT_INI, "tightness-probe": PROBE_INI}[command]
    cfg = _write(tmp_path, "c.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--set", item]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "command, ini, name",
    [("simulate", "ref", "cli_signs"), ("replay", "ref", "cli_signs"),
     ("shift-experiment", "shift", "cli_shift")],
)
def test_reference_named_like_experiment_exits_2(tmp_path, capsys, command, ini, name):
    """Both samples write <name>.csv, so a reference named like its
    experiment once lost its CSV to the experiment's."""
    cfg = _write(tmp_path, "c.ini", {"ref": REF_INI, "shift": SHIFT_INI}[ini])
    out = tmp_path / "out"
    args = [command, "--config", cfg, "--out", str(out), "--set", f"reference.name={name}"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: reference name must differ from the experiment's\n"
    assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "command, item, message",
    [
        ("tightness-probe", "probe.horizons=1000.7,2000.2", "whole numbers, got 1000.7"),
        ("shift-experiment", "shift.n_grid=100.9,1000", "whole numbers, got 100.9"),
        ("integral-test", "integral.n_max=123456.9", "'n_max' must be a whole number"),
    ],
)
def test_fractional_horizons_exit_2(tmp_path, capsys, command, item, message):
    args = [command, "--out", str(tmp_path / "out"), "--set", item]
    text = {"shift-experiment": SHIFT_INI, "tightness-probe": PROBE_INI}.get(command)
    if text is not None:
        args += ["--config", _write(tmp_path, "c.ini", text)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (tmp_path / "out" / "summary.jsonl").exists()


def test_horizons_written_as_floats_run(tmp_path):
    probe = _write(tmp_path, "p.ini", PROBE_INI)
    out = tmp_path / "out"
    assert main(["tightness-probe", "--config", probe, "--out", str(out),
                 "--set", "probe.horizons=1e3,4e3"]) == 0
    assert _summaries(out)[-1]["horizons"] == [1000, 4000]
    assert main(["integral-test", "--out", str(out), "--set", "integral.n_max=1e5"]) == 0
    assert "partial_sum_at_n_max" in _summaries(out)[-1]


def test_tail_bounds_all_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["tail-bounds", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "FAIL" not in captured
    payload = _summaries(out)[0]
    assert all(c["result"] == "PASS" for c in payload["checks"])


def test_validate_default_catalogue(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["validate", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "growth window" in captured
    assert "tail condition" in captured
    assert "FAIL" not in captured  # gaussian law and built-in schemes all pass


def test_validate_flags_ladder_tail(tmp_path, capsys):
    cfg = _write(tmp_path, "s.ini", SHIFT_INI)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    payload = _summaries(out)[-1]
    results = {row["check"]: row["result"] for row in payload["rows"]}
    small_o = [v for k, v in results.items() if "small_o" in k]
    assert small_o == ["FAIL"]  # the shifted ladder keeps tail mass at level c


def test_validate_reads_the_law_and_scheme_it_is_given(tmp_path, capsys):
    # no [experiment] section and no n: validate needs only the law and scheme
    out = tmp_path / "out"
    fat = ["--set", "experiment.law.family=atom_ladder_fat"]
    assert main(["validate", "--out", str(out), *fat]) == 0
    rows = {row["check"]: row["result"] for row in _summaries(out)[-1]["rows"]}
    assert rows["tail condition big_O atom_ladder_fat-d1-k02-sphere"] == "FAIL"
    assert "atom_ladder_fat-d1-k02-sphere FAIL" in capsys.readouterr().out
    polylog = ["--set", "experiment.scheme.family=sqrt_n_polylog",
               "--set", "experiment.scheme.q=2"]
    assert main(["validate", "--out", str(out), *fat, "--set", "experiment.d=1", *polylog]) == 0
    rows = {row["check"]: row["result"] for row in _summaries(out)[-1]["rows"]}
    assert [k for k in rows if k.startswith("growth window")] == [
        "growth window sqrt_n_polylog(q=2)-n01"]
    assert main(["validate", "--out", str(out), *fat, "--set", "experiment.law.d=2"]) == 0
    assert "atom_ladder_fat-d2-k02-sphere" in capsys.readouterr().out
    assert main(["validate", "--out", str(out), *fat, "--set", "experiment.d=2",
                 "--set", "experiment.law.d=1"]) == 2
    assert "disagrees" in capsys.readouterr().err
    # with no law section, the Gaussian law at the [experiment] d
    assert main(["validate", "--out", str(out), "--set", "experiment.d=3"]) == 0
    rows = {row["check"]: row["result"] for row in _summaries(out)[-1]["rows"]}
    assert rows["tail condition small_o gaussian_iso-d3"] == "PASS"
    assert "gaussian_iso-d3" in capsys.readouterr().out
    count = len(_summaries(out))
    assert main(["validate", "--out", str(out), "--set", "experiment.d=2.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: key 'd' must be a whole number, got '2.5'\n"
    assert len(_summaries(out)) == count


def test_validate_table_scheme_uses_the_grid_it_covers(tmp_path, capsys):
    """The growth window runs on the grid points (100, 316.2, 1000, ...) the
    table holds a level for, and needs two of them."""
    out = tmp_path / "out"
    table = ["--set", "experiment.scheme.family=table"]

    def levels(n):
        return ["--set", "experiment.scheme.levels=" + ",".join(
            str(math.sqrt(k)) for k in range(1, n + 1))]

    assert main(["validate", "--out", str(out), *table, *levels(3)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "table scheme has 3 levels" in err and "needs at least 317" in err
    assert not (out / "summary.jsonl").exists()
    assert main(["validate", "--out", str(out), *table, *levels(316)]) == 2
    assert "has 316 levels" in capsys.readouterr().err
    assert main(["validate", "--out", str(out), *table, *levels(2000),
                 "--set", "experiment.scheme.n0=2001"]) == 2
    assert "needs at least 2001" in capsys.readouterr().err
    assert main(["validate", "--out", str(out), *table, *levels(317)]) == 0
    assert main(["validate", "--out", str(out), *table, *levels(1000)]) == 0
    rows = [_summaries(out)[i]["rows"][0] for i in (0, 1)]
    assert [row["check"] for row in rows] == [
        "growth window table[317]-n01", "growth window table[1000]-n01"]
    assert [row["result"] for row in rows] == ["PASS", "PASS"]  # c_n = sqrt(n)


@pytest.mark.parametrize(
    "command, ini, items, message",
    [
        ("simulate", "gauss", ["experiment.repls=3"], "'repls' in [experiment]"),
        ("simulate", "ref", ["reference.nn=3"], "'nn' in [reference]"),
        ("simulate", "gauss", ["experiment.law.dd=3"], "'dd' in [experiment.law]"),
        ("simulate", "ref", ["reference.law.family=gaussian_iso", "reference.law.k=2"],
         "'k' in [reference.law]"),
        ("simulate", "ref", ["experiment.scheme.n00=3"], "'n00' in [experiment.scheme]"),
        ("replay", "ref", ["reference.scheme.family=sqrt_n", "reference.scheme.level=2"],
         "'level' in [reference.scheme]"),
        ("validate", None, ["experiment.law.family=gaussian_iso", "experiment.law.dd=3"],
         "'dd' in [experiment.law]"),
        ("validate", None, ["experiment.scheme.family=sqrt_n", "experiment.scheme.q0=1"],
         "'q0' in [experiment.scheme]"),
        ("shift-experiment", "shift", ["shift.grid=100"], "'grid' in [shift]"),
        ("tightness-probe", "probe", ["probe.horizon=1000"], "'horizon' in [probe]"),
        ("integral-test", None, ["integral.nmax=1e5"], "'nmax' in [integral]"),
        ("tail-bounds", None, ["tails.sigma=0.5"], "'sigma' in [tails]"),
        ("simulate", "gauss", ["experiment.scheme.n0=2.5"],
         "[experiment.scheme] sets n0 but names no scheme family"),
        ("simulate", "ref", ["experiment.scheme.family=none", "experiment.scheme.q=1"],
         "[experiment.scheme] sets q but names no scheme family"),
        ("validate", None, ["experiment.scheme.levels=1,2"],
         "[experiment.scheme] sets levels but names no scheme family"),
        # a key some family takes, set for one that does not
        ("simulate", "gauss", ["experiment.law.c=0.3"],
         "unknown key 'c' in [experiment.law]; it takes family, d\n"),
        ("tightness-probe", "probe", ["experiment.law.c=0.9"],
         "unknown key 'c' in [experiment.law]; it takes family, d, k0\n"),
        ("simulate", "ref", ["experiment.scheme.q=5"],
         "unknown key 'q' in [experiment.scheme]; it takes family, n0\n"),
        ("replay", "ref", ["reference.scheme.family=sqrt_n", "reference.scheme.levels=1,2"],
         "unknown key 'levels' in [reference.scheme]; it takes family, n0\n"),
        ("shift-experiment", "shift", ["experiment.law.direction_mode=axes"],
         "'direction_mode' in [experiment.law]"),
        # a section naming a known family lists that family's keys
        ("simulate", "gauss", ["experiment.law.direction_mode=axes"],
         "'direction_mode' in [experiment.law]; it takes family, d\n"),
        ("tightness-probe", "probe", ["experiment.law.k=2"],
         "'k' in [experiment.law]; it takes family, d, k0\n"),
        ("simulate", "ref", ["experiment.scheme.n00=3"],
         "'n00' in [experiment.scheme]; it takes family, n0\n"),
        ("validate", None, ["experiment.scheme.family=table", "experiment.scheme.q0=1"],
         "'q0' in [experiment.scheme]; it takes family, levels, n0\n"),
        ("validate", None, ["experiment.scheme.n00=3"],
         "[experiment.scheme] sets n00 but names no scheme family\n"),
        ("simulate", "gauss", ["experiment.law.family=levy", "experiment.law.dd=3"],
         "bad law section: unknown law family 'levy'\n"),
    ],
)
def test_unknown_config_keys_exit_2(tmp_path, capsys, command, ini, items, message):
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    if ini is not None:
        text = {"gauss": GAUSS_INI, "ref": REF_INI, "shift": SHIFT_INI, "probe": PROBE_INI}[ini]
        args += ["--config", _write(tmp_path, "c.ini", text)]
    for item in items:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (out / "summary.jsonl").exists()


def test_sections_a_command_does_not_read_stay_unchecked(tmp_path):
    out = tmp_path / "out"
    # simulate reads no [shift] section, tail-bounds no [experiment]
    shift = _write(tmp_path, "s.ini", SHIFT_INI)
    assert main(["simulate", "--config", shift, "--out", str(out),
                 "--set", "shift.bogus=1", "--set", "experiment.replications=2"]) == 0
    assert main(["tail-bounds", "--out", str(out), "--set", "experiment.bogus=1"]) == 0


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_bundled_configs_set_only_known_keys(name):
    from lilmax.harness import load_config_parser, read_section

    cp = load_config_parser(os.path.join(CONFIGS, name))
    assert cp.sections()
    for section in cp.sections():
        read_section(cp, section)


_LADDER = ["experiment.law.family=atom_ladder"]

# every numeric key a config can hold: (command, config text, extra
# overrides that make the command read the key, dotted key, whole number)
_NUMERIC_KEYS = [
    ("simulate", GAUSS_INI, [], "experiment.d", True),
    ("simulate", GAUSS_INI, [], "experiment.n", True),
    ("simulate", GAUSS_INI, [], "experiment.replications", True),
    ("simulate", GAUSS_INI, [], "experiment.master_seed", True),
    ("simulate", REF_INI, [], "reference.d", True),
    ("simulate", REF_INI, [], "reference.n", True),
    ("simulate", REF_INI, [], "reference.replications", True),
    ("simulate", REF_INI, [], "reference.master_seed", True),
    ("simulate", GAUSS_INI, [], "experiment.law.d", True),
    ("simulate", GAUSS_INI, _LADDER, "experiment.law.c", False),
    ("simulate", GAUSS_INI, _LADDER, "experiment.law.k0", True),
    ("simulate", REF_INI, [], "reference.law.d", True),
    ("simulate", REF_INI, [], "experiment.scheme.n0", True),
    ("simulate", REF_INI, ["experiment.scheme.family=sqrt_n_polylog"],
     "experiment.scheme.q", False),
    ("simulate", REF_INI, ["experiment.scheme.family=table"],
     "experiment.scheme.levels", False),
    ("simulate", REF_INI, ["reference.scheme.family=sqrt_n"], "reference.scheme.n0", True),
    ("validate", GAUSS_INI, [], "experiment.d", True),
    ("validate", GAUSS_INI, _LADDER, "experiment.law.c", False),
    ("validate", GAUSS_INI, ["experiment.scheme.family=sqrt_n"], "experiment.scheme.n0", True),
    ("shift-experiment", SHIFT_INI, [], "experiment.law.c", False),
    ("shift-experiment", SHIFT_INI, [], "shift.n_grid", True),
    ("tightness-probe", PROBE_INI, [], "probe.horizons", True),
    ("tightness-probe", PROBE_INI, [], "probe.y_grid", False),
    ("integral-test", None, [], "integral.a", False),
    ("integral-test", None, [], "integral.b", False),
    ("integral-test", None, [], "integral.d", True),
    ("integral-test", None, [], "integral.n_max", True),
    ("tail-bounds", None, [], "tails.sigmas", False),
]


@pytest.mark.parametrize(
    "command, text, extra, key, whole", _NUMERIC_KEYS,
    ids=[f"{row[0]}-{row[3]}" for row in _NUMERIC_KEYS],
)
def test_every_numeric_key_rejects_what_is_not_its_number(
    tmp_path, capsys, command, text, extra, key, whole
):
    bad = ("2.5", "abc", "nan", "inf") if whole else ("abc", "nan", "inf")
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    if text is not None:
        args += ["--config", _write(tmp_path, "c.ini", text)]
    for item in extra:
        args += ["--set", item]
    for value in bad:
        assert main([*args, "--set", f"{key}={value}"]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"key '{key.rsplit('.', 1)[1]}'" in err
        assert ("whole" in err) == (whole and value == "2.5"), err
        assert not (out / "summary.jsonl").exists()


@pytest.mark.parametrize(
    "item, field, want",
    [
        ("integral.d=2.0", "d", 2),
        ("integral.d=2e0", "d", 2),
        ("integral.n_max=100000", "command", "integral-test"),
        ("integral.n_max=1e5", "command", "integral-test"),
        ("integral.n_max=100000.0", "command", "integral-test"),
    ],
)
def test_integral_whole_keys_accept_every_spelling(tmp_path, item, field, want):
    out = tmp_path / "out"
    assert main(["integral-test", "--out", str(out), "--set", "integral.n_max=1e5",
                 "--set", item]) == 0
    assert _summaries(out)[-1][field] == want


def test_shift_grid_accepts_float_spellings(tmp_path):
    shift = _write(tmp_path, "s.ini", SHIFT_INI)
    out = tmp_path / "out"
    assert main(["shift-experiment", "--config", shift, "--out", str(out),
                 "--set", "shift.n_grid=1e4,100000000.0"]) == 0
    assert [row["n"] for row in _summaries(out)[-1]["driver"]] == [10**4, 10**8]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "x.ini", "--threads", "0"],
        ["shift-experiment", "--config", "x.ini", "--threads", "-1"],
        *(
            [command, flag, "1"]
            for command in ("integral-test", "tail-bounds", "validate")
            for flag in ("--threads", "--seed")
        ),
        ["replay", "--config", "x.ini", "--threads", "1"],
    ],
)
def test_flags_a_subcommand_does_not_take_exit_2(argv, capsys):
    """A thread count below 1 is a usage error, and so is --threads or
    --seed on a subcommand that runs no experiment (replay takes --seed)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# import surface
# ---------------------------------------------------------------------------

IMPORT_PROBE = """\
import sys
import lilmax.cli
from lilmax.models import prob_tail, radial_profile, uniform_cube
heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
print([m for m in heavy if m in sys.modules])
radial_profile(uniform_cube(3), [0.5, 2.0])
prob_tail(uniform_cube(3), [0.5, 2.0])
print("scipy.interpolate" in sys.modules)
prob_tail(uniform_cube(4), [0.5, 2.0])
print("scipy.interpolate" in sys.modules)
"""


SPECIAL_PROBE = """\
import sys
from dataclasses import replace
import lilmax.cli
from lilmax.harness import ExperimentConfig, run_experiment
from lilmax.models import gaussian_iso, radial_profile
from lilmax.truncation import sqrt_n
cfg = ExperimentConfig(
    name="probe", law=gaussian_iso(1), scheme=None, mode="classical",
    n=5000, replications=3, master_seed=7,
)
run_experiment(cfg)
run_experiment(replace(cfg, scheme=sqrt_n()))
print("scipy.special" in sys.modules)
radial_profile(gaussian_iso(2), [0.5, 2.0])
print("scipy.special" in sys.modules)
"""

RATIO_PROBE = """\
import sys
from lilmax.limits import aniso_chisq_density_ratio
print("scipy.special" in sys.modules)
print(repr(aniso_chisq_density_ratio(0.5, [10.0, 20.0]).max_ratio))
"""


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(lilmax.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.interpolate alone pulls in optimize, sparse, spatial and linalg,
    # about a third of a second per process; only cube laws with d >= 4
    # need it, and they load it on first use
    out = _fresh_python(IMPORT_PROBE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "False", "True"]


def test_special_functions_load_on_first_use():
    # scipy.special costs about 0.2 s per process; the classical statistic
    # calls no special function, so a classical run never loads it, with or
    # without a scheme
    out = _fresh_python(SPECIAL_PROBE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False", "True"]
    out = _fresh_python(RATIO_PROBE)
    assert out.returncode == 0, out.stderr
    want = aniso_chisq_density_ratio(0.5, [10.0, 20.0]).max_ratio
    assert out.stdout.splitlines() == ["False", repr(want)]
