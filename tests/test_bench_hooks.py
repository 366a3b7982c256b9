"""The names perfbench reaches into lilmax by must keep resolving.

``perfbench/tracing.py`` patches each ``BOUNDARIES`` entry in the module
that calls it, and ``perfbench/child.py`` calls a few helpers directly; a
rename in lilmax would otherwise surface only as a failed benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lilmax import harness, models, walkstats
from lilmax.models import gaussian_iso, uniform_cube
from lilmax.truncation import GammaSequence, sqrt_n

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("module_name, attr, span", _load_tracing().BOUNDARIES)
def test_tracing_boundary_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_child_names_resolve():
    assert callable(walkstats.from_increments)
    assert isinstance(walkstats.BLOCK, int) and walkstats.BLOCK > 0
    assert callable(harness.replication_seed)


def test_patched_names_are_reached(monkeypatch):
    """A seeded self-normalized walk draws through ``walkstats.sample`` and
    normalizes through ``GammaSequence.inv_apply``, so spans land on both.
    Each draw returns its (m, d) block, which the ``models.sample`` span is
    sized from.

    ``inv_apply`` runs once per chunk the pruning bound cannot skip: on this
    walk only the first of nine chunks."""
    calls = {"sample": 0, "inv_apply": 0}
    shapes = []
    sample, inv_apply = walkstats.sample, GammaSequence.inv_apply

    def counted_sample(*args, **kwargs):
        calls["sample"] += 1
        out = sample(*args, **kwargs)
        shapes.append(out.shape)
        return out

    def counted_inv_apply(self, *args):
        calls["inv_apply"] += 1
        return inv_apply(self, *args)

    monkeypatch.setattr(walkstats, "sample", counted_sample)
    monkeypatch.setattr(GammaSequence, "inv_apply", counted_inv_apply)
    law = gaussian_iso(2)
    n = walkstats.BLOCK + 10
    rec = walkstats.de_statistic(
        walkstats.trajectory(law, n, 3), GammaSequence(law, sqrt_n(), n), "self_normalized"
    )
    assert np.isfinite(rec.value)
    assert calls == {"sample": 2, "inv_apply": 1}
    assert shapes == [(walkstats.BLOCK, 2), (10, 2)]


@pytest.mark.parametrize(
    "law, scheme, mode",
    [
        (gaussian_iso(1), None, "classical"),
        (gaussian_iso(1), sqrt_n(), "classical"),
        (uniform_cube(2), sqrt_n(), "self_normalized"),
        (gaussian_iso(1), sqrt_n(), "feller"),
    ],
)
def test_scan_probe_matches_replication_zero(law, scheme, mode):
    """``perfbench/child.py scan`` times ``de_statistic`` on replication 0's
    increments drawn up front block by block, against a ``GammaSequence``
    built whenever the config has a scheme.  That must be the statistic the
    harness computes for replication 0, or the probe times other work."""
    cfg = harness.ExperimentConfig(
        name="scan", law=law, scheme=scheme, mode=mode,
        n=2 * walkstats.BLOCK + 10, replications=1, master_seed=1608,
    )
    rng = np.random.default_rng(harness.replication_seed(cfg.master_seed, 0))
    blocks = [
        models.sample(law, rng, min(walkstats.BLOCK, cfg.n - off))
        for off in range(0, cfg.n, walkstats.BLOCK)
    ]
    gs = GammaSequence(law, scheme, n_max=cfg.n) if scheme is not None else None
    probe = walkstats.de_statistic(
        walkstats.from_increments(law, np.concatenate(blocks)), gs, mode
    )
    rec = harness.replicate(cfg, harness.build_normalizer(cfg), 0)
    assert (probe.value, probe.argmax_k, probe.max_ratio) == (
        rec.value, rec.argmax_k, rec.max_ratio
    )
