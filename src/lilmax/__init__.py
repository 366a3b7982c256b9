"""Simulation laboratory for extreme-value limits of normalized random walks.

The package is organized in layers:

- ``psdmat``: small symmetric PSD matrices on numpy.linalg: square roots,
  operator norms, and the Loewner order.
- ``iterlog``: floored iterated logarithms and the scaling/centering
  normalizer pair of the running-max statistic.
- ``models``: the catalogue of isotropic increment laws (gaussian, signs,
  cube, and calibrated radius ladders) with exact truncated moments.
- ``truncation``: truncation-level schemes, the read-only normalizer-matrix
  sequence, and the growth-window/tail-condition validators.
- ``walkstats``: single-pass streaming evaluation of the centered running-max
  statistic in its classical, self-normalized and Feller modes.
- ``limits``: the Gumbel limit family, norm-tail functions and envelopes,
  sub-Gaussian norm tail bounds, the variance-deficit density ratio, and
  the boundary-series convergence classifier with its partial-sum probe.
- ``harness``: reproducible seeded Monte Carlo experiments, empirical CDFs,
  KS distances, and CSV/JSONL persistence.
- ``cli``: the ``lilmax`` command-line front end.
"""

__version__ = "0.1.0"

from .harness import (  # noqa: F401
    ECDF,
    ExperimentConfig,
    ks_one_sample,
    ks_two_sample,
    run_experiment,
)
from .limits import (  # noqa: F401
    GumbelLaw,
    PhiFamily,
    integral_test_classify,
    integral_test_partial_sums,
)
from .models import (  # noqa: F401
    atom_ladder,
    atom_ladder_fat,
    gaussian_iso,
    rademacher_product,
    uniform_cube,
)
from .truncation import GammaSequence, sqrt_n, sqrt_n_invLL5, sqrt_n_polylog  # noqa: F401
from .walkstats import de_statistic, trajectory  # noqa: F401
