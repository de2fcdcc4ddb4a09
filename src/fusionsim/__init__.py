"""Exact simulation of ancilla-boosted type-II fusion gates plus a
percolation engine for the cluster states they build.

The public surface groups into four layers:

* :mod:`fusionsim.fock`: sparse Fock states over (port, polarization,
  wave-packet) modes and exact evolution through passive elements.
* :mod:`fusionsim.experiment`: Bell-pair and N00N preparations, the
  fusion interferometer, imperfection models, and analyzer statistics.
* :mod:`fusionsim.detection`: click-pattern discrimination, multiplexed
  pseudo-number-resolving detectors, and the derived estimators.
* :mod:`fusionsim.percolation`: microcanonical union-find sweeps with
  binomial convolution for largest-cluster and spanning observables.

``fusionsim.cli`` exposes the same functionality as a command-line tool.
"""

from .experiment import (
    FULL_PREPARATION,
    BellLabel,
    ExperimentConfig,
    FusionResult,
    hom_dip,
    hom_visibility,
    prepare_bell_pair,
    prepare_noon_pair,
    run_fusion,
    singlet_fidelity,
)
from .detection import (
    OutcomeStats,
    PPNRDConfig,
    estimate_fidelity_singlet,
    nfold_rate,
    phase_sweep,
    ppnrd_response,
    success_probability,
)
from .fock import FockState, Mode, apply_network, apply_op, create_photons
from .percolation import (
    Lattice,
    PercModel,
    SweepCurve,
    build_square_lattice,
    direct_monte_carlo,
    estimate_threshold,
    sweep_curves,
)

__version__ = "0.1.0"

__all__ = [
    "BellLabel",
    "ExperimentConfig",
    "FULL_PREPARATION",
    "FockState",
    "FusionResult",
    "Lattice",
    "Mode",
    "OutcomeStats",
    "PPNRDConfig",
    "PercModel",
    "SweepCurve",
    "apply_network",
    "apply_op",
    "build_square_lattice",
    "create_photons",
    "direct_monte_carlo",
    "estimate_fidelity_singlet",
    "estimate_threshold",
    "hom_dip",
    "hom_visibility",
    "nfold_rate",
    "phase_sweep",
    "ppnrd_response",
    "prepare_bell_pair",
    "prepare_noon_pair",
    "run_fusion",
    "singlet_fidelity",
    "success_probability",
    "sweep_curves",
]
