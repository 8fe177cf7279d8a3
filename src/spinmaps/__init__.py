"""Open-system qubit maps reduced from small XXZ spin networks.

Modules
-------
qlinalg   phase-covariant channel algebra, CP tests, propagators
network   Hamiltonian builders for the supported topologies
reduced   exact reduced dynamical maps of a tagged network qubit
analytic  closed-form map parameters for the solvable families
ensemble  network / time averages, steady channels, fluctuations, quench
disorder  disorder-averaged two-qubit XX maps, Monte Carlo and closed form
measure   measures and samplers on the phase-covariant channel body
cli       command line front end (also `python -m spinmaps.cli`)

Submodules are imported lazily so that `spinmaps.cli --threads` can cap the
BLAS pool before numpy loads.
"""

_EXPORTS = {
    # qlinalg
    "HermitianEvolver": "qlinalg",
    "partial_trace_keep": "qlinalg",
    # network
    "NetworkSpec": "network",
    "PairSpec": "network",
    "build_hamiltonian": "network",
    "charge_operator": "network",
    "t_scale": "network",
    # reduced
    "PCParams": "reduced",
    "FixedPoint": "reduced",
    "MapExtractor": "reduced",
    "cp_ok": "reduced",
    "choi_matrix": "reduced",
    "choi_check": "reduced",
    "fit_pc": "reduced",
    "fixed_point": "reduced",
    "transfer_from_unitary": "reduced",
    # analytic
    "cc_params": "analytic",
    "ring_params": "analytic",
    "xx_eigenparams": "analytic",
    "xx_reduced_map": "analytic",
    "TRANSCRIPTION_FIXES": "analytic",
    # ensemble
    "GENERIC_H_RATIO": "ensemble",
    "SteadyChannel": "ensemble",
    "FluctuationSeries": "ensemble",
    "esym": "ensemble",
    "network_average": "ensemble",
    "network_series": "ensemble",
    "time_average": "ensemble",
    "SpectralAverage": "ensemble",
    "steady_channel": "ensemble",
    "fluctuations": "ensemble",
    "converged_fluctuations": "ensemble",
    "quench_demo": "ensemble",
    # disorder
    "DisorderSpec": "disorder",
    "PairEig": "disorder",
    "sample_pair": "disorder",
    "mc_disorder_map": "disorder",
    "closedform_disorder_components": "disorder",
    "disorder_components": "disorder",
    "trunc_tanh_pdf": "disorder",
    "max_tau3_trunc_tanh": "disorder",
    # measure
    "MeasureSpec": "measure",
    "VolumeEstimate": "measure",
    "BrokenPCParams": "measure",
    "cp_contains": "measure",
    "cp_mask": "measure",
    "uniform_sample": "measure",
    "volume_mc": "measure",
    "eigenvalues_pc": "measure",
    "eigenvalues_broken": "measure",
    "broken_uniform_sample": "measure",
    "trunc_gauss_sample": "measure",
    "time_grid": "measure",
    "trajectory_sample": "measure",
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'spinmaps' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{modname}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for the next lookup
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
