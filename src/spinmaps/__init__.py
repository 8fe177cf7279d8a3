"""Open-system qubit maps reduced from small XXZ spin networks.

Modules
-------
qlinalg   dense register operators, partial traces, propagators
network   Hamiltonian builders for the supported topologies
reduced   exact reduced dynamical maps of a tagged network qubit, CP tests
analytic  closed-form map parameters for the solvable families
ensemble  network / time averages, steady channels, fluctuations, quench
disorder  disorder-averaged two-qubit XX maps, Monte Carlo and closed form
measure   measures and samplers on the phase-covariant channel body
cli       command line front end (also `python -m spinmaps.cli`)
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .qlinalg import HermitianEvolver, partial_trace_keep
from .network import NetworkSpec, PairSpec, build_hamiltonian, t_scale
from .reduced import (FixedPoint, MapExtractor, PCParams, choi_check, choi_matrix, cp_ok,
                      fit_pc, fixed_point, transfer_from_unitary)
from .ensemble import (GENERIC_H_RATIO, FluctuationSeries, SpectralAverage, SteadyChannel,
                       converged_fluctuations, esym, network_average, network_series,
                       quench_demo, steady_channel, time_average)
from .analytic import cc_params, closed_form, ring_params, xx_eigenparams, xx_reduced_map
from .disorder import (DisorderSpec, PairEig, closedform_disorder_components,
                       disorder_components, max_tau3_trunc_tanh, mc_disorder_map,
                       sample_pair, trunc_tanh_pdf)
from .measure import (BrokenPCParams, MeasureSpec, VolumeEstimate, broken_uniform_sample,
                      cp_contains, eigenvalues_broken, eigenvalues_pc, time_grid,
                      trajectory_sample, trunc_gauss_sample, uniform_sample, volume_mc)

# every name the imports above bind; the submodules themselves are not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
