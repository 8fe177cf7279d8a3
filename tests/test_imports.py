import ast
import pkgutil
from pathlib import Path

import spinmaps
import spinmaps.cli as cli

EXPORTS = [
    "BrokenPCParams", "DisorderSpec", "FixedPoint", "FluctuationSeries",
    "GENERIC_H_RATIO", "HermitianEvolver", "MapExtractor", "MeasureSpec",
    "NetworkSpec", "PCParams", "PairEig", "PairSpec", "SpectralAverage",
    "SteadyChannel", "VolumeEstimate",
    "broken_uniform_sample", "build_hamiltonian", "cc_params",
    "choi_check", "choi_matrix", "closed_form", "closedform_disorder_components",
    "converged_fluctuations", "cp_contains", "cp_ok",
    "disorder_components", "eigenvalues_broken", "eigenvalues_pc", "esym",
    "fit_pc", "fixed_point", "max_tau3_trunc_tanh",
    "mc_disorder_map", "network_average", "network_series", "partial_trace_keep",
    "quench_demo", "ring_params", "sample_pair", "steady_channel", "t_scale",
    "time_average", "time_grid", "trajectory_sample", "transfer_from_unitary",
    "trunc_gauss_sample", "trunc_tanh_pdf", "uniform_sample", "volume_mc",
    "xx_eigenparams", "xx_reduced_map",
]


def test_package_exports():
    assert spinmaps.__all__ == EXPORTS
    assert all(name in vars(spinmaps) for name in EXPORTS)  # bound at import


def test_cli_imports_library_modules_at_top_level():
    # The CLI reaches the library through module attributes only: a function
    # bound by name at import would hide its calls from a patch of its module
    # (the bench tracer, the monkeypatch tests). __version__ is a string.
    modules = {info.name for info in pkgutil.iter_modules(spinmaps.__path__)}
    tree = ast.parse(Path(cli.__file__).read_text())
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        where = f"cli.py:{node.lineno}"
        assert node in tree.body, f"{where}: import inside a function or block"
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif node.level:
            assert node.level == 1 and node.module is None, \
                f"{where}: only `from . import <module>`"
            for alias in node.names:
                assert alias.asname is None, f"{where}: {alias.name} renamed"
                assert alias.name in modules | {"__version__"}, \
                    f"{where}: {alias.name} is not a spinmaps module"
            continue
        else:
            roots = [node.module.split(".")[0]]
        assert "spinmaps" not in roots, f"{where}: only `from . import <module>`"
