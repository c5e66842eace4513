"""Exact one-dimensional optimal transport, shell-mixture geodesics, and
sliced-Wasserstein distance experiments.

Names load on first use (PEP 562): ``import swgeo`` imports no submodule,
and reading ``swgeo.sw_pq`` or ``swgeo.sliced`` imports :mod:`swgeo.sliced`
then.  ``_SOURCE`` maps each public name to the submodule defining it.
"""

from importlib import import_module

__version__ = "0.1.0"

_SOURCE = {name: module for module, names in {
    "families": "CircleMixture ShellMixture circle_family circle_project dilate "
                "mixture_control_curve mu_curve mu_family nu_curve nu_family "
                "radon_project s_of_theta shell_from_text shell_masses shell_to_text "
                "transformed_nu_curve translate w_p_mu01",
    "measure1d": "ArcsinePart Measure1D MeasureError PiecewiseLinearMap QuantileFn "
                 "cdf_eval measure_from_text measure_to_text pushforward_pwl quantile "
                 "sample",
    "sliced": "PointCloud empirical_w1d sample_shell sliced_geodesic_deviation sw_pq "
              "sw_pq_empirical sw_per_direction w_inf_circle w_p_radial",
    "sphere": "DirectionSet beta_directions c_dq mc_directions",
    "transport1d": "geodesic_deviation interpolate optimal_map wasserstein_inf "
                   "wasserstein_p",
}.items() for name in names.split()}
_SUBMODULES = ("cli", "families", "measure1d", "sliced", "sphere", "svg", "transport1d")

__all__ = ["__version__", *sorted(_SOURCE)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
