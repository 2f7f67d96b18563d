"""Pipeline -> micro-operator compiler (Sec. IV made executable).

``compile_program(scene, pipeline, width, height)`` lowers one frame of
one rendering pipeline into a :class:`~repro.core.microops.MicroOpProgram`
— an ordered list of the five common micro-operators with quantified
workloads. Workloads combine:

* **full-scale profiles** (:mod:`repro.compile.profiles`): the deployed
  representation sizes of the paper's reference implementations
  (MobileNeRF / KiloNeRF / MeRF / Instant-NGP / 3DGS), and
* **measured coefficients** (:mod:`repro.compile.measure`): dimensionless
  per-scene statistics (ray occupancy, raster coverage, splat overlap),
  read from a table frozen from probes of the functional renderers.
"""

from importlib import import_module

#: Public name -> submodule that defines it. The exports load on first
#: use, so importing the package runs no submodule: ``python -m
#: repro.compile.measure`` then executes ``measure`` exactly once, as
#: ``__main__``, instead of after the package has already imported it.
#: The first use loads every export, submodules in this order (the
#: order of the eager imports this replaced).
_EXPORTS = {
    "FULL_SCALE_PROFILES": "profiles",
    "MeshProfile": "profiles",
    "VolumeProfile": "profiles",
    "GaussianProfile": "profiles",
    "profile_for": "profiles",
    "measure_coeffs": "measure",
    "clear_measure_cache": "measure",
    "COMPILERS": "compilers",
    "compile_program": "compilers",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(
            f"module 'repro.compile' has no attribute {name!r}")
    for export, module in _EXPORTS.items():
        globals()[export] = getattr(
            import_module(f"repro.compile.{module}"), export)
    return globals()[name]
