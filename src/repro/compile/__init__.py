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

from repro.compile.profiles import (
    FULL_SCALE_PROFILES,
    GaussianProfile,
    MeshProfile,
    VolumeProfile,
    profile_for,
)
from repro.compile.measure import measure_coeffs, clear_measure_cache
from repro.compile.compilers import (
    COMPILERS,
    compile_program,
)

__all__ = [
    "FULL_SCALE_PROFILES",
    "MeshProfile",
    "VolumeProfile",
    "GaussianProfile",
    "profile_for",
    "measure_coeffs",
    "clear_measure_cache",
    "COMPILERS",
    "compile_program",
]
