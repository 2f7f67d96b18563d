"""Per-scene workload coefficients: a frozen table and the probe behind it.

The compiler needs dimensionless statistics that depend on scene content
— what fraction of ray samples survive empty-space skipping, how much of
the screen the meshes cover, how strongly splats overlap. The domain is
closed (the registry's scenes times the six pipelines), so
:func:`measure_coeffs` reads them from the generated table in
:mod:`repro.compile.coeff_table` and never renders anything.

:func:`probe_coeffs` is the live probe that produced the table: it
renders a small probe frame with quick-built (low-fidelity)
representations. These statistics depend on scene *geometry*, not on
how well the representation is trained, so the probes use minimal
training. The 3DGS probe only plans its frames (projection, tile
binning, per-tile sort), because every 3DGS coefficient is a count; it
never blends. The volume pipelines probe the ground-truth field along
rays instead. The probe imports the renderers only when it runs, so
compiling a program imports none.

Regenerate the table after any change that moves a coefficient::

    python -m repro.compile.measure --write-table

``tests/test_probe_kernels.py`` re-probes every pair against the table
and checks that the writer reproduces the committed file byte for byte.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro.compile.coeff_table import COEFF_TABLE
from repro.errors import SceneError
from repro.scenes import Camera, get_scene, orbit_poses, scene_names

#: Probe frame resolution; statistics are resolution-stable ratios.
PROBE_SIZE = 40

#: Samples per probe ray for the field-based ray statistics.
PROBE_SAMPLES = 96

#: MixRT's volume pass only shades content its mesh layer represents
#: poorly; empirically about half of a standalone volume pass survives.
MIXRT_VOLUME_SHARE = 0.5

#: Quick-build parameters per pipeline: fidelity does not affect the
#: measured geometry statistics, so training is minimal.
_PROBE_BUILD_KWARGS: dict[str, dict] = {
    "mesh": {"quality": 0.8, "train_steps": 10},
    "mlp": {"grid_size": 3, "train_steps": 10, "samples_per_ray": 96},
    "lowrank": {"train_steps": 10, "samples_per_ray": 96},
    "hashgrid": {"train_steps": 10, "samples_per_ray": 96},
    "gaussian": {"n_gaussians": 4000},
    "mixrt": {"mesh_train_steps": 10, "hash_train_steps": 10, "samples_per_ray": 96},
}

#: The generated table module :func:`write_coeff_table` rewrites.
TABLE_PATH = Path(__file__).with_name("coeff_table.py")

_TABLE_HEADER = '''\
"""Frozen probe coefficients for every (scene, pipeline) pair.

GENERATED by ``python -m repro.compile.measure --write-table`` from
``repro.compile.measure.probe_coeffs``; do not edit by hand.
``tests/test_probe_kernels.py`` re-probes every pair against this table
and checks that the writer reproduces this file byte for byte.

Keys are ``"scene/pipeline"``; values are ``float.hex`` strings.
"""

COEFF_TABLE: dict[str, dict[str, str]] = {
'''


def clear_measure_cache() -> None:
    """Drop the probe's per-scene ray statistics (mainly for tests)."""
    _RAY_STATS_CACHE.clear()


def measure_coeffs(scene_name: str, pipeline: str) -> dict[str, float]:
    """The frozen probe coefficients of one (scene, pipeline) pair.

    Keys (all dimensionless):

    * ``live_fraction`` — samples surviving empty-space skipping.
    * ``coverage`` — fraction of pixels covered by geometry.
    * ``overdraw`` — triangle coverage tests per pixel. Dominated by the
      screen-space footprint of visible surfaces, so it is stable under
      retessellation (finer triangles shrink individually).
    * ``visible_fraction`` — splats surviving culling.
    * ``splat_overlap`` — splat/pixel tests per visible splat, times the
      probe count (scale-free overlap statistic).
    * ``sort_share`` — sorted elements per pixel per visible splat.
    * ``complexity`` — the scene registry's relative complexity knob.

    Each call returns a fresh dict, so a caller may mutate it. These are
    :func:`probe_coeffs` at its default two probe views.
    """
    get_scene(scene_name)
    row = COEFF_TABLE.get(f"{scene_name}/{pipeline}")
    if row is None:
        pipelines = sorted({key.split("/")[1] for key in COEFF_TABLE})
        raise SceneError(f"unknown pipeline {pipeline!r}; choose from {pipelines}")
    return {k: float.fromhex(v) for k, v in row.items()}


def probe_coeffs(scene_name: str, pipeline: str, n_views: int = 2) -> dict[str, float]:
    """Probe a scene under one pipeline; returns averaged coefficients.

    The keys are :func:`measure_coeffs`'s. The volume pipelines
    (``mlp``, ``lowrank``, ``hashgrid``, ``mixrt``) ignore ``n_views``:
    their ray statistics always average the same three probe views, and
    they share one memoized ray pass per scene.
    """
    from repro.renderers import PIPELINE_RENDERERS, build_representation

    spec = get_scene(scene_name)
    field = spec.field()

    if pipeline in ("mlp", "lowrank", "hashgrid", "mixrt"):
        # Ray statistics come from the ground-truth field: a *converged*
        # model skips and terminates where the true density says so, so
        # probing the field avoids any dependence on probe-model quality.
        coeffs = dict(_ray_stats(scene_name))
        coeffs["complexity"] = spec.complexity
        if pipeline == "mixrt":
            coeffs["live_fraction"] *= MIXRT_VOLUME_SHARE
        return coeffs
    model = build_representation(
        scene_name, pipeline, cache=True, **_PROBE_BUILD_KWARGS.get(pipeline, {})
    )
    renderer = PIPELINE_RENDERERS[pipeline](model, field)
    poses = orbit_poses(spec.camera_radius, max(n_views, 1))

    totals: dict[str, float] = {}
    for pose in poses[:n_views]:
        camera = Camera(PROBE_SIZE, PROBE_SIZE, pose=pose)
        if pipeline == "gaussian":
            # Every 3DGS coefficient is a count: plan the tiles, skip the blend.
            stats = renderer.plan(camera).stats
        else:
            _image, stats = renderer.render(camera)
        for k, v in stats.counts.items():
            totals[k] = totals.get(k, 0.0) + v

    pixels = max(totals.get("pixels", 1.0), 1.0)
    coeffs: dict[str, float] = {"complexity": spec.complexity}

    if totals.get("tri_tests", 0.0) > 0:
        covered = totals.get("mlp_inputs", totals.get("texture_fetches", 0.0) / 4.0)
        coeffs["coverage"] = min(covered / pixels, 1.0)
        coeffs["overdraw"] = totals.get("tri_tests", 0.0) / pixels

    projected = totals.get("gaussians_projected", 0.0)
    if projected > 0:
        visible = totals.get("mlp_inputs", 0.0)  # SH decoded per visible
        coeffs["visible_fraction"] = min(visible / projected, 1.0)
        if visible > 0:
            coeffs["splat_overlap"] = totals.get("splat_tests", 0.0) / pixels / visible
            coeffs["sort_share"] = totals.get("sort_elements", 0.0) / pixels / visible

    return coeffs


_RAY_STATS_CACHE: dict[str, dict[str, float]] = {}


def _ray_stats(scene_name: str) -> dict[str, float]:
    """Field-derived ray statistics: occupancy-skip plus early-ray-
    termination survival fraction, averaged over probe views."""
    if scene_name in _RAY_STATS_CACHE:
        return _RAY_STATS_CACHE[scene_name]
    from repro.renderers.nerf.sampling import OccupancyGrid, sample_along_rays

    spec = get_scene(scene_name)
    field = spec.field()
    occupancy = OccupancyGrid(field, resolution=32)
    poses = orbit_poses(spec.camera_radius, 3)
    t_range = field.ray_t_range()

    live_total = 0
    sample_total = 0
    for pose in poses:
        camera = Camera(PROBE_SIZE, PROBE_SIZE, pose=pose)
        origins, dirs = camera.rays()
        points, dt = sample_along_rays(origins, dirs, t_range, PROBE_SAMPLES)
        flat = points.reshape(-1, 3)
        live = occupancy.query(flat).reshape(len(origins), PROBE_SAMPLES)
        sigma = field.density(flat).reshape(len(origins), PROBE_SAMPLES)
        alpha = 1.0 - np.exp(-np.maximum(sigma, 0.0) * dt)
        transmittance = np.cumprod(1.0 - alpha + 1e-10, axis=1)
        before_term = np.concatenate(
            [np.ones_like(transmittance[:, :1], dtype=bool), transmittance[:, :-1] > 1e-2],
            axis=1,
        )
        live_total += int((live & before_term).sum())
        sample_total += live.size
    stats = {"live_fraction": live_total / max(sample_total, 1)}
    _RAY_STATS_CACHE[scene_name] = stats
    return stats


def probe_table() -> dict[str, dict[str, str]]:
    """Every (scene, pipeline) pair probed live, in table form:
    ``"scene/pipeline"`` -> sorted ``{coefficient: float.hex}``."""
    from repro.renderers import PIPELINE_RENDERERS

    return {
        f"{scene}/{pipeline}": {
            k: float(v).hex() for k, v in sorted(probe_coeffs(scene, pipeline).items())
        }
        for scene in scene_names()
        for pipeline in PIPELINE_RENDERERS
    }


def write_coeff_table(path: Path = TABLE_PATH) -> Path:
    """Probe every pair and write the table module to ``path``."""
    lines = [_TABLE_HEADER]
    for key, row in probe_table().items():
        lines.append(f'    "{key}": {{\n')
        lines.extend(f'        "{k}": "{v}",\n' for k, v in row.items())
        lines.append("    },\n")
    lines.append("}\n")
    path.write_text("".join(lines))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compile.measure",
        description="Probe every (scene, pipeline) pair and regenerate "
        "the frozen coefficient table.",
    )
    parser.add_argument("--write-table", action="store_true", required=True,
                        help=f"rewrite {TABLE_PATH.name} from a live probe")
    parser.parse_args(argv)
    print(f"wrote {write_coeff_table()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
