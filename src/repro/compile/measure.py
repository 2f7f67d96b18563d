"""Per-scene workload coefficients measured from the functional renderers.

The compiler needs dimensionless statistics that depend on scene content
— what fraction of ray samples survive empty-space skipping, how much of
the screen the meshes cover, how strongly splats overlap. We obtain them
by rendering a small probe frame with quick-built (low-fidelity)
representations: these statistics depend on scene *geometry*, not on how
well the representation is trained, so the probes use minimal training.
The 3DGS probe only plans its frames (projection, tile binning, per-tile
sort), because every 3DGS coefficient is a count; it never blends. The
volume pipelines probe the ground-truth field along rays instead.
Results are cached per (scene, pipeline, probe view count).
"""

from __future__ import annotations

import numpy as np

from repro.renderers import build_representation, PIPELINE_RENDERERS
from repro.renderers.nerf.sampling import OccupancyGrid, sample_along_rays
from repro.scenes import Camera, get_scene, orbit_poses

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

_CACHE: dict[tuple[str, str, int], dict[str, float]] = {}


def clear_measure_cache() -> None:
    _CACHE.clear()
    _RAY_STATS_CACHE.clear()


def measure_coeffs(scene_name: str, pipeline: str, n_views: int = 2) -> dict[str, float]:
    """Probe a scene under one pipeline; returns averaged coefficients.

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

    Results are cached per (scene, pipeline, ``n_views``). The volume
    pipelines (``mlp``, ``lowrank``, ``hashgrid``, ``mixrt``) ignore
    ``n_views``: their ray statistics always average the same three
    probe views, so any ``n_views`` returns the same coefficients.
    """
    key = (scene_name, pipeline, n_views)
    if key in _CACHE:
        return _CACHE[key]

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
        _CACHE[key] = coeffs
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

    samples_total = totals.get("samples_total", 0.0)
    if samples_total > 0:
        # Prefer the early-ray-termination count (what a deployed
        # renderer shades); fall back to the skip-only count.
        effective = totals.get("samples_effective", totals.get("samples_shaded", 0.0))
        coeffs["live_fraction"] = effective / samples_total

    if totals.get("tri_tests", 0.0) > 0:
        covered = totals.get("mlp_inputs", totals.get("texture_fetches", 0.0) / 4.0)
        if pipeline == "mixrt":
            covered = totals.get("texture_fetches", 0.0) / 4.0
        coeffs["coverage"] = min(covered / pixels, 1.0)
        coeffs["overdraw"] = totals.get("tri_tests", 0.0) / pixels

    projected = totals.get("gaussians_projected", 0.0)
    if projected > 0:
        visible = totals.get("mlp_inputs", 0.0)  # SH decoded per visible
        coeffs["visible_fraction"] = min(visible / projected, 1.0)
        if visible > 0:
            coeffs["splat_overlap"] = totals.get("splat_tests", 0.0) / pixels / visible
            coeffs["sort_share"] = totals.get("sort_elements", 0.0) / pixels / visible

    _CACHE[key] = coeffs
    return coeffs


_RAY_STATS_CACHE: dict[str, dict[str, float]] = {}


def _ray_stats(scene_name: str) -> dict[str, float]:
    """Field-derived ray statistics: occupancy-skip plus early-ray-
    termination survival fraction, averaged over probe views."""
    if scene_name in _RAY_STATS_CACHE:
        return _RAY_STATS_CACHE[scene_name]
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
