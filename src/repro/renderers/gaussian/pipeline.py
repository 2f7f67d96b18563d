"""The 3D-Gaussian pipeline end to end (Fig. 6)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.renderers.base import RenderStats, as_image
from repro.renderers.gaussian.gaussians import GaussianModel
from repro.renderers.gaussian.sh import eval_sh
from repro.renderers.gaussian.sort import counting_depth_sort
from repro.renderers.gaussian.splat import (
    ALPHA_CULL_THRESHOLD,
    ProjectedSplats,
    assign_tiles,
    project_gaussians,
)
from repro.scenes.camera import Camera
from repro.scenes.fields import SceneField

#: Rays stop accumulating once transmittance drops below this.
TRANSMITTANCE_FLOOR = 1e-3


def splat_power(d0: np.ndarray, d1: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Quadratic form ``delta^T inv delta`` per pixel and splat.

    ``d0`` / ``d1`` are the ``(p, g)`` x / y columns of ``delta`` (pixel
    minus splat center), ``inv`` the ``(g, 2, 2)`` inverse 2D
    covariances; returns ``(p, g)``. The four terms are written out in
    the order, and with the left-to-right grouping, in which
    ``np.einsum("pgi,gij,pgj->pg", delta, inv, delta)`` accumulates
    them, so the result is bit-identical to it at ~4x the speed.
    Regrouping them, e.g. ``(a + b) + (c + d)``, changes the rounding.
    """
    i00, i01, i10, i11 = inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 0], inv[:, 1, 1]
    return d0 * i00 * d0 + d0 * i01 * d1 + d1 * i10 * d0 + d1 * i11 * d1


@dataclass
class TilePlan:
    """One frame's splats and depth-sorted tiles, before any blending.

    ``tiles`` lists ``(y0, y1, x0, x1, rows)`` per occupied tile, in
    :func:`assign_tiles` order, with ``rows`` sorted front to back;
    ``stats`` already holds every counter of the frame.
    """

    splats: ProjectedSplats
    tiles: list[tuple[int, int, int, int, np.ndarray]]
    stats: RenderStats


class GaussianRenderer:
    """Renders a :class:`GaussianModel` — the 3DGS pipeline."""

    pipeline = "gaussian"

    def __init__(self, model: GaussianModel, field: SceneField, patch: int = 16) -> None:
        self.model = model
        self.field = field
        self.patch = patch

    def plan(self, camera: Camera) -> TilePlan:
        """Project, bin into tiles and sort per tile; count the whole frame.

        Every workload counter is a count fixed here, so the probe
        compile stops at the plan and never blends.
        """
        stats = RenderStats()
        stats.add("pixels", camera.num_pixels)

        splats = project_gaussians(self.model, camera)
        stats.add("gaussians_projected", splats.n_projected)
        n_visible = len(splats.index)
        if n_visible:
            stats.add("mlp_inputs", n_visible)
            stats.add("mlp_macs", n_visible * self.model.sh_coeffs.shape[1] * 3)

        tiles = []
        for (ty, tx), rows in assign_tiles(
            splats, camera.height, camera.width, self.patch
        ).items():
            y0, x0 = ty * self.patch, tx * self.patch
            y1 = min(y0 + self.patch, camera.height)
            x1 = min(x0 + self.patch, camera.width)
            order, compares = counting_depth_sort(splats.depth[rows])
            stats.add("sort_elements", len(rows))
            stats.add("sort_compares", compares)
            # Every pixel of the tile tests, then blends, every splat in it.
            pairs = (y1 - y0) * (x1 - x0) * len(rows)
            stats.add("splat_tests", pairs)
            stats.add("blend_samples", pairs)
            tiles.append((y0, y1, x0, x1, rows[order]))
        return TilePlan(splats, tiles, stats)

    def render(self, camera: Camera) -> tuple[np.ndarray, RenderStats]:
        """Plan the frame, then blend each tile front to back."""
        plan = self.plan(camera)
        splats = plan.splats

        # View-dependent color via SH — a vector-matrix multiply, i.e.
        # the GEMM micro-operator (Sec. II-E).
        if len(splats.index):
            dirs = self.model.means[splats.index] - camera.origin
            dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
            colors = eval_sh(self.model.sh_coeffs[splats.index], dirs)
        else:
            colors = np.zeros((0, 3))

        _, bg_dirs = camera.rays()
        image = self.field.background_color(bg_dirs).reshape(
            camera.height, camera.width, 3
        )
        for y0, y1, x0, x1, rows in plan.tiles:
            image[y0:y1, x0:x1] = self._blend_tile(
                splats, colors, rows, y0, y1, x0, x1, image[y0:y1, x0:x1]
            )
        return as_image(image.reshape(-1, 3), camera.height, camera.width), plan.stats

    # ------------------------------------------------------------------
    def _blend_tile(
        self,
        splats: ProjectedSplats,
        colors: np.ndarray,
        rows: np.ndarray,
        y0: int,
        y1: int,
        x0: int,
        x1: int,
        background: np.ndarray,
    ) -> np.ndarray:
        """Front-to-back alpha blending of one tile's sorted splats."""
        ys, xs = np.mgrid[y0:y1, x0:x1]
        # Pixel-minus-center per axis; never built as one (p, g, 2) array,
        # which on a crowded tile is the blend's largest temporary.
        center = splats.center[rows]
        d0 = (xs.ravel() + 0.5)[:, None] - center[:, 0]  # (p, g)
        d1 = (ys.ravel() + 0.5)[:, None] - center[:, 1]
        power = splat_power(d0, d1, splats.inv_cov[rows])
        alpha = splats.opacity[rows][None, :] * np.exp(-0.5 * power)
        alpha = np.where(alpha < ALPHA_CULL_THRESHOLD, 0.0, np.minimum(alpha, 0.99))

        transmittance = np.cumprod(1.0 - alpha + 1e-12, axis=1)
        transmittance = np.concatenate(
            [np.ones((len(d0), 1)), transmittance[:, :-1]], axis=1
        )
        # Hard stop once the ray is saturated (3DGS early termination).
        weights = np.where(
            transmittance > TRANSMITTANCE_FLOOR, alpha * transmittance, 0.0
        )
        rgb = weights @ colors[rows]
        residual = 1.0 - weights.sum(axis=1, keepdims=True)
        out = rgb + residual * background.reshape(-1, 3)
        return out.reshape(y1 - y0, x1 - x0, 3)
