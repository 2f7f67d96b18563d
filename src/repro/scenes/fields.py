"""Ground-truth scene fields and the reference volume renderer.

A :class:`SceneField` is the analytic stand-in for a captured scene: a
density + RGB field assembled from signed-distance primitives. Every
scene representation (mesh, tri-plane, hash grid, Gaussians, MLP) is
*built from* this field, and rendering quality (PSNR) is measured against
the reference image this field produces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SceneError
from repro.scenes.camera import Camera
from repro.scenes.primitives import Primitive

#: Density below which a point is treated as empty space.
EMPTY_DENSITY = 1e-3


def radial_columns(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The x, y, z columns of ``(..., 3)`` points and each point's norm.

    The norm takes the products and left-to-right sum of
    ``np.linalg.norm(points, axis=-1)``, so it is bit-identical to it,
    but three column passes skip NumPy's slow reduction over 3-wide rows.
    """
    x, y, z = np.moveaxis(points, -1, 0)
    return x, y, z, np.sqrt(x * x + y * y + z * z)


def contract_unbounded(points: np.ndarray) -> np.ndarray:
    """Mip-NeRF-360 scene contraction used by unbounded pipelines [8].

    Points inside the unit ball are unchanged; points outside are mapped
    to the shell of radius 2: ``x -> (2 - 1/|x|) * x/|x|``. Grid-based
    representations sample the *contracted* space so that far-away
    content still lands inside a finite grid.
    """
    points = np.asarray(points, dtype=np.float64)
    x, y, z, norms = radial_columns(points)
    safe = np.maximum(norms, 1e-12)
    scale = 2.0 - 1.0 / safe
    inside = norms <= 1.0
    out = np.empty_like(points)
    for axis, col in enumerate((x, y, z)):
        out[..., axis] = np.where(inside, col, scale * (col / safe))
    return out


class SceneField:
    """Analytic density + color field composed of primitives.

    Parameters
    ----------
    primitives:
        The matter in the scene. Densities combine by taking the maximum
        contribution (a soft union); colors blend weighted by density.
    name:
        Identifier used in reports.
    unbounded:
        True for Unbounded-360-style scenes: cameras sit inside the scene
        and content extends to infinity (handled by scene contraction).
    bounds:
        Axis-aligned box containing the *foreground* content; bounded
        pipelines sample only inside it.
    background:
        ``"white"`` (NeRF-Synthetic convention), ``"sky"`` (outdoor), or
        ``"dark"`` (indoor ambient).
    """

    def __init__(
        self,
        primitives: Sequence[Primitive],
        name: str = "scene",
        unbounded: bool = False,
        bounds: tuple = ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        background: str = "white",
    ) -> None:
        if not primitives:
            raise SceneError("a scene needs at least one primitive")
        if background not in ("white", "sky", "dark"):
            raise SceneError(f"unknown background {background!r}")
        self.primitives = list(primitives)
        self.name = name
        self.unbounded = unbounded
        self.bounds = (
            np.asarray(bounds[0], dtype=np.float64),
            np.asarray(bounds[1], dtype=np.float64),
        )
        if np.any(self.bounds[0] >= self.bounds[1]):
            raise SceneError("bounds min must be strictly below bounds max")
        self.background = background

    # ------------------------------------------------------------------
    # Field queries
    # ------------------------------------------------------------------
    def density(self, points: np.ndarray) -> np.ndarray:
        """Volumetric density at each point (soft union of primitives)."""
        points = np.asarray(points, dtype=np.float64)
        total = np.zeros(len(points))
        for prim in self.primitives:
            np.maximum(total, prim.density(points), out=total)
        return total

    def color(self, points: np.ndarray, view_dirs: np.ndarray | None = None) -> np.ndarray:
        """Density-weighted blend of primitive colors at each point."""
        points = np.asarray(points, dtype=np.float64)
        weights = np.zeros((len(points), 1))
        rgb = np.zeros((len(points), 3))
        for prim in self.primitives:
            w = prim.density(points)[:, None]
            rgb += w * prim.color(points, view_dirs)
            weights += w
        return rgb / np.maximum(weights, 1e-9)

    def density_and_color(
        self, points: np.ndarray, view_dirs: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both field quantities in one call (saves one pass over prims)."""
        points = np.asarray(points, dtype=np.float64)
        density = np.zeros(len(points))
        weights = np.zeros((len(points), 1))
        rgb = np.zeros((len(points), 3))
        for prim in self.primitives:
            w = prim.density(points)
            np.maximum(density, w, out=density)
            rgb += w[:, None] * prim.color(points, view_dirs)
            weights += w[:, None]
        return density, rgb / np.maximum(weights, 1e-9)

    # ------------------------------------------------------------------
    # Background
    # ------------------------------------------------------------------
    def background_color(self, view_dirs: np.ndarray) -> np.ndarray:
        """Color returned by rays that exit the scene."""
        view_dirs = np.asarray(view_dirs, dtype=np.float64)
        n = len(view_dirs)
        if self.background == "white":
            return np.ones((n, 3))
        if self.background == "dark":
            return np.full((n, 3), 0.05)
        # "sky": vertical gradient from horizon haze to zenith blue.
        up = np.clip(view_dirs[:, 2], 0.0, 1.0)[:, None]
        horizon = np.array([0.85, 0.87, 0.90])
        zenith = np.array([0.35, 0.55, 0.95])
        return horizon * (1.0 - up) + zenith * up

    # ------------------------------------------------------------------
    # Reference rendering (ground truth for PSNR)
    # ------------------------------------------------------------------
    def ray_t_range(self) -> tuple[float, float]:
        """Default marching interval for rays in this scene."""
        if self.unbounded:
            return 0.1, 24.0
        lo, hi = self.bounds
        diag = float(np.linalg.norm(hi - lo))
        # Orbit cameras sit ~1.5 diagonals out; march across the box.
        return 0.05, 2.5 * diag

    def render_reference(
        self,
        camera: Camera,
        n_samples: int = 128,
        chunk: int = 8192,
    ) -> np.ndarray:
        """Volume-render the analytic field: the ground-truth image.

        Uses the same emission-absorption quadrature as the NeRF pipeline
        (Sec. II-B) but queries the field directly, so representation
        error is exactly the PSNR gap each pipeline shows against it.
        """
        if n_samples < 2:
            raise SceneError("need at least two samples per ray")
        origins, dirs = camera.rays()
        t0, t1 = self.ray_t_range()
        ts = np.linspace(t0, t1, n_samples)
        dt = ts[1] - ts[0]
        image = np.zeros((camera.num_pixels, 3))
        for start in range(0, camera.num_pixels, chunk):
            sl = slice(start, min(start + chunk, camera.num_pixels))
            o, d = origins[sl], dirs[sl]
            pts = o[:, None, :] + d[:, None, :] * ts[None, :, None]
            flat = pts.reshape(-1, 3)
            flat_dirs = np.repeat(d, n_samples, axis=0)
            sigma, rgb = self.density_and_color(flat, flat_dirs)
            sigma = sigma.reshape(len(o), n_samples)
            rgb = rgb.reshape(len(o), n_samples, 3)
            image[sl] = composite_along_rays(
                sigma, rgb, dt, self.background_color(d)
            )
        return image.reshape(camera.height, camera.width, 3)

    # ------------------------------------------------------------------
    # Workload statistics (drive the performance model)
    # ------------------------------------------------------------------
    def occupancy_fraction(self, rng: np.random.Generator, n_probe: int = 8192) -> float:
        """Fraction of the bounded volume that contains matter.

        Grid pipelines skip empty space; this statistic feeds the
        sample-count estimates in :mod:`repro.compile`.
        """
        lo, hi = self.bounds
        pts = rng.uniform(lo, hi, size=(n_probe, 3))
        return float(np.mean(self.density(pts) > 0.5))

    def aabb_diagonal(self) -> float:
        lo, hi = self.bounds
        return float(np.linalg.norm(hi - lo))


def composite_along_rays(
    sigma: np.ndarray,
    rgb: np.ndarray,
    dt: float | np.ndarray,
    background: np.ndarray | None = None,
) -> np.ndarray:
    """Emission-absorption compositing (the "Blending" step, Sec. II-B).

    Parameters
    ----------
    sigma:
        Densities, shape ``(rays, samples)``.
    rgb:
        Colors, shape ``(rays, samples, 3)``.
    dt:
        Step size — scalar or per-sample array broadcastable to ``sigma``.
    background:
        Optional ``(rays, 3)`` color composited behind the volume.

    Returns the blended ``(rays, 3)`` image and is shared by every volume
    pipeline in this package, which is precisely the paper's point: the
    blending step is common across pipelines.
    """
    alpha = 1.0 - np.exp(-np.maximum(sigma, 0.0) * dt)
    transmittance = np.cumprod(1.0 - alpha + 1e-10, axis=1)
    # Shift right: transmittance *before* each sample.
    transmittance = np.concatenate(
        [np.ones_like(transmittance[:, :1]), transmittance[:, :-1]], axis=1
    )
    weights = alpha * transmittance
    out = np.einsum("rs,rsc->rc", weights, rgb)
    if background is not None:
        residual = 1.0 - weights.sum(axis=1, keepdims=True)
        out = out + residual * background
    return out
