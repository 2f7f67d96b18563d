"""Ray sampling and the occupancy grid used for empty-space skipping.

Every volume pipeline (MLP, low-rank, hash-grid) casts rays, samples
points, skips empty space with a coarse occupancy grid, and only shades
surviving samples. The ratio ``samples_shaded / samples_total`` is a key
workload statistic for the performance model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SceneError
from repro.scenes.fields import SceneField, contract_unbounded, radial_columns


def sample_along_rays(
    origins: np.ndarray,
    dirs: np.ndarray,
    t_range: tuple[float, float],
    n_samples: int,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, float]:
    """Sample points along rays; returns ``(points, dt)``.

    Stratified when ``rng`` is given (training), uniform midpoints when
    deterministic (rendering). ``points`` has shape (rays, samples, 3).
    """
    if n_samples < 2:
        raise SceneError("need at least two samples per ray")
    t0, t1 = t_range
    if not t0 < t1:
        raise SceneError("t_range must be increasing")
    edges = np.linspace(t0, t1, n_samples + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dt = float(edges[1] - edges[0])
    if rng is not None:
        jitter = rng.uniform(-0.5, 0.5, size=(len(origins), n_samples)) * dt
        ts = mids[None, :] + jitter
    else:
        ts = np.broadcast_to(mids, (len(origins), n_samples))
    points = origins[:, None, :] + dirs[:, None, :] * ts[..., None]
    return points, dt


class OccupancyGrid:
    """A coarse boolean grid marking where the scene has matter.

    Built once per scene from the ground-truth field (the real systems
    maintain it from the trained representation); queried per sample to
    skip shading of empty space.
    """

    def __init__(
        self,
        field: SceneField,
        resolution: int = 32,
        threshold: float = 0.1,
        supersample: int = 3,
    ) -> None:
        if resolution < 2:
            raise SceneError("occupancy resolution must be >= 2")
        self.resolution = resolution
        self.contracted = field.unbounded
        if self.contracted:
            lo = np.full(3, -2.0)
            hi = np.full(3, 2.0)
        else:
            lo, hi = field.bounds
        self.lo, self.hi = np.asarray(lo, float), np.asarray(hi, float)

        # Probe each cell at supersample^3 jittered points.
        lin = (np.arange(resolution) + 0.5) / resolution
        grid = np.stack(
            np.meshgrid(lin, lin, lin, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        occupied = np.zeros(len(grid), dtype=bool)
        rng = np.random.default_rng(0)
        cell = (self.hi - self.lo) / resolution
        for _ in range(max(1, supersample**3 // 2)):
            jitter = rng.uniform(-0.5, 0.5, size=grid.shape) / resolution
            world = self.lo + (grid + jitter) * (self.hi - self.lo)
            query = world
            if self.contracted:
                # The grid lives in contracted space, the field in world
                # space: invert the contraction approximately by scaling
                # radially (exact for |x| <= 1, monotone outside).
                query = _uncontract(world)
            occupied |= field.density(query) > threshold
        self.cells = occupied.reshape(resolution, resolution, resolution)

    @property
    def occupancy(self) -> float:
        """Fraction of occupied cells."""
        return float(self.cells.mean())

    def cell_index(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer cell coordinates ``(ix, iy, iz)`` of (possibly
        contracted) ``(..., 3)`` points; indexes :attr:`cells` directly."""
        span = self.hi - self.lo
        return tuple(
            np.clip(
                np.floor((col - lo) / extent * self.resolution).astype(np.int64),
                0,
                self.resolution - 1,
            )
            for col, lo, extent in zip(np.moveaxis(points, -1, 0), self.lo, span)
        )

    def query(self, points: np.ndarray, already_contracted: bool = False) -> np.ndarray:
        """True where a world-space point may contain matter."""
        points = np.asarray(points, dtype=np.float64)
        if self.contracted and not already_contracted:
            points = contract_unbounded(points)
        hit = self.cells[self.cell_index(points)]
        for col, lo, hi in zip(np.moveaxis(points, -1, 0), self.lo, self.hi):
            hit &= col >= lo
            hit &= col <= hi
        return hit

    def storage_bytes(self) -> int:
        """One bit per cell, as shipped with real models."""
        return self.cells.size // 8


def importance_sample(
    bin_edges: np.ndarray,
    weights: np.ndarray,
    n_samples: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Hierarchical (coarse-to-fine) sampling: draw ``n_samples`` depths
    per ray from the piecewise-constant PDF the coarse pass produced.

    ``bin_edges`` has shape (bins + 1,), ``weights`` (rays, bins).
    Returns sorted sample depths of shape (rays, n_samples). This is
    NeRF's fine-network sampler [67]; the accelerator sees it as extra
    GEMM batch rows concentrated near surfaces.
    """
    if n_samples < 1:
        raise SceneError("need at least one importance sample")
    weights = np.asarray(weights, dtype=np.float64) + 1e-5
    pdf = weights / weights.sum(axis=1, keepdims=True)
    cdf = np.concatenate(
        [np.zeros((len(pdf), 1)), np.cumsum(pdf, axis=1)], axis=1
    )
    if rng is not None:
        u = rng.uniform(0.0, 1.0, size=(len(pdf), n_samples))
    else:
        u = np.broadcast_to(
            (np.arange(n_samples) + 0.5) / n_samples, (len(pdf), n_samples)
        ).copy()

    # Invert the CDF per ray.
    idx = np.empty((len(pdf), n_samples), dtype=np.int64)
    for r in range(len(pdf)):
        idx[r] = np.searchsorted(cdf[r], u[r], side="right") - 1
    idx = np.clip(idx, 0, weights.shape[1] - 1)
    lo = cdf[np.arange(len(pdf))[:, None], idx]
    hi = cdf[np.arange(len(pdf))[:, None], idx + 1]
    frac = np.where(hi > lo, (u - lo) / np.maximum(hi - lo, 1e-12), 0.5)
    edges = np.asarray(bin_edges, dtype=np.float64)
    depths = edges[idx] + frac * (edges[idx + 1] - edges[idx])
    return np.sort(depths, axis=1)


def _uncontract(points: np.ndarray) -> np.ndarray:
    """Inverse of :func:`~repro.scenes.fields.contract_unbounded`."""
    points = np.asarray(points, dtype=np.float64)
    x, y, z, norms = radial_columns(points)
    safe = np.maximum(norms, 1e-12)
    # |y| = 2 - 1/|x|  =>  |x| = 1 / (2 - |y|)
    inv = 1.0 / np.maximum(2.0 - safe, 1e-6)
    inside = norms <= 1.0
    out = np.empty_like(points)
    for axis, col in enumerate((x, y, z)):
        out[..., axis] = np.where(inside, col, (col / safe) * inv)
    return out
