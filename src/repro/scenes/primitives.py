"""Signed-distance primitives that compose the ground-truth scenes.

Each primitive contributes a smooth density blob (a sigmoid of its signed
distance) and an albedo. Scenes are unions of primitives; see
:mod:`repro.scenes.fields` for how the contributions combine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SceneError


def _as_vec3(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64).reshape(-1)
    if arr.shape != (3,):
        raise SceneError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def _row_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an ``(N, 3)`` array.

    The same products and left-to-right sum as ``np.linalg.norm(v,
    axis=1)``, so the result is bit-identical, but three column passes
    skip NumPy's slow axis-1 reduction over 3-wide rows.
    """
    x, y, z = v.T
    return np.sqrt(x * x + y * y + z * z)


@dataclass
class Primitive:
    """Base class: a blob of matter with a signed distance and an albedo.

    Parameters
    ----------
    center:
        World-space position.
    albedo:
        Base RGB color in [0, 1].
    density_scale:
        Peak volumetric density of the blob.
    softness:
        Width of the density falloff around the surface, in world units.
    checker:
        If > 0, modulates the albedo with a 3D checker pattern of that
        period — gives the texture-indexing stage something to resolve.
    sheen:
        Strength of a simple view-dependent highlight; exercises the
        spherical-harmonics / view-direction paths.
    """

    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    albedo: np.ndarray = field(default_factory=lambda: np.array([0.7, 0.7, 0.7]))
    density_scale: float = 40.0
    softness: float = 0.03
    checker: float = 0.0
    sheen: float = 0.0
    sheen_dir: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self) -> None:
        self.center = _as_vec3(self.center)
        self.albedo = np.clip(_as_vec3(self.albedo), 0.0, 1.0)
        self.sheen_dir = _as_vec3(self.sheen_dir)
        norm = np.linalg.norm(self.sheen_dir)
        self.sheen_dir = self.sheen_dir / (norm if norm > 0 else 1.0)
        if self.density_scale <= 0:
            raise SceneError("density_scale must be positive")
        if self.softness <= 0:
            raise SceneError("softness must be positive")

    # -- geometry -------------------------------------------------------
    def sdf(self, points: np.ndarray) -> np.ndarray:
        """Signed distance from each point to the primitive surface."""
        raise NotImplementedError

    def density(self, points: np.ndarray) -> np.ndarray:
        """Volumetric density contribution: high inside, ~0 outside."""
        d = self.sdf(np.asarray(points, dtype=np.float64))
        # Sigmoid falloff across the surface; clip the exponent for safety.
        z = np.clip(-d / self.softness, -60.0, 60.0)
        return self.density_scale / (1.0 + np.exp(-z))

    # -- appearance ------------------------------------------------------
    def color(self, points: np.ndarray, view_dirs: np.ndarray | None = None) -> np.ndarray:
        """Albedo at each point, with optional checker and view sheen."""
        points = np.asarray(points, dtype=np.float64)
        rgb = np.broadcast_to(self.albedo, (len(points), 3)).copy()
        if self.checker > 0:
            cells = np.floor(points / self.checker).sum(axis=1).astype(np.int64)
            dim = np.where(cells % 2 == 0, 1.0, 0.55)
            rgb *= dim[:, None]
        if self.sheen > 0 and view_dirs is not None:
            view_dirs = np.asarray(view_dirs, dtype=np.float64)
            alignment = np.clip(view_dirs @ self.sheen_dir, 0.0, 1.0) ** 2
            rgb = np.clip(rgb + self.sheen * alignment[:, None], 0.0, 1.0)
        return rgb

    def bounding_radius(self) -> float:
        """Radius of a sphere around ``center`` containing the primitive."""
        raise NotImplementedError


@dataclass
class Sphere(Primitive):
    radius: float = 0.3

    def sdf(self, points: np.ndarray) -> np.ndarray:
        return _row_norm(points - self.center) - self.radius

    def bounding_radius(self) -> float:
        return self.radius


@dataclass
class Box(Primitive):
    half_extents: np.ndarray = field(default_factory=lambda: np.array([0.3, 0.3, 0.3]))

    def __post_init__(self) -> None:
        super().__post_init__()
        self.half_extents = _as_vec3(self.half_extents)
        if np.any(self.half_extents <= 0):
            raise SceneError("box half extents must be positive")

    def sdf(self, points: np.ndarray) -> np.ndarray:
        q = np.abs(points - self.center) - self.half_extents
        qx, qy, qz = q.T
        outside = _row_norm(np.maximum(q, 0.0))
        inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
        return outside + inside

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.half_extents))


@dataclass
class Torus(Primitive):
    major_radius: float = 0.3
    minor_radius: float = 0.08

    def sdf(self, points: np.ndarray) -> np.ndarray:
        local = points - self.center
        ring = np.sqrt(local[:, 0] ** 2 + local[:, 1] ** 2) - self.major_radius
        return np.sqrt(ring**2 + local[:, 2] ** 2) - self.minor_radius

    def bounding_radius(self) -> float:
        return self.major_radius + self.minor_radius


@dataclass
class Cylinder(Primitive):
    radius: float = 0.15
    half_height: float = 0.3

    def sdf(self, points: np.ndarray) -> np.ndarray:
        local = points - self.center
        radial = np.sqrt(local[:, 0] ** 2 + local[:, 1] ** 2) - self.radius
        axial = np.abs(local[:, 2]) - self.half_height
        outside = np.sqrt(np.maximum(radial, 0.0) ** 2 + np.maximum(axial, 0.0) ** 2)
        inside = np.minimum(np.maximum(radial, axial), 0.0)
        return outside + inside

    def bounding_radius(self) -> float:
        return float(np.hypot(self.radius, self.half_height))


@dataclass
class FloorPlane(Primitive):
    """A horizontal ground plane at ``center[2]`` (checkered by default)."""

    def __post_init__(self) -> None:
        if self.checker == 0.0:
            self.checker = 0.5
        super().__post_init__()

    def sdf(self, points: np.ndarray) -> np.ndarray:
        return points[:, 2] - self.center[2]

    def bounding_radius(self) -> float:
        return np.inf
