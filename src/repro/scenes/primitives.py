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
        """Signed distance from each point to the primitive surface.

        Returns a fresh array (never a view of ``points``): ``density``
        overwrites it in place.
        """
        raise NotImplementedError

    def density(self, points: np.ndarray) -> np.ndarray:
        """Volumetric density contribution: high inside, ~0 outside."""
        z = self.sdf(np.asarray(points, dtype=np.float64))
        # Sigmoid falloff across the surface; clip the exponent for safety.
        # In place on the fresh sdf array, in the order of
        # ``scale / (1 + exp(-clip(-d / softness, -60, 60)))``.
        np.negative(z, out=z)
        z /= self.softness
        np.clip(z, -60.0, 60.0, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.divide(self.density_scale, z, out=z)

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
        # |p - c| over the three columns: the products and left-to-right
        # sum of ``np.linalg.norm(p - c, axis=1)``, without its slow
        # axis-1 reduction over 3-wide rows.
        x, y, z = points.T
        cx, cy, cz = self.center
        d = x - cx
        d *= d
        dy = y - cy
        dy *= dy
        d += dy
        dy = np.subtract(z, cz, out=dy)
        dy *= dy
        d += dy
        np.sqrt(d, out=d)
        d -= self.radius
        return d

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
        # q = |p - c| - h per column; outside = |max(q, 0)| and inside =
        # min(max(qx, qy, qz), 0), each in the order of the row form.
        x, y, z = points.T
        (cx, cy, cz), (hx, hy, hz) = self.center, self.half_extents
        qx, qy, qz = x - cx, y - cy, z - cz
        for q, h in ((qx, hx), (qy, hy), (qz, hz)):
            np.abs(q, out=q)
            q -= h
        inside = np.maximum(qx, qy)
        np.maximum(inside, qz, out=inside)
        np.minimum(inside, 0.0, out=inside)
        for q in (qx, qy, qz):
            np.maximum(q, 0.0, out=q)
            q *= q
        qx += qy
        qx += qz
        outside = np.sqrt(qx, out=qx)
        outside += inside
        return outside

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.half_extents))


@dataclass
class Torus(Primitive):
    major_radius: float = 0.3
    minor_radius: float = 0.08

    def sdf(self, points: np.ndarray) -> np.ndarray:
        # ring = sqrt(lx^2 + ly^2) - R; d = sqrt(ring^2 + lz^2) - r.
        x, y, z = points.T
        cx, cy, cz = self.center
        ring = x - cx
        ring *= ring
        tmp = y - cy
        tmp *= tmp
        ring += tmp
        np.sqrt(ring, out=ring)
        ring -= self.major_radius
        ring *= ring
        tmp = np.subtract(z, cz, out=tmp)
        tmp *= tmp
        ring += tmp
        np.sqrt(ring, out=ring)
        ring -= self.minor_radius
        return ring

    def bounding_radius(self) -> float:
        return self.major_radius + self.minor_radius


@dataclass
class Cylinder(Primitive):
    radius: float = 0.15
    half_height: float = 0.3

    def sdf(self, points: np.ndarray) -> np.ndarray:
        # radial = sqrt(lx^2 + ly^2) - r, axial = |lz| - h; outside =
        # sqrt(max(radial, 0)^2 + max(axial, 0)^2), inside =
        # min(max(radial, axial), 0).
        x, y, z = points.T
        cx, cy, cz = self.center
        radial = x - cx
        radial *= radial
        axial = y - cy
        axial *= axial
        radial += axial
        np.sqrt(radial, out=radial)
        radial -= self.radius
        axial = np.subtract(z, cz, out=axial)
        np.abs(axial, out=axial)
        axial -= self.half_height
        inside = np.maximum(radial, axial)
        np.minimum(inside, 0.0, out=inside)
        np.maximum(radial, 0.0, out=radial)
        radial *= radial
        np.maximum(axial, 0.0, out=axial)
        axial *= axial
        radial += axial
        outside = np.sqrt(radial, out=radial)
        outside += inside
        return outside

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
