"""The probe-compile kernels are column-form, in-place rewrites of NumPy
row reductions and broadcasts; they must stay bit-identical to the
formulas they replaced.

The reference formulas below are the ones the kernels used before:
``np.linalg.norm`` / ``max`` over the 3-wide rows, ``(N, 3) - (3,)``
broadcasts, the out-of-place clipped sigmoid, a 3-operand ``einsum``,
and the ray-sample / occupancy-probe broadcasts against a 3-wide last
axis. The ``probe_coeffs`` golden pins the probe coefficients
as ``float.hex`` so a last-digit drift anywhere on the probe path fails
here instead of passing the ``rel=1e-6`` serve goldens silently.

Serving reads the frozen table in ``repro.compile.coeff_table``, never
the probe; ``TestCoeffTable`` re-probes all of it and checks that the
writer reproduces the committed file byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compile.coeff_table import COEFF_TABLE
from repro.compile.measure import (
    TABLE_PATH,
    clear_measure_cache,
    measure_coeffs,
    probe_coeffs,
    probe_table,
    write_coeff_table,
)
from repro.errors import SceneError
from repro.renderers import PIPELINE_RENDERERS
from repro.renderers.gaussian.pipeline import splat_power
from repro.renderers.nerf.sampling import (
    OccupancyGrid,
    _uncontract,
    sample_along_rays,
)
from repro.scenes import contract_unbounded, get_scene, scene_names
from repro.scenes.primitives import Box, Cylinder, FloorPlane, Sphere, Torus


def _box_sdf_reference(box: Box, points: np.ndarray) -> np.ndarray:
    q = np.abs(points - box.center) - box.half_extents
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(q.max(axis=1), 0.0)
    return outside + inside


def _sphere_sdf_reference(sphere: Sphere, points: np.ndarray) -> np.ndarray:
    return np.linalg.norm(points - sphere.center, axis=1) - sphere.radius


def _cylinder_sdf_reference(cyl: Cylinder, points: np.ndarray) -> np.ndarray:
    local = points - cyl.center
    radial = np.sqrt(local[:, 0] ** 2 + local[:, 1] ** 2) - cyl.radius
    axial = np.abs(local[:, 2]) - cyl.half_height
    outside = np.sqrt(np.maximum(radial, 0.0) ** 2 + np.maximum(axial, 0.0) ** 2)
    inside = np.minimum(np.maximum(radial, axial), 0.0)
    return outside + inside


def _torus_sdf_reference(torus: Torus, points: np.ndarray) -> np.ndarray:
    local = points - torus.center
    ring = np.sqrt(local[:, 0] ** 2 + local[:, 1] ** 2) - torus.major_radius
    return np.sqrt(ring**2 + local[:, 2] ** 2) - torus.minor_radius


def _floor_sdf_reference(floor: FloorPlane, points: np.ndarray) -> np.ndarray:
    return points[:, 2] - floor.center[2]


_SDF_REFERENCE = {
    Box: _box_sdf_reference,
    Sphere: _sphere_sdf_reference,
    Cylinder: _cylinder_sdf_reference,
    Torus: _torus_sdf_reference,
    FloorPlane: _floor_sdf_reference,
}


def _density_reference(prim, points: np.ndarray) -> np.ndarray:
    d = _SDF_REFERENCE[type(prim)](prim, points)
    z = np.clip(-d / prim.softness, -60.0, 60.0)
    return prim.density_scale / (1.0 + np.exp(-z))


def _field_density_reference(field, points: np.ndarray) -> np.ndarray:
    total = np.zeros(len(points))
    for prim in field.primitives:
        np.maximum(total, _density_reference(prim, points), out=total)
    return total


def _contract_reference(points: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(points, axis=-1, keepdims=True)
    safe = np.maximum(norms, 1e-12)
    contracted = (2.0 - 1.0 / safe) * (points / safe)
    return np.where(norms <= 1.0, points, contracted)


def _uncontract_reference(points: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(points, axis=-1, keepdims=True)
    safe = np.maximum(norms, 1e-12)
    inv = 1.0 / np.maximum(2.0 - safe, 1e-6)
    outside = (points / safe) * inv
    return np.where(norms <= 1.0, points, outside)


def _occupancy_query_reference(grid: OccupancyGrid, points: np.ndarray) -> np.ndarray:
    if grid.contracted:
        points = _contract_reference(points)
    inside = np.all((points >= grid.lo) & (points <= grid.hi), axis=-1)
    unit = (points - grid.lo) / (grid.hi - grid.lo)
    idx = np.clip(np.floor(unit * grid.resolution).astype(np.int64), 0,
                  grid.resolution - 1)
    return grid.cells[idx[..., 0], idx[..., 1], idx[..., 2]] & inside


def _edge_points(center: np.ndarray, surface: np.ndarray,
                 rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The shared edge cases around one primitive (or scene) ``center``,
    given points on its surface."""
    n = len(surface)
    return {
        "random": center + rng.normal(scale=2.0, size=(n, 3)),
        "on_surface": surface,
        "tiny": surface + rng.normal(scale=1e-12, size=(n, 3)),
        "center": np.tile(center, (4, 1)),
        "far": center + rng.normal(scale=1e6, size=(n, 3)),
        "far_corners": center + rng.choice([-1e6, 1e6], size=(n, 3)),
    }


def _unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    unit = rng.normal(size=(n, 3))
    return unit / np.linalg.norm(unit, axis=1, keepdims=True)


def _surface(prim, rng: np.random.Generator, n: int = 2000) -> np.ndarray:
    """Points on (or, for a box, on a face of) the primitive's surface."""
    c = prim.center
    if isinstance(prim, Sphere):
        return c + prim.radius * _unit_vectors(rng, n)
    if isinstance(prim, Box):
        h = prim.half_extents
        signs = rng.choice([-1.0, 1.0], size=(n, 3))
        on_face = c + rng.uniform(-1.0, 1.0, size=(n, 3)) * h
        axis = rng.integers(0, 3, size=n)
        on_face[np.arange(n), axis] = (c + signs * h)[np.arange(n), axis]
        return on_face
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    ring = np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
    if isinstance(prim, Cylinder):
        side = c + prim.radius * ring
        side[:, 2] += rng.uniform(-1.0, 1.0, size=n) * prim.half_height
        cap = c + rng.uniform(0.0, 1.0, size=(n, 1)) * prim.radius * ring
        cap[:, 2] += rng.choice([-1.0, 1.0], size=n) * prim.half_height
        return np.concatenate([side[: n // 2], cap[n // 2:]])
    if isinstance(prim, Torus):
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        tube = (prim.major_radius + prim.minor_radius * np.cos(phi))[:, None] * ring
        tube[:, 2] = prim.minor_radius * np.sin(phi)
        return c + tube
    assert isinstance(prim, FloorPlane)
    flat = c + rng.uniform(-5.0, 5.0, size=(n, 3))
    flat[:, 2] = c[2]
    return flat


PRIMITIVES = [
    Sphere(center=[0.2, -0.7, 1.3], radius=0.3),
    Box(center=[0.17, -0.42, 0.9], half_extents=[0.05, 0.61, 0.233]),
    Cylinder(center=[0.0, 0.0, 0.0], radius=0.15, half_height=0.3),
    Cylinder(center=[-1.3, 0.45, 2.125], radius=0.9, half_height=0.02),
    Torus(center=[0.0, 0.0, 0.0], major_radius=0.3, minor_radius=0.08),
    Torus(center=[0.6, -2.25, -0.4], major_radius=1.7, minor_radius=0.45,
          softness=0.011, density_scale=7.5),
    FloorPlane(center=[0.0, 0.0, -0.5]),
    FloorPlane(center=[3.0, -1.0, 0.0625], softness=0.2),
]
PRIMITIVE_IDS = ["sphere", "box", "cylinder", "disc", "torus", "wide_torus",
                 "floor", "soft_floor"]


def _box_points(box: Box, rng: np.random.Generator) -> dict[str, np.ndarray]:
    c, h = box.center, box.half_extents
    n = 2000
    signs = rng.choice([-1.0, 1.0], size=(n, 3))
    return {
        **_edge_points(c, _surface(box, rng, n), rng),
        "corner": c + signs * h,
        "near_corner": c + h + rng.normal(scale=1e-12, size=(n, 3)),
        "inside": c + rng.uniform(-1.0, 1.0, size=(n, 3)) * h,
    }


BOXES = [
    Box(center=[0.0, 0.0, 0.0], half_extents=[0.3, 0.3, 0.3]),
    Box(center=[0.17, -0.42, 0.9], half_extents=[0.05, 0.61, 0.233]),
    Box(center=[-3.5, 2.25, -0.125], half_extents=[1.5, 0.01, 2.0]),
]


class TestSdfKernels:
    @pytest.mark.parametrize("box", BOXES, ids=["unit", "thin", "slab"])
    def test_box_sdf_matches_norm_max_form(self, box):
        rng = np.random.default_rng(11)
        for kind, points in _box_points(box, rng).items():
            got = box.sdf(points)
            want = _box_sdf_reference(box, points)
            assert np.array_equal(got, want), kind

    @pytest.mark.parametrize("radius", [0.3, 0.071, 2.5])
    def test_sphere_sdf_matches_norm_form(self, radius):
        rng = np.random.default_rng(12)
        sphere = Sphere(center=[0.2, -0.7, 1.3], radius=radius)
        unit = rng.normal(size=(2000, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        sets = {
            "random": sphere.center + rng.normal(scale=2.0, size=(2000, 3)),
            "on_surface": sphere.center + radius * unit,
            "inside": sphere.center + 0.5 * radius * unit,
            "center": np.tile(sphere.center, (4, 1)),
            "far": sphere.center + rng.normal(scale=1e6, size=(2000, 3)),
        }
        for kind, points in sets.items():
            got = sphere.sdf(points)
            assert np.array_equal(got, _sphere_sdf_reference(sphere, points)), kind


    @pytest.mark.parametrize("prim", PRIMITIVES, ids=PRIMITIVE_IDS)
    def test_sdf_matches_row_form(self, prim):
        rng = np.random.default_rng(15)
        for kind, points in _edge_points(prim.center, _surface(prim, rng), rng).items():
            want = _SDF_REFERENCE[type(prim)](prim, points)
            assert np.array_equal(prim.sdf(points), want), kind


class TestDensityKernels:
    @pytest.mark.parametrize("prim", PRIMITIVES + BOXES,
                             ids=PRIMITIVE_IDS + ["unit", "thin", "slab"])
    def test_density_matches_clipped_sigmoid(self, prim):
        rng = np.random.default_rng(16)
        for kind, points in _edge_points(prim.center, _surface(prim, rng), rng).items():
            want = _density_reference(prim, points)
            assert np.array_equal(prim.density(points), want), kind

    @pytest.mark.parametrize("scene", ["lego", "room"])
    def test_scene_density_matches_reference(self, scene):
        field = get_scene(scene).field()
        rng = np.random.default_rng(17)
        lo, hi = field.bounds
        sets = {"bounds": rng.uniform(lo, hi, size=(4000, 3))}
        for i, prim in enumerate(field.primitives):
            for kind, points in _edge_points(prim.center, _surface(prim, rng, 200),
                                             rng).items():
                sets[f"{i}/{kind}"] = points
        for kind, points in sets.items():
            want = _field_density_reference(field, points)
            assert np.array_equal(field.density(points), want), kind

    @pytest.mark.parametrize("scene", ["lego", "room"])
    def test_queries_leave_points_unchanged(self, scene):
        # density() works in place on the array sdf() returns; sdf must
        # hand back a fresh array, never a view of the caller's points.
        field = get_scene(scene).field()
        rng = np.random.default_rng(18)
        points = rng.normal(scale=1.5, size=(500, 3))
        dirs = _unit_vectors(rng, 500)
        before = points.copy()
        calls = [lambda: field.density(points),
                 lambda: field.color(points, dirs),
                 lambda: field.density_and_color(points, dirs)]
        for prim in field.primitives:
            calls += [lambda prim=prim: prim.sdf(points),
                      lambda prim=prim: prim.density(points),
                      lambda prim=prim: prim.color(points, dirs)]
        for call in calls:
            call()
            assert np.array_equal(points, before)
        for prim in field.primitives:
            assert not np.shares_memory(prim.sdf(points), points)


class TestContractionKernels:
    def _points(self, rng):
        return {
            "random": rng.normal(scale=2.0, size=(3000, 3)),
            "unit_sphere": _unit_vectors(rng, 1000),
            "near_unit": _unit_vectors(rng, 1000) * (1.0 + rng.normal(scale=1e-12,
                                                                       size=(1000, 1))),
            "origin": np.zeros((4, 3)),
            "tiny": rng.normal(scale=1e-13, size=(1000, 3)),
            "far": rng.normal(scale=1e6, size=(1000, 3)),
            "shell": _unit_vectors(rng, 1000) * rng.uniform(1.0, 2.0, size=(1000, 1)),
        }

    def test_contract_matches_row_form(self):
        rng = np.random.default_rng(19)
        for kind, points in self._points(rng).items():
            assert np.array_equal(contract_unbounded(points),
                                  _contract_reference(points)), kind

    def test_uncontract_matches_row_form(self):
        rng = np.random.default_rng(20)
        for kind, points in self._points(rng).items():
            assert np.array_equal(_uncontract(points),
                                  _uncontract_reference(points)), kind

    @pytest.mark.parametrize("scene", ["lego", "room"])
    def test_occupancy_query_matches_row_form(self, scene):
        field = get_scene(scene).field()
        grid = OccupancyGrid(field, resolution=16)
        rng = np.random.default_rng(21)
        lo, hi = field.bounds
        sets = dict(self._points(rng))
        sets["bounds"] = rng.uniform(lo - 0.5, hi + 0.5, size=(4000, 3))
        sets["edges"] = np.concatenate([np.stack([grid.lo, grid.hi]),
                                        rng.choice([-2.0, -1.0, 1.0, 2.0], size=(500, 3))])
        scene_cells = grid.cells
        # A random pattern fills the edge cells too, so points outside
        # the grid, which clip onto them, test the bounds check.
        for cells in (scene_cells, rng.random(scene_cells.shape) < 0.5):
            grid.cells = cells
            for kind, points in sets.items():
                assert np.array_equal(grid.query(points),
                                      _occupancy_query_reference(grid, points)), kind


def _sample_along_rays_reference(origins, dirs, t_range, n_samples, rng=None):
    t0, t1 = t_range
    edges = np.linspace(t0, t1, n_samples + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dt = float(edges[1] - edges[0])
    if rng is not None:
        jitter = rng.uniform(-0.5, 0.5, size=(len(origins), n_samples)) * dt
        ts = mids[None, :] + jitter
    else:
        ts = np.broadcast_to(mids, (len(origins), n_samples))
    return origins[:, None, :] + dirs[:, None, :] * ts[..., None], dt


class _RecordingField:
    """A scene field that records every density query it answers."""

    def __init__(self, field):
        self.field = field
        self.unbounded = field.unbounded
        self.bounds = field.bounds
        self.queries = []

    def density(self, points):
        self.queries.append(np.array(points))
        return self.field.density(points)


def _occupancy_probe_reference(field, resolution, threshold, supersample):
    """The occupancy probe before the column form: the queries it makes
    and the cells it marks."""
    if field.unbounded:
        lo, hi = np.full(3, -2.0), np.full(3, 2.0)
    else:
        lo, hi = (np.asarray(b, float) for b in field.bounds)
    lin = (np.arange(resolution) + 0.5) / resolution
    grid = np.stack(
        np.meshgrid(lin, lin, lin, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    occupied = np.zeros(len(grid), dtype=bool)
    rng = np.random.default_rng(0)
    for _ in range(max(1, supersample**3 // 2)):
        jitter = rng.uniform(-0.5, 0.5, size=grid.shape) / resolution
        world = lo + (grid + jitter) * (hi - lo)
        query = _uncontract_reference(world) if field.unbounded else world
        occupied |= field.density(query) > threshold
    return occupied.reshape(resolution, resolution, resolution)


class TestSamplingKernels:
    def _rays(self, rng, n=700):
        origins = np.concatenate([
            rng.normal(scale=3.0, size=(n, 3)),
            np.zeros((4, 3)),
            rng.normal(scale=1e6, size=(8, 3)),
        ])
        dirs = np.concatenate([
            _unit_vectors(rng, n),
            np.eye(3)[[0, 1, 2, 0]] * -1.0,
            rng.normal(scale=1e-9, size=(8, 3)),
        ])
        return origins, dirs

    @pytest.mark.parametrize("t_range,n_samples", [((2.0, 6.0), 96),
                                                   ((0.05, 1e3), 2),
                                                   ((-1.5, 0.25), 33)])
    def test_sample_along_rays_matches_broadcast(self, t_range, n_samples):
        origins, dirs = self._rays(np.random.default_rng(22))
        got, dt = sample_along_rays(origins, dirs, t_range, n_samples)
        want, want_dt = _sample_along_rays_reference(origins, dirs, t_range,
                                                     n_samples)
        assert dt == want_dt
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_stratified_samples_keep_the_draw_order(self):
        origins, dirs = self._rays(np.random.default_rng(23))
        got, _ = sample_along_rays(origins, dirs, (2.0, 6.0), 64,
                                   rng=np.random.default_rng(5))
        want, _ = _sample_along_rays_reference(origins, dirs, (2.0, 6.0), 64,
                                               rng=np.random.default_rng(5))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scene", ["lego", "room"])
    @pytest.mark.parametrize("resolution,supersample", [(32, 3), (7, 2), (2, 1)])
    def test_occupancy_probe_matches_broadcast(self, scene, resolution,
                                              supersample):
        field = get_scene(scene).field()
        got_field = _RecordingField(field)
        grid = OccupancyGrid(got_field, resolution=resolution,
                             supersample=supersample)
        want_field = _RecordingField(field)
        want = _occupancy_probe_reference(want_field, resolution, 0.1,
                                          supersample)
        assert len(got_field.queries) == len(want_field.queries)
        for got_q, want_q in zip(got_field.queries, want_field.queries):
            assert np.array_equal(got_q, want_q)
        assert np.array_equal(grid.cells, want)


class TestSplatKernel:
    def test_matches_einsum_on_random_tiles(self):
        rng = np.random.default_rng(13)
        for g in [1, 2, 7, 64, 333]:
            for _ in range(10):
                pix = rng.uniform(0.0, 64.0, size=(256, 2))
                centers = rng.uniform(-8.0, 72.0, size=(g, 2))
                delta = pix[:, None, :] - centers[None, :, :]
                a = rng.normal(scale=3.0, size=(g, 2, 2))
                cov = a @ a.transpose(0, 2, 1) + 0.3 * np.eye(2)
                inv = np.linalg.inv(cov)
                want = np.einsum("pgi,gij,pgj->pg", delta, inv, delta)
                got = splat_power(delta[..., 0], delta[..., 1], inv)
                assert np.array_equal(got, want), g

    def test_asymmetric_inverse_keeps_term_order(self):
        # i01 != i10 would expose a swapped cross term.
        rng = np.random.default_rng(14)
        delta = rng.normal(scale=20.0, size=(64, 9, 2))
        inv = rng.normal(size=(9, 2, 2))
        want = np.einsum("pgi,gij,pgj->pg", delta, inv, delta)
        assert np.array_equal(splat_power(delta[..., 0], delta[..., 1], inv),
                              want)


#: ``probe_coeffs`` for the serving defaults (lego/room x
#: hashgrid/gaussian/mesh) and the other lego volume pipelines, frozen
#: as ``float.hex`` from the reduction-form kernels.
GOLDEN_COEFFS = {
    "lego/hashgrid": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.9372ea61d950dp-6",
    },
    "lego/gaussian": {
        "complexity": "0x1.0000000000000p+0",
        "sort_share": "0x1.3f822bbecaab8p-11",
        "splat_overlap": "0x1.37c5ac471b478p-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "lego/mesh": {
        "complexity": "0x1.0000000000000p+0",
        "coverage": "0x1.a5c28f5c28f5cp-3",
        "overdraw": "0x1.9075c28f5c28fp+2",
    },
    "room/hashgrid": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.a448d159e26afp-5",
    },
    "room/gaussian": {
        "complexity": "0x1.0000000000000p+0",
        "sort_share": "0x1.43d5aaa9ef28cp-10",
        "splat_overlap": "0x1.d9068f823f570p-3",
        "visible_fraction": "0x1.ca1cac083126fp-2",
    },
    "room/mesh": {
        "complexity": "0x1.0000000000000p+0",
        "coverage": "0x1.ca147ae147ae1p-1",
        "overdraw": "0x1.5768f5c28f5c3p+3",
    },
    "lego/mlp": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.9372ea61d950dp-6",
    },
    "lego/lowrank": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.9372ea61d950dp-6",
    },
    "lego/mixrt": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.9372ea61d950dp-7",
    },
}


class TestMeasureGolden:
    def test_probe_coefficients_are_bit_exact(self):
        clear_measure_cache()
        for key, golden in GOLDEN_COEFFS.items():
            scene, pipeline = key.split("/")
            coeffs = probe_coeffs(scene, pipeline)
            got = {k: float(v).hex() for k, v in sorted(coeffs.items())}
            assert got == golden, key


class TestMeasureCache:
    def test_non_default_n_views_is_measured(self):
        two = probe_coeffs("lego", "mesh")
        four = probe_coeffs("lego", "mesh", n_views=4)
        clear_measure_cache()
        fresh_four = probe_coeffs("lego", "mesh", n_views=4)
        assert four == fresh_four
        assert fresh_four != two
        assert probe_coeffs("lego", "mesh") == two

    def test_volume_probe_ignores_n_views(self):
        # The ray statistics always average three probe views.
        two = probe_coeffs("lego", "hashgrid")
        clear_measure_cache()
        assert probe_coeffs("lego", "hashgrid", n_views=4) == two


@pytest.fixture(scope="module")
def probed_table():
    clear_measure_cache()
    return probe_table()


class TestCoeffTable:
    """``measure_coeffs`` serves the frozen table; these tests hold the
    table to the live probe."""

    def test_table_matches_live_probe(self, probed_table):
        pairs = {f"{s}/{p}" for s in scene_names() for p in PIPELINE_RENDERERS}
        assert set(COEFF_TABLE) == pairs
        for key, row in probed_table.items():
            assert COEFF_TABLE[key] == row, key

    # The fixture warms the probe's memos, so the writer's probe is quick.
    @pytest.mark.usefixtures("probed_table")
    def test_writer_reproduces_committed_table(self, tmp_path):
        written = write_coeff_table(tmp_path / "coeff_table.py")
        assert written.read_bytes() == TABLE_PATH.read_bytes()

    def test_golden_entries_come_from_the_table(self):
        for key, golden in GOLDEN_COEFFS.items():
            coeffs = measure_coeffs(*key.split("/"))
            assert {k: v.hex() for k, v in sorted(coeffs.items())} == golden, key

    def test_returned_dict_is_fresh(self):
        first = measure_coeffs("lego", "mesh")
        want = dict(first)
        first["coverage"] = -1.0
        first["extra"] = 2.0
        assert measure_coeffs("lego", "mesh") == want

    def test_unknown_scene_and_pipeline_raise_like_the_probe(self):
        for scene, pipeline in (("atlantis", "mesh"), ("lego", "raytracing")):
            with pytest.raises(SceneError) as probed:
                probe_coeffs(scene, pipeline)
            with pytest.raises(SceneError) as served:
                measure_coeffs(scene, pipeline)
            assert str(served.value) == str(probed.value)


def test_serving_imports_no_renderer():
    # A fresh interpreter: this test session has the renderers loaded.
    script = (
        "import sys\n"
        "import repro.serve, repro.cli\n"
        "from repro.compile import compile_program\n"
        "for scene in ('lego', 'room'):\n"
        "    for pipeline in ('hashgrid', 'gaussian', 'mesh'):\n"
        "        compile_program(scene, pipeline, 640, 360)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.renderers', 'repro.nn'))))\n"
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_table_writer_runs_as_a_module_without_warning():
    # ``python -m repro.compile.measure`` must execute the module once,
    # as __main__: importing the package may not import it first.
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.compile.measure", "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "--write-table" in proc.stdout
