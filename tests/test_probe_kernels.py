"""The probe-compile kernels are column-form rewrites of NumPy reductions;
they must stay bit-identical to the reductions they replaced.

The reference formulas below (``np.linalg.norm`` / ``max`` over axis 1
and a 3-operand ``einsum``) are the ones the kernels used before; the
``measure_coeffs`` golden pins the probe coefficients as ``float.hex``
so a last-digit drift anywhere on the probe path fails here instead of
passing the ``rel=1e-6`` serve goldens silently.
"""

import numpy as np
import pytest

from repro.compile.measure import clear_measure_cache, measure_coeffs
from repro.renderers.gaussian.pipeline import splat_power
from repro.scenes.primitives import Box, Sphere


def _box_sdf_reference(box: Box, points: np.ndarray) -> np.ndarray:
    q = np.abs(points - box.center) - box.half_extents
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(q.max(axis=1), 0.0)
    return outside + inside


def _sphere_sdf_reference(sphere: Sphere, points: np.ndarray) -> np.ndarray:
    return np.linalg.norm(points - sphere.center, axis=1) - sphere.radius


def _box_points(box: Box, rng: np.random.Generator) -> dict[str, np.ndarray]:
    c, h = box.center, box.half_extents
    n = 2000
    signs = rng.choice([-1.0, 1.0], size=(n, 3))
    on_face = c + rng.uniform(-1.0, 1.0, size=(n, 3)) * h
    axis = rng.integers(0, 3, size=n)
    on_face[np.arange(n), axis] = (c + signs * h)[np.arange(n), axis]
    return {
        "random": c + rng.normal(scale=2.0, size=(n, 3)),
        "on_face": on_face,
        "corner": c + signs * h,
        "inside": c + rng.uniform(-1.0, 1.0, size=(n, 3)) * h,
        "center": np.tile(c, (4, 1)),
        "far": c + rng.normal(scale=1e6, size=(n, 3)),
        "tiny": c + h + rng.normal(scale=1e-12, size=(n, 3)),
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


#: ``measure_coeffs`` for the serving defaults (lego/room x
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
            coeffs = measure_coeffs(scene, pipeline)
            got = {k: float(v).hex() for k, v in sorted(coeffs.items())}
            assert got == golden, key


class TestMeasureCache:
    def test_non_default_n_views_is_measured(self):
        two = dict(measure_coeffs("lego", "mesh"))
        cached_four = measure_coeffs("lego", "mesh", n_views=4)
        clear_measure_cache()
        fresh_four = measure_coeffs("lego", "mesh", n_views=4)
        assert cached_four == fresh_four
        assert fresh_four != two
        assert measure_coeffs("lego", "mesh") == two
