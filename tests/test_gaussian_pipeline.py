"""Tests for the 3D-Gaussian pipeline: SH, model, splatting, sorting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SceneError
from repro.renderers.gaussian import (
    GaussianModel,
    GaussianRenderer,
    counting_depth_sort,
    eval_sh,
    merge_sort,
    project_gaussians,
    sh_basis,
)
from repro.renderers.gaussian.gaussians import quaternion_to_rotation
from repro.renderers.gaussian.sh import fit_sh, n_coeffs
from repro.compile.measure import _PROBE_BUILD_KWARGS
from repro.renderers import make_renderer
from repro.renderers.gaussian.splat import assign_tiles
from repro.scenes import Camera, get_scene, look_at, orbit_poses


def _unit_dirs(n, seed=0):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


class TestSphericalHarmonics:
    def test_basis_shapes(self):
        dirs = _unit_dirs(7)
        assert sh_basis(dirs, 0).shape == (7, 1)
        assert sh_basis(dirs, 1).shape == (7, 4)
        assert sh_basis(dirs, 2).shape == (7, 9)

    def test_unsupported_degree(self):
        with pytest.raises(ConfigError):
            n_coeffs(3)

    def test_dc_only_gives_constant_color(self):
        coeffs = np.zeros((5, 4, 3))
        coeffs[:, 0, :] = (0.3 - 0.5) / 0.28209479177387814  # encode 0.3
        colors = eval_sh(coeffs, _unit_dirs(5))
        assert np.allclose(colors, 0.3, atol=1e-9)

    def test_eval_clips_to_unit_range(self):
        coeffs = np.full((3, 4, 3), 10.0)
        colors = eval_sh(coeffs, _unit_dirs(3))
        assert np.all((colors >= 0) & (colors <= 1))

    @given(st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_fit_then_eval_roundtrip(self, degree):
        """fit_sh inverts eval_sh for colors generated by an SH model."""
        rng = np.random.default_rng(degree)
        k = n_coeffs(degree)
        true = rng.uniform(-0.2, 0.2, size=(6, k, 3))
        dirs = _unit_dirs(12, seed=degree + 1)
        basis = sh_basis(dirs, degree)
        colors = np.einsum("dk,nkc->ndc", basis, true) + 0.5
        fitted = fit_sh(colors, dirs, degree=degree)
        assert np.allclose(fitted, true, atol=1e-8)


class TestGaussianModel:
    def test_validation(self):
        n = 4
        good = dict(
            means=np.zeros((n, 3)),
            scales=np.full((n, 3), 0.1),
            quats=np.tile([1.0, 0, 0, 0], (n, 1)),
            opacities=np.full(n, 0.5),
            sh_coeffs=np.zeros((n, 4, 3)),
        )
        GaussianModel(**good)
        with pytest.raises(SceneError):
            GaussianModel(**{**good, "scales": np.zeros((n, 3))})
        with pytest.raises(SceneError):
            GaussianModel(**{**good, "opacities": np.full(n, 1.5)})

    def test_covariances_are_symmetric_psd(self, gaussian_model):
        cov = gaussian_model.covariances()
        assert np.allclose(cov, cov.transpose(0, 2, 1))
        eig = np.linalg.eigvalsh(cov)
        assert np.all(eig > -1e-12)

    def test_isotropic_covariance_rotation_invariant(self):
        quats = _unit_dirs(8, seed=2)
        quats = np.concatenate([np.ones((8, 1)), quats], axis=1)
        model = GaussianModel(
            means=np.zeros((8, 3)),
            scales=np.full((8, 3), 0.2),
            quats=quats,
            opacities=np.full(8, 0.5),
            sh_coeffs=np.zeros((8, 4, 3)),
        )
        cov = model.covariances()
        assert np.allclose(cov, 0.04 * np.eye(3), atol=1e-9)

    @given(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
    @settings(max_examples=50, deadline=None)
    def test_quaternion_rotations_orthonormal(self, quat):
        q = np.asarray(quat)
        if np.linalg.norm(q) < 1e-3:
            return
        rot = quaternion_to_rotation(q[None])
        assert np.allclose(rot[0] @ rot[0].T, np.eye(3), atol=1e-9)

    def test_storage_matches_ply_layout(self, gaussian_model):
        per_point = (3 + 3 + 4 + 1 + gaussian_model.sh_coeffs.shape[1] * 3) * 4
        assert gaussian_model.storage_bytes() == gaussian_model.count * per_point


class TestSorting:
    def test_merge_sort_sorts(self):
        keys = [5, 1, 4, 1, 5, 9, 2, 6]
        out, comps = merge_sort(keys)
        assert out == sorted(keys)
        assert comps > 0

    def test_merge_sort_empty_and_single(self):
        assert merge_sort([]) == ([], 0)
        assert merge_sort([7]) == ([7], 0)

    @given(st.lists(st.integers(-1000, 1000), max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_merge_sort_matches_sorted_with_nlogn_compares(self, keys):
        out, comps = merge_sort(keys)
        assert out == sorted(keys)
        n = len(keys)
        if n > 1:
            assert comps <= n * int(np.ceil(np.log2(n)))

    def test_counting_depth_sort_stable_order(self):
        depths = np.array([3.0, 1.0, 2.0, 1.0])
        order, modeled = counting_depth_sort(depths)
        assert np.array_equal(depths[order], np.sort(depths))
        assert order[0] == 1 and order[1] == 3  # stability on the tie
        assert modeled == 4 * 2  # n log2 n with n=4


class TestSplatting:
    def _camera(self):
        return Camera(64, 64, pose=look_at(np.array([0, -4.0, 0]), np.zeros(3)))

    def _single_gaussian(self, center=(0.0, 0.0, 0.0), opacity=0.9):
        return GaussianModel(
            means=np.array([center]),
            scales=np.full((1, 3), 0.2),
            quats=np.array([[1.0, 0, 0, 0]]),
            opacities=np.array([opacity]),
            sh_coeffs=np.zeros((1, 4, 3)),
        )

    def test_center_projects_to_image_center(self):
        splats = project_gaussians(self._single_gaussian(), self._camera())
        assert len(splats.index) == 1
        assert np.allclose(splats.center[0], [32, 32], atol=1e-6)
        assert np.isclose(splats.depth[0], 4.0)

    def test_behind_camera_culled(self):
        model = self._single_gaussian(center=(0.0, -10.0, 0.0))
        splats = project_gaussians(model, self._camera())
        assert len(splats.index) == 0
        assert splats.n_culled == 1

    def test_transparent_culled(self):
        model = self._single_gaussian(opacity=1.0 / 512.0)
        splats = project_gaussians(model, self._camera())
        assert len(splats.index) == 0

    def test_tiles_cover_radius(self):
        splats = project_gaussians(self._single_gaussian(), self._camera())
        tiles = assign_tiles(splats, 64, 64, 16)
        assert len(tiles) >= 1
        assert all(0 in rows for rows in tiles.values())

    def test_render_and_counters(self, gaussian_model, lego_field, lego_camera):
        image, stats = GaussianRenderer(gaussian_model, lego_field).render(lego_camera)
        assert image.shape == (32, 32, 3)
        assert stats.get("gaussians_projected") == gaussian_model.count
        assert stats.get("splat_tests") == stats.get("blend_samples")
        assert stats.get("sort_elements") > 0

    def test_nearer_gaussian_occludes(self, lego_field):
        camera = self._camera()
        coeffs = np.zeros((2, 4, 3))
        coeffs[0, 0] = (1.0 - 0.5) / 0.28209479177387814  # white, near
        coeffs[1, 0] = (0.0 - 0.5) / 0.28209479177387814  # black, far
        model = GaussianModel(
            means=np.array([[0, -1.0, 0], [0, 1.0, 0]]),
            scales=np.full((2, 3), 0.3),
            quats=np.tile([1.0, 0, 0, 0], (2, 1)),
            opacities=np.array([0.95, 0.95]),
            sh_coeffs=coeffs,
        )
        image, _ = GaussianRenderer(model, lego_field).render(camera)
        assert image[32, 32].mean() > 0.6  # near white splat dominates


class TestTilePlan:
    """The probe compile counts with ``plan`` alone; ``render`` must add
    no counter, and change none, after the plan."""

    @pytest.mark.parametrize("scene", ["lego", "room"])
    @pytest.mark.parametrize("size", [(40, 40), (48, 32)], ids=["edge_tiles", "even_tiles"])
    def test_plan_counts_equal_render_counts(self, scene, size):
        renderer = make_renderer(scene, "gaussian", **_PROBE_BUILD_KWARGS["gaussian"])
        for pose in orbit_poses(get_scene(scene).camera_radius, 3):
            camera = Camera(*size, pose=pose)
            _image, stats = renderer.render(camera)
            assert renderer.plan(camera).stats.counts == stats.counts
            assert stats.get("splat_tests") == stats.get("blend_samples") > 0
