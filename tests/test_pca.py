import numpy as np
import pytest

from convgen.data import DataError
from convgen.pca import pca_project


class TestEigenpairs:
    def test_matches_dense_solver_on_random_covariances(self):
        rng = np.random.default_rng(60)
        for f in (2, 3, 5, 8, 10):
            raw = rng.normal(size=(40, f))
            proj = pca_project(raw, np.empty((0, f)))
            centered = raw - raw.mean(axis=0)
            s = np.linalg.svd(centered, compute_uv=False)
            assert proj.eigenvalues == pytest.approx(s[:2] ** 2 / 39, rel=1e-6)
            cov = centered.T @ centered / 39
            for j in range(2):
                axis, value = proj.axes[:, j], proj.eigenvalues[j]
                residual = cov @ axis - value * axis
                assert np.linalg.norm(residual) < 1e-6 * max(1.0, value)

    def test_axes_orthonormal(self):
        rng = np.random.default_rng(61)
        raw = rng.normal(size=(30, 6))
        axes = pca_project(raw, np.empty((0, 6))).axes
        gram = axes.T @ axes
        assert np.max(np.abs(gram - np.eye(2))) < 1e-9


class TestProjection:
    def test_axis_aligned_2d_data(self):
        rng = np.random.default_rng(62)
        data = np.column_stack([rng.normal(0, 3.0, 500), rng.normal(0, 1.0, 500)])
        proj = pca_project(data, np.empty((0, 2)))
        # component 1 recovers the high-variance axis (up to sign)
        assert abs(abs(proj.axes[0, 0]) - 1.0) < 0.05
        var_x = data[:, 0].var(ddof=1)
        assert proj.eigenvalues[0] == pytest.approx(var_x, rel=0.05)
        assert proj.real[:, 0].var(ddof=1) == pytest.approx(proj.eigenvalues[0], rel=1e-9)

    def test_duplicated_rows_project_identically(self):
        rng = np.random.default_rng(63)
        data = rng.normal(size=(50, 4))
        proj = pca_project(data, data.copy())
        assert np.array_equal(proj.real, proj.synthetic)

    def test_explained_fractions_sane(self):
        rng = np.random.default_rng(64)
        data = rng.normal(size=(60, 5))
        proj = pca_project(data, np.empty((0, 5)))
        assert np.all(proj.explained_fraction >= 0.0)
        assert np.all(proj.explained_fraction <= 1.0)
        assert proj.explained_fraction.sum() <= 1.0 + 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError, match="variance"):
            pca_project(np.ones((10, 3)), np.empty((0, 3)))

    def test_needs_two_features(self):
        with pytest.raises(DataError, match="features"):
            pca_project(np.ones((10, 1)), np.empty((0, 1)))

    @pytest.mark.parametrize("real,synthetic", [
        (np.ones(4), np.empty((0, 4))),
        (np.ones((3, 4, 1)), np.empty((0, 4))),
        (np.arange(12.0).reshape(3, 4), np.ones((2, 2))),
        (np.arange(12.0).reshape(3, 4), np.ones(4)),
        (np.arange(12.0).reshape(3, 4), np.ones((1, 1, 4))),
    ], ids=["1-D real", "3-D real", "2x2 synthetic", "1-D synthetic", "3-D synthetic"])
    def test_malformed_shapes_rejected(self, real, synthetic):
        with pytest.raises(DataError, match="must be"):
            pca_project(real, synthetic)

    def test_empty_synthetic_of_any_shape_is_accepted(self):
        data = np.random.default_rng(65).normal(size=(10, 3))
        for empty in ([], np.empty((0, 3)), np.empty((0,))):
            assert pca_project(data, empty).synthetic.shape == (0, 2)
