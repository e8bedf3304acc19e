"""Unit tests for variogram estimation and dataset persistence."""

import numpy as np
import pytest

from repro.geostats import (
    Dataset,
    SyntheticField,
    empirical_variogram,
    fit_variogram,
    load_dataset_csv,
    save_dataset_csv,
    theoretical_variogram,
)
from repro.geostats.covariance import Matern, SquaredExponential
from repro.geostats.locations import generate_locations


@pytest.fixture(scope="module")
def matern_ds():
    return SyntheticField.matern_2d(n=400, range_=0.1, smoothness=0.5, seed=6).sample()


class TestEmpiricalVariogram:
    def test_shape_and_positivity(self, matern_ds):
        emp = empirical_variogram(matern_ds, n_bins=12)
        assert emp.n_bins <= 12
        assert np.all(emp.semivariance >= 0.0)
        assert np.all(emp.counts > 0)
        assert np.all(np.diff(emp.bin_centers) > 0)

    def test_increases_with_distance(self, matern_ds):
        """Semivariance rises toward the sill for a correlated field."""
        emp = empirical_variogram(matern_ds, n_bins=10)
        assert emp.semivariance[0] < emp.semivariance[-1]

    def test_short_lag_near_zero_for_smooth_field(self):
        ds = SyntheticField.matern_2d(n=300, range_=0.3, smoothness=1.0, seed=1).sample()
        emp = empirical_variogram(ds, n_bins=10)
        assert emp.semivariance[0] < 0.25 * np.var(ds.z)

    def test_max_distance_respected(self, matern_ds):
        emp = empirical_variogram(matern_ds, n_bins=8, max_distance=0.3)
        assert emp.bin_centers[-1] <= 0.3

    def test_invalid_bins(self, matern_ds):
        with pytest.raises(ValueError):
            empirical_variogram(matern_ds, n_bins=0)


class TestTheoreticalVariogram:
    def test_zero_at_origin(self):
        g = theoretical_variogram(Matern(dim=2), (1.0, 0.1, 0.5), np.array([0.0]))
        assert g[0] == 0.0

    def test_sill_at_infinity(self):
        g = theoretical_variogram(SquaredExponential(dim=2), (1.5, 0.1), np.array([100.0]))
        assert g[0] == pytest.approx(1.5)

    def test_nugget_discontinuity(self):
        g = theoretical_variogram(
            Matern(dim=2), (1.0, 0.1, 0.5), np.array([0.0, 1e-6]), nugget=0.2
        )
        assert g[0] == 0.0
        assert g[1] > 0.2

    def test_monotone(self):
        h = np.linspace(0, 1, 30)
        g = theoretical_variogram(Matern(dim=2), (1.0, 0.2, 1.0), h)
        assert np.all(np.diff(g) >= -1e-12)


class TestFitVariogram:
    def test_recovers_sill_and_range_scale(self, matern_ds):
        theta, emp = fit_variogram(matern_ds)
        assert emp.n_bins > 3
        # sill (variance) within a factor of ~2.5, range within an order
        assert 0.3 < theta[0] < 2.0
        assert 0.01 < theta[1] < 0.8

    def test_consistent_with_theoretical(self, matern_ds):
        theta, emp = fit_variogram(matern_ds)
        fitted = theoretical_variogram(matern_ds.model, theta, emp.bin_centers)
        rel = np.linalg.norm(fitted - emp.semivariance) / np.linalg.norm(emp.semivariance)
        assert rel < 0.5


class TestIO:
    def test_csv_roundtrip(self, matern_ds, tmp_path):
        path = str(tmp_path / "d.csv")
        save_dataset_csv(matern_ds, path)
        back = load_dataset_csv(path, "2d-matern")
        # values are written as repr: float64 round-trips bit for bit
        assert np.array_equal(back.locations, matern_ds.locations)
        assert np.array_equal(back.z, matern_ds.z)
        assert back.model.name == "2D-Matern"

    def test_csv_3d(self, tmp_path):
        ds = SyntheticField.sqexp_3d(64, nugget=0.01, seed=2).sample()
        path = str(tmp_path / "d3.csv")
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path, "3d-sqexp", nugget=0.01)
        assert back.locations.shape == (64, 3)
        assert back.nugget == 0.01

    def test_csv_dim_mismatch(self, matern_ds, tmp_path):
        path = str(tmp_path / "d.csv")
        save_dataset_csv(matern_ds, path)
        with pytest.raises(ValueError, match="columns"):
            load_dataset_csv(path, "3d-sqexp")

    def test_csv_empty(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").write("x,y,value\n")
        with pytest.raises(ValueError, match="no data"):
            load_dataset_csv(path, "2d-matern")

    def test_csv_bad_row_raises_naming_the_line(self, tmp_path):
        """A row that does not parse is an error, not a dropped point."""
        path = tmp_path / "bad.csv"
        path.write_text("x,y,value\n0.1,0.2,1.0\n0.3,oops,2.0\n0.5,0.6,3.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv, line 3"):
            load_dataset_csv(str(path), "2d-matern")

    def test_csv_wrong_width_row_raises_naming_the_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.1,0.2,1.0\n0.3,0.4\n")
        with pytest.raises(ValueError, match=r"ragged\.csv, line 2"):
            load_dataset_csv(str(path), "2d-matern")

    @pytest.mark.parametrize("header", ["x,y,value\n", ""])
    @pytest.mark.parametrize("tail", ["", "\n"])
    def test_csv_header_optional_and_blank_tail(self, tmp_path, header, tail):
        path = tmp_path / "d.csv"
        path.write_text(header + "0.1,0.2,1.0\n0.3,0.4,2.0\n" + tail)
        back = load_dataset_csv(str(path), "2d-matern")
        assert np.array_equal(back.locations, [[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(back.z, [1.0, 2.0])


# -- Dataset boundary and round-trip edge cases ---------------------------


def test_dataset_rejects_nan_locations():
    locs = generate_locations(16, 2, seed=0)
    locs[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(locations=locs, z=np.zeros(16), model=Matern(dim=2))


def test_dataset_rejects_inf_measurements():
    locs = generate_locations(16, 2, seed=0)
    z = np.zeros(16)
    z[5] = -np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(locations=locs, z=z, model=Matern(dim=2))


def test_single_point_dataset_csv_roundtrip(tmp_path):
    ds = Dataset(locations=np.array([[0.5, 0.5]]), z=np.array([2.0]),
                 model=Matern(dim=2))
    path = str(tmp_path / "one.csv")
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path, "2d-matern")
    assert back.n == 1
    assert np.array_equal(back.locations, ds.locations)
    assert np.array_equal(back.z, ds.z)


def test_empty_csv_raises_clear_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,value\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset_csv(str(path), "2d-matern")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dataset_construction_preserves_dtype(dtype):
    rng = np.random.default_rng(4)
    locs = rng.uniform(size=(12, 2)).astype(dtype)
    z = rng.standard_normal(12).astype(dtype)
    ds = Dataset(locations=locs, z=z, model=Matern(dim=2))
    assert ds.locations.dtype == dtype and ds.z.dtype == dtype
    assert ds.locations.tobytes() == locs.tobytes()
    assert ds.z.tobytes() == z.tobytes()
