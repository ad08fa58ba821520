import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambidoa.geometry import (
    build_grid,
    great_circle,
    nearest_class,
    to_cartesian,
    to_spherical,
)


def random_units(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestConversions:
    def test_origin_direction(self):
        np.testing.assert_allclose(to_cartesian(0.0, 0.0), [1.0, 0.0, 0.0])

    def test_pole_azimuth_is_zero(self):
        az, el = to_spherical([0.0, 0.0, 1.0])
        assert az == 0.0
        assert el == pytest.approx(np.pi / 2)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        az = rng.uniform(-np.pi, np.pi, 1000)
        el = rng.uniform(-np.radians(89.0), np.radians(89.0), 1000)
        az2, el2 = to_spherical(to_cartesian(az, el))
        np.testing.assert_allclose(az2, az, atol=1e-12)
        np.testing.assert_allclose(el2, el, atol=1e-12)

    def test_unit_norm(self):
        u = to_cartesian(0.7, -0.3)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            to_spherical([0.0, 0.0, 0.0])


class TestGreatCircle:
    def test_identity(self):
        u = to_cartesian(0.3, 0.2)
        assert great_circle(u, u) == 0.0

    def test_antipodal(self):
        a = to_cartesian(0.0, 0.0)
        b = to_cartesian(np.pi, 0.0)
        assert great_circle(a, b) == pytest.approx(np.pi, abs=1e-12)

    def test_quarter_circle(self):
        a = to_cartesian(0.0, 0.0)
        b = to_cartesian(np.pi / 2, 0.0)
        assert great_circle(a, b) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_matches_arccos_dot_on_fixed_pair(self):
        a = to_cartesian(np.radians(10), np.radians(20))
        b = to_cartesian(np.radians(30), np.radians(40))
        expected = np.arccos(np.clip(np.dot(a, b), -1, 1))
        assert great_circle(a, b) == pytest.approx(expected, abs=1e-12)

    def test_matches_arccos_dot_everywhere(self):
        a = random_units(10000, 11)
        b = random_units(10000, 12)
        dots = np.einsum("ij,ij->i", a, b)
        expected = np.arccos(np.clip(dots, -1.0, 1.0))
        got = great_circle(a, b)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_metric_properties(self):
        a = random_units(300, 21)
        b = random_units(300, 22)
        c = random_units(300, 23)
        dab = great_circle(a, b)
        dba = great_circle(b, a)
        np.testing.assert_allclose(dab, dba, atol=1e-12)
        assert np.all(dab >= 0)
        dac = great_circle(a, c)
        dcb = great_circle(c, b)
        assert np.all(dab <= dac + dcb + 1e-12)

    @given(
        st.floats(-np.pi, np.pi),
        st.floats(-np.pi / 2, np.pi / 2),
        st.floats(-np.pi, np.pi),
        st.floats(-np.pi / 2, np.pi / 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_great_circle_range_and_symmetry(self, az1, el1, az2, el2):
        a, b = to_cartesian(az1, el1), to_cartesian(az2, el2)
        d = great_circle(a, b)
        assert 0.0 <= d <= np.pi + 1e-12
        assert d == pytest.approx(great_circle(b, a), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            great_circle([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero vector"):
            great_circle(random_units(3, 1), np.zeros((3, 3)))


class TestSphereGrid:
    def test_resolution_90_is_octahedral(self):
        grid = build_grid(90.0)
        assert len(grid) == 6  # two poles + four equator points

    def test_reported_count_at_10_degrees(self):
        # the ring heuristic gives a fixed, documented count at 10 degrees
        assert len(build_grid(10.0)) == 412

    def test_centers_are_unit_and_distinct(self):
        grid = build_grid(15.0)
        norms = np.linalg.norm(grid.directions, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        dots = grid.directions @ grid.directions.T
        np.fill_diagonal(dots, -1.0)
        assert dots.max() < 1.0 - 1e-9

    def test_center_round_trip(self):
        grid = build_grid(10.0)
        for i in range(0, len(grid), 17):
            assert nearest_class(grid, grid.directions[i]) == i

    def test_pole_maps_to_pole_class(self):
        for res in (5.0, 10.0, 30.0):
            grid = build_grid(res)
            idx = nearest_class(grid, [0.0, 0.0, 1.0])
            assert grid.directions[idx][2] == pytest.approx(1.0)

    def test_matches_linear_scan_oracle(self):
        grid = build_grid(10.0)
        probes = random_units(1000, 5)
        for p in probes:
            dists = great_circle(p, grid.directions)
            assert nearest_class(grid, p) == int(np.argmin(dists))

    def test_coverage_radius(self):
        grid = build_grid(10.0)
        probes = random_units(10000, 9)
        dots = probes @ grid.directions.T
        worst = np.degrees(np.arccos(np.clip(dots.max(axis=1), -1, 1)).max())
        assert worst <= 10.0

    def test_coverage_holds_for_non_divisor_resolution(self):
        # 7 does not divide 180; both poles must still be present and covered
        grid = build_grid(7.0)
        assert np.any(np.isclose(grid.directions[:, 2], 1.0))
        assert np.any(np.isclose(grid.directions[:, 2], -1.0))
        probes = random_units(5000, 13)
        dots = probes @ grid.directions.T
        worst = np.degrees(np.arccos(np.clip(dots.max(axis=1), -1, 1)).max())
        assert worst <= 7.0

    def test_nearest_class_scale_invariant(self):
        grid = build_grid(10.0)
        probes = random_units(200, 31)
        base = nearest_class(grid, probes)
        np.testing.assert_array_equal(nearest_class(grid, probes * 37.5), base)
        np.testing.assert_array_equal(nearest_class(grid, probes * 1e-6), base)

    def test_resolution_bounds(self):
        with pytest.raises(ValueError):
            build_grid(0.5)
        with pytest.raises(ValueError):
            build_grid(120.0)

    def test_csv_export(self, tmp_path):
        grid = build_grid(30.0)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "index,azimuth_deg,elevation_deg"
        assert len(rows) == len(grid) + 1
