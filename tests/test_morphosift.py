import math

import numpy as np
import pytest

from siftcad.morphosift import (
    _BLOCK_VOXELS,
    LinearSE,
    MagnitudePlan,
    SiftError,
    gray_dilate,
    gray_erode,
    gray_open,
    lse_magnitudes,
    ms2d,
    ms3d,
    normalize16,
    rasterize_lse,
)
from siftcad.volume import BinaryMask, Volume3D, VolumeError

from oracles import (
    direct_ms2d,
    direct_ms3d,
    naive_dilate,
    naive_erode,
    shift_dilate,
    shift_erode,
)


class TestRasterize:
    def test_horizontal_five(self):
        pts = rasterize_lse(5, 0.0)
        assert sorted(map(tuple, pts)) == [(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)]

    def test_vertical(self):
        pts = rasterize_lse(5, math.pi / 2)
        assert sorted(map(tuple, pts)) == [(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)]

    def test_even_magnitude_forced_odd(self):
        assert len(rasterize_lse(4, 0.3)) == 5
        assert len(rasterize_lse(4.2, 0.3)) == 5

    def test_single_point(self):
        assert list(map(tuple, rasterize_lse(1, 1.1))) == [(0, 0)]

    def test_magnitude_below_one_rejected(self):
        with pytest.raises(SiftError):
            rasterize_lse(0.5, 0.0)

    def test_symmetry_origin_and_pi_shift(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mag = rng.uniform(1, 25)
            theta = rng.uniform(-4, 4)
            pts = rasterize_lse(mag, theta)
            as_set = set(map(tuple, pts))
            assert (0, 0) in as_set
            assert {(-a, -b) for a, b in as_set} == as_set
            shifted = set(map(tuple, rasterize_lse(mag, theta + math.pi)))
            assert shifted == as_set

    def test_connected_staircase(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pts = rasterize_lse(rng.uniform(2, 30), rng.uniform(0, math.pi))
            major = int(np.ptp(pts[:, 1]) > np.ptp(pts[:, 0]))
            pts = sorted(map(tuple, pts), key=lambda p: p[major])
            steps = {
                (abs(b[0] - a[0]), abs(b[1] - a[1]))
                for a, b in zip(pts, pts[1:])
            }
            assert steps <= {(0, 1), (1, 0), (1, 1)}

    def test_linear_se_wrapper(self):
        se = LinearSE(5.0, 0.0)
        assert se.offsets.shape == (5, 2)


class TestGrayOps:
    def se_menu(self):
        return [
            rasterize_lse(3, 0.0),
            rasterize_lse(5, math.pi / 2),
            rasterize_lse(7, math.pi / 4),
            rasterize_lse(6, 0.3),
            rasterize_lse(9, 1.9),
        ]

    def test_erode_matches_double_loop(self):
        rng = np.random.default_rng(2)
        for se in self.se_menu():
            f = rng.random((16, 16))
            assert np.array_equal(gray_erode(f, se), naive_erode(f, se))

    def test_dilate_matches_double_loop(self):
        rng = np.random.default_rng(3)
        for se in self.se_menu():
            f = rng.random((16, 16))
            assert np.array_equal(gray_dilate(f, se), naive_dilate(f, se))

    def test_matches_shift_reference_larger(self):
        rng = np.random.default_rng(4)
        for se in self.se_menu():
            f = rng.random((41, 23))
            assert np.array_equal(gray_erode(f, se), shift_erode(f, se))
            assert np.array_equal(gray_dilate(f, se), shift_dilate(f, se))

    def test_single_bright_pixel(self):
        f = np.zeros((9, 9))
        f[4, 4] = 1.0
        se = rasterize_lse(3, 0.0)
        assert gray_erode(f, se).max() == 0.0
        d = gray_dilate(f, se)
        assert d[3, 4] == 1.0 and d[4, 4] == 1.0 and d[5, 4] == 1.0
        assert d.sum() == 3.0

    def test_open_anti_extensive_and_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = rng.random((20, 20)) * 100
            mag = rng.uniform(2, 9)
            theta = rng.uniform(0, math.pi)
            se = rasterize_lse(mag, theta)
            opened = gray_open(f, se)
            assert np.all(opened <= f)
            assert np.array_equal(gray_open(opened, se), opened)

    def test_empty_se_rejected(self):
        with pytest.raises(SiftError):
            gray_erode(np.zeros((4, 4)), np.empty((0, 2), dtype=int))


class TestMs2d:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        for n_orient in (1, 2, 4, 10):
            f = rng.random((16, 16)) * 50
            got = ms2d(f, 2.0, 5.0, n_orient)
            want = direct_ms2d(f, 2.0, 5.0, n_orient, rasterize_lse)
            assert np.array_equal(got, want)

    def test_band_selectivity(self):
        yy, xx = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        disc = ((xx - 20) ** 2 + (yy - 20) ** 2) <= 4 ** 2     # diameter 8
        big = ((xx - 46) ** 2 + (yy - 46) ** 2) <= 14 ** 2     # diameter 28
        f = np.zeros((64, 64))
        f[disc] = 100.0
        f[big] = 100.0
        f[5, 40:60] = 100.0                                    # thin line
        r = ms2d(f, 6.0, 12.0, 10)
        assert r[20, 20] > 100.0           # in-band disc strongly passed
        assert r[46, 46] < r[20, 20] / 10  # wide blob rejected
        assert r[5, 50] < r[20, 20] / 10   # thin structure rejected

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        f = rng.random((24, 24)) * 10
        assert np.min(ms2d(f, 2.0, 6.0, 4)) >= 0.0

    def test_bad_magnitudes(self):
        with pytest.raises(SiftError):
            ms2d(np.zeros((8, 8)), 5.0, 3.0, 4)
        with pytest.raises(SiftError):
            ms2d(np.zeros((8, 8)), 0.5, 3.0, 4)


class TestPlan:
    def test_reference_values(self):
        v_min = math.pi / 6 * 4 ** 3
        v_max = math.pi / 6 * 63 ** 3
        plan = lse_magnitudes(v_min, v_max, 0.7, 1.3, 3)
        assert plan.ml1_mm == pytest.approx(4.0, abs=1e-9)
        assert plan.ml2_mm == pytest.approx(15.75, abs=1e-9)
        assert plan.axial[0] == pytest.approx(4.0 / 0.7, abs=1e-6)
        assert plan.axial[1] == pytest.approx(22.5, abs=1e-6)
        assert plan.sagittal[0] == pytest.approx(4.0 / 1.3, abs=1e-6)
        assert plan.sagittal[1] == pytest.approx(22.5, abs=1e-6)
        assert plan.coronal == plan.sagittal

    def test_invalid_inputs(self):
        with pytest.raises(SiftError):
            lse_magnitudes(10.0, 5.0, 0.7, 1.3, 3)
        with pytest.raises(SiftError):
            lse_magnitudes(33.5, 130924.0, 0.7, 1.3, 0)
        with pytest.raises(SiftError):
            # short line below one pixel
            lse_magnitudes(0.05, 130924.0, 0.7, 1.3, 3)


class TestMs3d:
    def small_plan(self):
        return MagnitudePlan(
            axial=(2.0, 5.0), sagittal=(2.0, 5.0), coronal=(2.0, 5.0),
            ml1_mm=2.0, ml2_mm=5.0,
        )

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(8)
        plan = self.small_plan()
        for n_orient in (1, 2, 4, 10):
            v = Volume3D(rng.random((12, 12, 12)) * 20, (1, 1, 1))
            got = ms3d(v, plan, n_orient)
            want = direct_ms3d(v.data, plan, n_orient, rasterize_lse)
            assert np.array_equal(got.data, want)

    def test_anisotropic_plan_views(self):
        rng = np.random.default_rng(9)
        plan = MagnitudePlan(
            axial=(3.0, 7.0), sagittal=(2.0, 7.0), coronal=(2.0, 7.0),
            ml1_mm=2.1, ml2_mm=4.9,
        )
        v = Volume3D(rng.random((10, 14, 8)) * 9, (0.7, 0.7, 1.3))
        got = ms3d(v, plan, 4)
        want = direct_ms3d(v.data, plan, 4, rasterize_lse)
        assert np.array_equal(got.data, want)

    # a block holds _BLOCK_VOXELS // (slice-plane voxels) slices, at least one
    @pytest.mark.parametrize("dims", [
        (64, 64, 11),   # every view's stack spans several blocks plus a remainder
        (9, 7, 1),      # single-slice axial stack
        (200, 180, 3),  # axial slice plane larger than one block
    ], ids=["blocks_with_remainder", "single_slice", "plane_over_budget"])
    def test_block_boundaries_match_direct_evaluation(self, dims):
        assert _BLOCK_VOXELS == 32768  # the shapes above are chosen for this size
        rng = np.random.default_rng(11)
        plan = MagnitudePlan(
            axial=(2.0, 6.0), sagittal=(2.0, 5.0), coronal=(3.0, 5.0),
            ml1_mm=2.0, ml2_mm=6.0,
        )
        v = Volume3D(rng.standard_normal(dims) * 20, (0.7, 0.7, 1.3))
        got = ms3d(v, plan, 4)
        want = direct_ms3d(v.data, plan, 4, rasterize_lse)
        assert np.array_equal(got.data, want)
        assert got.data.tobytes() == want.tobytes()

    def test_ball_response_peaks_in_band(self):
        dims = (48, 48, 24)
        grids = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
        ball = ((grids[0] - 24) ** 2 + (grids[1] - 24) ** 2 + (grids[2] - 12) ** 2) <= 4 ** 2
        data = np.zeros(dims)
        data[ball] = 100.0
        v = Volume3D(data, (1, 1, 1))
        r = ms3d(v, MagnitudePlan((6.0, 14.0), (6.0, 14.0), (6.0, 14.0), 6.0, 14.0), 10)
        assert r.data[24, 24, 12] > 100.0
        assert r.data[4, 4, 4] == 0.0


class TestNormalize16:
    def test_three_values(self):
        data = np.zeros((3, 1, 1))
        data[:, 0, 0] = [2.0, 4.0, 6.0]
        v = Volume3D(data, (1, 1, 1))
        m = BinaryMask(np.ones((3, 1, 1), bool), (1, 1, 1))
        out = normalize16(v, m).data[:, 0, 0]
        assert out.tolist() == [0.0, 32767.5, 65535.0]

    def test_constant_masked_region(self):
        v = Volume3D(np.full((4, 4, 4), 7.0), (1, 1, 1))
        m = BinaryMask(np.ones((4, 4, 4), bool), (1, 1, 1))
        assert np.all(normalize16(v, m).data == 0.0)

    def test_outside_mask_zeroed(self):
        rng = np.random.default_rng(10)
        v = Volume3D(rng.random((6, 6, 6)) + 5.0, (1, 1, 1))
        mask = np.zeros((6, 6, 6), bool)
        mask[2:4, 2:4, 2:4] = True
        out = normalize16(v, BinaryMask(mask, (1, 1, 1)))
        assert np.all(out.data[~mask] == 0.0)
        assert out.data[mask].max() == 65535.0

    def test_empty_mask_rejected(self):
        v = Volume3D(np.ones((2, 2, 2)), (1, 1, 1))
        with pytest.raises(VolumeError):
            normalize16(v, BinaryMask(np.zeros((2, 2, 2), bool), (1, 1, 1)))
