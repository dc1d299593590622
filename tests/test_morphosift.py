import math
import tracemalloc

import numpy as np
import pytest

from siftcad.candidates import DEFAULT_V_MAX, DEFAULT_V_MIN
from siftcad import morphosift
from siftcad.candidates import generate_candidates
from siftcad.morphosift import (
    _BLOCK_BYTES,
    _line_plan,
    _open_plan,
    _sift_plan,
    _work_dtype,
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
from siftcad.nrrd_io import load_case
from siftcad.phantom import generate_suite
from siftcad.volume import BinaryMask, Volume3D, VolumeError, subtract

from oracles import (
    direct_ms2d,
    direct_ms3d,
    naive_dilate,
    naive_erode,
    shift_dilate,
    shift_erode,
)


@pytest.fixture
def scratch_dtypes(monkeypatch):
    """Working dtype of every sifting or filter call, in call order (one
    ``_Scratch`` per call)."""
    made = []

    class Recording(morphosift._Scratch):
        def __init__(self, dtype):
            super().__init__(dtype)
            made.append(self.dtype)

    monkeypatch.setattr(morphosift, "_Scratch", Recording)
    return made


@pytest.fixture(scope="module")
def loaded_phantom_case(tmp_path_factory):
    (record,) = generate_suite(1, 3, tmp_path_factory.mktemp("phantom"), dims=(64, 64, 32))
    return load_case(record)


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

    def test_open_anti_extensive_and_idempotent(self, scratch_dtypes):
        # the opening laws for line elements and random point sets, on
        # float slices and on integer slices (filtered in float32); the
        # opening is also increasing: f <= g implies open(f) <= open(g)
        rng = np.random.default_rng(5)
        for k in range(80):
            if k % 2:
                reach = int(rng.integers(1, 6))
                se = rng.integers(-reach, reach + 1, size=(int(rng.integers(1, 12)), 2))
            else:
                se = rasterize_lse(rng.uniform(2, 9), rng.uniform(0, math.pi))
            shape = (int(rng.integers(5, 21)), int(rng.integers(5, 21)))
            if k % 4 < 2:
                f = rng.random(shape) * 100
                g = f + rng.random(shape) * (rng.random(shape) < 0.5)
                dtype = np.float64
            else:
                f = rng.integers(-65535, 65536, size=shape).astype(np.float64)
                g = f + rng.integers(0, 3, size=shape)
                dtype = np.float32
            scratch_dtypes.clear()
            opened = gray_open(f, se)
            assert opened.dtype == np.float64
            assert np.all(opened <= f), k
            assert np.array_equal(gray_open(opened, se), opened), k
            assert np.all(opened <= gray_open(g, se)), k
            # f and g; an opened slice holds -inf where the element's
            # reflection reaches past the slice, which takes float64
            assert scratch_dtypes[::2] == [dtype, dtype], k

    def test_arbitrary_point_sets_match_double_loop(self):
        # gappy sets, isolated points and single points, so runs of every
        # length and step and both single- and two-view runs occur
        rng = np.random.default_rng(12)
        sets = [np.array([[0, 0]]), np.array([[3, -2]]), np.array([[0, 0], [5, 5]])]
        for _ in range(40):
            size = int(rng.integers(1, 30))
            reach = int(rng.integers(1, 8))
            sets.append(rng.integers(-reach, reach + 1, size=(size, 2)))
        for k, se in enumerate(sets):
            f = rng.standard_normal((int(rng.integers(5, 15)), int(rng.integers(5, 15))))
            assert np.array_equal(gray_erode(f, se), naive_erode(f, se)), k
            assert np.array_equal(gray_dilate(f, se), naive_dilate(f, se)), k

    def test_empty_se_rejected(self):
        with pytest.raises(SiftError):
            gray_erode(np.zeros((4, 4)), np.empty((0, 2), dtype=int))


class TestLinePlan:
    @staticmethod
    def check(offsets):
        plan = _line_plan(offsets)
        points = set(map(tuple, np.asarray(offsets).tolist()))
        vx, vy = plan.step
        covered = set()
        for j, dx, dy in plan.views:
            assert 0 <= j <= plan.levels
            run = {(dx + i * vx, dy + i * vy) for i in range(1 << j)}
            # a view reads only points of the set, so nothing past the padding
            assert run <= points
            assert all(abs(x) <= plan.kx and abs(y) <= plan.ky for x, y in run)
            covered |= run
        assert covered == points
        assert plan.levels == max(j for j, _, _ in plan.views)

    def test_views_cover_line_elements_exactly(self):
        for mag in (1.0, 3.08, 5.71, 9.0, 22.5, 31.0):
            for n in range(10):
                self.check(rasterize_lse(mag, n * math.pi / 10))
                self.check(-rasterize_lse(mag, n * math.pi / 10))

    def test_views_cover_arbitrary_point_sets_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            reach = int(rng.integers(1, 12))
            self.check(rng.integers(-reach, reach + 1, size=(int(rng.integers(1, 40)), 2)))

    def test_long_lines_use_periodic_steps(self):
        # an oblique 23-point line is three runs of step (3, 1), not a
        # staircase of axis runs
        plan = _line_plan(rasterize_lse(22.5, math.pi / 10))
        assert plan.step == (3, 1)
        assert len(plan.views) == 4 and plan.levels == 3


    def test_line_elements_share_one_plan_for_opening(self):
        for mag in (3.08, 5.71, 9.0, 22.5, 31.0):
            for n in range(10):
                offs = rasterize_lse(mag, n * math.pi / 10)
                erode, dilate = _open_plan(offs)
                assert dilate is erode
                assert _line_plan(-offs) == erode

    def test_asymmetric_element_dilates_by_its_reflection(self):
        offs = np.array([[0, 0], [1, 0], [2, 1]])
        erode, dilate = _open_plan(offs)
        assert dilate == _line_plan(-offs)
        assert dilate != erode

    def test_sift_plans_are_built_once_per_magnitude_pair(self):
        vol = Volume3D(np.random.default_rng(2).random((12, 12, 6)), (1.0, 1.0, 1.0))
        plan = MagnitudePlan(axial=(2.0, 5.0), sagittal=(2.0, 4.0),
                             coronal=(2.0, 4.0), ml1_mm=2.0, ml2_mm=5.0)
        _sift_plan.cache_clear()
        first = ms3d(vol, plan, 4).data
        second = ms3d(vol, plan, 4).data
        info = _sift_plan.cache_info()
        assert (info.misses, info.hits) == (2, 4)
        assert np.array_equal(first, second)


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

    # a block holds _BLOCK_BYTES // itemsize // (slice-plane voxels)
    # slices, at least one
    @pytest.mark.parametrize("dims", [
        (64, 64, 11),   # every view's stack spans several blocks plus a remainder
        (9, 7, 1),      # single-slice axial stack
        (200, 180, 3),  # axial slice plane larger than one block
    ], ids=["blocks_with_remainder", "single_slice", "plane_over_budget"])
    def test_block_boundaries_match_direct_evaluation(self, dims):
        # the shapes above are chosen for this size of float64 blocks
        assert _BLOCK_BYTES // 8 == 32768
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

    # a view's slices are copied and added a group of blocks at a time:
    # with 1 KB blocks and 5000-byte groups every view spans several
    # groups, and a shorter last group or a remainder block, in each
    # working dtype
    @pytest.mark.parametrize("values, work", [
        (lambda rng, dims: rng.standard_normal(dims) * 20, np.float64),
        (lambda rng, dims: rng.integers(-65535, 65536, dims).astype(float), np.float32),
        (lambda rng, dims: rng.integers(-100, 200, dims).astype(np.int16), np.int16),
    ], ids=["float64", "float32", "int16"])
    def test_groups_of_blocks_match_direct_evaluation(self, monkeypatch, scratch_dtypes,
                                                      values, work):
        monkeypatch.setattr(morphosift, "_BLOCK_BYTES", 1024)
        monkeypatch.setattr(morphosift, "_GROUP_BYTES", 5000)
        rng = np.random.default_rng(12)
        plan = MagnitudePlan(
            axial=(2.0, 6.0), sagittal=(2.0, 5.0), coronal=(3.0, 5.0),
            ml1_mm=2.0, ml2_mm=6.0,
        )
        data = values(rng, (8, 9, 37))
        got = ms3d(Volume3D(data, (0.7, 0.7, 1.3)), plan, 4)
        assert scratch_dtypes == [work]
        want = direct_ms3d(data.astype(np.float64), plan, 4, rasterize_lse)
        assert got.data.tobytes() == want.tobytes()

    def test_production_magnitudes_match_direct_evaluation(self):
        # the default lesion window at clinical spacing: 23-point long
        # lines (runs past 8 points, (3, 1) and (1, 3) steps) longer than
        # the 8-voxel sagittal and coronal slices
        plan = lse_magnitudes(DEFAULT_V_MIN, DEFAULT_V_MAX, 0.7, 1.3, 3)
        assert math.ceil(plan.axial[1]) == 23
        rng = np.random.default_rng(14)
        v = Volume3D(rng.standard_normal((40, 40, 8)) * 20, (0.7, 0.7, 1.3))
        got = ms3d(v, plan, 10)
        want = direct_ms3d(v.data, plan, 10, rasterize_lse)
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


class TestSinglePrecision:
    """Integer-valued input is sifted in float32 (in int16 where its
    values and range fit there), bit-equal to float64."""

    # a float32 block holds 65536 // (slice-plane voxels) slices, at least one
    @pytest.mark.parametrize("dims", [
        (64, 64, 37),   # every view's stack spans two blocks plus a remainder
        (9, 7, 1),      # single-slice axial stack
        (300, 260, 3),  # axial slice plane larger than one block
    ], ids=["blocks_with_remainder", "single_slice", "plane_over_budget"])
    def test_integer_volumes_match_direct_evaluation(self, dims, scratch_dtypes):
        assert _BLOCK_BYTES // 4 == 65536  # the shapes above are chosen for this size
        rng = np.random.default_rng(21)
        data = rng.integers(-65535, 65536, size=dims).astype(np.float64)
        data.flat[:2] = (-65535, 65535)
        plan = MagnitudePlan(
            axial=(2.0, 6.0), sagittal=(2.0, 5.0), coronal=(3.0, 5.0),
            ml1_mm=2.0, ml2_mm=6.0,
        )
        got = ms3d(Volume3D(data, (0.7, 0.7, 1.3)), plan, 4)
        assert scratch_dtypes == [np.float32]
        want = direct_ms3d(data, plan, 4, rasterize_lse)
        assert got.data.dtype == np.float64
        assert got.data.tobytes() == want.tobytes()

    def test_integer_slices_match_direct_evaluation(self, scratch_dtypes):
        rng = np.random.default_rng(22)
        for n_orient in (1, 4, 10):
            f = rng.integers(-65535, 65536, size=(37, 29)).astype(np.float64)
            got = ms2d(f, 2.0, 7.0, n_orient)
            assert got.tobytes() == direct_ms2d(f, 2.0, 7.0, n_orient, rasterize_lse).tobytes()
        assert scratch_dtypes == [np.float32] * 3

    def test_view_sum_bound(self, scratch_dtypes, monkeypatch):
        # ml1 = 1 is a one-point short line, so every orientation passes
        # an isolated spike's whole top-hat and the sum reaches
        # n_orient * (max - min)
        f = np.zeros((15, 15))
        f[7, 7] = 2 ** 22
        got = ms2d(f, 1.0, 5.0, 4)
        assert got[7, 7] == 2 ** 24
        assert got.tobytes() == direct_ms2d(f, 1.0, 5.0, 4, rasterize_lse).tobytes()
        f[0, 0] = -1.0  # one step past the bound
        got = ms2d(f, 1.0, 5.0, 4)
        assert got.tobytes() == direct_ms2d(f, 1.0, 5.0, 4, rasterize_lse).tobytes()
        assert scratch_dtypes == [np.float32, np.float64]
        # past the bound float32 would round: three top-hats of 5592407
        # sum to 16777221, odd and above 2**24
        f = np.zeros((15, 15))
        f[7, 7] = 5592407
        want = direct_ms2d(f, 1.0, 5.0, 3, rasterize_lse)
        assert want[7, 7] == 16777221
        assert ms2d(f, 1.0, 5.0, 3).tobytes() == want.tobytes()
        assert scratch_dtypes[-1] == np.float64
        monkeypatch.setattr(morphosift, "_work_dtype", lambda *a: np.dtype(np.float32))
        assert ms2d(f, 1.0, 5.0, 3)[7, 7] != want[7, 7]

    def test_inputs_outside_the_bounds_take_float64(self):
        base = np.arange(12.0).reshape(3, 4) - 6.0
        assert _work_dtype(base, 10) == np.int16
        assert _work_dtype(base * 3000, 10) == np.float32  # range 33000
        for bad in (0.5, -1e-9, np.nan, np.inf, -np.inf, 2.0 ** 24 + 2, -2.0 ** 24 - 2):
            f = base.copy()
            f[1, 2] = bad
            assert _work_dtype(f, 1) == np.float64, bad
        edge = np.array([[0.0, 2.0 ** 24]])  # |v| and n_orient * (max - min) at 2**24
        assert _work_dtype(edge, 1) == _work_dtype(-edge, 1) == np.float32
        assert _work_dtype(edge, 2) == np.float64
        assert _work_dtype(np.empty((0, 3)), 1) == np.float64

    def test_integrality_test_holds_no_full_grid_temporary(self):
        data = np.random.default_rng(2).integers(-27, 117, size=(64, 64, 32)).astype(np.float64)
        tracemalloc.start()
        try:
            assert _work_dtype(data, 10) == np.int16
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 4
        # a fraction in the grid's last voxel is still seen
        data[-1, -1, -1] += 0.5
        assert _work_dtype(data, 10) == np.float64

    def test_loaded_case_sifts_scale_1_in_int16(self, loaded_phantom_case, scratch_dtypes):
        # unsigned short scans subtract to integers; the decimated
        # scales are not integer-valued
        generate_candidates(loaded_phantom_case)
        assert scratch_dtypes == [np.int16, np.float64, np.float64]

    def test_loaded_case_equals_its_float64_shift(self, loaded_phantom_case, scratch_dtypes):
        # sifting is exactly invariant under adding 0.5, which keeps every
        # value exact but forces float64: an oracle at sizes too large for
        # direct_ms3d
        case = loaded_phantom_case
        sub = subtract(case.dce[1], case.dce[0])
        plan = lse_magnitudes(DEFAULT_V_MIN, DEFAULT_V_MAX, case.spacing[0], case.spacing[2], 3)
        got = ms3d(sub, plan, 10)
        shifted = ms3d(Volume3D(sub.data + 0.5, sub.spacing), plan, 10)
        assert scratch_dtypes == [np.int16, np.float64]
        assert got.data.max() > 0
        assert got.data.tobytes() == shifted.data.tobytes()


def _extremes_on_faces(rng, data, value):
    """Set about half of every grid face's voxels of ``data`` to ``value``."""
    for axis in range(data.ndim):
        for end in (0, -1):
            face = np.moveaxis(data, axis, 0)[end]
            face[rng.random(face.shape) < 0.5] = value
    return data


class TestInt16:
    """Integer-valued input whose values and range fit int16 is filtered
    in int16 and summed in int32, bit-equal to float64."""

    # the two rung edges: max - min = 32767 with the sentinels' values on
    # the grid faces, where the padding meets them
    @staticmethod
    def edge_volumes(rng, dims):
        low = _extremes_on_faces(rng, rng.integers(-32768, 0, size=dims).astype(np.float64),
                                 -32768.0)
        high = _extremes_on_faces(rng, rng.integers(0, 32768, size=dims).astype(np.float64),
                                  32767.0)
        low.flat[0], high.flat[0] = -1.0, 0.0
        return low, high

    def test_rung_edges(self):
        assert _work_dtype(np.array([[-32768.0, -1.0]]), 10) == np.int16
        assert _work_dtype(np.array([[0.0, 32767.0]]), 10) == np.int16
        assert _work_dtype(np.array([[-32768.0, 0.0]]), 10) == np.float32  # range 32768
        assert _work_dtype(np.array([[1.0, 32768.0]]), 10) == np.float32   # max past int16
        assert _work_dtype(np.array([[-32769.0, -2.0]]), 10) == np.float32  # min past int16
        assert _work_dtype(np.array([[-32768.0, -1.0]]), 10, int16=False) == np.float32

    def test_large_orientation_counts(self):
        # n_orient * (max - min) must stay below 2**31, the int32 sum's
        # bound; float32's bound of 2**24 is then exceeded as well
        full = np.array([[0.0, 32767.0]])
        assert 65538 * 32767 < 2 ** 31 <= 65539 * 32767
        assert _work_dtype(full, 65538) == np.int16
        assert _work_dtype(full, 65539) == np.float64
        unit = np.array([[5.0, 6.0]])
        assert _work_dtype(unit, 2 ** 31 - 1) == np.int16
        assert _work_dtype(unit, 2 ** 31) == np.float64

    # an int16 block holds 131072 // (slice-plane voxels) slices, at least one
    @pytest.mark.parametrize("dims", [
        (64, 64, 70),   # every view's stack spans two blocks plus a remainder
        (9, 7, 1),      # single-slice axial stack
        (400, 360, 2),  # axial slice plane larger than one block
    ], ids=["blocks_with_remainder", "single_slice", "plane_over_budget"])
    def test_edge_volumes_match_direct_evaluation(self, dims, scratch_dtypes):
        assert _BLOCK_BYTES // 2 == 131072  # the shapes above are chosen for this size
        rng = np.random.default_rng(23)
        plan = MagnitudePlan(
            axial=(2.0, 6.0), sagittal=(2.0, 5.0), coronal=(3.0, 5.0),
            ml1_mm=2.0, ml2_mm=6.0,
        )
        for data in self.edge_volumes(rng, dims):
            assert np.ptp(data) == 32767
            got = ms3d(Volume3D(data, (0.7, 0.7, 1.3)), plan, 4)
            want = direct_ms3d(data, plan, 4, rasterize_lse)
            assert got.data.tobytes() == want.tobytes()
        assert scratch_dtypes == [np.int16, np.int16]

    def test_edge_slices_match_direct_evaluation(self, scratch_dtypes):
        rng = np.random.default_rng(24)
        for n_orient in (1, 4, 10):
            for f in self.edge_volumes(rng, (37, 29)):
                got = ms2d(f, 2.0, 7.0, n_orient)
                assert got.tobytes() == direct_ms2d(f, 2.0, 7.0, n_orient, rasterize_lse).tobytes()
        assert scratch_dtypes == [np.int16] * 6

    def test_range_one_past_the_edge_takes_float32(self, scratch_dtypes):
        rng = np.random.default_rng(25)
        low, _ = self.edge_volumes(rng, (23, 19))
        low[5, 5] = 0.0  # max - min = 32768
        got = ms2d(low, 2.0, 7.0, 4)
        assert got.tobytes() == direct_ms2d(low, 2.0, 7.0, 4, rasterize_lse).tobytes()
        assert scratch_dtypes == [np.float32]

    def test_filters_without_the_origin_keep_the_float_ladder(self, scratch_dtypes):
        # an element without the origin reads only padding at some
        # outputs, which must be +-inf, not an int16 extreme
        rng = np.random.default_rng(26)
        f = rng.integers(-50, 50, size=(11, 13)).astype(np.float64)
        line = rasterize_lse(5, 0.4)
        off = np.array([[3, -2], [4, -2]])
        assert np.array_equal(gray_erode(f, line), naive_erode(f, line))
        assert np.array_equal(gray_dilate(f, line), naive_dilate(f, line))
        eroded = gray_erode(f, off)
        assert np.isinf(eroded).any()
        assert np.array_equal(eroded, naive_erode(f, off))
        assert np.array_equal(gray_dilate(f, off), naive_dilate(f, off))
        assert scratch_dtypes == [np.int16, np.int16, np.float32, np.float32]


class TestMaskedMs3d:
    """ms3d with a mask sifts only the slices the mask reaches."""

    plan = MagnitudePlan(axial=(2.0, 6.0), sagittal=(2.0, 5.0), coronal=(3.0, 5.0),
                         ml1_mm=2.0, ml2_mm=6.0)

    @staticmethod
    def masks(dims):
        rng = np.random.default_rng(31)
        out = {}
        one = np.zeros(dims, bool)
        one[tuple(int(rng.integers(n)) for n in dims)] = True
        out["single_voxel"] = one
        for axis in range(3):
            m = np.zeros(dims, bool)
            k = int(rng.integers(dims[axis]))
            np.moveaxis(m, axis, 0)[k] = rng.random(np.delete(dims, axis)) < 0.3
            np.moveaxis(m, axis, 0)[k].flat[0] = True
            out[f"slice_axis{axis}"] = m
            for end in (0, -1):
                m = np.zeros(dims, bool)
                np.moveaxis(m, axis, 0)[end] = True
                out[f"face_axis{axis}_{end}"] = m
        blob = np.zeros(dims, bool)
        blob[2:9, 3:12, 1:5] = rng.random((7, 9, 4)) < 0.6
        out["seeded_blob"] = blob
        out["full"] = np.ones(dims, bool)
        return out

    @pytest.mark.parametrize("integer", [True, False], ids=["int16", "float64"])
    def test_equals_unmasked_sifting_at_every_mask_voxel(self, integer):
        dims = (13, 16, 7)
        rng = np.random.default_rng(32)
        data = rng.integers(-40, 120, size=dims).astype(np.float64)
        if not integer:
            data += rng.random(dims)
        vol = Volume3D(data, (0.7, 0.7, 1.3))
        whole = ms3d(vol, self.plan, 4).data
        for name, m in self.masks(dims).items():
            got = ms3d(vol, self.plan, 4, mask=BinaryMask(m, vol.spacing)).data
            assert got[m].tobytes() == whole[m].tobytes(), name
            # a voxel outside every view's range of mask slices gets no term
            spans = []
            for a in range(3):
                ix = np.flatnonzero(m.any(axis=tuple(b for b in range(3) if b != a)))
                spans.append((np.arange(dims[a]) >= ix[0]) & (np.arange(dims[a]) <= ix[-1]))
            hit = spans[0][:, None, None] | spans[1][None, :, None] | spans[2][None, None, :]
            if name in ("single_voxel", "seeded_blob"):
                assert not hit.all(), name
            assert not got[~hit].any(), name
            if name == "full":
                assert got.tobytes() == whole.tobytes()

    def test_empty_mask_sifts_nothing(self):
        vol = Volume3D(np.random.default_rng(33).random((6, 5, 4)), (1.0, 1.0, 1.0))
        got = ms3d(vol, self.plan, 4, mask=BinaryMask(np.zeros((6, 5, 4), bool), vol.spacing))
        assert got.data.shape == (6, 5, 4) and not got.data.any()
        assert got.spacing == vol.spacing

    def test_mask_grid_must_match(self):
        vol = Volume3D(np.zeros((6, 5, 4)), (1.0, 1.0, 1.0))
        with pytest.raises(VolumeError):
            ms3d(vol, self.plan, 4, mask=BinaryMask(np.ones((6, 5, 3), bool), vol.spacing))

    def test_loaded_case_equals_unmasked_inside_the_breast(self, loaded_phantom_case):
        case = loaded_phantom_case
        sub = subtract(case.dce[1], case.dce[0])
        plan = lse_magnitudes(DEFAULT_V_MIN, DEFAULT_V_MAX, case.spacing[0], case.spacing[2], 3)
        breast = case.breast_mask
        got = ms3d(sub, plan, 10, mask=breast)
        assert normalize16(got, breast).data.tobytes() == \
            normalize16(ms3d(sub, plan, 10), breast).data.tobytes()
