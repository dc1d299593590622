import tracemalloc

import numpy as np
import pytest

from siftcad import volume as vmod
from siftcad.features import FeatureExtractor
from siftcad.volume import (
    BinaryMask,
    BreastCase,
    Pending,
    Volume3D,
    VolumeError,
    breast_mask,
    dsi,
    dsi_matrix,
    fat_mask,
    intensity_histogram,
    multilevel_otsu,
    otsu_multilevel_indices,
    subtract,
)

from oracles import dice, otsu_exhaustive_index, whole_array_histogram


def vol(data, spacing=(1.0, 1.0, 1.0)):
    return Volume3D(np.asarray(data, dtype=float), spacing)


class TestTypes:
    def test_volume_casts_to_float64(self):
        v = Volume3D(np.zeros((2, 3, 4), dtype=np.uint16), (0.7, 0.7, 1.3))
        assert v.data.dtype == np.float64
        assert v.dims == (2, 3, 4)

    def test_volume_keeps_the_integer_grids_of_a_subtraction(self):
        for dtype in (np.int16, np.int32):
            v = Volume3D(np.arange(-4, 4, dtype=dtype).reshape(2, 2, 2), (1, 1, 1))
            assert v.data.dtype == dtype and v.data.flags.c_contiguous
        assert Volume3D(np.zeros((2, 2, 2), np.int64), (1, 1, 1)).data.dtype == np.float64

    def test_volume_rejects_non_3d(self):
        with pytest.raises(VolumeError):
            Volume3D(np.zeros((4, 4)), (1, 1, 1))

    def test_volume_rejects_bad_spacing(self):
        with pytest.raises(VolumeError):
            Volume3D(np.zeros((2, 2, 2)), (1.0, -1.0, 1.0))
        with pytest.raises(VolumeError):
            Volume3D(np.zeros((2, 2, 2)), (1.0, 1.0))

    def test_mask_rejects_non_binary(self):
        with pytest.raises(VolumeError):
            BinaryMask(np.full((2, 2, 2), 3, dtype=np.uint8), (1, 1, 1))

    def test_case_requires_increasing_times(self):
        v = vol(np.ones((4, 4, 4)))
        m = BinaryMask(np.ones((4, 4, 4), bool), v.spacing)
        with pytest.raises(VolumeError, match="increasing"):
            BreastCase("c", "left", v, v, [v, v], [90.0, 0.0], m, m)

    def test_case_requires_matching_grids(self):
        v = vol(np.ones((4, 4, 4)))
        other = vol(np.ones((4, 4, 5)))
        m = BinaryMask(np.ones((4, 4, 4), bool), v.spacing)
        with pytest.raises(VolumeError, match="dims"):
            BreastCase("c", "left", v, other, [v, v], [0.0, 90.0], m, m)


class TestSubtract:
    def test_subtract_values(self):
        a = vol(np.full((2, 2, 2), 5.0))
        b = vol(np.full((2, 2, 2), 2.0))
        assert np.all(subtract(a, b).data == 3.0)

    def test_subtract_mismatch(self):
        a = vol(np.zeros((2, 2, 2)))
        b = vol(np.zeros((2, 2, 3)))
        with pytest.raises(VolumeError):
            subtract(a, b)
        c = Volume3D(np.zeros((2, 2, 2)), (2, 2, 2))
        with pytest.raises(VolumeError):
            subtract(a, c)


    @staticmethod
    def stored(values, spacing=(1.0, 1.0, 1.3)):
        """A Pending volume whose stored values are ``values`` (unsigned
        short), counting its reads."""
        arr = np.asarray(values, dtype=np.uint16).reshape(1, 1, -1)
        reads = []
        pending = Pending(arr.shape, spacing, "frame.nrrd",
                          read=lambda: reads.append(1) or (arr.copy(), spacing))
        return pending, reads

    @pytest.mark.parametrize("a, b, dtype", [
        ([5, 0, 32767, 0], [2, 7, 0, 32768], np.int16),      # differences at the bounds
        ([40000, 0, 9], [0, 0, 9], np.int32),                # a 40000 step
        ([0, 1, 2], [32769, 1, 2], np.int32),                # one past int16's minimum
        ([65535, 40001, 0], [65534, 40000, 0], np.int16),    # wide frames, narrow differences
    ], ids=["int16_bounds", "step_40000", "below_int16", "wide_frames"])
    def test_stored_frames_subtract_exactly(self, a, b, dtype):
        (pa, reads_a), (pb, reads_b) = self.stored(a), self.stored(b)
        got = subtract(pa, pb)
        assert got.data.dtype == dtype and got.spacing == pa.spacing
        assert got.data.ravel().tolist() == [x - y for x, y in zip(a, b)]
        # read for the subtraction alone: a second one reads them again
        subtract(pa, pb)
        assert len(reads_a) == len(reads_b) == 2

    def test_a_volume_already_read_subtracts_in_float64(self):
        pa, _ = self.stored([40000, 3, 0])
        made = Volume3D(np.array([1.5, 1.0, 2.0]).reshape(1, 1, 3), pa.spacing)
        got = subtract(pa, made)
        assert got.data.dtype == np.float64
        assert got.data.ravel().tolist() == [39998.5, 2.0, -2.0]
        assert subtract(made, made).data.dtype == np.float64

    def test_stored_grid_must_match_the_header(self):
        pa, _ = self.stored([1, 2, 3])
        moved = Pending(pa.dims, pa.spacing, "frame.nrrd",
                        read=lambda: (np.ones((1, 1, 3), np.uint16), (2.0, 2.0, 2.0)))
        with pytest.raises(VolumeError, match="frame.nrrd: grid changed"):
            subtract(pa, moved)


class TestOtsu:
    # the bins are counted a chunk of values at a time: the default chunk
    # (a remainder past two whole chunks) and 7-value chunks give the
    # counts and bounds of the whole-array formula, bit for bit
    @pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16])
    def test_histogram_in_chunks_equals_the_whole_array_formula(self, monkeypatch,
                                                                chunk, dtype):
        if chunk is not None:
            monkeypatch.setattr(vmod, "_HISTOGRAM_CHUNK", chunk)
        rng = np.random.default_rng(17)
        sizes = (2, 3, 7, 8, 1000) if chunk else (1000, 2 * vmod._HISTOGRAM_CHUNK + 5)
        for size in sizes:
            values = np.clip(rng.gamma(2.0, 1000.0, size) - 2000.0, -2000.0, 30000.0)
            values = values.astype(dtype)
            values[-1] = values.max() + 1
            values[rng.integers(1, size, 3)] = values.max()
            counts, spec = intensity_histogram(values)
            want, (lo, hi) = whole_array_histogram(values)
            assert (spec.lo, spec.hi, spec.n_bins) == (lo, hi, 256)
            assert counts.dtype == np.float64 and np.array_equal(counts, want)
            assert counts[-1] >= np.count_nonzero(values == values.max()) >= 1
            assert counts.sum() == size

    # the bins are counted a chunk at a time: the temporaries are a few
    # chunks (1 MiB here), not arrays the size of the input
    def test_histogram_temporaries_are_bounded(self):
        values = np.random.default_rng(3).normal(size=1 << 20)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            intensity_histogram(values)
            rise = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert rise <= values.nbytes / 4

    def test_two_delta_masses(self):
        data = np.zeros((10, 10, 10))
        data.ravel()[:500] = 200.0
        th = multilevel_otsu(vol(data), None, 1)[0]
        assert 0.0 < th < 200.0

    def test_bimodal_gaussians(self):
        rng = np.random.default_rng(42)
        samples = np.concatenate(
            [rng.normal(50, 10, 10_000), rng.normal(200, 10, 10_000)]
        )
        th = multilevel_otsu(vol(samples.reshape(20, 100, 10)), None, 1)[0]
        assert 90.0 <= th <= 160.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            data = rng.gamma(2.0, 30.0, size=(8, 8, 8))
            hist, spec = intensity_histogram(data)
            expected = spec.upper_edge(otsu_exhaustive_index(hist))
            assert multilevel_otsu(vol(data), None, 1)[0] == pytest.approx(expected, abs=0)

    def test_plateau_ties_to_its_first_bin(self):
        # two modes with empty bins between them: every split on the
        # plateau scores the same, and the first wins. The classic float
        # criterion w0*w1*(mu0-mu1)**2 rounds differently along the
        # plateau and picks bin 3 here
        hist = np.array([36, 0, 0, 0, 0, 0, 0, 0, 37, 5, 6, 3], dtype=np.float64)
        p = hist / hist.sum()
        k = np.arange(hist.size)

        def classic(t):
            w0 = p[:t + 1].sum()
            w1 = 1.0 - w0
            return w0 * w1 * ((k[:t + 1] * p[:t + 1]).sum() / w0
                              - (k[t + 1:] * p[t + 1:]).sum() / w1) ** 2

        assert int(np.argmax([classic(t) for t in range(hist.size - 1)])) == 3
        assert otsu_exhaustive_index(hist) == 0
        assert otsu_multilevel_indices(hist, 1).tolist() == [0]
        # bimodal samples on 256 bins, where the float criterion's pick
        # was 56.60 and the package's 53.48
        rng = np.random.default_rng(5)
        data = np.concatenate([rng.normal(40.0, 4.0, 4000), rng.normal(150.0, 10.0, 2000)])
        hist, spec = intensity_histogram(data)
        want = spec.upper_edge(otsu_exhaustive_index(hist))
        assert round(want, 2) == 53.48
        assert multilevel_otsu(vol(data.reshape(20, 20, 15)), None, 1)[0] == want

    def test_constant_volume_rejected(self):
        with pytest.raises(VolumeError):
            multilevel_otsu(vol(np.ones((3, 3, 3))), None, 1)

    def test_mask_restricts_voxels(self):
        data = np.zeros((6, 6, 6))
        data[:3] = 100.0
        data[3:] = 1e6  # would dominate without the mask
        m = np.zeros((6, 6, 6), bool)
        m[:3] = True
        data[0, 0, 0] = 0.0
        th = multilevel_otsu(vol(data), BinaryMask(m, (1, 1, 1)), 1)[0]
        assert th < 200.0


class TestBreastMask:
    def test_keeps_largest_blob_and_fills_holes(self):
        data = np.zeros((40, 20, 8))
        data[2:18, 2:18, :] = 100.0   # large blob
        data[8:12, 8:12, :] = 0.0     # hole inside it
        data[30:33, 3:6, 2:5] = 100.0  # small distractor blob
        m = breast_mask(vol(data))
        assert m.data[9, 9, 3]          # hole filled
        assert not m.data[31, 4, 3]     # distractor dropped
        assert m.data[5, 5, 0]

    def test_no_foreground_error(self):
        with pytest.raises(VolumeError):
            breast_mask(vol(np.ones((4, 4, 4))))


class TestFatAndNormalise:
    @staticmethod
    def synthetic_breast():
        dims = (48, 40, 16)
        grids = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
        e = (
            ((grids[0] - 24) / 20.0) ** 2
            + ((grids[1] - 20) / 16.0) ** 2
            + ((grids[2] - 8) / 6.0) ** 2
        )
        breast = e <= 1.0
        gland = e <= 0.45
        fat = breast & ~gland
        rng = np.random.default_rng(11)
        t1 = np.full(dims, 5.0) + rng.normal(0, 1.5, dims)
        t1[gland] = 100.0 + rng.normal(0, 4.0, gland.sum())
        t1[fat] = 200.0 + rng.normal(0, 4.0, fat.sum())
        return vol(t1), breast, fat

    def test_fat_mask_dice(self):
        t1, breast, fat_true = self.synthetic_breast()
        bm = breast_mask(t1)
        fm = fat_mask(t1, bm)
        inter = (fm.data & fat_true).sum()
        d = 2 * inter / (fm.count + fat_true.sum())
        assert d >= 0.9

    # the feature extractor divides each sequence by its mean over the
    # fat mask
    @staticmethod
    def extractor(t1, fat):
        mask = BinaryMask(fat, t1.spacing)
        case = BreastCase("c", "left", t1, t1, [t1, t1], [0.0, 90.0],
                          BinaryMask(np.ones(t1.dims, bool), t1.spacing), mask)
        return FeatureExtractor(case)

    def test_normalize_to_fat_unit_mean(self):
        t1, _, fat_true = self.synthetic_breast()
        level = self.extractor(t1, fat_true)._level("t1", 1)
        assert level[fat_true].mean() == pytest.approx(1.0)

    def test_normalize_errors(self):
        t1, _, _ = self.synthetic_breast()
        with pytest.raises(VolumeError, match="fat mask is empty"):
            self.extractor(t1, np.zeros(t1.dims, bool))
        neg = Volume3D(-np.abs(t1.data), t1.spacing)
        with pytest.raises(VolumeError, match="non-positive fat mean"):
            self.extractor(neg, np.ones(t1.dims, bool))


class TestDsiMatrix:
    def test_matches_whole_grid_dice(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            dims = tuple(int(n) for n in rng.integers(1, 9, size=3))
            masks = [rng.random(dims) < rng.choice([0.0, 0.1, 0.5, 1.0])
                     for _ in range(int(rng.integers(0, 5)))]
            masks += [masks[0].copy()] if masks else []  # an identical region
            masks.append(np.zeros(dims, bool))
            masks.append(~masks[0] if len(masks) > 1 else np.ones(dims, bool))
            regions = [np.flatnonzero(m) for m in masks]
            split = int(rng.integers(0, len(masks) + 1))
            got = dsi_matrix(regions[:split], regions[split:])
            assert got.shape == (split, len(masks) - split)
            for i, a in enumerate(masks[:split]):
                for j, b in enumerate(masks[split:]):
                    assert got[i, j] == dice(a, b)

    def test_conventions(self):
        empty = np.zeros(0, dtype=np.int64)
        bar = np.arange(4)
        got = dsi_matrix([empty, bar], [empty, bar, bar + 4, bar + 2])
        assert got.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.5]]
        assert dsi_matrix([], [bar]).shape == (0, 1)
        assert dsi_matrix([bar], []).shape == (1, 0)

    def test_dsi_rejects_masks_on_different_grids(self):
        with pytest.raises(VolumeError, match="mask grids differ"):
            dsi(np.ones((2, 2, 2), bool), np.ones((2, 2, 3), bool))
