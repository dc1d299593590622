import numpy as np
import pytest

from siftcad.volume import BinaryMask, Volume3D, VolumeError
from siftcad.wavelet import (
    DEC_HI,
    DEC_LO,
    LLL_GAIN,
    dims_ladder,
    _analysis_axis,
    _lll_once,
    dwt3_db2,
    idwt3_db2,
    mask_ladder,
    scale_ladder,
    subband_length,
    upscale_indices,
    upscale_mask,
)

from oracles import analysis_axis_padded, ball_mask, dice, lll_padded

SP = (1.0, 1.0, 1.0)


def test_filter_is_sqrt2_normalised():
    assert DEC_LO.sum() == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert (DEC_LO ** 2).sum() == pytest.approx(1.0, abs=1e-15)


def test_roundtrip_random_volumes():
    rng = np.random.default_rng(123)
    for _ in range(20):
        v = Volume3D(rng.random((16, 16, 16)), SP)
        back = idwt3_db2(dwt3_db2(v))
        assert np.max(np.abs(back.data - v.data)) <= 1e-9


def test_roundtrip_odd_dims():
    rng = np.random.default_rng(5)
    for dims in [(7, 9, 11), (13, 8, 5), (6, 7, 12)]:
        v = Volume3D(rng.random(dims), SP)
        back = idwt3_db2(dwt3_db2(v))
        assert back.dims == dims
        assert np.max(np.abs(back.data - v.data)) <= 1e-9


def test_constant_volume_lll_gain():
    v = Volume3D(np.full((16, 16, 16), 3.25), SP)
    sb = dwt3_db2(v)
    assert np.max(np.abs(sb.bands["LLL"] - 3.25 * LLL_GAIN)) <= 1e-9
    for key, band in sb.bands.items():
        if key != "LLL":
            assert np.max(np.abs(band)) <= 1e-9


def test_linearity():
    rng = np.random.default_rng(9)
    a = rng.random((12, 10, 8))
    b = rng.random((12, 10, 8))
    sa = dwt3_db2(Volume3D(a, SP))
    sb = dwt3_db2(Volume3D(b, SP))
    ss = dwt3_db2(Volume3D(2.0 * a + 3.0 * b, SP))
    for key in ss.bands:
        assert np.allclose(ss.bands[key], 2.0 * sa.bands[key] + 3.0 * sb.bands[key], atol=1e-12)


def test_subband_dims_and_ladder():
    assert subband_length(16) == 9
    assert subband_length(9) == 6
    ladder = dims_ladder((64, 64, 64), 3)
    assert ladder[0] == (64, 64, 64)
    assert ladder[1] == (33, 33, 33)
    assert ladder[2] == (18, 18, 18)


def test_scale_image_dims_spacing_gain():
    v = Volume3D(np.full((64, 64, 32), 2.0), (0.7, 0.7, 1.3))
    s1, s2, s3 = scale_ladder(v, 3)
    assert s1 is v
    assert isinstance(s2, Volume3D)
    assert s2.dims == (33, 33, 17)
    assert s2.spacing == (1.4, 1.4, 2.6)
    assert np.max(np.abs(s2.data - 2.0 * LLL_GAIN)) <= 1e-9
    assert s3.dims == (18, 18, 10)
    assert s3.spacing == (2.8, 2.8, 5.2)
    assert np.max(np.abs(s3.data - 2.0 * LLL_GAIN ** 2)) <= 1e-9
    with pytest.raises(VolumeError):
        next(scale_ladder(v, 0))


def test_ladders_equal_the_chain_from_full_resolution():
    # each ladder level is bit-equal to decimating the full-resolution
    # input m - 1 times afresh, odd dims included; the mask ladder
    # decimates the boolean array, the chain here its float64 copy
    rng = np.random.default_rng(31)
    v = Volume3D(rng.standard_normal((23, 18, 11)) * 50, (0.7, 0.7, 1.3))
    mask = BinaryMask(rng.random(v.dims) < 0.6, v.spacing)
    levels = list(zip(scale_ladder(v, 4), mask_ladder(mask, 4)))
    assert len(levels) == 4
    for m, (scaled, mask_m) in enumerate(levels, start=1):
        data, mdata = v.data, mask.data.astype(np.float64)
        for _ in range(m - 1):
            data, mdata = _lll_once(data), _lll_once(mdata)
        spacing = tuple(s * 2 ** (m - 1) for s in v.spacing)
        assert scaled.spacing == mask_m.spacing == spacing
        assert scaled.data.tobytes() == np.ascontiguousarray(data).tobytes()
        assert np.array_equal(mask_m.data, mdata / LLL_GAIN ** (m - 1) >= 0.5)


def _padded_oracle_inputs():
    # every axis length 1-9 (even, odd and shorter than the filter) on
    # each axis, and one large grid; signed zeros on every seventh voxel
    rng = np.random.default_rng(41)
    shapes = [tuple(np.roll((n, 4, 5), axis)) for n in range(1, 10) for axis in range(3)]
    shapes += [(2, 3, 1), (9, 9, 9), (96, 80, 41)]
    for shape in shapes:
        data = rng.standard_normal(shape) * 100.0
        data.ravel()[::7] = -0.0
        yield data
        yield rng.random(shape) < 0.5


def test_analysis_reads_the_input_bit_equal_to_padded_copies():
    for data in _padded_oracle_inputs():
        want = lll_padded(data.astype(np.float64), DEC_LO)
        got = _lll_once(data)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (data.shape, data.dtype)
        if data.dtype == np.float64:
            for axis in range(3):
                for filt in (DEC_LO, DEC_HI):
                    assert _analysis_axis(data, axis, filt).tobytes() == np.ascontiguousarray(
                        analysis_axis_padded(data, axis, filt)).tobytes(), (data.shape, axis)


def test_upscale_full_mask_is_full():
    dims = (20, 18, 15)
    for m in (1, 2, 3):
        level_dims = dims_ladder(dims, m)[m - 1]
        full = BinaryMask(np.ones(level_dims, bool), tuple(s * 2 ** (m - 1) for s in SP))
        up = upscale_mask(full, m, dims, SP)
        assert up.dims == dims
        assert up.data.all()


def test_upscale_mask_dims_mismatch():
    m = BinaryMask(np.ones((5, 5, 5), bool), SP)
    with pytest.raises(VolumeError, match="dims"):
        upscale_mask(m, 2, (20, 18, 15), SP)


def test_box_local_upscale_equals_whole_grid_upscale():
    # oracle: the whole-grid inverse; odd and even dims, boxes touching
    # every face of the grid, sparse and solid boxes, single voxels
    rng = np.random.default_rng(77)
    faces = set()
    for trial in range(240):
        m = 2 + trial % 2
        dims = tuple(int(n) for n in rng.integers(3, 26, size=3))
        ldims = dims_ladder(dims, m)[m - 1]
        lo = [int(rng.integers(0, n)) for n in ldims]
        hi = [int(rng.integers(a, n)) for a, n in zip(lo, ldims)]
        for axis, n in enumerate(ldims):
            side = rng.integers(0, 4)
            if side == 0:
                lo[axis] = 0
            elif side == 1:
                hi[axis] = n - 1
        region = np.zeros(ldims, dtype=bool)
        box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        if trial % 5 == 0:
            region[tuple(lo)] = True
        else:
            region[box] = rng.random(region[box].shape) < rng.choice([0.2, 0.6, 1.0])
            region[tuple(lo)] = region[tuple(hi)] = True
        flat = np.flatnonzero(region)
        coords = np.unravel_index(flat, ldims)
        for axis, n in enumerate(ldims):
            if coords[axis].min() == 0:
                faces.add((axis, "low"))
            if coords[axis].max() == n - 1:
                faces.add((axis, "high"))
        want = upscale_mask(BinaryMask(region, SP), m, dims, SP)
        got = upscale_indices(flat, ldims, m, dims)
        assert np.array_equal(got, np.flatnonzero(want.data)), (trial, dims, m)
    assert len(faces) == 6


def test_box_local_upscale_dims_mismatch():
    with pytest.raises(VolumeError, match="dims"):
        upscale_indices(np.array([0]), (5, 5, 5), 2, (20, 18, 15))


def test_upscale_ball_overlaps_analytic_reference():
    # a ball at scale 2 should land on the analytic ball at scale 1;
    # the subband grid sits one fine voxel toward the origin per level,
    # so the reference centre is phase-corrected by -1 voxel
    dims = (40, 40, 40)
    m = 2
    ldims = dims_ladder(dims, m)[m - 1]
    sp2 = tuple(s * 2 for s in SP)
    ball2 = ball_mask(ldims, sp2, (20.0, 20.0, 20.0), 9.0)
    up = upscale_mask(BinaryMask(ball2, sp2), m, dims, SP)
    ball1 = ball_mask(dims, SP, (19.0, 19.0, 19.0), 9.0)
    assert dice(up.data, ball1) >= 0.90


def test_downscale_then_upscale_keeps_bulk():
    dims = (40, 36, 30)
    ball = ball_mask(dims, SP, (20.0, 18.0, 15.0), 10.0)
    *_, down = mask_ladder(BinaryMask(ball, SP), 2)
    assert down.dims == dims_ladder(dims, 2)[1]
    up = upscale_mask(down, 2, dims, SP)
    assert dice(up.data, ball) >= 0.85
