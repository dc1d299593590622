import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from siftcad import candidates as cmod
from siftcad.candidates import (
    DEFAULT_V_MAX,
    DEFAULT_V_MIN,
    _sieve_components,
    diameter_to_volume,
    generate_candidates,
    volume_window,
)
from siftcad.nrrd_io import load_case, load_volume
from siftcad.phantom import generate_suite
from siftcad.volume import (
    BinaryMask,
    BreastCase,
    Pending,
    Volume3D,
    VolumeError,
    intensity_histogram,
    multilevel_otsu,
    otsu_multilevel_indices,
    region_mask,
)
from siftcad.wavelet import dims_ladder, upscale_mask

from helpers import candidate_from_mask, integer_case_both_ways, make_mini_case
from oracles import dice, multilevel_otsu_exhaustive, sieve_components


def _on_original_grid(c):
    return region_mask(c.original_indices(), c.original_dims, c.original_spacing).data


# ---------------------------------------------------------------------------
# multilevel Otsu
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t_count", [1, 2, 3])
def test_indices_match_exhaustive_enumeration(t_count):
    rng = np.random.default_rng(41 + t_count)
    for _ in range(15):
        hist = rng.poisson(6.0, 64).astype(np.float64)
        if hist.sum() == 0:
            hist[0] = 1.0
        got = tuple(int(t) for t in otsu_multilevel_indices(hist, t_count))
        assert got == multilevel_otsu_exhaustive(hist, t_count)


def test_zero_mass_plateaus_tie_to_smallest_indices():
    hist = np.array([4.0, 0, 0, 0, 9.0, 0, 0, 0, 2.0, 0, 0, 0, 0, 0, 0, 0])
    for t_count in (1, 2, 3):
        got = tuple(int(t) for t in otsu_multilevel_indices(hist, t_count))
        assert got == multilevel_otsu_exhaustive(hist, t_count)


def test_sixteen_thresholds_match_frozen_indices():
    # the production bank size on 256 bins, beyond the exhaustive oracle's
    # reach; indices frozen from the row-by-row dynamic programme
    x = np.arange(256)
    scrambled = ((x * 7919) % 1009).astype(np.float64)
    skewed = np.floor(2000.0 * (x / 40.0) * np.exp(-x / 40.0))
    skewed[(x % 5 == 0) & (x > 60)] = 0.0  # empty bins in the tail
    assert otsu_multilevel_indices(scrambled, 16).tolist() == [
        13, 28, 43, 58, 71, 84, 97, 111, 127, 144, 160, 177, 193, 210, 226, 241]
    assert otsu_multilevel_indices(skewed, 16).tolist() == [
        15, 25, 35, 44, 54, 64, 74, 87, 99, 114, 129, 144, 161, 179, 199, 224]


def test_single_threshold_equals_scalar_otsu():
    rng = np.random.default_rng(5)
    data = np.concatenate([
        rng.normal(40.0, 4.0, 4000), rng.normal(150.0, 10.0, 2000)
    ]).reshape(20, 20, 15)
    vol = Volume3D(data, (1, 1, 1))
    mask = BinaryMask(np.ones(vol.dims, dtype=bool), vol.spacing)
    thresholds = multilevel_otsu(vol, mask, 1)
    hist, spec = intensity_histogram(data)
    (t,) = multilevel_otsu_exhaustive(hist, 1)
    assert thresholds.tolist() == [spec.upper_edge(t)]


def test_delta_peaks_split_between_modes():
    vals = np.concatenate([
        np.full(1000, 10.0), np.full(800, 100.0), np.full(600, 200.0)
    ])
    vol = Volume3D(vals.reshape(24, 10, 10), (1, 1, 1))
    mask = BinaryMask(np.ones(vol.dims, dtype=bool), vol.spacing)
    th0, th1 = multilevel_otsu(vol, mask, 2)
    assert 10.0 < th0 <= 100.0 < th1 <= 200.0
    assert int((vol.data >= th0).sum()) == 1400
    assert int((vol.data >= th1).sum()) == 600


def test_threshold_bank_strictly_increasing():
    rng = np.random.default_rng(11)
    vol = Volume3D(rng.gamma(2.0, 30.0, (16, 16, 16)), (1, 1, 1))
    mask = BinaryMask(np.ones(vol.dims, dtype=bool), vol.spacing)
    thresholds = multilevel_otsu(vol, mask, 16)
    assert thresholds.shape == (16,)
    assert np.all(np.diff(thresholds) > 0)


def test_too_few_distinct_values_rejected():
    vol = Volume3D(np.tile([0.0, 1.0, 2.0], 9).reshape(3, 3, 3), (1, 1, 1))
    mask = BinaryMask(np.ones(vol.dims, dtype=bool), vol.spacing)
    with pytest.raises(VolumeError):
        multilevel_otsu(vol, mask, 16)
    with pytest.raises(VolumeError):
        otsu_multilevel_indices(np.ones(8), 0)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_components_use_26_connectivity_and_raster_order():
    data = np.zeros((6, 6, 6), dtype=bool)
    data[4, 4, 4] = True            # raster-late single voxel
    data[0, 0, 5] = True            # corner-touching pair: one component under 26-conn
    data[1, 1, 4] = True
    data[0, 3, 0] = True            # edge-touching bar, sorted voxel by voxel
    data[0, 4, 0] = True
    data[1, 5, 0] = True
    (comps,) = _sieve_components(data.astype(float), [0.5], 0.0, np.inf, 1.0)
    flat = lambda *ijk: np.ravel_multi_index(ijk, data.shape)
    assert [c.tolist() for c in comps] == [
        [flat(0, 0, 5), flat(1, 1, 4)],
        [flat(0, 3, 0), flat(0, 4, 0), flat(1, 5, 0)],
        [flat(4, 4, 4)],
    ]
    assert _sieve_components(np.zeros((3, 3, 3)), [0.5], 0.0, np.inf, 1.0) == [[]]


def _assert_same_pieces(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _sieve_both(data, thresholds, lo=0.0, hi=np.inf, voxvol=1.0):
    got = _sieve_components(data, thresholds, lo, hi, voxvol)
    _assert_same_pieces(got, sieve_components(data, thresholds, lo, hi, voxvol))
    return got


def test_sieve_matches_whole_grid_oracle_on_random_volumes(monkeypatch):
    rng = np.random.default_rng(23)
    for _ in range(60):
        dims = tuple(int(n) for n in rng.integers(1, 14, 3))
        data = rng.random(dims)
        if rng.random() < 0.5:
            # smooth noise: large components that shrink as thresholds rise
            data = ndimage.uniform_filter(data, 3, mode="nearest")
        thresholds = np.sort(rng.choice(data.ravel(), size=min(data.size, 5)))
        voxvol = float(rng.choice([1.0, 0.7 * 0.7 * 1.3, 8.0]))
        sizes = rng.integers(0, data.size + 1, 2) * voxvol
        lo, hi = float(sizes.min()), float(sizes.max())
        # a bank whose low thresholds fill their box, the whole grid
        filling = np.concatenate([[data.min() - 1.0, data.min()], thresholds])
        # the labels are counted and read a chunk of voxels at a time:
        # chunks of 7 voxels cut every box, the default chunk none of these
        for chunk in (7, 1 << 16):
            monkeypatch.setattr(cmod, "_SIEVE_CHUNK", chunk)
            _sieve_both(data, thresholds, lo, hi, voxvol)
            _sieve_both(data, thresholds)
            got = _sieve_both(data, filling, lo, hi, voxvol)
            _assert_same_pieces(got[:1], got[1:2])
            assert [p.size for p in _sieve_both(data, filling)[0]] == [data.size]


def test_sieve_edge_cases_match_whole_grid_oracle():
    rng = np.random.default_rng(29)
    # empty foreground at every threshold, and at the upper ones only
    data = rng.random((5, 6, 7))
    assert _sieve_both(data, [2.0, 3.0]) == [[], []]
    got = _sieve_both(data, [0.5, 0.9, 1.5, 2.5])
    assert got[0] and got[2:] == [[], []]
    # one component touching every face, then one per face
    assert len(_sieve_both(np.ones((4, 5, 6)), [0.5])[0]) == 1
    faces = np.zeros((7, 8, 9))
    faces[0, 2:4, 3] = faces[-1, 5, 2:6] = faces[3, 0, 4] = 1.0
    faces[2:5, -1, 7] = faces[5, 3, 0] = faces[1, 2, -1] = 1.0
    assert len(_sieve_both(faces, [0.5])[0]) == 6
    # isolated single voxels, kept by a window of exactly one voxel
    single = np.zeros((9, 9, 9))
    single[::2, ::3, ::4] = rng.random(single[::2, ::3, ::4].shape) + 1.0
    got = _sieve_both(single, [0.5, 1.5], 0.637, 0.637, 0.637)
    assert all(p.size == 1 for pieces in got for p in pieces)
    # 26-connected diagonal chains are single components
    chains = np.zeros((8, 8, 8))
    i = np.arange(8)
    chains[i, i, i] = 1.0
    chains[i, 7 - i, np.minimum(i, 3)] = 2.0
    got = _sieve_both(chains, [0.5, 1.5])
    assert [len(p) for p in got] == [1, 1]
    # a threshold whose every piece falls outside the window
    blobs = np.zeros((10, 10, 10))
    blobs[1:4, 1:4, 1:4] = 1.0
    blobs[6:8, 6:8, 6:8] = 2.0
    got = _sieve_both(blobs, [0.5, 1.5], 8.0, 8.0)
    assert [len(p) for p in got] == [1, 1]
    assert _sieve_both(blobs, [0.5, 1.5], 9.0, 26.0) == [[], []]


# one threshold's labels are alive at a time, int32, and counted and read
# a chunk at a time, so the sieve rises by the boolean foreground and one
# int32 label grid, 5 bytes per box voxel: 5.32 here, where the two
# lowest thresholds fill the whole grid as their box; intp labels, two
# grids alive at once and whole-grid index casts made it 17.7
def test_sieve_peak_is_one_int32_label_grid():
    rng = np.random.default_rng(37)
    data = ndimage.uniform_filter(rng.random((128, 128, 64)), 5, mode="nearest")
    thresholds = [data.min() - 1.0, data.min(), *np.quantile(data, [0.99, 0.999])]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pieces = _sieve_components(data, thresholds, 1.0, 64.0, 1.0)
        rise = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert pieces[:2] == [[], []] and pieces[2] and pieces[3]
    assert rise / data.size <= 5.5


def test_sieve_window_bounds_are_inclusive_floats():
    rng = np.random.default_rng(31)
    data = ndimage.uniform_filter(rng.random((12, 11, 10)), 3, mode="nearest")
    th = [float(np.quantile(data, 0.8))]
    voxvol = 0.7 * 0.7 * 1.3
    (pieces,) = _sieve_both(data, th, 0.0, np.inf, voxvol)
    assert len({p.size for p in pieces}) >= 2
    for size in sorted({p.size for p in pieces}):
        exact = size * voxvol
        up, down = np.nextafter(exact, np.inf), np.nextafter(exact, 0.0)
        at = lambda lo, hi: sorted(p.size for p in _sieve_both(data, th, lo, hi, voxvol)[0])
        assert size in at(exact, exact)
        assert size not in at(up, np.inf)
        assert size not in at(0.0, down)


# ---------------------------------------------------------------------------
# size sieve
# ---------------------------------------------------------------------------

def test_volume_window_reference_numbers():
    v_min = diameter_to_volume(4.0)
    v_max = diameter_to_volume(63.0)
    assert v_min == pytest.approx(33.5103, abs=1e-3)
    assert v_max == pytest.approx(130924.3030, abs=1e-3)
    assert volume_window(1, 3, v_min, v_max) == pytest.approx((33.5103, 2045.6922), abs=1e-3)
    assert volume_window(2, 3, v_min, v_max) == pytest.approx((2045.6922, 130924.3030), abs=1e-3)
    assert volume_window(3, 3, v_min, v_max) == pytest.approx((16365.5379, 130924.3030), abs=1e-3)


def test_size_sieve_bounds_are_inclusive(monkeypatch):
    # the sifting plan stays at the default window, so v_min and v_max
    # move the sieve only and every component stays what it was
    plan = cmod.lse_magnitudes
    monkeypatch.setattr(cmod, "lse_magnitudes", lambda v_min, v_max, *rest:
                        plan(DEFAULT_V_MIN, DEFAULT_V_MAX, *rest))
    case = make_mini_case(noise=0.5, clutter=2.0, seed=9)
    base = generate_candidates(case)

    def fine(cands, lo=0.0, hi=np.inf):
        return [(c.threshold_index, c.flat_indices.tolist()) for c in cands
                if c.scale_index == 1 and lo <= c.physical_volume_mm3 <= hi]

    volumes = sorted({c.physical_volume_mm3 for c in base if c.scale_index == 1})
    assert len(volumes) >= 3
    exact = volumes[len(volumes) // 2]
    up, down = np.nextafter(exact, np.inf), np.nextafter(exact, 0.0)
    # scale 1 keeps [v_min, v_max / 8**2]; scaling by 64 is exact
    for window, lo, hi in (
        (dict(v_min=exact), exact, np.inf),
        (dict(v_min=up), up, np.inf),
        (dict(v_max=64 * exact), 0.0, exact),
        (dict(v_max=64 * down), 0.0, down),
    ):
        assert fine(generate_candidates(case, **window)) == fine(base, lo, hi), window


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def test_generated_candidate_covers_the_lesion():
    case = make_mini_case(noise=0.5, seed=3)
    cands = generate_candidates(case)
    assert cands
    truth = case.ground_truth[0].data
    best = max(dice(_on_original_grid(c), truth) for c in cands)
    assert best >= 0.6
    for c in cands:
        lo, hi = volume_window(c.scale_index, 3, DEFAULT_V_MIN, DEFAULT_V_MAX)
        assert lo <= c.physical_volume_mm3 <= hi
        idx = c.flat_indices
        assert np.all(np.diff(idx) > 0)


def test_generation_walks_the_wavelet_ladder_once(monkeypatch):
    # scale m of the subtraction and of the breast mask are each made
    # from scale m - 1: two decimations per coarser scale, not m - 1
    import siftcad.wavelet as wmod

    shapes = []
    real = wmod._lll_once
    monkeypatch.setattr(wmod, "_lll_once", lambda data: shapes.append(data.shape) or real(data))
    case = make_mini_case(noise=0.5, seed=3)
    cands = generate_candidates(case, m_scales=3)
    level2 = dims_ladder(case.dims, 2)[1]
    assert sorted(shapes) == sorted([case.dims, case.dims, level2, level2])
    assert {c.scale_index for c in cands} >= {1}


# frames given to the case as float64 volumes, held before the trace
# starts: scale 1's ms3d sets the peak (the float64 subtraction, levels 2
# and 3 of both ladders, and ms3d's output and scratch). 2.72 grids on
# seeds 1-4 at 128x128x64, where the fixed-size scratch blocks and groups
# are small beside a grid; copying each view's whole stack to its sum
# dtype made it 2.97, and decimating each level after the scale before it
# was sifted, with that scale's response and a padded copy of its input
# held, 4.24
def test_generation_peak_in_grids(tmp_path):
    dims = (128, 128, 64)
    (record,) = generate_suite(1, 1, tmp_path, dims=dims, spacing=(0.7, 0.7, 1.3))
    loaded = load_case(record)
    frames = [load_volume(record.base_dir / p) for p in record.dce]
    case = BreastCase(loaded.case_id, loaded.side, loaded.t1, loaded.t2, frames,
                      loaded.acquisition_times, loaded.breast_mask, loaded.fat_mask,
                      loaded.ground_truth)
    for payload in (case.dce[0], case.dce[1], case.breast_mask):
        assert payload.data.size  # read before the trace starts
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert generate_candidates(case)
        rise = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert rise / (8 * np.prod(dims)) <= 2.8


# the frames are read as stored for the subtraction alone, which is
# int16, and the case keeps neither. Scale 1's ms3d sets the peak (the
# subtraction, levels 2 and 3 of both ladders, and ms3d's output and
# scratch): 2.10 grids on seeds 1-4 at 128x128x64, the breast mask's read
# included. Scale 1's Otsu bank, its histogram binned a chunk at a time,
# peaks at 1.84
def test_generation_from_unread_frames_peak_in_grids(tmp_path):
    dims = (128, 128, 64)
    (record,) = generate_suite(1, 1, tmp_path, dims=dims, spacing=(0.7, 0.7, 1.3))
    case = load_case(record)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert generate_candidates(case)
        rise = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert rise / (8 * np.prod(dims)) <= 2.15
    assert all(isinstance(case.dce[i], Pending) for i in (0, 1))


def _keys(cands):
    return [(c.scale_index, c.threshold_index, c.flat_indices.tobytes()) for c in cands]


# two stored frames subtract in int16 when every difference fits, else in
# int32; either way the candidates are those of float64 frames
@pytest.mark.parametrize("step, dtype", [(0, np.int16), (40000, np.int32)],
                         ids=["int16", "int32"])
def test_stored_frames_give_the_candidates_of_float64_frames(tmp_path, monkeypatch,
                                                              step, dtype):
    on_disk, in_memory = integer_case_both_ways(tmp_path, step)
    subtractions = []
    real = cmod.scale_ladder
    monkeypatch.setattr(cmod, "scale_ladder",
                        lambda volume, m: subtractions.append(volume.data.dtype)
                        or real(volume, m))
    want = _keys(generate_candidates(in_memory))
    assert want
    assert _keys(generate_candidates(on_disk)) == want
    assert all(isinstance(on_disk.dce[i], Pending) for i in (0, 1))
    assert subtractions == [np.float64, dtype]


def test_generation_is_deterministic():
    case = make_mini_case(noise=0.5, clutter=2.0, seed=9)
    a = generate_candidates(case)
    b = generate_candidates(case)
    assert len(a) == len(b) > 0
    for ca, cb in zip(a, b):
        assert (ca.scale_index, ca.threshold_index) == (cb.scale_index, cb.threshold_index)
        assert np.array_equal(ca.flat_indices, cb.flat_indices)


def test_no_duplicate_voxel_sets_within_a_scale():
    case = make_mini_case(noise=0.5, clutter=2.0, seed=9)
    seen = set()
    for c in generate_candidates(case):
        key = (c.scale_index, c.flat_indices.tobytes())
        assert key not in seen
        seen.add(key)


def test_coarse_scales_pick_up_a_large_lesion():
    case = make_mini_case(
        dims=(64, 64, 32), lesion_radius_mm=16.0,
        lesion_centre_mm=(32.0, 32.0, 20.8), noise=0.5, seed=13,
    )
    cands = generate_candidates(case)
    coarse = [c for c in cands if c.scale_index >= 2]
    assert coarse
    truth = case.ground_truth[0].data
    best = max(dice(_on_original_grid(c), truth) for c in coarse)
    assert best >= 0.5


@pytest.mark.parametrize("scale", [1, 2, 3])
def test_original_mask_is_the_upscaled_mask_built_once(scale, monkeypatch):
    original_dims, original_spacing = (40, 36, 20), (0.8, 0.8, 1.3)
    dims = dims_ladder(original_dims, scale)[scale - 1]
    spacing = tuple(s * 2 ** (scale - 1) for s in original_spacing)
    region = np.zeros(dims, dtype=bool)
    region[2:7, 3:6, 1:4] = True
    region[6, 6, 3] = True
    mask = BinaryMask(region, spacing)
    rc = candidate_from_mask(mask, scale_index=scale, original_dims=original_dims,
                             original_spacing=original_spacing)
    expected = upscale_mask(mask, scale, original_dims, original_spacing)
    calls = []
    real = cmod.upscale_indices
    monkeypatch.setattr(cmod, "upscale_indices",
                        lambda *a: calls.append(a) or real(*a))
    for _ in range(3):
        assert np.array_equal(rc.original_indices(), np.flatnonzero(expected.data))
    assert len(calls) == (0 if scale == 1 else 1)
