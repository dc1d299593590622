import dataclasses
import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import ndimage

from siftcad.candidates import generate_candidates
from siftcad.classifiers import assign_training_labels
from siftcad.features import (
    EDEMA_SHELLS,
    FEATURE_SCHEMA,
    FeatureExtractor,
    FeatureVector,
    GLCM_DIRECTIONS,
    HARALICK_NAMES,
    _box_slices,
    _GlcmPairs,
    _index_box,
    _MarginRing,
    _shell_gradient_stats,
    _SurfaceField,
    _edt,
    enhancement_model,
    haralick_features,
    kinetic_features,
    pearson_kurtosis,
    shape_features,
    skewness,
)
from siftcad.nrrd_io import load_case
from siftcad.phantom import generate_case, generate_suite, suite_specs
from siftcad.volume import BinaryMask, BreastCase, Volume3D, VolumeError
from siftcad.wavelet import dims_ladder, mask_ladder

from helpers import candidate_from_mask, integer_case_both_ways, make_mini_case
from oracles import (
    ball_mask,
    dice,
    glcm_contrast_paircount,
    per_shell_band,
    per_shell_core,
    per_shell_distance,
)


def _box(mask: BinaryMask):
    return _index_box(np.flatnonzero(mask.data), mask.dims)


def _field(region: BinaryMask, outer_mm: float) -> _SurfaceField:
    return _SurfaceField(np.flatnonzero(region.data), region.dims, region.spacing, outer_mm)


def _on_grid(region: BinaryMask, field: _SurfaceField, band: np.ndarray) -> np.ndarray:
    """A band of ``field``'s crop drawn on the region's whole grid."""
    full = np.zeros(region.dims, dtype=bool)
    full[field.slices] = band
    return full


def _shell(region: BinaryMask, field_mm: float, inner_mm: float, outer_mm: float) -> BinaryMask:
    field = _field(region, field_mm)
    return BinaryMask(_on_grid(region, field, field.shell(inner_mm, outer_mm)), region.spacing)


def _texture(region: BinaryMask, data: np.ndarray):
    pairs = _GlcmPairs(np.flatnonzero(region.data), region.dims)
    return haralick_features(pairs, data[pairs.slices])


def _ball_region(radius=10.0, dims=(40, 40, 40), spacing=(1.0, 1.0, 1.0)):
    centre = tuple(n * s / 2 for n, s in zip(dims, spacing))
    return BinaryMask(ball_mask(dims, spacing, centre, radius), spacing), centre


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------

def test_shell_matches_analytic_band():
    region, centre = _ball_region(10.0)
    shell = _shell(region, 2.0, 1.0, 2.0)
    analytic = ball_mask(region.dims, region.spacing, centre, 12.0) & ~ball_mask(
        region.dims, region.spacing, centre, 9.0 - 1e-6)
    assert dice(shell.data, analytic) >= 0.95
    deep = ball_mask(region.dims, region.spacing, centre, 7.0)
    assert not (shell.data & deep).any()


def test_shell_offset_validation():
    region, _ = _ball_region(5.0)
    field = _field(region, 3.0)
    with pytest.raises(VolumeError):
        field.shell(0.0, 0.0)
    with pytest.raises(VolumeError):
        field.shell(-1.0, 2.0)
    outer_only = _on_grid(region, field, field.shell(0.0, 3.0))
    assert outer_only.any() and not (outer_only & region.data).any()


def test_erode_mm_shrinks_ball():
    region, centre = _ball_region(8.0)
    field = _field(region, 2.0)
    core = _on_grid(region, field, field.core(2.0))
    analytic = ball_mask(region.dims, region.spacing, centre, 6.0)
    assert dice(core, analytic) >= 0.85
    assert core.sum() < region.count


def _oracle_regions():
    ball = ball_mask((40, 40, 24), (0.7, 0.7, 1.3), (14.0, 14.0, 15.6), 5.0)
    face = np.zeros((30, 30, 20), dtype=bool)
    face[0:6, 10:18, 5:12] = True
    face[0:3, 8:20, 9:15] = True
    single = np.zeros((25, 25, 25), dtype=bool)
    single[12, 12, 12] = True
    lobes = ball_mask((36, 30, 24), (1.0, 1.0, 1.0), (11.0, 15.0, 12.0), 5.0)
    lobes |= ball_mask((36, 30, 24), (1.0, 1.0, 1.0), (23.0, 15.0, 12.0), 5.0)
    lobes[14:21, 13:18, 10:15] = True
    coarse = ball_mask((20, 20, 12), (1.6, 1.6, 2.6), (16.0, 16.0, 15.6), 6.0)
    return {
        "ball_anisotropic": BinaryMask(ball, (0.7, 0.7, 1.3)),
        "touching_face": BinaryMask(face, (0.8, 0.8, 1.3)),
        "single_voxel": BinaryMask(single, (1.0, 1.0, 1.0)),
        "two_lobes": BinaryMask(lobes, (1.0, 1.0, 1.0)),
        "scale2_ball": BinaryMask(coarse, (1.6, 1.6, 2.6)),
    }


def _random_regions():
    """Seeded random clumps on odd and even grids, at fine and coarse
    pitch (where the 2 mm shells can be empty), many touching a face."""
    rng = np.random.default_rng(31)
    out = {}
    for k in range(6):
        dims = tuple(int(n) for n in rng.integers(5, 20, size=3))
        spacing = tuple(float(s) for s in rng.choice([0.7, 1.0, 1.3, 2.6, 4.0, 5.2], size=3))
        seeds = rng.random(dims) < rng.uniform(0.002, 0.02)
        seeds[tuple(int(rng.integers(0, n)) for n in dims)] = True
        region = ndimage.binary_dilation(seeds, iterations=int(rng.integers(0, 3)))
        out[f"random_{k}"] = BinaryMask(region, spacing)
    return out


_SHELL_REGIONS = {**_oracle_regions(), **_random_regions()}


@pytest.mark.parametrize("name", sorted(_SHELL_REGIONS))
def test_field_thresholds_equal_per_shell_fields(name):
    # each band and core lies on its field's crop and equals, drawn on
    # the whole grid, the one a field built for it alone gives
    region = _SHELL_REGIONS[name]
    spacing = region.spacing
    widest = _field(region, max(w for w, _ in EDEMA_SHELLS))
    rim = _field(region, 2.0)
    for inner, outer in ((0.0, 2.0), (0.0, 10.0), (0.0, 20.0), (1.0, 2.0)):
        expected = per_shell_band(region.data, spacing, inner, outer)
        assert np.array_equal(_on_grid(region, widest, widest.shell(inner, outer)),
                              expected), (inner, outer)
        just_wide_enough = _field(region, outer)
        assert np.array_equal(
            _on_grid(region, just_wide_enough, just_wide_enough.shell(inner, outer)), expected)
    core = per_shell_core(region.data, spacing, 2.0)
    for field in (widest, rim, _field(region, 0.0)):
        assert np.array_equal(_on_grid(region, field, field.core(2.0)), core)


@pytest.mark.parametrize("name", sorted(_SHELL_REGIONS))
def test_field_equals_distances_taken_on_the_whole_crop(name):
    # the field writes the inside distances into the outside ones in
    # place, from a transform on the tight box alone; the values are
    # those of both transforms taken on the whole crop, bit for bit
    region = _SHELL_REGIONS[name]
    for outer in (0.0, 2.0, 20.0):
        field = _field(region, outer)
        expected = per_shell_distance(field.crop, region.spacing)
        assert field.distance.tobytes() == expected.tobytes(), outer


def test_axis_by_axis_distances_equal_scipy_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(200):
        dims = tuple(int(n) for n in rng.integers(1, 24, size=3))
        mask = rng.random(dims) < rng.choice([0.02, 0.3, 0.9, 1.0])
        spacing = tuple(float(s) for s in rng.choice(
            [1.0 / 3.0, 0.7, 0.8, 1.3, 1.6, 2.6, 5.2], size=3))
        got = _edt(mask, spacing)
        assert got.tobytes() == ndimage.distance_transform_edt(
            mask, sampling=spacing).tobytes(), (dims, spacing)


def test_edema_flag_from_the_narrowest_shell_equals_any_shell_empty():
    seen = set()
    for region in _SHELL_REGIONS.values():
        widest = _field(region, 20.0)
        any_empty = any(not widest.shell(0.0, w).any() for w, _ in EDEMA_SHELLS)
        assert (not _field(region, 2.0).shell(0.0, 2.0).any()) == any_empty
        seen.add(any_empty)
    assert seen == {True, False}


def test_field_refuses_shells_past_its_crop():
    region, _ = _ball_region(5.0)
    with pytest.raises(VolumeError):
        _field(region, 2.0).shell(0.0, 10.0)
    with pytest.raises(VolumeError):
        _field(BinaryMask(np.zeros((4, 4, 4), bool), (1, 1, 1)), 2.0)


def _scanned_slices(data: np.ndarray, pad):
    """Padded bounding box from per-axis `any` scans of the whole grid."""
    out = []
    for axis, p in enumerate(pad):
        hit = np.flatnonzero(data.any(axis=tuple(a for a in range(3) if a != axis)))
        out.append(slice(max(0, hit[0] - p), min(data.shape[axis], hit[-1] + 1 + p)))
    return tuple(out)


def test_index_box_equals_grid_scan():
    rng = np.random.default_rng(8)
    regions = list(_oracle_regions().values())
    for _ in range(20):
        dims = tuple(int(n) for n in rng.integers(1, 12, size=3))
        regions.append(BinaryMask(rng.random(dims) < rng.uniform(0.01, 0.3), (1, 1, 1)))
    for region in regions:
        if not region.data.any():
            continue
        box = _box(region)
        for pad in ((0, 0, 0), (1, 1, 1), (3, 0, 7)):
            assert _box_slices(box, pad, region.dims) == _scanned_slices(region.data, pad)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_skewness_of_symmetric_values_is_zero():
    vals = np.tile([-1.0, 0.0, 1.0], 500)
    assert abs(skewness(vals)) <= 1e-12
    assert skewness(np.full(10, 3.3)) == 0.0


def test_kurtosis_conventions():
    rng = np.random.default_rng(0)
    normal = rng.normal(0.0, 1.0, 40000)
    assert pearson_kurtosis(normal) == pytest.approx(3.0, abs=0.2)
    assert pearson_kurtosis(np.full(5, 2.0)) == 3.0


# ---------------------------------------------------------------------------
# Haralick texture
# ---------------------------------------------------------------------------

def test_direction_set_is_13_unique_up_to_sign():
    assert len(GLCM_DIRECTIONS) == 13
    seen = set()
    for off in GLCM_DIRECTIONS:
        assert off not in seen
        assert tuple(-o for o in off) not in seen
        seen.add(off)


def test_constant_region_texture():
    region, _ = _ball_region(5.0, dims=(16, 16, 16))
    stats, flag = _texture(region, np.full(region.dims, 7.0))
    assert not flag
    by_name = dict(zip(HARALICK_NAMES, stats))
    assert by_name["asm"] == 1.0
    assert by_name["contrast"] == 0.0
    assert by_name["entropy"] == 0.0
    assert by_name["idm"] == 1.0


def test_checkerboard_contrast_matches_pair_counting():
    dims = (8, 8, 8)
    grid = np.indices(dims).sum(axis=0) % 2
    data = grid.astype(np.float64) * 10.0 + 3.0
    region = np.zeros(dims, dtype=bool)
    region[2:7, 2:6, 1:6] = True
    stats, flag = _texture(BinaryMask(region, (1, 1, 1)), data)
    assert not flag
    contrast = stats[list(HARALICK_NAMES).index("contrast")]
    # two-level data quantizes to levels {0, 31}
    expected = glcm_contrast_paircount(grid * 31, region, GLCM_DIRECTIONS)
    assert contrast == pytest.approx(expected, rel=1e-12)


def test_texture_invariant_to_affine_rescaling():
    rng = np.random.default_rng(3)
    data = rng.normal(50.0, 12.0, (12, 12, 12))
    region = ball_mask((12, 12, 12), (1, 1, 1), (6, 6, 6), 4.5)
    mask = BinaryMask(region, (1, 1, 1))
    a, _ = _texture(mask, data)
    b, _ = _texture(mask, 3.0 * data + 11.0)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_degenerate_regions_flagged():
    data = np.arange(27.0).reshape(3, 3, 3)
    single = np.zeros((3, 3, 3), dtype=bool)
    single[1, 1, 1] = True
    stats, flag = _texture(BinaryMask(single, (1, 1, 1)), data)
    assert flag and np.all(stats == 0.0)
    scattered = np.zeros((7, 7, 7), dtype=bool)
    scattered[0, 0, 0] = True
    scattered[5, 5, 5] = True
    stats, flag = _texture(BinaryMask(scattered, (1, 1, 1)), np.zeros((7, 7, 7)))
    assert flag and np.all(stats == 0.0)


def test_texture_flag_from_the_region_equals_the_glcm_flag():
    # sparse random regions: single voxels, pairs one step apart along
    # each direction (diagonals included) and pairs two steps apart
    rng = np.random.default_rng(12)
    seen = set()
    for trial in range(300):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        region = rng.random(dims) < rng.choice([0.02, 0.08, 0.2])
        if trial % 3 == 0:
            region[:] = False
            a = tuple(int(rng.integers(0, d - 1)) for d in dims)
            step = rng.choice([1, 2])
            b = tuple(min(d - 1, p + int(step * rng.integers(0, 2))) for p, d in zip(a, dims))
            region[a] = region[b] = True
        if not region.any():
            continue
        mask = BinaryMask(region, (1, 1, 1))
        data = rng.normal(size=dims)
        # oracle: no region voxel has a region voxel among its 26 neighbours
        neighbours = ndimage.convolve(region.astype(int), np.ones((3, 3, 3), int),
                                      mode="constant") - region
        want = not (region & (neighbours > 0)).any()
        assert _GlcmPairs(np.flatnonzero(region), dims).degenerate == want
        assert _texture(mask, data)[1] == want
        seen.add(want)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------

def _margin_stats(region: BinaryMask, data: np.ndarray, centre):
    """(sharpness, rgi) over the extractor's 1 mm-in/2 mm-out margin shell."""
    field = _field(region, 2.0)
    band = field.shell(1.0, 2.0)
    assert band.any()
    ring = _MarginRing(band, field.slices, region.dims, region.spacing, centre)
    return _shell_gradient_stats(ring, data[ring.window])


def test_bright_ball_rgi_is_strongly_negative():
    region, centre = _ball_region(8.0)
    data = 50.0 + 150.0 * region.data
    _, rgi = _margin_stats(region, data, centre)
    assert rgi <= -0.9


def test_blurring_reduces_margin_sharpness():
    region, centre = _ball_region(8.0)
    data = 50.0 + 150.0 * region.data
    sharp, _ = _margin_stats(region, data, centre)
    assert sharp > 0
    blurred, _ = _margin_stats(region, ndimage.uniform_filter(data, 3), centre)
    assert blurred < sharp


def test_constant_volume_margins_are_zero():
    region, centre = _ball_region(6.0)
    sharp, rgi = _margin_stats(region, np.full(region.dims, 9.0), centre)
    assert sharp == 0.0
    assert rgi == 0.0


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------

def test_single_voxel_shape_values():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[2, 2, 2] = True
    rc = candidate_from_mask(BinaryMask(mask, (1, 1, 1)))
    out = shape_features(rc)
    assert out["esd_mm"] == pytest.approx((6.0 / np.pi) ** (1 / 3), abs=1e-9)
    assert out["esd_mm"] == pytest.approx(1.2407, abs=1e-4)
    assert out["extent"] == 1.0
    assert out["solidity"] == 1.0
    assert out["irregularity"] == 0.0
    assert out["fat_fraction"] == 0.0


def test_digital_ball_shape_values():
    region, _ = _ball_region(8.0, dims=(24, 24, 24))
    rc = candidate_from_mask(region)
    out = shape_features(rc)
    assert abs(out["esd_mm"] - 16.0) / 16.0 <= 0.05
    assert out["solidity"] >= 0.95
    assert out["irregularity"] <= 0.15
    # digital bounding box spans 2r+1 voxels per axis, so the analytic
    # ratio is (4/3)pi r^3 / (2r+1)^3 rather than pi/6
    assert out["extent"] == pytest.approx(
        (4.0 / 3.0) * np.pi * 8.0**3 / 17.0**3, abs=0.03)


def test_fat_fraction_bounds():
    region, _ = _ball_region(5.0, dims=(16, 16, 16))
    rc = candidate_from_mask(region)
    assert shape_features(rc, np.zeros(region.dims, dtype=bool))["fat_fraction"] == 0.0
    assert shape_features(rc, np.ones(region.dims, dtype=bool))["fat_fraction"] == 1.0


def test_elongated_region_has_low_extent_sphericity():
    mask = np.zeros((30, 8, 8), dtype=bool)
    mask[2:28, 3:5, 3:5] = True
    mask[5, 5:7, 3] = True  # notch so the bbox is not tight
    rc = candidate_from_mask(BinaryMask(mask, (1, 1, 1)))
    out = shape_features(rc)
    assert out["extent"] < 0.9
    assert out["irregularity"] > 0.15


# ---------------------------------------------------------------------------
# kinetics
# ---------------------------------------------------------------------------

def _lesion_candidate(case: BreastCase):
    return candidate_from_mask(case.ground_truth[0])


def _kinetics(case: BreastCase):
    """The kinetic features of the case's first lesion."""
    return kinetic_features(_lesion_candidate(case), [f.data for f in case.dce],
                            case.acquisition_times)


def test_washout_fixture_values():
    case = make_mini_case(enhancement=(1.0, 0.8, 0.6), times=(0.0, 90.0, 180.0, 270.0))
    feats, flags = _kinetics(case)
    assert feats["enh_peak"] == pytest.approx(1.0, rel=1e-9)
    assert feats["enh_time_to_peak_s"] == 90.0
    assert feats["enh_uptake_rate"] == pytest.approx(1.0 / 90.0, rel=1e-9)
    assert feats["enh_washout_rate"] == pytest.approx(0.4 / 180.0, rel=1e-9)
    assert not flags["kinetic_guarded"]


def test_persistent_curve_has_zero_washout():
    case = make_mini_case(enhancement=(0.4, 0.7, 0.9), times=(0.0, 90.0, 180.0, 270.0))
    feats, _ = _kinetics(case)
    assert feats["enh_peak"] == pytest.approx(0.9, rel=1e-9)
    assert feats["enh_time_to_peak_s"] == 270.0
    assert feats["enh_washout_rate"] == 0.0


def test_flat_curve_gives_zero_kinetics():
    case = make_mini_case(enhancement=(0.0, 0.0, 0.0))
    feats, _ = _kinetics(case)
    for name in ("enh_peak", "enh_time_to_peak_s", "enh_uptake_rate",
                 "enh_washout_rate", "blooming"):
        assert feats[name] == 0.0
    # the parametric fit still runs; it should land on (approximately) zero
    assert abs(feats["fit_amplitude"]) <= 1e-9
    assert abs(feats["fit_rmse"]) <= 1e-9


def test_enhancement_invariant_to_global_intensity_scale():
    case = make_mini_case(enhancement=(1.0, 0.8, 0.6))
    scaled = BreastCase(
        case_id="x", side=case.side, t1=case.t1, t2=case.t2,
        dce=[Volume3D(2.5 * v.data, v.spacing) for v in case.dce],
        acquisition_times=case.acquisition_times,
        breast_mask=case.breast_mask, fat_mask=case.fat_mask,
        ground_truth=case.ground_truth,
    )
    a, _ = _kinetics(case)
    b, _ = _kinetics(scaled)
    for name in ("enh_peak", "enh_washout_rate", "blooming", "peripheral_uptake"):
        assert a[name] == pytest.approx(b[name], rel=1e-9)


def test_parametric_fit_recovers_model_curve():
    times = (0.0, 60.0, 120.0, 180.0, 300.0)
    target = enhancement_model(np.array(times[1:]), 1.2, 0.03, 0.002)
    case = make_mini_case(enhancement=tuple(target), times=times)
    feats, flags = _kinetics(case)
    assert not flags["fit_fallback"]
    assert feats["fit_rmse"] <= 1e-6
    assert feats["fit_amplitude"] == pytest.approx(1.2, rel=0.02)
    assert feats["fit_alpha"] == pytest.approx(0.03, rel=0.05)


def test_blooming_sign_tracks_rim_growth():
    dims, spacing = (40, 40, 20), (1.0, 1.0, 1.0)
    centre = (20.0, 20.0, 10.0)
    breast = ball_mask(dims, spacing, centre, 18.0)
    lesion = ball_mask(dims, spacing, centre, 5.0)
    core_zone = ball_mask(dims, spacing, centre, 4.0)
    rim_zone = ball_mask(dims, spacing, centre, 7.5) & ~core_zone
    rim_curve = (0.2, 0.5, 0.9)
    core_curve = (1.0, 0.7, 0.4)

    def build(rim, core):
        frames = [Volume3D(np.where(breast, 100.0, 5.0), spacing)]
        for er, ec in zip(rim, core):
            f = np.where(breast, 100.0, 5.0)
            f[rim_zone] *= 1.0 + er
            f[core_zone] *= 1.0 + ec
            frames.append(Volume3D(f, spacing))
        return BreastCase(
            case_id="bloom", side="left",
            t1=Volume3D(np.where(breast, 200.0, 5.0), spacing),
            t2=Volume3D(np.where(breast, 30.0, 2.0), spacing),
            dce=frames, acquisition_times=[0.0, 90.0, 180.0, 270.0],
            breast_mask=BinaryMask(breast, spacing),
            fat_mask=BinaryMask(breast & ~ball_mask(dims, spacing, centre, 9.0), spacing),
            ground_truth=[BinaryMask(lesion, spacing)],
        )

    blooming_case = build(rim_curve, core_curve)
    feats, _ = _kinetics(blooming_case)
    assert feats["blooming"] > 0.5
    assert feats["peripheral_uptake"] > 1.2
    reversed_case = build(core_curve, rim_curve)
    feats_rev, _ = _kinetics(reversed_case)
    assert feats_rev["blooming"] < -0.5


# ---------------------------------------------------------------------------
# full extraction
# ---------------------------------------------------------------------------

def test_extract_full_schema_and_determinism():
    case = make_mini_case(noise=0.5, clutter=2.0, seed=11)
    cands = generate_candidates(case)
    assert cands
    extractor = FeatureExtractor(case)
    vectors = [extractor.extract(rc) for rc in cands]
    assert all(v.values.shape == (len(FEATURE_SCHEMA),) for v in vectors)
    assert all(np.isfinite(v.values).all() for v in vectors)
    again = FeatureExtractor(case).extract(cands[0])
    assert np.array_equal(again.values, vectors[0].values)


def test_edema_rim_raises_shell_percentile():
    plain = make_mini_case(seed=21)
    rimmed = make_mini_case(seed=21)
    centre = np.array(plain.dims) * np.array(plain.spacing) / 2.0
    centre[0] -= 6.0
    rim = ball_mask(plain.dims, plain.spacing, centre, 8.0) & ~ball_mask(
        plain.dims, plain.spacing, centre, 5.0)
    t2 = rimmed.t2.data.copy()
    t2[rim] = 400.0
    rimmed = BreastCase(
        case_id="rim", side="left", t1=rimmed.t1, t2=Volume3D(t2, rimmed.spacing),
        dce=rimmed.dce, acquisition_times=rimmed.acquisition_times,
        breast_mask=rimmed.breast_mask, fat_mask=rimmed.fat_mask,
        ground_truth=rimmed.ground_truth,
    )
    name = "edema_t2_p92_2mm"
    base = FeatureExtractor(plain).extract(_lesion_candidate(plain))[name]
    lifted = FeatureExtractor(rimmed).extract(_lesion_candidate(rimmed))[name]
    assert lifted >= 2.0 * base


def test_whole_vector_invariant_to_global_rescaling():
    case = make_mini_case(noise=0.5, seed=5)
    scaled = BreastCase(
        case_id="s", side="left",
        t1=Volume3D(4.0 * case.t1.data, case.spacing),
        t2=Volume3D(4.0 * case.t2.data, case.spacing),
        dce=[Volume3D(4.0 * v.data, v.spacing) for v in case.dce],
        acquisition_times=case.acquisition_times,
        breast_mask=case.breast_mask, fat_mask=case.fat_mask,
        ground_truth=case.ground_truth,
    )
    rc = _lesion_candidate(case)
    a = FeatureExtractor(case).extract(rc).values
    b = FeatureExtractor(scaled).extract(candidate_from_mask(scaled.ground_truth[0])).values
    assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def test_coarse_candidate_margin_fallback():
    # a full-width slab at 8x pitch only exposes flat faces, whose voxel
    # centres all sit several millimetres from the surface, so the 1-2 mm
    # margin shell is empty and the fallback flag must fire
    case = make_mini_case(dims=(64, 64, 32), lesion_radius_mm=16.0,
                          lesion_centre_mm=(32.0, 32.0, 20.8), seed=2)
    level4 = dims_ladder(case.dims, 4)[3]
    blob = np.zeros(level4, dtype=bool)
    blob[:, :, 1:3] = True
    spacing4 = tuple(s * 8 for s in case.spacing)
    rc = candidate_from_mask(
        BinaryMask(blob, spacing4), scale_index=4,
        original_dims=case.dims, original_spacing=case.spacing,
    )
    vec = FeatureExtractor(case).extract(rc)
    assert vec["flag_margin_shell_empty"] == 1.0
    assert vec["t2_margin_sharpness"] == 0.0
    assert np.isfinite(vec.values).all()


# SHA-256 over the feature-vector bytes of every candidate of one phantom
# case, in candidate order, frozen from the implementation that computed a
# distance field per shell (numpy 2.4, scipy 1.17, x86-64)
_GOLDEN_CASE_CANDIDATES = 27
_GOLDEN_CASE_SHA256 = "42ace1b827e8cf56afff69076d42e0b542597a4ea284bcb02c215e9d9c044b97"


@pytest.fixture(scope="module")
def golden_case_extraction():
    """Every candidate of the golden phantom case, extracted in order by
    one extractor, and the SHA-256 of their feature vectors."""
    spec = suite_specs(1, 5, dims=(64, 64, 32), diameter_range_mm=(5.0, 12.0))[0]
    case, _, _ = generate_case(spec)
    cands = generate_candidates(case)
    digest = hashlib.sha256()
    extractor = FeatureExtractor(case)
    for rc in cands:
        digest.update(extractor.extract(rc).values.tobytes())
    return cands, extractor, digest.hexdigest()


def test_phantom_case_features_match_frozen_golden(golden_case_extraction):
    cands, _, digest = golden_case_extraction
    assert len(cands) == _GOLDEN_CASE_CANDIDATES
    assert digest == _GOLDEN_CASE_SHA256


# the same phantom case written as NRRD and loaded with load_case, so that
# every volume is read as stored; frozen from the extractor that read
# each volume as float64 (numpy 2.4, scipy 1.17, x86-64). The volumes are
# rounded on writing, so the candidates differ from the in-memory case's
_GOLDEN_FILE_CASE_CANDIDATES = 25
_GOLDEN_FILE_CASE_SHA256 = "8377d68f0b856cdf3bffe52d7fb84e0227db51785abd592be341035881336e89"


def test_file_backed_case_features_match_frozen_golden(tmp_path):
    record = generate_suite(1, 5, tmp_path, dims=(64, 64, 32),
                            diameter_range_mm=(5.0, 12.0))[0]
    case = load_case(record)
    cands = generate_candidates(case)
    digest = hashlib.sha256()
    extractor = FeatureExtractor(case)
    for rc in cands:
        digest.update(extractor.extract(rc).values.tobytes())
    assert len(cands) == _GOLDEN_FILE_CASE_CANDIDATES
    assert digest.hexdigest() == _GOLDEN_FILE_CASE_SHA256


def test_stored_volumes_give_the_features_of_float64_volumes(tmp_path):
    # frame 1 lies 30% below frame 0 on the lesion, so a subtraction of
    # the stored unsigned values would wrap there
    on_disk, in_memory = integer_case_both_ways(tmp_path, enhancement=(-0.3, 0.8, 0.6))
    cands = generate_candidates(on_disk)
    assert [(c.scale_index, c.flat_indices.tobytes()) for c in cands] == \
        [(c.scale_index, c.flat_indices.tobytes()) for c in generate_candidates(in_memory)]
    pre, post = (in_memory.dce[i].data.ravel() for i in (0, 1))
    assert any((post[rc.original_indices()] < pre[rc.original_indices()]).any()
               for rc in cands)
    stored, floats = FeatureExtractor(on_disk), FeatureExtractor(in_memory)
    assert stored._frames[0].dtype == np.uint16
    for rc in cands:
        assert stored.extract(rc).values.tobytes() == floats.extract(rc).values.tobytes()


# the extractor's rise over a file-backed 80x80x40 case (seed 5, the first
# case of the benchmark's suite), extracting every labelled candidate:
# 7.36 grids with the volumes held as stored, each frame's region
# converted one at a time and the fields' distances built in place, axis
# by axis; 15.1 when the case held every volume as float64
def test_extraction_peak_in_grids(tmp_path):
    dims = (80, 80, 40)
    record = generate_suite(1, 5, tmp_path, dims=dims, diameter_range_mm=(6.0, 16.0))[0]
    case = load_case(record)
    cands = generate_candidates(case)
    labels = assign_training_labels(cands, case.ground_truth)
    labelled = [rc for rc, lab in zip(cands, labels) if lab.label != 0]
    assert len(labelled) > 20
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        extractor = FeatureExtractor(case)
        for rc in labelled:
            extractor.extract(rc)
        rise = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert rise / (8 * np.prod(dims)) <= 7.6


def test_extractor_caches_no_full_grid_scale_1_copy(golden_case_extraction):
    # scale-1 columns read the case's own volumes on the candidate's box;
    # only the decimated levels 2 and up are worth keeping
    cands, extractor, _ = golden_case_extraction
    assert {rc.scale_index for rc in cands} == {1, 2, 3}
    assert extractor._levels
    assert all(m > 1 for _, m in extractor._levels)


# ---------------------------------------------------------------------------
# demand-driven extraction
# ---------------------------------------------------------------------------

# the groups an extraction computes as wholes, with their outputs, written
# out from the schema's definition
_GROUPS = {
    "t1": {"t1_mean", "t1_std", "t1_skewness", "t1_kurtosis"},
    "t2": {"t2_mean", "t2_std", "t2_skewness", "t2_kurtosis", "t2_p20", "t2_p90"},
    "dce0": {"dce0_mean", "dce0_std"},
    "curves": {f"{c}_{s}" for c in ("enh", "var") for s in (
        "peak", "time_to_peak_s", "uptake_rate", "washout_rate")},
    "fit": {"fit_amplitude", "fit_alpha", "fit_beta", "fit_rmse", "flag_fit_fallback"},
    "core_rim": {"blooming", "peripheral_uptake", "flag_core_empty",
                 "flag_kinetic_guarded"},
    **{f"glcm_{seq}": {f"{seq}_glcm_{s}" for s in HARALICK_NAMES}
       for seq in ("t2", "dce1", "dcesub")},
    "texture_flag": {"flag_texture_degenerate"},
    "margin": {f"{seq}_{s}" for seq in ("t2", "dce1", "dcesub")
               for s in ("margin_sharpness", "rgi")} | {"flag_margin_shell_empty"},
    "edema": {"edema_t2_p92_2mm", "flag_edema_shell_empty"},
    "edema_10mm": {"edema_t2_p98_10mm"},
    "edema_20mm": {"edema_t2_p98_20mm"},
    "shape": {"esd_mm", "extent", "solidity", "irregularity", "fat_fraction"},
}


def _computed(need_names: set) -> np.ndarray:
    """Schema mask of the columns an extraction for ``need_names`` fills."""
    groups = {g for g, names in _GROUPS.items() if names & need_names}
    names = set().union(*(_GROUPS[g] for g in groups))
    return np.array([n in names for n in FEATURE_SCHEMA])


def test_group_table_covers_the_schema_once():
    names = [n for g in _GROUPS.values() for n in g]
    assert len(names) == len(set(names)) == len(FEATURE_SCHEMA)
    assert set(names) == set(FEATURE_SCHEMA)


@pytest.fixture(scope="module")
def golden_case_vectors():
    """Three candidates per scale of the golden phantom case, with their
    full feature vectors."""
    spec = suite_specs(1, 5, dims=(64, 64, 32), diameter_range_mm=(5.0, 12.0))[0]
    case, _, _ = generate_case(spec)
    by_scale = {}
    for rc in generate_candidates(case):
        by_scale.setdefault(rc.scale_index, []).append(rc)
    assert sorted(by_scale) == [1, 2, 3]
    cands = [rcs[k] for rcs in by_scale.values() for k in (0, len(rcs) // 2, -1)]
    extractor = FeatureExtractor(case)
    return extractor, cands, [extractor.extract(rc).values for rc in cands]


def _check_partial(extractor, rc, full, need_names):
    need = [FEATURE_SCHEMA.index(n) for n in need_names]
    got = extractor.extract(rc, need).values
    computed = _computed(set(need_names))
    assert np.isnan(got[~computed]).all()
    assert got[computed].tobytes() == full[computed].tobytes()


@pytest.mark.parametrize("group", [*_GROUPS, "none"])
def test_each_group_alone_equals_full_extraction(golden_case_vectors, group):
    extractor, cands, fulls = golden_case_vectors
    need_names = {**_GROUPS, "none": set()}[group]
    for rc, full in zip(cands, fulls):
        _check_partial(extractor, rc, full, need_names)


def test_random_feature_subsets_equal_full_extraction(golden_case_vectors):
    extractor, cands, fulls = golden_case_vectors
    rng = np.random.default_rng(8)
    for i in range(50):
        size = int(rng.integers(1, 9))
        need_names = {FEATURE_SCHEMA[k] for k in
                      rng.choice(len(FEATURE_SCHEMA), size=size, replace=False)}
        for k in (i % 3, 3 + i % 3, 6 + i % 3):  # one candidate per scale
            _check_partial(extractor, cands[k], fulls[k], need_names)


def test_t2_mean_alone_builds_only_the_t2_levels(golden_case_vectors, monkeypatch):
    # t2_mean reads the T2 level at the candidate's scale and nothing
    # else: no other sequence's level, no fat mask, no field, no GLCM
    # pairs and no upscaling to the original grid
    import siftcad.candidates as cmod
    import siftcad.features as fmod
    import siftcad.wavelet as wmod

    calls = []
    for module, name in ((fmod, "_SurfaceField"), (fmod, "_GlcmPairs"),
                         (fmod, "kinetic_features"), (cmod, "upscale_indices")):
        monkeypatch.setattr(module, name, lambda *a, _n=name, **k: calls.append(_n))
    lll = []
    real_lll = wmod._lll_once
    monkeypatch.setattr(wmod, "_lll_once", lambda data: lll.append(data.shape) or real_lll(data))
    base, cands, fulls = golden_case_vectors
    extractor = FeatureExtractor(base.case)
    fresh = [dataclasses.replace(rc, _original_indices=None) for rc in cands]
    for rc, full in zip(fresh, fulls):
        _check_partial(extractor, rc, full, {"t2_mean"})
        assert rc._original_indices is None
    assert calls == []
    assert set(extractor._levels) == {("t2", 2), ("t2", 3)}
    assert extractor._fat == {}
    assert len(lll) == 2  # level 2 from level 1, level 3 from level 2


def test_extractor_is_freed_by_reference_counting(golden_case_vectors, monkeypatch):
    # the level caches must hold no reference back to the extractor: a
    # cycle would keep every level alive until the cycle collector runs
    import siftcad.wavelet as wmod

    lll = []
    real_lll = wmod._lll_once
    monkeypatch.setattr(wmod, "_lll_once", lambda data: lll.append(data) or real_lll(data))
    base, cands, _ = golden_case_vectors
    gc.disable()
    try:
        extractor = FeatureExtractor(base.case)
        for rc in cands:
            extractor.extract(rc)
        assert len(extractor._levels) == 10 and len(extractor._fat) == 3
        # every level above scale 1 is made once, from the one below:
        # two per sequence, and two of the fat mask's chain
        assert len(lll) == 2 * 5 + 2
        fat = base.case.fat_mask.data
        assert [np.array_equal(data, fat) for data in lll].count(True) == 1
        for m, mask_m in enumerate(mask_ladder(base.case.fat_mask, 3), start=1):
            assert np.array_equal(extractor._fat[m], mask_m.data)
        ref = weakref.ref(extractor)
        del extractor
        assert ref() is None
    finally:
        gc.enable()


def test_feature_vector_validation():
    with pytest.raises(VolumeError):
        FeatureVector(np.zeros(3))
    vec = FeatureVector(np.arange(len(FEATURE_SCHEMA), dtype=np.float64))
    assert vec["esd_mm"] == FEATURE_SCHEMA.index("esd_mm")
