"""Tests for the synthetic case generator."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from siftcad.candidates import (
    DEFAULT_MAX_DIAMETER_MM,
    DEFAULT_MIN_DIAMETER_MM,
    diameter_to_volume,
)
from siftcad.nrrd_io import load_case, load_manifest
from siftcad.phantom import (
    SHAPES,
    LesionSpec,
    PhantomSpec,
    analytic_lesion_volume_mm3,
    generate_case,
    generate_suite,
    kinetic_curve,
    lesion_mask,
    rim_shell,
    suite_specs,
)
from siftcad.volume import VolumeError, dsi

from oracles import ball_mask, rim_shell_whole_grid

DIMS = (64, 64, 32)
SPACING = (1.0, 1.0, 1.3)
CENTRE = (30.0, 32.0, 20.8)


def _ball_spec(**kwargs):
    defaults = dict(dims=DIMS, spacing=SPACING,
                    lesions=(LesionSpec(centre_mm=CENTRE, diameter_mm=10.0),),
                    noise_sigma=0.0, seed=7)
    defaults.update(kwargs)
    return PhantomSpec(**defaults)


def _arrays(case):
    return [case.t1.data, case.t2.data] + [f.data for f in case.dce]


class TestGenerateCase:
    def test_same_seed_bit_identical(self):
        spec = _ball_spec(noise_sigma=5.0, clutter_amp=0.3)
        a, _, _ = generate_case(spec)
        b, _, _ = generate_case(spec)
        for va, vb in zip(_arrays(a), _arrays(b)):
            assert (va == vb).all()

    def test_different_seed_differs(self):
        a, _, _ = generate_case(_ball_spec(noise_sigma=5.0, seed=1))
        b, _, _ = generate_case(_ball_spec(noise_sigma=5.0, seed=2))
        assert not (a.dce[1].data == b.dce[1].data).all()

    def test_programmed_curve_recovered_exactly(self):
        # noiseless ball: per-frame region-mean relative enhancement
        # must reproduce the programmed kinetic curve
        spec = _ball_spec()
        case, truths, _ = generate_case(spec)
        region = truths[0].data
        curve = kinetic_curve("malignant-washout")
        pre = case.dce[0].data[region].mean()
        for i, t in enumerate(spec.times[1:], start=1):
            measured = (case.dce[i].data[region].mean() - pre) / pre
            assert measured == pytest.approx(curve(t), abs=1e-6)

    def test_clutter_spares_lesion_voxels(self):
        # even with clutter on, lesion voxels follow the pure curve
        spec = _ball_spec(clutter_amp=0.5)
        case, truths, _ = generate_case(spec)
        region = truths[0].data
        curve = kinetic_curve("malignant-washout")
        ratio = case.dce[1].data[region] / case.dce[0].data[region]
        assert np.allclose(ratio, 1.0 + curve(spec.times[1]), atol=1e-9)

    def test_revoxelized_truth_matches_stored(self):
        spec = _ball_spec()
        _, truths, _ = generate_case(spec)
        again = lesion_mask(spec.lesions[0], spec.dims, spec.spacing)
        assert dsi(again, truths[0]) == 1.0

    def test_lesion_outside_breast_raises(self):
        spec = _ball_spec(
            lesions=(LesionSpec(centre_mm=(2.0, 2.0, 2.0), diameter_mm=8.0),))
        with pytest.raises(VolumeError):
            generate_case(spec)

    def test_malignancy_labels_follow_kinetics(self):
        spec = _ball_spec(lesions=(
            LesionSpec(centre_mm=CENTRE, diameter_mm=8.0,
                       kinetic="benign-persistent"),))
        _, _, malignant = generate_case(spec)
        assert malignant == [False]

    def test_case_invariants(self):
        case, truths, _ = generate_case(_ball_spec(noise_sigma=3.0))
        assert case.breast_mask.count > 0
        assert case.fat_mask.count > 0
        assert not (case.fat_mask.data & ~case.breast_mask.data).any()
        assert len(case.dce) == 4 and len(case.acquisition_times) == 4
        assert truths[0].count > 0
        assert not (truths[0].data & ~case.breast_mask.data).any()

    def test_t1_fat_brighter_than_gland(self):
        case, _, _ = generate_case(_ball_spec())
        fat = case.fat_mask.data
        gland = case.breast_mask.data & ~fat
        assert case.t1.data[fat].mean() > 1.5 * case.t1.data[gland].mean()

    def test_rim_brightens_t2_shell(self):
        plain = _ball_spec()
        rimmed = _ball_spec(lesions=(
            LesionSpec(centre_mm=CENTRE, diameter_mm=10.0, rim=True),))
        c0, truths, _ = generate_case(plain)
        c1, _, _ = generate_case(rimmed)
        shell = c1.t2.data != c0.t2.data
        assert shell.any()
        assert not (shell & truths[0].data).any()
        assert c1.t2.data[shell].min() > c0.t2.data[truths[0].data].max()

    def test_noise_perturbs_all_volumes(self):
        quiet, _, _ = generate_case(_ball_spec(seed=3))
        noisy, _, _ = generate_case(_ball_spec(seed=3, noise_sigma=4.0))
        for vq, vn in zip(_arrays(quiet), _arrays(noisy)):
            assert not (vq == vn).all()


class TestRimShell:
    """The rim's shell is marked on the lesion's box grown by the reach;
    it must select exactly the voxels a whole-grid distance transform
    selects."""

    DIMS = (23, 19, 14)

    def _regions(self, rng, spacing):
        dims = self.DIMS
        extent = np.array(dims) * np.array(spacing)
        for _ in range(12):  # balls anywhere, many of them cut by a face
            yield ball_mask(dims, spacing, rng.uniform(-0.1, 1.1, 3) * extent,
                            rng.uniform(0.5, 6.0))
        for density in (0.002, 0.02):  # scattered voxels: many equidistant ties
            yield rng.random(dims) < density
        touching = np.zeros(dims, bool)  # one voxel on each of the six faces
        for axis in range(3):
            for end in (0, dims[axis] - 1):
                at = [int(rng.integers(n)) for n in dims]
                at[axis] = end
                touching[tuple(at)] = True
        yield touching
        single = np.zeros(dims, bool)
        single[tuple(int(rng.integers(n)) for n in dims)] = True
        yield single
        yield np.ones(dims, bool)

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.8, 0.8, 1.3),
                                         (0.7, 1.1, 2.6)])
    @pytest.mark.parametrize("reach_mm", [2.0, 1.3])
    def test_box_local_shell_matches_whole_grid_oracle(self, spacing, reach_mm):
        rng = np.random.default_rng(31)
        for region in self._regions(rng, spacing):
            if not region.any():
                continue
            box, near = rim_shell(region, spacing, reach_mm)
            got = np.zeros_like(region)
            got[box] = near
            assert np.array_equal(got, rim_shell_whole_grid(region, spacing, reach_mm))


class TestShapes:
    @pytest.mark.parametrize("shape,diameter", [
        ("ball", 6.0), ("ball", 10.0), ("lobulated", 12.0),
        ("segmental-nml", 16.0)])
    def test_analytic_and_voxel_volume_agree(self, shape, diameter):
        lesion = LesionSpec(centre_mm=(35.0, 32.0, 20.8), diameter_mm=diameter,
                            shape=shape, variant=3)
        m = lesion_mask(lesion, (96, 96, 48), (0.8, 0.8, 1.3))
        voxel = m.count * 0.8 * 0.8 * 1.3
        analytic = analytic_lesion_volume_mm3(lesion)
        assert voxel == pytest.approx(analytic, rel=0.10)

    def test_ball_volume_is_exact_formula(self):
        lesion = LesionSpec(centre_mm=CENTRE, diameter_mm=10.0)
        assert analytic_lesion_volume_mm3(lesion) == pytest.approx(
            np.pi / 6.0 * 1000.0)

    def test_composite_shapes_have_multiple_components(self):
        from siftcad.phantom import lesion_components
        lob = LesionSpec(centre_mm=CENTRE, diameter_mm=12.0, shape="lobulated")
        seg = LesionSpec(centre_mm=CENTRE, diameter_mm=16.0,
                         shape="segmental-nml")
        assert len(lesion_components(lob)) == 4
        assert 3 <= len(lesion_components(seg)) <= 6

    def test_variant_changes_composite_layout(self):
        a = lesion_mask(LesionSpec(centre_mm=CENTRE, diameter_mm=14.0,
                                   shape="segmental-nml", variant=1),
                        DIMS, SPACING)
        b = lesion_mask(LesionSpec(centre_mm=CENTRE, diameter_mm=14.0,
                                   shape="segmental-nml", variant=2),
                        DIMS, SPACING)
        assert not (a.data == b.data).all()

    def test_diameter_bounds(self):
        with pytest.raises(VolumeError):
            LesionSpec(centre_mm=CENTRE, diameter_mm=3.9)
        with pytest.raises(VolumeError):
            LesionSpec(centre_mm=CENTRE, diameter_mm=63.1)

    def test_unknown_shape_and_kinetic(self):
        with pytest.raises(VolumeError):
            LesionSpec(centre_mm=CENTRE, diameter_mm=10.0, shape="spiky")
        with pytest.raises(VolumeError):
            LesionSpec(centre_mm=CENTRE, diameter_mm=10.0, kinetic="plateau")
        with pytest.raises(VolumeError):
            kinetic_curve("plateau")


class TestKinetics:
    def test_washout_peaks_then_declines(self):
        curve = kinetic_curve("malignant-washout")
        e = [curve(t) for t in (90.0, 180.0, 270.0)]
        assert e[0] == max(e)
        assert e[2] < 0.8 * e[0]

    def test_persistent_rises_monotonically(self):
        curve = kinetic_curve("benign-persistent")
        e = [curve(t) for t in (90.0, 180.0, 270.0)]
        assert e[0] < e[1] < e[2]

    def test_both_start_at_zero(self):
        for name in ("malignant-washout", "benign-persistent"):
            assert kinetic_curve(name)(0.0) == pytest.approx(0.0, abs=1e-12)


class TestSpecValidation:
    def test_times_need_two_increasing(self):
        with pytest.raises(VolumeError):
            PhantomSpec(times=(0.0,))
        with pytest.raises(VolumeError):
            PhantomSpec(times=(0.0, 90.0, 90.0))

    def test_negative_noise_rejected(self):
        with pytest.raises(VolumeError):
            PhantomSpec(noise_sigma=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_clutter_must_be_finite_and_non_negative(self, tmp_path, value):
        with pytest.raises(VolumeError, match=f"clutter_amp must be finite and "
                                              f"non-negative, got {value!r}"):
            generate_suite(1, 0, tmp_path / "suite", clutter_amp=value)
        assert not (tmp_path / "suite").exists()


class TestSuite:
    KW = dict(dims=(64, 64, 32), spacing=(1.0, 1.0, 1.3),
              diameter_range_mm=(6.0, 16.0))

    def test_specs_deterministic(self):
        a = suite_specs(6, seed=5, **self.KW)
        b = suite_specs(6, seed=5, **self.KW)
        assert a == b

    def test_class_ratio_two_to_one(self):
        specs = suite_specs(9, seed=5, **self.KW)
        labels = [l.malignant for s in specs for l in s.lesions]
        n_mal = sum(labels)
        n_ben = len(labels) - n_mal
        assert abs(n_mal - 2 * n_ben) <= 2

    def test_shapes_mixed(self):
        specs = suite_specs(9, seed=5, **self.KW)
        shapes = {l.shape for s in specs for l in s.lesions}
        assert "ball" in shapes and "segmental-nml" in shapes

    def test_sizes_span_requested_range(self):
        specs = suite_specs(9, seed=5, **self.KW)
        ds = [l.diameter_mm for s in specs for l in s.lesions]
        assert min(ds) <= 8.0
        assert max(ds) >= 13.0

    def test_lesions_disjoint_within_case(self):
        specs = suite_specs(6, seed=5, **self.KW)
        multi = [s for s in specs if len(s.lesions) > 1]
        assert multi
        for s in multi:
            a = lesion_mask(s.lesions[0], s.dims, s.spacing)
            b = lesion_mask(s.lesions[1], s.dims, s.spacing)
            assert not (a.data & b.data).any()

    def test_volumes_within_global_window(self):
        specs = suite_specs(6, seed=5, **self.KW)
        v_min = diameter_to_volume(DEFAULT_MIN_DIAMETER_MM)
        v_max = diameter_to_volume(DEFAULT_MAX_DIAMETER_MM)
        for s in specs:
            for lesion in s.lesions:
                m = lesion_mask(lesion, s.dims, s.spacing)
                v = m.count * float(np.prod(s.spacing))
                assert v_min <= v <= v_max

    def test_written_suite_roundtrips(self, tmp_path):
        records = generate_suite(4, seed=5, out_dir=tmp_path, **self.KW)
        assert len(records) == 4
        assert (tmp_path / "manifest.json").exists()
        loaded = load_manifest(tmp_path / "manifest.json")
        assert [r.case_id for r in loaded] == [r.case_id for r in records]
        case = load_case(loaded[0])
        assert case.breast_mask.count > 0
        assert len(case.ground_truth) == len(loaded[0].malignant)
        spec = suite_specs(4, seed=5, **self.KW)[0]
        fresh, truths, _ = generate_case(spec)
        assert dsi(case.ground_truth[0], truths[0]) == 1.0

    def test_split_disjoint_and_balanced(self, tmp_path):
        records = generate_suite(4, seed=5, out_dir=tmp_path, **self.KW)
        train = [r.case_id for r in records if r.split == "train"]
        test = [r.case_id for r in records if r.split == "test"]
        assert len(train) == 2 and len(test) == 2
        assert not set(train) & set(test)

    def test_zero_cases_rejected(self):
        with pytest.raises(VolumeError):
            suite_specs(0, seed=5)


# a 3-case suite that writes noise (sigma 4), glandular clutter, a rim
# lesion (phantom_000), each shape and a two-lesion case (phantom_002);
# SHA-256 of every file, frozen from the implementation that built each
# volume out of place (numpy 2.4, scipy 1.17, x86-64)
_GOLDEN_SUITE_KW = dict(dims=(64, 64, 32), diameter_range_mm=(5.0, 12.0))
_GOLDEN_SUITE_SHA256 = {
    "manifest.json":
        "d28cc21707fa95a65f9b51593af0befb2f7ba73eb39c1302de295a5adc176693",
    "phantom_000/breast.nrrd":
        "faab6cbe16380ce47c0858e7050a085e124e5d3ee3d8eb3ec9d216d391f4ed5b",
    "phantom_000/dce_0.nrrd":
        "a7f2cd1512b7d6df3360b754fd082a69408f24a25c0fce03323714327bf7d921",
    "phantom_000/dce_1.nrrd":
        "a15f614cd1d775ce3dc01df8f55248f24c6038f5625349d4b6dc7fe59c5b4f1a",
    "phantom_000/dce_2.nrrd":
        "9c16ab14746cee12765fed1e0fdf818e93b74b66483fecbcdc1fbc9f9e3eaa2d",
    "phantom_000/dce_3.nrrd":
        "98fadd22ac968bb64e2d32caab3737f36e21277ee2141cbf64894be4d08b515f",
    "phantom_000/fat.nrrd":
        "1eb41bea172f36f486d295afc3217bafc351bad2bc3cf9dbe8beb0bd1b71e12f",
    "phantom_000/gt_0.nrrd":
        "6671c7ca26b66e1cd8577eb12bb803a0ba3c1ecd8910a823bf88a7404bdbfb18",
    "phantom_000/t1.nrrd":
        "a26751fd4b3686da46f7b85208455ada0bc3bb475bd10ca6cb834a8aa8807f83",
    "phantom_000/t2.nrrd":
        "20276e486fc6f2a1f4dc6f6eb1b9c91b30fa4f88f8d0c23aad7e295636a1144a",
    "phantom_001/breast.nrrd":
        "faab6cbe16380ce47c0858e7050a085e124e5d3ee3d8eb3ec9d216d391f4ed5b",
    "phantom_001/dce_0.nrrd":
        "cb3a592a62261b2ab66d521c1c705f1a8969d6ad774970a34a3b944c88731463",
    "phantom_001/dce_1.nrrd":
        "9b26fdd616e80ac8211ce4e45761e59cd2d54c10de830fede813ddf36ef0780e",
    "phantom_001/dce_2.nrrd":
        "b25084e0cb3833fb1df13028ba759063bb2c91fdc35f314968db859be2a1988c",
    "phantom_001/dce_3.nrrd":
        "04c6e5baf845bed0d8fbe92ced465d9218dee2dd43190632dd4a7f1923ddba28",
    "phantom_001/fat.nrrd":
        "1eb41bea172f36f486d295afc3217bafc351bad2bc3cf9dbe8beb0bd1b71e12f",
    "phantom_001/gt_0.nrrd":
        "e1ca85c3a1516e4de992fc0af7d10d91128e461fc894aa024a9619b58025335d",
    "phantom_001/t1.nrrd":
        "c1929d88e74dfc0169a26226269877ad35b3daee3a6ffd01c89f7a454346a55a",
    "phantom_001/t2.nrrd":
        "d1cfed95e07139d27b5f016bf2337e6ded92ec21cacab451a775c5437e01e295",
    "phantom_002/breast.nrrd":
        "faab6cbe16380ce47c0858e7050a085e124e5d3ee3d8eb3ec9d216d391f4ed5b",
    "phantom_002/dce_0.nrrd":
        "6680e8bcbb09466658d14b07932d30c636df26d4c1246fea02b3d78f92c0bd7d",
    "phantom_002/dce_1.nrrd":
        "67b543c7136867c9bd4fb54fec8bc9d5aaa8b90b3a635e69e68dca84cc043e33",
    "phantom_002/dce_2.nrrd":
        "018f5eeec9aed53e99dd1ad3dea8bb4c5db237b6329114f532eac1401b17082a",
    "phantom_002/dce_3.nrrd":
        "a533e010286dcf611c31d2a275b6846799c1aa381aa86519e341d4f84805d4dd",
    "phantom_002/fat.nrrd":
        "1eb41bea172f36f486d295afc3217bafc351bad2bc3cf9dbe8beb0bd1b71e12f",
    "phantom_002/gt_0.nrrd":
        "fe947d5de1b4a81ed8b8a8fbda039b90e6aa3f870c7f6e8fd638615d663b94c5",
    "phantom_002/gt_1.nrrd":
        "1f171e869b30ffcc674619d3f1e3ec8545b581a7219f6531c0e775496ec4bb6d",
    "phantom_002/t1.nrrd":
        "fb75505f77f2a52683fdccf2647ce3c1702734c6d1804492992285f3257816ed",
    "phantom_002/t2.nrrd":
        "589df38e02aa80bd49e7fd8035460488e939a9510a23381d782dd84c7e1c57a3",
}


class TestGolden:
    def test_suite_covers_every_generator_path(self):
        specs = suite_specs(3, 2, **_GOLDEN_SUITE_KW)
        lesions = [l for s in specs for l in s.lesions]
        assert {l.shape for l in lesions} == set(SHAPES)
        assert any(l.rim for l in lesions)
        assert max(len(s.lesions) for s in specs) == 2
        assert all(s.noise_sigma > 0 and s.clutter_amp > 0 for s in specs)

    def test_suite_files_match_frozen_golden(self, tmp_path):
        generate_suite(3, 2, tmp_path, **_GOLDEN_SUITE_KW)
        got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        assert got == _GOLDEN_SUITE_SHA256

    # generate_case holds the six output volumes and the boolean masks,
    # with the clutter on its gland voxels alone, the noise drawn in
    # blocks and the rim's distance transform on the lesion's box (7.3-7.4
    # on the golden cases); generate_suite writes each volume as it is
    # made and holds one at a time besides the clutter texture (3.44,
    # 7.77 when it wrote a whole generated case). The traced peak counts
    # every numpy buffer, so it does not depend on the allocator or on
    # other processes. ``make`` runs once untraced first, so that what it
    # grows once for the whole process is not counted: the table of
    # interned strings pathlib adds new path names to is 1.9 MB when it
    # resizes, which happens in whichever call first crosses its size
    @staticmethod
    def _traced_peak_grids(make) -> float:
        make()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            make()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * int(np.prod(_GOLDEN_SUITE_KW["dims"])))

    @pytest.mark.parametrize("index", range(3))
    def test_generate_case_holds_each_grid_once(self, index):
        spec = suite_specs(3, 2, **_GOLDEN_SUITE_KW)[index]
        assert self._traced_peak_grids(lambda: generate_case(spec)) <= 8

    def test_generate_suite_holds_one_case_at_a_time(self, tmp_path):
        assert self._traced_peak_grids(
            lambda: generate_suite(3, 2, tmp_path, **_GOLDEN_SUITE_KW)) <= 4
