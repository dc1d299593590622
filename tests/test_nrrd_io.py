import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from siftcad import nrrd_io
from siftcad.candidates import generate_candidates
from siftcad.evaluation import RunConfig, run_pipeline
from siftcad.features import FeatureExtractor
from siftcad.nrrd_io import (
    CaseRecord,
    NrrdError,
    load_case,
    load_manifest,
    load_mask,
    load_volume,
    save_manifest,
    save_mask,
    save_volume,
)
from siftcad.phantom import generate_suite
from siftcad.volume import BinaryMask, Pending, Volume3D, VolumeError, subtract

from helpers import ConstModel


def random_u16_volume(rng, dims=(8, 8, 8), spacing=(0.7, 0.7, 1.3)):
    return Volume3D(rng.integers(0, 65536, dims).astype(np.float64), spacing)


def test_volume_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    v = random_u16_volume(rng)
    path = tmp_path / "v.nrrd"
    save_volume(path, v)
    back = load_volume(path)
    assert np.array_equal(back.data, v.data)
    assert back.spacing == v.spacing


def test_mask_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    m = BinaryMask(rng.random((5, 6, 7)) > 0.5, (1.0, 1.0, 2.0))
    path = tmp_path / "m.nrrd"
    save_mask(path, m)
    back = load_mask(path)
    assert np.array_equal(back.data, m.data)
    assert back.spacing == m.spacing


def test_detached_header_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    v = random_u16_volume(rng, dims=(4, 5, 6))
    path = tmp_path / "v.nhdr"
    save_volume(path, v)
    assert (tmp_path / "v.raw").exists()
    back = load_volume(path)
    assert np.array_equal(back.data, v.data)


@pytest.mark.parametrize("name", ["../v.raw", "/tmp/v.raw", "sub/v.raw", "..", "sub\\v.raw"])
def test_data_file_outside_the_header_directory_rejected(tmp_path, name):
    save_volume(tmp_path / "v.nhdr", random_u16_volume(np.random.default_rng(2)))
    header = (tmp_path / "v.nhdr").read_text().replace("data file: v.raw",
                                                       f"data file: {name}")
    (tmp_path / "v.nhdr").write_text(header)
    with pytest.raises(NrrdError, match="'data file' must name a file in the header's"):
        load_volume(tmp_path / "v.nhdr")


def test_missing_field_names_field(tmp_path):
    path = tmp_path / "bad.nrrd"
    header = "NRRD0004\ntype: unsigned short\ndimension: 3\nsizes: 2 2 2\nencoding: raw\nendian: little\n\n"
    path.write_bytes(header.encode() + b"\x00" * 16)
    with pytest.raises(NrrdError, match="spacings"):
        load_volume(path)


@pytest.mark.parametrize("sizes", ["0 80 40", "4 -1 4"])
def test_nonpositive_sizes_rejected(tmp_path, sizes):
    path = tmp_path / "v.nrrd"
    header = (f"NRRD0004\ntype: unsigned short\ndimension: 3\nsizes: {sizes}\n"
              "spacings: 1.0 1.0 1.0\nencoding: raw\nendian: little\n\n")
    path.write_bytes(header.encode() + b"\x00" * 64)
    with pytest.raises(NrrdError, match="sizes must be positive"):
        load_volume(path)


@pytest.mark.parametrize("field, line, message", [
    ("sizes", "sizes: abc 2 2", "sizes must be integers"),
    ("sizes", "sizes: 2.5 2 2", "sizes must be integers"),
    ("spacings", "spacings: 1.0 x 1.0", "spacings must be numbers"),
    ("spacings", "spacings: nan 1 1", "spacings must be finite and positive"),
    ("spacings", "spacings: 1 inf 1", "spacings must be finite and positive"),
    ("spacings", "spacings: 1 1 -0.5", "spacings must be finite and positive"),
    ("spacings", "spacings: 1 0 1", "spacings must be finite and positive"),
])
def test_malformed_sizes_and_spacings_name_file_and_field(tmp_path, field, line, message):
    path = tmp_path / "v.nrrd"
    fields = {"sizes": "sizes: 2 2 2", "spacings": "spacings: 1.0 1.0 1.0", field: line}
    header = (f"NRRD0004\ntype: unsigned short\ndimension: 3\n{fields['sizes']}\n"
              f"{fields['spacings']}\nencoding: raw\nendian: little\n\n")
    path.write_bytes(header.encode() + b"\x00" * 16)
    with pytest.raises(NrrdError, match=message) as err:
        load_volume(path)
    assert str(path) in str(err.value)


def test_truncated_payload(tmp_path):
    rng = np.random.default_rng(3)
    v = random_u16_volume(rng, dims=(4, 4, 4))
    path = tmp_path / "v.nrrd"
    save_volume(path, v)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(NrrdError, match="too short"):
        load_volume(path)


def _payload(path):
    """Raw bytes of a written volume or mask, attached or detached."""
    if path.suffix == ".nhdr":
        return path.with_suffix(".raw").read_bytes()
    return path.read_bytes().split(b"\n\n", 1)[1]


@pytest.mark.parametrize("suffix", [".nrrd", ".nhdr"])
@pytest.mark.parametrize("comment", ["", "# an odd shift\n"], ids=["as_written", "odd_offset"])
def test_loaders_return_c_contiguous_arrays_equal_to_two_step_conversion(
        tmp_path, suffix, comment):
    rng = np.random.default_rng(5)
    dims = (3, 5, 7)
    vol_path, mask_path = tmp_path / f"v{suffix}", tmp_path / f"m{suffix}"
    save_volume(vol_path, random_u16_volume(rng, dims=dims))
    save_mask(mask_path, BinaryMask(rng.random(dims) > 0.5, (1.0, 1.0, 2.0)))
    # an odd-length comment after the magic line moves the payload of
    # the attached header to an odd, unaligned offset
    assert len(comment) % 2 == (1 if comment else 0)
    for path in (vol_path, mask_path):
        blob = path.read_bytes()
        cut = blob.index(b"\n") + 1
        path.write_bytes(blob[:cut] + comment.encode() + blob[cut:])
    # the conversion the loaders used to make: astype keeps the payload's
    # Fortran order, then the volume type copies to C order
    raw = np.frombuffer(_payload(vol_path), dtype="<u2").reshape(dims, order="F")
    v = load_volume(vol_path)
    assert v.data.flags.c_contiguous and v.data.flags.writeable
    assert v.data.dtype == np.float64
    assert np.array_equal(v.data, np.ascontiguousarray(raw.astype(np.float64)))
    raw = np.frombuffer(_payload(mask_path), dtype=np.uint8).reshape(dims, order="F")
    m = load_mask(mask_path)
    assert m.data.flags.c_contiguous and m.data.dtype == np.bool_
    assert np.array_equal(m.data, np.ascontiguousarray(raw.astype(bool)))


def test_every_truncated_prefix_is_rejected(tmp_path):
    rng = np.random.default_rng(6)
    for trial in range(3):
        dims = tuple(int(n) for n in rng.integers(1, 6, 3))
        spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, 3))
        files = {
            tmp_path / f"v{trial}.nrrd": (load_volume, Volume3D(
                rng.integers(0, 65536, dims).astype(np.float64), spacing)),
            tmp_path / f"m{trial}.nrrd": (load_mask, BinaryMask(rng.random(dims) > 0.5, spacing)),
        }
        for path, (load, data) in files.items():
            (save_volume if load is load_volume else save_mask)(path, data)
            blob = path.read_bytes()
            load(path)  # the whole file loads
            for length in range(len(blob)):
                path.write_bytes(blob[:length])
                with pytest.raises(NrrdError):
                    load(path)


def test_mask_rejects_nonbinary_payload(tmp_path):
    path = tmp_path / "m.nrrd"
    header = (
        "NRRD0004\ntype: unsigned char\ndimension: 3\nsizes: 2 2 2\n"
        "spacings: 1.0 1.0 1.0\nencoding: raw\nendian: little\n\n"
    )
    path.write_bytes(header.encode() + bytes([0, 1, 2, 0, 1, 0, 1, 0]))
    with pytest.raises(NrrdError, match="0/1"):
        load_mask(path)


def test_fortran_order_layout(tmp_path):
    # first axis varies fastest in the raw payload
    v = Volume3D(np.arange(8, dtype=float).reshape(2, 2, 2), (1, 1, 1))
    path = tmp_path / "v.nrrd"
    save_volume(path, v)
    raw = path.read_bytes().split(b"\n\n", 1)[1]
    first_two = np.frombuffer(raw[:4], dtype="<u2")
    assert first_two[0] == v.data[0, 0, 0]
    assert first_two[1] == v.data[1, 0, 0]


def test_manifest_roundtrip_and_case_loading(tmp_path):
    rng = np.random.default_rng(4)
    dims = (40, 32, 12)
    grids = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    e = ((grids[0] - 20) / 16.0) ** 2 + ((grids[1] - 16) / 12.0) ** 2 + ((grids[2] - 6) / 5.0) ** 2
    breast = e <= 1.0
    gland = e <= 0.4
    t1 = np.full(dims, 5.0)
    t1[breast] = 200.0
    t1[gland] = 90.0
    t1 += rng.normal(0, 1.0, dims)
    t1 = np.clip(t1, 0, None)

    def save(name, data):
        save_volume(tmp_path / name, Volume3D(data, (1, 1, 1)))
        return name

    gt = np.zeros(dims, bool)
    gt[18:23, 14:19, 5:8] = True
    save_mask(tmp_path / "gt0.nrrd", BinaryMask(gt, (1.0, 1.0, 1.0)))

    rec = CaseRecord(
        case_id="c0",
        side="left",
        t1=save("t1.nrrd", t1),
        t2=save("t2.nrrd", t1 * 0.5),
        dce=[save("d0.nrrd", t1), save("d1.nrrd", t1 * 1.2)],
        acquisition_times=[0.0, 90.0],
        ground_truth=["gt0.nrrd"],
        malignant=[True],
        split="test",
    )
    save_manifest(tmp_path / "manifest.json", [rec])
    records = load_manifest(tmp_path / "manifest.json")
    assert len(records) == 1
    assert records[0].malignant == [True]
    assert records[0].split == "test"

    case = load_case(records[0])
    assert case.case_id == "c0"
    assert case.dims == dims
    assert len(case.dce) == 2
    assert case.breast_mask.count > 0
    assert case.fat_mask.count > 0
    assert len(case.ground_truth) == 1
    assert case.ground_truth[0].count == gt.sum()


def test_manifest_missing_field(tmp_path):
    (tmp_path / "manifest.json").write_text('{"cases": [{"case_id": "x"}]}')
    with pytest.raises(NrrdError, match="missing field"):
        load_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("suffix", [".nrrd", ".nhdr"])
@pytest.mark.parametrize("nz", [1, 5, 16, 17, 40])
def test_slab_writer_matches_whole_grid_conversion(tmp_path, suffix, nz):
    rng = np.random.default_rng(nz)
    dims = (6, 7, nz)
    # out-of-range values, halves (round to even) and integers
    data = rng.uniform(-20.0, 70000.0, dims)
    data.ravel()[::7] = np.floor(data.ravel()[::7]) + 0.5
    data.ravel()[::5] = np.round(data.ravel()[::5])
    mask = rng.random(dims) > 0.5
    vol_path, mask_path = tmp_path / f"v{suffix}", tmp_path / f"m{suffix}"
    save_volume(vol_path, Volume3D(data, (0.7, 0.7, 1.3)))
    save_mask(mask_path, BinaryMask(mask, (0.7, 0.7, 1.3)))
    want = np.clip(np.round(data), 0, 65535).astype("<u2").tobytes(order="F")
    assert _payload(vol_path) == want
    assert _payload(mask_path) == mask.astype(np.uint8).tobytes(order="F")


def test_writes_hold_no_converted_copy_of_the_grid(tmp_path):
    rng = np.random.default_rng(8)
    dims = (64, 64, 40)
    volume = Volume3D(rng.uniform(-10.0, 70000.0, dims), (1.0, 1.0, 1.0))
    mask = BinaryMask(rng.random(dims) > 0.5, (1.0, 1.0, 1.0))
    for save, data, grid_bytes in ((save_volume, volume, volume.data.nbytes),
                                   (save_mask, mask, mask.data.nbytes)):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save(tmp_path / "out.nrrd", data)
            rise = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert rise <= 0.5 * grid_bytes, (save.__name__, rise / grid_bytes)


def _case_on_disk(tmp_path):
    records = generate_suite(1, 4, tmp_path, dims=(40, 40, 20),
                             diameter_range_mm=(5.0, 8.0))
    return records[0]


def _record_reads(monkeypatch):
    """``(loader, path)`` of every payload read, in order, through the
    loaders a case and ``load_case`` look up when they read a file."""
    reads = []
    for name in ("load_volume", "load_mask", "_read_stored"):
        load = getattr(nrrd_io, name)

        def recorded(path, load=load, name=name):
            reads.append((name, Path(path)))
            return load(path)

        monkeypatch.setattr(nrrd_io, name, recorded)
    return reads


def test_load_case_reads_volumes_on_every_use_and_masks_once(tmp_path, monkeypatch):
    record = _case_on_disk(tmp_path)
    volumes = [record.t1, record.t2, *record.dce]
    want = [load_volume(tmp_path / p).data for p in volumes]
    reads = _record_reads(monkeypatch)
    case = load_case(record)
    assert reads == []
    assert case.dims == (40, 40, 20) and case.spacing == (0.8, 0.8, 1.3)
    assert len(case.dce) == 4 and len(case.ground_truth) == 1

    # a volume file is read as stored on every use, and never kept
    for _ in range(2):
        t1, t2, frames = case.values()
        for got, values in zip([t1, t2, *frames], want):
            assert got.dtype == np.uint16 and got.flags.c_contiguous
            assert np.array_equal(got, values)
    stored = [("_read_stored", tmp_path / p) for p in volumes]
    assert reads == stored * 2
    reads.clear()
    for _ in range(2):
        assert np.array_equal(subtract(case.dce[1], case.dce[0]).data, want[3] - want[2])
    assert reads == [("_read_stored", tmp_path / p) for p in record.dce[1::-1]] * 2
    assert all(isinstance(v, Pending) for v in (case.t1, case.t2, *case.dce))

    # a mask file is read once, on first use, and kept
    reads.clear()
    names = (record.breast_mask, record.fat_mask, record.ground_truth[0])
    masks = (case.breast_mask, case.fat_mask, case.ground_truth[0])
    assert masks == (case.breast_mask, case.fat_mask, case.ground_truth[0])
    assert reads == [("load_mask", tmp_path / p) for p in names]
    for mask, name in zip(masks, names):
        assert np.array_equal(mask.data, load_mask(tmp_path / name).data)


# candidates, features and the whole pipeline read the volumes as stored:
# none loads one as float64 or leaves one read in the case; a mask the
# manifest does not name costs one float64 read of T1, as the case is made
def test_pipeline_loads_no_volume_as_float64(tmp_path, monkeypatch):
    record = _case_on_disk(tmp_path)
    reads = _record_reads(monkeypatch)
    for missing in ({}, {"fat_mask": None}, {"breast_mask": None, "fat_mask": None}):
        reads.clear()
        case = load_case(replace(record, **missing))
        derived = [("load_volume", tmp_path / record.t1)] if missing else []
        assert [r for r in reads if r[0] != "load_mask"] == derived
        candidates = generate_candidates(case)
        assert candidates
        FeatureExtractor(case).extract(candidates[0])
        run_pipeline(case, ConstModel(0.5), ConstModel(0.5), RunConfig(theta_lesion=0.0))
        assert [r for r in reads if r[0] == "load_volume"] == derived
        assert ("_read_stored", tmp_path / record.t1) in reads
        assert all(isinstance(v, Pending) for v in (case.t1, case.t2, *case.dce))


def test_load_case_checks_every_file_before_reading_a_payload(tmp_path, monkeypatch):
    record = _case_on_disk(tmp_path)
    reads = _record_reads(monkeypatch)
    names = [record.t1, record.t2, *record.dce, *record.ground_truth,
             record.breast_mask, record.fat_mask]
    for name in names:
        path = tmp_path / name
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(NrrdError, match="too short") as err:
            load_case(record)
        assert str(path) in str(err.value)
        path.write_bytes(blob)
    # a mask where a volume belongs, and a volume where a mask belongs
    for name, other, message in ((record.t2, record.fat_mask, "volume files must be"),
                                 (record.ground_truth[0], record.t1, "mask files must be")):
        path = tmp_path / name
        blob = path.read_bytes()
        path.write_bytes((tmp_path / other).read_bytes())
        with pytest.raises(NrrdError, match=message) as err:
            load_case(record)
        assert str(path) in str(err.value)
        path.write_bytes(blob)
    assert reads == []


@pytest.mark.parametrize("field", ["t2", "dce", "ground_truth", "fat_mask"])
def test_grid_errors_name_the_case_and_the_file(tmp_path, field):
    record = _case_on_disk(tmp_path)
    name = {"t2": record.t2, "dce": record.dce[2], "ground_truth": record.ground_truth[0],
            "fat_mask": record.fat_mask}[field]
    path = tmp_path / name
    if field in ("t2", "dce"):
        save_volume(path, Volume3D(np.zeros((40, 40, 21)), (0.8, 0.8, 1.3)))
    else:
        save_mask(path, BinaryMask(np.zeros((40, 41, 20), bool), (0.8, 0.8, 1.3)))
    with pytest.raises(VolumeError, match="must share") as err:
        load_case(record)
    assert f"case {record.case_id!r}" in str(err.value) and str(path) in str(err.value)


@pytest.mark.parametrize("times, dce, message", [
    ([0.0, 90.0, 180.0], ["a.nrrd", "b.nrrd", "c.nrrd", "d.nrrd"],
     "field 'acquisition_times' must hold one time per DCE frame, has 3 for 4"),
    ([0.0], ["a.nrrd"], "field 'dce' must be a list of file names, at least two"),
], ids=["times_per_frame", "one_frame"])
def test_manifest_names_a_frame_count_error(tmp_path, times, dce, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"cases": [
        {"case_id": "c", "side": "left", "t1": "t1.nrrd", "t2": "t2.nrrd",
         "dce": dce, "acquisition_times": times}]}))
    with pytest.raises(NrrdError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: manifest cases[0]: {message}"
