import numpy as np
import pytest

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
from siftcad.volume import BinaryMask, Volume3D


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
