"""Minimal NRRD reader/writer, JSON case manifests, and the one reader
and field-table check of every JSON document the package reads.

Volumes are stored as 16-bit unsigned raw little-endian, masks as 8-bit
0/1; everything is converted to the internal float/bool representation
on load. Attached headers (.nrrd) are written; both attached and
detached (.nhdr + raw file) headers are read. Raw data is laid out with
the first axis fastest, as usual for this format, and is written a slab
of z planes at a time, so a write holds no converted copy of the grid.

Payloads are read on first use. :func:`load_case` checks the header,
type and payload size of every file of a case, reading no payload, so a
malformed or truncated file fails before any work on the case and the
error names it. Each volume or mask is read when the case is first asked
for it, and kept; a command reads only what it uses. Candidate
generation reads the first two DCE frames as stored, unsigned short, for
their subtraction alone, and keeps neither, so ``sift`` reads those two
frames as stored and the breast mask, and converts no volume to float.
Feature extraction reads T1, T2 and every frame as stored, once per
case, and keeps them in the extractor, so ``train`` and ``detect`` keep
no volume as float64 either: a mask derived from T1 is made from a
float64 read of it that the case does not keep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .volume import BinaryMask, BreastCase, Pending, Volume3D, VolumeError
from .volume import breast_mask as compute_breast_mask
from .volume import fat_mask as compute_fat_mask


class NrrdError(ValueError):
    """Malformed or unsupported NRRD content."""


_MAGIC = "NRRD"

_TYPE_ALIASES = {
    "unsigned short": np.uint16,
    "unsigned short int": np.uint16,
    "uint16": np.uint16,
    "ushort": np.uint16,
    "unsigned char": np.uint8,
    "uint8": np.uint8,
    "uchar": np.uint8,
    "double": np.float64,
    "float64": np.float64,
}

_TYPE_NAMES = {np.uint16: "unsigned short", np.uint8: "unsigned char", np.float64: "double"}


def _format_header(dtype, sizes, spacings, data_file: str | None = None) -> str:
    lines = [
        "NRRD0004",
        f"type: {_TYPE_NAMES[dtype]}",
        "dimension: 3",
        "sizes: " + " ".join(str(int(s)) for s in sizes),
        "spacings: " + " ".join(repr(float(s)) for s in spacings),
        "encoding: raw",
        "endian: little",
    ]
    if data_file is not None:
        lines.append(f"data file: {data_file}")
    return "\n".join(lines) + "\n\n"


# slabs a payload is written in: each converts at most 1/16 of the grid
_WRITE_SLABS = 16


def _write_nrrd(path: Path, data: np.ndarray, spacings, dtype, convert) -> None:
    """Write ``data`` as NRRD of ``dtype``; ``convert`` maps a slab of z
    planes of ``data`` to ``dtype`` values. The payload is converted and
    written slab by slab, in the file's order, so no converted copy of
    the whole grid is ever held."""
    path = Path(path)
    dtype = np.dtype(dtype).newbyteorder("<")
    if path.suffix == ".nhdr":
        payload = path.with_suffix(".raw")
        path.write_text(_format_header(dtype.type, data.shape, spacings,
                                       data_file=payload.name))
        header = b""
    else:
        payload = path
        header = _format_header(dtype.type, data.shape, spacings).encode("ascii")
    nz = data.shape[2]
    step = -(-nz // _WRITE_SLABS)
    with open(payload, "wb") as fh:
        fh.write(header)
        # z varies slowest in the file, so the slabs follow each other
        for k in range(0, nz, step):
            fh.write(convert(data[:, :, k:k + step]).astype(dtype).tobytes(order="F"))


def _parse_header(fh, path: Path) -> dict[str, str]:
    """The header's fields, read line by line up to the blank line that
    ends them, which leaves ``fh`` at the first payload byte."""
    magic = fh.readline()
    if not magic.endswith(b"\n"):
        raise NrrdError(f"{path}: truncated header")
    if not magic.decode("ascii", "replace").startswith(_MAGIC):
        raise NrrdError(f"{path}: missing NRRD magic")
    fields: dict[str, str] = {}
    while True:
        raw = fh.readline()
        if not raw.endswith(b"\n"):  # the file ends inside the header
            break
        line = raw[:-1].decode("ascii", "replace").rstrip("\r")
        if line == "":
            break
        if line.startswith("#"):
            continue
        if ":" not in line:
            raise NrrdError(f"{path}: bad header line {line!r}")
        key, value = line.split(":", 1)
        fields[key.strip().lower()] = value.strip()
    return fields


@dataclass(frozen=True)
class _Header:
    """A checked header: the payload's type and grid, and where it lies."""

    dtype: np.dtype
    sizes: tuple[int, int, int]
    spacings: tuple[float, float, float]
    payload: Path
    offset: int


# the type each loader takes, by what it loads
_KIND_TYPES = {"volume": np.uint16, "mask": np.uint8}


def _read_header(path, kind: str) -> _Header:
    """Parse and check the header of a ``kind`` file, and check that the
    payload it describes is all there, reading no payload byte."""
    path = Path(path)
    with open(path, "rb") as fh:
        fields = _parse_header(fh, path)
        offset = fh.tell()

    for required in ("type", "sizes", "spacings"):
        if required not in fields:
            raise NrrdError(f"{path}: missing required field: {required}")
    type_name = fields["type"].lower()
    if type_name not in _TYPE_ALIASES:
        raise NrrdError(f"{path}: unsupported type {fields['type']!r}")
    dtype = np.dtype(_TYPE_ALIASES[type_name]).newbyteorder("<")
    if fields.get("encoding", "raw").lower() != "raw":
        raise NrrdError(f"{path}: only raw encoding is supported")
    if dtype.itemsize > 1 and fields.get("endian", "little").lower() != "little":
        raise NrrdError(f"{path}: only little-endian data is supported")

    try:
        sizes = tuple(int(s) for s in fields["sizes"].split())
    except ValueError:
        raise NrrdError(f"{path}: sizes must be integers, got {fields['sizes']!r}") from None
    try:
        spacings = tuple(float(s) for s in fields["spacings"].split())
    except ValueError:
        raise NrrdError(f"{path}: spacings must be numbers, got {fields['spacings']!r}") from None
    if len(sizes) != 3 or len(spacings) != 3:
        raise NrrdError(f"{path}: expected 3 sizes and 3 spacings")
    if min(sizes) <= 0:
        raise NrrdError(f"{path}: sizes must be positive, got {fields['sizes']!r}")
    if not all(np.isfinite(s) and s > 0 for s in spacings):
        raise NrrdError(
            f"{path}: spacings must be finite and positive, got {fields['spacings']!r}")
    wanted = _KIND_TYPES[kind]
    if dtype.type is not wanted:
        raise NrrdError(f"{path}: {kind} files must be {_TYPE_NAMES[wanted]}")

    payload = path
    if "data file" in fields:
        name = fields["data file"]
        # the writer names <stem>.raw beside the header; anything else
        # could read a file outside the dataset
        if name in ("", ".", "..") or Path(name).name != name or "\\" in name:
            raise NrrdError(f"{path}: field 'data file' must name a file in the "
                            f"header's directory, got {name!r}")
        payload, offset = path.parent / name, 0
    header = _Header(dtype, sizes, spacings, payload, offset)
    _check_length(path, header, payload.stat().st_size - offset)
    return header


def _check_length(path, header: _Header, length: int) -> None:
    expected = math.prod(header.sizes) * header.dtype.itemsize
    if length < expected:
        raise NrrdError(f"{path}: raw payload too short ({length} < {expected} bytes)")


def _read_nrrd(path, kind: str) -> tuple[np.ndarray, tuple[float, ...]]:
    """The payload of a ``kind`` file as an array of the file's type on
    its grid (Fortran order, as stored), and its spacings."""
    header = _read_header(path, kind)
    arr = np.empty(header.sizes, dtype=header.dtype, order="F")
    with open(header.payload, "rb") as fh:
        fh.seek(header.offset)
        length = fh.readinto(arr.reshape(-1, order="A"))
    _check_length(path, header, length)  # the file may have shrunk since
    return arr, header.spacings


def save_volume(path, volume: Volume3D) -> None:
    """Write a volume as 16-bit unsigned NRRD.

    Values are rounded and clipped to [0, 65535]; volumes that already
    hold 16-bit integers round-trip bit-exactly.
    """
    def convert(slab):
        values = np.round(slab)
        return np.clip(values, 0, 65535, out=values)

    _write_nrrd(Path(path), volume.data, volume.spacing, np.uint16, convert)


def load_volume(path) -> Volume3D:
    arr, spacings = _read_nrrd(path, "volume")
    return Volume3D(np.ascontiguousarray(arr, dtype=np.float64), spacings)


def save_mask(path, mask: BinaryMask) -> None:
    _write_nrrd(Path(path), mask.data, mask.spacing, np.uint8, lambda slab: slab)


def load_mask(path) -> BinaryMask:
    arr, spacings = _read_nrrd(path, "mask")
    bad = np.unique(arr[arr > 1])
    if bad.size:
        raise NrrdError(f"{path}: mask values must be 0/1, found {bad[:4].tolist()}")
    return BinaryMask(np.ascontiguousarray(arr, dtype=bool), spacings)


# ---------------------------------------------------------------------------
# JSON documents: one reader, and one field-table check
# ---------------------------------------------------------------------------

# the JSON type of each Python type ``json.loads`` makes
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


def read_document(path, what: str, error: type[Exception]) -> dict:
    """The top-level object of the JSON document at ``path``; ``error``
    names the file and ``what`` it holds when its bytes are not UTF-8
    text, the text is not JSON or the value is not an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object, not {_JSON_TYPES[type(doc)]}")
    return doc


def check_fields(entry, table, where: str, error: type[Exception]) -> None:
    """Check one JSON object of a document against a field table of
    ``(name, required, valid, what a valid value is)``; ``error`` names
    ``where`` and the first missing or malformed field, and quotes a
    malformed value that is not a list or an object."""
    if not isinstance(entry, dict):
        raise error(f"{where} must be a JSON object")
    for name, required, valid, what in table:
        if name in entry:
            value = entry[name]
            if not valid(value):
                got = "" if isinstance(value, (list, dict)) else f", not {value!r}"
                raise error(f"{where}: field {name!r} must be {what}{got}")
        elif required:
            raise error(f"{where}: missing field {name!r}")


# the predicates the field tables are made of
def of_type(kind: type):
    return lambda v: isinstance(v, kind)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite(v) -> bool:
    return is_number(v) and math.isfinite(v)


def is_score(v) -> bool:
    return is_number(v) and 0.0 <= v <= 1.0


def integer_from(lowest: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lowest


def one_of(*values):
    return lambda v: not isinstance(v, bool) and v in values


def or_null(valid):
    return lambda v: v is None or valid(v)


def list_of(valid):
    return lambda v: isinstance(v, list) and all(map(valid, v))


def increasing_list_of(valid):
    return lambda v: list_of(valid)(v) and all(a < b for a, b in zip(v, v[1:]))


def array_of(kinds: str):
    """A flat list whose numpy dtype kind is in ``kinds`` (``"i"`` for
    integers, ``"if"`` for numbers), all finite, checked in one
    vectorised pass rather than element by element."""
    def valid(v) -> bool:
        try:
            arr = np.asarray(v) if isinstance(v, list) else None
        except (ValueError, TypeError, OverflowError):
            return False
        return (arr is not None and arr.ndim == 1 and arr.dtype.kind in kinds
                and (arr.dtype.kind == "i" or bool(np.isfinite(arr).all())))
    return valid


# ---------------------------------------------------------------------------
# case manifests
# ---------------------------------------------------------------------------

@dataclass
class CaseRecord:
    """Paths and labels for one breast, relative to the manifest dir."""

    case_id: str
    side: str
    t1: str
    t2: str
    dce: list[str]
    acquisition_times: list[float]
    ground_truth: list[str] = field(default_factory=list)
    malignant: list[bool] = field(default_factory=list)
    split: str = "train"
    breast_mask: str | None = None
    fat_mask: str | None = None
    base_dir: Path = Path(".")


def save_manifest(path, records: list[CaseRecord]) -> None:
    cases = []
    for r in records:
        entry = {
            "case_id": r.case_id,
            "side": r.side,
            "t1": r.t1,
            "t2": r.t2,
            "dce": list(r.dce),
            "acquisition_times": [float(t) for t in r.acquisition_times],
            "ground_truth": list(r.ground_truth),
            "malignant": [bool(m) for m in r.malignant],
            "split": r.split,
        }
        if r.breast_mask:
            entry["breast_mask"] = r.breast_mask
        if r.fat_mask:
            entry["fat_mask"] = r.fat_mask
        cases.append(entry)
    Path(path).write_text(json.dumps({"cases": cases}, indent=2, sort_keys=True) + "\n")


_MANIFEST_FIELDS = (("cases", True, of_type(list), "a list"),)

# every case field: (name, required, valid, what a valid value is)
_CASE_FIELDS = (
    ("case_id", True, of_type(str), "a string"),
    ("side", True, of_type(str), "a string"),
    ("t1", True, of_type(str), "a file name"),
    ("t2", True, of_type(str), "a file name"),
    ("dce", True, lambda v: list_of(of_type(str))(v) and len(v) >= 2,
     "a list of file names, at least two"),
    ("acquisition_times", True, increasing_list_of(is_finite),
     "a list of numbers, finite and strictly increasing"),
    ("ground_truth", False, list_of(of_type(str)), "a list of file names"),
    ("malignant", False, list_of(of_type(bool)), "a list of booleans"),
    ("split", False, of_type(str), "a string"),
    ("breast_mask", False, or_null(of_type(str)), "a file name or null"),
    ("fat_mask", False, or_null(of_type(str)), "a file name or null"),
)


def load_manifest(path) -> list[CaseRecord]:
    """Case records of a manifest; NrrdError names the manifest and the
    first malformed field."""
    path = Path(path)
    doc = read_document(path, "manifest", NrrdError)
    check_fields(doc, _MANIFEST_FIELDS, f"{path}: manifest", NrrdError)
    records = []
    for i, entry in enumerate(doc["cases"]):
        where = f"{path}: manifest cases[{i}]"
        check_fields(entry, _CASE_FIELDS, where, NrrdError)
        n_times, n_frames = len(entry["acquisition_times"]), len(entry["dce"])
        if n_times != n_frames:
            raise NrrdError(f"{where}: field 'acquisition_times' must hold one time per "
                            f"DCE frame, has {n_times} for {n_frames}")
        n_flags, n_lesions = len(entry.get("malignant", [])), len(entry.get("ground_truth", []))
        if n_flags and n_flags != n_lesions:
            raise NrrdError(f"{where}: field 'malignant' must hold one flag per "
                            f"'ground_truth' entry, has {n_flags} for {n_lesions}")
        records.append(CaseRecord(
            case_id=entry["case_id"],
            side=entry["side"],
            t1=entry["t1"],
            t2=entry["t2"],
            dce=list(entry["dce"]),
            acquisition_times=[float(t) for t in entry["acquisition_times"]],
            ground_truth=list(entry.get("ground_truth", [])),
            malignant=list(entry.get("malignant", [])),
            split=entry.get("split", "train"),
            breast_mask=entry.get("breast_mask"),
            fat_mask=entry.get("fat_mask"),
            base_dir=path.parent,
        ))
    return records


def _read_stored(path) -> tuple[np.ndarray, tuple[float, ...]]:
    """The payload of a volume file as stored (unsigned short) in C order,
    and its spacings."""
    arr, spacings = _read_nrrd(path, "volume")
    return np.ascontiguousarray(arr), spacings


def _pending(path: Path, kind: str) -> Pending:
    """A volume or mask file whose header, type and size are checked now
    and whose payload is read on first use; a volume's values can also be
    read as stored, and are then not kept."""
    header = _read_header(path, kind)
    if kind == "mask":
        return Pending(header.sizes, header.spacings, str(path), lambda: load_mask(path))
    return Pending(header.sizes, header.spacings, str(path), lambda: load_volume(path),
                   stored=lambda: _read_stored(path))


def load_case(record: CaseRecord) -> BreastCase:
    """The case a record describes.

    Every file's header, type and size are checked here, so a malformed
    or truncated file fails now and is named; each payload is read when
    the case first uses it, and kept. Breast and fat masks the manifest
    does not name are derived from T1 here, from a read the case does not
    keep: T1 stays unread in it.
    """
    base = record.base_dir
    t1 = _pending(base / record.t1, "volume")
    t2 = _pending(base / record.t2, "volume")
    dce = [_pending(base / p, "volume") for p in record.dce]
    gts = [_pending(base / p, "mask") for p in record.ground_truth]
    breast = record.breast_mask and _pending(base / record.breast_mask, "mask")
    fat = record.fat_mask and _pending(base / record.fat_mask, "mask")
    if not (breast and fat):
        # a derived mask needs the values of T1, and the fat mask the breast's
        values = t1.read()
        breast = breast.read() if breast else compute_breast_mask(values)
        fat = fat or compute_fat_mask(values, breast)
        del values
    return BreastCase(
        case_id=record.case_id,
        side=record.side,
        t1=t1,
        t2=t2,
        dce=dce,
        acquisition_times=list(record.acquisition_times),
        breast_mask=breast,
        fat_mask=fat,
        ground_truth=gts,
    )
