"""Minimal NRRD reader/writer, JSON case manifests, and the one reader
and field-table check of every JSON document the package reads.

Volumes are stored as 16-bit unsigned raw little-endian, masks as 8-bit
0/1; everything is converted to the internal float/bool representation
on load. Attached headers (.nrrd) are written; both attached and
detached (.nhdr + raw file) headers are read. Raw data is laid out with
the first axis fastest, as usual for this format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .volume import BinaryMask, BreastCase, Volume3D, VolumeError
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


def _write_nrrd(path: Path, arr: np.ndarray, spacings) -> None:
    path = Path(path)
    raw = np.asfortranarray(arr)
    if raw.dtype.byteorder == ">":
        raw = raw.astype(raw.dtype.newbyteorder("<"))
    if path.suffix == ".nhdr":
        data_name = path.with_suffix(".raw").name
        header = _format_header(arr.dtype.type, arr.shape, spacings, data_file=data_name)
        path.write_text(header)
        path.with_suffix(".raw").write_bytes(raw.tobytes(order="F"))
    else:
        with open(path, "wb") as fh:
            fh.write(_format_header(arr.dtype.type, arr.shape, spacings).encode("ascii"))
            fh.write(raw.tobytes(order="F"))


def _parse_header(blob: bytes, path: Path):
    try:
        nl = blob.index(b"\n")
    except ValueError:
        raise NrrdError(f"{path}: truncated header")
    if not blob[:nl].decode("ascii", "replace").startswith(_MAGIC):
        raise NrrdError(f"{path}: missing NRRD magic")
    fields: dict[str, str] = {}
    pos = nl + 1
    while True:
        end = blob.find(b"\n", pos)
        if end < 0:
            pos = len(blob)
            break
        line = blob[pos:end].decode("ascii", "replace").rstrip("\r")
        pos = end + 1
        if line == "":
            break
        if line.startswith("#"):
            continue
        if ":" not in line:
            raise NrrdError(f"{path}: bad header line {line!r}")
        key, value = line.split(":", 1)
        fields[key.strip().lower()] = value.strip()
    return fields, pos


def _read_nrrd(path) -> tuple[np.ndarray, tuple[float, ...]]:
    path = Path(path)
    blob = path.read_bytes()
    fields, data_offset = _parse_header(blob, path)

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

    if "data file" in fields:
        name = fields["data file"]
        # the writer names <stem>.raw beside the header; anything else
        # could read a file outside the dataset
        if name in ("", ".", "..") or Path(name).name != name or "\\" in name:
            raise NrrdError(f"{path}: field 'data file' must name a file in the "
                            f"header's directory, got {name!r}")
        raw = (path.parent / name).read_bytes()
    else:
        raw = memoryview(blob)[data_offset:]  # a view: no copy of the payload
    count = int(np.prod(sizes))
    expected = count * dtype.itemsize
    if len(raw) < expected:
        raise NrrdError(f"{path}: raw payload too short ({len(raw)} < {expected} bytes)")
    # read-only over the file's bytes; the loaders convert it in one pass
    arr = np.frombuffer(raw, dtype=dtype, count=count).reshape(sizes, order="F")
    return arr, spacings


def save_volume(path, volume: Volume3D) -> None:
    """Write a volume as 16-bit unsigned NRRD.

    Values are rounded and clipped to [0, 65535]; volumes that already
    hold 16-bit integers round-trip bit-exactly.
    """
    arr = np.clip(np.round(volume.data), 0, 65535).astype(np.uint16)
    _write_nrrd(Path(path), arr, volume.spacing)


def load_volume(path) -> Volume3D:
    arr, spacings = _read_nrrd(path)
    if arr.dtype != np.uint16:
        raise NrrdError(f"{path}: volume files must be unsigned short")
    return Volume3D(np.ascontiguousarray(arr, dtype=np.float64), spacings)


def save_mask(path, mask: BinaryMask) -> None:
    _write_nrrd(Path(path), mask.data.astype(np.uint8), mask.spacing)


def load_mask(path) -> BinaryMask:
    arr, spacings = _read_nrrd(path)
    if arr.dtype != np.uint8:
        raise NrrdError(f"{path}: mask files must be unsigned char")
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
    ("dce", True, list_of(of_type(str)), "a list of file names"),
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


def load_case(record: CaseRecord) -> BreastCase:
    """Materialise a case from disk.

    Breast and fat masks are loaded when the manifest provides them and
    derived from T1 otherwise.
    """
    base = record.base_dir
    t1 = load_volume(base / record.t1)
    t2 = load_volume(base / record.t2)
    dce = [load_volume(base / p) for p in record.dce]
    gts = [load_mask(base / p) for p in record.ground_truth]
    if record.breast_mask:
        breast = load_mask(base / record.breast_mask)
    else:
        breast = compute_breast_mask(t1)
    if record.fat_mask:
        fat = load_mask(base / record.fat_mask)
    else:
        fat = compute_fat_mask(t1, breast)
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
