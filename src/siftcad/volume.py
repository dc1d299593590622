"""Core volume/mask types and breast preprocessing operations.

Conventions used throughout the package:

* a volume is a 3D array indexed ``[x, y, z]`` with voxel spacing
  ``(d, d, D)`` in millimetres (axial in-plane spacing is equal in x and
  y for case-level volumes). Its values are ``float64``, except for the
  DCE subtraction :func:`subtract` makes of two frames as stored, which
  is ``int16`` or ``int32``,
* a case's volume files are read as stored, unsigned short, on every
  use (:func:`subtract`, :meth:`BreastCase.values`), and never kept:
  their values are converted to ``float64`` only where they meet
  arithmetic; a case's mask files are read once, on first use, and kept,
* the physical coordinate of voxel ``i`` along an axis is
  ``i * spacing`` (voxel centres on a regular grid anchored at 0),
* binary masks share the grid of the volume they refer to.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse


class VolumeError(ValueError):
    """Contract violation on a volume, mask or case."""


# the integer grids of a subtraction of stored frames (see subtract); a
# volume of any other type is converted to float64
_INTEGER_TYPES = (np.int16, np.int32)


def _as_volume_data(data: np.ndarray) -> np.ndarray:
    arr = np.asarray(data)
    arr = np.ascontiguousarray(
        arr, dtype=arr.dtype if arr.dtype.type in _INTEGER_TYPES else np.float64)
    if arr.ndim != 3:
        raise VolumeError(f"volume data must be 3D, got shape {arr.shape}")
    return arr


def _check_spacing(spacing) -> tuple[float, float, float]:
    sp = tuple(float(s) for s in spacing)
    if len(sp) != 3:
        raise VolumeError(f"spacing must have 3 components, got {spacing!r}")
    if any(not np.isfinite(s) or s <= 0.0 for s in sp):
        raise VolumeError(f"spacing components must be positive, got {sp}")
    return sp


@dataclass(frozen=True, eq=False)
class Volume3D:
    """Scalar volume with per-axis voxel spacing in mm: float64 values,
    or the int16 or int32 ones of a subtraction of stored frames."""

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "data", _as_volume_data(self.data))
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def voxel_volume_mm3(self) -> float:
        d0, d1, d2 = self.spacing
        return d0 * d1 * d2


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Boolean mask on the same grid as its parent volume."""

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data)
        if arr.dtype != np.bool_:
            if not np.isin(np.unique(arr), (0, 1)).all():
                raise VolumeError("mask data must be 0/1 valued")
            arr = arr.astype(bool)
        if arr.ndim != 3:
            raise VolumeError(f"mask data must be 3D, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def count(self) -> int:
        return int(self.data.sum())

    @property
    def voxel_volume_mm3(self) -> float:
        d0, d1, d2 = self.spacing
        return d0 * d1 * d2


@dataclass(frozen=True, eq=False)
class Pending:
    """A volume or mask file of a case: the grid its header gives, the
    file and how to read it. A volume's ``read`` returns its values as
    the file stores them, in C order, and their spacing, afresh on each
    call; a mask's returns the :class:`BinaryMask`."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    source: str
    read: Callable[[], tuple[np.ndarray, tuple[float, float, float]] | BinaryMask]


def _check_grid(item: Pending, dims, spacing) -> None:
    """Refuse what a Pending read if it lies off the grid its header gave
    when the case was made."""
    if tuple(dims) != item.dims or spacing != item.spacing:
        raise VolumeError(f"{item.source}: grid changed after the case was loaded")


def _values(item: Volume3D | Pending) -> np.ndarray:
    """A volume's data, or a Pending volume's values as stored, read for
    the caller alone and not kept."""
    if not isinstance(item, Pending):
        return item.data
    values, spacing = item.read()
    _check_grid(item, values.shape, spacing)
    return values


def _mask(item: BinaryMask | Pending) -> BinaryMask:
    """``item``, or the mask a Pending reads."""
    if not isinstance(item, Pending):
        return item
    mask = item.read()
    _check_grid(item, mask.dims, mask.spacing)
    return mask


class _OnFirstUse:
    """A mask field of a case that may hold a Pending: its first read
    makes the mask and keeps it in the Pending's place."""

    def __set_name__(self, owner, name):
        self.slot = f"_{name}"

    def __get__(self, case, owner=None):
        if case is None:
            return self
        value = _mask(getattr(case, self.slot))
        setattr(case, self.slot, value)
        return value

    def __set__(self, case, value):
        setattr(case, self.slot, value)


class _OnFirstUseList(Sequence):
    """The ground truths of a case, as :class:`_OnFirstUse` keeps one
    mask: an item that is a Pending is read when first indexed and kept."""

    def __init__(self, items):
        self._items = list(items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        self._items[i] = value = _mask(self._items[i])
        return value


class BreastCase:
    """One breast: anatomical sequences, DCE series and masks.

    ``dce[0]`` is the pre-contrast frame; ``acquisition_times`` are
    seconds from contrast injection, one per DCE frame, strictly
    increasing. Any volume or mask may be given as a :class:`Pending`;
    the checks here read only its grid. ``t1``, ``t2`` and ``dce`` hold
    what they were given: a Pending volume is read as stored on every
    use (:meth:`values`, :func:`subtract`) and never kept. A Pending mask
    is read when the case first uses it, and kept.
    """

    breast_mask = _OnFirstUse()
    fat_mask = _OnFirstUse()

    def __init__(self, case_id: str, side: str, t1, t2, dce, acquisition_times,
                 breast_mask, fat_mask, ground_truth=()):
        dce, ground_truth = list(dce), list(ground_truth)
        where = f"case {case_id!r}"
        if side not in ("left", "right"):
            raise VolumeError(f"{where}: side must be 'left' or 'right', got {side!r}")
        if len(dce) < 2:
            raise VolumeError(
                f"{where}: need at least a pre-contrast and one post-contrast DCE frame")
        if len(acquisition_times) != len(dce):
            raise VolumeError(f"{where}: {len(acquisition_times)} acquisition times for "
                              f"{len(dce)} DCE frames; one per frame required")
        if not np.all(np.diff(np.asarray(acquisition_times, dtype=float)) > 0):
            raise VolumeError(f"{where}: acquisition times must be strictly increasing")

        def name(item, field_name):
            return item.source if isinstance(item, Pending) else field_name

        d, dy, _ = t1.spacing
        if abs(d - dy) > 1e-9:
            raise VolumeError(f"{where}: {name(t1, 't1')}: axial in-plane spacing must "
                              f"be equal in x and y, got {t1.spacing}")
        ref = f"{name(t1, 't1')} has {t1.dims} at {t1.spacing} mm"
        for field_name, v in (("t2", t2), *((f"dce[{i}]", f) for i, f in enumerate(dce))):
            if v.dims != t1.dims or not np.allclose(v.spacing, t1.spacing):
                raise VolumeError(
                    f"{where}: {name(v, field_name)} has {v.dims} at {v.spacing} mm, "
                    f"{ref}: all sequences must share dims and spacing")
        masks = (("breast_mask", breast_mask), ("fat_mask", fat_mask),
                 *((f"ground_truth[{i}]", m) for i, m in enumerate(ground_truth)))
        for field_name, m in masks:
            if m.dims != t1.dims:
                raise VolumeError(f"{where}: {name(m, field_name)} has {m.dims}, "
                                  f"{ref}: all masks must share the case grid")
        self.case_id = case_id
        self.side = side
        self.t1, self.t2 = t1, t2
        self.dce = dce
        self.acquisition_times = acquisition_times
        self.breast_mask, self.fat_mask = breast_mask, fat_mask
        self.ground_truth = _OnFirstUseList(ground_truth)
        self.dims: tuple[int, int, int] = t1.dims
        self.spacing: tuple[float, float, float] = t1.spacing

    def values(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The values of T1, T2 and every DCE frame: a volume's data, or
        a Pending volume's values as stored (see :func:`_values`), read
        now for the caller alone and not kept in the case."""
        return _values(self.t1), _values(self.t2), [_values(f) for f in self.dce]


# ---------------------------------------------------------------------------
# histograms and Otsu thresholding
# ---------------------------------------------------------------------------

N_HISTOGRAM_BINS = 256


@dataclass(frozen=True)
class HistogramSpec:
    """Binning used to derive a threshold (uniform bins over [lo, hi])."""

    lo: float
    hi: float
    n_bins: int

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.n_bins

    def upper_edge(self, bin_index: int) -> float:
        """Scalar threshold associated with a bin index.

        A threshold at bin ``t`` separates bins ``<= t`` from ``> t``;
        the scalar is the lower edge of bin ``t + 1`` so that
        ``value >= threshold`` selects exactly the upper classes.
        """
        return self.lo + (bin_index + 1) * self.bin_width


# values are binned this many at a time, so that each float64 or int64
# temporary of their bin indices is 256 KiB
_HISTOGRAM_CHUNK = 1 << 15


def intensity_histogram(values: np.ndarray):
    """Uniform ``N_HISTOGRAM_BINS``-bin histogram over [min, max] of ``values``.

    Returns ``(counts, HistogramSpec)``. Values equal to the max land in
    the last bin. The bins are counted a bounded chunk of values at a
    time, each converted to float64 on its own.
    """
    vals = np.asarray(values).ravel()
    if vals.size == 0:
        raise VolumeError("cannot histogram an empty value set")
    lo = float(vals.min())
    hi = float(vals.max())
    if hi <= lo:
        raise VolumeError("constant values have no histogram spread")
    counts = np.zeros(N_HISTOGRAM_BINS, dtype=np.int64)
    for i in range(0, vals.size, _HISTOGRAM_CHUNK):
        chunk = vals[i:i + _HISTOGRAM_CHUNK].astype(np.float64)
        idx = np.floor((chunk - lo) / (hi - lo) * N_HISTOGRAM_BINS).astype(np.int64)
        counts += np.bincount(idx.clip(0, N_HISTOGRAM_BINS - 1), minlength=N_HISTOGRAM_BINS)
    return counts.astype(np.float64), HistogramSpec(lo, hi, N_HISTOGRAM_BINS)


def otsu_cumulative_tables(hist: np.ndarray):
    """Zeroth and first cumulative moments of a normalised histogram.

    Returns ``(cw, cs)`` with ``cw[j] = sum(p[:j])`` and
    ``cs[j] = sum(k * p[k] for k < j)``; class terms for bins ``[i..j]``
    follow as ``w = cw[j+1]-cw[i]`` and ``s = cs[j+1]-cs[i]``.
    """
    h = np.asarray(hist, dtype=np.float64)
    total = h.sum()
    if total <= 0:
        raise VolumeError("histogram has zero mass")
    p = h / total
    cw = np.concatenate(([0.0], np.cumsum(p)))
    cs = np.concatenate(([0.0], np.cumsum(p * np.arange(h.size))))
    return cw, cs


def class_variance_term(cw: np.ndarray, cs: np.ndarray, i, j):
    """Between-class contribution ``s^2 / w`` of the bin range [i..j].

    Empty ranges contribute 0. ``i``/``j`` may be arrays (broadcast).
    """
    w = cw[np.asarray(j) + 1] - cw[i]
    s = cs[np.asarray(j) + 1] - cs[i]
    out = np.zeros(np.broadcast(np.asarray(i), np.asarray(j)).shape, dtype=np.float64)
    np.divide(s * s, w, out=out, where=w > 0)
    if out.ndim == 0:
        return float(out)
    return out


def otsu_multilevel_indices(hist: np.ndarray, t_count: int) -> np.ndarray:
    """Threshold bin indices maximising the between-class criterion.

    Dynamic programme over the suffix best-partition table, followed by
    a forward pass that picks the lexicographically smallest maximiser
    (ties resolve exactly as an exhaustive lexicographic enumeration
    would). Classes are contiguous, non-empty bin ranges; a threshold
    index t is the last bin of its lower class.
    """
    h = np.asarray(hist, dtype=np.float64)
    n_bins = h.size
    if t_count < 1:
        raise VolumeError(f"threshold count must be >= 1, got {t_count}")
    if t_count + 1 > n_bins:
        raise VolumeError(f"{t_count} thresholds need more than {n_bins} bins")
    cw, cs = otsu_cumulative_tables(h)
    n_classes = t_count + 1
    # term[i, t]: class [i..t]; -inf where t < i
    bins = np.arange(n_bins)
    term = class_variance_term(cw, cs, bins[:, None], bins[None, :])
    term[bins[None, :] < bins[:, None]] = -np.inf
    # tables[c][i]: best value of classes c..n_classes covering bins [i:];
    # -inf past the last feasible start, so a row's max sees only feasible t
    g_next = np.full(n_bins + 1, -np.inf)
    start = n_classes - 1
    g_next[start:n_bins] = term[start:, n_bins - 1]
    tables = {n_classes: g_next}
    # the forward pass reads tables[2..n_classes] only
    for c in range(n_classes - 1, 1, -1):
        stop = n_bins - (n_classes - c)
        g = np.full(n_bins + 1, -np.inf)
        g[c - 1:stop] = (term[c - 1:stop] + tables[c + 1][1:]).max(axis=1)
        tables[c] = g

    # class c starts at bin i and ends at the first t maximising its row
    indices = np.empty(t_count, dtype=np.int64)
    i = 0
    for c in range(1, n_classes):
        indices[c - 1] = np.argmax(term[i] + tables[c + 1][1:])
        i = int(indices[c - 1]) + 1
    return indices


def multilevel_otsu(volume: Volume3D, mask: BinaryMask | None,
                    t_count: int) -> np.ndarray:
    """Strictly increasing Otsu thresholds of the voxels in ``mask``, or
    of the whole volume if it is None, from a 256-bin histogram over
    their [min, max]. Each threshold is the upper edge of its bin, so
    ``value >= threshold`` selects the classes above it.
    """
    if mask is None:
        vals = volume.data.ravel()
    else:
        if mask.dims != volume.dims:
            raise VolumeError("mask grid does not match volume")
        vals = volume.data[mask.data]
        if vals.size == 0:
            raise VolumeError("mask selects no voxels")
    hist, spec = intensity_histogram(vals)
    # occupied bins hold distinct values, so only a sparse histogram
    # needs the exact count
    if np.count_nonzero(hist) < t_count + 1 and np.unique(vals).size < t_count + 1:
        raise VolumeError(
            f"need at least {t_count + 1} distinct values for {t_count} thresholds"
        )
    return np.array([spec.upper_edge(int(t))
                     for t in otsu_multilevel_indices(hist, t_count)])


# ---------------------------------------------------------------------------
# preprocessing operations
# ---------------------------------------------------------------------------

_I16 = np.iinfo(np.int16)


def subtract(a: Volume3D | Pending, b: Volume3D | Pending) -> Volume3D:
    """Voxelwise ``a - b``; dims and spacing must match.

    Either side may be a :class:`Pending` volume, whose values are read
    as stored for this subtraction alone and not kept. Two unsigned
    short arrays subtract exactly in one integer pass, into int16 when
    their ranges keep every difference within int16, else into int32
    (narrowed to int16 if every difference fits after all). Any other
    pair subtracts in float64.
    """
    if a.dims != b.dims:
        raise VolumeError(f"dims mismatch {a.dims} vs {b.dims}")
    if not np.allclose(a.spacing, b.spacing):
        raise VolumeError(f"spacing mismatch {a.spacing} vs {b.spacing}")
    x = _values(a)
    y = _values(b)
    if not x.dtype == y.dtype == np.uint16:
        return Volume3D(x - y, a.spacing)
    if _I16.min <= int(x.min()) - int(y.max()) and int(x.max()) - int(y.min()) <= _I16.max:
        # each input casts to int16 modulo 2**16, and so does the
        # difference, which fits int16 and so is exact
        return Volume3D(np.subtract(x, y, dtype=np.int16, casting="unsafe"), a.spacing)
    diff = np.subtract(x, y, dtype=np.int32)
    del x, y
    if _I16.min <= diff.min() and diff.max() <= _I16.max:
        diff = diff.astype(np.int16)
    return Volume3D(diff, a.spacing)


def breast_mask(t1: Volume3D) -> BinaryMask:
    """Foreground mask from the T1 volume.

    Otsu threshold over the whole volume, keep the largest 26-connected
    component, then fill holes slice-wise (axial planes).
    """
    (th,) = multilevel_otsu(t1, None, 1)
    fg = t1.data >= th
    if not fg.any():
        raise VolumeError("breast segmentation found no foreground")
    labels, n = ndimage.label(fg, structure=np.ones((3, 3, 3), dtype=bool))
    if n > 1:
        sizes = np.bincount(labels.ravel())
        sizes[0] = 0
        fg = labels == int(np.argmax(sizes))
    filled = np.empty_like(fg)
    for k in range(fg.shape[2]):
        filled[:, :, k] = ndimage.binary_fill_holes(fg[:, :, k])
    return BinaryMask(filled, t1.spacing)


def fat_mask(t1: Volume3D, breast: BinaryMask) -> BinaryMask:
    """Fat compartment inside the breast.

    On non-fat-suppressed T1 the fat is the bright class; Otsu within
    the breast mask and keep voxels at or above the threshold.
    """
    if breast.dims != t1.dims:
        raise VolumeError("breast mask grid does not match T1")
    if breast.count == 0:
        raise VolumeError("breast mask is empty")
    (th,) = multilevel_otsu(t1, breast, 1)
    return BinaryMask(breast.data & (t1.data >= th), t1.spacing)


def dsi_matrix(a_regions, b_regions) -> np.ndarray:
    """Dice similarity index 2|A and B| / (|A| + |B|) of every pair of
    regions, shape ``(len(a_regions), len(b_regions))``.

    Each region is an array of sorted unique flat indices, all on one
    grid. Two empty regions are identical (1.0); if exactly one is
    empty the overlap is 0.0.
    """
    regions = [*a_regions, *b_regions]
    n_cols = 1 + max((int(r[-1]) for r in regions if r.size), default=0)

    def incidence(group):
        sizes = np.array([r.size for r in group], dtype=np.int64)
        cols = np.concatenate([np.zeros(0, dtype=np.int64), *group])
        rows = sparse.csr_array((np.ones(cols.size, dtype=np.int64), cols,
                                 np.r_[0, np.cumsum(sizes)]),
                                shape=(len(group), n_cols))
        return rows, sizes

    a, na = incidence(a_regions)
    b, nb = incidence(b_regions)
    inter = (a @ b.T).toarray()
    total = na[:, None] + nb[None, :]
    out = np.ones(total.shape)
    np.divide(2.0 * inter, total, out=out, where=total > 0)
    return out


def region_mask(indices, dims, spacing) -> BinaryMask:
    """The mask of a region given as flat indices on the grid ``dims``."""
    data = np.zeros(dims, dtype=bool)
    data.flat[indices] = True
    return BinaryMask(data, spacing)


def dsi(a, b) -> float:
    """:func:`dsi_matrix` of two masks (BinaryMask or boolean arrays on
    the same grid)."""
    a, b = (m.data if isinstance(m, BinaryMask) else np.asarray(m, dtype=bool)
            for m in (a, b))
    if a.shape != b.shape:
        raise VolumeError(f"mask grids differ: {a.shape} vs {b.shape}")
    return float(dsi_matrix([np.flatnonzero(a)], [np.flatnonzero(b)])[0, 0])
