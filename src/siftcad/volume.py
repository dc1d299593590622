"""Core volume/mask types and breast preprocessing operations.

Conventions used throughout the package:

* a volume is a 3D ``float64`` array indexed ``[x, y, z]`` with voxel
  spacing ``(d, d, D)`` in millimetres (axial in-plane spacing is equal
  in x and y for case-level volumes),
* the physical coordinate of voxel ``i`` along an axis is
  ``i * spacing`` (voxel centres on a regular grid anchored at 0),
* binary masks share the grid of the volume they refer to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage, sparse


class VolumeError(ValueError):
    """Contract violation on a volume, mask or case."""


def _as_float_volume(data: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=np.float64)
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
    """Scalar volume with per-axis voxel spacing in mm."""

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "data", _as_float_volume(self.data))
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


@dataclass(eq=False)
class BreastCase:
    """One breast: anatomical sequences, DCE series and masks.

    ``dce[0]`` is the pre-contrast frame; ``acquisition_times`` are
    seconds from contrast injection, one per DCE frame, strictly
    increasing.
    """

    case_id: str
    side: str
    t1: Volume3D
    t2: Volume3D
    dce: list[Volume3D]
    acquisition_times: list[float]
    breast_mask: BinaryMask
    fat_mask: BinaryMask
    ground_truth: list[BinaryMask] = field(default_factory=list)

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise VolumeError(f"side must be 'left' or 'right', got {self.side!r}")
        if len(self.dce) < 2:
            raise VolumeError("need at least a pre-contrast and one post-contrast DCE frame")
        if len(self.acquisition_times) != len(self.dce):
            raise VolumeError("one acquisition time per DCE frame required")
        times = np.asarray(self.acquisition_times, dtype=float)
        if not np.all(np.diff(times) > 0):
            raise VolumeError("acquisition times must be strictly increasing")
        ref = self.t1
        d, dy, _ = ref.spacing
        if abs(d - dy) > 1e-9:
            raise VolumeError("axial in-plane spacing must be equal in x and y")
        vols = [self.t2, *self.dce]
        masks = [self.breast_mask, self.fat_mask, *self.ground_truth]
        for v in vols:
            if v.dims != ref.dims or not np.allclose(v.spacing, ref.spacing):
                raise VolumeError("all sequences must share dims and spacing")
        for m in masks:
            if m.dims != ref.dims:
                raise VolumeError("all masks must share the case grid")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.t1.dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.t1.spacing


# ---------------------------------------------------------------------------
# histograms and single Otsu thresholding
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


def intensity_histogram(values: np.ndarray, n_bins: int = N_HISTOGRAM_BINS):
    """Uniform histogram over [min, max] of ``values``.

    Returns ``(counts, HistogramSpec)``. Values equal to the max land in
    the last bin.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise VolumeError("cannot histogram an empty value set")
    lo = float(vals.min())
    hi = float(vals.max())
    if hi <= lo:
        raise VolumeError("constant values have no histogram spread")
    idx = np.floor((vals - lo) / (hi - lo) * n_bins).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
    return counts, HistogramSpec(lo, hi, n_bins)


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


def otsu_scan_index(hist: np.ndarray) -> int:
    """Exhaustive single-threshold Otsu scan on a histogram.

    Maximises the between-class criterion ``s0^2/w0 + s1^2/w1`` over the
    split bin ``t`` (lower class = bins ``<= t``). First maximum wins.
    """
    cw, cs = otsu_cumulative_tables(hist)
    n = len(hist)
    ts = np.arange(n - 1)
    crit = class_variance_term(cw, cs, 0, ts) + class_variance_term(cw, cs, ts + 1, n - 1)
    return int(np.argmax(crit))


def otsu_threshold(volume: Volume3D, mask: BinaryMask | None = None) -> float:
    """Single Otsu threshold of a volume, optionally within a mask.

    Uses a 256-bin histogram spanning [min, max] of the considered
    voxels; returns the scalar threshold (upper edge of the winning
    bin) such that ``value >= threshold`` selects the upper class.
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
    return spec.upper_edge(otsu_scan_index(hist))


# ---------------------------------------------------------------------------
# preprocessing operations
# ---------------------------------------------------------------------------

def subtract(a: Volume3D, b: Volume3D) -> Volume3D:
    """Voxelwise ``a - b``; dims and spacing must match."""
    if a.dims != b.dims:
        raise VolumeError(f"dims mismatch {a.dims} vs {b.dims}")
    if not np.allclose(a.spacing, b.spacing):
        raise VolumeError(f"spacing mismatch {a.spacing} vs {b.spacing}")
    return Volume3D(a.data - b.data, a.spacing)


def permute(volume: Volume3D, order: tuple[int, int, int]) -> Volume3D:
    """Axis permutation; ``order`` is 1-indexed, e.g. (1, 3, 2) swaps y/z."""
    if sorted(order) != [1, 2, 3]:
        raise VolumeError(f"order must be a permutation of (1, 2, 3), got {order}")
    axes = tuple(o - 1 for o in order)
    data = np.ascontiguousarray(np.transpose(volume.data, axes))
    spacing = tuple(volume.spacing[a] for a in axes)
    return Volume3D(data, spacing)


def breast_mask(t1: Volume3D) -> BinaryMask:
    """Foreground mask from the T1 volume.

    Otsu threshold over the whole volume, keep the largest 26-connected
    component, then fill holes slice-wise (axial planes).
    """
    th = otsu_threshold(t1)
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


def split_breasts(mask: BinaryMask) -> tuple[BinaryMask, BinaryMask]:
    """Split a bilateral mask into (left, right) at the x mid-plane.

    The mid-plane is the centre of the mask's bounding box along x;
    voxels strictly below it go left, the rest right. The two parts
    partition the input mask.
    """
    xs = np.flatnonzero(mask.data.any(axis=(1, 2)))
    if xs.size == 0:
        raise VolumeError("cannot split an empty mask")
    mid = (xs[0] + xs[-1] + 1) / 2.0
    x = np.arange(mask.dims[0])[:, None, None]
    left = mask.data & (x < mid)
    right = mask.data & (x >= mid)
    return BinaryMask(left, mask.spacing), BinaryMask(right, mask.spacing)


def fat_mask(t1: Volume3D, breast: BinaryMask) -> BinaryMask:
    """Fat compartment inside the breast.

    On non-fat-suppressed T1 the fat is the bright class; Otsu within
    the breast mask and keep voxels at or above the threshold.
    """
    if breast.dims != t1.dims:
        raise VolumeError("breast mask grid does not match T1")
    if breast.count == 0:
        raise VolumeError("breast mask is empty")
    th = otsu_threshold(t1, breast)
    return BinaryMask(breast.data & (t1.data >= th), t1.spacing)


def normalize_to_fat(volume: Volume3D, fat: BinaryMask) -> Volume3D:
    """Divide a volume by the mean intensity over the fat mask."""
    if fat.dims != volume.dims:
        raise VolumeError("fat mask grid does not match volume")
    if fat.count == 0:
        raise VolumeError("fat mask is empty")
    mean = float(volume.data[fat.data].mean())
    if mean <= 0:
        raise VolumeError(f"fat mean must be positive, got {mean}")
    return Volume3D(volume.data / mean, volume.spacing)


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


def _regions(masks) -> list[np.ndarray]:
    """Sorted flat voxel indices of each mask (BinaryMask or boolean
    array); the masks must share one grid."""
    data = [m.data if isinstance(m, BinaryMask) else np.asarray(m, dtype=bool)
            for m in masks]
    for d in data[1:]:
        if d.shape != data[0].shape:
            raise VolumeError(f"mask grids differ: {data[0].shape} vs {d.shape}")
    return [np.flatnonzero(d) for d in data]


def dsi(a, b) -> float:
    """:func:`dsi_matrix` of two masks (BinaryMask or boolean arrays on
    the same grid)."""
    ra, rb = _regions([a, b])
    return float(dsi_matrix([ra], [rb])[0, 0])
