"""Multiscale morphological sifting with oriented line structuring elements.

The sifter isolates blob-like structure whose width lies between two
line lengths: for each orientation, a top-hat with the long line
removes everything wider, and an opening of that residue with the short
line removes everything narrower; summing over orientations and the
three orthogonal slice stacks gives the 3D response.

Border rule: samples outside the slice are ignored, i.e. the erosion
behaves as if padded with +inf and the dilation with -inf. This keeps
the opening anti-extensive and idempotent everywhere (edge replication
does not: with an oblique line element, clamping an offset at the
border can move it off the element, which breaks the adjunction and
lets the opening overshoot near corners) and it damps rather than
inflates top-hat responses at the volume border.

Evaluation: each line element is rasterised and split into maximal
collinear runs once per call, for erosion and for the reflected
dilation (the SE plan); ``ms3d`` builds one plan per view and reuses it
for every slice. The filters take the slice plane on the first two
axes and treat trailing axes as a stack, so ``ms3d`` sifts C-contiguous
blocks of consecutive slices (about 256 KB each) in one pass and
``ms2d`` is the single-slice case of the same path. Every voxel sees
the same min/max, subtraction and sum sequence as a slice-by-slice
evaluation (orientations in ascending order, views axial + sagittal +
coronal, all in float64), so the result is bit-equal to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume import BinaryMask, Volume3D, VolumeError


class SiftError(ValueError):
    """Contract violation in the sifting operators."""


# ---------------------------------------------------------------------------
# line structuring elements
# ---------------------------------------------------------------------------

def _sym_round(v: float) -> int:
    # round half away from zero, so the raster is symmetric under negation
    return int(math.copysign(math.floor(abs(v) + 0.5), v))


def rasterize_lse(magnitude: float, theta: float) -> np.ndarray:
    """Discrete line element: ceil(magnitude) points (forced odd),
    centred on the origin along direction ``theta``.

    Returns an (n_points, 2) int array of (dx, dy) offsets. The set is
    symmetric about the origin and invariant under theta -> theta + pi.
    """
    if not np.isfinite(magnitude) or magnitude < 1.0:
        raise SiftError(f"line magnitude must be >= 1, got {magnitude}")
    n_points = math.ceil(magnitude)
    if n_points % 2 == 0:
        n_points += 1
    half = n_points // 2
    t = math.fmod(theta, math.pi)
    if t < 0:
        t += math.pi
    c, s = math.cos(t), math.sin(t)
    offsets = np.empty((n_points, 2), dtype=np.int64)
    if abs(s) <= abs(c):
        slope = s / c
        for i, dx in enumerate(range(-half, half + 1)):
            offsets[i] = (dx, _sym_round(slope * dx))
    else:
        slope = c / s
        for i, dy in enumerate(range(-half, half + 1)):
            offsets[i] = (_sym_round(slope * dy), dy)
    return offsets


@dataclass(frozen=True, eq=False)
class LinearSE:
    """Line structuring element: physical magnitude in pixels plus its
    rasterisation."""

    magnitude: float
    theta: float

    @property
    def offsets(self) -> np.ndarray:
        return rasterize_lse(self.magnitude, self.theta)


# ---------------------------------------------------------------------------
# flat grayscale morphology
# ---------------------------------------------------------------------------

def _sliding_extreme(arr: np.ndarray, w: int, axis: int, op, sentinel: float) -> np.ndarray:
    """Windowed min/max (van Herk/Gil-Werman): out[i] = op over arr[i:i+w]."""
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    out_n = n - w + 1
    nblocks = -(-n // w)
    pad = nblocks * w - n
    if pad:
        a = np.concatenate([a, np.full((pad,) + a.shape[1:], sentinel)], axis=0)
    blocks = a.reshape(nblocks, w, *a.shape[1:])
    fwd = op.accumulate(blocks, axis=1).reshape(nblocks * w, *a.shape[1:])
    bwd = op.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].reshape(nblocks * w, *a.shape[1:])
    out = op(bwd[:out_n], fwd[w - 1:w - 1 + out_n])
    return np.moveaxis(out, 0, axis)


def _runs(offsets: np.ndarray, major: int):
    """Maximal runs of consecutive major-coordinates at fixed minor value.

    Yields (minor_value, major_start, major_stop_inclusive).
    """
    minor = 1 - major
    order = np.lexsort((offsets[:, major], offsets[:, minor]))
    pts = offsets[order]
    runs = []
    start = 0
    for i in range(1, len(pts) + 1):
        if (
            i == len(pts)
            or pts[i, minor] != pts[start, minor]
            or pts[i, major] != pts[i - 1, major] + 1
        ):
            runs.append((int(pts[start, minor]), int(pts[start, major]), int(pts[i - 1, major])))
            start = i
    return runs


_VH_MIN_WINDOW = 6  # below this a run is cheaper as direct shifted extremes


@dataclass(frozen=True)
class _LinePlan:
    """Run decomposition of one offset set: the padding it needs and
    its maximal collinear runs along the axis that has fewer of them."""

    kx: int
    ky: int
    along_x: bool
    runs: tuple[tuple[int, int, int], ...]


def _line_plan(offsets) -> _LinePlan:
    offs = np.asarray(offsets, dtype=np.int64)
    if offs.ndim != 2 or offs.shape[0] == 0 or offs.shape[1] != 2:
        raise SiftError("structuring element must be a non-empty (n, 2) offset set")
    runs_x = _runs(offs, major=0)
    runs_y = _runs(offs, major=1)
    along_x = len(runs_x) <= len(runs_y)
    return _LinePlan(
        kx=int(np.abs(offs[:, 0]).max()),
        ky=int(np.abs(offs[:, 1]).max()),
        along_x=along_x,
        runs=tuple(runs_x if along_x else runs_y),
    )


def _line_filter(f: np.ndarray, plan: _LinePlan, op, sentinel: float) -> np.ndarray:
    """Exact min/max over a point set of offsets, run-decomposed.

    The first two axes of ``f`` are the slice plane; any trailing axes
    index a stack of slices that are filtered independently.

    Equivalent to the direct per-offset evaluation: the offset set is
    split into maximal collinear runs; long runs are collapsed with a
    windowed extreme, short ones accumulate their offsets in place.
    Both regroup the same min/max terms, so the result is bit-equal to
    the naive evaluation.
    """
    nx, ny = f.shape[:2]
    kx, ky, along_x = plan.kx, plan.ky, plan.along_x
    padded = np.full((nx + 2 * kx, ny + 2 * ky) + f.shape[2:], sentinel, dtype=np.float64)
    padded[kx:kx + nx, ky:ky + ny] = f
    out = None

    def accumulate(contrib, out):
        if out is None:
            return contrib.astype(np.float64, copy=True)
        return op(out, contrib, out=out)

    for minor, a, b in plan.runs:
        w = b - a + 1
        if along_x:
            block = padded[kx + a:kx + b + nx, ky + minor:ky + minor + ny]
        else:
            block = padded[kx + minor:kx + minor + nx, ky + a:ky + b + ny]
        if w >= _VH_MIN_WINDOW:
            out = accumulate(_sliding_extreme(block, w, 0 if along_x else 1, op, sentinel), out)
        else:
            for step in range(w):
                if along_x:
                    view = padded[kx + a + step:kx + a + step + nx, ky + minor:ky + minor + ny]
                else:
                    view = padded[kx + minor:kx + minor + nx, ky + a + step:ky + a + step + ny]
                out = accumulate(view, out)
    return out


def _open_plan(se) -> tuple[_LinePlan, _LinePlan]:
    """Plans of an opening: erosion by the offsets, dilation by their
    reflection."""
    offs = np.asarray(se, dtype=np.int64)
    return _line_plan(offs), _line_plan(-offs)


def _open(f: np.ndarray, plan: tuple[_LinePlan, _LinePlan]) -> np.ndarray:
    erode, dilate = plan
    return _line_filter(_line_filter(f, erode, np.minimum, np.inf), dilate, np.maximum, -np.inf)


def _check_slice(f: np.ndarray) -> np.ndarray:
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 2:
        raise SiftError(f"expected a 2D slice, got shape {arr.shape}")
    return arr


def gray_erode(f: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Flat erosion of a 2D slice by a point-set structuring element."""
    return _line_filter(_check_slice(f), _line_plan(se), np.minimum, np.inf)


def gray_dilate(f: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Flat dilation (max over the reflected offsets)."""
    offs = -np.asarray(se, dtype=np.int64)
    return _line_filter(_check_slice(f), _line_plan(offs), np.maximum, -np.inf)


def gray_open(f: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Opening: erosion then dilation with the same element."""
    return _open(_check_slice(f), _open_plan(se))


# ---------------------------------------------------------------------------
# sifting
# ---------------------------------------------------------------------------

def _sift_plan(ml1: float, ml2: float, n_orient: int):
    """Opening plans of the (long, short) line pair for each
    orientation theta = n*pi/N, in ascending n."""
    if not (1.0 <= ml1 < ml2):
        raise SiftError(f"need 1 <= ml1 < ml2, got ({ml1}, {ml2})")
    if n_orient < 1:
        raise SiftError(f"need at least one orientation, got {n_orient}")
    plan = []
    for n in range(n_orient):
        theta = n * math.pi / n_orient
        plan.append((_open_plan(rasterize_lse(ml2, theta)),
                     _open_plan(rasterize_lse(ml1, theta))))
    return tuple(plan)


def _sift(f: np.ndarray, plan) -> np.ndarray:
    """Sifting response of ``f`` (slice plane on the first two axes,
    trailing axes a stack), accumulated in plan order."""
    out = np.zeros_like(f)
    for long_line, short_line in plan:
        tophat = f - _open(f, long_line)
        out += _open(tophat, short_line)
    return out


def ms2d(f: np.ndarray, ml1: float, ml2: float, n_orient: int = 10) -> np.ndarray:
    """2D sifting response between line magnitudes ``ml1`` and ``ml2``.

    Sum over n = 0..N-1, theta = n*pi/N, of the short-line opening of
    the long-line top-hat. Accumulation is in ascending n.
    """
    return _sift(_check_slice(f), _sift_plan(ml1, ml2, n_orient))


@dataclass(frozen=True)
class MagnitudePlan:
    """Per-view line magnitudes in pixels plus their mm originals."""

    axial: tuple[float, float]
    sagittal: tuple[float, float]
    coronal: tuple[float, float]
    ml1_mm: float
    ml2_mm: float


def lse_magnitudes(v_min: float, v_max: float, d: float, big_d: float, m_scales: int) -> MagnitudePlan:
    """Line magnitudes from the target lesion volume range [v_min, v_max].

    The mm magnitudes are the equivalent-sphere diameters, with the
    upper one divided by ``2**(m_scales-1)`` so the coarsest pyramid
    level reaches the largest target. Axial slices (isotropic in-plane
    spacing d) use both magnitudes over d; sagittal/coronal slices mix
    d and the slice spacing D, so the short line takes the conservative
    min over both while the long line keeps d.
    """
    if not (0 < v_min < v_max):
        raise SiftError(f"need 0 < v_min < v_max, got ({v_min}, {v_max})")
    if d <= 0 or big_d <= 0:
        raise SiftError("spacings must be positive")
    if m_scales < 1:
        raise SiftError(f"need at least one scale, got {m_scales}")
    ml1_mm = (6.0 * v_min / math.pi) ** (1.0 / 3.0)
    ml2_mm = (6.0 * v_max / math.pi) ** (1.0 / 3.0) / 2 ** (m_scales - 1)
    axial = (ml1_mm / d, ml2_mm / d)
    cross = (min(ml1_mm / d, ml1_mm / big_d), ml2_mm / d)
    for name, (lo, hi) in (("axial", axial), ("sagittal/coronal", cross)):
        if not (1.0 <= lo < hi):
            raise SiftError(f"{name} magnitudes ({lo:.3f}, {hi:.3f}) are infeasible")
    return MagnitudePlan(axial=axial, sagittal=cross, coronal=cross, ml1_mm=ml1_mm, ml2_mm=ml2_mm)


# voxels per block of slices (256 KB of float64): blocks of 1 MB and
# 4 MB measured slower on full-resolution volumes
_BLOCK_VOXELS = 32768


def _sift_stack(vol: np.ndarray, plan) -> np.ndarray:
    """Sifting response of every slice ``vol[:, :, k]``, filtered in
    C-contiguous blocks of consecutive slices."""
    nx, ny, nz = vol.shape
    step = max(1, _BLOCK_VOXELS // max(1, nx * ny))
    out = np.empty(vol.shape)
    for k in range(0, nz, step):
        out[:, :, k:k + step] = _sift(np.ascontiguousarray(vol[:, :, k:k + step]), plan)
    return out


def ms3d(volume: Volume3D, plan: MagnitudePlan, n_orient: int = 10) -> Volume3D:
    """3D sifting: per-slice 2D responses of the axial, sagittal and
    coronal stacks, summed in that order."""
    data = volume.data
    out = _sift_stack(data, _sift_plan(*plan.axial, n_orient))
    sag = np.transpose(data, (0, 2, 1))
    out += np.transpose(_sift_stack(sag, _sift_plan(*plan.sagittal, n_orient)), (0, 2, 1))
    cor = np.transpose(data, (2, 1, 0))
    out += np.transpose(_sift_stack(cor, _sift_plan(*plan.coronal, n_orient)), (2, 1, 0))
    return Volume3D(out, volume.spacing)


def normalize16(volume: Volume3D, mask: BinaryMask) -> Volume3D:
    """Affine map of the masked voxels onto [0, 65535] (min -> 0,
    max -> 65535); voxels outside the mask are set to 0. A constant
    masked region maps to all zeros."""
    if mask.dims != volume.dims:
        raise VolumeError("mask grid does not match volume")
    sel = mask.data
    if not sel.any():
        raise VolumeError("normalisation mask is empty")
    vals = volume.data[sel]
    lo = float(vals.min())
    hi = float(vals.max())
    out = np.zeros_like(volume.data)
    if hi > lo:
        out[sel] = (vals - lo) * (65535.0 / (hi - lo))
    return Volume3D(out, volume.spacing)
