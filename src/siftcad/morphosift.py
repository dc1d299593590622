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

Evaluation: a rasterised line is a union of translated *periodic lines*
(Jones & Soille 1996): runs p, p+v, ..., p+(w-1)v of one primitive step
v. For erosion and for the reflected dilation (one plan for a line,
which is its own reflection), the SE plan picks the step from a short
list (axis, diagonal and knight-like steps up to (3, 1)) that needs the
fewest table levels plus views; a sift plan is built once per magnitude
pair and orientation count, and ``ms3d`` reuses it for every slice. The
filter builds a power-of-two table over the padded slice, level j
holding the min (max) over 2**j points q, q+v, ... as in van Herk/
Gil-Werman, and reads each run of width w as one level-k view at p and,
when k < w, a second at p+(w-k)v, k the largest power of two <= w. The
two halves overlap, and min and max are idempotent, so the views'
extreme is exactly the run's: terms are regrouped, never approximated.
The filters take the slice plane on the first two axes and treat
trailing axes as a stack, so ``ms3d`` sifts C-contiguous blocks of
consecutive slices (about 256 KB each, in any working dtype) in one
pass and ``ms2d`` is the single-slice case of the same path; work arrays
are reused from block to block. ``ms3d`` copies a view's slices into
block-major order a group of blocks (up to 1 MB) at a time, so that
every block is a contiguous chunk of the copy, writes each block's
response over it and adds the group to the sum in one strided pass:
gathering and scattering the blocks one at a time misses the cache on
large grids, and copying the whole view at once holds a second grid.
Every voxel sees the same min/max set, subtraction and sum sequence as
a slice-by-slice evaluation (orientations in ascending order, views
axial + sagittal + coronal, added to zero in float64), so the result is
bit-equal to it.

Mask: ``ms3d(volume, plan, n_orient, mask)`` sifts each view only over
the range of its slices that holds a mask voxel. A view's response at a
voxel reads that voxel's slice alone, and every mask voxel lies in a
sifted slice of all three views, so the result equals the unmasked one
at every mask voxel; elsewhere it lacks the terms of the views that
skipped the voxel's slice. :func:`normalize16` reads the mask's voxels
only, so candidate generation passes the scale's breast mask.

Precision: ``ms3d`` and ``ms2d`` filter in the first dtype of the
ladder int16, float32, float64 in which every step is exact
(:func:`_work_dtype`). Both narrow rungs need every input value to be
an integer. Min and max only pick input values, a top-hat ``f -
open(f)`` lies in [0, max - min], and a view sums ``n_orient`` such
terms:

- int16 needs the values in [-32768, 32767], ``max - min <= 32767`` so
  that every top-hat fits, and ``n_orient * (max - min) < 2**31``; each
  view's top-hats are summed in int32. Erosion pads with 32767 and
  dilation with -32768 in place of +-inf. A line element holds its
  origin, so every output reads at least one sample of the slice and a
  sentinel never wins over it; a single filter whose element lacks the
  origin (``gray_erode`` and kin) skips this rung;
- float32 needs ``|v| <= 2**24`` and ``n_orient * (max - min) <=
  2**24``: it holds every integer up to 2**24 exactly.

Integer min, max, subtraction and sums are exact, so every value is the
integer float64 computes. Each float sum starts at +0.0 and an integer
converts to +0.0, so signed zeros never reach the output, and the
cross-view sum is float64 as before: the result is bit-equal to a
float64 evaluation, and the passes move a quarter (int16) or half
(float32) of the bytes. The subtraction volumes of the pipeline are
differences of unsigned short scans, held as int16 or int32 grids (see
:func:`siftcad.volume.subtract`), which are integral by type, so no
value is tested; the phantoms' span about -27..116 and a 12-bit clinical
subtraction fits as well, so their scale-1 sifting takes int16, and a
wider 16-bit range takes float32. The decimated scales are not
integer-valued and take float64.
"""

from __future__ import annotations

import functools
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


# ---------------------------------------------------------------------------
# flat grayscale morphology
# ---------------------------------------------------------------------------

# primitive steps of the periodic lines a plan may use, in tie-break order
_STEPS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2),
          (3, 1), (3, -1), (1, 3), (1, -3))


@dataclass(frozen=True)
class _LinePlan:
    """Periodic-line decomposition of one offset set.

    ``step`` is the primitive step v of the runs, ``levels`` the number
    of doublings of the extreme table (level j holds the extreme over
    2**j points q, q+v, ...), and each view ``(j, dx, dy)`` reads level
    j at offset (dx, dy); the union of the views' points is the offset
    set. ``kx``/``ky`` is the padding the offsets need.
    """

    kx: int
    ky: int
    step: tuple[int, int]
    levels: int
    views: tuple[tuple[int, int, int], ...]


def _periodic_views(points: set, v: tuple[int, int]) -> tuple[int, list]:
    """Split ``points`` into maximal runs p, p+v, ..., p+(w-1)v and cover
    each run by at most two overlapping power-of-two table views."""
    vx, vy = v
    levels = 0
    views = []
    for px, py in sorted(points):
        if (px - vx, py - vy) in points:
            continue  # not the first point of its run
        w = 1
        while (px + w * vx, py + w * vy) in points:
            w += 1
        j = w.bit_length() - 1
        levels = max(levels, j)
        views.append((j, px, py))
        if w > 1 << j:
            shift = w - (1 << j)
            views.append((j, px + shift * vx, py + shift * vy))
    return levels, views


def _line_plan(offsets) -> _LinePlan:
    """Decomposition with the fewest table levels plus views over
    ``_STEPS``; ties go to the earlier step."""
    offs = np.asarray(offsets, dtype=np.int64)
    if offs.ndim != 2 or offs.shape[0] == 0 or offs.shape[1] != 2:
        raise SiftError("structuring element must be a non-empty (n, 2) offset set")
    points = set(map(tuple, offs.tolist()))
    # min keeps the first of equal costs
    step, levels, views = min(((v, *_periodic_views(points, v)) for v in _STEPS),
                              key=lambda plan: plan[1] + len(plan[2]))
    return _LinePlan(
        kx=int(np.abs(offs[:, 0]).max()),
        ky=int(np.abs(offs[:, 1]).max()),
        step=step,
        levels=levels,
        views=tuple(views),
    )


class _Scratch:
    """Work arrays reused from call to call, one flat buffer of the
    call's working dtype (see :func:`_work_dtype`) per role. The C
    allocator hands block-sized arrays back to the system when they are
    freed, so allocating them afresh for every filter page-faults their
    memory back in, which costs more than the min/max passes over them.

    ``top`` and ``bottom`` pad the erosion and the dilation: +-inf in a
    float dtype, the dtype's extremes in int16. ``sum_dtype`` holds a
    view's sum of top-hats: int32 for int16, else the working dtype."""

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        if self.dtype.kind == "i":
            info = np.iinfo(self.dtype)
            self.top, self.bottom = int(info.max), int(info.min)
            self.sum_dtype = np.dtype(np.int32)
        else:
            self.top, self.bottom = np.inf, -np.inf
            self.sum_dtype = self.dtype
        self._flat = {}

    def take(self, role, shape) -> np.ndarray:
        """C-contiguous array of ``shape`` over the role's buffer; its
        previous contents are overwritten by the next ``take``."""
        n = math.prod(shape)
        flat = self._flat.get(role)
        if flat is None or flat.size < n:
            flat = self._flat[role] = np.empty(n, self.dtype)
        return flat[:n].reshape(shape)


def _line_filter(f: np.ndarray, plan: _LinePlan, op, sentinel,
                 scratch: _Scratch, role: str) -> np.ndarray:
    """Exact min/max over a point set of offsets, as periodic runs.

    The first two axes of ``f`` are the slice plane; any trailing axes
    index a stack of slices that are filtered independently. The result
    is a view of ``scratch``'s ``role`` buffer.

    The padded slice is read as one flat array, so that an offset (or a
    step of the run) is a shift of the flat index and every pass is a
    contiguous 1D min/max. Level j of the table holds ``op`` over the
    2**j points q, q+v, ... (level j+1 pairs two level-j entries 2**j
    steps apart), and each view reads one level at a run point, so the
    views' union is the offset set. The output rows are filtered at full
    padded width; a flat shift wraps to the next row only beyond ``ky``
    columns of padding, i.e. only in the padding columns, which are
    dropped. One extra padding row at each end keeps every flat shift
    inside the array. The min/max terms are regrouped, not changed, so
    the result is bit-equal to the naive evaluation.
    """
    nx, ny = f.shape[:2]
    kx, ky = plan.kx, plan.ky
    stack = f.shape[2:]
    col = math.prod(stack)           # flat length of one pixel's stack
    row = (ny + 2 * ky) * col        # flat length of one padded row
    padded = scratch.take("padded", (nx + 2 * kx + 2, ny + 2 * ky) + stack)
    x0, x1 = kx + 1, kx + 1 + nx
    padded[:x0] = sentinel
    padded[x1:] = sentinel
    padded[x0:x1, :ky] = sentinel
    padded[x0:x1, ky + ny:] = sentinel
    padded[x0:x1, ky:ky + ny] = f

    step = plan.step[0] * row + plan.step[1] * col
    tables = [padded.reshape(-1)]
    for j in range(plan.levels):
        t = tables[-1]
        shift = step << j
        level = scratch.take(("level", j), (t.size - shift,))
        op(t[:-shift], t[shift:], out=level)
        tables.append(level)

    n = nx * row
    views = []
    for j, dx, dy in plan.views:
        start = (x0 + dx) * row + dy * col
        views.append(tables[j][start:start + n])
    out = scratch.take(role, (n,))
    if len(views) == 1:
        out[...] = views[0]
    else:
        op(views[0], views[1], out=out)
        for view in views[2:]:
            op(out, view, out=out)
    return out.reshape((nx, ny + 2 * ky) + stack)[:, ky:ky + ny]


def _open_plan(se) -> tuple[_LinePlan, _LinePlan]:
    """Plans of an opening: erosion by the offsets, dilation by their
    reflection. A plan depends only on the offset set, so a symmetric
    element (every line element is) shares one plan between the two."""
    offs = np.asarray(se, dtype=np.int64)
    erode = _line_plan(offs)
    if set(map(tuple, offs.tolist())) == set(map(tuple, (-offs).tolist())):
        return erode, erode
    return erode, _line_plan(-offs)


def _open(f: np.ndarray, plan: tuple[_LinePlan, _LinePlan], scratch: _Scratch) -> np.ndarray:
    """Opening into ``scratch``'s "opened" buffer."""
    erode, dilate = plan
    eroded = _line_filter(f, erode, np.minimum, scratch.top, scratch, "eroded")
    return _line_filter(eroded, dilate, np.maximum, scratch.bottom, scratch, "opened")


# float32 holds every integer of at most this magnitude exactly
_F32_EXACT = 2 ** 24
_I16 = np.iinfo(np.int16)
# the integrality test reads about this many values at a time
_INTEGRAL_CHUNK = 2 ** 14


def _integral(data: np.ndarray) -> bool:
    """Whether every value of the non-empty ``data`` is an integer: true
    of an integer type, else tested over contiguous axis-0 chunks of
    about ``_INTEGRAL_CHUNK`` values: no full-grid temporary, and the
    first chunk holding a fraction ends the test."""
    if data.dtype.kind in "iu":
        return True
    step = max(1, _INTEGRAL_CHUNK // data[0].size)
    for a in range(0, len(data), step):
        chunk = data[a:a + step]
        if not np.array_equal(np.trunc(chunk), chunk):
            return False
    return True


def _work_dtype(data: np.ndarray, n_orient: int = 1, int16: bool = True) -> np.dtype:
    """The first of int16, float32 and float64 in which the line filters
    and a view's sum of ``n_orient`` top-hats are exact on ``data`` (see
    the module docstring). Both narrow rungs need every value to be an
    integer. int16 needs ``int16`` (no filter output is a sentinel), the
    values and ``max - min`` within int16 and ``n_orient * (max - min) <
    2**31``, the bound on the int32 sum; float32 needs ``|v| <= 2**24``
    and ``n_orient * (max - min) <= 2**24``. NaN and inf take float64."""
    if data.size:
        lo, hi = float(data.min()), float(data.max())
        # a NaN fails every comparison
        if -_F32_EXACT <= lo and hi <= _F32_EXACT and _integral(data):
            if int16 and _I16.min <= lo and hi <= _I16.max and hi - lo <= _I16.max \
                    and n_orient * (hi - lo) < 2 ** 31:
                return np.dtype(np.int16)
            if n_orient * (hi - lo) <= _F32_EXACT:
                return np.dtype(np.float32)
    return np.dtype(np.float64)


def _on_slice(f: np.ndarray, filt, n_orient: int = 1, int16: bool = True) -> np.ndarray:
    """``filt(slice, scratch)`` on a 2D slice in its working dtype,
    returned as float64."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 2:
        raise SiftError(f"expected a 2D slice, got shape {arr.shape}")
    scratch = _Scratch(_work_dtype(arr, n_orient, int16))
    return filt(arr.astype(scratch.dtype, copy=False), scratch).astype(np.float64, copy=False)


def _holds_origin(se) -> bool:
    """Whether every filter output by ``se`` (or its reflection) reads a
    sample of the slice, which int16 filtering needs."""
    return bool((np.asarray(se) == 0).all(axis=-1).any())


def gray_erode(f: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Flat erosion of a 2D slice by a point-set structuring element."""
    plan = _line_plan(se)
    return _on_slice(f, lambda a, s: _line_filter(a, plan, np.minimum, s.top, s, "out"),
                     int16=_holds_origin(se))


def gray_dilate(f: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Flat dilation (max over the reflected offsets)."""
    plan = _line_plan(-np.asarray(se, dtype=np.int64))
    return _on_slice(f, lambda a, s: _line_filter(a, plan, np.maximum, s.bottom, s, "out"),
                     int16=_holds_origin(se))


def gray_open(f: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Opening: erosion then dilation with the same element."""
    plan = _open_plan(se)
    return _on_slice(f, lambda a, s: _open(a, plan, s), int16=_holds_origin(se))


# ---------------------------------------------------------------------------
# sifting
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _sift_plan(ml1: float, ml2: float, n_orient: int):
    """Opening plans of the (long, short) line pair for each
    orientation theta = n*pi/N, in ascending n. Plans are immutable and
    a run sifts with a few magnitude pairs only, so they are built once
    per pair."""
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


def _sift(f: np.ndarray, plan, scratch: _Scratch, out: np.ndarray) -> np.ndarray:
    """Add the sifting response of ``f`` (slice plane on the first two
    axes, trailing axes a stack) to ``out`` in plan order; ``out`` starts
    at zero."""
    tophat = scratch.take("tophat", f.shape)
    for long_line, short_line in plan:
        np.subtract(f, _open(f, long_line, scratch), out=tophat)
        out += _open(tophat, short_line, scratch)
    return out


def ms2d(f: np.ndarray, ml1: float, ml2: float, n_orient: int = 10) -> np.ndarray:
    """2D sifting response between line magnitudes ``ml1`` and ``ml2``.

    Sum over n = 0..N-1, theta = n*pi/N, of the short-line opening of
    the long-line top-hat. Accumulation is in ascending n.
    """
    plan = _sift_plan(ml1, ml2, n_orient)
    return _on_slice(f, lambda a, s: _sift(a, plan, s, np.zeros(a.shape, s.sum_dtype)), n_orient)


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


# bytes per block of slices: 32768 float64, 65536 float32 or 131072
# int16 voxels. On a 160x160x80 volume, float64 blocks of 512 KB and
# float32 blocks of 128 KB and 512 KB measured slower (and float64 blocks
# of 1 MB and 4 MB before them); so did int16 blocks of 64, 128, 512 KB
# and 1 MB (scale-1 ms3d of the seed-1 sift_fullres case, best of 5, one
# thread on an Intel Xeon: 0.42, 0.31, 0.31 and 0.44 s against 0.29 s)
_BLOCK_BYTES = 262144
# bytes per group of blocks in the sum dtype, copied and added to the
# output at once. Groups of 256 KB, 512 KB, 1 MB, 2 MB, 4 MB and the
# whole view took 0.231, 0.228, 0.227, 0.225, 0.224 and 0.223 s and rose
# 20.2, 20.2, 20.7, 21.7, 23.8 and 26.6 MB above entry (same case and
# thread, median of 15 interleaved runs; 16.4 MB of each rise is the
# float64 response)
_GROUP_BYTES = 1 << 20


def _sift_stack(vol: np.ndarray, plan, out: np.ndarray, scratch: _Scratch) -> None:
    """Add the sifting response of every slice ``vol[:, :, k]`` to
    ``out``, an array or view of ``vol``'s shape.

    The slices are taken in groups of blocks of at most ``_GROUP_BYTES``
    in ``scratch``'s sum dtype (at least one block), and a group is
    copied once, block-major and in the sum dtype: each block of
    consecutive slices is a C-contiguous (nx, ny, slices) stack, and a
    shorter block takes any remainder, in a group of its own. Each block
    is sifted from a working-dtype copy, its response written over it,
    and the group is added to ``out`` in one pass, so neither the copy
    nor the sum reads or writes ``out`` block by block."""
    nx, ny, nz = vol.shape
    plane = max(1, nx * ny)
    step = max(1, _BLOCK_BYTES // scratch.dtype.itemsize // plane)
    group = step * max(1, _GROUP_BYTES // (scratch.sum_dtype.itemsize * step * plane))
    full = nz - nz % step
    groups = [(k0, min(k0 + group, full), step) for k0 in range(0, full, group)]
    if full < nz:
        groups.append((full, nz, nz - full))
    buf = np.empty(nx * ny * min(group, nz), scratch.sum_dtype)
    for k0, k1, size in groups:
        blocks = buf[:nx * ny * (k1 - k0)].reshape(-1, nx, ny, size)
        # splitting the slice axis is a view of any strided array; the
        # cast is astype's, exact since _work_dtype admitted the values
        np.copyto(blocks, np.moveaxis(vol[:, :, k0:k1].reshape(nx, ny, -1, size), 2, 0),
                  casting="unsafe")
        for block in blocks:
            slices = scratch.take("slices", block.shape)
            slices[...] = block
            block[...] = 0
            _sift(slices, plan, scratch, block)
        target = out[:, :, k0:k1].reshape(nx, ny, -1, size)
        target += np.moveaxis(blocks, 0, 2)


def _mask_span(hit: np.ndarray) -> slice:
    """The range from the first to the last true entry; empty if none."""
    ix = np.flatnonzero(hit)
    return slice(ix[0], ix[-1] + 1) if ix.size else slice(0, 0)


def ms3d(volume: Volume3D, plan: MagnitudePlan, n_orient: int = 10,
         mask: BinaryMask | None = None) -> Volume3D:
    """3D sifting: per-slice 2D responses of the axial, sagittal and
    coronal stacks, added to zero in that order (in float64; each view
    is sifted in the volume's working dtype, see :func:`_work_dtype`).

    With a ``mask``, each view sifts only the range of its slices that
    holds a mask voxel: a voxel outside that range gets no term from
    that view. Every mask voxel lies in a sifted slice of all three
    views, and a slice's response reads that slice alone, so the result
    equals the unmasked one at every mask voxel. An empty mask sifts
    nothing and gives zeros."""
    data = volume.data
    if mask is None:
        spans = [slice(None)] * 3
    else:
        if mask.dims != volume.dims:
            raise VolumeError("mask grid does not match volume")
        spans = [_mask_span(mask.data.any(axis=tuple(b for b in range(3) if b != a)))
                 for a in range(3)]
    out = np.zeros(data.shape)
    scratch = _Scratch(_work_dtype(data, n_orient))
    for view, magnitudes in (((0, 1, 2), plan.axial), ((0, 2, 1), plan.sagittal),
                             ((2, 1, 0), plan.coronal)):
        # the view's slices stack along its last axis, volume axis view[2]
        reached = (slice(None), slice(None), spans[view[2]])
        _sift_stack(np.transpose(data, view)[reached], _sift_plan(*magnitudes, n_orient),
                    np.transpose(out, view)[reached], scratch)
    return Volume3D(out, volume.spacing)


def normalize16(volume: Volume3D, mask: BinaryMask) -> Volume3D:
    """Affine map of the masked voxels onto [0, 65535] (min -> 0,
    max -> 65535); voxels outside the mask are set to 0. A constant
    masked region maps to all zeros.

    The map is written over ``volume``'s own buffer, which the returned
    volume shares: the caller hands over a response it no longer reads
    (every caller passes a fresh :func:`ms3d` result)."""
    if mask.dims != volume.dims:
        raise VolumeError("mask grid does not match volume")
    sel = mask.data
    if not sel.any():
        raise VolumeError("normalisation mask is empty")
    data = volume.data
    vals = data[sel]
    lo = float(vals.min())
    hi = float(vals.max())
    data.fill(0.0)
    if hi > lo:
        vals -= lo
        vals *= 65535.0 / (hi - lo)
        data[sel] = vals
    return volume
