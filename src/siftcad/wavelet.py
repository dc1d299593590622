"""Separable 3D Daubechies-4 wavelet transforms and the scale ladder.

The pyramid used for multiscale candidate generation keeps the
low-pass (LLL) subband per level; each level halves the dims (plus one
sample of filter overhang) and doubles the voxel spacing. Conventions,
fixed and relied on elsewhere:

* boundary handling is symmetric half-sample extension,
* axes with odd length are padded by one replicated sample before
  filtering; the original lengths are recorded so reconstruction crops
  back exactly,
* neither the padding nor the extension is copied: analysis reads the
  input in place, mirroring the one sample per tap that lies past an
  end, so decimating a level holds the input, its output and
  temporaries of a bounded block (a mask is decimated from its
  boolean array),
* analysis runs along axes x, y, z; synthesis reverses the order,
* a constant volume maps to an LLL of gain ``(sqrt 2)^3 = 2*sqrt(2)``.

Filter bank (orthogonal, 4 taps): the synthesis low-pass is
``(1+s3, 3+s3, 3-s3, 1-s3) / (4*sqrt 2)`` with ``s3 = sqrt 3``; the
analysis filters are the time-reversed synthesis filters and the
high-pass is the alternating-sign mirror.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .volume import BinaryMask, Volume3D, VolumeError

_S3 = np.sqrt(3.0)
REC_LO = np.array([1 + _S3, 3 + _S3, 3 - _S3, 1 - _S3]) / (4 * np.sqrt(2.0))
REC_HI = np.array([REC_LO[3], -REC_LO[2], REC_LO[1], -REC_LO[0]])
DEC_LO = REC_LO[::-1].copy()
DEC_HI = REC_HI[::-1].copy()
_L = 4                      # filter length
_SYN_CROP = _L - 2          # samples dropped from the head of the synthesis

LLL_GAIN = float(2.0 * np.sqrt(2.0))


# output samples per block of _analysis_axis: bounds its temporaries
_BLOCK = 1 << 15


def _analysis_axis(x: np.ndarray, axis: int, filt: np.ndarray) -> np.ndarray:
    """Extend, convolve and downsample along one axis, with no padded copy.

    The axis is read as if an odd length were first padded by its last
    sample to even length N, then extended symmetrically by half a
    sample. Output sample k sums tap i times extended sample
    ``2k - 2 + i``, taps in order from a zero start: tap i reads every
    other sample from ``i % 2`` on, and only output 0 (taps 0, 1) and
    output N/2 (taps 2, 3) reach past an end, where the extension reads
    a mirrored sample (-2 -> 1, -1 -> 0, N -> N - 1, N + 1 -> N - 2).
    The products are formed a block along another axis at a time.
    Boolean input is read as 0.0 and 1.0."""
    n = x.shape[axis]
    even = n + n % 2
    shape = list(x.shape)
    shape[axis] = even // 2 + 1
    out = np.zeros(shape)
    # the filtered axis first, on views: the output stays C-ordered
    xv, ov = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    edges = [min(e, n - 1) for e in (1, 0, even - 1, even - 2)]
    rows = max(1, _BLOCK * xv.shape[1] // out.size)
    for b in range(0, xv.shape[1], rows):
        xb, ob = xv[:, b:b + rows], ov[:, b:b + rows]
        for i in range(_L):
            f = filt[_L - 1 - i]
            run, edge = (ob[1:], ob[0]) if i < 2 else (ob[:-1], ob[-1])
            src = xb[i % 2::2]
            if len(src) < len(run):  # odd length: the padded sample
                run[-1] += f * xb[n - 1]
                run = run[:-1]
            run += f * src
            edge += f * xb[edges[i]]
    return out


def _synthesis_axis(lo, hi, n_out: int, axis: int) -> np.ndarray:
    """Upsample, convolve with the synthesis pair, crop to ``n_out``."""
    a = np.moveaxis(lo, axis, -1)
    m = a.shape[-1]
    rec = np.zeros(a.shape[:-1] + (2 * m + _L - 2,), dtype=np.float64)
    for i in range(_L):
        rec[..., i:i + 2 * m:2] += REC_LO[i] * a
    if hi is not None:
        d = np.moveaxis(hi, axis, -1)
        for i in range(_L):
            rec[..., i:i + 2 * m:2] += REC_HI[i] * d
    out = rec[..., _SYN_CROP:_SYN_CROP + n_out]
    return np.moveaxis(out, -1, axis)


def subband_length(n: int) -> int:
    """Per-axis subband length for an axis of ``n`` samples."""
    return (n + n % 2) // 2 + 1


def dims_ladder(original_dims, m_levels: int) -> list[tuple[int, int, int]]:
    """Dims at each pyramid level 1..m (level 1 = original)."""
    if m_levels < 1:
        raise VolumeError(f"scale index must be >= 1, got {m_levels}")
    ladder = [tuple(int(n) for n in original_dims)]
    for _ in range(m_levels - 1):
        ladder.append(tuple(subband_length(n) for n in ladder[-1]))
    return ladder


@dataclass(frozen=True, eq=False)
class Subbands3:
    """Single-level 3D decomposition: 8 subbands keyed 'LLL'..'HHH'.

    Key characters follow axis order x, y, z. ``original_dims`` is the
    pre-pad input shape so the inverse can crop exactly.
    """

    bands: dict[str, np.ndarray]
    original_dims: tuple[int, int, int]
    spacing: tuple[float, float, float]


def dwt3_db2(volume: Volume3D) -> Subbands3:
    """One level of the separable 3D transform."""
    bands = {"": volume.data}
    for axis in range(3):
        nxt = {}
        for key, arr in bands.items():
            nxt[key + "L"] = _analysis_axis(arr, axis, DEC_LO)
            nxt[key + "H"] = _analysis_axis(arr, axis, DEC_HI)
        bands = nxt
    return Subbands3(bands, volume.dims, volume.spacing)


def idwt3_db2(subbands: Subbands3) -> Volume3D:
    """Inverse of :func:`dwt3_db2`, cropped to the recorded dims."""
    bands = dict(subbands.bands)
    dims = subbands.original_dims
    for axis in (2, 1, 0):
        padded = dims[axis] + dims[axis] % 2
        nxt = {}
        for key in {k[:-1] for k in bands}:
            nxt[key] = _synthesis_axis(bands[key + "L"], bands[key + "H"], padded, axis)
        bands = nxt
        if dims[axis] % 2:
            for key, arr in bands.items():
                bands[key] = arr.take(range(dims[axis]), axis=axis)
    return Volume3D(bands[""], subbands.spacing)


# ---------------------------------------------------------------------------
# scale ladder
# ---------------------------------------------------------------------------

def _lll_once(data: np.ndarray) -> np.ndarray:
    for axis in range(3):
        data = _analysis_axis(data, axis, DEC_LO)
    return data


def _lll_inverse_once(data: np.ndarray, target_dims) -> np.ndarray:
    """Low-pass-only synthesis of one level onto ``target_dims``."""
    for axis in (2, 1, 0):
        n = target_dims[axis]
        padded = n + n % 2
        expect = padded // 2 + 1
        if data.shape[axis] != expect:
            raise VolumeError(
                f"subband length {data.shape[axis]} on axis {axis} does not "
                f"match target dims {tuple(target_dims)}"
            )
        data = _synthesis_axis(data, None, padded, axis)
        if n % 2:
            data = data.take(range(n), axis=axis)
    return data


def scale_ladder(volume: Volume3D, m_levels: int) -> Iterator[Volume3D]:
    """Scales 1..``m_levels`` of the LLL pyramid, each decimated from the
    one before; scale 1 is ``volume`` itself. Scale m carries an
    intensity gain of ``(2*sqrt 2)**(m-1)`` on top of the doubled
    spacing per level."""
    if m_levels < 1:
        raise VolumeError(f"scale index must be >= 1, got {m_levels}")
    level = volume
    yield level
    for m in range(2, m_levels + 1):
        level = Volume3D(_lll_once(level.data), tuple(s * 2 ** (m - 1) for s in volume.spacing))
        yield level


def upscale_mask(mask: BinaryMask, m: int, original_dims, spacing) -> BinaryMask:
    """Bring a scale-m mask back to the original grid.

    The mask is treated as an LLL subband with zero detail bands,
    reconstructed through m-1 inverse levels, renormalised for the
    per-level low-pass gain and thresholded at 0.5. A full mask maps to
    a full mask; m = 1 is the identity.
    """
    ladder = dims_ladder(original_dims, m)
    if mask.dims != ladder[m - 1]:
        raise VolumeError(
            f"mask dims {mask.dims} do not match level-{m} dims {ladder[m - 1]}"
        )
    if m == 1:
        return BinaryMask(mask.data.copy(), spacing)
    data = mask.data.astype(np.float64)
    for level in range(m - 1, 0, -1):
        data = _lll_inverse_once(data, ladder[level - 1])
    data *= LLL_GAIN ** (m - 1)
    return BinaryMask(data >= 0.5, spacing)


def upscale_indices(flat_idx: np.ndarray, dims, m: int, original_dims) -> np.ndarray:
    """Sorted original-grid flat indices of :func:`upscale_mask` of the
    scale-m mask with these (non-empty, sorted) flat indices on ``dims``,
    synthesised on the mask's bounding box alone.

    Each inverse level runs on the box padded by one zero sample per
    side, which holds every sample its output reaches, and its output is
    clipped to the level's grid. Every term the whole-grid synthesis adds
    beyond the box is a product with a zero sample, a ``±0.0`` addition
    that changes no non-zero sum, so the thresholded mask is the same.
    """
    ladder = dims_ladder(original_dims, m)
    if tuple(dims) != ladder[m - 1]:
        raise VolumeError(f"mask dims {tuple(dims)} do not match level-{m} dims {ladder[m - 1]}")
    coords = np.unravel_index(flat_idx, dims)
    origin = [int(c.min()) for c in coords]
    data = np.zeros([int(c.max()) - o + 1 for c, o in zip(coords, origin)])
    data[tuple(c - o for c, o in zip(coords, origin))] = 1.0
    for level in range(m - 1, 0, -1):
        target = ladder[level - 1]
        for axis in (2, 1, 0):
            pad = [(0, 0)] * 3
            pad[axis] = (1, 1)
            data = np.pad(data, pad)
            # output sample j of the padded box is sample j + start of the level
            start = 2 * (origin[axis] - 1)
            data = _synthesis_axis(data, None, 2 * data.shape[axis], axis)
            keep = [slice(None)] * 3
            keep[axis] = slice(max(0, -start), target[axis] - start)
            data = data[tuple(keep)]
            origin[axis] = max(0, start)
    data *= LLL_GAIN ** (m - 1)
    local = np.nonzero(data >= 0.5)
    return np.ravel_multi_index(tuple(c + o for c, o in zip(local, origin)),
                                tuple(original_dims))


def mask_ladder(mask: BinaryMask, m_levels: int) -> Iterator[BinaryMask]:
    """A full-resolution mask on scales 1..``m_levels`` (dual of
    :func:`upscale_mask`): one LLL chain of the mask, each level
    renormalised and thresholded at 0.5; scale 1 is ``mask`` itself."""
    if m_levels < 1:
        raise VolumeError(f"scale index must be >= 1, got {m_levels}")
    yield mask
    data = mask.data
    for m in range(2, m_levels + 1):
        data = _lll_once(data)
        spacing = tuple(s * 2 ** (m - 1) for s in mask.spacing)
        yield BinaryMask(data / LLL_GAIN ** (m - 1) >= 0.5, spacing)
