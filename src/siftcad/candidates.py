"""Region-candidate generation from the sifted subtraction volume.

Per pyramid scale the sifted response is normalised to 16 bit inside
the (downscaled) breast mask, split by a multilevel Otsu threshold
bank (:func:`siftcad.volume.multilevel_otsu`), and each threshold's 26-connected components are sieved by the
physical volume window of that scale. The sieve labels each threshold
on the bounding box of its foreground and builds voxel lists only for
the components inside the window; the large breast-wide components of
the low thresholds are counted and dropped. One threshold's labels are
alive at a time, as int32 (intp for a box of 2**31 - 2 voxels or more),
and are counted and read a bounded chunk of voxels at a time, so the
labels are never cast to intp whole: the sieve holds about 5 bytes per
box voxel, the foreground and its labels. Candidates are stored
sparsely (sorted flat voxel indices on their scale grid) and can be
brought back to the original grid through the wavelet ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .morphosift import lse_magnitudes, ms3d, normalize16
from .volume import BreastCase, Volume3D, VolumeError, multilevel_otsu, subtract
from .wavelet import mask_ladder, scale_ladder, upscale_indices

DEFAULT_MIN_DIAMETER_MM = 4.0
DEFAULT_MAX_DIAMETER_MM = 63.0


def diameter_to_volume(diameter_mm: float) -> float:
    """Equivalent-sphere volume of a diameter, mm^3."""
    return math.pi / 6.0 * diameter_mm ** 3


DEFAULT_V_MIN = diameter_to_volume(DEFAULT_MIN_DIAMETER_MM)
DEFAULT_V_MAX = diameter_to_volume(DEFAULT_MAX_DIAMETER_MM)


# ---------------------------------------------------------------------------
# connected components and candidates
# ---------------------------------------------------------------------------

_CONNECTIVITY_26 = np.ones((3, 3, 3), dtype=bool)


# flat labels are counted and looked up this many voxels at a time:
# bincount and fancy indexing copy an int32 index array to intp, and a
# chunk bounds that copy at 512 KiB where the whole box would copy twice
# its labels
_SIEVE_CHUNK = 1 << 16


def _sieve_components(data: np.ndarray, thresholds, lo: float, hi: float,
                      voxvol: float) -> list[list[np.ndarray]]:
    """Per threshold th, the 26-connected components of ``data >= th``
    whose physical volume (voxel count times ``voxvol``) lies in
    [lo, hi]: sorted flat-index arrays on the grid of ``data``, in raster
    order of their first voxels.

    Each threshold's foreground is labelled on its bounding box only,
    read off the per-plane maxima of ``data`` along each axis, and index
    lists are built for the components the window keeps only.
    """
    # peak[a][i]: max of the i-th plane across axis a
    peaks = [data.max(axis=tuple(b for b in range(3) if b != a)) for a in range(3)]
    out: list[list[np.ndarray]] = []
    for th in thresholds:
        spans = [np.flatnonzero(p >= th) for p in peaks]
        if spans[0].size == 0:
            out.append([])
            continue
        box = tuple(slice(ix[0], ix[-1] + 1) for ix in spans)
        out.append(_sieve_box(data, box, th, lo, hi, voxvol))
    return out


def _sieve_box(data: np.ndarray, box: tuple[slice, ...], th, lo: float, hi: float,
               voxvol: float) -> list[np.ndarray]:
    """One threshold of :func:`_sieve_components` on its bounding box.

    Its own function so that the box's labels are freed before the next
    threshold labels its box: one label grid is alive at a time.
    """
    # scipy labels into int32, or intp for a box of 2**31 - 2 voxels or
    # more; the boolean foreground is freed once labelled
    labels, n = ndimage.label(data[box] >= th, structure=_CONNECTIVITY_26)
    flat = labels.ravel()
    chunks = range(0, flat.size, _SIEVE_CHUNK)
    counts = np.zeros(n + 1, dtype=np.intp)
    for i in chunks:
        counts += np.bincount(flat[i:i + _SIEVE_CHUNK], minlength=n + 1)
    size = counts * voxvol
    keep = (lo <= size) & (size <= hi)
    keep[0] = False
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        return []
    # raster order within the box
    idx = np.concatenate([np.flatnonzero(keep[flat[i:i + _SIEVE_CHUNK]]) + i
                          for i in chunks])
    idx = idx[np.argsort(flat[idx], kind="stable")]
    coords = np.unravel_index(idx, labels.shape)
    idx = np.ravel_multi_index(tuple(c + b.start for c, b in zip(coords, box)),
                               data.shape)
    pieces = np.split(idx, np.cumsum(counts[kept[:-1]]))
    pieces.sort(key=lambda ix: ix[0])
    return pieces


@dataclass(eq=False)
class RegionCandidate:
    """One candidate region on its scale grid.

    ``flat_indices`` are sorted C-order indices into ``dims``;
    ``physical_volume_mm3`` is measured in original millimetres (voxel
    count times the scale-m voxel volume).
    """

    scale_index: int
    threshold_index: int
    flat_indices: np.ndarray
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    original_dims: tuple[int, int, int]
    original_spacing: tuple[float, float, float]
    physical_volume_mm3: float
    centroid_mm: tuple[float, float, float]
    _original_indices: np.ndarray | None = field(default=None, repr=False)

    @property
    def voxel_count(self) -> int:
        return int(self.flat_indices.size)

    def original_indices(self) -> np.ndarray:
        """Sorted flat indices on the original grid (cached): the
        candidate itself at scale 1, else the voxels of
        :func:`~siftcad.wavelet.upscale_mask` of its mask, synthesised on
        the candidate's bounding box alone (see :func:`upscale_indices`)."""
        if self._original_indices is None:
            if self.scale_index == 1:
                self._original_indices = self.flat_indices
            else:
                self._original_indices = upscale_indices(
                    self.flat_indices, self.dims, self.scale_index, self.original_dims)
        return self._original_indices


def _make_candidate(flat_idx, m, t_idx, dims, spacing, original_dims,
                    original_spacing) -> RegionCandidate:
    voxvol = spacing[0] * spacing[1] * spacing[2]
    coords = np.unravel_index(flat_idx, dims)
    centroid = tuple(float(c.mean() * s) for c, s in zip(coords, spacing))
    return RegionCandidate(
        scale_index=m,
        threshold_index=t_idx,
        flat_indices=np.asarray(flat_idx, dtype=np.int64),
        dims=tuple(dims),
        spacing=tuple(spacing),
        original_dims=tuple(original_dims),
        original_spacing=tuple(original_spacing),
        physical_volume_mm3=float(flat_idx.size * voxvol),
        centroid_mm=centroid,
    )


def volume_window(m: int, m_scales: int, v_min: float, v_max: float) -> tuple[float, float]:
    """Inclusive physical-volume window for scale m.

    Scale 1 keeps [v_min, v_max / 8^(M-1)]; scale m > 1 keeps
    [v_max / 8^(M-m+1), v_max]. Adjacent windows overlap by design.
    """
    if m == 1:
        return v_min, v_max / 2 ** (3 * (m_scales - 1))
    return v_max / 2 ** (3 * (m_scales - m + 1)), v_max


def generate_candidates(
    case: BreastCase,
    *,
    m_scales: int = 3,
    n_orient: int = 10,
    t_count: int = 16,
    v_min: float = DEFAULT_V_MIN,
    v_max: float = DEFAULT_V_MAX,
    responses: dict[int, Volume3D] | None = None,
) -> list[RegionCandidate]:
    """Deterministic candidate generation over all pyramid scales.

    Decimate the first-subtraction volume and the breast mask scale by
    scale (one LLL ladder each, every level made before any is sifted);
    then per scale: sift, normalise inside the scaled breast mask (in
    the response's own buffer), threshold with the multilevel bank, take
    26-connected components per threshold and sieve them by the scale's
    volume window. Candidates with identical voxel sets at the same
    scale are merged, keeping the lowest threshold index.

    A frame the case holds as a file is read as stored for the
    subtraction alone and not kept, so the subtraction of two such
    frames is an exact int16 (or int32) grid, and no float64 frame or
    subtraction is made (see :func:`~siftcad.volume.subtract`). Each
    level is freed once sifted, and each response once sieved unless
    ``responses`` keeps it, so scale 1's sifting holds the subtraction
    and levels 2 and up, but no frame and no response.

    If ``responses`` is given, it receives each sifted scale's
    normalised response keyed by scale index; a scale whose breast
    mask is empty is skipped and has no entry.
    """
    d, _, big_d = case.spacing
    plan = lse_magnitudes(v_min, v_max, d, big_d, m_scales)
    # every level is decimated before any is sifted: levels 2 and 3 are
    # 1/8 and 1/64 of a grid, and decimating them then holds only the
    # subtraction and the mask, not a scale's response
    sub = subtract(case.dce[1], case.dce[0])
    levels = list(zip(scale_ladder(sub, m_scales), mask_ladder(case.breast_mask, m_scales)))
    del sub
    out: list[RegionCandidate] = []
    for m in range(1, m_scales + 1):
        scaled, mask_m = levels[m - 1]
        levels[m - 1] = None  # the level is freed once it is sifted
        if mask_m.count == 0:
            continue
        spacing, voxvol = scaled.spacing, scaled.voxel_volume_mm3
        # normalize16 reads the response inside the mask alone, so ms3d
        # sifts only the mask's slices; it maps the fresh response onto
        # 16 bit in its own buffer
        f16 = normalize16(ms3d(scaled, plan, n_orient, mask=mask_m), mask_m)
        del scaled
        if responses is not None:
            responses[m] = f16
        try:
            thresholds = multilevel_otsu(f16, mask_m, t_count)
        except VolumeError:
            # a (near-)constant response carries no candidates at this scale
            continue
        lo, hi = volume_window(m, m_scales, v_min, v_max)
        seen: dict[bytes, RegionCandidate] = {}
        ordered: list[RegionCandidate] = []
        pieces = _sieve_components(f16.data, thresholds, lo, hi, voxvol)
        # no step past the sieve reads the response: unless ``responses``
        # keeps it, it is freed before the next scale is sifted
        del f16
        for t_idx, t_pieces in enumerate(pieces):
            for flat_idx in t_pieces:
                key = flat_idx.tobytes()
                if key in seen:
                    continue
                cand = _make_candidate(
                    flat_idx, m, t_idx, mask_m.dims, spacing,
                    case.dims, case.spacing,
                )
                seen[key] = cand
                ordered.append(cand)
        out.extend(ordered)
    return out
