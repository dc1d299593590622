"""Region-candidate generation from the sifted subtraction volume.

Per pyramid scale the sifted response is normalised to 16 bit inside
the (downscaled) breast mask, split by a multilevel Otsu threshold
bank, and each threshold's 26-connected components are sieved by the
physical volume window of that scale. Candidates are stored sparsely
(sorted flat voxel indices on their scale grid) and can be brought back
to the original grid through the wavelet ladder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
from scipy import ndimage

from .morphosift import lse_magnitudes, ms3d, normalize16
from .volume import (
    BinaryMask,
    BreastCase,
    HistogramSpec,
    Volume3D,
    VolumeError,
    class_variance_term,
    intensity_histogram,
    otsu_cumulative_tables,
    subtract,
)
from .wavelet import downscale_mask, scale_image, upscale_mask

DEFAULT_MIN_DIAMETER_MM = 4.0
DEFAULT_MAX_DIAMETER_MM = 63.0


def diameter_to_volume(diameter_mm: float) -> float:
    """Equivalent-sphere volume of a diameter, mm^3."""
    return math.pi / 6.0 * diameter_mm ** 3


DEFAULT_V_MIN = diameter_to_volume(DEFAULT_MIN_DIAMETER_MM)
DEFAULT_V_MAX = diameter_to_volume(DEFAULT_MAX_DIAMETER_MM)


# ---------------------------------------------------------------------------
# multilevel Otsu
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThresholdSet:
    """Strictly increasing scalar thresholds plus their bin indices and
    the histogram they came from."""

    thresholds: np.ndarray
    indices: np.ndarray
    histogram: HistogramSpec


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

    def row(i: int, c: int, g_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # candidate last-bins for class c starting at bin i
        remaining = n_classes - c
        ts = np.arange(i, n_bins - remaining)
        return ts, class_variance_term(cw, cs, i, ts) + g_next[ts + 1]

    # g[c][i]: best value of classes c..n_classes covering bins [i:]
    g_next = np.full(n_bins + 1, -np.inf)
    start = n_classes - 1
    g_next[start:n_bins] = class_variance_term(
        cw, cs, np.arange(start, n_bins), n_bins - 1
    )
    tables = {n_classes: g_next}
    for c in range(n_classes - 1, 0, -1):
        g = np.full(n_bins + 1, -np.inf)
        for i in range(c - 1, n_bins - (n_classes - c)):
            _, vals = row(i, c, tables[c + 1])
            g[i] = vals.max()
        tables[c] = g
        g_next = g

    indices = np.empty(t_count, dtype=np.int64)
    i = 0
    for c in range(1, n_classes):
        ts, vals = row(i, c, tables[c + 1])
        hit = np.flatnonzero(vals == tables[c][i])
        indices[c - 1] = ts[hit[0]]
        i = int(indices[c - 1]) + 1
    return indices


def multilevel_otsu(volume: Volume3D, mask: BinaryMask, t_count: int) -> ThresholdSet:
    """Multilevel Otsu threshold bank of the masked voxels (256 bins)."""
    if mask.dims != volume.dims:
        raise VolumeError("mask grid does not match volume")
    vals = volume.data[mask.data]
    if vals.size == 0:
        raise VolumeError("mask selects no voxels")
    if np.unique(vals).size < t_count + 1:
        raise VolumeError(
            f"need at least {t_count + 1} distinct values for {t_count} thresholds"
        )
    hist, spec = intensity_histogram(vals)
    idx = otsu_multilevel_indices(hist, t_count)
    thresholds = np.array([spec.upper_edge(int(t)) for t in idx])
    return ThresholdSet(thresholds=thresholds, indices=idx, histogram=spec)


def binarize(volume: Volume3D, threshold: float) -> BinaryMask:
    """Voxels at or above the threshold."""
    return BinaryMask(volume.data >= threshold, volume.spacing)


# ---------------------------------------------------------------------------
# connected components and candidates
# ---------------------------------------------------------------------------

_CONNECTIVITY_26 = np.ones((3, 3, 3), dtype=bool)


def connected_components(mask: BinaryMask) -> list[BinaryMask]:
    """26-connected components, ordered by their first voxel in raster
    (C) order."""
    labels, n = ndimage.label(mask.data, structure=_CONNECTIVITY_26)
    flat = labels.ravel()
    firsts = []
    for label_id in range(1, n + 1):
        firsts.append((int(np.argmax(flat == label_id)), label_id))
    firsts.sort()
    out = []
    for _, label_id in firsts:
        out.append(BinaryMask(labels == label_id, mask.spacing))
    return out


def _label_index_lists(binary: np.ndarray) -> list[np.ndarray]:
    """Sorted flat-index arrays of the 26-connected components, in
    raster order of their first voxels."""
    labels, n = ndimage.label(binary, structure=_CONNECTIVITY_26)
    if n == 0:
        return []
    flat = labels.ravel()
    nz = np.flatnonzero(flat)
    order = nz[np.argsort(flat[nz], kind="stable")]
    counts = np.bincount(flat[nz], minlength=n + 1)
    pieces = np.split(order, np.cumsum(counts[1:-1]))
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
    lesion_score: float | None = None
    malignancy_score: float | None = None
    malignant: bool | None = None
    _original_indices: np.ndarray | None = field(default=None, repr=False)

    @property
    def voxel_count(self) -> int:
        return int(self.flat_indices.size)

    def mask(self) -> BinaryMask:
        m = np.zeros(self.dims, dtype=bool)
        m.ravel()[self.flat_indices] = True
        return BinaryMask(m, self.spacing)

    def original_mask(self) -> BinaryMask:
        if self.scale_index == 1:
            return BinaryMask(self.mask().data, self.original_spacing)
        up = upscale_mask(self.mask(), self.scale_index, self.original_dims,
                          self.original_spacing)
        return up

    def original_indices(self) -> np.ndarray:
        """Sorted flat indices on the original grid (cached)."""
        if self._original_indices is None:
            self._original_indices = np.flatnonzero(self.original_mask().data.ravel())
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


def candidate_from_mask(mask: BinaryMask, scale_index: int = 1,
                        original_dims=None, original_spacing=None,
                        threshold_index: int = 0) -> RegionCandidate:
    """Wrap an explicit mask (on its scale grid) as a candidate."""
    if mask.count == 0:
        raise VolumeError("candidate mask must be non-empty")
    flat = np.flatnonzero(mask.data.ravel()).astype(np.int64)
    if original_dims is None:
        if scale_index != 1:
            raise VolumeError("original grid required for scale > 1")
        original_dims = mask.dims
        original_spacing = mask.spacing
    return _make_candidate(flat, scale_index, threshold_index, mask.dims,
                           mask.spacing, tuple(original_dims),
                           tuple(original_spacing))


def volume_window(m: int, m_scales: int, v_min: float, v_max: float) -> tuple[float, float]:
    """Inclusive physical-volume window for scale m.

    Scale 1 keeps [v_min, v_max / 8^(M-1)]; scale m > 1 keeps
    [v_max / 8^(M-m+1), v_max]. Adjacent windows overlap by design.
    """
    if m == 1:
        return v_min, v_max / 2 ** (3 * (m_scales - 1))
    return v_max / 2 ** (3 * (m_scales - m + 1)), v_max


def size_sieve(cands: list[RegionCandidate], v_min: float, v_max: float,
               m: int, m_scales: int) -> list[RegionCandidate]:
    lo, hi = volume_window(m, m_scales, v_min, v_max)
    return [c for c in cands if lo <= c.physical_volume_mm3 <= hi]


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

    Per scale: decimate the first-subtraction volume, sift, normalise
    inside the scaled breast mask, threshold with the multilevel bank,
    take 26-connected components per threshold and sieve them by the
    scale's volume window. Candidates with identical voxel sets at the
    same scale are merged, keeping the lowest threshold index.

    If ``responses`` is given, it receives each sifted scale's
    normalised response keyed by scale index; a scale whose breast
    mask is empty is skipped and has no entry.
    """
    d, _, big_d = case.spacing
    plan = lse_magnitudes(v_min, v_max, d, big_d, m_scales)
    sub = subtract(case.dce[1], case.dce[0])
    out: list[RegionCandidate] = []
    for m in range(1, m_scales + 1):
        scaled = scale_image(sub, m)
        mask_m = downscale_mask(case.breast_mask, m)
        if mask_m.count == 0:
            continue
        response = ms3d(scaled.volume, plan, n_orient)
        f16 = normalize16(response, mask_m)
        if responses is not None:
            responses[m] = f16
        try:
            bank = multilevel_otsu(f16, mask_m, t_count)
        except VolumeError:
            # a (near-)constant response carries no candidates at this scale
            continue
        lo, hi = volume_window(m, m_scales, v_min, v_max)
        voxvol = scaled.volume.voxel_volume_mm3
        seen: dict[bytes, RegionCandidate] = {}
        ordered: list[RegionCandidate] = []
        for t_idx, th in enumerate(bank.thresholds):
            binary = f16.data >= th
            for flat_idx in _label_index_lists(binary):
                if not lo <= flat_idx.size * voxvol <= hi:
                    continue
                key = flat_idx.tobytes()
                if key in seen:
                    continue
                cand = _make_candidate(
                    flat_idx, m, t_idx, f16.dims, scaled.volume.spacing,
                    case.dims, case.spacing,
                )
                seen[key] = cand
                ordered.append(cand)
        out.extend(ordered)
    return out


# ---------------------------------------------------------------------------
# pluggable generators
# ---------------------------------------------------------------------------

class CandidateGenerator(Protocol):
    def generate(self, case: BreastCase) -> list[RegionCandidate]: ...


@dataclass
class SiftingGenerator:
    """Default generator: multiscale morphological sifting."""

    m_scales: int = 3
    n_orient: int = 10
    t_count: int = 16
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX

    def generate(self, case: BreastCase) -> list[RegionCandidate]:
        return generate_candidates(
            case, m_scales=self.m_scales, n_orient=self.n_orient,
            t_count=self.t_count, v_min=self.v_min, v_max=self.v_max,
        )


@dataclass
class KMeansVoxelGenerator:
    """Reference baseline: 1D k-means clustering of subtraction
    intensities inside the breast, components of the brighter clusters
    sieved by the global volume window.

    Centres start uniformly spaced over the value range, so the result
    is deterministic.
    """

    n_clusters: int = 8
    n_iter: int = 30
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX

    def generate(self, case: BreastCase) -> list[RegionCandidate]:
        sub = subtract(case.dce[1], case.dce[0])
        sel = case.breast_mask.data
        vals = sub.data[sel]
        lo, hi = float(vals.min()), float(vals.max())
        if hi <= lo:
            return []
        k = np.arange(self.n_clusters)
        centres = lo + (k + 0.5) / self.n_clusters * (hi - lo)
        for _ in range(self.n_iter):
            assign = np.argmin(np.abs(vals[:, None] - centres[None, :]), axis=1)
            new = centres.copy()
            for k in range(self.n_clusters):
                hit = assign == k
                if hit.any():
                    new[k] = vals[hit].mean()
            if np.allclose(new, centres):
                break
            centres = new
        assign = np.argmin(np.abs(vals[:, None] - centres[None, :]), axis=1)
        label_vol = np.full(sub.dims, -1, dtype=np.int64)
        label_vol[sel] = assign
        order = np.argsort(centres)
        out: list[RegionCandidate] = []
        voxvol = sub.voxel_volume_mm3
        for rank, k in enumerate(order):
            if rank == 0:
                continue  # the darkest cluster is background uptake
            for flat_idx in _label_index_lists(label_vol == k):
                if not self.v_min <= flat_idx.size * voxvol <= self.v_max:
                    continue
                out.append(_make_candidate(
                    flat_idx, 1, int(k), sub.dims, sub.spacing,
                    case.dims, case.spacing,
                ))
        return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _rle_encode(flat_idx: np.ndarray) -> list[list[int]]:
    if flat_idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(flat_idx) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [flat_idx.size - 1]))
    return [[int(flat_idx[a]), int(e - a + 1)] for a, e in zip(starts, ends)]


def _rle_decode(runs: list[list[int]]) -> np.ndarray:
    if not runs:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(s, s + n, dtype=np.int64) for s, n in runs])


def candidate_to_dict(c: RegionCandidate) -> dict:
    doc = {
        "scale": c.scale_index,
        "threshold_index": c.threshold_index,
        "dims": list(c.dims),
        "spacing": list(c.spacing),
        "original_dims": list(c.original_dims),
        "original_spacing": list(c.original_spacing),
        "volume_mm3": c.physical_volume_mm3,
        "centroid_mm": list(c.centroid_mm),
        "voxels_rle": _rle_encode(c.flat_indices),
    }
    if c.lesion_score is not None:
        doc["lesion_score"] = c.lesion_score
    if c.malignancy_score is not None:
        doc["malignancy_score"] = c.malignancy_score
    if c.malignant is not None:
        doc["malignant"] = c.malignant
    return doc


def candidate_from_dict(doc: dict) -> RegionCandidate:
    return RegionCandidate(
        scale_index=int(doc["scale"]),
        threshold_index=int(doc["threshold_index"]),
        flat_indices=_rle_decode(doc["voxels_rle"]),
        dims=tuple(doc["dims"]),
        spacing=tuple(doc["spacing"]),
        original_dims=tuple(doc["original_dims"]),
        original_spacing=tuple(doc["original_spacing"]),
        physical_volume_mm3=float(doc["volume_mm3"]),
        centroid_mm=tuple(doc["centroid_mm"]),
        lesion_score=doc.get("lesion_score"),
        malignancy_score=doc.get("malignancy_score"),
        malignant=doc.get("malignant"),
    )


def save_candidates(path, case_id: str, cands: list[RegionCandidate]) -> None:
    doc = {"case_id": case_id, "candidates": [candidate_to_dict(c) for c in cands]}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_candidates(path) -> tuple[str, list[RegionCandidate]]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["case_id"], [candidate_from_dict(d) for d in doc["candidates"]]
