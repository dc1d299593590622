"""Radiomic features of region candidates.

Feature groups: intensity statistics on fat-normalised T1/T2 and the
pre-contrast DCE frame, pooled 3D Haralick texture, margin sharpness
and radial gradient index, shape descriptors, and enhancement kinetics.

Grid conventions: non-kinetic features are computed on the candidate's
own pyramid scale; sequences are decimated to the matching grid and
renormalised to unit DC gain so intensities stay comparable across
scales. Kinetics always use the original grid through the upscaled
candidate mask (largest voxel sample for the time curves).

Values: the extractor holds T1, T2 and every DCE frame as the case
stores them (unsigned short for a volume file) and converts to float64
only the values a feature reads, before any arithmetic: a region's
voxels, a crop, or the whole grid a level-2 decimation is made from. So
every column equals the one float64 volumes give, bit for bit, and no
float64 copy of a volume is held.

Shells and cores: each candidate gets at most one smoothed
signed-distance field per grid, reaching as far as the widest shell
read there (an edema shell of width w needs w mm on the scale grid; the
edema flag, the margin shell and the kinetic core and rim need 2 mm);
at scale 1 the two grids are one, and so is the field. Shells and cores
are thresholds of that field, kept as bands on the field's crop of the
grid; see :class:`_SurfaceField` for why this equals computing a field
per shell.

Every degenerate path (empty shell, single-voxel texture, guarded
denominator, fit fallback, empty core) sets a 0/1 flag feature; no NaN
or infinity ever leaves the extractor for a column it computed.

Demand: a caller that reads only some columns names them, and the
extractor computes only the groups (see ``_GROUPS``) with a column among
them; the other columns are NaN. Each group builds only what its
columns read: a sequence's decimation level at the candidate's scale on
first use (renormalised only where it is read), a surface field only as
wide as the widest shell read, and the upscaled original-grid region
only for the kinetic groups. Every group is a function of the candidate
and the case alone, so a computed column never depends on what else was
asked for, and a caller may extract a candidate's columns in steps;
``COST_TIERS`` orders them by what they build.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import wavelet
from .candidates import RegionCandidate
from .volume import BreastCase, VolumeError
from .wavelet import LLL_GAIN

GLCM_LEVELS = 32

# unique 3D direction offsets at distance 1 (26-neighbourhood up to
# sign; symmetric pairs are counted explicitly when pooling)
GLCM_DIRECTIONS = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
)

HARALICK_NAMES = (
    "asm", "contrast", "correlation", "variance", "idm",
    "sum_average", "sum_variance", "sum_entropy", "entropy",
    "difference_variance", "difference_entropy", "imc1", "imc2",
)

# (outer shell width mm, percentile) markers for peritumoral fluid
EDEMA_SHELLS = ((2.0, 92.0), (10.0, 98.0), (20.0, 98.0))

MARGIN_SEQUENCES = ("t2", "dce1", "dcesub")

FLAG_NAMES = (
    "flag_texture_degenerate",
    "flag_margin_shell_empty",
    "flag_edema_shell_empty",
    "flag_kinetic_guarded",
    "flag_fit_fallback",
    "flag_core_empty",
)

SHAPE_NAMES = ("esd_mm", "extent", "solidity", "irregularity", "fat_fraction")

KINETIC_NAMES = (
    "enh_peak", "enh_time_to_peak_s", "enh_uptake_rate", "enh_washout_rate",
    "var_peak", "var_time_to_peak_s", "var_uptake_rate", "var_washout_rate",
    "fit_amplitude", "fit_alpha", "fit_beta", "fit_rmse",
    "blooming", "peripheral_uptake",
)


def _edema_name(width: float, q: float) -> str:
    return f"edema_t2_p{int(q)}_{int(width)}mm"


def _build_schema() -> tuple[str, ...]:
    names: list[str] = []
    for seq in ("t1", "t2", "dce0"):
        names += [f"{seq}_mean", f"{seq}_std"]
    for seq in ("t1", "t2"):
        names += [f"{seq}_skewness", f"{seq}_kurtosis"]
    names += ["t2_p20", "t2_p90"]
    names += [_edema_name(w, q) for w, q in EDEMA_SHELLS]
    for seq in MARGIN_SEQUENCES:
        names += [f"{seq}_glcm_{s}" for s in HARALICK_NAMES]
    for seq in MARGIN_SEQUENCES:
        names += [f"{seq}_margin_sharpness", f"{seq}_rgi"]
    names += list(SHAPE_NAMES)
    names += list(KINETIC_NAMES)
    names += list(FLAG_NAMES)
    return tuple(names)


FEATURE_SCHEMA: tuple[str, ...] = _build_schema()
FEATURE_SCHEMA_ID = "siftcad-features-1"
_INDEX = {name: k for k, name in enumerate(FEATURE_SCHEMA)}
ALL_FEATURES = frozenset(range(len(FEATURE_SCHEMA)))


# the edema shells are nested thresholds of one field, so one of them is
# empty exactly when the narrowest is: the flag reads that shell alone
_EDEMA_INNER_MM = min(width for width, _ in EDEMA_SHELLS)
_EDEMA_GROUP = {width: "edema" if width == _EDEMA_INNER_MM else f"edema_{int(width)}mm"
                for width, _ in EDEMA_SHELLS}
_MARGIN_OUTER_MM = 2.0

# the groups and their outputs, each computed as a whole; every column
# is in exactly one. The texture flag depends on the region alone, so
# reading it runs no GLCM; the fit and the core/rim compute the curve
# summaries they read without filling the ``curves`` columns.
_GROUPS = {
    "t1": ("t1_mean", "t1_std", "t1_skewness", "t1_kurtosis"),
    "t2": ("t2_mean", "t2_std", "t2_skewness", "t2_kurtosis", "t2_p20", "t2_p90"),
    "dce0": ("dce0_mean", "dce0_std"),
    "curves": KINETIC_NAMES[:8],
    "fit": ("fit_amplitude", "fit_alpha", "fit_beta", "fit_rmse", "flag_fit_fallback"),
    "core_rim": ("blooming", "peripheral_uptake", "flag_core_empty", "flag_kinetic_guarded"),
    **{f"glcm_{seq}": tuple(f"{seq}_glcm_{s}" for s in HARALICK_NAMES)
       for seq in MARGIN_SEQUENCES},
    "texture_flag": ("flag_texture_degenerate",),
    "margin": (*(f"{seq}_{stat}" for seq in MARGIN_SEQUENCES
                 for stat in ("margin_sharpness", "rgi")),
               "flag_margin_shell_empty"),
    **{_EDEMA_GROUP[w]: (_edema_name(w, q),) for w, q in EDEMA_SHELLS},
    "shape": SHAPE_NAMES,
}
_GROUPS["edema"] += ("flag_edema_shell_empty",)
_GROUP_INDICES = {g: frozenset(_INDEX[n] for n in names) for g, names in _GROUPS.items()}
_KINETIC_GROUPS = frozenset(("curves", "fit", "core_rim"))


def _tier(*groups: str) -> frozenset:
    return frozenset().union(*(_GROUP_INDICES[g] for g in groups))


# the columns in rising order of per-candidate cost, whole groups each:
# the region's voxel values; its box (the GLCM voxel pairs and shape);
# everything else (surface fields, the kinetics and the upscaled region)
COST_TIERS: tuple[frozenset, ...] = (
    _tier("t1", "t2", "dce0"),
    _tier("glcm_t2", "glcm_dce1", "glcm_dcesub", "texture_flag", "shape"),
)
COST_TIERS += (ALL_FEATURES - frozenset().union(*COST_TIERS),)


def _groups_for(need: frozenset) -> frozenset:
    """The groups with an output in ``need``."""
    return frozenset(g for g, idx in _GROUP_INDICES.items() if not idx.isdisjoint(need))


def _field_reach_mm(groups: frozenset, scale_index: int) -> float:
    """How far outside the region the scale-grid surface field must
    reach for ``groups``; 0 when none of them reads a shell or core."""
    reach = [w for w, _ in EDEMA_SHELLS if _EDEMA_GROUP[w] in groups]
    if "margin" in groups or ("core_rim" in groups and scale_index == 1):
        reach.append(_MARGIN_OUTER_MM)
    return max(reach, default=0.0)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """One candidate's values, aligned with :data:`FEATURE_SCHEMA`. It
    carries no schema tag: the schema is checked on models, where they
    meet the extractor (``classifiers.check_schema``)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (len(FEATURE_SCHEMA),):
            raise VolumeError(
                f"feature vector needs {len(FEATURE_SCHEMA)} values, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def __getitem__(self, name: str) -> float:
        return float(self.values[_INDEX[name]])


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------

def _index_box(flat_idx: np.ndarray, dims) -> tuple[tuple[int, int], ...]:
    """Inclusive (first, last) voxel per axis of the non-empty region with
    these C-order flat indices, found without scanning the grid."""
    if flat_idx.size == 0:
        raise VolumeError("region is empty")
    return tuple((int(c.min()), int(c.max()))
                 for c in np.unravel_index(flat_idx, dims))


def _box_slices(box, pad, dims) -> tuple[slice, slice, slice]:
    """The box grown by ``pad`` voxels per axis, clipped to the grid."""
    return tuple(slice(max(0, lo - p), min(n, hi + 1 + p))
                 for (lo, hi), p, n in zip(box, pad, dims))


def _region_crop(flat_idx: np.ndarray, dims, pad=(0, 0, 0)):
    """(slices, crop): the :func:`_box_slices` of the non-empty region
    with these flat indices, and the region drawn on that crop alone."""
    slices = _box_slices(_index_box(flat_idx, dims), pad, dims)
    crop = np.zeros(tuple(s.stop - s.start for s in slices), dtype=bool)
    crop[tuple(c - s.start for c, s in zip(np.unravel_index(flat_idx, dims), slices))] = True
    return slices, crop


# Centre-to-centre distance transforms overshoot the true surface distance
# by about a third of the voxel pitch, and the digitised boundary adds a
# staircase error of comparable size. Subtracting the bias and smoothing the
# signed field keeps the zero level set on the underlying smooth surface
# (calibrated against an analytic ball: band Dice goes from 0.92 to 0.99).
_SURFACE_BIAS_PITCH = 1.0 / 3.0
_SURFACE_SMOOTH_VOX = 0.8


def _edt(mask: np.ndarray, spacing) -> np.ndarray:
    """``ndimage.distance_transform_edt(mask, sampling=spacing)`` bit for
    bit, from its feature transform one axis at a time: the same offsets
    to the nearest background voxel (whole numbers, so their float64
    difference is exact, as scipy's int32 one is), float64 scaling and
    squaring, summed in axis order, and the square root, without scipy's
    index grids and three-grid float64 stack."""
    ft = ndimage.distance_transform_edt(mask, sampling=spacing, return_distances=False,
                                        return_indices=True)
    out = None
    for axis, s in enumerate(spacing):
        at = np.arange(mask.shape[axis]).reshape(
            [-1 if a == axis else 1 for a in range(mask.ndim)])
        d = np.subtract(ft[axis], at, dtype=np.float64)
        d *= s
        np.multiply(d, d, out=d)
        if out is None:
            out = d
        else:
            out += d
    return np.sqrt(out, out=out)


class _SurfaceField:
    """Smoothed signed distance (mm) from voxel centres to one region's
    surface, negative inside, on a crop (``slices`` of the grid) that
    holds every shell reaching up to ``outer_mm`` outside the region.
    The region is given by its sorted flat indices on a grid of ``dims``;
    no array of the whole grid is built.

    One field serves all shells and cores of a region on its grid: each
    is a threshold of the same values, and that is exact, not an
    approximation of a field cropped per shell. The region lies wholly
    inside the crop (``ceil(outer_mm / s) + 4`` voxels past its bounding
    box), so neither distance transform depends on how far the crop
    reaches; inside distances are taken on the bounding box plus one
    voxel, because an inside voxel's nearest background voxel always
    lies there. Any crop also reaches 4 voxels past the outer edge of
    each shell it serves, beyond the 3-voxel radius of the Gaussian, so
    every voxel a threshold can select smooths the same values on a
    wide crop as on a narrow one. Shells and cores are boolean bands on
    the crop; every voxel outside it is outside them.
    """

    def __init__(self, flat_idx: np.ndarray, dims, spacing, outer_mm: float):
        self.outer_mm = outer_mm
        pad = tuple(int(math.ceil(outer_mm / s)) + 4 for s in spacing)
        self.slices, self.crop = _region_crop(flat_idx, dims, pad)
        crop = self.crop
        tight = _box_slices(_index_box(flat_idx, dims), (1, 1, 1), dims)
        tight_in_crop = tuple(slice(t.start - c.start, t.stop - c.start)
                              for t, c in zip(tight, self.slices))
        bias = _SURFACE_BIAS_PITCH * (sum(spacing) / 3.0)
        # max(outside - bias, 0) off the region; every region voxel lies in
        # the tight box, where -max(inside - bias, 0) takes its place
        sd = _edt(~crop, spacing)
        sd -= bias
        np.maximum(sd, 0.0, out=sd)
        region = crop[tight_in_crop]
        inside = _edt(region, spacing)
        inside -= bias
        np.maximum(inside, 0.0, out=inside)
        sd[tight_in_crop][region] = np.negative(inside[region])
        del inside
        self.distance = ndimage.gaussian_filter(sd, sigma=_SURFACE_SMOOTH_VOX)

    def shell(self, inner_mm: float, outer_mm: float) -> np.ndarray:
        """Crop voxels with signed distance in [-inner_mm, +outer_mm]."""
        if inner_mm < 0 or outer_mm < 0:
            raise VolumeError("shell offsets must be non-negative")
        if inner_mm == 0 and outer_mm == 0:
            raise VolumeError("shell needs a positive inner or outer offset")
        if outer_mm > self.outer_mm:
            raise VolumeError(
                f"a {outer_mm} mm shell needs a field built for it, "
                f"this one reaches {self.outer_mm} mm")
        band = np.zeros_like(self.crop)
        if inner_mm > 0:
            band |= self.crop & (self.distance >= -inner_mm)
        if outer_mm > 0:
            band |= ~self.crop & (self.distance <= outer_mm)
        return band

    def core(self, depth_mm: float) -> np.ndarray:
        """Crop voxels of the region deeper than ``depth_mm`` below the
        surface."""
        return self.crop & (self.distance < -depth_mm)


# ---------------------------------------------------------------------------
# scalar statistics
# ---------------------------------------------------------------------------

def skewness(vals: np.ndarray) -> float:
    """Third standardised moment; 0 for constant input."""
    v = np.asarray(vals, dtype=np.float64)
    sd = v.std()
    if sd == 0:
        return 0.0
    return float(((v - v.mean()) ** 3).mean() / sd ** 3)


def pearson_kurtosis(vals: np.ndarray) -> float:
    """Fourth standardised moment (normal distribution gives 3);
    constant input returns the neutral value 3."""
    v = np.asarray(vals, dtype=np.float64)
    sd = v.std()
    if sd == 0:
        return 3.0
    return float(((v - v.mean()) ** 4).mean() / sd ** 4)


# ---------------------------------------------------------------------------
# Haralick texture
# ---------------------------------------------------------------------------

def _quantize(vals: np.ndarray, levels: int) -> np.ndarray:
    lo = vals.min()
    hi = vals.max()
    if hi <= lo:
        return np.zeros(vals.shape, dtype=np.int64)
    q = np.floor((vals - lo) / (hi - lo) * levels).astype(np.int64)
    np.clip(q, 0, levels - 1, out=q)
    return q


class _GlcmPairs:
    """Every ordered pair of region voxels one GLCM step apart, found
    once per region and shared by the texture flag and each sequence's
    GLCM. ``region`` is the region on its bounding box (``slices`` of
    the grid); ``src`` and ``dst`` are flat indices into that box
    padded by one background voxel per side (``shape``), in direction
    order, and ``voxels`` are the region's voxels there, in C order."""

    def __init__(self, flat_idx: np.ndarray, dims):
        self.slices, self.region = _region_crop(flat_idx, dims)
        padded = np.pad(self.region, 1)
        self.shape = padded.shape
        inside = padded.ravel()
        self.voxels = np.flatnonzero(inside)
        strides = (self.shape[1] * self.shape[2], self.shape[2], 1)
        src, dst = [], []
        for off in GLCM_DIRECTIONS:
            step = sum(o * s for o, s in zip(off, strides))
            first = self.voxels[inside[self.voxels + step]]
            src.append(first)
            dst.append(first + step)
        self.src = np.concatenate(src)
        self.dst = np.concatenate(dst)

    @property
    def degenerate(self) -> bool:
        """True when the region has no two voxels one GLCM step apart
        (fewer than 2 voxels among them): its co-occurrence matrix is
        empty whatever the image."""
        return self.src.size == 0

    def pooled_glcm(self, data: np.ndarray) -> np.ndarray:
        """Symmetric co-occurrence matrix of ``data`` (on the region's
        bounding box) over the region, pooled over the 13 directions and
        normalised to unit mass; the region must not be degenerate. The
        counts are integers, so one ``bincount`` over every direction's
        pairs sums them exactly."""
        levels = GLCM_LEVELS
        # the padded box's C order keeps the region's voxels in the order
        # the crop lists them
        quant = np.zeros(self.voxels[-1] + 1, dtype=np.int64)
        quant[self.voxels] = _quantize(data[self.region], levels)
        c = np.bincount(quant[self.src] * levels + quant[self.dst],
                        minlength=levels * levels)
        c = c.reshape(levels, levels).astype(np.float64)
        counts = c + c.T
        return counts / counts.sum()


def _haralick_stats(p: np.ndarray) -> np.ndarray:
    levels = p.shape[0]
    k = np.arange(levels, dtype=np.float64)
    i_grid, j_grid = np.meshgrid(k, k, indexing="ij")
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mux = float((k * px).sum())
    muy = float((k * py).sum())
    sigx = math.sqrt(float(((k - mux) ** 2 * px).sum()))
    sigy = math.sqrt(float(((k - muy) ** 2 * py).sum()))

    def ent(q):
        nz = q > 0
        if not nz.any():
            return 0.0
        return float(-(q[nz] * np.log(q[nz])).sum())

    asm = float((p * p).sum())
    contrast = float(((i_grid - j_grid) ** 2 * p).sum())
    if sigx > 0 and sigy > 0:
        correlation = (float((i_grid * j_grid * p).sum()) - mux * muy) / (sigx * sigy)
    else:
        correlation = 0.0
    variance = float(((i_grid - mux) ** 2 * p).sum())
    idm = float((p / (1.0 + (i_grid - j_grid) ** 2)).sum())

    psum = np.bincount((i_grid + j_grid).astype(np.int64).ravel(), p.ravel(),
                       minlength=2 * levels - 1)
    pdiff = np.bincount(np.abs(i_grid - j_grid).astype(np.int64).ravel(), p.ravel(),
                        minlength=levels)
    ks = np.arange(psum.size, dtype=np.float64)
    kd = np.arange(pdiff.size, dtype=np.float64)
    sum_average = float((ks * psum).sum())
    sum_variance = float(((ks - sum_average) ** 2 * psum).sum())
    sum_entropy = ent(psum)
    entropy = ent(p.ravel())
    mud = float((kd * pdiff).sum())
    difference_variance = float(((kd - mud) ** 2 * pdiff).sum())
    difference_entropy = ent(pdiff)

    hx = ent(px)
    hy = ent(py)
    pxpy = np.outer(px, py)
    nz = pxpy > 0
    hxy1 = float(-(p[nz] * np.log(pxpy[nz])).sum())
    hxy2 = float(-(pxpy[nz] * np.log(pxpy[nz])).sum())
    denom = max(hx, hy)
    imc1 = (entropy - hxy1) / denom if denom > 0 else 0.0
    imc2 = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - entropy))))

    return np.array([
        asm, contrast, correlation, variance, idm,
        sum_average, sum_variance, sum_entropy, entropy,
        difference_variance, difference_entropy, imc1, imc2,
    ])


def haralick_features(pairs: _GlcmPairs, data: np.ndarray) -> tuple[np.ndarray, bool]:
    """13 pooled-GLCM statistics of ``data``, an image on the bounding box
    of the region of ``pairs`` (its ``slices`` of the grid), over that
    region; degenerate regions (single voxel or no adjacent pairs)
    return zeros with the flag."""
    if data.shape != pairs.region.shape:
        raise VolumeError("image does not match the region's box")
    if pairs.degenerate:
        return np.zeros(len(HARALICK_NAMES)), True
    return _haralick_stats(pairs.pooled_glcm(data)), False


# ---------------------------------------------------------------------------
# margin features
# ---------------------------------------------------------------------------

class _MarginRing:
    """A margin band's voxels with their radial vectors from the region
    centroid, found once per candidate and shared by every sequence.

    ``band`` lies on the crop at ``slices`` of a grid of ``dims``;
    gradients are taken on the band's bounding box plus one voxel
    (``window``, clipped to the grid) and read at ``at``.
    """

    def __init__(self, band: np.ndarray, slices, dims, spacing, centroid_mm):
        pts = np.argwhere(band) + np.array([s.start for s in slices])
        box = tuple((int(pts[:, a].min()), int(pts[:, a].max())) for a in range(3))
        self.spacing = spacing
        self.window = _box_slices(box, (1, 1, 1), dims)
        self.at = tuple(pts[:, a] - self.window[a].start for a in range(3))
        self.radial = pts * np.asarray(spacing) - np.asarray(centroid_mm)
        self.rmag = np.sqrt((self.radial ** 2).sum(axis=1))


def _shell_gradient_stats(ring: _MarginRing, crop: np.ndarray) -> tuple[float, float]:
    """(mean gradient magnitude, mean radial cosine) over the voxels of
    the margin band of an image ``crop`` on ``ring.window``."""
    grads = np.gradient(crop, *ring.spacing) if min(crop.shape) > 1 else [
        np.zeros_like(crop)] * 3
    g = np.stack([gr[ring.at] for gr in grads], axis=1)
    gmag = np.sqrt((g ** 2).sum(axis=1))
    denom = gmag * ring.rmag
    # the cosine is only defined where both the gradient and the radial
    # vector are non-zero; flat voxels carry no direction to average
    defined = denom > 0
    if defined.any():
        cos_mean = float(
            ((g * ring.radial).sum(axis=1)[defined] / denom[defined]).mean())
    else:
        cos_mean = 0.0
    return float(gmag.mean()), cos_mean


# ---------------------------------------------------------------------------
# shape features
# ---------------------------------------------------------------------------

def _surface_area_mm2(region: np.ndarray, spacing) -> float:
    """Calibrated voxel-face surface estimate.

    Raw face counting overestimates smooth surfaces by 3/2 (the average
    of |nx|+|ny|+|nz| over orientations), so the face-area sum is scaled
    by 2/3 to make a digital ball match its sphere area.
    """
    padded = np.pad(region, 1)
    areas = (
        spacing[1] * spacing[2],
        spacing[0] * spacing[2],
        spacing[0] * spacing[1],
    )
    total = 0.0
    for axis, face_area in enumerate(areas):
        a = np.swapaxes(padded, 0, axis)
        total += face_area * np.count_nonzero(a[1:] != a[:-1])
    return total * (2.0 / 3.0)


def shape_features(rc: RegionCandidate, fat_region: np.ndarray | None = None) -> dict[str, float]:
    """ESD, extent, solidity, irregularity and fat fraction.

    ``fat_region`` is the fat mask on the candidate's grid; omit it for
    a fat fraction of 0.
    """
    count = rc.voxel_count
    if count == 0:
        raise VolumeError("shape features need a non-empty region")
    vol = rc.physical_volume_mm3
    esd = (6.0 * vol / math.pi) ** (1.0 / 3.0)

    coords = np.stack(np.unravel_index(rc.flat_indices, rc.dims), axis=1)
    span = coords.max(axis=0) - coords.min(axis=0) + 1
    extent = count / float(np.prod(span))

    solidity = 1.0
    if count >= 4:
        # imported here: sift and evaluate never build a hull, and
        # scipy.spatial adds about 8 MB to a process that imports it
        from scipy.spatial import ConvexHull, QhullError
        pts = coords * np.asarray(rc.spacing)
        try:
            hull_vol = ConvexHull(pts).volume
            if hull_vol > 0:
                solidity = min(1.0, vol / hull_vol)
        except QhullError:
            solidity = 1.0

    # the region's faces all lie on its bounding box
    area = _surface_area_mm2(_region_crop(rc.flat_indices, rc.dims)[1], rc.spacing)
    sphere_area = math.pi ** (1.0 / 3.0) * (6.0 * vol) ** (2.0 / 3.0)
    irregularity = min(1.0, max(0.0, 1.0 - sphere_area / area)) if area > 0 else 0.0

    fat_fraction = 0.0
    if fat_region is not None:
        fat_fraction = float(fat_region.ravel()[rc.flat_indices].sum()) / count

    return {
        "esd_mm": esd,
        "extent": extent,
        "solidity": solidity,
        "irregularity": irregularity,
        "fat_fraction": fat_fraction,
    }


# ---------------------------------------------------------------------------
# kinetics
# ---------------------------------------------------------------------------

_EPS_BASELINE = 1e-9


def enhancement_model(t, amplitude, alpha, beta):
    """Empirical uptake-washout curve A(1 - e^(-alpha t)) e^(-beta t)."""
    t = np.asarray(t, dtype=np.float64)
    return amplitude * (1.0 - np.exp(-alpha * t)) * np.exp(-beta * t)


def _curve_summary(series: np.ndarray, times: np.ndarray) -> tuple[float, float, float, float]:
    """(peak, time-to-peak, uptake rate, washout rate) of a relative
    enhancement series; all zeros for a flat zero curve."""
    post = series[1:]
    if not post.size or np.all(post == 0.0):
        return 0.0, 0.0, 0.0, 0.0
    k = int(np.argmax(post)) + 1
    peak = float(series[k])
    ttp = float(times[k])
    uptake = float(series[1] / times[1]) if times[1] > 0 else 0.0
    if k == len(series) - 1:
        washout = 0.0
    else:
        washout = float((peak - series[-1]) / (times[-1] - times[k]))
    return peak, ttp, uptake, washout


def _fit_enhancement(times: np.ndarray, series: np.ndarray,
                     peak: float) -> tuple[float, float, float, float, bool]:
    """(A, alpha, beta, rmse, fallback_flag) of the parametric fit."""
    fallback = False
    popt = None
    if times.size >= 3:
        # imported here: only train and detect fit curves, and
        # scipy.optimize adds about 20 MB and 0.3 s to a process's start
        from scipy import optimize
        p0 = (peak if peak != 0.0 else 1.0, 0.02, 0.001)
        try:
            popt, _ = optimize.curve_fit(
                enhancement_model, times, series, p0=p0,
                bounds=([-1e3, 1e-6, 0.0], [1e3, 1.0, 0.5]), maxfev=2000,
            )
        except (RuntimeError, ValueError):
            popt = None
    if popt is None:
        fallback = True
        amp = peak
        best = None
        for alpha in np.logspace(-3.5, -0.5, 12):
            for beta in np.concatenate(([0.0], np.logspace(-4.5, -1.5, 10))):
                sse = float(((enhancement_model(times, amp, alpha, beta) - series) ** 2).sum())
                if best is None or sse < best[0]:
                    best = (sse, alpha, beta)
        popt = (amp, best[1], best[2])
    rmse = float(np.sqrt(((enhancement_model(times, *popt) - series) ** 2).mean()))
    return float(popt[0]), float(popt[1]), float(popt[2]), rmse, fallback


def _relative_series(means: list[float]) -> tuple[np.ndarray, bool]:
    """Per-frame relative change of a mean vs the first frame's."""
    raw = np.array(means)
    base = raw[0]
    guarded = False
    if abs(base) <= _EPS_BASELINE:
        if np.allclose(raw, 0.0, atol=_EPS_BASELINE):
            return np.zeros(raw.size), False
        guarded = True
        base = _EPS_BASELINE if base >= 0 else -_EPS_BASELINE
    return (raw - raw[0]) / base, guarded


def kinetic_features(rc: RegionCandidate, frames, times,
                     field: _SurfaceField | None = None,
                     need: frozenset = ALL_FEATURES) -> tuple[dict[str, float], dict[str, bool]]:
    """Kinetic feature group at original resolution.

    ``frames`` are the values of every DCE frame on the original grid,
    of any numeric type (as stored, or a volume's data), and ``times``
    their acquisition times; the values the features read are converted
    to float64 before any arithmetic.

    The curve summaries, the parametric fit and the core/rim features
    are returned when ``need`` holds one of their outputs (see
    ``_GROUPS``); the fit and the core/rim compute the curves they read
    either way.

    ``field`` is the candidate's surface field on the original grid,
    reaching at least 2 mm (a scale-1 candidate's scale grid is the
    original grid); a 2 mm field is built when it is None and the
    core/rim features are needed.

    Returns (features, flags) with flags ``fit_fallback`` (with the fit)
    and ``kinetic_guarded`` and ``core_empty`` (with the core/rim).
    """
    groups = _groups_for(need)
    times = np.asarray(times, dtype=np.float64)
    region_idx = rc.original_indices()
    means, variances = [], []
    for frame in frames:
        # one frame's region in float64 at a time
        sample = np.asarray(frame.ravel()[region_idx], dtype=np.float64)
        means.append(float(sample.mean()))
        variances.append(float(sample.var()))
    del sample

    enh, guard_mean = _relative_series(means)
    peak, ttp, uptake, washout = _curve_summary(enh, times)

    base_var = variances[0]
    guard_var = False
    if base_var <= _EPS_BASELINE:
        var_series = np.zeros(len(variances))
        guard_var = any(v > _EPS_BASELINE for v in variances[1:])
    else:
        var_series = np.array([(v - base_var) / base_var for v in variances])

    features = {}
    flags = {}
    if "curves" in groups:
        vpeak, vttp, vuptake, vwashout = _curve_summary(var_series, times)
        features.update({
            "enh_peak": peak, "enh_time_to_peak_s": ttp,
            "enh_uptake_rate": uptake, "enh_washout_rate": washout,
            "var_peak": vpeak, "var_time_to_peak_s": vttp,
            "var_uptake_rate": vuptake, "var_washout_rate": vwashout,
        })

    if "fit" in groups:
        amp, alpha, beta, rmse, fit_fallback = _fit_enhancement(times, enh, peak)
        features.update(fit_amplitude=amp, fit_alpha=alpha, fit_beta=beta, fit_rmse=rmse)
        flags["fit_fallback"] = bool(fit_fallback)

    if "core_rim" in groups:
        # the 2 mm core and the 1 mm-in/2 mm-out rim share one field
        if field is None:
            field = _SurfaceField(region_idx, rc.original_dims, rc.original_spacing,
                                  _MARGIN_OUTER_MM)
        picks = (0, 1, len(frames) - 1)

        def means_of(band):
            # an empty band falls back to the whole region
            if band.any():
                return [float(np.asarray(frames[i][field.slices][band], dtype=np.float64)
                              .mean()) for i in picks]
            return [means[i] for i in picks]

        core = field.core(2.0)
        core_empty = not core.any()
        shell = field.shell(1.0, _MARGIN_OUTER_MM)
        guard_shell = not shell.any()
        core_enh, g1 = _relative_series(means_of(core))
        shell_enh, g2 = _relative_series(means_of(shell))
        blooming = float((shell_enh[-1] - shell_enh[1]) - (core_enh[-1] - core_enh[1]))
        if abs(core_enh[-1]) <= _EPS_BASELINE:
            peripheral = 0.0
            guard_peri = shell_enh[-1] != 0.0
        else:
            peripheral = float(shell_enh[-1] / core_enh[-1])
            guard_peri = False
        features.update(blooming=blooming, peripheral_uptake=peripheral)
        flags["kinetic_guarded"] = bool(guard_mean or guard_var or g1 or g2
                                        or guard_peri or guard_shell)
        flags["core_empty"] = bool(core_empty)
    return features, flags


# ---------------------------------------------------------------------------
# extractor
# ---------------------------------------------------------------------------

# the fat mean each sequence is normalised by
_FAT_MEAN_OF = {"t1": "t1", "t2": "t2", "dce0": "dce0", "dce1": "dce0", "dcesub": "dce0"}


def _read(data: np.ndarray, where) -> np.ndarray:
    """``data`` at flat indices, or at a tuple of slices, in its own type."""
    return data[where] if isinstance(where, tuple) else data.ravel()[where]


class FeatureExtractor:
    """Extracts features for candidates of one case.

    The extractor reads T1, T2 and every DCE frame once, as stored
    (:meth:`BreastCase.values`: unsigned short for a volume file), and
    keeps those arrays; the case keeps none of them. Only the values a
    feature reads are converted to float64, before any arithmetic: flat
    indices, a crop, or the whole grid a level-2 decimation starts from.
    Each (sequence, scale) level of the decimation ladder above scale 1
    is built on first use and cached, while scale 1 is read from the
    stored arrays; the caches are plain dicts of arrays and the fat
    mask's ladder a generator that refers to no extractor, so an
    extractor holds no reference cycle and is freed as soon as its last
    user drops it."""

    def __init__(self, case: BreastCase):
        self.case = case
        fat = case.fat_mask.data
        if not fat.any():
            raise VolumeError("fat mask is empty")
        t1, t2, self._frames = case.values()
        self._arrays = {"t1": t1, "t2": t2, "dce0": self._frames[0], "dce1": self._frames[1]}
        self._fat_means = {
            seq: float(np.asarray(self._arrays[seq][fat], dtype=np.float64).mean())
            for seq in ("t1", "t2", "dce0")}
        for name, mean in self._fat_means.items():
            if mean <= 0:
                raise VolumeError(f"non-positive fat mean on {name}")
        # (sequence, scale) -> LLL level m >= 2 of the fat-normalised
        # sequence, with the level's gain still in it; scale -> fat mask,
        # pulled from one lazy ladder whose length only caps a candidate's
        # scale. Scale 1 is never cached: its reads come from the stored
        # arrays.
        self._levels: dict[tuple[str, int], np.ndarray] = {}
        self._fat: dict[int, np.ndarray] = {}
        self._fat_ladder = wavelet.mask_ladder(case.fat_mask, sys.maxsize)

    def _normalised(self, seq: str, where) -> np.ndarray:
        """The fat-normalised scale-1 sequence ``seq`` read at ``where``
        (see :meth:`_scaled`; ``()`` reads the whole grid). Each voxel
        goes through the same operations as in a whole-grid division of
        float64 volumes: the ufuncs convert their inputs to float64 a
        buffer at a time, and exactly."""
        mean = self._fat_means[_FAT_MEAN_OF[seq]]
        if seq == "dcesub":
            data = np.subtract(_read(self._arrays["dce1"], where),
                               _read(self._arrays["dce0"], where), dtype=np.float64)
            data /= mean
            return data
        return np.divide(_read(self._arrays[seq], where), mean, dtype=np.float64)

    def _level(self, seq: str, m: int) -> np.ndarray:
        """Level m of the same ``_lll_once`` chain :func:`scale_ladder`
        runs, each level made from the one below; level 1 is built afresh
        for the one call that decimates it."""
        if m == 1:
            return self._normalised(seq, ())
        key = (seq, m)
        if key not in self._levels:
            self._levels[key] = wavelet._lll_once(self._level(seq, m - 1))
        return self._levels[key]

    def _scaled(self, seq: str, m: int, where) -> np.ndarray:
        """Sequence ``seq`` (a key of ``_FAT_MEAN_OF``) on the scale-m
        grid, renormalised to unit DC gain, read at ``where``: flat
        indices, or a tuple of slices for a crop. The gain is divided out
        of what is read, which gives the same values as dividing the
        whole level first."""
        if m == 1:
            return self._normalised(seq, where)
        return _read(self._level(seq, m), where) / LLL_GAIN ** (m - 1)

    def _texture_columns(self, rc: RegionCandidate, groups: frozenset) -> dict[str, float]:
        """The texture flag and the GLCM columns in ``groups``, all from
        one set of voxel pairs."""
        pairs = _GlcmPairs(rc.flat_indices, rc.dims)
        out = {}
        if "texture_flag" in groups:
            out["flag_texture_degenerate"] = float(pairs.degenerate)
        for seq in MARGIN_SEQUENCES:
            if f"glcm_{seq}" in groups:
                stats, _ = haralick_features(
                    pairs, self._scaled(seq, rc.scale_index, pairs.slices))
                for stat_name, value in zip(HARALICK_NAMES, stats):
                    out[f"{seq}_glcm_{stat_name}"] = float(value)
        return out

    def _margin_columns(self, rc: RegionCandidate, field: _SurfaceField) -> dict[str, float]:
        """Margin sharpness and RGI per sequence over the 1 mm-in/2 mm-out
        shell of the scale-grid ``field``, and the empty-shell flag."""
        band = field.shell(1.0, _MARGIN_OUTER_MM)
        if not band.any():
            out = {"flag_margin_shell_empty": 1.0}
            for seq in MARGIN_SEQUENCES:
                out[f"{seq}_margin_sharpness"] = 0.0
                out[f"{seq}_rgi"] = 0.0
            return out
        out = {"flag_margin_shell_empty": 0.0}
        ring = _MarginRing(band, field.slices, rc.dims, rc.spacing, rc.centroid_mm)
        for seq in MARGIN_SEQUENCES:
            sharp, rgi = _shell_gradient_stats(
                ring, self._scaled(seq, rc.scale_index, ring.window))
            out[f"{seq}_margin_sharpness"] = sharp
            out[f"{seq}_rgi"] = rgi
        return out

    def extract(self, rc: RegionCandidate, need=ALL_FEATURES) -> FeatureVector:
        """Feature vector of one candidate.

        ``need`` holds the schema indices the caller reads; each group
        with no output in it is skipped and its columns are NaN.
        Computed columns equal those of the full extraction bit for bit.
        """
        need = frozenset(int(k) for k in need)
        groups = _groups_for(need)
        m = rc.scale_index
        idx = rc.flat_indices
        out: dict[str, float] = {}

        for seq in ("t1", "t2", "dce0"):
            if seq not in groups:
                continue
            vals = self._scaled(seq, m, idx)
            out[f"{seq}_mean"] = float(vals.mean())
            out[f"{seq}_std"] = float(vals.std())
            if seq != "dce0":
                out[f"{seq}_skewness"] = skewness(vals)
                out[f"{seq}_kurtosis"] = pearson_kurtosis(vals)
        if "t2" in groups:
            t2_vals = self._scaled("t2", m, idx)
            out["t2_p20"] = float(np.percentile(t2_vals, 20))
            out["t2_p90"] = float(np.percentile(t2_vals, 90))

        reach = _field_reach_mm(groups, m)
        field = _SurfaceField(idx, rc.dims, rc.spacing, reach) if reach else None

        edema = [(width, q) for width, q in EDEMA_SHELLS if _EDEMA_GROUP[width] in groups]
        if edema:
            t2_crop = self._scaled("t2", m, field.slices)
        for width, q in edema:
            shell = field.shell(0.0, width)
            vals = t2_crop[shell] if shell.any() else self._scaled("t2", m, idx)
            out[_edema_name(width, q)] = float(np.percentile(vals, q))
            if width == _EDEMA_INNER_MM:
                out["flag_edema_shell_empty"] = float(not shell.any())

        if {"texture_flag", *(f"glcm_{seq}" for seq in MARGIN_SEQUENCES)} & groups:
            out.update(self._texture_columns(rc, groups))
        if "margin" in groups:
            out.update(self._margin_columns(rc, field))

        if "shape" in groups:
            while m not in self._fat:
                self._fat[len(self._fat) + 1] = next(self._fat_ladder).data
            out.update(shape_features(rc, self._fat[m]))

        if groups & _KINETIC_GROUPS:
            kin, kin_flags = kinetic_features(rc, self._frames, self.case.acquisition_times,
                                              field if m == 1 else None, need)
            out.update(kin)
            out.update({f"flag_{name}": 1.0 if fired else 0.0
                        for name, fired in kin_flags.items()})

        bad = [name for name, value in out.items() if not math.isfinite(value)]
        if bad:
            raise VolumeError(f"non-finite features: {sorted(bad, key=_INDEX.get)}")
        values = np.full(len(FEATURE_SCHEMA), np.nan)
        for name, value in out.items():
            values[_INDEX[name]] = value
        return FeatureVector(values)
