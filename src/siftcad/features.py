"""Radiomic features of region candidates.

Feature groups: intensity statistics on fat-normalised T1/T2 and the
pre-contrast DCE frame, pooled 3D Haralick texture, margin sharpness
and radial gradient index, shape descriptors, and enhancement kinetics.

Grid conventions: non-kinetic features are computed on the candidate's
own pyramid scale; sequences are decimated to the matching grid and
renormalised to unit DC gain so intensities stay comparable across
scales. Kinetics always use the original grid through the upscaled
candidate mask (largest voxel sample for the time curves).

Shells and cores: each candidate gets one smoothed signed-distance
field per grid, wide enough for the widest shell there (the 20 mm
edema shell on its scale grid, the 2 mm margin rim on the original
grid); at scale 1 the two grids are one, and so is the field. The
edema shells, the margin shell, the kinetic core and the kinetic rim
are thresholds of that field; see :class:`_SurfaceField` for why this
equals computing a field per shell.

Every degenerate path (empty shell, single-voxel texture, guarded
denominator, fit fallback, empty core) sets a 0/1 flag feature; no NaN
or infinity ever leaves the extractor for a column it computed.

Demand: a caller that reads only some columns names them, and the
extractor skips each costly group (kinetic fit, kinetic core/rim, the
GLCM of each sequence, margin, edema, shape) none of whose outputs it
reads; skipped columns are NaN. Every group is a function of the
candidate and the case alone, so a computed column never depends on
what else was asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, optimize
from scipy.spatial import ConvexHull, QhullError

from .candidates import RegionCandidate
from .volume import BinaryMask, BreastCase, Volume3D, VolumeError
from .wavelet import LLL_GAIN, downscale_mask, scale_image

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
_EDEMA_OUTER_MM = max(width for width, _ in EDEMA_SHELLS)

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


def _build_schema() -> tuple[str, ...]:
    names: list[str] = []
    for seq in ("t1", "t2", "dce0"):
        names += [f"{seq}_mean", f"{seq}_std"]
    for seq in ("t1", "t2"):
        names += [f"{seq}_skewness", f"{seq}_kurtosis"]
    names += ["t2_p20", "t2_p90"]
    names += [f"edema_t2_p{int(q)}_{int(w)}mm" for w, q in EDEMA_SHELLS]
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

# the costly groups and their outputs; intensity and the enhancement and
# variance curve summaries are always computed. The texture flag depends
# on the region alone, so reading it runs no GLCM.
_GROUPS = {
    "fit": ("fit_amplitude", "fit_alpha", "fit_beta", "fit_rmse", "flag_fit_fallback"),
    "core_rim": ("blooming", "peripheral_uptake", "flag_core_empty", "flag_kinetic_guarded"),
    **{f"glcm_{seq}": tuple(f"{seq}_glcm_{s}" for s in HARALICK_NAMES)
       for seq in MARGIN_SEQUENCES},
    "texture_flag": ("flag_texture_degenerate",),
    "margin": (*(f"{seq}_{stat}" for seq in MARGIN_SEQUENCES
                 for stat in ("margin_sharpness", "rgi")),
               "flag_margin_shell_empty"),
    "edema": (*(f"edema_t2_p{int(q)}_{int(w)}mm" for w, q in EDEMA_SHELLS),
              "flag_edema_shell_empty"),
    "shape": SHAPE_NAMES,
}
_GROUP_INDICES = {g: frozenset(_INDEX[n] for n in names) for g, names in _GROUPS.items()}


def _groups_for(need: frozenset) -> frozenset:
    """The costly groups with an output in ``need``."""
    return frozenset(g for g, idx in _GROUP_INDICES.items() if not idx.isdisjoint(need))


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Values aligned with :data:`FEATURE_SCHEMA`."""

    values: np.ndarray
    schema_id: str = FEATURE_SCHEMA_ID

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (len(FEATURE_SCHEMA),):
            raise VolumeError(
                f"feature vector needs {len(FEATURE_SCHEMA)} values, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def __getitem__(self, name: str) -> float:
        return float(self.values[_INDEX[name]])

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(FEATURE_SCHEMA, self.values)}


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


# Centre-to-centre distance transforms overshoot the true surface distance
# by about a third of the voxel pitch, and the digitised boundary adds a
# staircase error of comparable size. Subtracting the bias and smoothing the
# signed field keeps the zero level set on the underlying smooth surface
# (calibrated against an analytic ball: band Dice goes from 0.92 to 0.99).
_SURFACE_BIAS_PITCH = 1.0 / 3.0
_SURFACE_SMOOTH_VOX = 0.8


class _SurfaceField:
    """Smoothed signed distance (mm) from voxel centres to one region's
    surface, negative inside, on a crop that holds every shell reaching
    up to ``outer_mm`` outside the region. ``box`` is the region's
    :func:`_index_box`.

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
    wide crop as on a narrow one.
    """

    def __init__(self, region: BinaryMask, outer_mm: float, box):
        spacing = region.spacing
        self.region = region
        self.outer_mm = outer_mm
        pad = tuple(int(math.ceil(outer_mm / s)) + 4 for s in spacing)
        self.slices = _box_slices(box, pad, region.dims)
        self.crop = crop = region.data[self.slices]
        tight = _box_slices(box, (1, 1, 1), region.dims)
        tight_in_crop = tuple(slice(t.start - c.start, t.stop - c.start)
                              for t, c in zip(tight, self.slices))
        inside = np.zeros(crop.shape)
        inside[tight_in_crop] = ndimage.distance_transform_edt(
            region.data[tight], sampling=spacing)
        outside = ndimage.distance_transform_edt(~crop, sampling=spacing)
        bias = _SURFACE_BIAS_PITCH * (sum(spacing) / 3.0)
        sd = np.where(
            crop,
            -np.maximum(inside - bias, 0.0),
            np.maximum(outside - bias, 0.0),
        )
        self.distance = ndimage.gaussian_filter(sd, sigma=_SURFACE_SMOOTH_VOX)

    def shell(self, inner_mm: float, outer_mm: float) -> BinaryMask:
        """Voxels with signed distance in [-inner_mm, +outer_mm]."""
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
        return self._full(band)

    def core(self, depth_mm: float) -> BinaryMask:
        """Region voxels deeper than ``depth_mm`` below the surface."""
        return self._full(self.crop & (self.distance < -depth_mm))

    def box(self, mask: BinaryMask):
        """:func:`_index_box` of a non-empty shell or core of this field,
        found on the crop."""
        local = _index_box(np.flatnonzero(mask.data[self.slices]), self.crop.shape)
        return tuple((lo + s.start, hi + s.start)
                     for (lo, hi), s in zip(local, self.slices))

    def _full(self, crop_mask: np.ndarray) -> BinaryMask:
        full = np.zeros_like(self.region.data)
        full[self.slices] = crop_mask
        return BinaryMask(full, self.region.spacing)


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


def _pairs(off, dims) -> tuple[tuple, tuple]:
    """Slices of the first and second voxel of every pair one ``off``
    step apart on a grid of ``dims``."""
    src = tuple(slice(max(0, -o), dims[a] - max(0, o)) for a, o in enumerate(off))
    dst = tuple(slice(max(0, o), dims[a] + min(0, o)) for a, o in enumerate(off))
    return src, dst


def _texture_degenerate(region: BinaryMask, box) -> bool:
    """True when the region, whose :func:`_index_box` is ``box``, has no
    two voxels one GLCM step apart (fewer than 2 voxels among them): its
    co-occurrence matrix is empty whatever the image."""
    crop = region.data[_box_slices(box, (0, 0, 0), region.dims)]
    return not any((crop[src] & crop[dst]).any()
                   for src, dst in (_pairs(off, crop.shape) for off in GLCM_DIRECTIONS))


def _pooled_glcm(quant: np.ndarray, region: np.ndarray) -> np.ndarray | None:
    """Symmetric co-occurrence matrix pooled over the 13 directions,
    normalised to unit mass; None when the region has no voxel pairs."""
    levels = GLCM_LEVELS
    counts = np.zeros((levels, levels), dtype=np.float64)
    for off in GLCM_DIRECTIONS:
        src, dst = _pairs(off, region.shape)
        both = region[src] & region[dst]
        if not both.any():
            continue
        a = quant[src][both]
        b = quant[dst][both]
        c = np.bincount(a * levels + b, minlength=levels * levels)
        c = c.reshape(levels, levels).astype(np.float64)
        counts += c + c.T
    total = counts.sum()
    if total == 0:
        return None
    return counts / total


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


def haralick_features(region: BinaryMask, data: np.ndarray,
                      box) -> tuple[np.ndarray, bool]:
    """13 pooled-GLCM statistics of the region, whose :func:`_index_box`
    is ``box``; degenerate regions (single voxel or no adjacent pairs)
    return zeros with the flag."""
    if region.data.shape != data.shape:
        raise VolumeError("region grid does not match volume")
    sl = _box_slices(box, (0, 0, 0), data.shape)
    crop_region = region.data[sl]
    if crop_region.sum() < 2:
        return np.zeros(len(HARALICK_NAMES)), True
    crop_data = data[sl]
    quant = np.zeros(crop_data.shape, dtype=np.int64)
    quant[crop_region] = _quantize(crop_data[crop_region], GLCM_LEVELS)
    p = _pooled_glcm(quant, crop_region)
    if p is None:
        return np.zeros(len(HARALICK_NAMES)), True
    return _haralick_stats(p), False


# ---------------------------------------------------------------------------
# margin features
# ---------------------------------------------------------------------------

def _shell_gradient_stats(shell: BinaryMask, data: np.ndarray, centroid_mm,
                          box) -> tuple[float, float]:
    """(mean gradient magnitude, mean radial cosine) over the voxels of
    the shell, whose :func:`_index_box` is ``box``."""
    spacing = shell.spacing
    sl = _box_slices(box, (1, 1, 1), data.shape)
    crop = data[sl]
    grads = np.gradient(crop, *spacing) if min(crop.shape) > 1 else [
        np.zeros_like(crop)] * 3
    sel = shell.data[sl]
    g = np.stack([gr[sel] for gr in grads], axis=1)
    gmag = np.sqrt((g ** 2).sum(axis=1))
    coords = np.argwhere(sel).astype(np.float64)
    for a in range(3):
        coords[:, a] = (coords[:, a] + sl[a].start) * spacing[a] - centroid_mm[a]
    rmag = np.sqrt((coords ** 2).sum(axis=1))
    denom = gmag * rmag
    # the cosine is only defined where both the gradient and the radial
    # vector are non-zero; flat voxels carry no direction to average
    defined = denom > 0
    if defined.any():
        cos_mean = float(
            ((g * coords).sum(axis=1)[defined] / denom[defined]).mean())
    else:
        cos_mean = 0.0
    return float(gmag.mean()), cos_mean


def _region_centroid_mm(region: BinaryMask) -> tuple[float, float, float]:
    coords = np.argwhere(region.data)
    return tuple(float(coords[:, a].mean() * region.spacing[a]) for a in range(3))


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
        pts = coords * np.asarray(rc.spacing)
        try:
            hull_vol = ConvexHull(pts).volume
            if hull_vol > 0:
                solidity = min(1.0, vol / hull_vol)
        except QhullError:
            solidity = 1.0

    region = rc.mask().data
    area = _surface_area_mm2(region, rc.spacing)
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


def _relative_series(samples: list[np.ndarray], reducer) -> tuple[np.ndarray, bool]:
    """Per-frame relative change of ``reducer`` vs the first frame."""
    raw = np.array([float(reducer(s)) for s in samples])
    base = raw[0]
    guarded = False
    if abs(base) <= _EPS_BASELINE:
        if np.allclose(raw, 0.0, atol=_EPS_BASELINE):
            return np.zeros(raw.size), False
        guarded = True
        base = _EPS_BASELINE if base >= 0 else -_EPS_BASELINE
    return (raw - raw[0]) / base, guarded


def kinetic_features(rc: RegionCandidate, case: BreastCase,
                     field: _SurfaceField | None = None,
                     need: frozenset = ALL_FEATURES) -> tuple[dict[str, float], dict[str, bool]]:
    """Kinetic feature group at original resolution.

    The enhancement and variance curve summaries are always computed;
    the parametric fit and the core/rim features only when ``need``
    holds one of their outputs (see ``_GROUPS``).

    ``field`` is the candidate's surface field on the original grid,
    reaching at least 2 mm (a scale-1 candidate's scale grid is the
    original grid); a 2 mm field is built when it is None and the
    core/rim features are needed.

    Returns (features, flags) with flags ``fit_fallback`` (with the fit)
    and ``kinetic_guarded`` and ``core_empty`` (with the core/rim).
    """
    groups = _groups_for(need)
    times = np.asarray(case.acquisition_times, dtype=np.float64)
    region_idx = rc.original_indices()
    frames = [case.dce[i].data.ravel()[region_idx] for i in range(len(case.dce))]

    enh, guard_mean = _relative_series(frames, np.mean)
    peak, ttp, uptake, washout = _curve_summary(enh, times)

    base_var = float(frames[0].var())
    guard_var = False
    if base_var <= _EPS_BASELINE:
        var_series = np.zeros(len(frames))
        guard_var = any(float(f.var()) > _EPS_BASELINE for f in frames[1:])
    else:
        var_series = np.array([(float(f.var()) - base_var) / base_var for f in frames])
    vpeak, vttp, vuptake, vwashout = _curve_summary(var_series, times)

    features = {
        "enh_peak": peak, "enh_time_to_peak_s": ttp,
        "enh_uptake_rate": uptake, "enh_washout_rate": washout,
        "var_peak": vpeak, "var_time_to_peak_s": vttp,
        "var_uptake_rate": vuptake, "var_washout_rate": vwashout,
    }
    flags = {}

    if "fit" in groups:
        amp, alpha, beta, rmse, fit_fallback = _fit_enhancement(times, enh, peak)
        features.update(fit_amplitude=amp, fit_alpha=alpha, fit_beta=beta, fit_rmse=rmse)
        flags["fit_fallback"] = bool(fit_fallback)

    if "core_rim" in groups:
        original = rc.original_mask()
        # the 2 mm core and the 1 mm-in/2 mm-out rim share one field
        if field is None:
            field = _SurfaceField(original, 2.0, _index_box(region_idx, original.dims))
        core = field.core(2.0)
        core_empty = core.count == 0
        if core_empty:
            core = original
        shell = field.shell(1.0, 2.0)
        guard_shell = False
        if shell.count == 0:
            shell = original
            guard_shell = True
        core_idx = np.flatnonzero(core.data.ravel())
        shell_idx = np.flatnonzero(shell.data.ravel())
        core_frames = [case.dce[i].data.ravel()[core_idx] for i in (0, 1, len(case.dce) - 1)]
        shell_frames = [case.dce[i].data.ravel()[shell_idx] for i in (0, 1, len(case.dce) - 1)]
        core_enh, g1 = _relative_series(core_frames, np.mean)
        shell_enh, g2 = _relative_series(shell_frames, np.mean)
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

@dataclass(eq=False)
class _ScaleViews:
    t1: np.ndarray
    t2: np.ndarray
    dce0: np.ndarray
    dce1: np.ndarray
    dcesub: np.ndarray
    fat: np.ndarray
    spacing: tuple[float, float, float]


class FeatureExtractor:
    """Extracts the full schema for candidates of one case, caching the
    decimated sequence views per pyramid scale."""

    def __init__(self, case: BreastCase):
        self.case = case
        fat = case.fat_mask.data
        if not fat.any():
            raise VolumeError("fat mask is empty")
        self._fat_means = {
            "t1": float(case.t1.data[fat].mean()),
            "t2": float(case.t2.data[fat].mean()),
            "dce0": float(case.dce[0].data[fat].mean()),
        }
        for name, mean in self._fat_means.items():
            if mean <= 0:
                raise VolumeError(f"non-positive fat mean on {name}")
        self._views: dict[int, _ScaleViews] = {}

    def _scaled(self, data: np.ndarray, m: int) -> np.ndarray:
        if m == 1:
            return data
        vol = scale_image(Volume3D(data, self.case.spacing), m).volume
        return vol.data / LLL_GAIN ** (m - 1)

    def _view(self, m: int) -> _ScaleViews:
        if m not in self._views:
            case = self.case
            sub = case.dce[1].data - case.dce[0].data
            spacing = tuple(s * 2 ** (m - 1) for s in case.spacing)
            self._views[m] = _ScaleViews(
                t1=self._scaled(case.t1.data / self._fat_means["t1"], m),
                t2=self._scaled(case.t2.data / self._fat_means["t2"], m),
                dce0=self._scaled(case.dce[0].data / self._fat_means["dce0"], m),
                dce1=self._scaled(case.dce[1].data / self._fat_means["dce0"], m),
                dcesub=self._scaled(sub / self._fat_means["dce0"], m),
                fat=downscale_mask(case.fat_mask, m).data,
                spacing=spacing,
            )
        return self._views[m]

    def extract(self, rc: RegionCandidate, need=ALL_FEATURES) -> FeatureVector:
        """Feature vector of one candidate.

        ``need`` holds the schema indices the caller reads; each costly
        group with no output in it is skipped and its columns are NaN.
        Computed columns equal those of the full extraction bit for bit.
        """
        need = frozenset(int(k) for k in need)
        groups = _groups_for(need)
        view = self._view(rc.scale_index)
        region = rc.mask()
        idx = rc.flat_indices
        out: dict[str, float] = {}

        for seq in ("t1", "t2", "dce0"):
            vals = getattr(view, seq).ravel()[idx]
            out[f"{seq}_mean"] = float(vals.mean())
            out[f"{seq}_std"] = float(vals.std())
        for seq in ("t1", "t2"):
            vals = getattr(view, seq).ravel()[idx]
            out[f"{seq}_skewness"] = skewness(vals)
            out[f"{seq}_kurtosis"] = pearson_kurtosis(vals)
        t2_vals = view.t2.ravel()[idx]
        out["t2_p20"] = float(np.percentile(t2_vals, 20))
        out["t2_p90"] = float(np.percentile(t2_vals, 90))

        box = _index_box(idx, region.dims)
        # the 20 mm field serves the edema shells, the margin shell and,
        # on the original grid, the kinetic core and rim
        field = None
        if {"edema", "margin"} & groups or ("core_rim" in groups and rc.scale_index == 1):
            field = _SurfaceField(region, _EDEMA_OUTER_MM, box)

        if "edema" in groups:
            out["flag_edema_shell_empty"] = 0.0
            for width, q in EDEMA_SHELLS:
                name = f"edema_t2_p{int(q)}_{int(width)}mm"
                shell = field.shell(0.0, width)
                if shell.count == 0:
                    out[name] = float(np.percentile(t2_vals, q))
                    out["flag_edema_shell_empty"] = 1.0
                else:
                    out[name] = float(np.percentile(view.t2[shell.data], q))

        for seq in MARGIN_SEQUENCES:
            if f"glcm_{seq}" in groups:
                stats, _ = haralick_features(region, getattr(view, seq), box)
                for stat_name, value in zip(HARALICK_NAMES, stats):
                    out[f"{seq}_glcm_{stat_name}"] = float(value)
        if "texture_flag" in groups:
            out["flag_texture_degenerate"] = float(_texture_degenerate(region, box))

        if "margin" in groups:
            margin_shell = field.shell(1.0, 2.0)
            if margin_shell.count == 0:
                out["flag_margin_shell_empty"] = 1.0
                for seq in MARGIN_SEQUENCES:
                    out[f"{seq}_margin_sharpness"] = 0.0
                    out[f"{seq}_rgi"] = 0.0
            else:
                out["flag_margin_shell_empty"] = 0.0
                centroid = _region_centroid_mm(region)
                shell_box = field.box(margin_shell)
                for seq in MARGIN_SEQUENCES:
                    sharp, rgi = _shell_gradient_stats(
                        margin_shell, getattr(view, seq), centroid, shell_box)
                    out[f"{seq}_margin_sharpness"] = sharp
                    out[f"{seq}_rgi"] = rgi

        if "shape" in groups:
            out.update(shape_features(rc, view.fat))

        kin, kin_flags = kinetic_features(
            rc, self.case, field if rc.scale_index == 1 else None, need)
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
