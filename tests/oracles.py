"""Independent reference implementations used to freeze expected values.

Everything here is written for clarity over speed: direct evaluation of
the defining formulas, no shared code with the package internals beyond
input conventions (grid layout, histogram binning, border rule).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# grayscale morphology with flat point-set structuring elements
# ---------------------------------------------------------------------------
# Border rule: samples outside the slice are ignored (equivalently the
# erosion pads with +inf and the dilation with -inf).

def naive_erode(f: np.ndarray, offsets) -> np.ndarray:
    nx, ny = f.shape
    out = np.empty_like(f, dtype=np.float64)
    for x in range(nx):
        for y in range(ny):
            best = math.inf
            for dx, dy in offsets:
                px, py = x + dx, y + dy
                if 0 <= px < nx and 0 <= py < ny:
                    best = min(best, f[px, py])
            out[x, y] = best
    return out


def naive_dilate(f: np.ndarray, offsets) -> np.ndarray:
    nx, ny = f.shape
    out = np.empty_like(f, dtype=np.float64)
    for x in range(nx):
        for y in range(ny):
            best = -math.inf
            for dx, dy in offsets:
                px, py = x - dx, y - dy
                if 0 <= px < nx and 0 <= py < ny:
                    best = max(best, f[px, py])
            out[x, y] = best
    return out


def shift_erode(f: np.ndarray, offsets) -> np.ndarray:
    """Vectorised direct erosion (per-offset shifted minimum)."""
    offs = np.asarray(offsets, dtype=np.int64)
    kx = int(np.abs(offs[:, 0]).max(initial=0))
    ky = int(np.abs(offs[:, 1]).max(initial=0))
    nx, ny = f.shape
    pad = np.full((nx + 2 * kx, ny + 2 * ky), np.inf)
    pad[kx:kx + nx, ky:ky + ny] = f
    out = np.full_like(f, np.inf, dtype=np.float64)
    for dx, dy in offs:
        np.minimum(out, pad[kx + dx:kx + dx + nx, ky + dy:ky + dy + ny], out=out)
    return out


def shift_dilate(f: np.ndarray, offsets) -> np.ndarray:
    offs = -np.asarray(offsets, dtype=np.int64)
    kx = int(np.abs(offs[:, 0]).max(initial=0))
    ky = int(np.abs(offs[:, 1]).max(initial=0))
    nx, ny = f.shape
    pad = np.full((nx + 2 * kx, ny + 2 * ky), -np.inf)
    pad[kx:kx + nx, ky:ky + ny] = f
    out = np.full_like(f, -np.inf, dtype=np.float64)
    for dx, dy in offs:
        np.maximum(out, pad[kx + dx:kx + dx + nx, ky + dy:ky + dy + ny], out=out)
    return out


def shift_open(f: np.ndarray, offsets) -> np.ndarray:
    return shift_dilate(shift_erode(f, offsets), offsets)


def direct_ms2d(f: np.ndarray, ml1: float, ml2: float, n_orient: int, rasterize) -> np.ndarray:
    """Direct evaluation of the 2D sifting sum using shift-based morphology.

    ``rasterize`` maps (magnitude, angle) to the structuring element
    point set; the implementation under test supplies its own, so the
    comparison pins the morphology evaluation, with the accumulation
    order fixed to ascending orientation index.
    """
    out = np.zeros_like(f, dtype=np.float64)
    for n in range(n_orient):
        theta = n * math.pi / n_orient
        se_long = rasterize(ml2, theta)
        se_short = rasterize(ml1, theta)
        tophat = f - shift_open(f, se_long)
        out += shift_open(tophat, se_short)
    return out


def direct_ms3d(vol: np.ndarray, plan, n_orient: int, rasterize) -> np.ndarray:
    """Direct evaluation of the three-view sifting sum.

    ``plan`` carries per-view (ml1, ml2) pixel magnitudes; views are
    accumulated axial + sagittal + coronal, matching the documented
    order of the implementation.
    """
    def stack(v, ml1, ml2):
        out = np.empty_like(v, dtype=np.float64)
        for k in range(v.shape[2]):
            out[:, :, k] = direct_ms2d(v[:, :, k], ml1, ml2, n_orient, rasterize)
        return out

    axial = stack(vol, *plan.axial)
    sag = np.transpose(stack(np.transpose(vol, (0, 2, 1)), *plan.sagittal), (0, 2, 1))
    cor = np.transpose(stack(np.transpose(vol, (2, 1, 0)), *plan.coronal), (2, 1, 0))
    return axial + sag + cor


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------

def otsu_exhaustive_index(hist) -> int:
    """Classic single Otsu: maximise w0*w1*(mu0-mu1)^2 over the split bin."""
    h = np.asarray(hist, dtype=np.float64)
    p = h / h.sum()
    best_t, best_v = 0, -1.0
    for t in range(len(h) - 1):
        w0 = p[: t + 1].sum()
        w1 = 1.0 - w0
        if w0 <= 0 or w1 <= 0:
            v = 0.0
        else:
            mu0 = (np.arange(t + 1) * p[: t + 1]).sum() / w0
            mu1 = (np.arange(t + 1, len(h)) * p[t + 1:]).sum() / w1
            v = w0 * w1 * (mu0 - mu1) ** 2
        if v > best_v:
            best_t, best_v = t, v
    return best_t


def multilevel_otsu_exhaustive(hist, t_count: int) -> tuple[int, ...]:
    """Enumerate every threshold combination; first maximiser wins.

    Maximises the sum of per-class s^2/w terms. Combinations are visited
    in lexicographic order, so ties resolve to the smallest tuple.
    """
    h = np.asarray(hist, dtype=np.float64)
    p = h / h.sum()
    n = len(h)
    cw = np.concatenate(([0.0], np.cumsum(p)))
    cs = np.concatenate(([0.0], np.cumsum(p * np.arange(n))))

    def term(i, j):
        w = cw[j + 1] - cw[i]
        if w <= 0:
            return 0.0
        s = cs[j + 1] - cs[i]
        return s * s / w

    best, best_v = None, -1.0
    for combo in itertools.combinations(range(n - 1), t_count):
        edges = (-1, *combo, n - 1)
        v = sum(term(edges[c] + 1, edges[c + 1]) for c in range(t_count + 1))
        if v > best_v:
            best, best_v = combo, v
    return tuple(best)


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def ball_mask(dims, spacing, centre_mm, radius_mm) -> np.ndarray:
    """Voxel centres within an analytic ball."""
    grids = np.meshgrid(
        *[np.arange(n) * s for n, s in zip(dims, spacing)], indexing="ij"
    )
    d2 = sum((g - c) ** 2 for g, c in zip(grids, centre_mm))
    return d2 <= radius_mm ** 2


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(bool)
    b = b.astype(bool)
    na, nb = a.sum(), b.sum()
    if na + nb == 0:
        return 1.0
    return 2.0 * np.logical_and(a, b).sum() / (na + nb)


def glcm_contrast_paircount(quant: np.ndarray, region: np.ndarray, offsets) -> float:
    """Haralick contrast via explicit symmetric pair counting."""
    pairs = []
    idx = np.argwhere(region)
    lookup = set(map(tuple, idx))
    for x, y, z in idx:
        for dx, dy, dz in offsets:
            q = (x + dx, y + dy, z + dz)
            if q in lookup:
                pairs.append((quant[x, y, z], quant[q]))
                pairs.append((quant[q], quant[x, y, z]))
    if not pairs:
        return 0.0
    total = len(pairs)
    acc = 0.0
    for i, j in pairs:
        acc += (int(i) - int(j)) ** 2
    return acc / total
