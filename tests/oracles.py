"""Independent reference implementations used to freeze expected values.

Everything here is written for clarity over speed: direct evaluation of
the defining formulas, no shared code with the package internals beyond
input conventions (grid layout, histogram binning, border rule).
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import ndimage


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
    """Single Otsu threshold by exhaustive scan, in exact rational
    arithmetic on the integer counts: maximise ``s0**2/w0 + s1**2/w1``
    (class mass w, first moment s, an empty class contributing 0) over
    the split bin; the first maximiser wins. Exact arithmetic makes the
    splits on a plateau of empty bins tie exactly, so the tie rule is
    checked, not rounding."""
    counts = [int(c) for c in hist]
    if counts != list(hist):
        raise ValueError("histogram counts must be integers")
    n = len(counts)
    best_t, best_v = 0, None
    for t in range(n - 1):
        v = Fraction(0)
        for cls in (range(t + 1), range(t + 1, n)):
            w = sum(counts[k] for k in cls)
            s = sum(k * counts[k] for k in cls)
            if w:
                v += Fraction(s * s, w)
        if best_v is None or v > best_v:
            best_t, best_v = t, v
    return best_t


def multilevel_otsu_exhaustive(hist, t_count: int) -> tuple[int, ...]:
    """Enumerate every threshold combination; first maximiser wins.

    Maximises the sum of per-class s^2/w terms. Combinations are ranked
    in float64, then every one within a relative 1e-9 of the float
    maximum is scored again in exact rational arithmetic on the integer
    counts, as in :func:`otsu_exhaustive_index`, so exact ties resolve to
    the lexicographically smallest tuple and rounding decides nothing.
    """
    counts = [int(c) for c in hist]
    if counts != list(hist):
        raise ValueError("histogram counts must be integers")
    h = np.asarray(counts, dtype=np.float64)
    p = h / h.sum()
    n = len(h)
    cw = np.concatenate(([0.0], np.cumsum(p)))
    cs = np.concatenate(([0.0], np.cumsum(p * np.arange(n))))

    def term(i, j):
        w = cw[j + 1] - cw[i]
        if w <= 0:
            return 0.0
        s = cs[j + 1] - cs[i]
        return float(s * s / w)

    # term of every class [i..j], each computed once
    table = [[term(i, j) for j in range(n)] for i in range(n)]
    combos = list(itertools.combinations(range(n - 1), t_count))
    values = [sum(table[edges[c] + 1][edges[c + 1]] for c in range(t_count + 1))
              for edges in ((-1, *combo, n - 1) for combo in combos)]
    top = max(values)
    near = [combo for combo, v in zip(combos, values) if v >= top - 1e-9 * abs(top)]
    # exact prefix sums of mass and first moment
    mass = [0, *itertools.accumulate(counts)]
    moment = [0, *itertools.accumulate(k * c for k, c in enumerate(counts))]

    def exact(combo):
        edges = (-1, *combo, n - 1)
        v = Fraction(0)
        for c in range(t_count + 1):
            w = mass[edges[c + 1] + 1] - mass[edges[c] + 1]
            if w:
                s = moment[edges[c + 1] + 1] - moment[edges[c] + 1]
                v += Fraction(s * s, w)
        return v

    # max keeps the first of equal maxima: the lexicographically smallest
    return max(near, key=exact)


# ---------------------------------------------------------------------------
# wavelet analysis
# ---------------------------------------------------------------------------

def analysis_axis_padded(x: np.ndarray, axis: int, filt: np.ndarray) -> np.ndarray:
    """One analysis step along ``axis`` on explicit copies: an odd axis
    padded by its last sample, then a symmetric extension by three
    samples per side (``np.pad``), then the four taps summed from zero
    on the extended signal, every other output from sample 1 on."""
    if x.shape[axis] % 2:
        pad = [(0, 0)] * x.ndim
        pad[axis] = (0, 1)
        x = np.pad(x, pad, mode="edge")
    n, taps = x.shape[axis], len(filt)
    pad = [(0, 0)] * x.ndim
    pad[axis] = (taps - 1, taps - 1)
    xe = np.moveaxis(np.pad(x, pad, mode="symmetric"), axis, -1)
    nsub = n // 2 + 1
    out = np.zeros(xe.shape[:-1] + (nsub,), dtype=np.float64)
    for i in range(taps):
        out += filt[taps - 1 - i] * xe[..., 1 + i:1 + i + 2 * nsub - 1:2]
    return np.moveaxis(out, -1, axis)


def lll_padded(data: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """The low-pass step along axes 0, 1 and 2 in turn."""
    for axis in range(3):
        data = analysis_axis_padded(data, axis, filt)
    return data


# ---------------------------------------------------------------------------
# component sieve
# ---------------------------------------------------------------------------

def label_index_lists(binary: np.ndarray) -> list[np.ndarray]:
    """Sorted flat-index arrays of the 26-connected components of the
    whole grid, in raster order of their first voxels."""
    labels, n = ndimage.label(binary, structure=np.ones((3, 3, 3), dtype=bool))
    if n == 0:
        return []
    flat = labels.ravel()
    nz = np.flatnonzero(flat)
    order = nz[np.argsort(flat[nz], kind="stable")]
    counts = np.bincount(flat[nz], minlength=n + 1)
    pieces = np.split(order, np.cumsum(counts[1:-1]))
    pieces.sort(key=lambda ix: ix[0])
    return pieces


def sieve_components(data: np.ndarray, thresholds, lo: float, hi: float,
                     voxvol: float) -> list[list[np.ndarray]]:
    """Per threshold, every component of ``data >= th`` on the whole grid
    whose voxel count times ``voxvol`` lies in [lo, hi]."""
    return [[ix for ix in label_index_lists(data >= th) if lo <= ix.size * voxvol <= hi]
            for th in thresholds]


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


def rim_shell_whole_grid(region: np.ndarray, spacing, reach_mm: float) -> np.ndarray:
    """Voxels outside ``region`` within ``reach_mm`` of it, from one
    distance transform of the whole grid."""
    return (ndimage.distance_transform_edt(~region, sampling=spacing) <= reach_mm) & ~region


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(bool)
    b = b.astype(bool)
    na, nb = a.sum(), b.sum()
    if na + nb == 0:
        return 1.0
    return 2.0 * np.logical_and(a, b).sum() / (na + nb)


def fusion_survivors(masks, keys) -> list[int]:
    """Label fusion by brute force: group the masks by transitive voxel
    overlap (breadth-first over every pair), keep the member of each
    group with the largest key, the lowest index among equal keys, and
    return the survivors' indices in ascending order."""
    n = len(masks)
    seen = [False] * n
    keep = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        group, frontier = [start], [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if not seen[j] and np.logical_and(masks[i], masks[j]).any():
                    seen[j] = True
                    group.append(j)
                    frontier.append(j)
        keep.append(max(sorted(group), key=lambda k: keys[k]))
    return sorted(keep)


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


# ---------------------------------------------------------------------------
# surface shells, one distance field per shell
# ---------------------------------------------------------------------------
# The shell and erosion as first written: every call crops the region's
# bounding box with its own pad, runs both distance transforms on that
# crop and smooths it. Same conventions as the package: bias of a third
# of the mean pitch, Gaussian sigma 0.8 voxel, pad ceil(outer / s) + 4.

_SURFACE_BIAS_PITCH = 1.0 / 3.0
_SURFACE_SMOOTH_VOX = 0.8


def _padded_bbox(data: np.ndarray, pad) -> tuple:
    out = []
    for axis, p in enumerate(pad):
        hit = np.flatnonzero(data.any(axis=tuple(a for a in range(3) if a != axis)))
        out.append(slice(max(0, hit[0] - p), min(data.shape[axis], hit[-1] + 1 + p)))
    return tuple(out)


def per_shell_distance(crop: np.ndarray, spacing) -> np.ndarray:
    bias = _SURFACE_BIAS_PITCH * (sum(spacing) / 3.0)
    inside = ndimage.distance_transform_edt(crop, sampling=spacing)
    outside = ndimage.distance_transform_edt(~crop, sampling=spacing)
    sd = np.where(crop, -np.maximum(inside - bias, 0.0),
                  np.maximum(outside - bias, 0.0))
    return ndimage.gaussian_filter(sd, sigma=_SURFACE_SMOOTH_VOX)


def per_shell_band(region: np.ndarray, spacing, inner_mm: float,
                   outer_mm: float) -> np.ndarray:
    """Voxels with smoothed signed surface distance in
    [-inner_mm, +outer_mm], from a field cropped for this shell alone."""
    pad = tuple(int(math.ceil(outer_mm / s)) + 4 for s in spacing)
    sl = _padded_bbox(region, pad)
    crop = region[sl]
    sd = per_shell_distance(crop, spacing)
    band = np.zeros_like(crop)
    if inner_mm > 0:
        band |= crop & (sd >= -inner_mm)
    if outer_mm > 0:
        band |= ~crop & (sd <= outer_mm)
    full = np.zeros_like(region)
    full[sl] = band
    return full


def per_shell_core(region: np.ndarray, spacing, depth_mm: float) -> np.ndarray:
    """Region voxels with smoothed signed distance below -depth_mm, from
    a field cropped 4 voxels past the bounding box."""
    sl = _padded_bbox(region, (4, 4, 4))
    crop = region[sl]
    sd = per_shell_distance(crop, spacing)
    full = np.zeros_like(region)
    full[sl] = crop & (sd < -depth_mm)
    return full


# ---------------------------------------------------------------------------
# training labels through the DSI matrix
# ---------------------------------------------------------------------------
# The labelling as first written: every candidate's and every lesion's
# DSI from ``dsi_matrix``, one sparse incidence of all their indices.

def training_labels_by_dsi_matrix(candidates, ground_truth) -> list[tuple]:
    """``(label, lesion_index, best_dsi)`` of each candidate against the
    lesion masks: positive for the best candidate of a lesion at DSI 0.6
    or more, negative below 0.2 to every lesion, neutral otherwise."""
    from siftcad.volume import dsi_matrix

    n_c, n_l = len(candidates), len(ground_truth)
    mat = dsi_matrix([c.original_indices() for c in candidates],
                     [np.flatnonzero(m.data) for m in ground_truth])
    winner_of = [None] * n_c
    for j in range(n_l):
        if n_c == 0:
            break
        i = int(np.argmax(mat[:, j]))
        if mat[i, j] >= 0.6:
            prev = winner_of[i]
            if prev is None or mat[i, j] > mat[i, prev]:
                winner_of[i] = j
    out = []
    for i in range(n_c):
        best = float(mat[i].max()) if n_l else 0.0
        if winner_of[i] is not None:
            out.append((1, winner_of[i], best))
        elif best < 0.2:
            out.append((-1, None, best))
        else:
            out.append((0, None, best))
    return out


# ---------------------------------------------------------------------------
# tree split search, one feature at a time
# ---------------------------------------------------------------------------
# The per-feature loop the package used before it scored all features of
# a node in one pass: stable sort, cumulative weights, total-weight-scaled
# Gini on both sides of every cut between distinct values, and a strict
# `<` across features so ties keep the lowest feature, then threshold.

def _scaled_gini(wt, wpt):
    with np.errstate(divide="ignore", invalid="ignore"):
        g = wt - (wpt ** 2 + (wt - wpt) ** 2) / wt
    return np.where(wt > 0, g, 0.0)


def per_feature_best_split(x, w, wp, idx, feat_ids):
    """(feature, threshold, gain) of the best split of node ``idx``, or None."""
    wn = w[idx]
    wpn = wp[idx]
    wt = wn.sum()
    wpt = wpn.sum()
    parent = float(_scaled_gini(np.array(wt), np.array(wpt)))
    best = None
    for f in feat_ids:
        xs = x[idx, f]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        cw = np.cumsum(wn[order])
        cwp = np.cumsum(wpn[order])
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        if cut.size == 0:
            continue
        wl = cw[cut]
        wpl = cwp[cut]
        total = _scaled_gini(wl, wpl) + _scaled_gini(wt - wl, wpt - wpl)
        k = int(np.argmin(total))
        if best is None or total[k] < best[0]:
            thr = 0.5 * (xs[cut[k]] + xs[cut[k] + 1])
            best = (float(total[k]), f, float(thr))
    if best is None:
        return None
    return best[1], best[2], parent - best[0]


# ---------------------------------------------------------------------------
# tree descent, one row and one node at a time
# ---------------------------------------------------------------------------

def tree_walk(tree, x) -> tuple[np.ndarray, np.ndarray]:
    """(value, determined) per row of ``x``: the value of the node where
    the row's path through ``tree`` ends, walked one node at a time. The
    path ends at a leaf (determined) or at a split on a column the row
    holds NaN in (undetermined)."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right, value = tree.left.tolist(), tree.right.tolist(), tree.value.tolist()
    values, determined = [], []
    for row in np.asarray(x, dtype=np.float64).tolist():
        node, known = 0, True
        while feature[node] >= 0:
            v = row[feature[node]]
            if math.isnan(v):
                known = False
                break
            node = left[node] if v < threshold[node] else right[node]
        values.append(value[node])
        determined.append(known)
    return np.array(values, dtype=np.float64), np.array(determined, dtype=bool)


def rusboost_scores_per_tree(model, x) -> np.ndarray:
    """RUSBoost scores accumulated one tree at a time, in round order;
    a tree votes +1 on rows whose leaf value is at least 0.5."""
    x = np.asarray(x, dtype=np.float64)
    total = float(model.alphas.sum()) if len(model.trees) else 0.0
    if total <= 0:
        return np.full(len(x), 0.5)
    margin = np.zeros(len(x))
    for tree, alpha in zip(model.trees, model.alphas):
        margin += alpha * np.where(tree_walk(tree, x)[0] >= 0.5, 1.0, -1.0)
    return 1.0 / (1.0 + np.exp(-margin / total))


# ---------------------------------------------------------------------------
# best-first tree growth, one tree and one node at a time
# ---------------------------------------------------------------------------
# The grower the package used before it grew a forest's trees in lockstep:
# one heap of open nodes keyed (-gain, creation counter), children created
# left then right, and each splittable child's features drawn from the
# tree's generator as the child is created.

def grow_tree(x, y, w, max_splits, m_try, rng) -> dict:
    """``DecisionTree.to_dict()`` of the tree fit on every row of ``x``
    with position weights ``w`` (``m_try=None``: every feature)."""
    n, nf = x.shape
    wp = np.where(y > 0, w, 0.0)
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(idx) -> int:
        wt = w[idx].sum()
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(wp[idx].sum() / wt) if wt > 0 else 0.5)
        return len(feature) - 1

    def propose(node_id, idx, counter):
        yn, wn = y[idx], w[idx]
        if idx.size < 2 or not ((wn[yn > 0] > 0).any() and (wn[yn < 0] > 0).any()):
            return None
        ids = np.arange(nf) if m_try is None else np.sort(
            rng.choice(nf, size=m_try, replace=False))
        found = per_feature_best_split(x, w, wp, idx, ids)
        if found is None:
            return None
        f, thr, gain = found
        return (-gain, counter, node_id, idx, int(f), thr)

    heap = []
    counter = 0
    root_idx = np.arange(n)
    new_node(root_idx)
    entry = propose(0, root_idx, counter)
    if entry is not None:
        heapq.heappush(heap, entry)
    splits = 0
    while heap and splits < max_splits:
        _, _, node_id, idx, f, thr = heapq.heappop(heap)
        go = x[idx, f] < thr
        li, ri = idx[go], idx[~go]
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = new_node(li)
        right[node_id] = new_node(ri)
        splits += 1
        for child_id, child_idx in ((left[node_id], li), (right[node_id], ri)):
            counter += 1
            entry = propose(child_id, child_idx, counter)
            if entry is not None:
                heapq.heappush(heap, entry)
    return {"feature": feature, "threshold": threshold, "left": left,
            "right": right, "value": value, "n_features": nf}


# ---------------------------------------------------------------------------
# the detection pipeline on full feature vectors
# ---------------------------------------------------------------------------
# Composes the package's own stages as ``run_pipeline`` did before it
# extracted only the features each model splits on: every feature of
# every candidate, and the survivors' malignancy scores from those same
# vectors.

def full_vector_pipeline(case, lesion_model, malignancy_model, config):
    """Detections of ``run_pipeline`` computed from full feature vectors."""
    from siftcad.candidates import generate_candidates
    from siftcad.classifiers import predict
    from siftcad.evaluation import Detection, fuse_labels
    from siftcad.features import FeatureExtractor

    candidates = generate_candidates(
        case, m_scales=config.m_scales, n_orient=config.n_orient,
        t_count=config.t_count, v_min=config.v_min, v_max=config.v_max)
    extractor = FeatureExtractor(case)
    vectors = [extractor.extract(cand).values for cand in candidates]
    scores = predict(lesion_model, np.stack(vectors)) if vectors else []
    kept = [(cand, vec, float(score))
            for cand, vec, score in zip(candidates, vectors, scores)
            if score >= config.theta_lesion]
    detections = [
        Detection(indices=cand.original_indices(), dims=cand.original_dims,
                  spacing=cand.original_spacing, lesion_score=score,
                  scale_index=cand.scale_index,
                  threshold_index=cand.threshold_index)
        for cand, _, score in kept
    ]
    vec_of = {id(d): vec for d, (_, vec, _) in zip(detections, kept)}
    fused = fuse_labels(detections)
    if malignancy_model is not None and fused:
        malig = predict(malignancy_model, np.stack([vec_of[id(det)] for det in fused]))
        for det, m in zip(fused, malig):
            det.malignancy_score = float(m)
            det.malignant = det.malignancy_score >= config.theta_malig
    return fused
