"""Small synthetic breast cases shared across test modules.

These are deliberately simple analytic constructions (ellipsoid breast,
ball lesion, multiplicative enhancement) so expected behaviour can be
reasoned out by hand; the package's own phantom generator is richer and
is tested separately.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from siftcad.candidates import RegionCandidate, _make_candidate
from siftcad.nrrd_io import CaseRecord, load_case, save_mask, save_volume
from siftcad.volume import BinaryMask, BreastCase, Volume3D

from oracles import ball_mask


def _ellipsoid(dims, spacing, centre_mm, semi_mm) -> np.ndarray:
    grids = np.meshgrid(
        *[np.arange(n) * s for n, s in zip(dims, spacing)], indexing="ij"
    )
    d2 = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, centre_mm, semi_mm))
    return d2 <= 1.0


def make_mini_case(
    case_id: str = "mini",
    dims=(48, 48, 24),
    spacing=(1.0, 1.0, 1.3),
    lesion_centre_mm=None,
    lesion_radius_mm: float = 5.0,
    enhancement=(1.0, 0.8, 0.6),
    times=(0.0, 90.0, 180.0, 270.0),
    noise: float = 0.0,
    clutter: float = 0.0,
    seed: int = 7,
) -> BreastCase:
    """Ellipsoid breast with one ball lesion.

    ``enhancement[k]`` is the fractional lesion enhancement of
    post-contrast frame k relative to the pre-contrast frame; ``noise``
    is white and added to every sequence, ``clutter`` adds smooth
    enhancing texture to the post-contrast frames only.
    """
    if len(times) != len(enhancement) + 1:
        raise ValueError("need one acquisition time per frame incl. pre-contrast")
    rng = np.random.default_rng(seed)
    extent = np.array(dims) * np.array(spacing)
    centre = extent / 2.0
    breast = _ellipsoid(dims, spacing, centre, 0.42 * extent)
    gland = _ellipsoid(dims, spacing, centre, 0.18 * extent)
    if lesion_centre_mm is None:
        lesion_centre_mm = centre - np.array([6.0, 0.0, 0.0])
    lesion = ball_mask(dims, spacing, lesion_centre_mm, lesion_radius_mm)
    if not (lesion & breast).sum() == lesion.sum():
        raise ValueError("lesion must lie inside the breast")

    t1 = np.where(breast, 200.0, 5.0)
    t1[gland] = 100.0
    t2 = np.where(breast, 30.0, 2.0)
    t2[lesion] = 150.0
    pre = np.where(breast, 100.0, 5.0)

    frames = [pre]
    for e in enhancement:
        frame = pre * (1.0 + e * lesion)
        if clutter > 0.0:
            texture = ndimage.gaussian_filter(rng.normal(0.0, 1.0, dims), 4.0)
            frame = frame + clutter * texture * breast
        frames.append(frame)

    def vol(arr):
        if noise > 0.0:
            arr = arr + rng.normal(0.0, noise, dims)
        return Volume3D(arr, spacing)

    return BreastCase(
        case_id=case_id,
        side="left",
        t1=vol(t1),
        t2=vol(t2),
        dce=[vol(f) for f in frames],
        acquisition_times=list(times),
        breast_mask=BinaryMask(breast, spacing),
        fat_mask=BinaryMask(breast & ~gland, spacing),
        ground_truth=[BinaryMask(lesion, spacing)],
    )


def integer_case_both_ways(root, step: float = 0.0, **mini_kwargs):
    """A mini case (:func:`make_mini_case` with noise 0.5, clutter 2.0,
    seed 3 unless ``mini_kwargs`` say otherwise) whose volumes hold
    integers in [0, 65535], written to NRRD files under ``root`` and
    loaded with ``load_case``, and the same case built in memory from
    float64 volumes. ``step`` is added to frame 1 in a corner outside the
    breast."""
    mini = make_mini_case(**{"noise": 0.5, "clutter": 2.0, "seed": 3, **mini_kwargs})
    spacing = mini.spacing
    t1, t2, *frames = (np.clip(np.round(v.data), 0, 65535)
                       for v in (mini.t1, mini.t2, *mini.dce))
    frames[1][:4, :4, :] += step
    volumes = {"t1": t1, "t2": t2, **{f"dce{i}": f for i, f in enumerate(frames)}}
    masks = {"breast": mini.breast_mask, "fat": mini.fat_mask, "gt0": mini.ground_truth[0]}
    for name, data in volumes.items():
        save_volume(root / f"{name}.nrrd", Volume3D(data, spacing))
    for name, mask in masks.items():
        save_mask(root / f"{name}.nrrd", mask)
    record = CaseRecord(
        case_id="mini", side="left", t1="t1.nrrd", t2="t2.nrrd",
        dce=[f"dce{i}.nrrd" for i in range(len(frames))],
        acquisition_times=list(mini.acquisition_times), ground_truth=["gt0.nrrd"],
        breast_mask="breast.nrrd", fat_mask="fat.nrrd", base_dir=root)
    in_memory = BreastCase(
        "mini", "left", Volume3D(t1, spacing), Volume3D(t2, spacing),
        [Volume3D(f, spacing) for f in frames], mini.acquisition_times,
        mini.breast_mask, mini.fat_mask, list(mini.ground_truth))
    return load_case(record), in_memory


def candidate_from_mask(mask: BinaryMask, scale_index: int = 1,
                        original_dims=None, original_spacing=None,
                        threshold_index: int = 0) -> RegionCandidate:
    """Wrap a hand-made, non-empty mask on its scale grid as a candidate;
    scales above 1 need the original grid."""
    flat = np.flatnonzero(mask.data.ravel()).astype(np.int64)
    assert flat.size, "candidate mask must be non-empty"
    if original_dims is None:
        assert scale_index == 1, "original grid required for scale > 1"
        original_dims, original_spacing = mask.dims, mask.spacing
    return _make_candidate(flat, scale_index, threshold_index, mask.dims,
                           mask.spacing, tuple(original_dims),
                           tuple(original_spacing))


class ConstModel:
    """A model that scores every row ``p`` and splits on no feature."""

    schema_id = None
    trees = ()

    def __init__(self, p):
        self.p = p

    def predict_proba(self, x):
        return np.full(len(x), self.p)
