"""Seeded synthetic breast-MRI cases with analytic ground truth.

Cases are half-ellipsoid breasts (flat chest wall, bright fat on T1)
containing lesions voxelized from analytic shapes: balls, lobulated
balls, and segmental non-mass-like unions of small blobs along a bent
path. Lesion voxels follow a programmed kinetic curve on the DCE
frames (fast rise and washout for the malignant class, slow monotone
rise for the benign class); glandular clutter enhances weakly so
candidate generation sees realistic false-positive material. With the
seed fixed the output is bit-reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from .nrrd_io import CaseRecord, save_manifest, save_mask, save_volume
from .volume import BinaryMask, BreastCase, Volume3D, VolumeError

SHAPES = ("ball", "lobulated", "segmental-nml")
KINETIC_CLASSES = ("malignant-washout", "benign-persistent")

MIN_LESION_DIAMETER_MM = 4.0
MAX_LESION_DIAMETER_MM = 63.0

# tissue intensities (arbitrary units, stored as 16-bit on disk)
T1_FAT, T1_GLAND, T1_BG = 220.0, 90.0, 4.0
T2_FAT, T2_GLAND, T2_BG = 35.0, 60.0, 3.0
T2_LESION, T2_RIM = 180.0, 320.0
DCE_FAT, DCE_GLAND, DCE_BG = 120.0, 100.0, 5.0

# fraction of the breast half-ellipsoid axes occupied by gland
_GLAND_SCALE = 0.62
# clutter enhancement rises slowly toward this time constant (s)
_CLUTTER_TAU_S = 300.0
# correlation length of the glandular clutter texture (mm)
_CLUTTER_SCALE_MM = 7.0
# grid step of the reference grid that measures composite lesions (mm)
_VOLUME_GRID_MM = 0.25


def kinetic_curve(name: str):
    """Relative-enhancement curve E(t) for a kinetic class, E(0) = 0."""
    if name == "malignant-washout":
        return lambda t: 1.45 * (1.0 - math.exp(-0.035 * t)) * math.exp(-0.004 * t)
    if name == "benign-persistent":
        return lambda t: 1.1 * (1.0 - math.exp(-t / 150.0))
    raise VolumeError(f"unknown kinetic class {name!r}")


@dataclass(frozen=True)
class LesionSpec:
    """One analytic lesion: where, how big, what shape and kinetics."""

    centre_mm: tuple[float, float, float]
    diameter_mm: float
    shape: str = "ball"
    kinetic: str = "malignant-washout"
    rim: bool = False
    variant: int = 0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise VolumeError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.kinetic not in KINETIC_CLASSES:
            raise VolumeError(
                f"kinetic class must be one of {KINETIC_CLASSES}, got {self.kinetic!r}")
        if not MIN_LESION_DIAMETER_MM <= self.diameter_mm <= MAX_LESION_DIAMETER_MM:
            raise VolumeError(
                f"lesion diameter must be in [{MIN_LESION_DIAMETER_MM}, "
                f"{MAX_LESION_DIAMETER_MM}] mm, got {self.diameter_mm}")

    @property
    def malignant(self) -> bool:
        return self.kinetic == "malignant-washout"


@dataclass(frozen=True)
class PhantomSpec:
    """Full description of one synthetic case."""

    case_id: str = "phantom"
    side: str = "left"
    dims: tuple[int, int, int] = (112, 112, 56)
    spacing: tuple[float, float, float] = (0.8, 0.8, 1.3)
    lesions: tuple[LesionSpec, ...] = ()
    noise_sigma: float = 0.0
    clutter_amp: float = 0.25
    times: tuple[float, ...] = (0.0, 90.0, 180.0, 270.0)
    seed: int = 0

    def __post_init__(self):
        if len(self.times) < 2 or np.any(np.diff(self.times) <= 0):
            raise VolumeError("need at least 2 strictly increasing frame times")
        if self.noise_sigma < 0 or self.clutter_amp < 0:
            raise VolumeError("noise and clutter amplitudes must be non-negative")


# ---------------------------------------------------------------------------
# analytic shapes
# ---------------------------------------------------------------------------

def _grids(dims, spacing):
    return [np.arange(n, dtype=np.float64) * s for n, s in zip(dims, spacing)]


def _ellipsoid(dims, spacing, centre, semi) -> np.ndarray:
    gx, gy, gz = _grids(dims, spacing)
    q = ((gx - centre[0]) / semi[0]) ** 2
    q = q[:, None, None] + (((gy - centre[1]) / semi[1]) ** 2)[None, :, None]
    q = q + (((gz - centre[2]) / semi[2]) ** 2)[None, None, :]
    return q <= 1.0


def lesion_components(lesion: LesionSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(centre_mm, semi_axes_mm) ellipsoids whose union is the lesion.

    The layout is a pure function of the lesion spec, so stored masks
    can always be re-voxelized identically.
    """
    rng = np.random.default_rng(lesion.variant)
    c = np.asarray(lesion.centre_mm, dtype=np.float64)
    r = lesion.diameter_mm / 2.0
    if lesion.shape == "ball":
        return [(c, np.full(3, r))]
    if lesion.shape == "lobulated":
        comps = [(c, np.full(3, r))]
        for _ in range(3):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            comps.append((c + 0.55 * r * d, np.full(3, 0.55 * r)))
        return comps
    # segmental-nml: 3-6 blobs along a bent path spanning the diameter
    k = int(rng.integers(3, 7))
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    p = rng.standard_normal(3)
    p -= u * (p @ u)
    p /= np.linalg.norm(p)
    length = 0.9 * lesion.diameter_mm
    bend = 0.25 * length
    comps = []
    for s in np.linspace(-0.5, 0.5, k):
        centre = c + s * length * u + (1.0 - 4.0 * s * s) * bend * p
        radius = 0.22 * lesion.diameter_mm * (1.0 + 0.15 * rng.uniform(-1, 1))
        comps.append((centre, np.full(3, radius)))
    return comps


def lesion_mask(lesion: LesionSpec, dims, spacing) -> BinaryMask:
    """Voxelization of the analytic lesion on the case grid."""
    out = np.zeros(dims, dtype=bool)
    for centre, semi in lesion_components(lesion):
        out |= _ellipsoid(dims, spacing, centre, semi)
    return BinaryMask(out, spacing)


def analytic_lesion_volume_mm3(lesion: LesionSpec) -> float:
    """Volume of the analytic shape; balls use the exact formula and
    composites a fine reference grid."""
    if lesion.shape == "ball":
        return math.pi / 6.0 * lesion.diameter_mm ** 3
    resolution_mm = _VOLUME_GRID_MM
    comps = lesion_components(lesion)
    lo = np.min([c - s for c, s in comps], axis=0) - resolution_mm
    hi = np.max([c + s for c, s in comps], axis=0) + resolution_mm
    n = np.ceil((hi - lo) / resolution_mm).astype(int) + 1
    grids = [lo[a] + np.arange(n[a]) * resolution_mm for a in range(3)]
    total = np.zeros(tuple(n), dtype=bool)
    for centre, semi in comps:
        q = ((grids[0] - centre[0]) / semi[0]) ** 2
        q = q[:, None, None] + (((grids[1] - centre[1]) / semi[1]) ** 2)[None, :, None]
        q = q + (((grids[2] - centre[2]) / semi[2]) ** 2)[None, None, :]
        total |= q <= 1.0
    return float(total.sum()) * resolution_mm ** 3


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------

def _breast_geometry(dims, spacing):
    extent = np.asarray(dims, dtype=np.float64) * np.asarray(spacing)
    wall_x = 0.08 * extent[0]
    centre = np.array([wall_x, extent[1] / 2.0, extent[2] / 2.0])
    semi = np.array([0.82 * (extent[0] - wall_x), 0.42 * extent[1],
                     0.42 * extent[2]])
    return centre, semi


def _breast_masks(dims, spacing):
    centre, semi = _breast_geometry(dims, spacing)
    gx = _grids(dims, spacing)[0]
    anterior = (gx >= centre[0])[:, None, None]
    breast = _ellipsoid(dims, spacing, centre, semi) & anterior
    gland = _ellipsoid(dims, spacing, centre, semi * _GLAND_SCALE) & anterior
    return breast, gland


# width of the bright T2 shell around a rim lesion
_RIM_MM = 2.0


def rim_shell(region: np.ndarray, spacing, reach_mm: float):
    """``(box, near)``: the voxels outside ``region`` within ``reach_mm``
    of it, as a boolean ``near`` on the grid's sub-box ``box``.

    The box is the region's bounding box grown by
    ``ceil(reach_mm / s) + 1`` voxels per axis and clipped to the grid.
    It holds every voxel in reach and every region voxel, so each
    distance is to the same nearest region voxel as on the whole grid.
    """
    box = []
    for axis, s in enumerate(spacing):
        hit = np.flatnonzero(region.any(axis=tuple(a for a in range(3) if a != axis)))
        pad = math.ceil(reach_mm / s) + 1
        box.append(slice(max(0, hit[0] - pad), min(region.shape[axis], hit[-1] + 1 + pad)))
    box = tuple(box)
    outside = ~region[box]
    near = ndimage.distance_transform_edt(outside, sampling=spacing) <= reach_mm
    return box, near & outside


def _anatomy(spec: PhantomSpec):
    """``(breast, gland, fat, truths)``: the case's boolean breast, gland
    and fat masks and each lesion's ground-truth mask."""
    breast, gland = _breast_masks(spec.dims, spec.spacing)
    truths = []
    for lesion in spec.lesions:
        m = lesion_mask(lesion, spec.dims, spec.spacing)
        if m.count == 0 or (m.data & ~breast).any():
            raise VolumeError(
                f"lesion at {lesion.centre_mm} falls outside the breast")
        truths.append(m)
    return breast, gland, breast & ~gland, truths


# voxels of the noise drawn per block: noise needs no full grid, and
# blocks of one C-order stream draw the same values as one whole grid
_NOISE_BLOCK = 1 << 16


def _volumes(spec: PhantomSpec, anatomy) -> Iterator[np.ndarray]:
    """The case's T1, T2 and DCE frames, noised, in the rng's draw order.

    Each volume is made when the caller asks for the next one and the
    generator keeps no reference to it, so a caller that drops each
    volume holds one at a time. Every frame is the pre-contrast frame
    times ``1 + clutter * k(t)``, and lesion voxels take their kinetic
    curve; the pre-contrast frame is piecewise constant, so each frame
    is rebuilt from the masks, and the clutter is kept on the voxels it
    reaches only.
    """
    dims, spacing = spec.dims, spec.spacing
    breast, gland, fat, truths = anatomy
    rng = np.random.default_rng(spec.seed)
    lesion_union = np.zeros(dims, dtype=bool)
    for m in truths:
        lesion_union |= m.data

    def tissue(background, gland_value, fat_value):
        v = np.full(dims, background)
        v[gland] = gland_value
        v[fat] = fat_value
        return v

    def noised(v):
        # per voxel max(v + sigma * noise, 0), the noise drawn in C order
        if spec.noise_sigma > 0:
            flat = v.reshape(-1)
            noise = np.empty(min(_NOISE_BLOCK, flat.size))
            for start in range(0, flat.size, noise.size):
                part = flat[start:start + noise.size]
                block = noise[:part.size]
                rng.standard_normal(out=block)
                block *= spec.noise_sigma
                part += block
                np.maximum(part, 0.0, out=part)
        return v

    def pre_contrast():
        v = tissue(DCE_BG, DCE_GLAND, DCE_FAT)
        v[lesion_union] = DCE_GLAND
        return v

    # smooth half-wave-rectified noise: patchy weak gland enhancement,
    # drawn before any volume's noise
    sig = [_CLUTTER_SCALE_MM / s for s in spacing]
    texture = ndimage.gaussian_filter(rng.standard_normal(dims), sigma=sig)
    std = float(texture.std())
    if std > 0:
        texture /= std
    enhancing = gland & ~lesion_union
    clutter = spec.clutter_amp * np.clip(texture[enhancing], 0.0, None)
    del texture

    yield noised(tissue(T1_BG, T1_GLAND, T1_FAT))

    t2 = tissue(T2_BG, T2_GLAND, T2_FAT)
    for lesion, m in zip(spec.lesions, truths):
        t2[m.data] = T2_LESION
        if lesion.rim:
            box, near = rim_shell(m.data, spacing, _RIM_MM)
            t2[box][near & breast[box] & ~lesion_union[box]] = T2_RIM
    yield noised(t2)
    del t2

    yield noised(pre_contrast())
    for t in spec.times[1:]:
        # each voxel goes through the same operations, in the same
        # order, as (1 + clutter * k) * pre, where the clutter is 0 off
        # ``enhancing``; a lesion voxel's pre is DCE_GLAND
        frame = pre_contrast()
        k = 1.0 - math.exp(-t / _CLUTTER_TAU_S)
        frame[enhancing] = (clutter * k + 1.0) * frame[enhancing]
        for lesion, m in zip(spec.lesions, truths):
            frame[m.data] = DCE_GLAND * (1.0 + kinetic_curve(lesion.kinetic)(t))
        yield noised(frame)
        del frame


def generate_case(spec: PhantomSpec):
    """Materialise one case: (BreastCase, ground truths, malignancy labels).

    The volumes are the stream :func:`generate_suite` writes, collected.
    Noiseless cases reproduce each lesion's programmed relative
    enhancement exactly (the curve is applied multiplicatively to the
    pre-contrast frame on lesion voxels only).
    """
    anatomy = _anatomy(spec)
    breast, _, fat, truths = anatomy
    t1, t2, *dce = (Volume3D(v, spec.spacing) for v in _volumes(spec, anatomy))
    case = BreastCase(
        case_id=spec.case_id,
        side=spec.side,
        t1=t1,
        t2=t2,
        dce=dce,
        acquisition_times=list(spec.times),
        breast_mask=BinaryMask(breast, spec.spacing),
        fat_mask=BinaryMask(fat, spec.spacing),
        ground_truth=truths,
    )
    return case, truths, [l.malignant for l in spec.lesions]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# outermost reach of each shape from its nominal centre, per unit diameter
_FIT_FACTOR = {"ball": 0.5, "lobulated": 0.56, "segmental-nml": 0.72}


def _place_lesion(rng, shape, diameter, variant, dims, spacing, breast, occupied):
    """Find a centre whose voxelized lesion fits inside the breast and
    does not touch previously placed lesions. Shrinks the diameter when
    the breast cannot host it."""
    centre, semi = _breast_geometry(dims, spacing)
    d = diameter
    for attempt in range(300):
        r_fit = _FIT_FACTOR[shape] * d + 2.0
        feasible = 0.92 * semi - r_fit
        if np.any(feasible <= 0):
            d *= 0.85
            continue
        v = rng.uniform(-1.0, 1.0, size=3)
        if v @ v > 1.0:
            continue
        v[0] = abs(v[0])
        cand = centre + v * feasible
        if cand[0] < centre[0] + r_fit:
            continue
        lesion = LesionSpec(centre_mm=tuple(float(x) for x in cand),
                            diameter_mm=d, shape=shape, variant=variant)
        m = lesion_mask(lesion, dims, spacing)
        if m.count > 0 and not (m.data & ~breast).any() \
                and not (m.data & occupied).any():
            return lesion, m
        if attempt % 40 == 39:
            d *= 0.85
    raise VolumeError("could not place a lesion inside the breast")


_SHAPE_CYCLE = ("ball", "lobulated", "ball", "segmental-nml")
# malignant:benign 2:1 by construction (within one case of exact)
_KINETIC_CYCLE = ("malignant-washout", "malignant-washout", "benign-persistent")


def suite_specs(n_cases: int, seed: int = 0, *, dims=(112, 112, 56),
                spacing=(0.8, 0.8, 1.3), noise_sigma: float = 4.0,
                clutter_amp: float = 0.25,
                diameter_range_mm: tuple[float, float] = (6.0, 40.0),
                ) -> list[PhantomSpec]:
    """Deterministic mixed suite: shapes and kinetic classes cycle, sizes
    sweep the diameter range geometrically, first half train."""
    if n_cases < 1:
        raise VolumeError("need at least one case")
    root = np.random.SeedSequence(seed)
    children = root.spawn(n_cases)
    lo, hi = diameter_range_mm
    breast, _ = _breast_masks(dims, spacing)
    specs = []
    lesion_counter = 0
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        case_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        n_lesions = 2 if i % 3 == 2 else 1
        lesions = []
        occupied = np.zeros(tuple(dims), dtype=bool)
        for _ in range(n_lesions):
            shape = _SHAPE_CYCLE[lesion_counter % len(_SHAPE_CYCLE)]
            kinetic = _KINETIC_CYCLE[lesion_counter % len(_KINETIC_CYCLE)]
            step = (lesion_counter * 3) % 8
            d = lo * (hi / lo) ** (step / 7.0)
            d *= 1.0 + 0.08 * rng.uniform(-1.0, 1.0)
            d = float(np.clip(d, lo, hi))
            if shape == "segmental-nml":
                d = float(np.clip(d, 14.0, 30.0))
            if n_lesions > 1:
                d = min(d, 18.0)
            lesion, m = _place_lesion(
                rng, shape, d, lesion_counter + 1, dims, spacing, breast, occupied)
            occupied |= m.data
            lesions.append(replace(lesion, kinetic=kinetic,
                                   rim=(lesion_counter % 5 == 0)))
            lesion_counter += 1
        specs.append(PhantomSpec(
            case_id=f"phantom_{i:03d}",
            side="left" if i % 2 == 0 else "right",
            dims=tuple(dims), spacing=tuple(spacing),
            lesions=tuple(lesions), noise_sigma=noise_sigma,
            clutter_amp=clutter_amp, seed=case_seed))
    return specs


def _write_case(spec: PhantomSpec, out_dir: Path, split: str) -> CaseRecord:
    """Make one case and write its files, each volume as soon as it is
    made: the case holds its masks and one volume at a time, all freed
    on return, before the next case is made."""
    anatomy = _anatomy(spec)
    breast, _, fat, truths = anatomy
    case_dir = out_dir / spec.case_id
    case_dir.mkdir(exist_ok=True)
    dce_paths = [f"{spec.case_id}/dce_{j}.nrrd" for j in range(len(spec.times))]
    names = [f"{spec.case_id}/t1.nrrd", f"{spec.case_id}/t2.nrrd", *dce_paths]
    for name, v in zip(names, _volumes(spec, anatomy)):
        save_volume(out_dir / name, Volume3D(v, spec.spacing))
        del v  # the next volume is made without this one
    save_mask(case_dir / "breast.nrrd", BinaryMask(breast, spec.spacing))
    save_mask(case_dir / "fat.nrrd", BinaryMask(fat, spec.spacing))
    gt_paths = []
    for j, m in enumerate(truths):
        p = f"{spec.case_id}/gt_{j}.nrrd"
        save_mask(out_dir / p, m)
        gt_paths.append(p)
    return CaseRecord(
        case_id=spec.case_id,
        side=spec.side,
        t1=names[0],
        t2=names[1],
        dce=dce_paths,
        acquisition_times=list(spec.times),
        ground_truth=gt_paths,
        malignant=[l.malignant for l in spec.lesions],
        split=split,
        breast_mask=f"{spec.case_id}/breast.nrrd",
        fat_mask=f"{spec.case_id}/fat.nrrd",
        base_dir=out_dir,
    )


def generate_suite(n_cases: int, seed: int, out_dir, **suite_kwargs
                   ) -> list[CaseRecord]:
    """Write a phantom dataset (NRRD volumes + JSON manifest) to disk."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = suite_specs(n_cases, seed, **suite_kwargs)
    records = [_write_case(spec, out_dir, "train" if i < n_cases // 2 else "test")
               for i, spec in enumerate(specs)]
    save_manifest(out_dir / "manifest.json", records)
    return records
