"""The benchmark's strict hooks name package attributes that still exist.

``perfbench/bench.py`` cuts each workload's clock before every call of
the ``(owner, attr)`` pairs in its ``TICKS``, and every run wraps the
per-case boundaries in ``layers.CASE_BOUNDARIES``. ``Tracer.call_before``
looks its attribute up with no fallback, so a renamed or deleted
attribute ends a benchmark run with an AttributeError rather than a
metric that reads 0. ``layers`` also binds ``ms3d``'s arguments by
name. The tables are read from ``perfbench`` as they are.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from siftcad.volume import Volume3D

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402
import layers  # noqa: E402


def _name(owner, attr):
    return f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("workload", sorted(bench.WORKLOAD_CLASSES))
def test_every_clock_cut_names_a_callable(workload):
    for owner, attr in bench.WORKLOAD_CLASSES[workload].TICKS:
        assert callable(getattr(owner, attr, None)), _name(owner, attr)


def test_every_case_boundary_names_a_callable():
    for owner, attr, _, _ in layers.CASE_BOUNDARIES:
        assert callable(getattr(owner, attr, None)), _name(owner, attr)


def test_ms3d_binds_volume_and_n_orient():
    vol = Volume3D(np.zeros((4, 3, 2)), (1.0, 1.0, 2.0))
    assert layers._ms3d_input((vol, None), {}) == {
        "dims": [4, 3, 2], "voxels": 24, "spacing0": 1.0, "n_orient": 10}
    assert layers._ms3d_input((), {"volume": vol, "plan": None, "n_orient": 6})["n_orient"] == 6
