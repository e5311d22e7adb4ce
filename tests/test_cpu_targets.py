"""Outcomes that must not depend on which SIMD kernels numpy dispatches to.

numpy sends ``exp``, ``log`` and other ufuncs to AVX-512 kernels where the
CPU has them. ``NPY_DISABLE_CPU_FEATURES`` makes one process use the AVX2
kernels instead, as on a CPU without AVX-512; the last bits of those
ufuncs then change. The setting acts on the child process alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbreserve

_AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# triangles whose likelihood has no finite maximum: their outcome once
# depended on whether a drifting fit stopped within its budget
QUASI_SEPARATED_TESTS = (
    "tests/test_predictive.py::TestUnboundedRefit",
    "tests/test_dispersion.py::TestJointMle::test_is_the_remembered_joint_fit[quasi-separated]",
    "tests/test_cli.py::TestErrors::test_quasi_separated_triangle_fails_typed",
    "tests/test_glm.py::TestDegenerateInputs::test_quasi_separated_has_no_fit",
)


# pins of full-precision floats that pass through dispatched ufuncs: they
# hold one value per target, and every other pinned output one for both
PINNED_TESTS = (
    "tests/test_cli.py::TestReserve::test_outputs_pinned",
    "tests/test_simulation.py::TestStudyPinned::test_study_json_pinned",
)


def _passes_under_avx2(tests):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(nbreserve.__file__).resolve().parents[1])
    env = {**os.environ, **_AVX2, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses the AVX2 setting on this CPU: {probe.stderr.strip()[-200:]}")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-1000:]
    assert " passed" in done.stdout and "skipped" not in done.stdout


def test_quasi_separated_outcomes_hold_under_avx2():
    _passes_under_avx2(QUASI_SEPARATED_TESTS)


def test_pinned_outputs_hold_under_avx2():
    _passes_under_avx2(PINNED_TESTS)
