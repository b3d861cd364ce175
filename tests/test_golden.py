"""Golden lock: small drift runs must reproduce the stored science.

The values in golden.json were written by make_golden.py.  The tolerance
admits a reordered floating-point sum and nothing larger, so a refactor that
moves an embedding, a distance or a projection by a real amount fails here.
"""

import json

import numpy as np
import pytest

from make_golden import GOLDEN_FILE, cases, summarize

RTOL = 1e-12
ATOL = 1e-14

GOLDEN = json.loads(GOLDEN_FILE.read_text())
CASES = cases()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
    assert len(GOLDEN) == 12


@pytest.mark.parametrize("name", sorted(CASES))
def test_drift_run_matches_golden(name):
    want = GOLDEN[name]
    got = summarize(CASES[name])
    for key in ("centroid_distance", "baseline_map"):
        np.testing.assert_allclose(got[key], want[key], rtol=RTOL, atol=ATOL, err_msg=key)
    # PCA fixes each axis only up to sign.
    for key in ("projection_x", "projection_y"):
        axis, stored = np.array(got[key]), np.array(want[key])
        sign = 1.0 if np.dot(axis, stored) >= 0.0 else -1.0
        np.testing.assert_allclose(sign * axis, stored, rtol=RTOL, atol=ATOL, err_msg=key)
