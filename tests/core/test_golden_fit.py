"""Golden ``RareResult`` pins over backbones, agents, rewards, churn and
batch widths (cases and regeneration in ``golden_fit.py``).

A refactor of the environment, the rollout collector or the driver loop
must reproduce every pin: accuracies, curves and the optimised graph
bit for bit, per-iteration rewards to rtol 1e-9.
"""

import json

import numpy as np
import pytest

from .golden_fit import CASES, EXACT_FIELDS, FIXTURE, digest, run_case

PINS = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(PINS) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_golden_fit(case):
    got = digest(run_case(*case))
    want = PINS[case[0]]
    for field in EXACT_FIELDS:
        assert got[field] == want[field], field
    np.testing.assert_allclose(
        got["episode_rewards"], want["episode_rewards"], rtol=1e-9, atol=0
    )
