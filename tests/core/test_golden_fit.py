"""Golden ``RareResult`` pins over backbones, agents, rewards, churn and
batch widths (cases and regeneration in ``golden_fit.py``).

A refactor of the environment, the rollout collector or the driver loop
must reproduce every pin bit for bit: accuracies, curves, per-iteration
rewards and the optimised graph.
"""

import json

import pytest

from .golden_fit import CASES, FIXTURE, digest, run_case

PINS = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(PINS) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_golden_fit(case):
    got = digest(run_case(*case))
    want = PINS[case[0]]
    assert sorted(got) == sorted(want)
    for field in want:
        assert got[field] == want[field], field
