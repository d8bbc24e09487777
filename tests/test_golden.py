"""Tier-1's numbers fingerprint: every case of `golden.py` against `golden.json`.

A change that moves numbers on purpose rewrites `golden.json` with
`PYTHONPATH=src python tests/golden.py --write` and says which cases moved.
"""

import pytest

import golden


@pytest.fixture(scope="module")
def recorded():
    return golden.load()


@pytest.mark.parametrize("group", sorted(golden.GROUPS))
def test_numbers_held(recorded, group):
    found = golden.mismatches(recorded[group], golden.GROUPS[group](), group)
    assert not found, f"{len(found)} number(s) moved, first: " + "; ".join(found[:5])


def test_comparison_catches_small_moves():
    # a population 1e-10 off, a chi 1e-9 relative off, a CSV cell off in its
    # last printed digit
    assert golden.mismatches({"rho11": 0.25}, {"rho11": 0.25 + 1e-10})
    assert golden.mismatches({"value": 3e-18}, {"value": 3e-18 * (1 + 1e-9)})
    table = ["time,rho11", "0.003,0.0"]
    assert golden.mismatches(table, ["time,rho11", "0.003,1e-10"])
    assert golden.mismatches(table, ["time,rho11", "0.0030000000001,0.0"])
    assert not golden.mismatches(table, ["time,rho11", "0.003,1e-15"])
    assert not golden.mismatches({"x": 1.0}, {"x": 1.0 + 2e-16})
    assert golden.mismatches({"n": 3}, {"n": 3.0})
