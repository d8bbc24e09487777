"""The benchmark's own output checks, applied to one pass of each workload.

`perfbench/workloads.py` is loaded as it stands: every workload is built at
seed 1 in a temporary directory and run once, and each of its checks must
pass. Each corruption case it lists must then fail the check it is aimed
at, so that no check passes vacuously.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


def verdicts(checks) -> dict[str, tuple[bool, str]]:
    """(passed, detail) of each named check; a check that raises has failed."""
    out = {}
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - a broken output fails its check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out[name] = (bool(ok), detail)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_meets_every_check(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    results = {op: run() for op, run in workload.operations()}
    checked = verdicts(workload.checks(results))
    assert {k: d for k, (ok, d) in checked.items() if not ok} == {}

    caught = set()
    for target, args in workload.corruptions(results):
        ok, detail = verdicts(workload.checks(*args))[target]
        assert not ok, f"check {target} accepted corrupted output: {detail}"
        caught.add(target)
    assert caught == set(checked)
