"""Self-test of the benchmark's correctness gate.

    python3 -m pytest perfbench/test_perfbench_gate.py

A corrupted expected value must fail the pass, and an operation that raises
must be counted while the rest of the pass still runs.  The reference clock
must leave its own speed samples out of the time it reports.
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from refclock import RefClock  # noqa: E402

sys.path.insert(0, str(run.SRC))


def test_gate_counts_errors_and_wrong_values():
    gate = Gate()
    assert gate.op("ok", lambda: 2, check=lambda v: v == 2) == 2
    assert gate.op("wrong", lambda: 3, check=lambda v: v == 2) is None
    assert gate.op("raises", lambda: 1 // 0) is None
    assert gate.op("bad check", lambda: 1, check=lambda v: v.missing) is None
    assert (gate.attempted, gate.failed, gate.known) == (4, 3, [])


def test_known_defect_is_recorded_but_other_outcomes_fail():
    gate = Gate()

    def defect():
        raise ValueError("counts are not polynomial: misfit at q=7")

    gate.op("defect", defect, known_error="misfit at q=")
    assert (gate.failed, len(gate.known)) == (0, 1)
    gate.op("other error", lambda: 1 // 0, known_error="misfit at q=")
    gate.op("fixed but wrong", lambda: 5, check=lambda v: v == 4, known_error="misfit at q=")
    gate.op("fixed", lambda: 4, check=lambda v: v == 4, known_error="misfit at q=")
    assert (gate.attempted, gate.failed, len(gate.known)) == (4, 2, 1)


@pytest.fixture(scope="module")
def a4():
    mods = run.import_mvtk()
    setup, run_pass = workloads.WORKLOADS["a4_example"]
    state = setup(mods, 1)
    clean = Gate()
    run_pass(mods, state, clean)
    assert clean.failed == 0, clean.failures
    return mods, state, run_pass, clean.attempted


def test_corrupted_expected_value_fails_the_pass(a4, monkeypatch):
    mods, state, run_pass, attempted = a4
    totals = list(workloads.PINNED["a4.sections.totals"])
    totals[1] += 1
    monkeypatch.setitem(workloads.PINNED, "a4.sections.totals", totals)
    gate = Gate()
    run_pass(mods, state, gate)
    assert gate.attempted == attempted
    assert gate.failed == 1
    assert gate.failures == ["a4.sections.n2: wrong result"]


def test_raising_operation_is_counted_and_pass_carries_on(a4, monkeypatch):
    mods, state, run_pass, attempted = a4

    def broken(rep):
        raise RuntimeError("injected")

    monkeypatch.setattr(mods.preproj, "flag_function", broken)
    gate = Gate()
    run_pass(mods, state, gate)
    assert gate.attempted == attempted
    assert gate.failures == ["a4.flag: raised RuntimeError: injected"]


def test_refclock_leaves_out_its_speed_samples():
    clock = RefClock(interval=0.02)
    t0 = time.perf_counter()
    clock.start()
    while time.perf_counter() - t0 < 0.2:
        pass
    wall, ref = clock.stop()
    assert clock.spent > 0
    assert 0 < wall < time.perf_counter() - t0 - clock.spent
    assert ref > 0
