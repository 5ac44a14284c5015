"""Correctness gate: every benchmark operation runs through `Gate.op`.

An operation that raises, or whose result fails its check, counts as failed;
the pass carries on with the next operation.  A known defect is an
operation whose documented error is expected today: matching that error is
recorded in `known`, not in `failed`, and any other outcome (a different
error, or a result that fails the check) is a failure, so a fix reads as
success and a regression still shows.  A gate given the pass's `RefClock`
leaves the clock's speed samples out of the route times.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Gate:
    def __init__(self, clock=None):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.known: list[str] = []
        self.route_s: dict[str, float] = defaultdict(float)

    def op(self, name, compute, check=None, route=None, known_error=None):
        """Run `compute()`, check its value, return it (None when it failed).

        `check(value)` returns True for a correct value.  `route` names the
        end-to-end route ("flag" or "mv") whose time this operation adds to.
        `known_error` is a substring of the message of a documented defect.
        """
        self.attempted += 1
        t0, spent = time.perf_counter(), self._spent()
        try:
            value = compute()
        except Exception as exc:  # noqa: BLE001 - every error is a counted outcome
            if known_error is not None and known_error in str(exc):
                self.known.append(f"{name}: {exc}")
            else:
                self._fail(name, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if route is not None:
                self.route_s[route] += time.perf_counter() - t0 - (self._spent() - spent)
        if check is not None:
            try:
                ok = bool(check(value))
            except Exception as exc:  # noqa: BLE001 - a check that raises is a failed check
                self._fail(name, f"check raised {type(exc).__name__}: {exc}")
                return None
            if not ok:
                self._fail(name, "wrong result")
                return None
        return value

    def _spent(self):
        return self.clock.spent if self.clock is not None else 0.0

    def _fail(self, name, reason):
        self.failed += 1
        self.failures.append(f"{name}: {reason}")
