"""Admission control: shed new ``initiate`` calls with typed backpressure.

The paper's ``initiate`` already fails softly (null tid) when "the
number of transactions exceed a predetermined number"; under real
overload that silent null starves callers of the information they need
to back off sensibly.  The :class:`AdmissionController` sits in front
of ``initiate`` and raises :class:`~repro.common.errors.Backpressure`
— naming the gate that tripped, the measured load, and the limit —
when either:

* **active gate** — the count of non-terminated transactions reaches
  ``max_active``; or
* **deadline-pressure gate** — too many registered deadlines expire
  within the next ``pressure_window`` ticks (the system is already
  racing the watchdog; adding load now just manufactures deadline
  aborts).

Shedding at the door is the cheapest place to degrade: the request
holds no locks, no log space, no descriptor slot yet.
"""

from __future__ import annotations

from repro.common.errors import Backpressure

__all__ = ["AdmissionController"]


class AdmissionController:
    """Gatekeeper for ``initiate``; raises :class:`Backpressure` to shed."""

    def __init__(
        self,
        max_active=None,
        deadline_pressure_limit=None,
        pressure_window=32,
        deadlines=None,
        clock=None,
    ):
        self.max_active = max_active
        self.deadline_pressure_limit = deadline_pressure_limit
        self.pressure_window = pressure_window
        self.deadlines = deadlines
        self.clock = clock
        self.enabled = True
        self.stats = {
            "admitted": 0,
            "shed_active": 0,
            "shed_deadline_pressure": 0,
        }

    def active_load(self, manager):
        """Non-terminated transactions currently in the table."""
        return len(manager.table.live())

    def deadline_pressure(self, now=None):
        """Registered deadlines expiring within the pressure window."""
        if self.deadlines is None:
            return 0
        if now is None:
            now = self.clock.now() if self.clock is not None else 0
        horizon = now + self.pressure_window
        return sum(1 for at in self.deadlines.deadlines.values() if at <= horizon)

    def admit(self, manager):
        """Allow one ``initiate`` through, or raise :class:`Backpressure`."""
        if not self.enabled:
            return
        if self.max_active is not None:
            load = self.active_load(manager)
            if load >= self.max_active:
                self.stats["shed_active"] += 1
                raise Backpressure("active", load, self.max_active)
        if self.deadline_pressure_limit is not None:
            pressure = self.deadline_pressure()
            if pressure >= self.deadline_pressure_limit:
                self.stats["shed_deadline_pressure"] += 1
                raise Backpressure(
                    "deadline_pressure", pressure, self.deadline_pressure_limit
                )
        self.stats["admitted"] += 1
