"""FaultInjector: compile a FaultPlan's component events onto a World.

Each component event becomes a pair of engine callbacks — apply at
``event.time``, recover at ``event.time + duration`` — scheduled as
absolute-time events (:meth:`Engine.schedule_at`).  A process blocked on
a paused server holds no scheduled event, so the queued recovery is what
keeps the run alive until the component is restored.

Arming is *windowed* (:meth:`arm_until`): ``Engine.run()`` executes until
the event queue drains, so arming a whole campaign's timeline at once
would make the first job fast-forward the clock through every future
fault.  Callers arm exactly as far as the wall-clock window they are about
to simulate; the campaign does this from its compute-segment loop, and
single-job experiments just call :meth:`arm` for everything.  Every
apply/recover is recorded in :attr:`applied` for assertions and reports.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ConfigError
from .plan import COMPONENT_KINDS, FaultEvent, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives one plan's component faults against one world."""

    def __init__(self, world, plan: FaultPlan):
        self.world = world
        self.plan = plan
        self.applied: List[Tuple[float, str, str]] = []  # (env time, kind+target, phase)
        self._queue = list(plan.component_events)  # sorted (plan sorts)
        self._cursor = 0

    @property
    def pending(self) -> int:
        """Component events not yet armed."""
        return len(self._queue) - self._cursor

    # -- arming ------------------------------------------------------------
    def arm_until(self, t: float) -> int:
        """Arm events whose apply time is <= *t*; returns how many.

        Each armed event's recovery is armed with it (faults are always
        paired with their restores, so an armed window is self-contained
        and a bounded ``run()`` can never strand a component down).
        """
        n = 0
        while self._cursor < len(self._queue) and self._queue[self._cursor].time <= t:
            self._schedule(self._queue[self._cursor])
            self._cursor += 1
            n += 1
        return n

    def arm(self) -> int:
        """Arm the whole plan (single-job experiments and tests)."""
        return self.arm_until(float("inf"))

    # -- compilation -------------------------------------------------------
    def _schedule(self, ev: FaultEvent) -> None:
        env = self.world.env
        apply_fn, recover_fn, label = self._compile(ev)
        t_apply = max(env.now, ev.time)

        def do_apply(_event=None, fn=apply_fn, lb=label):
            fn()
            self.applied.append((env.now, lb, "apply"))

        def do_recover(_event=None, fn=recover_fn, lb=label):
            fn()
            self.applied.append((env.now, lb, "recover"))

        if t_apply <= env.now:
            do_apply()
        else:
            env.schedule_at(t_apply)._add_callback(do_apply)
        if recover_fn is not None:
            t_rec = t_apply + ev.duration
            if t_rec <= env.now:
                do_recover()
            else:
                env.schedule_at(t_rec)._add_callback(do_recover)

    def _compile(self, ev: FaultEvent):
        """(apply, recover, label) callables for one component event."""
        if ev.kind not in COMPONENT_KINDS:
            raise ConfigError(f"injector cannot compile {ev.kind!r}")
        if ev.kind in ("osd_slow", "osd_outage"):
            osds = self.world.volume.pool.osds
            osd = osds[ev.target % len(osds)]
            if ev.kind == "osd_outage":
                return osd.fail, osd.restore, f"osd_outage:osd{osd.index}"
            factor = ev.magnitude
            return (lambda: osd.slow_down(factor), osd.restore_speed,
                    f"osd_slow:osd{osd.index}x{factor:g}")
        if ev.kind == "mds_crash":
            vols = self.world.volumes
            mds = vols[ev.target % len(vols)].mds
            return mds.crash, mds.failover, f"mds_crash:{mds.name}"
        net = self.world.cluster.storage_net
        if ev.kind == "net_partition":
            return net.partition, net.heal, "net_partition"
        # net_jitter: additive, so overlapping windows compose.
        extra = ev.magnitude

        def add():
            net.extra_latency += extra

        def remove():
            net.extra_latency = max(0.0, net.extra_latency - extra)

        return add, remove, f"net_jitter:+{extra:g}s"
