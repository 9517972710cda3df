"""One supervision core: child slots, liveness and the restart policy.

The serving pool and the sharded ingest both run children that must come
back when they crash or hang; :class:`Pool` alone decides when, and the
callers map :meth:`Pool.check` events onto their protocol.  It never reads
a clock (every decision takes ``now``) and its process context can be a
fake.  Children ignore SIGINT/SIGTERM (:func:`_child`): the parent owns
signals and drains them, so a terminal ^C never kills one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["RestartPolicy", "Slot", "Pool", "die"]

#: Slot states (strings: they travel through JSON); DYING = told to exit.
STARTING, LIVE, DYING, RESTARTING = "starting", "live", "dying", "restarting"
FAILED, STOPPED = "failed", "stopped"
#: How long a child that exited with code 0 has to deliver its last message.
EXIT_GRACE_S = 1.0
#: ``spawn`` is fork-safe with the parent's own threads.
SPAWN = multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class RestartPolicy:
    """When a child is hung, and how often and how late it respawns."""

    #: Heartbeat older than this marks a live child hung.
    liveness_deadline_s: float = 3.0
    #: Respawns per slot before the slot is given up for good.
    max_restarts: int = 3
    #: First respawn delay; doubles per consecutive respawn.
    backoff_s: float = 0.1

    def __post_init__(self) -> None:
        if min(self.liveness_deadline_s, self.backoff_s) <= 0 or self.max_restarts < 0:
            raise ConfigurationError(f"needs positive times, max_restarts >= 0: {self}")

    def delay(self, n: int) -> float:
        """Wait before the ``n``-th consecutive respawn or retry (``n >= 1``)."""
        return self.backoff_s * 2 ** (n - 1)


@dataclass(eq=False)
class Slot:
    """One child slot: its current process, heartbeat and restart record."""

    sid: int
    state: str = STARTING
    process: Any = None
    heartbeat: Any = None
    #: Respawns performed (a scheduled one counts once it happens).
    restarts: int = 0
    respawn_at: float = 0.0
    #: When a child that exited with code 0 was first seen dead.
    dead_since: Optional[float] = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class Pool:
    """``n`` slots, each running ``target(*args(slot))`` in a child process."""

    def __init__(self, n: int, policy: RestartPolicy, target: Callable, args: Callable,
                 ctx: Any = SPAWN) -> None:
        self.slots = [Slot(sid) for sid in range(n)]
        self.policy, self.ctx, self._target, self._args = policy, ctx, target, args
        self._stopped = False

    def spawn(self, slot: Slot, now: float) -> None:
        """Start ``slot``'s next child with a fresh heartbeat."""
        slot.heartbeat = self.ctx.Value("d", now)
        slot.state = STARTING
        slot.process = self.ctx.Process(
            target=_child,
            args=(self._target, slot.heartbeat, self._args(slot)),
            name=f"repro-{self._target.__name__}-{slot.sid}",
            daemon=True,
        )
        slot.process.start()

    def stop(self) -> None:
        """Respawn nothing from now on; later deaths leave slots STOPPED."""
        self._stopped = True

    def check(self, now: float) -> List[Tuple[Slot, str]]:
        """``(slot, event)`` per changed slot: ``respawned``, ``crash``/``hang``
        (respawn scheduled unless stopped) or ``exhausted`` (slot FAILED).
        Only a LIVE or DYING slot can hang; a hung child is killed here."""
        events: List[Tuple[Slot, str]] = []
        for slot in self.slots:
            if slot.state == RESTARTING:
                if self._stopped:
                    slot.state = STOPPED
                elif now >= slot.respawn_at:
                    slot.restarts += 1
                    self.spawn(slot, now)
                    events.append((slot, "respawned"))
                continue
            if slot.state in (FAILED, STOPPED) or slot.process is None:
                continue
            if slot.process.is_alive():
                stale = now - slot.heartbeat.value > self.policy.liveness_deadline_s
                if slot.state not in (LIVE, DYING) or not stale:
                    continue
                slot.process.kill()
                cause = "hang"
            else:
                if slot.process.exitcode == 0:  # its last message may be in the pipe
                    slot.dead_since = now if slot.dead_since is None else slot.dead_since
                    if now - slot.dead_since < EXIT_GRACE_S:
                        continue
                cause = "crash"
            slot.dead_since = None
            if self._stopped:
                slot.state = STOPPED
            elif slot.restarts >= self.policy.max_restarts:
                slot.state, cause = FAILED, "exhausted"
            else:
                slot.state = RESTARTING
                slot.respawn_at = now + self.policy.delay(slot.restarts + 1)
            events.append((slot, cause))
        return events

    def close(self, timeout_s: float) -> None:
        """Stop respawning; join every child, killing any still alive."""
        self.stop()
        for slot in self.slots:
            if slot.process is not None:
                slot.process.join(timeout_s)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(1.0)


def _child(target: Callable[..., None], heartbeat: Any, args: tuple) -> None:
    """Child bootstrap: leave signals to the parent, beat once, run."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    heartbeat.value = time.monotonic()
    target(*args)


def die(result_queue: Any) -> None:
    """Chaos: SIGKILL this child once its queued messages are flushed, so it
    never dies holding the shared queue's write lock (which no sibling's
    message would get past again)."""
    result_queue.close()
    result_queue.join_thread()
    os.kill(os.getpid(), signal.SIGKILL)
