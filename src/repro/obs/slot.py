"""The one per-thread observation slot.

``_SLOTS`` maps a thread ident to the :class:`repro.obs.Observation`
active on that thread: its metrics registry, its tracer (or None) and
its profiler (or None). Entering an observation puts it in the slot and
leaving restores the outer one; :func:`swap` exists for exactly those
two calls. Every gate is a read of the slot — :func:`repro.obs.metrics.
active`, :func:`repro.obs.tracing.span`, the parallel engine and the
shard-task trampoline — and so is the profiler's sampler thread, which
reads the *sampled* thread's entry. That is why the slot is a dict keyed
by :func:`threading.get_ident` rather than a :class:`threading.local`.

While no thread observes anything the dict is empty, so the gate of an
unobserved run is one truthiness test of a module global. A forked child
(a pool worker started during an observed query) starts with the slot
emptied: it cannot record into a copy of its parent's registry or
tracer that nobody will ever read.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from . import Observation

__all__ = ["current", "swap"]

_SLOTS: Dict[int, Observation] = {}
_get_ident = threading.get_ident


def current() -> Optional[Observation]:
    """The observation active on this thread, or None (the default)."""
    if not _SLOTS:
        return None
    return _SLOTS.get(_get_ident())


def swap(observation: Optional[Observation]) -> Optional[Observation]:
    """Put ``observation`` in this thread's slot; returns the previous one.

    Called only by ``Observation.__enter__`` (with itself) and
    ``Observation.__exit__`` (with what enter returned).
    """
    ident = _get_ident()
    previous = _SLOTS.get(ident)
    if observation is None:
        _SLOTS.pop(ident, None)
    else:
        _SLOTS[ident] = observation
    return previous


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_SLOTS.clear)
