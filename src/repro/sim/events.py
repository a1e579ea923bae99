"""Priority bands for the discrete-event scheduler.

The scheduler orders its entries by ``(time, priority, seq)``: time
first, then an explicit priority band (chain records land before party
wake-ups at the same tick), then the global insertion sequence number —
which makes every simulation a deterministic function of its inputs and
seed.
"""

from __future__ import annotations

from enum import IntEnum


class Priority(IntEnum):
    """Tie-break bands for events scheduled at the same tick."""

    CHAIN = 0
    """On-chain effects (publications, calls) land first."""

    WAKE = 1
    """Party observations/reactions happen after chain effects."""

    CONTROL = 2
    """Bookkeeping runs last, after the tick's chain effects and reactions."""
