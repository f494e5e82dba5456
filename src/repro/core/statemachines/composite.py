"""Farm and Pipe tracking machines — pure structure, no own muscles.

Both delegate estimation entirely to their nested machines; projection
threads dependencies through the recorded children and falls back to
structural projection for stages that have not started yet.
"""

from __future__ import annotations

from typing import List

from ..adg import ADG
from .base import TrackingMachine

__all__ = ["FarmMachine", "PipeMachine"]


class FarmMachine(TrackingMachine):
    __slots__ = ()

    kind = "farm"

    def _project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        if self.children:
            return self.children[0].project(adg, preds, now)
        return self._project_estimate(self.skel.subskel, adg, preds)


class PipeMachine(TrackingMachine):
    __slots__ = ()

    kind = "pipe"

    def _project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        # A single value flows through the stages in order, so child
        # machines attach in stage order.
        current = list(preds)
        for k, stage in enumerate(self.skel.stages):
            if k < len(self.children):
                current = self.children[k].project(adg, current, now)
            else:
                current = self._project_estimate(stage, adg, current)
        return current
