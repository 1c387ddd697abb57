"""Shared kernel plumbing.

Each kernel ships in two forms that consume identical randomness: a
monolithic function (plain while loops, the reference) and a state-machine
decomposition of the same blocks.  Both forms step the chain's own
persistent ``Locals`` and are carried by a :class:`KernelBundle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..fsm import BlockFailure, FsmDefinition
from ..lockstep import CostParams
from ..targets import TargetModel

__all__ = ["KernelBundle", "KernelError", "check_log_density"]


class KernelError(ValueError):
    """Invalid kernel construction or target/kernel mismatch."""


# A monolithic transition kernel: draws one sample by running the machine's
# blocks as while loops on the chain's Locals in place, counting them, and
# returns {loop-state id: number of executions for this sample} for every
# loop state of the machine.
MonolithicKernel = Callable[[Any], dict[int, int]]


@dataclass(frozen=True)
class KernelBundle:
    """A transition kernel in monolithic and state-machine form.

    ``iter_states`` are the machine states whose executions sum to the
    kernel's reported inner-iteration count N.
    """

    name: str
    fsm: FsmDefinition
    monolithic: MonolithicKernel
    init_locals: Callable[[np.ndarray, Any, TargetModel], Any]
    iter_states: tuple[int, ...]
    default_costs: CostParams
    requires: Callable[[TargetModel], list[str]] | None = None

    def __post_init__(self):
        if not set(self.iter_states) <= self.fsm.loop_states:
            raise KernelError(
                f"{self.name}: iter_states {self.iter_states} must be loop states"
            )

    def check_target(self, target: TargetModel) -> None:
        if self.requires is not None:
            problems = self.requires(target)
            if problems:
                raise KernelError(f"{self.name}: " + "; ".join(problems))


def check_log_density(value: float, label: str) -> float:
    """Reject NaN/+inf log-densities; -inf (zero density) is legitimate."""
    if math.isnan(value) or value == math.inf:
        raise BlockFailure(label, f"log-density evaluated to {value}")
    return value

