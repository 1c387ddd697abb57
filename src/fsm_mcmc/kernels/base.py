"""Shared kernel plumbing.

Each kernel is written once, as a program of blocks and while loops
(:mod:`fsm_mcmc.fsm`), and runs in the two forms compiled from it: a
monolithic function (the program's while loops, the barrier's reference)
and a state machine over the same blocks.  Both forms consume identical
randomness, step the chain's own persistent ``Locals`` and are carried by a
:class:`KernelBundle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..fsm import BlockFailure, FsmDefinition, compile_program
from ..lockstep import CostParams
from ..targets import TargetModel

__all__ = ["KernelBundle", "KernelError", "check_log_density"]


class KernelError(ValueError):
    """Invalid kernel construction or target/kernel mismatch."""


# A monolithic transition kernel: draws one sample by running the program's
# while loops on the chain's Locals in place, with the shared refresh after
# every run of a marked block, and returns {loop-state id: number of
# executions for this sample} for every loop state of the machine.
MonolithicKernel = Callable[[Any], dict[int, int]]


@dataclass(frozen=True)
class KernelBundle:
    """A transition kernel in monolithic and state-machine form.

    ``iter_states`` are the machine states whose executions sum to the
    kernel's reported inner-iteration count N.  ``program`` is the tree both
    forms were compiled from (:meth:`from_program`).  ``events`` name the
    integer attributes of the kernel's ``Locals`` that count what the chain
    ran into; the final block adds to them, once per finished sample, so both
    regimes count the same samples.
    """

    name: str
    program: tuple
    fsm: FsmDefinition
    monolithic: MonolithicKernel
    init_locals: Callable[[np.ndarray, Any, TargetModel], Any]
    iter_states: tuple[int, ...]
    default_costs: CostParams
    requires: Callable[[TargetModel], list[str]] | None = None
    events: tuple[str, ...] = ()

    @classmethod
    def from_program(cls, name: str, program: tuple,
                     init_locals: Callable[[np.ndarray, Any, TargetModel], Any], *,
                     shared: Callable[[Any], None] | None = None,
                     block_costs: tuple[float, ...] | None = None,
                     requires: Callable[[TargetModel], list[str]] | None = None,
                     events: tuple[str, ...] = (),
                     ) -> "KernelBundle":
        """The kernel compiled from its program; block costs default to one unit."""
        machine, monolithic, iter_states = compile_program(program, shared)
        return cls(
            name=name,
            program=program,
            fsm=machine,
            monolithic=monolithic,
            init_locals=init_locals,
            iter_states=iter_states,
            default_costs=CostParams.for_fsm(machine, block_costs=block_costs),
            requires=requires,
            events=events,
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
