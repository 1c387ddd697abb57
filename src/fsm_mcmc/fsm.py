"""State-machine representation of transition kernels.

A kernel is decomposed into K while-loop-free block functions plus a
transition function over state labels 1..K.  Loop predicates live in the
transition function; blocks mutate a per-chain :class:`Locals` record in
place.  Two executors are provided:

* :func:`step` - run one block and one transition (one state per tick),
* :func:`bundled_step` - chain the per-state conditionals so a chain can
  fall through several states in a single tick.

They are the single-call reference executors: the batched driver
(:func:`fsm_mcmc.lockstep.run_fsm_batched`) inlines both in its tick loop,
and tests compare it against them.

Kernels that share an expensive computation (e.g. a log-density needed both
to set a threshold and to test it) never call it inside a block.  Instead a
block sets ``locals.needs_shared`` and the executor evaluates the shared
function *between the block and the transition*, so the loop predicate always
sees a fresh value.  Under the batched cost model this is what makes the
shared work chargeable once per tick instead of once per call site: the
``amortized`` step variant runs :func:`step` and differs from ``plain`` only
in that charge (``CostParams.tick_cost``).

Conventions every shipped kernel follows:

* state 1 is initial, state K is final, and the final state's only outgoing
  edge wraps back to state 1;
* only the final block writes ``locals.x`` (the recorded sample), so the
  value read after a flagged tick is the finished sample even when bundling
  runs further blocks in the same call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

__all__ = [
    "Locals",
    "FsmDefinition",
    "SharedComputation",
    "StepOutcome",
    "FsmError",
    "BlockFailure",
    "step",
    "bundled_step",
    "default_bundled_order",
    "validate_bundled_order",
    "compose_single_loop",
    "compose_sequential",
    "compose_nested",
    "empty_block",
    "topology_as_dict",
    "topology_as_graphviz",
]


class FsmError(ValueError):
    """Invalid state-machine structure or usage."""


class BlockFailure(RuntimeError):
    """A block produced a non-finite quantity; carries the state label."""

    def __init__(self, label: str, message: str):
        super().__init__(f"[{label}] {message}")
        self.label = label


class Locals:
    """Base class for the per-chain record threaded through blocks.

    Subclasses add kernel-specific fields.  ``x`` is the current sample,
    ``rng`` the chain's stream position, and ``needs_shared`` the request
    flag for the kernel's shared computation (if any).  Blocks keep no loop
    counters: the drivers count block executions, and a monolithic kernel
    counts its own while loops.
    """

    __slots__ = ("x", "rng", "needs_shared")

    def __init__(self, x, rng):
        self.x = x
        self.rng = rng
        self.needs_shared = False


@dataclass(frozen=True)
class SharedComputation:
    """An expensive function shared by several blocks.

    ``fn`` reads the locals and writes its result into a cache field on the
    locals; ``sites`` maps state index -> number of call sites that block
    would contain if the computation were inlined (used by the cost model).
    """

    fn: Callable[[Any], None]
    sites: dict[int, int]
    label: str = "shared"


@dataclass(frozen=True)
class FsmDefinition:
    """A kernel as (states, locals space, transition, initial, final).

    States are indexed 1..K; ``blocks[k-1]`` is the function for state k.
    ``edges`` declares every transition the ``transition`` callable may take;
    it is what makes the machine checkable and exportable.
    """

    blocks: tuple[Callable[[Any], Any], ...]
    transition: Callable[[int, Any], int]
    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    loop_states: frozenset[int] = frozenset()
    shared: SharedComputation | None = None
    locals_type: type | None = None

    def __post_init__(self):
        K = len(self.blocks)
        if K < 1:
            raise FsmError("a state machine needs at least one state")
        if len(self.labels) != K:
            raise FsmError(f"{len(self.labels)} labels for {K} states")
        for a, b in self.edges:
            if not (1 <= a <= K and 1 <= b <= K):
                raise FsmError(f"edge ({a}, {b}) outside states 1..{K}")
        final_out = {e for e in self.edges if e[0] == K}
        if final_out != {(K, 1)}:
            raise FsmError(
                f"final state must have exactly the wrap-around edge ({K}, 1), got {sorted(final_out)}"
            )
        if not self.loop_states <= set(range(1, K + 1)):
            raise FsmError("loop_states outside 1..K")
        # every state reachable from the initial state
        seen = {1}
        frontier = [1]
        succ: dict[int, list[int]] = {}
        for a, b in self.edges:
            succ.setdefault(a, []).append(b)
        while frontier:
            nxt = []
            for a in frontier:
                for b in succ.get(a, ()):
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        if seen != set(range(1, K + 1)):
            missing = sorted(set(range(1, K + 1)) - seen)
            raise FsmError(f"states {missing} unreachable from the initial state")

    @property
    def n_states(self) -> int:
        return len(self.blocks)

    @property
    def initial(self) -> int:
        return 1

    @property
    def final(self) -> int:
        return len(self.blocks)


class StepOutcome(NamedTuple):
    """Result of one executor call on one chain."""

    state: int
    locals: Any
    is_sample: bool
    do_computation: bool
    executed: tuple[int, ...]


def _run_shared(fsm: FsmDefinition, z) -> bool:
    if fsm.shared is not None and z.needs_shared:
        fsm.shared.fn(z)
        z.needs_shared = False
        return True
    return False


def step(fsm: FsmDefinition, k: int, z) -> StepOutcome:
    """Run state k's block, refresh the shared cache if requested, transition.

    The sample flag is computed from the *entry* state, before the block
    runs; the final block therefore finishes its sample in the same call
    that flags it.
    """
    if not 1 <= k <= fsm.n_states:
        raise FsmError(f"state {k} outside 1..{fsm.n_states}")
    is_sample = k == fsm.n_states
    z = fsm.blocks[k - 1](z)
    did = _run_shared(fsm, z)
    k_next = fsm.transition(k, z)
    return StepOutcome(k_next, z, is_sample, did, (k,))


def default_bundled_order(fsm: FsmDefinition) -> tuple[int, ...]:
    """Final-first cyclic order (K, 1, 2, ..., K-1).

    Putting the final state's conditional first means a chain entering the
    call at the final state gets flagged, finishes its sample, and falls
    straight through into the next sample's states; with the natural order
    (1..K) the wrap-around edge would let a chain pass through the final
    state unflagged and its sample would never be collected.
    """
    K = fsm.n_states
    return (K, *range(1, K))


def validate_bundled_order(fsm: FsmDefinition, order: tuple[int, ...]) -> None:
    """Reject orders under which a chain can traverse the final state unflagged.

    A sample is lost iff some edge (s -> final) has the final conditional
    placed after s's conditional, because then the final block fires in the
    same call and the entry-state flag misses it.
    """
    K = fsm.n_states
    if sorted(order) != list(range(1, K + 1)):
        raise FsmError(f"order {order} is not a permutation of 1..{K}")
    pos = {s: i for i, s in enumerate(order)}
    for a, b in fsm.edges:
        if b == K and a != K and pos[K] > pos[a]:
            raise FsmError(
                f"order {order} can swallow samples: edge {a}->{K} fires the final "
                f"block after conditional {a} in the same call"
            )


def bundled_step(fsm: FsmDefinition, k: int, z, order: tuple[int, ...] | None = None
                 ) -> StepOutcome:
    """Chained-conditional executor: later conditionals in the same call may fire.

    ``order`` is a permutation of 1..K (default: final-first cyclic order).
    The executed states are reported in call order so drivers can attribute
    block executions to the right sample.
    """
    if order is None:
        order = default_bundled_order(fsm)
    is_sample = k == fsm.n_states
    executed = []
    did = False
    for s in order:
        if k == s:
            z = fsm.blocks[s - 1](z)
            did = _run_shared(fsm, z) or did
            k = fsm.transition(s, z)
            executed.append(s)
    return StepOutcome(k, z, is_sample, did, tuple(executed))


def empty_block(z):
    """The no-op block; used where a composition rule requires an empty state."""
    return z


def compose_single_loop(pre_block, body_block, post_block, loop_condition,
                        labels: tuple[str, str, str] = ("INIT", "BODY", "DONE"),
                        shared: SharedComputation | None = None,
                        locals_type: type | None = None) -> FsmDefinition:
    """Three-state machine for a program with one while loop.

    ``loop_condition(z)`` is the *continue* predicate, checked after the pre
    block and after every body execution.
    """

    def transition(k: int, z) -> int:
        if k == 3:
            return 1
        return 2 if loop_condition(z) else 3

    return FsmDefinition(
        blocks=(pre_block, body_block, post_block),
        transition=transition,
        labels=tuple(labels),
        edges=frozenset({(1, 2), (1, 3), (2, 2), (2, 3), (3, 1)}),
        loop_states=frozenset({2}),
        shared=shared,
        locals_type=locals_type,
    )


def compose_sequential(f1: FsmDefinition, f2: FsmDefinition) -> FsmDefinition:
    """Stitch two single-loop machines run back to back into one 5-state machine.

    ``f2``'s pre block must be :func:`empty_block` (whatever setup the second
    loop needs belongs in ``f1``'s post block); its dispatch is absorbed into
    state 3.  States: (f1 pre, f1 body, f1 post, f2 body, f2 post).
    """
    if f1.n_states != 3 or f2.n_states != 3:
        raise FsmError("sequential composition expects two single-loop machines")
    if f2.blocks[0] is not empty_block:
        raise FsmError("the second machine's pre block must be empty_block")
    if (f1.locals_type is not None and f2.locals_type is not None
            and f1.locals_type is not f2.locals_type):
        raise FsmError(
            f"locals shapes differ: {f1.locals_type.__name__} vs {f2.locals_type.__name__}"
        )
    d1, d2 = f1.transition, f2.transition
    remap2 = {2: 4, 3: 5}

    def transition(k: int, z) -> int:
        if k in (1, 2):
            return d1(k, z)
        if k == 3:
            return remap2[d2(1, z)]
        if k == 4:
            return remap2[d2(2, z)]
        return 1

    if f1.shared is not None or f2.shared is not None:
        raise FsmError("sequential composition of shared computations is not supported")
    return FsmDefinition(
        blocks=(f1.blocks[0], f1.blocks[1], f1.blocks[2], f2.blocks[1], f2.blocks[2]),
        transition=transition,
        labels=(f1.labels[0], f1.labels[1], f1.labels[2], f2.labels[1], f2.labels[2]),
        edges=frozenset({(1, 2), (1, 3), (2, 2), (2, 3), (3, 4), (3, 5),
                         (4, 4), (4, 5), (5, 1)}),
        loop_states=frozenset({2, 4}),
        locals_type=f1.locals_type or f2.locals_type,
    )


def compose_nested(pre_block, inner_fsm: FsmDefinition, post_block, outer_condition,
                   labels: tuple[str, str] = ("INIT", "DONE"),
                   locals_type: type | None = None) -> FsmDefinition:
    """Five-state machine for an outer while loop whose body is a single-loop program.

    The transition out of state 1 and out of the inner post state both
    evaluate ``outer_condition`` (continue -> inner pre, stop -> final);
    transitions inside states 2..3 follow the inner machine.  States:
    (pre, inner pre, inner body, inner post, post).
    """
    if inner_fsm.n_states != 3:
        raise FsmError("nested composition expects a single-loop inner machine")
    if (locals_type is not None and inner_fsm.locals_type is not None
            and locals_type is not inner_fsm.locals_type):
        raise FsmError(
            f"locals shapes differ: {locals_type.__name__} vs {inner_fsm.locals_type.__name__}"
        )
    di = inner_fsm.transition
    remap = {2: 3, 3: 4}

    def transition(k: int, z) -> int:
        if k in (1, 4):
            return 2 if outer_condition(z) else 5
        if k == 2:
            return remap[di(1, z)]
        if k == 3:
            return remap[di(2, z)]
        return 1

    return FsmDefinition(
        blocks=(pre_block, inner_fsm.blocks[0], inner_fsm.blocks[1],
                inner_fsm.blocks[2], post_block),
        transition=transition,
        labels=(labels[0], inner_fsm.labels[0], inner_fsm.labels[1],
                inner_fsm.labels[2], labels[1]),
        edges=frozenset({(1, 2), (1, 5), (2, 3), (2, 4), (3, 3), (3, 4),
                         (4, 2), (4, 5), (5, 1)}),
        loop_states=frozenset({2, 3, 4}),
        shared=inner_fsm.shared,
        locals_type=locals_type or inner_fsm.locals_type,
    )


def topology_as_dict(fsm: FsmDefinition) -> dict:
    """JSON-serializable description of the machine's topology."""
    return {
        "states": [{"id": i + 1, "label": lab} for i, lab in enumerate(fsm.labels)],
        "initial": fsm.initial,
        "final": fsm.final,
        "loop_states": sorted(fsm.loop_states),
        "edges": sorted([a, b] for a, b in fsm.edges),
    }


def topology_as_graphviz(fsm: FsmDefinition) -> str:
    """Graphviz digraph text for documentation."""
    lines = ["digraph fsm {", "  rankdir=LR;"]
    for i, lab in enumerate(fsm.labels, start=1):
        shape = "doublecircle" if i == fsm.final else "circle"
        lines.append(f'  s{i} [label="{lab}", shape={shape}];')
    for a, b in sorted(fsm.edges):
        lines.append(f"  s{a} -> s{b};")
    lines.append("}")
    return "\n".join(lines)
