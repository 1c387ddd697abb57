"""State-machine representation of transition kernels.

A kernel is written once, as a program: a tuple of :class:`Block` nodes
(while-loop-free functions that mutate a per-chain :class:`Locals` record in
place) and :class:`While` nodes (a continue predicate and a body).
:func:`compile_program` derives both forms of the kernel from it:

* the machine, K blocks numbered 1..K in program order plus a transition
  function that holds the loop predicates;
* the monolithic form, one interpreter that runs the program's while loops
  on the locals and counts each loop state's executions.

This is the program-counter view of autobatching (Radul et al.,
"Automatically batching control-intensive programs for modern
accelerators", MLSys 2020): a state id is a program counter.  Two machine
executors are provided:

* :func:`step` - run one block and one transition (one state per tick),
* :func:`bundled_step` - chain the per-state conditionals so a chain can
  fall through several states in a single tick.

They are the single-call reference executors: the batched driver
(:func:`fsm_mcmc.lockstep.run_fsm_batched`) inlines both in its tick loop,
and tests compare it against them.

Kernels that share an expensive computation (e.g. a log-density needed both
to set a threshold and to test it) never call it inside a block.  Instead the
program marks the blocks that need it (``Block(..., shared=True)``), and every
executor evaluates the shared function after each run of a marked block,
*between the block and the transition*, so the loop predicate always sees a
fresh value (:attr:`FsmDefinition.steps`).  Under the batched cost model this
is what makes the shared work chargeable once per tick instead of once per
call site: the ``amortized`` step variant runs :func:`step` and differs from
``plain`` only in that charge (``CostParams.tick_cost``).

Conventions every shipped kernel follows:

* state 1 is initial, state K is final, and the final state's only outgoing
  edge wraps back to state 1;
* only the final block writes ``locals.x`` (the recorded sample), so the
  value read after a flagged tick is the finished sample even when bundling
  runs further blocks in the same call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    "Block",
    "While",
    "CompiledProgram",
    "compile_program",
    "empty_block",
    "topology_as_dict",
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

    Subclasses add kernel-specific fields.  ``x`` is the current sample and
    ``rng`` the chain's stream position.  Blocks are procedures that change
    this record in place and return nothing.  They keep no loop counters:
    the drivers and the program interpreter count block executions.
    """

    __slots__ = ("x", "rng")

    def __init__(self, x, rng):
        self.x = x
        self.rng = rng


@dataclass(frozen=True)
class SharedComputation:
    """An expensive function shared by several blocks.

    ``fn`` reads the locals and writes its result into a cache field on the
    locals; ``sites`` are the states whose blocks are marked shared, each one
    call site in the cost model.  Executors run ``fn`` once after every
    execution of a state in ``sites``.
    """

    fn: Callable[[Any], None]
    sites: frozenset[int]


@dataclass(frozen=True)
class FsmDefinition:
    """A kernel as (states, locals space, transition, initial, final).

    States are indexed 1..K; ``blocks[k-1]`` is the function for state k.
    ``edges`` declares every transition the ``transition`` callable may take;
    it is what makes the machine checkable and exportable.  Kernels get
    theirs from :func:`compile_program`.
    """

    blocks: tuple[Callable[[Any], None], ...]
    transition: Callable[[int, Any], int]
    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    loop_states: frozenset[int] = frozenset()
    shared: SharedComputation | None = None

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

    @cached_property
    def steps(self) -> tuple[Callable[[Any], None], ...]:
        """What an executor runs for state k, at ``steps[k-1]``: the block,
        followed by the shared refresh when k is a shared site.

        Read from this machine's own fields, so a copy made with
        ``dataclasses.replace`` runs its own blocks and shared function.
        """
        if self.shared is None:
            return self.blocks
        sites, refresh = self.shared.sites, self.shared.fn

        def refreshed(block):
            def run(z):
                block(z)
                refresh(z)
            return run

        return tuple(refreshed(b) if k in sites else b
                     for k, b in enumerate(self.blocks, start=1))

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
    is_sample: bool
    executed: tuple[int, ...]


def step(fsm: FsmDefinition, k: int, z) -> StepOutcome:
    """Run state k's block on ``z``, refresh the shared cache if k is a shared
    site, and transition.

    The sample flag is computed from the *entry* state, before the block
    runs; the final block therefore finishes its sample in the same call
    that flags it.
    """
    if not 1 <= k <= fsm.n_states:
        raise FsmError(f"state {k} outside 1..{fsm.n_states}")
    is_sample = k == fsm.n_states
    fsm.steps[k - 1](z)
    return StepOutcome(fsm.transition(k, z), is_sample, (k,))


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
    steps = fsm.steps
    executed = []
    for s in order:
        if k == s:
            steps[s - 1](z)
            k = fsm.transition(s, z)
            executed.append(s)
    return StepOutcome(k, is_sample, tuple(executed))


def empty_block(z):
    """The no-op block, for a state that only separates two loops."""


class Block(NamedTuple):
    """A while-loop-free block of a kernel program; one machine state.

    ``fn(z)`` changes the chain's locals in place and returns nothing.
    ``shared`` marks a block after every run of which the executors refresh
    the kernel's shared computation (one call site in the cost model).
    """

    fn: Callable[[Any], None]
    label: str
    shared: bool = False


class While(NamedTuple):
    """``while cond(z): body`` in a kernel program; ``body`` is a tuple of nodes."""

    cond: Callable[[Any], bool]
    body: tuple


class CompiledProgram(NamedTuple):
    """What :func:`compile_program` derives from one program tree."""

    fsm: FsmDefinition
    monolithic: Callable[[Any], dict[int, int]]
    iter_states: tuple[int, ...]


def compile_program(program: tuple, shared: Callable[[Any], None] | None = None
                    ) -> CompiledProgram:
    """Number a program's blocks 1..K in order and derive both of its forms.

    A program is a tuple of :class:`Block` and :class:`While` nodes, with at
    least one loop, that starts with a block and ends with a block outside
    every loop; ``shared`` is the kernel's shared computation, if any.  The
    machine's transition out of block k follows program order from k,
    evaluating each ``While`` condition it meets, and wraps the last block
    to 1; its edges are every way that walk can go.  The loop states are the
    blocks inside a ``While``; ``iter_states`` is the first block of each
    innermost loop body.

    ``monolithic(z)`` runs the same blocks as while loops on ``z`` in place,
    refreshing the shared cache after every run of a marked block, as the
    executors do, and returns each loop state's executions.
    """
    blocks: list[Block] = []
    loop_states: set[int] = set()
    iter_states: list[int] = []

    def number(nodes: tuple, in_loop: bool) -> tuple:
        # the tree with each block replaced by its state id
        if not nodes:
            raise FsmError("a While body needs at least one block")
        out = []
        for node in nodes:
            if isinstance(node, Block):
                blocks.append(node)
                out.append(len(blocks))
                if in_loop:
                    loop_states.add(len(blocks))
            elif isinstance(node, While):
                body = number(node.body, True)
                if all(type(b) is int for b in body):
                    iter_states.append(body[0])
                out.append(While(node.cond, body))
            else:
                raise FsmError(f"program node {node!r} is neither a Block nor a While")
        return tuple(out)

    if not (program and isinstance(program[0], Block) and isinstance(program[-1], Block)):
        raise FsmError("a program starts with a block and ends with a block outside "
                       "every loop")
    tree = number(program, False)
    if not iter_states:  # the drivers count each sample's N in its loops
        raise FsmError("a program needs at least one While loop")
    K = len(blocks)
    sites = frozenset(k for k, b in enumerate(blocks, start=1) if b.shared)
    if sites and shared is None:
        raise FsmError("blocks are marked shared but no shared computation is given")

    # after[k]: where control goes once block k has run, either a state id
    # or a loop test [cond, state-or-test if true, state-or-test if false]
    after: list = [None] * (K + 1)

    def link(nodes: tuple, cont):
        for node in reversed(nodes):
            if type(node) is int:
                after[node] = cont
                cont = node
            else:
                test = [node.cond, None, cont]
                test[1] = link(node.body, test)
                cont = test
        return cont

    link(tree, 1)

    def transition(k: int, z) -> int:
        c = after[k]
        while type(c) is list:
            c = c[1] if c[0](z) else c[2]
        return c

    edges = set()
    for k in range(1, K + 1):
        todo, seen = [after[k]], set()
        while todo:
            c = todo.pop()
            if type(c) is not list:
                edges.add((k, c))
            elif id(c) not in seen:
                seen.add(id(c))
                todo += c[1:]

    machine = FsmDefinition(
        blocks=tuple(b.fn for b in blocks),
        transition=transition,
        labels=tuple(b.label for b in blocks),
        edges=frozenset(edges),
        loop_states=frozenset(loop_states),
        shared=SharedComputation(shared, sites) if shared is not None else None,
    )
    monolithic = _interpreter(tree, machine.steps, sorted(loop_states))
    return CompiledProgram(machine, monolithic, tuple(iter_states))


def _interpreter(tree: tuple, fns: tuple, loop_states: list[int]):
    """Compile a numbered program tree into ``monolithic(z) -> {loop state: executions}``.

    ``fns[k-1]`` is what state k runs (:attr:`FsmDefinition.steps`).  A
    sequence becomes a tuple of steps: a state's function, or a loop closure
    that takes the counts too.  A loop counts its iterations once and
    credits them to each block directly in its body.
    """

    def run(steps: tuple, z, counts: dict) -> None:
        for fn, is_loop in steps:
            if is_loop:
                fn(z, counts)
            else:
                fn(z)

    def compile_seq(nodes: tuple) -> tuple:
        return tuple((fns[node - 1], False) if type(node) is int
                     else (compile_loop(node), True) for node in nodes)

    def compile_loop(node: While):
        cond, body = node.cond, compile_seq(node.body)
        states = tuple(s for s in node.body if type(s) is int)
        if len(body) == 1 and states:
            # a one-block body (drmh, slice, elliptical's SHRINK, NUTS's
            # inner loop): call it straight from the while loop.  Through
            # `run`, drmh-wide's barrier_samples_per_s fell 3.0% (10
            # alternating pairs, 1 won); nuts-narrow's moved within noise.
            fn, (s,) = body[0][0], states

            def loop(z, counts: dict) -> None:
                i = 0
                while cond(z):
                    fn(z)
                    i += 1
                counts[s] += i
        else:
            def loop(z, counts: dict) -> None:
                i = 0
                while cond(z):
                    run(body, z, counts)
                    i += 1
                for s in states:
                    counts[s] += i
        return loop

    top = compile_seq(tree)
    zero = dict.fromkeys(loop_states, 0)

    def monolithic(z) -> dict[int, int]:
        counts = zero.copy()
        run(top, z, counts)
        return counts

    return monolithic


def topology_as_dict(fsm: FsmDefinition) -> dict:
    """JSON-serializable description of the machine's topology."""
    return {
        "states": [{"id": i + 1, "label": lab} for i, lab in enumerate(fsm.labels)],
        "initial": fsm.initial,
        "final": fsm.final,
        "loop_states": sorted(fsm.loop_states),
        "edges": sorted([a, b] for a, b in fsm.edges),
    }
