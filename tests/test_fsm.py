import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsm_mcmc import fsm
from fsm_mcmc.fsm import (
    Block,
    FsmDefinition,
    FsmError,
    Locals,
    SharedComputation,
    While,
    bundled_step,
    compile_program,
    default_bundled_order,
    empty_block,
    step,
    topology_as_dict,
    validate_bundled_order,
)


class CounterLocals(Locals):
    """Scripted locals: each block appends its tag; predicates read counters."""

    __slots__ = ("trace", "body_budget", "body_runs", "outer_budget", "outer_runs",
                 "cache", "shared_calls")

    def __init__(self, body_budget=0, outer_budget=0):
        super().__init__(x=np.zeros(1), rng=None)
        self.trace = []
        self.body_budget = body_budget
        self.body_runs = 0
        self.outer_budget = outer_budget
        self.outer_runs = 0
        self.cache = 0.0
        self.shared_calls = 0


def tag(name):
    def block(z):
        z.trace.append(name)
        if name.endswith("BODY"):
            z.body_runs += 1
    return block


def single_loop(budget):
    machine = compile_program((
        Block(tag("INIT"), "INIT"),
        While(lambda z: z.body_runs < z.body_budget, (Block(tag("BODY"), "BODY"),)),
        Block(tag("DONE"), "DONE"),
    )).fsm
    return machine, CounterLocals(body_budget=budget)


# far above any test's need; a transition that never reaches the final
# state then fails the test instead of hanging it
DRIVE_MAX_TICKS = 1000


def drive(machine, z, step_fn=step, n_samples=1, start=1):
    """Run until n_samples flagged; return (ticks, per-state exec counts).

    Fails after ``DRIVE_MAX_TICKS`` ticks, naming the last state.
    """
    k = start
    ticks = 0
    execs = {s: 0 for s in range(1, machine.n_states + 1)}
    got = 0
    while got < n_samples:
        if ticks == DRIVE_MAX_TICKS:
            pytest.fail(f"{got} of {n_samples} samples after {ticks} ticks; "
                        f"last state {k} ({machine.labels[k - 1]})")
        out = step_fn(machine, k, z)
        ticks += 1
        for s in out.executed:
            execs[s] += 1
        if out.is_sample:
            got += 1
        k = out.state
    return ticks, execs, k


def test_step_flags_sample_at_final_state_and_wraps():
    machine, z = single_loop(0)
    out = step(machine, 3, z)
    assert out.is_sample
    assert out.state == 1
    assert out.executed == (3,)


def test_single_loop_condition_false_goes_straight_to_done():
    machine, z = single_loop(0)
    out = step(machine, 1, z)
    assert not out.is_sample
    assert out.state == 3
    ticks, _, _ = drive(machine, z, n_samples=1, start=out.state)
    assert 1 + ticks == 2  # INIT tick plus DONE tick


def test_single_loop_five_body_runs():
    machine, z = single_loop(5)
    ticks, execs, _ = drive(machine, z)
    assert z.trace == ["INIT"] + ["BODY"] * 5 + ["DONE"]
    assert ticks == 7
    assert execs == {1: 1, 2: 5, 3: 1}


def test_step_self_loop_edge_when_condition_stays_true():
    machine, z = single_loop(2)
    out = step(machine, 1, z)      # INIT -> BODY
    assert out.state == 2
    out = step(machine, 2, z)      # one body run left
    assert out.state == 2


def test_step_rejects_out_of_range_state():
    machine, z = single_loop(0)
    with pytest.raises(FsmError):
        step(machine, 4, z)


def test_bundled_two_state_fall_through():
    # two states: S1 -> S2 always, S2 wraps
    z = CounterLocals()
    machine = FsmDefinition(
        blocks=(tag("S1"), tag("S2")),
        transition=lambda k, z: 2 if k == 1 else 1,
        labels=("S1", "S2"),
        edges=frozenset({(1, 2), (2, 1)}),
    )
    out = bundled_step(machine, 1, z, order=(1, 2))
    assert z.trace == ["S1", "S2"]
    assert not out.is_sample            # flag comes from the entry state
    assert out.executed == (1, 2)
    z2 = CounterLocals()
    out2 = bundled_step(machine, 2, z2, order=(1, 2))
    assert z2.trace == ["S2"]           # first conditional misses
    assert out2.is_sample


def test_default_bundled_order_is_final_first():
    machine, _ = single_loop(0)
    assert default_bundled_order(machine) == (3, 1, 2)


def test_validate_bundled_order_rejects_sample_swallowing_orders():
    machine, _ = single_loop(0)
    validate_bundled_order(machine, (3, 1, 2))
    with pytest.raises(FsmError):
        validate_bundled_order(machine, (1, 2, 3))
    with pytest.raises(FsmError):
        validate_bundled_order(machine, (1, 2))


def test_bundled_collects_every_sample_with_default_order():
    machine, z = single_loop(3)
    ticks_b, execs_b, _ = drive(machine, z, step_fn=bundled_step, n_samples=4)
    assert execs_b[3] == 4
    machine2, z2 = single_loop(3)
    ticks_p, execs_p, _ = drive(machine2, z2, n_samples=4)

    def upto_4th_done(trace):
        idx = [i for i, t in enumerate(trace) if t == "DONE"][3]
        return trace[: idx + 1]

    # identical block trace up to the 4th finished sample; bundling only
    # packs more of it into each tick (the flagged tick may run ahead)
    assert upto_4th_done(z.trace) == upto_4th_done(z2.trace)
    assert ticks_b <= ticks_p


def test_amortized_step_runs_shared_between_block_and_transition():
    def needs(z):
        z.trace.append("BLOCK")

    def g(z):
        z.shared_calls += 1
        z.cache = 1.0

    def transition(k, z):
        # the predicate reads the cache: it must be fresh here
        if k == 2:
            return 1
        return 2 if z.cache > 0 else 1

    machine = FsmDefinition(
        blocks=(needs, tag("DONE")),
        transition=transition,
        labels=("BLOCK", "DONE"),
        edges=frozenset({(1, 2), (1, 1), (2, 1)}),
        shared=SharedComputation(fn=g, sites=frozenset({1})),
    )
    # the amortized variant runs this same step; only its charge differs
    z = CounterLocals()
    out = step(machine, 1, z)
    assert z.shared_calls == 1
    assert out.state == 2                # saw the fresh cache
    # not a shared site -> cache untouched
    z2 = CounterLocals()
    step(machine, 2, z2)
    assert z2.shared_calls == 0


def test_compose_sequential_topology_and_path():
    machine = compile_program((
        Block(tag("INIT-E"), "INIT-E"),
        While(lambda z: False, (Block(tag("EXPAND"), "EXPAND"),)),
        Block(empty_block, "INIT-S"),
        While(lambda z: False, (Block(tag("SHRINK"), "SHRINK"),)),
        Block(tag("DONE"), "DONE"),
    )).fsm
    assert machine.labels == ("INIT-E", "EXPAND", "INIT-S", "SHRINK", "DONE")
    assert machine.final == 5
    assert machine.loop_states == frozenset({2, 4})
    # both loop conditions constantly false: the sample path is 3 blocks
    z = CounterLocals()
    ticks, execs, _ = drive(machine, z)
    assert ticks == 3
    assert execs == {1: 1, 2: 0, 3: 1, 4: 0, 5: 1}


def test_compose_sequential_with_trivial_second_machine():
    machine = compile_program((
        Block(tag("INIT"), "INIT"),
        While(lambda z: z.body_runs < z.body_budget, (Block(tag("BODY"), "BODY"),)),
        Block(empty_block, "MID"),
        While(lambda z: False, (Block(empty_block, "EMPTY"),)),
        Block(tag("DONE"), "DONE"),
    )).fsm
    z = CounterLocals(body_budget=2)
    ticks, execs, _ = drive(machine, z)
    assert execs[2] == 2 and execs[4] == 0 and execs[5] == 1
    assert ticks == 1 + 2 + 1 + 1  # INIT, BODY x2, MID, DONE


def nested_machine():
    def outer_pre(z):
        z.trace.append("PRE")
        z.outer_runs = 0

    def inner_pre(z):
        z.trace.append("IPRE")
        z.body_runs = 0
        z.outer_runs += 1

    return compile_program((
        Block(outer_pre, "PRE"),
        While(lambda z: z.outer_runs < z.outer_budget, (
            Block(inner_pre, "IPRE"),
            While(lambda z: z.body_runs < z.body_budget, (Block(tag("IBODY"), "IBODY"),)),
            Block(tag("IPOST"), "IPOST"),
        )),
        Block(tag("POST"), "POST"),
    )).fsm


def test_compose_nested_constant_false_outer_condition():
    machine = nested_machine()
    z = CounterLocals(body_budget=3, outer_budget=0)
    ticks, execs, _ = drive(machine, z)
    assert ticks == 2
    assert z.trace == ["PRE", "POST"]


def test_compose_nested_two_by_three_execution_counts():
    machine = nested_machine()
    z = CounterLocals(body_budget=3, outer_budget=2)
    ticks, execs, _ = drive(machine, z)
    assert execs == {1: 1, 2: 2, 3: 6, 4: 2, 5: 1}
    assert z.trace == (["PRE"] + (["IPRE"] + ["IBODY"] * 3 + ["IPOST"]) * 2 + ["POST"])


def test_compose_nested_topology():
    machine = nested_machine()
    assert machine.loop_states == frozenset({2, 3, 4})
    assert (4, 2) in machine.edges and (1, 5) in machine.edges
    assert (2, 4) in machine.edges  # generic inner-skip edge
    with pytest.raises(FsmError, match="at least one block"):  # empty inner loop
        compile_program((Block(tag("A"), "A"),
                         While(lambda z: False, (While(lambda z: False, ()),)),
                         Block(tag("B"), "B")))


def test_fsm_validation_catches_bad_structures():
    with pytest.raises(FsmError):  # final state missing wrap-around
        FsmDefinition(blocks=(tag("A"), tag("B")),
                      transition=lambda k, z: 2,
                      labels=("A", "B"),
                      edges=frozenset({(1, 2), (2, 2)}))
    with pytest.raises(FsmError):  # unreachable state
        FsmDefinition(blocks=(tag("A"), tag("B"), tag("C")),
                      transition=lambda k, z: 3,
                      labels=("A", "B", "C"),
                      edges=frozenset({(1, 3), (3, 1)}))
    with pytest.raises(FsmError):  # edge out of range
        FsmDefinition(blocks=(tag("A"),),
                      transition=lambda k, z: 1,
                      labels=("A",),
                      edges=frozenset({(1, 1), (1, 2)}))
    with pytest.raises(FsmError):  # wrong label count
        FsmDefinition(blocks=(tag("A"),),
                      transition=lambda k, z: 1,
                      labels=("A", "B"),
                      edges=frozenset({(1, 1)}))


def test_machine_trace_equals_monolithic_trace_on_random_programs():
    # dual path: the same tagged blocks driven by explicit while loops and
    # by the state machine must produce identical block traces per sample
    rng = np.random.default_rng(123)
    for trial in range(20):
        outer_budget = int(rng.integers(0, 4))
        body_budget = int(rng.integers(0, 5))

        def outer_pre(z):
            z.trace.append("PRE")
            z.outer_runs = 0

        def inner_pre(z):
            z.trace.append("IPRE")
            z.body_runs = 0
            z.outer_runs += 1

        inner_body = tag("IBODY")
        inner_post = tag("IPOST")
        post = tag("POST")

        def inner_cond(z):
            return z.body_runs < z.body_budget

        def outer_cond(z):
            return z.outer_runs < z.outer_budget

        machine = compile_program((
            Block(outer_pre, "PRE"),
            While(outer_cond, (Block(inner_pre, "IPRE"),
                               While(inner_cond, (Block(inner_body, "IBODY"),)),
                               Block(inner_post, "IPOST"))),
            Block(post, "POST"),
        )).fsm

        z_mono = CounterLocals(body_budget=body_budget, outer_budget=outer_budget)
        outer_pre(z_mono)
        while outer_cond(z_mono):
            inner_pre(z_mono)
            while inner_cond(z_mono):
                inner_body(z_mono)
            inner_post(z_mono)
        post(z_mono)

        z_fsm = CounterLocals(body_budget=body_budget, outer_budget=outer_budget)
        drive(machine, z_fsm, n_samples=1)
        assert z_fsm.trace == z_mono.trace, (trial, outer_budget, body_budget)


class ScriptLocals(Locals):
    """Locals of a fuzzed program: each block appends its label to ``trace``
    and every loop reads its trip count from ``script`` (zeros once it runs
    out, for the blocks a bundled call runs past the last sample)."""

    __slots__ = ("trace", "script", "left", "outer_left")

    def __init__(self, script):
        super().__init__(x=np.zeros(1), rng=None)
        self.trace = []
        self.script = itertools.chain(script, itertools.repeat(0))
        self.left = 0
        self.outer_left = 0


def _block(label, action=None):
    def block(z):
        z.trace.append(label)
        if action is not None:
            action(z)
    return block


def _read_trips(z):
    z.left = next(z.script)


def _count_down(z):
    z.left -= 1


def _read_outer_trips(z):
    z.outer_left = next(z.script)


def _start_inner(z):
    z.outer_left -= 1
    z.left = next(z.script)


def _inner_continues(z):
    return z.left > 0


def _outer_continues(z):
    return z.outer_left > 0


_TRIPS = st.integers(min_value=0, max_value=5)


def _single_loop_program():
    pre, body, post = _block("PRE", _read_trips), _block("BODY", _count_down), _block("POST")

    def program(z):
        pre(z)
        while _inner_continues(z):
            body(z)
        post(z)

    tree = (Block(pre, "PRE"), While(_inner_continues, (Block(body, "BODY"),)),
            Block(post, "POST"))
    return tree, program, st.tuples(_TRIPS).map(list)


def _sequential_program():
    pre, expand = _block("PRE", _read_trips), _block("EXPAND", _count_down)
    mid, shrink, post = (_block("MID", _read_trips), _block("SHRINK", _count_down),
                         _block("POST"))

    def program(z):
        pre(z)
        while _inner_continues(z):
            expand(z)
        mid(z)
        while _inner_continues(z):
            shrink(z)
        post(z)

    tree = (Block(pre, "PRE"), While(_inner_continues, (Block(expand, "EXPAND"),)),
            Block(mid, "MID"), While(_inner_continues, (Block(shrink, "SHRINK"),)),
            Block(post, "POST"))
    return tree, program, st.tuples(_TRIPS, _TRIPS).map(list)


def _nested_program():
    pre, post = _block("PRE", _read_outer_trips), _block("POST")
    ipre, ibody, ipost = (_block("IPRE", _start_inner), _block("IBODY", _count_down),
                          _block("IPOST"))

    def program(z):
        pre(z)
        while _outer_continues(z):
            ipre(z)
            while _inner_continues(z):
                ibody(z)
            ipost(z)
        post(z)

    tree = (Block(pre, "PRE"),
            While(_outer_continues, (Block(ipre, "IPRE"),
                                     While(_inner_continues, (Block(ibody, "IBODY"),)),
                                     Block(ipost, "IPOST"))),
            Block(post, "POST"))
    # one outer trip count, then one inner trip count per outer iteration
    sample = st.lists(_TRIPS, max_size=4).map(lambda inner: [len(inner), *inner])
    return tree, program, sample


def _split_body_program():
    # drmh-split's shape: a loop body of several blocks, the condition
    # tested only after the last of them
    pre, post = _block("PRE", _read_trips), _block("POST")
    draw, evaluate, test, apply = (_block("DRAW", _count_down), _block("EVAL"),
                                   _block("TEST"), _block("APPLY"))

    def program(z):
        pre(z)
        while _inner_continues(z):
            draw(z)
            evaluate(z)
            test(z)
            apply(z)
        post(z)

    tree = (Block(pre, "PRE"),
            While(_inner_continues, (Block(draw, "DRAW"), Block(evaluate, "EVAL"),
                                     Block(test, "TEST"), Block(apply, "APPLY"))),
            Block(post, "POST"))
    return tree, program, st.tuples(_TRIPS).map(list)


_PROGRAMS = {"single": _single_loop_program, "sequential": _sequential_program,
             "nested": _nested_program, "split-body": _split_body_program}


def _executors(machine):
    """fsm.step (as None) and every bundled order that keeps all samples."""
    orders = [None]
    for order in itertools.permutations(range(1, machine.n_states + 1)):
        try:
            validate_bundled_order(machine, order)
        except FsmError:
            continue
        orders.append(order)
    return orders


@pytest.mark.parametrize("shape", sorted(_PROGRAMS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_compositions_run_their_while_loop_programs(shape, data):
    # per-sample trip counts drawn at random: the compiled machine, stepped
    # by fsm.step or fsm.bundled_step, runs the program's blocks in the
    # program's order and flags each sample at the program's DONE block;
    # the compiled interpreter runs the same blocks and counts each loop
    # state's executions in the sample
    tree, program, one_sample = _PROGRAMS[shape]()
    compiled = compile_program(tree)
    machine = compiled.fsm
    samples = data.draw(st.lists(one_sample, min_size=1, max_size=5), label="samples")
    script = [trips for sample in samples for trips in sample]
    ref = ScriptLocals(script)
    ends = []
    for _ in samples:
        program(ref)
        ends.append(len(ref.trace))

    interpreted = ScriptLocals(script)
    for start, end in zip([0, *ends], ends):
        counts = compiled.monolithic(interpreted)
        assert interpreted.trace == ref.trace[:end]
        assert counts == {s: ref.trace[start:end].count(machine.labels[s - 1])
                          for s in machine.loop_states}

    order = data.draw(st.sampled_from(_executors(machine)), label="order")
    z = ScriptLocals(script)
    k, got_ends = 1, []
    for _ in range(ends[-1]):  # every call runs at least one block
        if len(got_ends) == len(samples):
            break
        start = len(z.trace)
        out = step(machine, k, z) if order is None else bundled_step(machine, k, z, order)
        assert z.trace[start:] == [machine.labels[s - 1] for s in out.executed]
        assert out.is_sample == (out.executed[0] == machine.final)
        if out.is_sample:
            got_ends.append(start + 1)
        k = out.state
    assert got_ends == ends
    assert z.trace[:ends[-1]] == ref.trace


def _b(label):
    return Block(tag(label), label)


@pytest.mark.parametrize("program, message", [
    ((While(lambda z: False, (_b("A"),)), _b("B")), "starts with a block"),
    ((), "starts with a block"),
    ((_b("A"), While(lambda z: False, (_b("B"),))), "ends with a block outside"),
    ((_b("A"), While(lambda z: False, ()), _b("B")), "at least one block"),
    ((_b("A"), _b("B")), "at least one While"),
], ids=["starts-with-a-loop", "empty", "ends-in-a-loop", "empty-loop-body", "no-loop"])
def test_compile_program_rejects_malformed_programs(program, message):
    with pytest.raises(FsmError, match=message):
        compile_program(program)


def test_compile_program_reads_shared_sites_from_block_marks():
    def refresh(z):
        z.shared_calls += 1

    program = (Block(tag("A"), "A", shared=True),
               While(lambda z: False, (Block(tag("B"), "B", shared=True),)),
               _b("C"))
    assert compile_program(program, refresh).fsm.shared.sites == frozenset({1, 2})
    with pytest.raises(FsmError, match="no shared computation"):
        compile_program(program)


def test_topology_export_json():
    machine, _ = single_loop(0)
    doc = topology_as_dict(machine)
    json.dumps(doc)  # serializable
    assert doc["initial"] == 1 and doc["final"] == 3
    assert [2, 2] in doc["edges"]
