"""Wrappers around the program's public callables: driver timers and span tracing.

Nothing in the program changes.  For the duration of one operation the
benchmark swaps module attributes of ``fsm_mcmc`` for wrappers and restores
them afterwards:

* :class:`Capture` (always on) times the two driver calls as
  ``run_experiment`` makes them and keeps their samples, ledgers and
  batches, so the correctness checks can read the program's outputs;
* :class:`Tracer` (traced runs only) records one span per call at every
  layer boundary: the target's callables (via ``dataclasses.replace``), the
  PRNG functions as bound in the kernel modules, the machine's blocks,
  shared computation and transition, the bundled executor, the drivers,
  the analysis pass and the CLI's builders.

Spans are kept in memory in flat arrays (about 30 bytes each) and written
out once, after the traced operation.

:func:`machine_probe` times a fixed computation that does not touch
``fsm_mcmc``, to read how fast the shared machine is running at the moment.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array

import numpy as np

from fsm_mcmc import analysis, cli, fsm, prng
from fsm_mcmc.kernels import drmh, elliptical, nuts, slice_sampling

# The order in which run_experiment does its work; a span belongs to the
# phase that was current when it started.
PHASES = ("barrier", "fsm", "post")
BARRIER, FSM, POST = range(3)

_KERNEL_MODULES = (drmh, elliptical, nuts, slice_sampling)


@contextlib.contextmanager
def patched(replacements):
    """Set ``(obj, attribute, value)`` triples, restoring the originals on exit."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in replacements]
    try:
        for obj, name, value in replacements:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)


_MASK64 = (1 << 64) - 1
_PROBE_MATRIX = 50.0 * np.eye(50) + np.ones((50, 50))


def machine_probe() -> float:
    """Seconds taken by a fixed reference computation of about 30 ms.

    It mixes the kinds of work the workloads do: 64-bit integer mixing in
    Python ints (as the PRNG does), small numpy calls (as the kernels do)
    and 50 x 50 Cholesky factorizations (as the GP target does).
    """
    t0 = time.perf_counter()
    x = 0x9E3779B97F4A7C15
    for _ in range(30000):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    a, b = np.zeros(2), np.ones(2)
    for _ in range(6000):
        a = a + 0.5 * b
        float(a @ b)
    for _ in range(100):
        np.linalg.cholesky(_PROBE_MATRIX)
    return time.perf_counter() - t0


def probe_for(seconds: float) -> list[float]:
    """Times of back-to-back machine probes for about ``seconds``; at least one."""
    times = [machine_probe()]
    while sum(times) < seconds:
        times.append(machine_probe())
    return times


class Capture:
    """Times the driver calls and keeps what ``run_experiment`` feeds and gets."""

    def __init__(self):
        self.batches: list = []          # [barrier batch, state-machine batch]
        self.samples: dict = {}
        self.ledgers: dict = {}
        self.seconds: dict = {}

    def _init_batch(self, fn):
        def wrapper(*args, **kwargs):
            batch = fn(*args, **kwargs)
            self.batches.append(batch)
            return batch
        return wrapper

    def _driver(self, regime, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            samples, ledger = fn(*args, **kwargs)
            self.seconds[regime] = time.perf_counter() - t0
            self.samples[regime] = samples
            self.ledgers[regime] = ledger
            return samples, ledger
        return wrapper

    def replacements(self, init_batch, run_standard, run_fsm):
        return [
            (cli, "init_batch", self._init_batch(init_batch)),
            (cli, "run_standard_batched", self._driver("barrier", run_standard)),
            (cli, "run_fsm_batched", self._driver("fsm", run_fsm)),
        ]

    def patch(self):
        return patched(self.replacements(
            cli.init_batch, cli.run_standard_batched, cli.run_fsm_batched))


class Tracer:
    """In-memory spans: name, parent span, phase, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.phase = BARRIER
        self.draws = [0] * len(PHASES)   # scalar PRNG counters consumed

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, draws=None, after=None):
        """Wrap ``fn`` in a span; ``draws(args)`` counts PRNG draws, ``after()`` runs on return."""
        nid = self._id(name)
        name_add, parent_add = self.name_of.append, self.parent.append
        phase_add, start_add, end_add = self.phase_of.append, self.start.append, self.end.append
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(start)
            name_add(nid)
            parent_add(stack[-1])
            phase_add(self.phase)
            start_add(0.0)
            end_add(0.0)
            if draws is not None:
                self.draws[self.phase] += draws(args, kwargs)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
                if after is not None:
                    after()
        return span

    def _set_phase(self, phase):
        def after():
            self.phase = phase
        return after

    def _traced_target(self, build_target):
        def wrapper(config):
            target = build_target(config)
            fields = {}
            for attr in ("log_density", "gradient", "log_density_and_grad"):
                fn = getattr(target, attr)
                if fn is not None:
                    fields[attr] = self.wrap(f"targets.{attr}", fn)
            prior = target.gaussian_prior
            if prior is not None:
                fields["gaussian_prior"] = dataclasses.replace(
                    prior, residual_log_density=self.wrap(
                        "targets.residual_log_density", prior.residual_log_density))
            return dataclasses.replace(target, **fields)
        return self.wrap("cli.build_target", wrapper)

    def _traced_kernel(self, build_kernel):
        def wrapper(config):
            bundle = build_kernel(config)
            machine = bundle.fsm
            shared = machine.shared
            if shared is not None:
                shared = dataclasses.replace(
                    shared, fn=self.wrap("kernels.shared", shared.fn))
            machine = dataclasses.replace(
                machine,
                blocks=tuple(self.wrap(f"kernels.block.{label}", block)
                             for label, block in zip(machine.labels, machine.blocks)),
                transition=self.wrap("fsm.transition", machine.transition),
                shared=shared,
            )
            return dataclasses.replace(
                bundle, fsm=machine,
                monolithic=self.wrap("kernels.monolithic", bundle.monolithic))
        return self.wrap("cli.build_kernel", wrapper)

    def replacements(self, capture: Capture):
        """Patches for one traced operation, layered under ``capture``'s own."""
        one = lambda args, kwargs: 1  # noqa: E731
        dim = lambda args, kwargs: args[1] if len(args) > 1 else kwargs["dim"]  # noqa: E731
        out = [
            (cli, "build_target", self._traced_target(cli.build_target)),
            (cli, "build_kernel", self._traced_kernel(cli.build_kernel)),
            (fsm, "bundled_step", self.wrap("fsm.bundled_step", fsm.bundled_step)),
            (analysis, "effective_sample_size",
             self.wrap("analysis.effective_sample_size", analysis.effective_sample_size)),
            (analysis, "efficiency_report",
             self.wrap("analysis.efficiency_report", analysis.efficiency_report)),
            # init_batch draws its jitter through prng.normal_vec at call time
            (prng, "normal_vec", self.wrap("prng.normal_vec", prng.normal_vec, draws=dim)),
        ]
        for module in _KERNEL_MODULES:
            if hasattr(module, "uniform"):
                out.append((module, "uniform",
                            self.wrap("prng.uniform", module.uniform, draws=one)))
            if hasattr(module, "normal_vec"):
                out.append((module, "normal_vec",
                            self.wrap("prng.normal_vec", module.normal_vec, draws=dim)))
        out += capture.replacements(
            self.wrap("lockstep.init_batch", cli.init_batch),
            self.wrap("lockstep.run_standard_batched", cli.run_standard_batched,
                      after=self._set_phase(FSM)),
            self.wrap("lockstep.run_fsm_batched", cli.run_fsm_batched,
                      after=self._set_phase(POST)),
        )
        return out

    def patch(self, capture: Capture):
        return patched(self.replacements(capture))

    # -- analysis of the recorded spans ---------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, calls per phase.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        by_phase = np.zeros((k, len(PHASES)), dtype=np.int64)
        np.add.at(by_phase, (a["name"], a["phase"]), 1)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i]),
                   "phase_calls": [int(c) for c in by_phase[i]]}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), phases=np.array(PHASES),
                            **self.arrays())
