"""Span tracing of the rlapso package, installed from outside the package.

``Patches`` swaps package attributes for wrappers and restores them on exit.
A module-level function is replaced in every ``rlapso`` namespace that holds
it (``make_objective`` lives in ``benchmarks``, ``ddpg`` and ``harness``;
``adam_update`` and ``soft_update`` in ``neural`` and ``ddpg``), because
patching only the defining module would miss every caller that imported the
name.  A method is replaced on its class.

``Tracer`` records one span per wrapped call: name, start, end and the span
that was open when the call began.  Spans stay in flat arrays in memory and
are written out once, after the traced pass.  A span's self time is its
duration minus the time its direct child spans cover; calls nest strictly in
this single-threaded program, so that is the sum of the children's durations.
"""
from __future__ import annotations

import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, defining module, attribute; "Class.method" for a method)
TARGETS = (
    ("benchmarks.evaluate", "rlapso.benchmarks", "Objective.evaluate"),
    ("benchmarks.make_objective", "rlapso.benchmarks", "make_objective"),
    ("swarm.init", "rlapso.swarm", "Swarm.__init__"),
    ("swarm.pso_step", "rlapso.swarm", "Swarm.pso_step"),
    ("swarm.clpso_step", "rlapso.swarm", "Swarm.clpso_step"),
    ("swarm.rlpso_step", "rlapso.swarm", "Swarm.rlpso_step"),
    ("ddpg.observe", "rlapso.ddpg", "observe"),
    ("ddpg.encode", "rlapso.ddpg", "encode"),
    ("ddpg.act", "rlapso.ddpg", "DdpgAgent.act"),
    ("ddpg.act", "rlapso.ddpg", "ActorPolicy.act"),
    ("ddpg.coefficient_sets", "rlapso.ddpg", "coefficient_sets"),
    ("ddpg.train", "rlapso.ddpg", "train"),
    ("ddpg.train_step", "rlapso.ddpg", "DdpgAgent.train_step"),
    ("ddpg.buffer.sample", "rlapso.ddpg", "ReplayBuffer.sample"),
    ("ddpg.buffer.push", "rlapso.ddpg", "ReplayBuffer.push"),
    ("ddpg.validation", "rlapso.ddpg", "_validation_score"),
    ("ddpg.adapted_run", "rlapso.ddpg", "adapted_run"),
    ("ddpg.load_model", "rlapso.ddpg", "load_model"),
    ("neural.forward", "rlapso.neural", "Mlp.forward"),
    ("neural.backward", "rlapso.neural", "Mlp.backward"),
    ("neural.adam_update", "rlapso.neural", "adam_update"),
    ("neural.soft_update", "rlapso.neural", "soft_update"),
    ("harness.run_experiment", "rlapso.harness", "run_experiment"),
    ("harness.run_single", "rlapso.harness", "run_single"),
    ("harness.write_curve_csv", "rlapso.harness", "write_curve_csv"),
    ("harness.summarize", "rlapso.harness", "summarize"),
)

_STEPS = ("swarm.pso_step", "swarm.clpso_step", "swarm.rlpso_step")
_POLICY = ("ddpg.observe", "ddpg.encode", "ddpg.act", "ddpg.coefficient_sets")


class Patches:
    """Replaces package attributes with wrappers; ``__exit__`` restores them."""

    def __init__(self):
        self._undo = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            holder, name, old = self._undo.pop()
            setattr(holder, name, old)

    def wrap(self, module_name: str, path: str, make_wrapper) -> bool:
        """Replace ``module.path`` by ``make_wrapper(original)`` wherever the
        package holds it.  Returns False when the attribute does not exist."""
        module = sys.modules[module_name]
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                return False
            holders = [(cls, attr)]
        else:
            original = vars(module).get(attr)
            if original is None:
                return False
            holders = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "rlapso" or mod_name.startswith("rlapso.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        wrapper = make_wrapper(original)
        for holder, key in holders:
            self._undo.append((holder, key, getattr(holder, key)))
            setattr(holder, key, wrapper)
        return True


class Tracer:
    """Records spans around every call into the ``TARGETS``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.curve_csv_bytes = 0
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, patches: Patches) -> None:
        for name, module_name, path in TARGETS:
            if not patches.wrap(module_name, path, self._wrapper_for(name)):
                self.missing.append(f"{module_name}.{path}")

    def _wrapper_for(self, name: str):
        if name == "neural.forward":
            single, batch = self._id("neural.forward.single"), self._id("neural.forward.batch")

            def pick(args):
                return single if np.ndim(args[1]) == 1 else batch
        else:
            fixed = self._id(name)

            def pick(args):
                return fixed
        after = self._count_csv_bytes if name == "harness.write_curve_csv" else None
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def make_wrapper(original):
            def traced(*args, **kwargs):
                idx = len(name_ids)
                name_ids.append(pick(args))
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if after is not None:
                    after(args)
                return result

            traced.__wrapped__ = original
            return traced

        return make_wrapper

    def _count_csv_bytes(self, args) -> None:
        self.curve_csv_bytes += os.path.getsize(args[1])

    def save(self, path: Path) -> None:
        """Write the spans as arrays: name index, parent span (-1 for none),
        start and end in seconds on the ``perf_counter`` clock."""
        tmp = path.with_name(path.name + ".tmp.npz")
        np.savez(tmp, names=np.array(self.names), name=np.asarray(self.name_ids),
                 parent=np.asarray(self.parents), start=np.asarray(self.starts),
                 end=np.asarray(self.ends))
        os.replace(tmp, path)

    def layer_metrics(self) -> dict:
        """Per-layer figures, as ``{name: (value, unit)}``."""
        name = np.asarray(self.name_ids, dtype=np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=self_time, minlength=width)

        def get(arr, key):
            idx = self._ids.get(key)
            return arr[idx].item() if idx is not None and idx < len(arr) else 0

        def per(value, count, scale):
            return value / count * scale if count else 0.0

        evaluate = self._ids.get("benchmarks.evaluate", -1)
        step_ids = [self._ids[s] for s in _STEPS if s in self._ids]
        stepped = int(np.count_nonzero(
            (name == evaluate) & nested & np.isin(name[np.where(nested, parent, 0)], step_ids)
        ))
        step_self = sum(get(own, s) for s in _STEPS)
        policy_iters = get(calls, "ddpg.coefficient_sets")
        policy_s = sum(get(total, s) for s in _POLICY)
        m = {
            "benchmarks.evaluate.calls": (get(calls, "benchmarks.evaluate"), "count"),
            "benchmarks.evaluate.self_s": (get(own, "benchmarks.evaluate"), "s"),
            "benchmarks.evaluate.us_per_call": (
                per(get(own, "benchmarks.evaluate"), get(calls, "benchmarks.evaluate"), 1e6), "us"),
            "benchmarks.make_objective.calls": (get(calls, "benchmarks.make_objective"), "count"),
            "benchmarks.make_objective.s": (get(total, "benchmarks.make_objective"), "s"),
        }
        for step in _STEPS:
            m[f"{step}.calls"] = (get(calls, step), "count")
            m[f"{step}.self_s"] = (get(own, step), "s")
        m["swarm.step.us_per_particle"] = (per(step_self, stepped, 1e6), "us")
        m["swarm.init.self_s"] = (get(own, "swarm.init"), "s")
        for span in _POLICY:
            m[f"{span}.s"] = (get(total, span), "s")
        m["ddpg.policy.us_per_iter"] = (per(policy_s, policy_iters, 1e6), "us")
        m["ddpg.train_step.calls"] = (get(calls, "ddpg.train_step"), "count")
        m["ddpg.train_step.self_s"] = (get(own, "ddpg.train_step"), "s")
        m["ddpg.train_step.ms_per_call"] = (
            per(get(total, "ddpg.train_step"), get(calls, "ddpg.train_step"), 1e3), "ms")
        m["ddpg.buffer.sample.s"] = (get(total, "ddpg.buffer.sample"), "s")
        m["ddpg.buffer.push.s"] = (get(total, "ddpg.buffer.push"), "s")
        for span in ("neural.backward", "neural.adam_update"):
            m[f"{span}.calls"] = (get(calls, span), "count")
            m[f"{span}.s"] = (get(total, span), "s")
        m["neural.soft_update.s"] = (get(total, "neural.soft_update"), "s")
        for kind in ("batch", "single"):
            m[f"neural.forward.{kind}_calls"] = (get(calls, f"neural.forward.{kind}"), "count")
            m[f"neural.forward.{kind}_s"] = (get(total, f"neural.forward.{kind}"), "s")
        m["ddpg.validation.calls"] = (get(calls, "ddpg.validation"), "count")
        m["ddpg.validation.s"] = (get(total, "ddpg.validation"), "s")
        m["harness.run_single.s"] = (get(total, "harness.run_single"), "s")
        m["harness.write_curve_csv.calls"] = (get(calls, "harness.write_curve_csv"), "count")
        m["harness.write_curve_csv.s"] = (get(total, "harness.write_curve_csv"), "s")
        m["harness.write_curve_csv.bytes"] = (self.curve_csv_bytes, "bytes")
        m["harness.summarize.s"] = (get(total, "harness.summarize"), "s")
        m["ddpg.load_model.s"] = (get(total, "ddpg.load_model"), "s")
        return m
