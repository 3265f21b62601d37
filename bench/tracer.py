"""Outside-in tracing of the eegssl package for the benchmark's traced run.

`Tracer.install` finds the public functions of every eegssl module by
introspection and replaces each one at *every* module-level name bound to it,
so a function imported by name into another module (`trainer` imports
`forward_tokens` and `adamw_step`) is traced there too. `Tensor.backward` is
wrapped as well, and so is the `_backward` closure of every tensor an
autodiff op returns, which attributes backward time to the op that created
the node. Nothing under `src/` changes; the wrappers live only in the stage
process that installs them.

Spans (name, start, end, parent) are kept in memory and handed back by
`Tracer.report` when the stage ends. Exact counters (op calls, output bytes,
tape nodes and bytes) come from walking the graph, outside any timed span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import resource
import time
from collections import Counter

import numpy as np

# Autodiff ops reported by name; every other op is summed into "other".
OP_GROUPS = ("matmul", "softmax", "gelu", "layer_norm", "add", "mul",
             "slice_last", "where")
# Functions whose peak-RSS rise is recorded.
RSS_TRACKED = ("trainer.run_pretraining", "preprocess.preprocess",
               "evaluate.extract_features")
_DATA_WRITERS = ("data.write_recording", "data.save_segments",
                 "data.save_checkpoint")
_DATA_READERS = ("data.read_recording", "data.load_segments",
                 "data.load_checkpoint")


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _graph(root) -> list:
    """Every tensor reachable from `root` through `_parents`."""
    seen = {id(root)}
    stack, nodes = [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held_bytes(nodes: list) -> int:
    """Bytes of the distinct buffers the graph keeps alive: every node's
    data plus the arrays its backward closure captured."""
    owners = {}
    for node in nodes:
        arrays = [node.data]
        closure = getattr(node._backward, "_bench_inner", node._backward)
        for cell in getattr(closure, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
        for a in arrays:
            owner = _owner(a)
            owners[id(owner)] = owner.nbytes
    return int(sum(owners.values()))


class Tracer:
    """Span recorder plus the counters gathered at the same boundaries."""

    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index or -1]
        self._open: list = []       # indices of spans not yet closed
        self._ops: list = []        # autodiff ops running, outermost first
        self.calls: Counter = Counter()
        self.out_bytes: Counter = Counter()
        self.io_bytes: Counter = Counter()
        self.rss_rise: dict = {}
        self.tape: list = []        # (nodes, tape bytes, grad bytes) per backward

    # --- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)

    def _end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    # --- wrappers ------------------------------------------------------------

    def _tag_backward(self, out, op: str) -> None:
        inner = getattr(out, "_backward", None)
        if inner is None or hasattr(inner, "_bench_inner"):
            return
        name = f"autodiff.{op}.bwd"

        def traced(g):
            self._begin(name)
            try:
                return inner(g)
            finally:
                self._end()

        traced._bench_inner = inner
        out._backward = traced

    def _wrap_op(self, op: str, fn):
        name = f"autodiff.{op}.fwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._ops:
                # Called from inside another op: time and nodes belong to it.
                out = fn(*args, **kwargs)
                self._tag_backward(out, self._ops[0])
                return out
            self._ops.append(op)
            self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end()
                self._ops.pop()
            self.calls[op] += 1
            data = getattr(out, "data", None)
            if isinstance(data, np.ndarray):
                self.out_bytes[op] += data.nbytes
            self._tag_backward(out, op)
            return out

        return wrapper

    def _wrap_forward_tokens(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            params = args[0] if args else kwargs["p"]
            if self._inside("evaluate.extract_features"):
                caller = "eval"
            elif any(getattr(t, "requires_grad", False) for t in params.values()):
                caller = "online"
            else:
                caller = "target"
            self._begin(f"encoder.forward_tokens.{caller}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()

        return wrapper

    def _wrap_function(self, label: str, fn):
        track_rss = label in RSS_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = maxrss_mb() if track_rss else 0.0
            self._begin(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end()
            if track_rss:
                rise = maxrss_mb() - rss0
                self.rss_rise[label] = max(self.rss_rise.get(label, 0.0), rise)
            if label in _DATA_WRITERS and isinstance(out, int):
                self.io_bytes[label] += out
            elif (label in _DATA_READERS and args
                  and isinstance(args[0], (str, os.PathLike))):
                self.io_bytes[label] += os.path.getsize(args[0])
            return out

        return wrapper

    def _wrap_backward(self, original):
        @functools.wraps(original)
        def backward(tensor):
            nodes = _graph(tensor)
            held = _held_bytes(nodes)
            self._begin("autodiff.backward")
            try:
                original(tensor)
            finally:
                self._end()
            grads = sum(n.grad.nbytes for n in nodes
                        if n._parents and isinstance(n.grad, np.ndarray))
            self.tape.append((len(nodes), held, int(grads)))

        return backward

    def install(self, package) -> None:
        """Wrap every public function of every module of `package`."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        labels = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not name.startswith("_")
                        and not hasattr(value, "__wrapped__")):  # context managers
                    labels[value] = f"{short}.{name}"
        wrappers = {}
        for fn, label in labels.items():
            module, name = label.split(".", 1)
            if module == "autodiff":
                wrappers[fn] = self._wrap_op(name, fn)
            elif label == "encoder.forward_tokens":
                wrappers[fn] = self._wrap_forward_tokens(fn)
            else:
                wrappers[fn] = self._wrap_function(label, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])
        tensor = importlib.import_module(f"{package.__name__}.autodiff").Tensor
        tensor.backward = self._wrap_backward(tensor.backward)

    # --- report --------------------------------------------------------------

    def report(self) -> dict:
        """Raw totals of this process: inclusive and self seconds per span
        name, counters, and the duration of every training step."""
        inclusive, self_s = Counter(), Counter()
        steps = []
        for name, start, end, parent in self.spans:
            dur = end - start
            inclusive[name] += dur
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            if name == "trainer.train_step":
                steps.append(dur)
        return {"inclusive": dict(inclusive), "self": dict(self_s),
                "calls": dict(self.calls), "out_bytes": dict(self.out_bytes),
                "io_bytes": dict(self.io_bytes), "rss_rise": self.rss_rise,
                "tape": self.tape, "steps": steps}


def merge(reports: list) -> dict:
    """Combine the raw reports of several processes into one."""
    total = {"inclusive": Counter(), "self": Counter(), "calls": Counter(),
             "out_bytes": Counter(), "io_bytes": Counter(), "rss_rise": {},
             "tape": [], "steps": []}
    for rep in reports:
        for key in ("inclusive", "self", "calls", "out_bytes", "io_bytes"):
            total[key].update(rep[key])
        for name, rise in rep["rss_rise"].items():
            total["rss_rise"][name] = max(total["rss_rise"].get(name, 0.0), rise)
        total["tape"].extend(rep["tape"])
        total["steps"].extend(rep["steps"])
    return total


def _group(op: str) -> str:
    return op if op in OP_GROUPS else "other"


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics from a merged raw report.

    Seconds are self time (span minus its direct child spans), except
    `preprocess.preprocess.s` and `autodiff.backward.s`, which are inclusive
    and have their self time beside them (`preprocess.self_s`,
    `autodiff.backward.walk_s`).
    """
    inc, slf = raw["inclusive"], raw["self"]
    m = {}
    for group in OP_GROUPS + ("other",):
        for part, key in (("fwd", "fwd_s"), ("bwd", "bwd_s")):
            m[f"autodiff.{group}.{key}"] = 0.0
        m[f"autodiff.{group}.out_bytes"] = 0
        m[f"autodiff.{group}.calls"] = 0
    for name, value in slf.items():
        if name.startswith("autodiff.") and name.endswith((".fwd", ".bwd")):
            _, op, part = name.split(".")
            m[f"autodiff.{_group(op)}.{part}_s"] += value
    for op, n in raw["calls"].items():
        m[f"autodiff.{_group(op)}.calls"] += n
    for op, n in raw["out_bytes"].items():
        m[f"autodiff.{_group(op)}.out_bytes"] += n
    m["autodiff.backward.s"] = inc.get("autodiff.backward", 0.0)
    m["autodiff.backward.walk_s"] = slf.get("autodiff.backward", 0.0)
    tape = raw["tape"] or [(0, 0, 0)]
    m["autodiff.tape_nodes"] = max(t[0] for t in tape)
    m["autodiff.tape_bytes"] = max(t[1] for t in tape)
    m["autodiff.grad_bytes"] = max(t[2] for t in tape)

    for caller in ("online", "target", "eval"):
        m[f"encoder.forward_tokens.{caller}_s"] = slf.get(
            f"encoder.forward_tokens.{caller}", 0.0)
    for label in ("encoder.predict_patches", "losses.alignment_loss_t",
                  "losses.reconstruction_loss_t", "optim.adamw_step",
                  "optim.ema_update", "trainer.grad_stats", "trainer.batch_mask",
                  "trainer.make_checkpoint", "preprocess.average_reference",
                  "preprocess.resample", "preprocess.segment",
                  "evaluate.extract_features", "evaluate.fit_probe",
                  "evaluate.compute_metrics", "synth.synth_recording",
                  "synth.synth_labeled_dataset"):
        m[f"{label}.s"] = slf.get(label, 0.0)
    for label in _DATA_WRITERS + _DATA_READERS:
        m[f"{label}.s"] = slf.get(label, 0.0)
        m[f"{label}.bytes"] = raw["io_bytes"].get(label, 0)
    m["trainer.rss_rise_mb"] = raw["rss_rise"].get("trainer.run_pretraining", 0.0)
    m["preprocess.preprocess.s"] = inc.get("preprocess.preprocess", 0.0)
    m["preprocess.self_s"] = slf.get("preprocess.preprocess", 0.0)
    m["preprocess.rss_rise_mb"] = raw["rss_rise"].get("preprocess.preprocess", 0.0)
    m["evaluate.extract_features.rss_rise_mb"] = raw["rss_rise"].get(
        "evaluate.extract_features", 0.0)
    m["cli.run_cli.self_s"] = slf.get("cli.run_cli", 0.0)
    return m


def step_percentiles(steps: list) -> dict:
    """Median training-step time and the highest percentile that has at
    least ten samples beyond it (with that percentile)."""
    if not steps:
        return {"trainer.train_step.p50_s": 0.0, "trainer.train_step.tail_s": 0.0,
                "trainer.train_step.tail_pct": 0.0}
    tail_pct = max(0.0, 100.0 * (1.0 - 10.0 / len(steps)))
    return {"trainer.train_step.p50_s": float(np.percentile(steps, 50)),
            "trainer.train_step.tail_s": float(np.percentile(steps, tail_pct)),
            "trainer.train_step.tail_pct": tail_pct}
