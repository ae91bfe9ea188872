"""In-memory span tracing of the abrlab package, installed from outside it.

`install` wraps every public function of the traced modules, and every public
method (plus `__init__`/`__call__`) written in the body of their public
classes, then rebinds each wrapped name in every `abrlab.*` namespace that
imported it (`imitation.beam_expert_decide`, `risk_ppo.forward`,
`cli.run_session`, ...). The closures returned by `make_auditor` and
`make_greedy_policy` are wrapped as they are created. `check_installed`
fails loudly if any binding escaped.

A span is (name, start, end, parent, run id), kept in flat arrays so that a
million spans take about 40 MB. Self time is a span's duration minus the
durations of its direct children. Counters ride on the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

MODULES = ("traces", "sim", "policies", "net", "imitation", "risk_ppo", "capacity",
           "auditor", "metrics", "cli")

# factory -> span name of the closure it returns
CLOSURES = {
    "auditor.make_auditor": "auditor.decide",
    "net.make_greedy_policy": "net.greedy_decide",
}

_ORIGINAL = "__bench_original__"


class SpanRecorder:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.run_ids = array("q")
        self.run_id = 0
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        if not self._stack:
            self.run_id += 1  # each root span (one CLI stage) is its own run
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a closed span with given times, as the tests of `summarize` do."""
        idx = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(parent)
        self.run_ids.append(self.run_id)
        self.starts.append(start)
        self.ends.append(end)
        return idx

    def __len__(self) -> int:
        return len(self.starts)

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies: a view would pin the arrays' buffers and forbid further appends.
        return {
            "name_id": np.array(self.name_ids, dtype=np.int64),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
            "parent": np.array(self.parents, dtype=np.int64),
            "run_id": np.array(self.run_ids, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.asarray(self.names, dtype=str), **self.arrays())


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=durations[has_parent],
                        minlength=durations.size)
    return durations - child


def summarize(rec: SpanRecorder) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s and the array of call durations."""
    a = rec.arrays()
    if a["start"].size and np.any(a["end"] < a["start"]):
        raise RuntimeError("summarize() called with spans still open")
    dur = a["end"] - a["start"]
    self_s = self_times(dur, a["parent"])
    out: dict[str, dict] = {}
    order = np.argsort(a["name_id"], kind="stable")
    bounds = np.searchsorted(a["name_id"][order], np.arange(len(rec.names) + 1))
    for nid, name in enumerate(rec.names):
        idx = order[bounds[nid]:bounds[nid + 1]]
        out[name] = {
            "calls": int(idx.size),
            "total_s": float(dur[idx].sum()),
            "self_s": float(self_s[idx].sum()),
            "durations": dur[idx],
        }
    roots = a["parent"] < 0
    out["<roots>"] = {"total_s": float(dur[roots].sum()), "self_sum_s": float(self_s.sum())}
    return out


# ------------------------------------------------------------------ counters
# Each hook sees (recorder, args, kwargs, result) after a wrapped call returns.

def _count_rows(rec, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    rec.counters["net.forward.rows"] += 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _count_audit(rec, args, kwargs, result):
    if result is None:
        return
    rec.counters["auditor.decide.interventions"] += int(bool(result.intervened))
    rec.counters["auditor.decide.fallbacks"] += int(bool(result.fallback))


def _count_truncated(rec, args, kwargs, result):
    rec.counters["sim.run_session.truncated"] += int(bool(result.truncated))


def _count_episodes(rec, args, kwargs, result):
    rec.counters["risk_ppo.episodes"] += len(result.episodes)


def _count_labeled(rec, args, kwargs, result):
    labels = args[2] if len(args) > 2 else kwargs["labels"]
    rec.counters["imitation.states_labeled"] += len(labels)


HOOKS = {
    "net.forward": _count_rows,
    "auditor.decide": _count_audit,
    "sim.run_session": _count_truncated,
    "risk_ppo.RolloutCollector.collect": _count_episodes,
    "imitation.ImitationDataset.append": _count_labeled,
}


def _wrap(fn, name: str, rec: SpanRecorder):
    nid = rec.name_id(name)
    hook = HOOKS.get(name)
    closure_name = CLOSURES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, result)
        if closure_name is not None:
            result = _wrap(result, closure_name, rec)
        return result

    setattr(wrapper, _ORIGINAL, fn)
    return wrapper


def _is_own_function(obj, mod) -> bool:
    return isinstance(obj, types.FunctionType) and getattr(obj.__code__, "co_filename", "") == mod.__file__


def traced_callables() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every callable to wrap.

    The owner is a module for functions and a class for methods. Methods
    that dataclasses generate are skipped: their code lives in no module.
    """
    found = []
    for short in MODULES:
        mod = importlib.import_module(f"abrlab.{short}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if _is_own_function(obj, mod):
                found.append((f"{short}.{attr}", mod, attr, obj))
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for mattr, mobj in sorted(vars(obj).items()):
                    public = not mattr.startswith("_") or mattr in ("__init__", "__call__")
                    if public and _is_own_function(mobj, mod):
                        found.append((f"{short}.{attr}.{mattr}", obj, mattr, mobj))
    return found


def _abrlab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "abrlab" or n.startswith("abrlab."))]


class Installation:
    """The wrappers in place; `uninstall` restores every original binding."""

    def __init__(self):
        self.originals: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def install(rec: SpanRecorder) -> Installation:
    inst = Installation()
    wrappers: dict[int, object] = {}
    for name, owner, attr, original in traced_callables():
        wrapper = _wrap(original, name, rec)
        wrappers[id(original)] = wrapper
        inst.originals[id(original)] = original
        if isinstance(owner, type):
            inst._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
    for mod in _abrlab_modules():
        for attr, obj in list(vars(mod).items()):
            if inst.originals.get(id(obj), _ORIGINAL) is obj:
                inst._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    try:
        check_installed(inst)
    except RuntimeError:
        inst.uninstall()
        raise
    return inst


def check_installed(inst: Installation) -> None:
    """Raise if any abrlab namespace, class or default argument still holds an
    unwrapped traced callable."""
    def unwrapped(obj) -> bool:
        return inst.originals.get(id(obj), _ORIGINAL) is obj

    leaks = []
    for mod in _abrlab_modules():
        for attr, obj in vars(mod).items():
            if unwrapped(obj):
                leaks.append(f"{mod.__name__}.{attr}")
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                leaks += [f"{mod.__name__}.{attr}.{m}" for m, v in vars(obj).items() if unwrapped(v)]
            if isinstance(obj, types.FunctionType):
                defaults = list(obj.__defaults__ or ()) + list((obj.__kwdefaults__ or {}).values())
                leaks += [f"default argument of {mod.__name__}.{attr}" for d in defaults if unwrapped(d)]
    if leaks:
        raise RuntimeError(f"tracing left {len(leaks)} unwrapped bindings: {', '.join(sorted(leaks))}")
