"""Per-layer tracing for jxbench, installed from outside the program.

Two instruments, both attached only around the traced operations of a
``--trace`` run so the untraced operations of the same run measure the
plain program:

* :class:`SpanRecorder` swaps transparent timing wrappers in for
  ``repro``'s public entry points (:data:`TARGETS`).  Each call becomes a
  span with an id and the id of the span that was open on the same
  thread when it started, so a layer's *self* time is its span minus its
  child spans.  Uninstalling puts the original attributes back.
* :class:`StackSampler` reads ``sys._current_frames()`` from a
  ``SIGALRM`` interval timer every few milliseconds and charges each
  busy thread's sample to the layer of its innermost ``repro`` frame
  (:meth:`StackSampler.layer_of`).  It adds nothing to the interpreter's
  inner loop.

Neither reads ``repro.telemetry``: enabling telemetry re-routes compiled
dispatch, so it would measure a different program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

import repro


def _compile_span(args: tuple, kwargs: dict) -> str:
    """``OptCompiler.compile(self, rm, opt_level, bindings=None)``: one
    span name per tier, and one for specialized versions."""
    bindings = args[3] if len(args) > 3 else kwargs.get("bindings")
    if bindings:
        return "opt.compile.special"
    level = args[2] if len(args) > 2 else kwargs.get("opt_level")
    return f"opt.compile.opt{level}"


#: The optimizer passes as ``repro.opt.pipeline`` looks them up (module
#: globals resolved at call time), keyed by their per-layer metric name.
PASSES = {
    "lower": ("repro.opt.pipeline", "lower_method"),
    "inline": ("repro.opt.pipeline", "inline_calls"),
    "specialize": ("repro.opt.pipeline", "specialize_ir"),
    # Imported inside OptCompiler.build_ir at call time.
    "deoptpoints": ("repro.vm.osr", "insert_deopt_points"),
    "simplify": ("repro.opt.pipeline", "simplify"),
    "cse": ("repro.opt.pipeline", "local_cse"),
    "constprop": ("repro.opt.pipeline", "constant_propagation"),
    "cleanup_cfg": ("repro.opt.pipeline", "cleanup_cfg"),
    "dce": ("repro.opt.pipeline", "dead_code_elimination"),
    "strength": ("repro.opt.pipeline", "strength_reduce"),
    "boundselim": ("repro.opt.pipeline", "eliminate_bounds_checks"),
}

#: (module, attribute path, span name or namer).  Class attributes are
#: patched on the class, so every instance and call site sees the
#: wrapper; module functions are patched where their callers look them
#: up at call time.
TARGETS: list[tuple[str, str, str | Callable[[tuple, dict], str]]] = [
    ("repro.lang", "compile_source", "lang.compile_source"),
    ("repro.vm.linker", "Linker.link", "vm.linker.link"),
    ("repro.vm.shapes", "install_shapes", "vm.shapes.install"),
    ("repro.mutation.manager", "MutationManager.attach", "mutation.attach"),
    ("repro.bytecode.quicken", "Quickener.quicken_all",
     "bytecode.quicken_all"),
    ("repro.opt.pipeline", "OptCompiler.compile", _compile_span),
    *[(module, attr, f"opt.pass.{name}")
      for name, (module, attr) in PASSES.items()],
    ("repro.opt.pycodegen", "PyCodegen.generate", "opt.pycodegen"),
    ("repro.vm.osr", "OSRManager.entry_for", "vm.osr.entry_for"),
    ("repro.cache.store", "CompileCache.key_for", "cache.key_for"),
    ("repro.cache.store", "CompileCache.load", "cache.load"),
    ("repro.cache.store", "CompileCache.store", "cache.store"),
    ("repro.server.codespace", "CodeSpace.__init__",
     "server.codespace_build"),
    ("repro.server.codespace", "CodeSpace.create_session",
     "server.create_session"),
]


def _owner(module: str, path: str) -> tuple[Any, str]:
    obj = importlib.import_module(module)
    *owners, name = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, name


def current_targets() -> dict[str, Any]:
    """``"module:attr" -> object`` for every target as it is right now
    (lets a test check that uninstalling restored the originals)."""
    out = {}
    for module, path, _ in TARGETS:
        owner, name = _owner(module, path)
        out[f"{module}:{path}"] = getattr(owner, name)
    return out


class SpanRecorder:
    """Timing wrappers around :data:`TARGETS`, recording spans in memory."""

    def __init__(self) -> None:
        #: (id, parent id or 0, name, start, duration, thread id).
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()

    def _wrap(self, fn: Callable, name: str | Callable) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                spans.append((span_id, parent, label, start, duration,
                              threading.get_ident()))

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Patch every target for the duration of the block."""
        try:
            for module, path, name in TARGETS:
                owner, attr = _owner(module, path)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration, summed self time
        (duration minus the spans directly nested in it), over the spans
        recorded from index ``first`` on."""
        spans = self.spans[first:]
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, duration, _ in spans:
            if parent:
                child_time[parent] += duration
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, _, duration, _ in spans:
            row = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span_id, 0.0)
        return out

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {
                "name": name, "ph": "X", "pid": os.getpid(), "tid": tid,
                "ts": (start - self.origin) * 1e6, "dur": duration * 1e6,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, start, duration, tid in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


#: Sampler layers, in report order; each becomes ``<layer>_frac``.
LAYERS = (
    "vm.interpreter.quick",
    "vm.interpreter.pristine",
    "opt.opt1_code",
    "opt.opt2_code",
    "opt.compile",
    "mutation",
    "vm.shapes",
    "vm.osr",
    "vm.memo",
    "bytecode",
    "analysis",
    "cache",
    "vm.runtime",
    "lang",
    "server",
)

#: Files under ``src/repro`` whose layer differs from their package's.
_FILE_LAYERS = {
    "opt/irinterp.py": "opt.opt1_code",
    "vm/shapes.py": "vm.shapes",
    "vm/osr.py": "vm.osr",
    "vm/memo.py": "vm.memo",
    "vm/linker.py": "lang",
}
#: Top-level ``repro`` packages; anything else is ``vm.runtime``.
_PACKAGE_LAYERS = {
    "opt": "opt.compile",
    "mutation": "mutation",
    "profiling": "mutation",
    "bytecode": "bytecode",
    "analysis": "analysis",
    "cache": "cache",
    "lang": "lang",
    "workloads": "lang",
    "server": "server",
}
#: The two bytecode loops in ``vm/interpreter.py``; other functions
#: there are handlers, charged to the loop that called them.
_LOOPS = {
    "interpret_quick": "vm.interpreter.quick",
    "interpret": "vm.interpreter.pristine",
}
_HANDLER = "handler"
#: Innermost frames of a thread that is blocked, not working.
_IDLE_FILES = (
    os.sep + "threading.py",
    os.sep + "queue.py",
    os.sep + "selectors.py",
)


class StackSampler:
    """Samples every thread's stack on a wall-clock timer while a traced
    window is open.

    The timer's ``SIGALRM`` interrupts the main thread wherever it is,
    blocking I/O included, so its samples land in proportion to wall
    time.  A sampler *thread* would not: it runs only when the main
    thread releases the GIL, which file I/O does at once, and the compile
    cache's I/O drew about twice its span-measured share of samples that
    way.  Other threads (the serving pool) are caught where they last
    released the GIL.  Use from the main thread.
    """

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.counts: Counter[str] = Counter()
        self.samples = 0
        self.unattributed = 0
        self._root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._layers: dict[Any, str | None] = {}
        self._previous: Any = None

    # -- lifetime ----------------------------------------------------------

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def window(self) -> Iterator[None]:
        """Sample only inside this block."""
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum: int, interrupted: Any) -> None:
        main = threading.get_ident()  # handlers run on the main thread
        for ident, frame in sys._current_frames().items():
            if ident == main:
                frame = interrupted
            if frame.f_code.co_filename.endswith(_IDLE_FILES):
                continue
            layer = self.layer_of(frame)
            if layer is None:
                # A worker thread outside repro is not ours to count; the
                # main thread inside a traced window should be in repro.
                if ident != main:
                    continue
                self.unattributed += 1
            else:
                self.counts[layer] += 1
            self.samples += 1

    # -- classification ----------------------------------------------------

    def _code_layer(self, code: Any) -> str | None:
        try:
            return self._layers[code]
        except KeyError:
            pass
        filename = code.co_filename
        layer: str | None = None
        if filename.startswith("<jx-opt2:"):
            layer = "opt.opt2_code"
        elif filename.startswith(self._root):
            rel = filename[len(self._root):].replace(os.sep, "/")
            if rel == "vm/interpreter.py":
                layer = _LOOPS.get(code.co_name, _HANDLER)
            elif rel in _FILE_LAYERS:
                layer = _FILE_LAYERS[rel]
            else:
                layer = _PACKAGE_LAYERS.get(rel.split("/")[0], "vm.runtime")
        self._layers[code] = layer
        return layer

    def layer_of(self, frame: Any) -> str | None:
        """The layer of the innermost ``repro`` frame of a stack, or
        ``None`` when no frame is in ``repro``."""
        while frame is not None:
            layer = self._code_layer(frame.f_code)
            if layer == _HANDLER:
                caller = frame.f_back
                while caller is not None:
                    outer = self._code_layer(caller.f_code)
                    if outer in _LOOPS.values():
                        return outer
                    caller = caller.f_back
                return "vm.runtime"
            if layer is not None:
                return layer
            frame = frame.f_back
        return None

    def fractions(self) -> dict[str, float]:
        """``<layer>_frac`` for every layer plus
        ``trace.unattributed_frac``; they sum to 1."""
        total = self.samples or 1
        out = {f"{layer}_frac": self.counts[layer] / total
               for layer in LAYERS}
        out["trace.unattributed_frac"] = (
            self.unattributed / total if self.samples else 1.0)
        return out
