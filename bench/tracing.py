"""Traced run: spans around every public function of the lagcut layers.

`Tracer.install` wraps each public function of the six layer modules and
rebinds the wrapper at every binding site in the package, including the
names a module took with `from .x import f`.  Each call records a span
(function, start, end, parent span, op id).  Counts, inclusive time and
self time (span minus the time its child spans cover) are aggregated as
spans close, so the metrics hold however many spans a run makes; the span
records themselves are kept in memory up to SPAN_CAP and written out
when the run ends.  `uninstall` restores the original bindings; the two
can alternate, and the wrappers are built once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

PACKAGE = "lagcut"
LAYERS = ("charnum", "coring", "fold", "floer", "obstruct", "cli")
SPAN_CAP = 100_000  # span records kept per run; the metrics count every span

_ROOT_SPAN = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.layer_total = {layer: 0.0 for layer in LAYERS}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.spans: list[tuple] = []
        self.span_count = 0
        self.op_id = -1  # set by the benchmark before each op
        self.stack: list[list] = []
        self.counts = {
            "identity_calls": 0,
            "identity_useful": 0,
            "betti_entries": 0,
            "cert_calls": 0,
            "cert_valid": 0,
            "trace_steps": 0,
            "typed_errors": 0,
            "scan_bytes": 0,
            "scan_rows": 0,
        }
        self._last_error: BaseException | None = None
        self._bindings: list[tuple[object, str, object, object]] = []  # module, name, original, wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if not self._bindings:
            self._bind()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _bind(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in sorted(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, attr, value, wrapper))

    def _wrap(self, layer: str, name: str, fn):
        idx = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        observe = self._observer(layer, name, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, clock())
                if layer == "obstruct":
                    self._count_typed_error(exc)
                raise
            self._exit(frame, clock())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------------

    def _enter(self, idx: int) -> list:
        parent = self.stack[-1][1] if self.stack else _ROOT_SPAN
        frame = [idx, self.span_count, 0.0, 0.0, parent]  # fn, span id, start, child time, parent
        self.span_count += 1
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, t1: float) -> None:
        self.stack.pop()
        idx, span_id, t0, child, parent = frame
        dur = t1 - t0
        self.calls[idx] += 1
        self.total[idx] += dur
        self.self_time[idx] += dur - child
        layer = self.layer_of[idx]
        self.layer_calls[layer] += 1
        self.layer_self[layer] += dur - child
        if not self.stack or self.layer_of[self.stack[-1][0]] != layer:
            self.layer_total[layer] += dur
        if self.stack:
            self.stack[-1][3] += dur
        if span_id < SPAN_CAP:
            self.spans.append((span_id, idx, t0, t1, parent, self.op_id))

    # -- counts from arguments and return values ----------------------------

    def _observer(self, layer: str, name: str, fn):
        counts = self.counts
        if (layer, name) == ("fold", "torus_identity_check"):
            signature = inspect.signature(fn)

            def observe(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                counts["identity_calls"] += 1
                counts["identity_useful"] += bound["N"] <= bound["d"] + 1

            return observe
        if layer == "coring":

            def observe(args, kwargs, result):
                if hasattr(result, "betti"):
                    counts["betti_entries"] += result.dim + 1

            return observe
        if (layer, name) == ("floer", "ss_collapse_certificate"):

            def observe(args, kwargs, result):
                counts["cert_calls"] += 1
                counts["cert_valid"] += result is not None

            return observe
        if (layer, name) == ("obstruct", "scan"):

            def observe(args, kwargs, result):
                counts["scan_rows"] += len(result)

            return observe
        if layer == "obstruct":

            def observe(args, kwargs, result):
                if hasattr(result, "trace") and hasattr(result, "status"):
                    counts["trace_steps"] += len(result.trace)

            return observe
        if (layer, name) == ("cli", "run"):
            signature = inspect.signature(fn)

            def observe(args, kwargs, result):
                argv = list(signature.bind(*args, **kwargs).arguments["argv"])
                if argv[:1] == ["scan"]:
                    counts["scan_bytes"] += len(result[1].encode())

            return observe
        return None

    def _count_typed_error(self, exc: BaseException) -> None:
        # one exception unwinding through nested obstruct calls counts once
        if exc is self._last_error:
            return
        if isinstance(exc, ValueError) or hasattr(exc, "cite"):
            self.counts["typed_errors"] += 1
            self._last_error = exc

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer and per-function metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer_calls[layer], "count")
            out[f"{layer}.ms"] = (self.layer_total[layer] * 1e3, "ms")
            out[f"{layer}.self_ms"] = (self.layer_self[layer] * 1e3, "ms")
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.ms"] = (self.total[idx] * 1e3, "ms")
            out[f"{name}.self_ms"] = (self.self_time[idx] * 1e3, "ms")
        c = self.counts
        out["fold.identity_useful_ratio"] = (_ratio(c["identity_useful"], c["identity_calls"]), "ratio")
        out["coring.betti_entries"] = (c["betti_entries"], "count")
        out["floer.cert_valid_ratio"] = (_ratio(c["cert_valid"], c["cert_calls"]), "ratio")
        out["obstruct.trace_steps"] = (c["trace_steps"], "count")
        out["obstruct.typed_errors"] = (c["typed_errors"], "count")
        out["cli.bytes_per_row"] = (_ratio(c["scan_bytes"], c["scan_rows"]), "B/row")
        out["trace.spans"] = (self.span_count, "count")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for span_id, idx, t0, t1, parent, op_id in self.spans:
                fh.write(f"{span_id}\t{self.names[idx]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op_id}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
