"""Runtime span tracing of the program's layers, from outside the program.

``Tracer.install`` replaces the public functions of each ``mtlab`` module
(and the public methods of the tokenizer) with timing wrappers, in every
module namespace that holds them, so calls made through ``from x import f``
bindings are caught too. ``uninstall`` puts the originals back; nothing in
the program's source changes.

A span has a name (``<layer>.<function>``), a start, an end and a parent.
Its self time is its duration minus the durations of its child spans. A
call into the layer of the innermost open span opens no span of its own:
it is folded into that span (``forward_logits`` inside
``loss_teacher_forcing`` stays one ``model`` span), but it still counts
in ``calls``. The benchmark opens the root spans itself, so the self
times of all spans add up to the traced wall time. Counts that the
per-layer metrics need (decoder calls and positions while generating,
output tokens, bytes written) are taken where a span closes.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

# Layer name -> modules whose public functions belong to it.
LAYER_MODULES = {
    "numerics": ("mtlab.numerics.autodiff", "mtlab.numerics.rng"),
    "kernels": ("mtlab.kernels",),
    "model": ("mtlab.model",),
    "optim": ("mtlab.optim",),
    "objectives": ("mtlab.objectives",),
    "decoding": ("mtlab.decoding",),
    "tokenizer": ("mtlab.tokenizer",),
    "metrics": ("mtlab.metrics",),
    "checkpoint": ("mtlab.checkpoint",),
    "harness": ("mtlab.harness",),
    "synth": ("mtlab.synth",),
    "corpus": ("mtlab.corpus",),
}
LAYERS = tuple(LAYER_MODULES) + ("bench",)
TOKENIZER_METHODS = ("encode", "encode_pieces", "decode")
MAX_RECORDED_SPANS = 50_000
# Same-layer calls fold into the caller's span, except these: evaluate_direction
# drives the three metrics, and each metric's cost is reported on its own.
ALWAYS_OPEN = frozenset({"metrics.spbleu", "metrics.spchrf", "metrics.spter"})


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue  # imported from elsewhere; wrapped under its own layer
        if hasattr(obj, "__wrapped__"):
            continue  # context managers: timing them would time only their set-up
        yield attr, obj


class Tracer:
    """Span recorder; one per traced run, used from a single thread."""

    def __init__(self):
        # name -> [calls, self_s, total_s]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent_id, name, start, end, self_s)
        self.wall_s = 0.0
        self._stack: list[list] = []  # [layer, name, start, child_s, span_id]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._hooks = {
            "model.decoder_logits": self._after_decoder_logits,
            "decoding.generate": self._after_generate,
            "decoding.generate_batch": self._after_generate,
            "objectives.make_bt_examples": self._after_bt,
            "checkpoint.save_arrays": self._after_save,
            "checkpoint.save_params": self._after_save,
            "checkpoint.save_optimizer": self._after_save,
        }
        self._signatures: dict[str, inspect.Signature] = {}

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for layer, module_names in LAYER_MODULES.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for attr, fn in _public_functions(module):
                    wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{attr}")
                    originals[id(fn)] = fn
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "mtlab" or mod_name.startswith("mtlab.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        from mtlab.tokenizer import SubwordModel

        for attr in TOKENIZER_METHODS:
            fn = vars(SubwordModel)[attr]
            self._patches.append((SubwordModel, attr, fn))
            setattr(SubwordModel, attr, self._wrap(fn, "tokenizer", f"tokenizer.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans -----------------------------------------------------------

    def _entry(self, name: str) -> list:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        return entry

    def _open(self, layer: str, name: str, start: float) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [layer, name, start, 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, end: float, entry: list) -> float:
        stack = self._stack
        stack.pop()
        duration = end - frame[2]
        self_s = duration - frame[3]
        entry[1] += self_s
        entry[2] += duration
        if stack:
            stack[-1][3] += duration
        else:
            self.wall_s += duration
        if len(self.spans) < MAX_RECORDED_SPANS:
            parent = stack[-1][4] if stack else None
            self.spans.append((frame[4], parent, frame[1], frame[2], end, self_s))
        return duration

    def _wrap(self, fn, layer: str, name: str):
        stack = self._stack
        entry = self._entry(name)
        hook = self._hooks.get(name)
        always_open = name in ALWAYS_OPEN
        perf = time.perf_counter
        open_span = self._open
        close_span = self._close

        def traced(*args, **kwargs):
            entry[0] += 1
            if not stack or (stack[-1][0] == layer and not always_open):
                return fn(*args, **kwargs)
            frame = open_span(layer, name, perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = close_span(frame, perf(), entry)
            if hook is not None:
                hook(fn, name, args, kwargs, result, duration)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span; at the top of the stack it is a root span."""
        entry = self._entry(name)
        entry[0] += 1
        frame = self._open("bench", name, time.perf_counter())
        try:
            yield
        finally:
            self._close(frame, time.perf_counter(), entry)

    # -- counters --------------------------------------------------------

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _bound(self, fn, name, args, kwargs):
        sig = self._signatures.get(name)
        if sig is None:
            sig = self._signatures[name] = inspect.signature(fn)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _after_decoder_logits(self, fn, name, args, kwargs, result, duration):
        # Only decoder calls made while generating; teacher forcing is
        # folded into loss_teacher_forcing and never reaches here.
        if self._stack and self._stack[-1][0] == "decoding":
            dec_in_ids = self._bound(fn, name, args, kwargs)["dec_in_ids"]
            self._count("decoder_calls", 1)
            self._count("decoder_positions", int(dec_in_ids.size))

    def _after_generate(self, fn, name, args, kwargs, result, duration):
        mode = self._bound(fn, name, args, kwargs)["config"].mode
        results = result if isinstance(result, list) else [result]
        out_tokens = 0
        generated = 0
        for r in results:
            out_tokens += len(r.token_ids)
            if r.error is None:
                # every decoder step yields one token; the eos that ends an
                # untruncated output is one of them
                generated += len(r.token_ids) + (0 if r.truncated else 1)
            self._count("truncated", int(r.truncated))
        self._count("output_tokens", out_tokens)
        self._count("generated_tokens", generated)
        self._count(f"{mode}.output_tokens", out_tokens)
        self._count(f"{mode}.seconds", duration)

    def _after_bt(self, fn, name, args, kwargs, result, duration):
        self._count("bt_examples", len(result))
        self._count("bt_seconds", duration)

    def _after_save(self, fn, name, args, kwargs, result, duration):
        path = self._bound(fn, name, args, kwargs)["path"]
        self._count("bytes_written", os.path.getsize(path))

    # -- results ---------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def layer_self_s(self, layer: str) -> float:
        return sum(e[1] for n, e in self.stats.items() if n.split(".", 1)[0] == layer)

    def total_self_s(self) -> float:
        return sum(e[1] for e in self.stats.values())

    def per_layer_metrics(self, wall_s: float, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric; ``wall_s`` is the traced regions' wall
        time as the caller measured it, apart from the spans.
        """
        c = self.counters.get
        s = self.self_s
        gen = c("generated_tokens", 0.0)
        metrics = {f"{layer}.self_s": (self.layer_self_s(layer), "s") for layer in LAYERS}
        metrics.update({
            "numerics.backward.self_s": (s("numerics.backward"), "s"),
            "numerics.matmul.self_s": (s("numerics.matmul"), "s"),
            "numerics.gelu.self_s": (s("numerics.gelu"), "s"),
            "numerics.softmax.self_s": (s("numerics.softmax"), "s"),
            "numerics.layer_norm.self_s": (s("numerics.layer_norm"), "s"),
            "kernels.ce_forward.self_s": (s("kernels.ce_forward"), "s"),
            "kernels.ce_backward.self_s": (s("kernels.ce_backward"), "s"),
            "kernels.embedding_grad.self_s": (s("kernels.embedding_grad"), "s"),
            "kernels.adamw_update.self_s": (s("kernels.adamw_update"), "s"),
            "kernels.levenshtein.calls": (self.calls("kernels.levenshtein"), "count"),
            "kernels.levenshtein.self_s": (s("kernels.levenshtein"), "s"),
            "model.loss_teacher_forcing.calls": (self.calls("model.loss_teacher_forcing"), "count"),
            "model.loss_teacher_forcing.self_s": (s("model.loss_teacher_forcing"), "s"),
            "model.encode_source.self_s": (s("model.encode_source"), "s"),
            "model.decoder_logits.calls": (c("decoder_calls", 0.0), "count"),
            "model.decoder_logits.self_s": (s("model.decoder_logits"), "s"),
            "model.decoder_positions_per_output_token": (
                c("decoder_positions", 0.0) / gen if gen else 0.0, "pos/token"),
            "optim.adamw_step.calls": (self.calls("optim.adamw_step"), "count"),
            "optim.adamw_step.self_s": (s("optim.adamw_step"), "s"),
            "objectives.make_bt_examples.self_s": (s("objectives.make_bt_examples"), "s"),
            "objectives.bt_examples_per_s": (
                _rate(c("bt_examples", 0.0), c("bt_seconds", 0.0)), "1/s"),
            "objectives.make_rec_examples.self_s": (s("objectives.make_rec_examples"), "s"),
            "decoding.generate.calls": (self.calls("decoding.generate"), "count"),
            "decoding.generate.self_s": (
                s("decoding.generate", "decoding.generate_batch"), "s"),
            "decoding.output_tokens": (c("output_tokens", 0.0), "count"),
            "decoding.truncated": (c("truncated", 0.0), "count"),
            "decoding.greedy.tokens_per_s": (
                _rate(c("greedy.output_tokens", 0.0), c("greedy.seconds", 0.0)), "1/s"),
            "decoding.sample.tokens_per_s": (
                _rate(c("sample.output_tokens", 0.0), c("sample.seconds", 0.0)), "1/s"),
            "tokenizer.encode.self_s": (s("tokenizer.encode"), "s"),
            "tokenizer.encode_pieces.self_s": (s("tokenizer.encode_pieces"), "s"),
            "tokenizer.decode.self_s": (s("tokenizer.decode"), "s"),
            "metrics.spbleu.self_s": (s("metrics.spbleu"), "s"),
            "metrics.spchrf.self_s": (s("metrics.spchrf"), "s"),
            "metrics.spter.self_s": (s("metrics.spter"), "s"),
            "checkpoint.save.self_s": (
                s("checkpoint.save_arrays", "checkpoint.save_params", "checkpoint.save_optimizer"),
                "s"),
            "checkpoint.bytes_written": (c("bytes_written", 0.0), "bytes"),
            "checkpoint.load_params.self_s": (s("checkpoint.load_params"), "s"),
            "harness.run_experiment.self_s": (s("harness.run_experiment"), "s"),
            "synth.gen_synthetic.self_s": (s("synth.gen_synthetic"), "s"),
            "trace.wall_s": (wall_s, "s"),
            "trace.overhead_pct": (overhead_pct, "%"),
        })
        return metrics

    def write_spans(self, path) -> None:
        import json

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, name, start, end, self_s in self.spans:
                f.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
