"""Span tracing installed from outside the collusion_audit package.

``install`` wraps the public functions of the layer modules in *every*
namespace that holds them: ``audit`` binds ``derive_noise_block`` and
``topk_retrieve`` by name, and ``ledger``/``harness``/``audit`` bind
``sha256``, so patching only the defining module would miss those calls.
Nothing under ``src/`` changes; ``restore`` puts the originals back.

Each span records (name, start, end, parent span index, episode id), and
the file adds the workload name. Spans
stay in memory until ``write`` dumps them as JSON lines. A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

PACKAGE = "collusion_audit"
LAYERS = ("encoding", "harness", "accounting", "attacks", "estimator", "ledger",
          "audit", "cli")

# Per-hash and per-embedding helpers run up to millions of times an episode;
# a span each would swamp the measurement, so they are only counted (their
# time stays in the calling span's self time). derive_noise runs once per
# score coordinate and is covered by derive_noise_block's coordinate count.
COUNT_ONLY = {"encoding.sha256", "encoding.hash_fields", "encoding.canonical",
              "harness.embedding_digest"}
UNWRAPPED = {"harness.derive_noise"}
METHODS = {"ledger.append": ("ledger", "MerkleLedger", "append")}
# Recursive through their own module global: inside the outer call the
# global is pointed back at the original, so the recursion runs unwrapped.
RECURSIVE = {"ledger.merkle_root"}

# span name -> (quantity name, argument name, measure) summed per call
QUANTITIES = {
    "harness.derive_noise_block": ("coords", "n_coords", int),
    "estimator.estimate": ("queries", "queries", len),
    "attacks.run_sweep": ("cells", "grid", len),
}


class Tracer:
    def __init__(self, workload: str = ""):
        self.workload = workload
        self.spans = []        # [name, start, end, parent index (-1 = root), episode]
        self.counts = Counter()
        self.enabled = False
        self.episode = ""
        self._stack = []

    @contextlib.contextmanager
    def active(self, episode: str):
        """Record spans and counts inside the block only."""
        self.enabled, self.episode = True, episode
        try:
            yield
        finally:
            self.enabled = False

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.episode]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def summary(self) -> dict:
        """name -> {"calls", "s", "self_s"} over all recorded spans."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered[i]
        return dict(out)

    def call_count(self, name: str) -> int:
        prefix = name + ".calls_from."
        return sum(n for key, n in self.counts.items() if key.startswith(prefix))

    def child_count(self, name: str, parent_name: str) -> int:
        spans = self.spans
        return sum(1 for n, _, _, p, _ in spans
                   if n == name and p >= 0 and spans[p][0] == parent_name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, episode in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "workload": self.workload, "episode": episode}) + "\n")


def _span_wrapper(tracer: Tracer, name: str, fn):
    quantity = QUANTITIES.get(name)
    signature = inspect.signature(fn) if quantity else None
    target = fn
    if name in RECURSIVE:
        def target(*args, **kwargs):
            module_globals = fn.__globals__
            module_globals[fn.__name__] = fn
            try:
                return fn(*args, **kwargs)
            finally:
                module_globals[fn.__name__] = wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.counts[name + ".calls"] += 1
        if quantity:
            label, arg, measure = quantity
            value = signature.bind(*args, **kwargs).arguments[arg]
            tracer.counts[f"{name}.{label}"] += measure(value)
        return tracer._call(name, target, args, kwargs)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, caller: str, fn):
    """Counts calls per calling namespace; ``Tracer.call_count`` sums them."""
    key, counts = f"{name}.calls_from.{caller}", tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")]
    for attr in names:
        fn = getattr(module, attr)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield attr, fn


def install(tracer: Tracer):
    """Wrap every public layer function wherever it is bound; returns a
    callable that restores the originals."""
    package = importlib.import_module(PACKAGE)
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    holders = [("package", package)] + list(modules.items())
    patched = []
    for layer, module in modules.items():
        for attr, fn in list(_public_functions(module)):
            name = f"{layer}.{attr}"
            if name in UNWRAPPED:
                continue
            span = None if name in COUNT_ONLY else _span_wrapper(tracer, name, fn)
            for caller, holder in holders:
                for bound, value in list(vars(holder).items()):
                    if value is fn:
                        wrapper = span or _count_wrapper(tracer, name, caller, fn)
                        setattr(holder, bound, wrapper)
                        patched.append((holder, bound, fn))
    for name, (layer, cls_name, method) in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        fn = vars(cls)[method]
        setattr(cls, method, _span_wrapper(tracer, name, fn))
        patched.append((cls, method, fn))

    def restore():
        for holder, bound, fn in reversed(patched):
            setattr(holder, bound, fn)

    return restore
