"""Per-layer tracing from outside the package.

While a :class:`Tracer` is installed, the public functions of each ntxbound
module are replaced by wrappers that record a span per call: its duration,
and the part of it spent in child spans, so each function's self time is the
duration minus its children. Every module attribute that refers to a wrapped
function is patched, including names imported into other modules, and
everything is restored on exit. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

#: Wrapped functions per module. ``serialize.format_float`` and
#: ``serialize.dumps`` are left out: they are the inner steps of
#: ``trace_to_csv`` and ``write_json``, and stay in those functions' self time.
#: ``Mlp.forward_trace`` is left out for the same reason under ``forward``.
WRAPPED = {
    "sim": ("l2_normalize", "cosine_sim", "similarity_matrix", "EmbeddingBatch.unit_rows"),
    "loss": ("logsumexp", "anchor_indices", "nt_xent_from_sims", "nt_xent", "nt_xent_grad"),
    "bounds": (
        "lse_bounds",
        "avg_positive_similarity",
        "similarity_bound",
        "evaluate_batch",
        "sample_embeddings",
        "monte_carlo_verify",
    ),
    "trainer": ("gen_synthetic", "augment", "forward", "Mlp.backward", "train_step", "train"),
    "gradcheck": (
        "central_difference",
        "worst_error",
        "loss_level_check",
        "end_to_end_check",
        "flatten_params",
        "set_params",
        "flatten_param_grads",
    ),
    "serialize": ("write_json", "load_json", "trace_to_csv", "read_trace_csv"),
    "cli": ("parse_verify_config", "parse_train_config", "cmd_verify", "cmd_gradcheck", "cmd_train", "main"),
}


def span_name(module: str, qualname: str) -> str:
    """Metric prefix of a wrapped function; ``EmbeddingBatch.unit_rows`` reads ``sim.unit_rows``."""
    return f"{module}.{qualname.removeprefix('EmbeddingBatch.')}"


class Tracer:
    """Span statistics of one traced round, plus counts taken at layer boundaries."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.sim_entries = 0
        self.loss_evals = 0
        self.bytes_written = 0
        self.bound_call_s: dict[int, list[float]] = defaultdict(list)
        self._last_duration = 0.0
        self._stack: list[float] = []  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name: str, fn, args, kwargs):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - children
            self._last_duration = duration

    def _wrapper(self, name: str, fn):
        hook = self._HOOKS.get(name)
        target = getattr(self, hook) if hook else self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return target(name, fn, args, kwargs)

        return traced

    # Counts taken at the boundary of the layer that does the work.

    _HOOKS = {
        "sim.similarity_matrix": "_similarity_matrix",
        "bounds.similarity_bound": "_similarity_bound",
        "gradcheck.central_difference": "_central_difference",
        "serialize.write_json": "_write_json",
        "serialize.trace_to_csv": "_trace_to_csv",
    }

    def _similarity_matrix(self, name, fn, args, kwargs):
        result = self._record(name, fn, args, kwargs)
        self.sim_entries += result.sims.size
        return result

    def _similarity_bound(self, name, fn, args, kwargs):
        result = self._record(name, fn, args, kwargs)
        self.bound_call_s[args[0].n_pairs].append(self._last_duration)
        return result

    def _central_difference(self, name, fn, args, kwargs):
        f, rest = args[0], args[1:]

        def counted(x):
            self.loss_evals += 1
            return f(x)

        return self._record(name, fn, (counted, *rest), kwargs)

    def _write_json(self, name, fn, args, kwargs):
        result = self._record(name, fn, args, kwargs)
        self.bytes_written += os.path.getsize(args[0])
        return result

    def _trace_to_csv(self, name, fn, args, kwargs):
        result = self._record(name, fn, args, kwargs)
        self.bytes_written += len(result.encode("utf-8"))
        return result

    # Installation

    def __enter__(self) -> "Tracer":
        package = [m for key, m in sys.modules.items() if key == "ntxbound" or key.startswith("ntxbound.")]
        for module_name, qualnames in WRAPPED.items():
            module = importlib.import_module(f"ntxbound.{module_name}")
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapped = self._wrapper(span_name(module_name, qualname), original)
                if owner_name:
                    self._patch(owner, attr, wrapped)
                    continue
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
