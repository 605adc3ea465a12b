"""Per-layer tracing from outside the program.

The layers are srenyi's modules.  A :class:`Tracer` wraps each layer's public
functions under every name srenyi's own modules look them up by (``from .x
import y`` copies the binding, so ``srenyi.info.normalize`` is wrapped as
well as ``srenyi.measures.normalize``), and removes the wrappers again when
its ``installed`` block exits.  Spans are aggregated as they close: calls,
total time and self time (total minus the time of directly nested spans).
The tracer's own bookkeeping is subtracted from every open span.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYER_FUNCTIONS = {
    "cli": ("read_measure", "parse_orders", "cmd_spectrum", "cmd_divergence"),
    "measures": ("normalize", "aligned_weights", "ratio"),
    "means": ("log_power_mean",),
    "info": (
        "shifted_entropy",
        "equivalent_probability",
        "information_potential",
        "entropy_derivative",
        "shifted_divergence",
    ),
    "spectrum": ("sample_spectrum", "invert_probability"),
}
INFO_FUNCTIONS = LAYER_FUNCTIONS["info"]
BRANCHES = ("logsumexp", "expm1", "series", "geometric", "inf")


def kernel_branch(weights, values, r) -> str:
    """The branch ``srenyi.means.log_power_mean`` takes for these arguments,
    read from its documented selection rules."""
    r = float(r)
    if math.isinf(r):
        return "inf"
    if r == 0.0:
        return "geometric"
    w = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore"):
        log_x = np.log(np.asarray(values, dtype=float)[w > 0])
    scaled = r * log_x
    finite = scaled[np.isfinite(scaled)]
    if finite.size and np.abs(finite).max() > 1.0:
        return "logsumexp"
    if np.isfinite(log_x).all() and abs(r) * float(np.abs(log_x).max()) < 1e-300:
        return "series"
    return "expm1"


def _srenyi_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "srenyi" or name.startswith("srenyi.")]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.elements = Counter()
        self.branches = Counter()
        self.pi_evals: list[int] = []
        self._nested_s: list[float] = []  # per open span: time of its direct children
        self._overhead_s = 0.0

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            pi_before = tracer.calls["info.equivalent_probability"]
            tracer._nested_s.append(0.0)
            overhead_before = tracer._overhead_s
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (tracer._overhead_s - overhead_before)
                nested = tracer._nested_s.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += elapsed
                tracer.self_s[name] += elapsed - nested
                if tracer._nested_s:
                    tracer._nested_s[-1] += elapsed
            book = perf_counter()
            if name == "means.log_power_mean":
                tracer.elements[name] += int(np.size(args[0]))
                tracer.branches[kernel_branch(*args, **kwargs)] += 1
            elif name == "measures.normalize":
                tracer.elements[name] += len(args[0])
            elif name == "spectrum.invert_probability":
                tracer.pi_evals.append(tracer.calls["info.equivalent_probability"] - pi_before)
            tracer._overhead_s += perf_counter() - book
            return result

        return traced

    @contextmanager
    def installed(self, srenyi):
        """Wrap every layer function in every srenyi module that binds it."""
        patches = []  # (owner, attribute, original)
        modules = _srenyi_modules()
        try:
            for layer, names in LAYER_FUNCTIONS.items():
                home = getattr(srenyi, layer)
                for fname in names:
                    fn = getattr(home, fname, None)
                    if fn is None:
                        continue
                    wrapper = self._wrap(f"{layer}.{fname}", fn)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is fn:
                                patches.append((module, attr, fn))
                                setattr(module, attr, wrapper)
            table = srenyi.spectrum.SpectrumTable
            patches.append((table, "validate", table.validate))
            table.validate = self._wrap("spectrum.validate", table.validate)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def per_op(self, ops: int) -> dict[str, float]:
        """Layer metrics, each per traced op (counts and milliseconds)."""

        def ms(table, name):
            return 1e3 * table[name] / ops

        lpm = "means.log_power_mean"
        out = {
            "cli.read_measure.ms": ms(self.total_s, "cli.read_measure"),
            "cli.parse_orders.ms": ms(self.total_s, "cli.parse_orders"),
            "cli.output.ms": ms(self.self_s, "cli.cmd_spectrum") + ms(self.self_s, "cli.cmd_divergence"),
            "measures.normalize.calls": self.calls["measures.normalize"] / ops,
            "measures.normalize.ms": ms(self.total_s, "measures.normalize"),
            "measures.normalize.elements": self.elements["measures.normalize"] / ops,
        }
        for fname in ("aligned_weights", "ratio"):
            out[f"measures.{fname}.calls"] = self.calls[f"measures.{fname}"] / ops
            out[f"measures.{fname}.ms"] = ms(self.total_s, f"measures.{fname}")
        out[f"{lpm}.calls"] = self.calls[lpm] / ops
        out[f"{lpm}.self_ms"] = ms(self.self_s, lpm)
        out[f"{lpm}.us_per_call"] = 1e6 * self.self_s[lpm] / self.calls[lpm] if self.calls[lpm] else 0.0
        out[f"{lpm}.elements"] = self.elements[lpm] / ops
        # computed, not measured: each element reads one weight and one value
        out[f"{lpm}.bytes_computed"] = 16 * self.elements[lpm] / ops
        for branch in BRANCHES:
            out[f"means.branch.{branch}"] = self.branches[branch] / ops
        for fname in INFO_FUNCTIONS:
            out[f"info.{fname}.calls"] = self.calls[f"info.{fname}"] / ops
            out[f"info.{fname}.self_ms"] = ms(self.self_s, f"info.{fname}")
        out["spectrum.sample_spectrum.self_ms"] = ms(self.self_s, "spectrum.sample_spectrum")
        out["spectrum.validate.ms"] = ms(self.total_s, "spectrum.validate")
        out["spectrum.invert_probability.ms"] = ms(self.total_s, "spectrum.invert_probability")
        evals = self.pi_evals or [0]
        out["spectrum.pi_evals_per_inversion.median"] = float(statistics.median(evals))
        out["spectrum.pi_evals_per_inversion.max"] = float(max(evals))
        return out
