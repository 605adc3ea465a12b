"""A fixed reference block that measures how fast the CPU runs right now.

On a shared host a vCPU's speed changes by up to a factor of two, for
seconds to minutes at a time, with the load of other tenants; a wall time
alone then says more about the neighbours than about srenyi.  The benchmark
therefore times this block next to every op, on the same pinned CPU, and
reports each op at reference speed::

    op_ms_at_ref = op_wall_ms * NOMINAL_S / reference_s

where ``reference_s`` is the mean of the block's best times just before and
just after the op.  The block never calls srenyi, so a change to srenyi moves
the op's time and not the reference.  It mixes the kinds of work srenyi's
ops do: interpreted Python, numpy on arrays of 10^5 (the size of the large
spectrum workload) and of 10^6 (bound by memory bandwidth), numpy calls on
small arrays (dispatch overhead), allocation-heavy stdlib work, and
pure-Python code spread over many functions (``ast.unparse``), whose large
code footprint slows down most when a neighbour shares the core.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from time import perf_counter

import numpy as np

# The block's time on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) in its
# faster state, so that values at reference speed read roughly as wall
# times there.  A constant: every run and every commit scales by the same.
NOMINAL_S = 0.040

_rng = np.random.default_rng(20181115)
_LARGE = _rng.random(100_000) + 0.5
_HUGE = _rng.random(1_000_000) + 0.5
_SMALL = _rng.random(200) + 0.5
_RECORDS = [{f"k{i}": [i, i / 3.0, "label"]} for i in range(1500)]
_TREE = ast.parse(Path(__file__).with_name("workloads.py").read_text(encoding="utf-8"))


def _interpreted() -> int:
    s = 0
    for i in range(60_000):
        s += i * i
    return s


def _numpy_large() -> float:
    total = 0.0
    for _ in range(2):
        total += float(np.log(_LARGE).sum()) + float(np.exp(-_LARGE).sum())
        total += float(np.sort(_LARGE)[0])
    return total


def _numpy_memory() -> float:
    return float(np.log(_HUGE).sum()) + float(np.exp(-_HUGE).sum())


def _numpy_small() -> float:
    total = 0.0
    for _ in range(200):
        x = np.log(_SMALL)
        top = x.max()
        total += float(np.log(np.sum(np.exp(x - top)))) + float(top)
        total += bool(np.isfinite(x).all())
    return total


def _stdlib() -> int:
    return len(json.loads(json.dumps(_RECORDS)))


def _many_functions() -> int:
    return sum(len(ast.unparse(_TREE)) for _ in range(3))


def reference_seconds(passes: int = 2) -> float:
    """Wall seconds of the fastest of ``passes`` passes over the reference
    block.  The first pass after another process has run on the CPU finds
    cold caches; the fastest pass tells the CPU's speed."""
    best = float("inf")
    for _ in range(passes):
        start = perf_counter()
        _interpreted()
        _numpy_large()
        _numpy_memory()
        _numpy_small()
        _stdlib()
        _many_functions()
        best = min(best, perf_counter() - start)
    return best
