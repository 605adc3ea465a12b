"""The four benchmark workloads: inputs from a seed, one op, and its oracle.

Every input comes from ``numpy.random.default_rng(seed)``.  Every check is
computed here with numpy from the generated inputs, by closed forms that do
not go through srenyi's own code:

* spectrum: the row count and order column equal the grid, the entropy is
  non-increasing, and H_0 (Shannon), H_-1 (log2 n) and H_+-inf
  (-log2 max / min) match the oracle to 1e-9 relative;
* divergence: the row count equals the grid and D_0 matches KL;
* inversion: the documented absolute-``tol`` contract, with pi_r evaluated
  by an independent log-domain power mean.

A check returns ``None`` when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
MONOTONE_SLACK = 1e-12
INVERT_TOL = 1e-10  # invert_probability's documented default
REL_MISS = 1e-6


def default_grid() -> np.ndarray:
    """The CLI's default grid: +-inf, -1/0/1, and +-50 log-spaced magnitudes
    in [0.01, 50]."""
    mags = np.geomspace(0.01, 50.0, 50)
    finite = np.unique(np.concatenate([-mags, mags, [-1.0, 0.0, 1.0]]))
    return np.concatenate([[-np.inf], finite, [np.inf]])


def batch_grid() -> np.ndarray:
    """The 21-order grid of the 1000-spectra monotonicity criterion."""
    return np.concatenate([[-np.inf], np.linspace(-20.0, 20.0, 19), [np.inf]])


def _write_csv(path: Path, labels: list[str], weights: np.ndarray) -> int:
    text = "label,weight\n" + "".join(
        f"{label},{w!r}\n" for label, w in zip(labels, weights.tolist())
    )
    path.write_text(text, encoding="utf-8")
    return len(text)


def _first_columns(stdout: str) -> np.ndarray:
    """The first two columns of a CLI CSV table (order, value) as floats."""
    lines = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    return np.array([[float(row[0]), float(row[1])] for row in csv.reader(lines[1:])])


def entropy_landmarks(w: np.ndarray) -> dict[float, float]:
    """Entropy in bits of the mass measure ``w`` at the orders with closed
    forms.  An unnormalized measure sits ``log2(total)`` below its
    normalization at every order."""
    w = w[w > 0]
    total = w.sum()
    p = w / total
    shift = math.log2(total)
    return {
        0.0: float(-np.sum(p * np.log2(p))) - shift,
        -1.0: math.log2(w.size) - shift,
        math.inf: -math.log2(w.max()),
        -math.inf: -math.log2(w.min()),
    }


def spectrum_problem(
    orders: np.ndarray, entropies: np.ndarray, grid: np.ndarray, landmarks: dict
) -> str | None:
    if orders.size != grid.size:
        return f"{orders.size} rows for a {grid.size}-order grid"
    if not np.array_equal(orders, grid):
        return "order column differs from the grid"
    if np.any(np.diff(entropies) > MONOTONE_SLACK):
        return "entropy increases along the grid"
    for r, expected in landmarks.items():
        at = np.flatnonzero(orders == r)
        if at.size and not math.isclose(entropies[at[0]], expected, rel_tol=REL_TOL):
            return f"H at order {r} is {entropies[at[0]]!r}, oracle {expected!r}"
    return None


def oracle_equiv_prob(p: np.ndarray, r: float) -> float:
    """pi_r = M_r(p, p) of a probability vector, in the log domain."""
    if math.isinf(r):
        return float(p.max() if r > 0 else p.min())
    log_p = np.log(p)
    if r == 0.0:
        return math.exp(float(np.sum(p * log_p)))
    scaled = r * log_p
    if np.abs(scaled).max() < 1e-3:
        # sum p*(p**r - 1) stays accurate where logsumexp/r would not
        return math.exp(math.log1p(float(np.sum(p * np.expm1(scaled)))) / r)
    top = scaled.max()
    log_sum = top + math.log(float(np.sum(p * np.exp(scaled - top))))
    return math.exp(log_sum / r)


class _CliWorkload:
    kind = "cli"

    def prepare(self, srenyi) -> None:
        self.cli = srenyi.cli

    def call(self, i: int) -> tuple[int, str]:
        """The op in this process, ``cli.main(argv)`` with stdout captured;
        the untraced run starts it as a subprocess instead."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv(i))
        return code, buf.getvalue()


class SpectrumLarge(_CliWorkload):
    """``srenyi spectrum`` on n=10^5 uniform random probabilities, default grid."""

    name = "spectrum-large"
    why = (
        "the only large-n workload: CSV parsing, O(n) kernel passes and one "
        "normalize per order dominate a CLI op, import included"
    )
    n = 100_000

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        u = 1.0 - rng.random(self.n)  # in (0, 1]
        w = u / u.sum()
        self.path = workdir / "measure.csv"
        nbytes = _write_csv(self.path, [f"x{i}" for i in range(self.n)], w)
        self.tiny = workdir / "tiny.csv"
        _write_csv(self.tiny, [f"t{i}" for i in range(6)], w[:6])
        self.grid = default_grid()
        self.landmarks = entropy_landmarks(w)
        self.sizes = {"elements": self.n, "bytes": nbytes}

    def argv(self, i: int) -> list[str]:
        return ["spectrum", str(self.path)]

    def warm_argv(self) -> list[str]:
        return ["spectrum", str(self.tiny)]

    def check(self, i: int, result: tuple[int, str]) -> str | None:
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        rows = _first_columns(stdout)
        return spectrum_problem(rows[:, 0], rows[:, 1], self.grid, self.landmarks)


class DivergenceShuffled(_CliWorkload):
    """``srenyi divergence p.csv q.csv`` at n=10^4, q's rows in another order.

    Runnable for the label-alignment layer numbers, but not listed in
    BENCHMARK.json: with four workloads the time allowed for all runs
    leaves runs of under 30 s, about ten of these 2-3 s ops, too few for a
    steady median (raw wall-time quartile spreads reached 0.27 over ten
    runs on a 2-vCPU VM, above the largest allowed bound).
    """

    name = "divergence-shuffled"
    why = (
        "the only workload that runs label alignment (aligned_weights, ratio), "
        "twice per order today; q is shuffled and not uniform"
    )
    n = 10_000

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        p = 1.0 - rng.random(self.n)
        q = 1.0 - rng.random(self.n)
        p, q = p / p.sum(), q / q.sum()
        labels = [f"k{i}" for i in range(self.n)]
        perm = rng.permutation(self.n)
        self.p_path, self.q_path = workdir / "p.csv", workdir / "q.csv"
        nbytes = _write_csv(self.p_path, labels, p)
        nbytes += _write_csv(self.q_path, [labels[j] for j in perm], q[perm])
        self.tiny_p, self.tiny_q = workdir / "tiny_p.csv", workdir / "tiny_q.csv"
        _write_csv(self.tiny_p, labels[:6], p[:6])
        _write_csv(self.tiny_q, labels[:6], q[:6])
        self.grid = default_grid()
        self.kl_bits = float(np.sum(p / p.sum() * np.log2(p / q)))
        self.sizes = {"elements": 2 * self.n, "bytes": nbytes}

    def argv(self, i: int) -> list[str]:
        return ["divergence", str(self.p_path), str(self.q_path)]

    def warm_argv(self) -> list[str]:
        return ["divergence", str(self.tiny_p), str(self.tiny_q)]

    def check(self, i: int, result: tuple[int, str]) -> str | None:
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        rows = _first_columns(stdout)
        if rows.shape[0] != self.grid.size:
            return f"{rows.shape[0]} rows for a {self.grid.size}-order grid"
        d0 = rows[rows[:, 0] == 0.0, 1]
        if d0.size != 1 or not math.isclose(d0[0], self.kl_bits, rel_tol=REL_TOL):
            return f"D_0 is {d0.tolist()}, KL oracle {self.kl_bits!r}"
        return None


class BatchSpectra:
    """In-process ``sample_spectrum`` on small random measures, 21 orders.

    Runnable for per-layer numbers on per-call overhead, but not listed in
    BENCHMARK.json, to keep the runs of the listed workloads long: every op
    costs nearly the same, so on a host whose speed switches between two
    states for seconds at a time the per-run median of raw wall times jumps
    from one state to the other (quartile spread 0.42 over ten runs on a
    2-vCPU VM, above the largest allowed bound of 0.25).
    """

    name = "batch-spectra"
    kind = "inproc"
    why = (
        "per-call overhead: many small in-process spectra (n in [2, 50], 21 "
        "orders), where dispatch and re-validation dominate and large n plays no part"
    )
    pool = 1000

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.weights = []
        for _ in range(self.pool):
            w = rng.uniform(0.05, 1.0, int(rng.integers(2, 51)))
            self.weights.append(w / w.sum())
        self.landmarks = [entropy_landmarks(w) for w in self.weights]
        self.grid = batch_grid()
        elements = sum(w.size for w in self.weights)
        self.sizes = {"elements": elements, "bytes": 8 * elements}
        self.tiny = workdir / "tiny.csv"
        _write_csv(self.tiny, [f"t{i}" for i in range(6)], self.weights[0][:6])

    def warm_argv(self) -> list[str]:
        return ["spectrum", str(self.tiny), "--orders=-20:20:19"]

    def prepare(self, srenyi) -> None:
        self.spectrum = srenyi.spectrum
        self.measures = [
            srenyi.measures.MassMeasure(tuple(f"x{j}" for j in range(w.size)), w)
            for w in self.weights
        ]
        self.order_grid = srenyi.spectrum.OrderGrid(
            tuple(self.grid[1:-1]), include_neg_inf=True, include_pos_inf=True
        )

    def call(self, i: int):
        # looked up at call time, so a traced run sees its wrapper
        return self.spectrum.sample_spectrum(self.measures[i % self.pool], self.order_grid)

    def check(self, i: int, table) -> str | None:
        orders = np.array(table.orders())
        entropies = np.array(table.entropies())
        return spectrum_problem(orders, entropies, self.grid, self.landmarks[i % self.pool])


class InvertRecover:
    """In-process ``recover_distribution_probe``: one inversion per distinct
    value of one measure.

    One op is one whole recovery rather than one ``invert_probability``
    call: single inversions take about 3 ms, and the 11th-slowest of the
    ~15000 in a run is set by host scheduling hiccups (quartile spread 0.39
    over ten runs on a 2-vCPU VM), while a ~0.6 s recovery averages them out.
    """

    name = "invert-recover"
    kind = "inproc"
    why = (
        "the solver: one op recovers all n=200 probabilities, spread log-uniformly "
        "over 1e12, by spectrum inversion, each a bisection of scalar-order kernel calls"
    )
    n = 200

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        raw = 10.0 ** (-12.0 * rng.random(self.n))
        self.p = raw / raw.sum()
        # what the library inverts: normalize() divides by the total again
        self.p_hat = self.p / self.p.sum()
        self.sizes = {"elements": self.n, "bytes": 8 * self.n}
        self.tiny = workdir / "tiny.csv"
        _write_csv(self.tiny, [f"t{i}" for i in range(6)], self.p[:6])
        self.rows = []

    def warm_argv(self) -> list[str]:
        return ["invert", str(self.tiny), "--all"]

    def prepare(self, srenyi) -> None:
        self.spectrum = srenyi.spectrum
        self.measure = srenyi.measures.MassMeasure(
            tuple(f"x{j}" for j in range(self.n)), self.p
        )

    def call(self, i: int):
        return self.spectrum.recover_distribution_probe(self.measure)

    def _targets(self, rows) -> list[float]:
        """The normalized probability of each row's (first) label."""
        return [float(self.p_hat[int(labels.split(",")[0][1:])]) for labels, _, _ in rows]

    def check(self, i: int, rows) -> str | None:
        self.rows = rows
        if len(rows) != self.n:
            return f"{len(rows)} rows for {self.n} distinct probabilities"
        for (labels, order, _), target in zip(rows, self._targets(rows)):
            achieved = oracle_equiv_prob(self.p_hat, order)
            if not abs(achieved - target) <= INVERT_TOL:
                return f"{labels} = {target!r}: order {order!r} attains {achieved!r}"
        return None

    def defect_counts(self) -> tuple[int, int]:
        """(snapped, rel_miss) over the rows of the last recovery.

        Snapped: a target strictly inside (min p, max p), so attainable at a
        finite order, that came back as +-inf.  Rel miss: the attained
        probability is off the target by more than 1e-6 relative.
        """
        lo, hi = self.p_hat.min(), self.p_hat.max()
        snapped = rel_miss = 0
        for (_, order, _), target in zip(self.rows, self._targets(self.rows)):
            snapped += lo < target < hi and math.isinf(order)
            rel_miss += abs(oracle_equiv_prob(self.p_hat, order) - target) > REL_MISS * target
        return snapped, rel_miss


WORKLOADS = {w.name: w for w in (SpectrumLarge, DivergenceShuffled, BatchSpectra, InvertRecover)}
