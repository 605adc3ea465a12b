"""Acceptance gate: ten numbered criteria, one test per criterion.

Each test prints a single "PASS: criterion N" line on success (visible with
``pytest -s`` and in captured output); the pytest verdict of the
correspondingly named test is the authoritative pass/fail signal.  Seeds are
fixed; runtime-bounded criteria measure wall time with time.monotonic.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from srenyi import (
    Distribution,
    MassMeasure,
    OrderGrid,
    entropy_derivative,
    equivalent_probability,
    from_counts,
    information_potential,
    invert_probability,
    normalize,
    power_mean,
    power_mean_derivative,
    sample_spectrum,
    shifted_cross_entropy,
    shifted_divergence,
    shifted_entropy,
    standard_divergence,
    standard_entropy,
)
from srenyi.cli import main

from support import (
    UCB_COUNTS,
    UCB_LABELS,
    UCB_TOTAL,
    direct_power_mean,
    entropy_via_escort_rewrite,
    kn_mean,
    mass_displacement_check,
    power_pair,
    self_information_check,
    skew_symmetric_divergence,
)

SEED = 20260814

# frozen derived-oracle values (60-digit direct summation)
UCB_H_NEG1 = 2.584962500721156  # log2(6)
UCB_H_POS_INF = 2.2782875984151337  # -log2(933/4526)
UCB_H_NEG_INF = 2.9541963103868752  # -log2(584/4526)
UCB_H_SHANNON = 2.5595380704534317
UCB_H_COLLISION = 2.5353532126799224


def _ok(n, text):
    print(f"PASS: criterion {n} - {text}")


def _random_distribution(rng, n_low=2, n_high=8):
    n = int(rng.integers(n_low, n_high + 1))
    w = rng.uniform(0.05, 1.0, n)
    return normalize(MassMeasure(tuple(f"x{i}" for i in range(n)), w))


def test_criterion_01_worked_example_reproduction():
    start = time.monotonic()
    counts = from_counts(UCB_LABELS, UCB_COUNTS)
    dist = normalize(counts)
    assert_allclose(
        dist.weights, [0.21, 0.13, 0.20, 0.17, 0.13, 0.16], atol=0.005
    )  # two-decimal agreement
    assert_allclose(shifted_entropy(dist, -1.0).value, UCB_H_NEG1, rtol=1e-10)
    assert_allclose(shifted_entropy(dist, math.inf).value, UCB_H_POS_INF, rtol=1e-10)
    assert_allclose(shifted_entropy(dist, -math.inf).value, UCB_H_NEG_INF, rtol=1e-10)
    assert_allclose(
        shifted_entropy(dist, math.inf).value, -math.log2(933 / UCB_TOTAL), rtol=1e-12
    )
    assert_allclose(
        shifted_entropy(dist, -math.inf).value, -math.log2(584 / UCB_TOTAL), rtol=1e-12
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    _ok(1, f"worked example reproduced in {elapsed:.3f}s")


def test_criterion_02_spectrum_monotonicity_at_scale():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    grid = OrderGrid(
        tuple(np.linspace(-20.0, 20.0, 19)),
        include_neg_inf=True,
        include_pos_inf=True,
    )
    assert len(grid) == 21
    for _ in range(1000):
        dist = _random_distribution(rng, n_low=2, n_high=50)
        table = sample_spectrum(dist, grid)  # validates internally too
        ents = np.array(table.entropies())
        probs = np.array([row.equiv_prob for row in table.rows])
        assert (np.diff(ents) <= 1e-12).all()
        assert (np.diff(probs) >= -1e-12 * probs[:-1]).all()
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s, budget 30s"
    _ok(2, f"1000 spectra monotone in {elapsed:.2f}s")


def test_criterion_03_means_property_suite():
    rng = np.random.default_rng(SEED + 3)

    def case():
        n = int(rng.integers(2, 9))
        return rng.uniform(0.05, 2.0, n), rng.uniform(0.1, 5.0, n)

    for _ in range(500):  # homogeneity
        w, x = case()
        r = float(rng.uniform(-5, 5))
        a, c = float(rng.uniform(0.1, 50)), float(rng.uniform(0.1, 50))
        assert_allclose(
            power_mean(a * w, c * x, r), c * power_mean(w, x, r), rtol=1e-9
        )
    for _ in range(500):  # order factorization M_{rs}(w,x) = M_s(w,x^r)^(1/r)
        w, x = case()
        r = float(rng.uniform(0.2, 2.5)) * float(rng.choice([-1, 1]))
        s = float(rng.uniform(0.2, 2.5)) * float(rng.choice([-1, 1]))
        assert_allclose(
            power_mean(w, x, r * s), power_mean(w, x**r, s) ** (1.0 / r), rtol=1e-9
        )
    for _ in range(500):  # reduction to arithmetic and harmonic
        w, x = case()
        wn = w / w.sum()
        assert_allclose(power_mean(w, x, 1.0), float(np.sum(wn * x)), rtol=1e-9)
        assert_allclose(
            power_mean(w, x, -1.0), 1.0 / float(np.sum(wn / x)), rtol=1e-9
        )
    for _ in range(500):  # monotonicity in the order
        w, x = case()
        r = float(rng.uniform(-6, 6))
        s = r + float(rng.uniform(0.01, 3.0))
        m_r, m_s = power_mean(w, x, r), power_mean(w, x, s)
        assert m_s >= m_r * (1.0 - 1e-9)
    for _ in range(500):  # Kolmogorov-Nagumo consistency
        w, x = case()
        r = float(rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0, 3.0]))
        assert_allclose(kn_mean(w, x, power_pair(r)), power_mean(w, x, r), rtol=1e-9)
    _ok(3, "5 x 500 randomized mean properties at 1e-9")


def test_criterion_04_derivative_agreement():
    rng = np.random.default_rng(SEED + 4)
    h = 1e-5
    for _ in range(200):  # closed-form mean derivative vs central differences
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.05, 2.0, n)
        x = rng.uniform(0.2, 5.0, n)
        r = float(rng.uniform(0.1, 3.0)) * float(rng.choice([-1, 1]))
        fd = (power_mean(w, x, r + h) - power_mean(w, x, r - h)) / (2 * h)
        assert_allclose(power_mean_derivative(w, x, r), fd, rtol=1e-4, atol=1e-10)
    for _ in range(200):  # entropy spectrum slope vs central differences
        dist = _random_distribution(rng)
        r = float(rng.uniform(0.05, 3.0)) * float(rng.choice([-1, 1]))
        fd = (
            shifted_entropy(dist, r + h).value - shifted_entropy(dist, r - h).value
        ) / (2 * h)
        got = entropy_derivative(dist, r)
        assert got <= 0.0
        assert_allclose(got, fd, rtol=1e-4, atol=1e-10)
    for _ in range(50):  # the sign constraint alone, over a wider net
        dist = _random_distribution(rng)
        assert entropy_derivative(dist, float(rng.uniform(-8, 8))) <= 0.0
        assert entropy_derivative(dist, 0.0) <= 0.0
    _ok(4, "derivatives agree with finite differences at 1e-4; slope never positive")


def test_criterion_05_identity_suite():
    rng = np.random.default_rng(SEED + 5)
    extended = (-math.inf, math.inf)

    def dist_pair():
        n = int(rng.integers(2, 8))
        p = _random_distribution(rng, n_low=n, n_high=n)
        q = Distribution(p.labels, rng.dirichlet(np.ones(n) * 2.0))
        return p, q

    for i in range(500):  # divergence from uniformity
        p = _random_distribution(rng)
        n = len(p)
        u = Distribution(p.labels, np.full(n, 1.0 / n))
        r = extended[i % 2] if i % 10 == 0 else float(rng.uniform(-5, 5))
        assert_allclose(
            shifted_divergence(p, u, r).value,
            math.log2(n) - shifted_entropy(p, r).value,
            rtol=1e-9,
            atol=1e-11,
        )
    for i in range(500):  # cross-entropy collapse
        p = _random_distribution(rng)
        r = extended[i % 2] if i % 10 == 0 else float(rng.uniform(-5, 5))
        assert_allclose(
            shifted_cross_entropy(p, p, r).value,
            shifted_entropy(p, r).value,
            rtol=1e-9,
            atol=1e-11,
        )
    for i in range(500):  # self-information: entropy as divergence from p*p
        p = _random_distribution(rng)
        r = extended[i % 2] if i % 10 == 0 else float(rng.uniform(-5, 5))
        lhs, rhs = self_information_check(p, r)
        assert_allclose(rhs.value, lhs.value, rtol=1e-9, atol=1e-11)
    for _ in range(500):  # skew symmetry of the divergence
        p, q = dist_pair()
        r = float(rng.uniform(0.05, 4.0)) * float(rng.choice([-1, 1]))
        assert_allclose(
            skew_symmetric_divergence(p, q, r).value,
            shifted_divergence(p, q, r).value,
            rtol=1e-9,
            atol=1e-10,
        )
    for _ in range(500):  # both escort rewrites of the entropy
        scale = float(rng.uniform(0.1, 100.0))
        p = _random_distribution(rng)
        m = MassMeasure(p.labels, p.weights * scale)
        r = float(rng.uniform(0.05, 4.0)) * float(rng.choice([-1, 1]))
        expected = shifted_entropy(m, r).value
        r1, r2 = entropy_via_escort_rewrite(m, r)
        assert_allclose(r1.value, expected, rtol=1e-9, atol=1e-10)
        assert_allclose(r2.value, expected, rtol=1e-9, atol=1e-10)
    for _ in range(500):  # potential bridge V_r = b**(-r H_r)
        p = _random_distribution(rng)
        r = float(rng.uniform(-5, 5))
        for base in (2.0, math.e):
            assert_allclose(
                information_potential(p, r),
                base ** (-r * shifted_entropy(p, r, base).value),
                rtol=1e-9,
            )
    for _ in range(500):  # mass displacement for random total mass in [0.1, 100]
        scale = float(rng.uniform(0.1, 100.0))
        p = _random_distribution(rng)
        m = MassMeasure(p.labels, p.weights * scale)
        r = float(rng.uniform(-5, 5))
        lhs, rhs = mass_displacement_check(m, r)
        assert_allclose(lhs.value, rhs.value, rtol=1e-9, atol=1e-10)
    _ok(5, "7 x 500 randomized identities at 1e-9")


def test_criterion_06_shift_equivalence_bitwise():
    rng = np.random.default_rng(SEED + 6)
    shifted_orders = (-math.inf, -2.0, -1.0, 0.0, 1.0, 2.0, math.inf)
    for _ in range(100):
        p = _random_distribution(rng)
        q = Distribution(p.labels, rng.dirichlet(np.ones(len(p))))
        for r in shifted_orders:
            alpha = r + 1.0
            assert (
                standard_entropy(p, alpha).value == shifted_entropy(p, r).value
            ), f"entropy mismatch at r={r}"
            assert (
                standard_divergence(p, q, alpha).value
                == shifted_divergence(p, q, r).value
            ), f"divergence mismatch at r={r}"
    _ok(6, "standard-order forms bitwise equal to shifted forms")


def test_criterion_07_decomposition_counterexample():
    # frozen counterexample: the Shannon decomposition D = -H + X fails off
    # order zero (reference deliberately non-uniform, where it would hold)
    p = Distribution(("a", "b"), np.array([0.9, 0.1]))
    q = Distribution(("a", "b"), np.array([0.25, 0.75]))
    r = 1.0
    div = shifted_divergence(p, q, r).value
    decomposed = -shifted_entropy(p, r).value + shifted_cross_entropy(p, q, r).value
    assert_allclose(div, 1.7019186470670054, rtol=1e-12)
    assert_allclose(decomposed, 1.4506614090095652, rtol=1e-12)
    gap = abs(div - decomposed)
    assert gap > 1e-3, f"gap {gap} too small to witness the negative result"
    _ok(7, f"decomposition counterexample gap {gap:.4f} > 1e-3")


def test_criterion_08_inversion_round_trip():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(100):
        dist = _random_distribution(rng)
        r = float(rng.uniform(-20.0, 20.0))
        target = equivalent_probability(dist, r)
        recovered = invert_probability(dist, target, tol=1e-10)
        achieved = equivalent_probability(dist, recovered)
        assert abs(achieved - target) <= 1e-8
    _ok(8, "100 inversion round trips within 1e-8")


def test_criterion_09_cli_end_to_end(tmp_path, capsys):
    start = time.monotonic()
    csv_path = tmp_path / "ucb.csv"
    csv_path.write_text(
        "label,weight\n"
        + "".join(f"{l},{c}\n" for l, c in zip(UCB_LABELS, UCB_COUNTS))
    )
    json_path = tmp_path / "ucb.json"
    json_path.write_text(
        json.dumps([{"label": l, "weight": c} for l, c in zip(UCB_LABELS, UCB_COUNTS)])
    )
    prefix = str(tmp_path / "ucb")

    argv_tail = ["--orders", "named", "--normalize", "--plot-data", prefix]
    assert main(["spectrum", str(csv_path), *argv_tail]) == 0
    out_csv = capsys.readouterr().out
    assert main(["spectrum", str(json_path), *argv_tail]) == 0
    out_json_input = capsys.readouterr().out
    assert out_csv == out_json_input, "CSV and JSON inputs must match bit for bit"

    rows = [
        row
        for row in csv.reader(io.StringIO(out_csv))
        if row and not row[0].startswith("#")
    ][1:]
    table = {row[0]: float(row[1]) for row in rows}
    assert_allclose(table["-1.0"], UCB_H_NEG1, rtol=1e-10)
    assert_allclose(table["inf"], UCB_H_POS_INF, rtol=1e-10)
    assert_allclose(table["-inf"], UCB_H_NEG_INF, rtol=1e-10)
    assert_allclose(table["0.0"], UCB_H_SHANNON, rtol=1e-10)
    assert_allclose(table["1.0"], UCB_H_COLLISION, rtol=1e-10)

    for suffix in ("_entropy.dat", "_eqprob.dat"):
        data = np.loadtxt(prefix + suffix)
        assert data.ndim == 2 and data.shape[1] == 2
        assert np.isfinite(data).all()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    _ok(9, f"CLI end-to-end with input-format parity in {elapsed:.3f}s")


def test_criterion_10_numerical_stress():
    raw = np.array([1.0, 1e-3, 1e-6, 1e-9, 1e-12])  # ratio 1e12
    labels = tuple(f"s{i}" for i in range(raw.size))
    dist = normalize(MassMeasure(labels, raw))
    grid = OrderGrid(
        tuple(np.linspace(-50.0, 50.0, 41)),
        include_neg_inf=True,
        include_pos_inf=True,
    )
    table = sample_spectrum(dist, grid)  # monotone + consistent, or it raises
    ents = np.array(table.entropies())
    assert np.isfinite(ents).all()
    assert (np.diff(ents) <= 1e-12).all()

    # the naive linear-domain oracle breaks on the same inputs:
    # p**-50 overflows to inf and collapses the mean to 0.0
    p = dist.weights
    assert direct_power_mean(p, p, -50.0) == 0.0
    assert power_mean(p, p, -50.0) >= p.min()
    # and with all values tiny, p**50 underflows to an all-zero sum
    tiny = np.array([1e-12, 1e-11, 1e-10, 1e-9])
    assert direct_power_mean(np.ones(4), tiny, 50.0) == 0.0
    assert tiny.min() <= power_mean(np.ones(4), tiny, 50.0) <= tiny.max()
    _ok(10, "1e12 dynamic range stays finite and monotone across |r| <= 50")
