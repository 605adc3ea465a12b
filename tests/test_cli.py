"""End-to-end exercises of the command line interface.

Everything drives ``main(argv)`` in-process (stdout captured by pytest) so
exit codes and byte-level output determinism can be asserted exactly;  one
final test goes through a real subprocess.
"""

import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import srenyi
from srenyi.cli import main, read_measure
from srenyi.measures import MassMeasure

from support import SEAM_SEEDS, UCB_COUNTS, UCB_LABELS, near_flat_weights
from test_input import EDGE_CORPUS

LOG2_6 = 2.584962500721156


@pytest.fixture
def ucb_csv(tmp_path):
    lines = ["label,weight"] + [
        f"{l},{c}" for l, c in zip(UCB_LABELS, UCB_COUNTS)
    ]
    path = tmp_path / "ucb.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def ucb_json(tmp_path):
    records = [
        {"label": l, "weight": c} for l, c in zip(UCB_LABELS, UCB_COUNTS)
    ]
    path = tmp_path / "ucb.json"
    path.write_text(json.dumps(records))
    return str(path)


@pytest.fixture
def uniform_csv(tmp_path):
    path = tmp_path / "unif.csv"
    path.write_text("".join(f"{l},7\n" for l in UCB_LABELS))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv_table(text):
    rows = [
        row
        for row in csv.reader(io.StringIO(text))
        if row and not row[0].startswith("#")
    ]
    header, data = rows[0], rows[1:]
    return header, data


def as_float(cell):
    return float(cell) if cell else None


class TestSpectrumCommand:
    def test_named_landmarks(self, capsys, ucb_csv):
        code, out, _ = run(
            capsys, ["spectrum", ucb_csv, "--orders", "named", "--normalize"]
        )
        assert code == 0
        header, data = parse_csv_table(out)
        assert header == ["order", "entropy", "equiv_prob", "potential", "derivative"]
        assert [row[0] for row in data] == ["-inf", "-1.0", "0.0", "1.0", "inf"]
        entropies = [float(row[1]) for row in data]
        assert_allclose(
            entropies,
            (
                2.9541963103868752,
                LOG2_6,
                2.5595380704534317,
                2.5353532126799224,
                2.2782875984151337,
            ),
            rtol=1e-12,
        )
        # infinite rows leave potential and derivative empty
        assert data[0][3] == "" and data[0][4] == ""
        assert data[-1][3] == "" and data[-1][4] == ""

    def test_csv_and_json_inputs_agree_bytewise(self, capsys, ucb_csv, ucb_json):
        _, out_csv, _ = run(capsys, ["spectrum", ucb_csv, "--orders", "named"])
        _, out_json, _ = run(capsys, ["spectrum", ucb_json, "--orders", "named"])
        assert out_csv == out_json

    def test_runs_are_deterministic(self, capsys, ucb_csv):
        _, first, _ = run(capsys, ["spectrum", ucb_csv])
        _, second, _ = run(capsys, ["spectrum", ucb_csv])
        assert first == second

    def test_json_output(self, capsys, ucb_csv):
        code, out, _ = run(
            capsys,
            ["spectrum", ucb_csv, "--orders", "named", "--format", "json", "--normalize"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "spectrum"
        assert payload["normalized"] is True
        assert payload["n"] == 6
        orders = [row["order"] for row in payload["rows"]]
        assert orders == ["-inf", -1.0, 0.0, 1.0, "inf"]
        assert payload["rows"][0]["potential"] is None
        assert_allclose(payload["rows"][2]["entropy"], 2.5595380704534317, rtol=1e-12)

    def test_unnormalized_vs_normalized_displacement(self, capsys, ucb_csv):
        _, raw, _ = run(capsys, ["spectrum", ucb_csv, "--orders", "named"])
        _, norm, _ = run(capsys, ["spectrum", ucb_csv, "--orders", "named", "--normalize"])
        raw_h = [float(r[1]) for r in parse_csv_table(raw)[1]]
        norm_h = [float(r[1]) for r in parse_csv_table(norm)[1]]
        shift = math.log2(sum(UCB_COUNTS))
        assert_allclose(np.array(norm_h) - shift, raw_h, rtol=1e-12)

    def test_uniform_input_is_flat(self, capsys, uniform_csv):
        _, out, _ = run(capsys, ["spectrum", uniform_csv, "--normalize"])
        _, data = parse_csv_table(out)
        assert_allclose([float(r[1]) for r in data], LOG2_6, rtol=1e-12)

    def test_default_grid_has_both_infinities(self, capsys, ucb_csv):
        _, out, _ = run(capsys, ["spectrum", ucb_csv])
        _, data = parse_csv_table(out)
        assert data[0][0] == "-inf" and data[-1][0] == "inf"
        assert len(data) == 105

    @pytest.mark.parametrize("seed", SEAM_SEEDS)
    def test_near_flat_weights_far_from_unit_total(self, capsys, tmp_path, seed):
        """200 weights ``1e-300 * (1 + 1e-12 * u)``, written as ``repr``
        floats, give a spectrum on the default grid (they once exited 3:
        "entropy increases by 1.02e-12 from order -0.01 to 0.0")."""
        path = tmp_path / "flat.csv"
        path.write_text("".join(f"x{i},{w!r}\n" for i, w in enumerate(near_flat_weights(seed).tolist())))
        code, out, err = run(capsys, ["spectrum", str(path)])
        assert (code, err) == (0, "")
        assert len(parse_csv_table(out)[1]) == 105

    def test_base_flag_and_env(self, capsys, ucb_csv, monkeypatch):
        _, bits, _ = run(capsys, ["spectrum", ucb_csv, "--orders", "0", "--normalize"])
        monkeypatch.setenv("RENYI_BASE", "e")
        _, nats, _ = run(capsys, ["spectrum", ucb_csv, "--orders", "0", "--normalize"])
        # flag must beat the environment
        _, bits_again, _ = run(
            capsys,
            ["spectrum", ucb_csv, "--orders", "0", "--normalize", "--base", "2"],
        )
        h_bits = float(parse_csv_table(bits)[1][0][1])
        h_nats = float(parse_csv_table(nats)[1][0][1])
        h_flag = float(parse_csv_table(bits_again)[1][0][1])
        assert_allclose(h_nats, h_bits * math.log(2.0), rtol=1e-12)
        assert h_flag == h_bits

    def test_bad_env_base_fails_cleanly(self, capsys, ucb_csv, monkeypatch):
        monkeypatch.setenv("RENYI_BASE", "zero")
        code, _, err = run(capsys, ["spectrum", ucb_csv])
        assert code == 2 and "base" in err

    @pytest.mark.parametrize("base", ["1", "nan", "inf", "x"])
    def test_bad_base_exit_2(self, capsys, ucb_csv, monkeypatch, base):
        code, out, err = run(capsys, ["spectrum", ucb_csv, "--base", base])
        assert (code, out) == (2, "") and f"invalid base {base!r}" in err
        monkeypatch.setenv("RENYI_BASE", base)
        assert run(capsys, ["spectrum", ucb_csv]) == (code, out, err)

    def test_largest_double_weight(self, capsys, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("a,1.7976931348623157e308\n")
        code, out, err = run(capsys, ["spectrum", str(big), "--orders", "named"])
        assert (code, err) == (0, "")
        _, data = parse_csv_table(out)
        assert [row[1] for row in data] == ["-1024.0"] * 5
        # on the default grid ln M_r once rounded an ulp past ln x, so pi_r
        # overflowed on one row and the spectrum failed validation
        code, out, err = run(capsys, ["spectrum", str(big)])
        assert (code, err) == (0, "")
        assert len(parse_csv_table(out)[1]) == len(srenyi.OrderGrid.default())

    def test_order_snapping(self, capsys, ucb_csv):
        """Orders within 1e-12 of zero are snapped to the exact geometric
        branch at the CLI boundary."""
        _, out, _ = run(
            capsys, ["spectrum", ucb_csv, "--orders", "1e-13", "--normalize"]
        )
        _, data = parse_csv_table(out)
        assert data[0][0] == "0.0"
        assert_allclose(float(data[0][1]), 2.5595380704534317, rtol=1e-12)

    @pytest.mark.parametrize(
        "token, order",
        [("inf", "inf"), ("+inf", "inf"), ("-Infinity", "-inf"), (" INF ", "inf"), ("1e-13", "0.0")],
    )
    def test_order_token_spellings(self, capsys, ucb_csv, token, order):
        code, out, _ = run(capsys, ["spectrum", ucb_csv, "--orders", f"1,{token}"])
        assert code == 0
        _, data = parse_csv_table(out)
        assert sorted({row[0] for row in data} - {"1.0"}) == [order]

    def test_range_orders(self, capsys, ucb_csv):
        code, out, _ = run(capsys, ["spectrum", ucb_csv, "--orders=-2:2:5"])
        assert code == 0
        _, data = parse_csv_table(out)
        assert [row[0] for row in data] == ["-2.0", "-1.0", "0.0", "1.0", "2.0"]

    def test_invalid_orders_exit_2(self, capsys, ucb_csv):
        for bad in ("1,2,nope", "", "1:2", "1:2:0", ":", "nan", "1,,2", "1, ,2", "-inf:0:3"):
            code, _, err = run(capsys, ["spectrum", ucb_csv, f"--orders={bad}"])
            assert code == 2, bad

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["spectrum", str(tmp_path / "nope.csv")])
        assert code == 1

    def test_malformed_rows_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,1,9\nb,2\n")
        assert run(capsys, ["spectrum", str(bad)])[0] == 1
        bad.write_text("a,one\n")
        assert run(capsys, ["spectrum", str(bad)])[0] == 1
        bad.write_text("a,-3\n")
        assert run(capsys, ["spectrum", str(bad)])[0] == 1
        bad.write_text("a,1\na,2\n")
        assert run(capsys, ["spectrum", str(bad)])[0] == 1

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"label": "a"}]')
        assert run(capsys, ["spectrum", str(bad)])[0] == 1
        bad.write_text('[{"label": "a", "weight": "lots"}]')
        assert run(capsys, ["spectrum", str(bad)])[0] == 1
        bad.write_text("{broken")
        assert run(capsys, ["spectrum", str(bad)])[0] == 1
        bad.write_text("[]")
        assert run(capsys, ["spectrum", str(bad)])[0] == 1

    @pytest.mark.parametrize("label", ["null", "1", "1.5", "true", '["a"]'])
    def test_json_label_must_be_a_string(self, capsys, tmp_path, label):
        # CSV labels are always text; a JSON 1 must not pass as, or clash with, "1"
        path = tmp_path / "labels.json"
        path.write_text(f'[{{"label": "1", "weight": 2}}, {{"label": {label}, "weight": 1}}]')
        expected = f"srenyi: error: {path}: record 1: label must be a string\n"
        assert run(capsys, ["spectrum", str(path)]) == (1, "", expected)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_json_weight_past_double_range_as_csv(self, capsys, tmp_path, sign):
        # the integer 10**400 has no double; it reads as CSV's 1e400 does
        big_json, big_csv = tmp_path / "big.json", tmp_path / "big.csv"
        big_json.write_text(f'[{{"label": "a", "weight": {sign}1{"0" * 400}}}]')
        big_csv.write_text(f"a,{sign}1e400\n")
        expected = (1, "", "srenyi: error: weights must be finite\n")
        for path in (big_json, big_csv):
            assert run(capsys, ["spectrum", str(path), "--orders", "named"]) == expected

    def test_plot_data_files(self, capsys, ucb_csv, tmp_path):
        prefix = str(tmp_path / "plots" / "ucb")
        (tmp_path / "plots").mkdir()
        code, _, _ = run(
            capsys,
            ["spectrum", ucb_csv, "--orders", "named", "--normalize", "--plot-data", prefix],
        )
        assert code == 0
        entropy = np.loadtxt(prefix + "_entropy.dat")
        eqprob = np.loadtxt(prefix + "_eqprob.dat")
        assert entropy.shape == (5, 2) and eqprob.shape == (5, 2)
        # infinite orders are clamped onto the finite edges, annotated
        text = (tmp_path / "plots" / "ucb_entropy.dat").read_text()
        assert "# clamped from order=-inf" in text
        assert entropy[0, 0] == -1.0 and entropy[-1, 0] == 1.0
        assert_allclose(entropy[:, 1], np.sort(entropy[:, 1])[::-1], rtol=0)

    def test_no_plot_files_on_failure(self, capsys, ucb_csv, tmp_path, monkeypatch):
        prefix = str(tmp_path / "out")
        code, _, _ = run(
            capsys, ["spectrum", ucb_csv, "--orders", "junk", "--plot-data", prefix]
        )
        assert code == 2
        assert not list(tmp_path.glob("out_*"))

        # a write that fails at the rename leaves neither file nor temp file
        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        code, _, _ = run(
            capsys, ["spectrum", ucb_csv, "--orders", "named", "--plot-data", prefix]
        )
        assert code == 1
        assert not list(tmp_path.glob("out_*"))
        assert not list(tmp_path.glob(".srenyi-tmp-*"))


class TestDivergenceCommand:
    def test_self_divergence_is_zero(self, capsys, ucb_csv):
        code, out, _ = run(capsys, ["divergence", ucb_csv, ucb_csv, "--orders", "named"])
        assert code == 0
        _, data = parse_csv_table(out)
        assert all(abs(float(row[1])) <= 1e-12 for row in data)

    def test_uniform_reference_emits_check_column(self, capsys, ucb_csv, uniform_csv):
        code, out, _ = run(
            capsys, ["divergence", ucb_csv, uniform_csv, "--orders", "named"]
        )
        assert code == 0
        header, data = parse_csv_table(out)
        assert header == ["order", "divergence", "uniform_check"]
        for row in data:
            assert_allclose(float(row[2]), float(row[1]), rtol=1e-9)

    def test_nonuniform_reference_has_no_check_column(self, capsys, ucb_csv, tmp_path):
        q = tmp_path / "q.csv"
        q.write_text("".join(f"{l},{w}\n" for l, w in zip(UCB_LABELS, range(1, 7))))
        _, out, _ = run(capsys, ["divergence", ucb_csv, str(q), "--orders", "named"])
        header, _ = parse_csv_table(out)
        assert header == ["order", "divergence"]

    def test_support_violation_exit_4(self, capsys, ucb_csv, tmp_path):
        q = tmp_path / "q.csv"
        rows = [f"{l},{0 if l == 'C' else 5}\n" for l in UCB_LABELS]
        q.write_text("".join(rows))
        code, _, err = run(capsys, ["divergence", ucb_csv, str(q)])
        assert code == 4
        assert "C" in err

    def test_label_mismatch_exit_4(self, capsys, ucb_csv, tmp_path):
        q = tmp_path / "q.csv"
        q.write_text("X,1\nY,2\n")
        code, _, _ = run(capsys, ["divergence", ucb_csv, str(q)])
        assert code == 4

    def test_json_format(self, capsys, ucb_csv, uniform_csv):
        _, out, _ = run(
            capsys,
            ["divergence", ucb_csv, uniform_csv, "--orders", "named", "--format", "json"],
        )
        payload = json.loads(out)
        assert payload["kind"] == "divergence"
        assert payload["uniform_reference"] is True
        assert payload["rows"][0]["order"] == "-inf"

    def test_aligns_labels_once(self, capsys, monkeypatch, ucb_csv, tmp_path):
        calls = []
        original = srenyi.info.aligned_weights

        def counting(p, q):
            calls.append(1)
            return original(p, q)

        for module in (srenyi.info, srenyi.measures):
            monkeypatch.setattr(module, "aligned_weights", counting)
        q = tmp_path / "q.csv"
        q.write_text(
            "".join(f"{l},{w}\n" for l, w in zip(reversed(UCB_LABELS), range(1, 7)))
        )
        code, out, _ = run(capsys, ["divergence", ucb_csv, str(q)])
        assert code == 0
        assert len(calls) == 1
        _, data = parse_csv_table(out)
        assert len(data) == 105
        p_measure, q_measure = read_measure(ucb_csv), read_measure(str(q))
        for order, div in data:
            expected = srenyi.shifted_divergence(p_measure, q_measure, float(order))
            assert float(div) == expected.value

    @pytest.mark.parametrize(
        "q_rows, orders",
        [
            (None, None),
            # p/q holds both 0 and inf, on a grid without order 0
            ({"a": "1e-310", "b": "1e300", "c": "1"}, "-inf,-3,-1e-4,1e-3,0.5,40,inf"),
        ],
    )
    def test_one_kernel_call_per_column(
        self, capsys, monkeypatch, tmp_path, uniform_csv, q_rows, orders
    ):
        """Each column is one kernel call over the grid's finite orders, made
        by the table builder in ``srenyi.spectrum`` (the +-inf rows take no
        pass), and every value is bitwise what the one-order call at its row
        gives."""
        if q_rows is None:
            p_path, q_path = tmp_path / "ucb.csv", uniform_csv
            p_path.write_text("".join(f"{l},{c}\n" for l, c in zip(UCB_LABELS, UCB_COUNTS)))
        else:
            p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
            p_path.write_text("a,1e10\nb,1e-300\nc,1\n")
            q_path.write_text("".join(f"{l},{w}\n" for l, w in q_rows.items()))
        calls, tables = [], []
        for name in ("_log_moments", "_log_mean_slope"):
            kernel = getattr(srenyi.spectrum, name)

            def counting(s, rs, kernel=kernel):
                calls.append(len(rs))
                return kernel(s, rs)

            monkeypatch.setattr(srenyi.spectrum, name, counting)
        monkeypatch.setattr(srenyi.cli, "_write_table", lambda *args: tables.append(args))
        argv = ["divergence", str(p_path), str(q_path), "--base", "e"]
        assert run(capsys, argv + ([f"--orders={orders}"] if orders else []))[0] == 0
        (_, _, meta, header, rows), = tables
        grid = srenyi.cli.parse_orders(orders)
        assert calls == [len(grid.finite_orders)] * (len(header) - 1)
        p, q = read_measure(str(p_path)), read_measure(str(q_path))
        support = srenyi.info._divergence_support(p, q)
        own = srenyi.means._LogSupport(p.weights, p.weights)
        check = math.log(len(q)) - math.log(q.total)
        for row, r in zip(rows, grid.orders(), strict=True):
            assert row[:2] == (r, support.log_mean(r))
            if meta["uniform_reference"]:
                assert row[2] == check + own.log_mean(r)

    def test_falling_column_exits_3(self, capsys, monkeypatch, ucb_csv, tmp_path):
        """The divergence column passes the spectrum's laws: a column that
        falls from one order to the next is never printed."""
        kernel = srenyi.spectrum._log_moments

        def falling(s, rs):
            log_mean, escort_mean = kernel(s, rs)
            log_mean[60] = log_mean[59] - 1e-9
            return log_mean, escort_mean

        monkeypatch.setattr(srenyi.spectrum, "_log_moments", falling)
        q = tmp_path / "q.csv"
        q.write_text("".join(f"{l},{w}\n" for l, w in zip(UCB_LABELS, range(1, 7))))
        code, out, err = run(capsys, ["divergence", ucb_csv, str(q)])
        grid = srenyi.cli.parse_orders(None).finite_orders
        assert (code, out) == (3, "")
        assert f"from order {grid[59]} to {grid[60]}" in err

    @pytest.mark.parametrize("reference", ["uniform", "skewed"])
    def test_takes_no_slope(self, capsys, monkeypatch, ucb_csv, uniform_csv, tmp_path, reference):
        """Neither the divergence column nor the spectrum of p behind
        uniform_check prints a slope, so neither takes one."""
        kernel, calls = srenyi.spectrum._log_mean_slope, []

        def counting(s, rs):
            calls.append(len(rs))
            return kernel(s, rs)

        monkeypatch.setattr(srenyi.spectrum, "_log_mean_slope", counting)
        q = uniform_csv
        if reference == "skewed":
            q = tmp_path / "q.csv"
            q.write_text("".join(f"{l},{w}\n" for l, w in zip(UCB_LABELS, range(1, 7))))
        code, out, _ = run(capsys, ["divergence", ucb_csv, str(q)])
        assert code == 0
        assert out.startswith(f"# base=2.0\n# uniform_reference={str(reference == 'uniform').lower()}\n")
        assert calls == []

    @pytest.mark.parametrize(
        "q_rows, message",
        [
            (
                "".join(f"y{i},1\n" for i in range(10_000)),
                "label sets differ (only in first: ['x0', 'x1', 'x10', 'x100', 'x1000', ...] "
                "(10001 labels), only in second: ['y0', 'y1', 'y10', 'y100', 'y1000', ...] "
                "(10000 labels))",
            ),
            (
                "".join(f"x{i},0\n" for i in range(10_000)) + "z,1\n",
                "second measure is zero on labels ['x0', 'x1', 'x10', 'x100', 'x1000', ...] "
                "(10000 labels) where the first is positive",
            ),
        ],
        ids=["disjoint_labels", "zero_q"],
    )
    def test_many_bad_labels_make_one_short_error_line(self, capsys, tmp_path, q_rows, message):
        """A divergence that fails on 10**4 labels names the first five of
        them and their count: stderr is one line under 1 KB."""
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text("".join(f"x{i},1\n" for i in range(10_000)) + "z,1\n")
        q.write_text(q_rows)
        code, out, err = run(capsys, ["divergence", str(p), str(q)])
        assert (code, out) == (4, "")
        assert err == f"srenyi: error: {message}\n"
        assert len(err.encode()) < 1024

    def test_ratio_past_the_doubles(self, capsys, tmp_path):
        """p/q overflows to inf on "a", so at r < 0 the mean passes the
        largest double while ln M_r does not: the column passes and prints
        the values of 800-digit decimal, which the ratio rounded to inf
        missed (1107.309 bits at r = -0.03 and inf at r = 0.5)."""
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text("a,1e10\nb,1\n")
        q.write_text("a,1e-310\nb,1\n")
        code, out, _ = run(capsys, ["divergence", str(p), str(q), "--orders=-1,-0.03,0.5"])
        assert code == 0
        _, data = parse_csv_table(out)
        p_measure, q_measure = read_measure(str(p)), read_measure(str(q))
        for order, div in data:
            expected = srenyi.shifted_divergence(p_measure, q_measure, float(order))
            assert float(div) == expected.value
        assert [float(div) for _, div in data] == pytest.approx(
            [33.21928094901789, 1046.9011585905755, 1063.0169903636674], rel=1e-14
        )

    def test_overflowing_ratio_prints_finite_rows(self, tmp_path):
        # p/q overflows to inf on "a" and underflows to 0 on "b", yet every
        # D_r is finite (D_0 is 1063.017 bits), as the logs of the ratio
        # are; numpy must not warn on the way there
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text("a,1e10\nb,1e-300\nc,1\n")
        q.write_text("a,1e-310\nb,1e300\nc,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "srenyi", "divergence", str(p), str(q)],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        _, data = parse_csv_table(proc.stdout)
        assert len(data) == len(srenyi.OrderGrid.default())
        assert all(math.isfinite(float(div)) for _, div in data)


@pytest.mark.parametrize(
    "argv", [["spectrum"], ["invert", "--all"], ["invert", "--target", "0.5"]]
)
def test_overflowing_total_prints_one_error_line(tmp_path, argv):
    # both weights are finite, their total is not; numpy must not warn
    path = tmp_path / "huge.csv"
    path.write_text("a,1e308\nb,1e308\n")
    proc = subprocess.run(
        [sys.executable, "-m", "srenyi", argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "srenyi: error: total weight must be finite\n"


class TestInvertCommand:
    def test_single_target(self, capsys, uniform_csv):
        code, out, _ = run(
            capsys, ["invert", uniform_csv, "--target", str(1 / 6)]
        )
        assert code == 0
        header, data = parse_csv_table(out)
        assert header == ["target", "order", "probability"]
        assert data[0][1] == "0.0"

    def test_all_rows(self, capsys, ucb_csv):
        """One row per college in increasing probability, the extremes at
        -inf and inf; the bytes are pinned, and each probability is the
        college's share of the counts."""
        code, out, _ = run(capsys, ["invert", ucb_csv, "--all"])
        assert (code, out) == (
            0,
            "labels,order,probability\n"
            "E,-inf,0.12903225806451613\n"
            "B,-1115.9790356510896,0.12925320371058338\n"
            "F,-4.098398053970649,0.1577551922227125\n"
            "D,1.9181228192351303,0.17498895271841508\n"
            "C,83.44758994213704,0.20282810428827888\n"
            "A,inf,0.20614228899690676\n",
        )
        _, data = parse_csv_table(out)
        expected = sorted(c / sum(UCB_COUNTS) for c in UCB_COUNTS)
        assert_allclose([float(r[2]) for r in data], expected, atol=1e-8)

    def test_tied_labels_are_quoted_csv(self, capsys, tmp_path):
        path = tmp_path / "tied.csv"
        path.write_text("a,1\nb,3\nc,1\n")
        _, out, _ = run(capsys, ["invert", str(path), "--all"])
        header, data = parse_csv_table(out)
        assert data[0][0] == "a,c"  # the csv module must round-trip the comma

    def test_out_of_range_exit_5(self, capsys, ucb_csv):
        code, _, err = run(capsys, ["invert", ucb_csv, "--target", "0.99"])
        assert code == 5
        code, _, _ = run(capsys, ["invert", ucb_csv, "--target", "0.001"])
        assert code == 5

    def test_bad_tol_exit_2(self, capsys, ucb_csv):
        code, _, _ = run(capsys, ["invert", ucb_csv, "--target", "0.2", "--tol", "-1"])
        assert code == 2

    def test_nan_target_exit_2(self, capsys, ucb_csv):
        code, out, err = run(capsys, ["invert", ucb_csv, "--target", "nan"])
        assert (code, out) == (2, "")
        assert "--target" in err

    @pytest.mark.parametrize(
        "target, line",
        [
            ("0.2", "0.2,38.09700087504878,0.2000000000000003"),
            ("0.14", "0.14,-16.4226468234799,0.14000000000000007"),
            ("0.2061", "0.2061,7697.136122933428,0.2061"),
            ("0.1291", "0.1291,-3898.973337594488,0.12909999999986785"),
            ("0.20614228899690676", "0.20614228899690676,inf,0.20614228899690676"),
        ],
    )
    def test_target_row_costs_one_inversion(self, capsys, monkeypatch, ucb_csv, target, line):
        """The row's probability is the one the solver attained: the command
        makes exactly the kernel calls of ``invert_probability``, and its
        bytes are those of evaluating pi again at the returned order."""
        kernel, calls = srenyi.means._log_moments, []

        def counting(s, rs, escort=False):
            calls.append(np.array(rs, dtype=float).tolist())
            return kernel(s, rs, escort)

        monkeypatch.setattr(srenyi.means, "_log_moments", counting)
        code, out, _ = run(capsys, ["invert", ucb_csv, "--target", target])
        assert (code, out) == (0, f"target,order,probability\n{line}\n")
        cli_calls = calls[:]
        calls.clear()
        srenyi.invert_probability(read_measure(ucb_csv), float(target), tol=1e-9)
        assert cli_calls == calls

    def test_json_format(self, capsys, ucb_csv):
        _, out, _ = run(capsys, ["invert", ucb_csv, "--all", "--format", "json"])
        payload = json.loads(out)
        assert payload["kind"] == "invert"
        assert payload["rows"][0]["order"] == "-inf"

    def test_target_and_all_are_exclusive(self, capsys, ucb_csv):
        with pytest.raises(SystemExit):
            main(["invert", ucb_csv, "--target", "0.2", "--all"])
        with pytest.raises(SystemExit):
            main(["invert", ucb_csv])


def csv_cell(value):
    """A decoded JSON value as the CSV writer renders the same cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


PARITY_CASES = {
    "spectrum": (
        ["spectrum", "{ucb}", "--orders", "named"],
        ["# n=6", "# total_mass=4526.0", "# base=2.0", "# normalized=false"],
    ),
    "spectrum-normalized": (
        ["spectrum", "{ucb}", "--orders", "named", "--normalize", "--base", "e"],
        ["# n=6", "# total_mass=1.0", f"# base={math.e!r}", "# normalized=true"],
    ),
    "divergence-uniform": (
        ["divergence", "{ucb}", "{uniform}", "--orders", "named"],
        ["# base=2.0", "# uniform_reference=true"],
    ),
    "divergence-shuffled": (
        ["divergence", "{ucb}", "{shuffled}", "--orders", "named"],
        ["# base=2.0", "# uniform_reference=false"],
    ),
    "invert-all": (["invert", "{ucb}", "--all"], []),
    "invert-target": (["invert", "{ucb}", "--target", "0.2"], []),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_csv_and_json_output_parity(capsys, case, ucb_csv, uniform_csv, tmp_path):
    shuffled = tmp_path / "shuffled.csv"
    weights = zip(reversed(UCB_LABELS), (5, 1, 2, 9, 3, 4))
    shuffled.write_text("".join(f"{l},{w}\n" for l, w in weights))
    template, meta_lines = PARITY_CASES[case]
    argv = [
        a.format(ucb=ucb_csv, uniform=uniform_csv, shuffled=shuffled)
        for a in template
    ]
    code, out_csv, _ = run(capsys, argv)
    assert code == 0
    code, out_json, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0

    lines = out_csv.splitlines()
    assert lines[: len(meta_lines)] == meta_lines
    assert not lines[len(meta_lines)].startswith("#")
    header, data = parse_csv_table(out_csv)
    payload = json.loads(out_json)
    assert payload.pop("kind") == argv[0]
    rows = payload.pop("rows")
    assert [f"# {k}={csv_cell(v)}" for k, v in payload.items()] == meta_lines
    assert len(rows) == len(data) > 0
    for obj, cells in zip(rows, data):
        assert list(obj) == header
        assert [csv_cell(v) for v in obj.values()] == cells


def test_slope_through_zero(capsys, ucb_csv):
    """The derivative column near r = 0 follows -(k2/2 + r k3/3) / ln 2,
    the Taylor form from the moments of ln p, with no seam."""
    code, out, _ = run(capsys, ["spectrum", ucb_csv, "--orders=-1e-6:1e-6:5"])
    assert code == 0
    header, data = parse_csv_table(out)
    orders = [float(row[0]) for row in data]
    assert_allclose(orders, [-1e-6, -5e-7, 0.0, 5e-7, 1e-6], rtol=1e-15, atol=0)
    p = np.array(UCB_COUNTS, dtype=float) / sum(UCB_COUNTS)
    d = np.log(p) - np.sum(p * np.log(p))
    k2, k3 = np.sum(p * d**2), np.sum(p * d**3)
    for r, row in zip(orders, data):
        expected = -(k2 / 2 + r * k3 / 3) / math.log(2.0)
        assert_allclose(float(row[header.index("derivative")]), expected, rtol=1e-9)


@pytest.mark.parametrize("command", ["spectrum", "divergence-uniform", "divergence-skewed"])
def test_prints_columns_without_building_rows(
    capsys, monkeypatch, tmp_path, ucb_csv, uniform_csv, command
):
    """The commands print the builder's columns: no ``SpectrumRow`` or
    ``EntropyValue`` is made, while ``sample_spectrum`` makes one of each
    per order."""
    built = []
    for cls in (srenyi.SpectrumRow, srenyi.EntropyValue):

        def counting(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    skewed = tmp_path / "q.csv"
    skewed.write_text("".join(f"{l},{w}\n" for l, w in zip(UCB_LABELS, range(1, 7))))
    argv = {
        "spectrum": ["spectrum", ucb_csv, "--plot-data", str(tmp_path / "ucb")],
        "divergence-uniform": ["divergence", ucb_csv, uniform_csv],
        "divergence-skewed": ["divergence", ucb_csv, str(skewed)],
    }[command]
    assert run(capsys, argv)[0] == 0
    assert built == []
    srenyi.sample_spectrum(read_measure(ucb_csv), srenyi.OrderGrid.named())
    assert sorted(built) == ["EntropyValue"] * 5 + ["SpectrumRow"] * 5


@pytest.mark.parametrize("base", ["e", "2"])
@pytest.mark.parametrize("measure", ["ucb", "random"])
def test_spectrum_cells_are_the_table_fields(capsys, tmp_path, ucb_csv, measure, base):
    """Each CSV cell of ``srenyi spectrum`` is the repr of the matching field
    of ``sample_spectrum``'s row (empty for None)."""
    path = ucb_csv
    if measure == "random":
        w = 10.0 ** np.random.default_rng(11).uniform(-6.0, 3.0, 40)
        path = tmp_path / "random.csv"
        path.write_text("".join(f"x{i},{v!r}\n" for i, v in enumerate(w.tolist())))
    code, out, _ = run(capsys, ["spectrum", str(path), "--base", base])
    assert code == 0
    header, data = parse_csv_table(out)
    table = srenyi.sample_spectrum(
        read_measure(str(path)), srenyi.OrderGrid.default(), srenyi.cli.resolve_base(base)
    )
    assert header == ["order", "entropy", "equiv_prob", "potential", "derivative"]
    assert len(data) == len(table.rows) == 105
    for cells, row in zip(data, table.rows):
        fields = (row.order, row.entropy.value, row.equiv_prob, row.potential, row.derivative)
        assert cells == ["" if f is None else repr(f) for f in fields]


def child_env():
    """Environment for a child interpreter that imports the srenyi under test."""
    package_dir = str(Path(srenyi.__file__).resolve().parents[1])
    env = dict(os.environ)
    paths = [package_dir, env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def test_spectrum_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Stdout, the derivative column included, is the same at one and at two
    BLAS threads on 2 * 10**4 weights, whose escort dot products are long
    enough for OpenBLAS to split across threads."""
    w = 10.0 ** (-12.0 * np.random.default_rng(1).random(2 * 10**4))
    path = tmp_path / "wide.csv"
    path.write_text("".join(f"x{i},{v!r}\n" for i, v in enumerate(w.tolist())))
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "srenyi", "spectrum", str(path)],
            capture_output=True,
            timeout=60,
            env={**child_env(), "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def traced_spectrum_peak(capsys, path, *flags):
    """The ``tracemalloc`` peak of ``main(["spectrum", path, *flags])``,
    which must succeed."""
    return traced_peak(capsys, ["spectrum", str(path), *flags])


def traced_peak(capsys, argv):
    """The ``tracemalloc`` peak of ``main(argv)``, which must succeed."""
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    return peak


@pytest.fixture
def large_csv(tmp_path):
    w = 1.0 - np.random.default_rng(41).random(10**5)
    path = tmp_path / "large.csv"
    path.write_text("".join(f"x{i},{v!r}\n" for i, v in enumerate((w / w.sum()).tolist())))
    return path


def test_spectrum_peak_memory(capsys, large_csv):
    """The traced peak of a spectrum of 10**5 weights stays under 7 MB.
    The reader keeps no label string past its block, only the label hashes
    and the joined text and lengths of the labels, and ``_kl_slope`` forms
    its terms a chunk at a time; the peak, ≈ 5.1 MB on Python 3.11, is then
    the kernel's: the log-support, the weights and one array of terms.
    Labels kept until the file was read made it ≈ 9.9 MB, and a label set
    and labels kept through the kernel ≈ 16 MB."""
    assert traced_spectrum_peak(capsys, large_csv) < 7e6


def test_normalized_spectrum_peak_memory(capsys, large_csv):
    """``--normalize`` divides the weights without building a measure, and
    stays under the same 7 MB (≈ 10.6 MB when it built a ``Distribution``)."""
    assert traced_spectrum_peak(capsys, large_csv, "--normalize") < 7e6


@pytest.mark.parametrize("flags", [[], ["--normalize"]], ids=["plain", "normalized"])
def test_spectrum_reads_a_pipe(capsys, ucb_csv, flags):
    """``srenyi spectrum /dev/stdin`` reads a pipe once and prints what it
    prints for the file."""
    proc = subprocess.run(
        [sys.executable, "-m", "srenyi", "spectrum", "/dev/stdin", *flags],
        input=Path(ucb_csv).read_bytes(),
        capture_output=True,
        timeout=60,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == run(capsys, ["spectrum", ucb_csv, *flags])[1]


def test_repeated_label_in_a_pipe_is_named():
    """Uniqueness is proved from the label hashes of one read: a pipe of
    10**5 rows whose last label repeats the first cannot be read again, and
    the repeated label is still named."""
    rows = "".join(f"x{i},1\n" for i in range(99_999)) + "x0,1\n"
    proc = subprocess.run(
        [sys.executable, "-m", "srenyi", "spectrum", "/dev/stdin"],
        input=rows.encode(),
        capture_output=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"srenyi: error: duplicate labels: ['x0']\n"


@pytest.mark.parametrize("flags", [[], ["--normalize"]], ids=["plain", "normalized"])
def test_colliding_label_hashes(capsys, monkeypatch, tmp_path, flags):
    """With every label hash equal, ``srenyi spectrum`` rebuilds the labels
    from their record and builds the measure: distinct labels print the
    bytes they print without the collision, and repeated ones are named."""
    distinct, repeated = tmp_path / "distinct.csv", tmp_path / "repeated.csv"
    distinct.write_text(
        'label,weight\n"a,b",1\n"x\ny",2\n\u00e9 ,3\n'
        + "".join(f"x{i},{i}\n" for i in range(2000))
    )
    repeated.write_text("a,1\nb,2\n\u00e9,3\n\u00e9,4\na,5\n")
    expected = run(capsys, ["spectrum", str(distinct), *flags])
    assert expected[0] == 0
    monkeypatch.setattr(srenyi.measures, "hash", lambda label: 0, raising=False)
    assert run(capsys, ["spectrum", str(distinct), *flags]) == expected
    assert run(capsys, ["spectrum", str(repeated), *flags]) == (
        1,
        "",
        "srenyi: error: duplicate labels: ['a', '\u00e9']\n",
    )


def test_normalized_spectrum_keeps_the_distribution_rule(capsys, monkeypatch, ucb_csv):
    """``--normalize`` builds no ``Distribution`` but checks its rule, the
    same ``NORMALIZATION_TOL``, with the same message."""
    monkeypatch.setattr(srenyi.measures, "NORMALIZATION_TOL", -1.0)
    with pytest.raises(ValueError) as exc:
        srenyi.normalize(read_measure(ucb_csv))
    assert run(capsys, ["spectrum", ucb_csv, "--normalize"]) == (
        1,
        "",
        f"srenyi: error: {exc.value}\n",
    )


def test_bad_utf8_in_a_pipe_names_no_offset(tmp_path):
    """An invalid UTF-8 byte past the decoder's first chunk is reported
    with its offset in the file when the input is a file, also one given
    as /dev/stdin, and with none when it is a pipe, which cannot be read
    again for the offset."""
    data = EDGE_CORPUS["bad_utf8_past_first_chunk"]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    argv = [sys.executable, "-m", "srenyi", "spectrum", "/dev/stdin"]
    with open(path, "rb") as fh:
        from_file = subprocess.run(
            argv, stdin=fh, capture_output=True, text=True, timeout=60, env=child_env()
        )
    from_pipe = subprocess.run(
        argv, input=data, capture_output=True, timeout=60, env=child_env()
    )
    offset = data.index(b"\xff")
    assert (from_file.returncode, from_file.stdout) == (1, "")
    assert from_file.stderr == (
        f"srenyi: error: /dev/stdin: not valid UTF-8 (byte {offset}: invalid start byte)\n"
    )
    assert (from_pipe.returncode, from_pipe.stdout) == (1, b"")
    assert from_pipe.stderr == (
        b"srenyi: error: /dev/stdin: not valid UTF-8 (invalid start byte)\n"
    )


@pytest.mark.parametrize(
    "argv, built",
    [(["--target", "0.2"], []), (["--all"], ["MassMeasure"])],
    ids=["target", "all"],
)
def test_invert_target_builds_no_measure(capsys, monkeypatch, ucb_csv, argv, built):
    """``invert --target`` prints no label and reads the weights alone;
    ``--all``, whose rows name labels, builds the one measure it reads."""
    made, init = [], MassMeasure.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MassMeasure, "__init__", counting)
    assert run(capsys, ["invert", ucb_csv, *argv])[0] == 0
    assert made == built


def test_invert_target_peak_memory(capsys, large_csv):
    """``invert --target`` on 10**5 weights keeps no label string: its
    traced peak stays under 7 MB (≈ 10.7 MB when it read a measure)."""
    assert traced_peak(capsys, ["invert", str(large_csv), "--target", "1e-5"]) < 7e6


def test_invert_target_colliding_label_hashes(capsys, monkeypatch, tmp_path):
    """With every label hash equal, ``invert --target`` rebuilds the labels
    from their record: distinct labels print the bytes they print without
    the collision, and repeated ones are named."""
    distinct, repeated = tmp_path / "distinct.csv", tmp_path / "repeated.csv"
    distinct.write_text(
        'label,weight\n"a,b",1\n"x\ny",2\n\u00e9 ,3\n'
        + "".join(f"x{i},{i}\n" for i in range(2000))
    )
    repeated.write_text("a,1\nb,2\n\u00e9,3\n\u00e9,4\na,5\n")
    argv = ["invert", str(distinct), "--target", "5e-4"]
    expected = run(capsys, argv)
    assert expected[0] == 0
    monkeypatch.setattr(srenyi.measures, "hash", lambda label: 0, raising=False)
    assert run(capsys, argv) == expected
    assert run(capsys, ["invert", str(repeated), "--target", "0.2"]) == (
        1,
        "",
        "srenyi: error: duplicate labels: ['a', '\u00e9']\n",
    )


def test_repeated_label_in_a_pipe_is_named_by_invert_target():
    """``invert --target`` reads a pipe once, and a last label of 10**5
    that repeats the first is still named."""
    rows = "".join(f"x{i},1\n" for i in range(99_999)) + "x0,1\n"
    proc = subprocess.run(
        [sys.executable, "-m", "srenyi", "invert", "/dev/stdin", "--target", "1e-5"],
        input=rows.encode(),
        capture_output=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"srenyi: error: duplicate labels: ['x0']\n"


@pytest.mark.parametrize("name", sorted(EDGE_CORPUS))
def test_edge_corpus_invert_target_matches_read_measure(capsys, monkeypatch, tmp_path, name):
    """``invert --target`` keeps no label but exits with ``read_measure``'s
    first error, or prints what the weights of the measure it reads give."""
    path = tmp_path / f"{name}.csv"
    path.write_bytes(EDGE_CORPUS[name])
    argv = ["invert", str(path), "--target", "0.5"]
    try:
        measure = read_measure(str(path))
    except ValueError as exc:
        expected = (1, "", f"srenyi: error: {exc}\n")
    else:
        with monkeypatch.context() as mp:
            mp.setattr(srenyi.cli, "_read_weights", lambda _: measure.weights)
            expected = run(capsys, argv)
    assert run(capsys, argv) == expected


def test_import_leaves_scipy_out():
    code = "import sys, srenyi.cli; sys.exit(int('scipy' in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr


def test_scipy_not_declared():
    tomllib = pytest.importorskip("tomllib")
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert not [dep for dep in project["dependencies"] if dep.startswith("scipy")]


def test_main_does_not_freeze_the_heap(capsys, ucb_csv):
    """Only the process entry point freezes; main() runs in its caller's
    process, whose heap stays collectable."""
    frozen = gc.get_freeze_count()
    assert run(capsys, ["spectrum", ucb_csv, "--orders", "named"])[0] == 0
    assert run(capsys, ["spectrum", ucb_csv, "--orders", "nope"])[0] == 2
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["spectrum", "{bad}"], 1, "{bad}: expected 'label,weight' rows, got 3 cells: ['a', '1', '9']"),
        (
            ["spectrum", "{ucb}", "--orders", "1,2,nope"],
            2,
            "invalid --orders value '1,2,nope': could not convert string to float: 'nope'",
        ),
        (
            ["invert", "{ucb}", "--target", "0.99"],
            5,
            "target 0.99 outside the attainable range "
            "[0.12903225806451613, 0.20614228899690676]",
        ),
    ],
    ids=["malformed_file", "bad_orders", "target_out_of_range"],
)
def test_entry_point_keeps_exit_code_and_error_line(tmp_path, ucb_csv, argv, code, message):
    """``python -m srenyi``, which freezes the heap before it exits, keeps
    main()'s exit code, empty stdout and its one error line."""
    bad = tmp_path / "bad.csv"
    bad.write_text("a,1,9\nb,2\n")
    paths = {"bad": str(bad), "ucb": ucb_csv}
    proc = subprocess.run(
        [sys.executable, "-m", "srenyi", *(a.format(**paths) for a in argv)],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == f"srenyi: error: {message.format(**paths)}\n"


def test_entry_point_freezes_before_atexit(ucb_csv):
    """The entry point freezes the heap after main() and then exits as
    before: atexit handlers run and see the frozen heap, and stdout is
    flushed."""
    code = (
        "import atexit, gc, sys, srenyi.cli; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
        f"sys.argv = ['srenyi', 'spectrum', {ucb_csv!r}, '--orders', 'named']; "
        "srenyi.cli.run()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=child_env()
    )
    assert (proc.returncode, proc.stderr) == (0, "frozen True\n")
    assert proc.stdout.startswith("# n=6") and proc.stdout.endswith("\n")


def test_subprocess_entrypoint(ucb_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "srenyi", "spectrum", ucb_csv, "--orders", "named"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# n=6")
