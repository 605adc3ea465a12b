"""End-to-end exercises of the command line interface.

Everything drives ``main(argv)`` in-process (stdout captured by pytest) so
exit codes and byte-level output determinism can be asserted exactly;  one
final test goes through a real subprocess.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import srenyi
from srenyi.cli import main

from support import UCB_COUNTS, UCB_LABELS

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

    def test_order_snapping(self, capsys, ucb_csv):
        """Orders within 1e-12 of zero are snapped to the exact geometric
        branch at the CLI boundary."""
        _, out, _ = run(
            capsys, ["spectrum", ucb_csv, "--orders", "1e-13", "--normalize"]
        )
        _, data = parse_csv_table(out)
        assert data[0][0] == "0.0"
        assert_allclose(float(data[0][1]), 2.5595380704534317, rtol=1e-12)

    def test_range_orders(self, capsys, ucb_csv):
        code, out, _ = run(capsys, ["spectrum", ucb_csv, "--orders=-2:2:5"])
        assert code == 0
        _, data = parse_csv_table(out)
        assert [row[0] for row in data] == ["-2.0", "-1.0", "0.0", "1.0", "2.0"]

    def test_invalid_orders_exit_2(self, capsys, ucb_csv):
        for bad in ("1,2,nope", "", "1:2", "1:2:0", ":", "nan"):
            code, _, err = run(capsys, ["spectrum", ucb_csv, "--orders", bad])
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

    def test_no_plot_files_on_failure(self, capsys, ucb_csv, tmp_path):
        prefix = str(tmp_path / "out")
        code, _, _ = run(
            capsys, ["spectrum", ucb_csv, "--orders", "junk", "--plot-data", prefix]
        )
        assert code == 2
        assert not list(tmp_path.glob("out_*"))


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
        code, out, _ = run(capsys, ["invert", ucb_csv, "--all"])
        assert code == 0
        header, data = parse_csv_table(out)
        assert header == ["labels", "order", "probability"]
        assert len(data) == 6
        assert data[0][0] == "E" and data[0][1] == "-inf"
        assert data[-1][0] == "A" and data[-1][1] == "inf"
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


def child_env():
    """Environment for a child interpreter that imports the srenyi under test."""
    package_dir = str(Path(srenyi.__file__).resolve().parents[1])
    env = dict(os.environ)
    paths = [package_dir, env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


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
