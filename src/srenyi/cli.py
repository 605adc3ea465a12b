"""Command line interface.

Three subcommands over labeled weight files:

* ``spectrum``   entropy / equivalent probability / potential / slope table
* ``divergence`` order-by-order divergence between two measures
* ``invert``     find the order that attains a given probability

Input files are CSV (``label,weight`` rows, optional header, ``#`` comments)
or JSON (array of ``{"label": ..., "weight": ...}``); the format is sniffed
from the extension or the first character, and both parse to identical
doubles, so the two encodings of the same data produce byte-identical
output.  Tables go to stdout; ``--plot-data`` additionally writes
two-column ``.dat`` files, atomically (write to a temp file in the target
directory, then rename).

Exit codes are stable: 0 success, 1 malformed or unreadable input, 2
invalid orders or options, 3 numeric failure, 4 support violation, 5
target probability out of range.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DiscontinuityError,
    DivergentEscortError,
    LabelMismatchError,
    SpectrumConsistencyError,
    SupportViolationError,
    TargetOutOfRangeError,
)
from .info import equivalent_probability, shifted_divergence, shifted_entropy
from .measures import MassMeasure, normalize
from .spectrum import (
    OrderGrid,
    invert_probability,
    recover_distribution_probe,
    sample_spectrum,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_BAD_ORDERS = 2
EXIT_NUMERIC = 3
EXIT_SUPPORT = 4
EXIT_TARGET_RANGE = 5

ORDER_SNAP_EPS = 1e-12
BASE_ENV_VAR = "RENYI_BASE"


class OptionError(ValueError):
    """A flag or the orders string could not be interpreted."""


# ---------------------------------------------------------------- input


def read_measure(path: str) -> MassMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty input file")
    if path.lower().endswith(".json") or stripped[0] in "[{":
        return _measure_from_json(path, text)
    return _measure_from_csv(path, text)


def _measure_from_json(path: str, text: str) -> MassMeasure:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty JSON array of records")
    labels, weights = [], []
    for i, record in enumerate(data):
        if (
            not isinstance(record, dict)
            or "label" not in record
            or "weight" not in record
        ):
            raise ValueError(
                f"{path}: record {i} must be an object with 'label' and 'weight'"
            )
        weight = record["weight"]
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError(f"{path}: record {i}: weight must be a number")
        labels.append(str(record["label"]))
        weights.append(float(weight))
    return MassMeasure(tuple(labels), np.array(weights))


def _measure_from_csv(path: str, text: str) -> MassMeasure:
    labels, weights = [], []
    for row in csv.reader(io.StringIO(text)):
        if not row or not "".join(row).strip():
            continue
        if row[0].lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in row]
        if (
            not labels
            and len(cells) == 2
            and cells[0].lower() == "label"
            and cells[1].lower() == "weight"
        ):
            continue
        if len(cells) != 2:
            raise ValueError(
                f"{path}: expected 'label,weight' rows, got {len(cells)} cells: {row}"
            )
        try:
            weight = float(cells[1])
        except ValueError as exc:
            raise ValueError(f"{path}: weight {cells[1]!r} is not a number") from exc
        labels.append(cells[0])
        weights.append(weight)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return MassMeasure(tuple(labels), np.array(weights))


# ---------------------------------------------------------------- options


def parse_orders(text: str | None) -> OrderGrid:
    """Grid from an ``--orders`` value.

    ``None`` gives the default plotting grid, ``named`` the five classical
    landmarks, ``a:b:n`` a linear range, and otherwise a comma list of
    numbers where ``inf``/``-inf`` (or ``+inf``) are allowed.  Finite values
    within 1e-12 of zero are snapped to exactly 0 here, at the boundary, so
    the library itself never second-guesses an order.
    """
    if text is None:
        return OrderGrid.default()
    s = text.strip()
    if not s:
        raise OptionError("empty --orders value")
    if s.lower() == "named":
        return OrderGrid.named()
    try:
        if ":" in s:
            parts = s.split(":")
            if len(parts) != 3:
                raise OptionError(f"range form must be start:stop:count, got {s!r}")
            start, stop = float(parts[0]), float(parts[1])
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise OptionError("range endpoints must be finite")
            values = OrderGrid.linear(start, stop, int(parts[2])).orders()
            return OrderGrid.from_values(_snap_zeros(values))
        values = [_parse_order_token(tok) for tok in s.split(",")]
        return OrderGrid.from_values(_snap_zeros(values))
    except OptionError:
        raise
    except ValueError as exc:
        raise OptionError(f"invalid --orders value {text!r}: {exc}") from exc


def _parse_order_token(token: str) -> float:
    t = token.strip().lower()
    if not t:
        raise ValueError("empty order token")
    if t in ("inf", "+inf", "infinity", "+infinity"):
        return math.inf
    if t in ("-inf", "-infinity"):
        return -math.inf
    return float(t)


def _snap_zeros(values) -> list[float]:
    return [
        0.0 if (math.isfinite(v) and abs(v) < ORDER_SNAP_EPS) else float(v)
        for v in (float(v) for v in values)
    ]


def resolve_base(flag_value: str | None) -> float:
    """Flag beats the RENYI_BASE environment variable beats 2."""
    raw = flag_value if flag_value is not None else os.environ.get(BASE_ENV_VAR)
    if raw is None:
        return 2.0
    token = str(raw).strip().lower()
    if token == "e":
        return math.e
    try:
        base = float(token)
    except ValueError as exc:
        raise OptionError(f"invalid base {raw!r}") from exc
    if math.isnan(base) or math.isinf(base) or not base > 1.0:
        raise OptionError(f"base must be a finite number > 1, got {raw!r}")
    return base


# ---------------------------------------------------------------- output


def _jval(value):
    """A JSON value: None, bools, ints and strings as they are, floats as
    numbers, and the infinities, which JSON lacks, as "inf"/"-inf"."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _fmt(value) -> str:
    """A CSV cell: the JSON value of ``value`` as text, with null empty,
    booleans true/false and floats as the shortest round-trip decimal."""
    value = _jval(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_table(fmt: str, kind: str, meta: dict, header: list[str], rows) -> None:
    """Write one result table to stdout; the only place a table is rendered.

    CSV is one ``# key=value`` line per meta entry, the header, then the
    rows, every cell through :func:`_fmt`.  JSON is one object: ``kind``,
    the meta entries, and ``rows``, one object per row keyed by the header,
    every value through :func:`_jval`.  Both come from the same raw cells,
    so the two formats cannot disagree.
    """
    if fmt == "json":
        payload = {
            "kind": kind,
            **{key: _jval(value) for key, value in meta.items()},
            "rows": [
                {key: _jval(value) for key, value in zip(header, row)} for row in rows
            ],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={_fmt(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(value) for value in row] for row in rows)
    sys.stdout.write(buf.getvalue())


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".srenyi-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _plot_file_text(points: list[tuple[float, float]]) -> str:
    """Two whitespace-separated columns, loadable with numpy.loadtxt.

    Infinite orders are clamped to the extreme finite order of the grid and
    annotated with a trailing comment; they are dropped when the grid has no
    finite order at all.
    """
    finite = [order for order, _ in points if math.isfinite(order)]
    lines = []
    for order, value in points:
        if math.isfinite(order):
            lines.append(f"{_fmt(order)} {_fmt(value)}")
        elif finite:
            clamped = max(finite) if order > 0 else min(finite)
            lines.append(
                f"{_fmt(clamped)} {_fmt(value)}  # clamped from order={_fmt(order)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands


def cmd_spectrum(args: argparse.Namespace) -> int:
    grid = parse_orders(args.orders)
    base = resolve_base(args.base)
    measure = read_measure(args.input)
    if args.normalize:
        measure = normalize(measure)
    table = sample_spectrum(measure, grid, base)
    meta = {
        "n": len(measure),
        "total_mass": measure.total,
        "base": base,
        "normalized": bool(args.normalize),
    }
    header = ["order", "entropy", "equiv_prob", "potential", "derivative"]
    rows = [
        (row.order, row.entropy.value, row.equiv_prob, row.potential, row.derivative)
        for row in table.rows
    ]
    _write_table(args.format, "spectrum", meta, header, rows)
    if args.plot_data:
        entropy_points = [(row.order, row.entropy.value) for row in table.rows]
        prob_points = [(row.order, row.equiv_prob) for row in table.rows]
        _atomic_write(f"{args.plot_data}_entropy.dat", _plot_file_text(entropy_points))
        _atomic_write(f"{args.plot_data}_eqprob.dat", _plot_file_text(prob_points))
    return EXIT_OK


def _uniform_reference(q: MassMeasure) -> tuple[bool, int]:
    support = q.weights[q.weights > 0]
    return bool(np.all(support == support[0])), int(support.size)


def cmd_divergence(args: argparse.Namespace) -> int:
    grid = parse_orders(args.orders)
    base = resolve_base(args.base)
    p = read_measure(args.p_input)
    q = read_measure(args.q_input)
    uniform, n_support = _uniform_reference(q)
    header = ["order", "divergence"]
    rows = [(r, shifted_divergence(p, q, r, base).value) for r in grid.orders()]
    if uniform:
        ln_b = math.log(base)
        check_const = math.log(n_support) / ln_b - math.log(q.total) / ln_b
        header.append("uniform_check")
        rows = [
            (r, div, check_const - shifted_entropy(p, r, base).value)
            for r, div in rows
        ]
    meta = {"base": base, "uniform_reference": uniform}
    _write_table(args.format, "divergence", meta, header, rows)
    return EXIT_OK


def cmd_invert(args: argparse.Namespace) -> int:
    measure = read_measure(args.input)
    tol = args.tol
    if not tol > 0:
        raise OptionError(f"--tol must be positive, got {tol}")
    if args.all:
        header = ["labels", "order", "probability"]
        rows = recover_distribution_probe(measure, tol=tol)
    else:
        order = invert_probability(measure, args.target, tol=tol)
        achieved = equivalent_probability(normalize(measure), order)
        header = ["target", "order", "probability"]
        rows = [(args.target, order, achieved)]
    _write_table(args.format, "invert", {}, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srenyi",
        description="Entropy spectra of labeled weight data over a continuum of orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--orders",
            help="comma list (inf/-inf allowed), start:stop:count, or 'named'; "
            "default is a symmetric log-spaced plotting grid",
        )
        p.add_argument(
            "--base",
            help=f"log base (> 1, or 'e'); default ${BASE_ENV_VAR} or 2",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_spec = sub.add_parser("spectrum", help="entropy table of one measure")
    p_spec.add_argument("input", help="CSV or JSON file of label,weight records")
    add_common(p_spec)
    p_spec.add_argument(
        "--normalize",
        action="store_true",
        help="normalize the weights to a probability distribution first",
    )
    p_spec.add_argument(
        "--plot-data",
        metavar="PREFIX",
        help="also write PREFIX_entropy.dat and PREFIX_eqprob.dat",
    )
    p_spec.set_defaults(func=cmd_spectrum)

    p_div = sub.add_parser("divergence", help="divergence between two measures")
    p_div.add_argument("p_input", help="first measure (the 'data' side)")
    p_div.add_argument("q_input", help="second measure (the reference side)")
    add_common(p_div)
    p_div.set_defaults(func=cmd_divergence)

    p_inv = sub.add_parser("invert", help="order attaining a given probability")
    p_inv.add_argument("input", help="CSV or JSON file of label,weight records")
    group = p_inv.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", type=float, help="probability to attain")
    group.add_argument(
        "--all",
        action="store_true",
        help="recover every distinct probability of the normalized measure",
    )
    p_inv.add_argument("--tol", type=float, default=1e-9)
    p_inv.add_argument("--format", choices=("csv", "json"), default="csv")
    p_inv.set_defaults(func=cmd_invert)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TargetOutOfRangeError as exc:
        return _fail(exc, EXIT_TARGET_RANGE)
    except (SupportViolationError, LabelMismatchError) as exc:
        return _fail(exc, EXIT_SUPPORT)
    except (
        DiscontinuityError,
        DivergentEscortError,
        ConvergenceError,
        SpectrumConsistencyError,
        FloatingPointError,
    ) as exc:
        return _fail(exc, EXIT_NUMERIC)
    except OptionError as exc:
        return _fail(exc, EXIT_BAD_ORDERS)
    except (ValueError, OSError) as exc:
        return _fail(exc, EXIT_BAD_INPUT)


def _fail(exc: BaseException, code: int) -> int:
    print(f"srenyi: error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
