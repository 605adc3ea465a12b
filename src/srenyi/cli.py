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
import operator
import os
import sys
import tempfile
from itertools import chain, repeat
from typing import Iterator, Sequence, TextIO

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
from .info import DEFAULT_BASE, _check_base, _divergence_support
from .means import _log_moments, _LogSupport
from .measures import MassMeasure, normalize
from .spectrum import OrderGrid, _invert, recover_distribution_probe, sample_spectrum

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
    """The measure in a CSV or JSON file, read in one pass.

    The format is sniffed from the extension or the first non-blank
    character; the lines up to it are kept, and the rest of the file is
    read a block of whole lines at a time (CSV) or at once (JSON).  A UTF-8
    byte-order mark at the start of the file, as spreadsheets write one, is
    dropped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            head = []
            for line in fh:
                head.append(line)
                if line.strip():
                    break
            else:
                raise ValueError(f"{path}: empty input file")
            if path.lower().endswith(".json") or line.lstrip()[0] in "[{":
                return _measure_from_json(path, "".join(head) + fh.read())
            return _measure_from_csv(path, "".join(head), fh)
    except UnicodeDecodeError:
        # the streaming decoder counts positions from the start of its
        # current chunk; decoding the whole file reports the file offset
        with open(path, "rb") as fh:
            fh.read().decode("utf-8")
        raise


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
        if not isinstance(record["label"], str):
            raise ValueError(f"{path}: record {i}: label must be a string")
        labels.append(record["label"])
        try:
            weights.append(float(weight))
        except OverflowError:  # an integer past the doubles, read as CSV reads 1e400
            weights.append(math.inf if weight > 0 else -math.inf)
    return MassMeasure(labels, weights)


_BLOCK_CHARS = 8192  # characters read per CSV block, before completing its last line


def _measure_from_csv(path: str, head: str, fh: TextIO) -> MassMeasure:
    """The CSV rows of ``head`` and then of the rest of ``fh``, read a block
    of whole lines at a time.  A plain block is split by
    :func:`_plain_block`; every other block goes through
    :func:`_row_rules`, which states the format."""
    labels: list[str] = []
    weights = []
    block = head + fh.read(_BLOCK_CHARS)
    while block:
        if block[-1] != "\n":
            block += fh.readline()
        plain = _plain_block(block)
        if plain is None:
            weights.append(_row_rules(path, _csv_rows(block, fh), labels))
        else:
            labels += plain[0]
            weights.append(plain[1])
        block = fh.read(_BLOCK_CHARS)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return MassMeasure(labels, np.concatenate(weights))


def _plain_block(block: str) -> tuple[list[str], np.ndarray] | None:
    """The labels and weights of a block of whole lines in which the row
    rules reduce to "label = cell 0 stripped, weight = float(cell 1)", or
    None for any other block.

    So it is when no row can be quoted, a comment, blank, a header, over
    the field size limit or refused by ``csv.reader`` (which rejects NUL
    before Python 3.11): the block has no ``"``, ``#`` or NUL, it is
    shorter than ``csv.field_size_limit()``, each of its lines holds
    exactly one comma, and every weight cell is a number.
    """
    if '"' in block or "#" in block or "\0" in block:
        return None
    if len(block) >= csv.field_size_limit():
        return None
    lines = block.split("\n")
    if not lines[-1]:
        lines.pop()
    n = len(lines)
    if block.count(",") != n or not all(map(operator.contains, lines, repeat(","))):
        return None
    cells = block.replace("\n", ",").split(",")
    try:
        weights = np.fromiter(map(float, cells[1 : 2 * n : 2]), float, n)
    except ValueError:
        return None
    return list(map(str.strip, cells[0 : 2 * n : 2])), weights


def _csv_rows(block: str, fh: TextIO) -> Iterator[list[str]]:
    """``csv.reader`` rows of the lines of ``block``, and of as many more
    lines of ``fh`` as it takes to close a quoted field left open at its
    end: the reader takes a further line only to finish a row."""
    n_lines = block.count("\n") + (block[-1] != "\n")
    # StringIO splits at "\n" only, as a file is
    reader = csv.reader(chain(io.StringIO(block), fh))
    for row in reader:
        yield row
        if reader.line_num >= n_lines:
            return


def _row_rules(path: str, rows: Iterator[list[str]], labels: list[str]) -> list[float]:
    """Apply the row rules to ``rows``, appending each data row's label to
    ``labels``, which holds those of the rows before, and returning their
    weights: blank rows and ``#`` comments are skipped, a ``label,weight``
    header only before the first data row, and every other row must be two
    cells with a numeric weight."""
    weights = []
    try:
        for row in rows:
            label = row[0].strip() if row else ""
            if not label:
                if not "".join(row).strip():
                    continue  # blank row
            elif label[0] == "#":
                continue
            if len(row) != 2:
                raise ValueError(
                    f"{path}: expected 'label,weight' rows, got {len(row)} cells: {row}"
                )
            text = row[1].strip()
            if not labels and label.lower() == "label" and text.lower() == "weight":
                continue
            try:
                weights.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}: weight {text!r} is not a number") from exc
            labels.append(label)
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return weights


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
    if s.lower() == "named":
        return OrderGrid.named()
    try:
        if ":" in s:
            parts = s.split(":")
            if len(parts) != 3:
                raise ValueError("range form must be start:stop:count")
            start, stop = float(parts[0]), float(parts[1])
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ValueError("range endpoints must be finite")
            values = OrderGrid.linear(start, stop, int(parts[2])).orders()
        else:
            values = s.split(",")
        return OrderGrid.from_values(_snap_zeros(values))
    except ValueError as exc:
        raise OptionError(f"invalid --orders value {text!r}: {exc}") from exc


def _snap_zeros(values) -> list[float]:
    return [
        0.0 if math.isfinite(v) and abs(v) < ORDER_SNAP_EPS else v
        for v in map(float, values)
    ]


def resolve_base(flag_value: str | None) -> float:
    """Flag beats the RENYI_BASE environment variable beats DEFAULT_BASE."""
    raw = flag_value if flag_value is not None else os.environ.get(BASE_ENV_VAR)
    if raw is None:
        return DEFAULT_BASE
    try:
        return math.e if raw.strip().lower() == "e" else _check_base(raw)
    except ValueError as exc:
        raise OptionError(f"invalid base {raw!r}: {exc}") from exc


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
    ln_b = math.log(base)
    # labels are aligned once; each column is one kernel call over the grid
    orders = grid.orders()
    log_means = _log_moments(_divergence_support(p, q), orders)[0].tolist()
    header = ["order", "divergence"]
    rows = [(r, lm / ln_b) for r, lm in zip(orders, log_means)]
    if uniform:
        check_const = math.log(n_support) / ln_b - math.log(q.total) / ln_b
        header.append("uniform_check")
        # check_const - H_r(p), with H_r(p) = -ln M_r(p_hat, p) / ln b
        own = _log_moments(_LogSupport(p.weights, p.weights), orders)[0].tolist()
        rows = [(r, div, check_const + lm / ln_b) for (r, div), lm in zip(rows, own)]
    meta = {"base": base, "uniform_reference": uniform}
    _write_table(args.format, "divergence", meta, header, rows)
    return EXIT_OK


def cmd_invert(args: argparse.Namespace) -> int:
    measure = read_measure(args.input)
    tol = args.tol
    if not tol > 0:
        raise OptionError(f"--tol must be positive, got {tol}")
    if args.target is not None and math.isnan(args.target):
        raise OptionError("--target must not be NaN")
    if args.all:
        header = ["labels", "order", "probability"]
        rows = recover_distribution_probe(measure, tol=tol)
    else:
        # the order and the probability the solver attained there
        orders, probs = _invert(measure, (args.target,), tol)
        header = ["target", "order", "probability"]
        rows = [(args.target, orders.tolist()[0], probs.tolist()[0])]
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
    p_inv.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="relative tolerance on the attained probability (default: %(default)s)",
    )
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
