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
import gc
import io
import json
import math
import os
import sys
import tempfile
from itertools import chain
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
from .means import _check_weights, _LogSupport
from .measures import (
    MassMeasure,
    _check_normalized,
    _label_hashes,
    _probabilities,
    _unique_hashes,
)
from .spectrum import OrderGrid, _columns, _invert, recover_distribution_probe

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
    """The measure in a CSV or JSON file: the blocks of
    :func:`_read_blocks`, joined."""
    labels: list[str] = []
    weights = []
    for block_labels, block_weights in _read_blocks(path):
        labels += block_labels
        weights.append(block_weights)
    # the blocks go before the measure takes its own copy
    weights = np.concatenate(weights)
    return MassMeasure(labels, weights)


# The labels and weights of the data rows of one block
_Block = tuple[list[str], np.ndarray]


def _read_blocks(path: str) -> Iterator[_Block]:
    """The data rows of a CSV or JSON file, read in one pass, a block at a
    time: one block per block of whole lines of a CSV file, one for a JSON
    file.  A file without a data row is an error.

    The format is sniffed from the extension or the first non-blank
    character; the lines up to it are kept, and the rest of the file is
    read a block of whole lines at a time (CSV) or at once (JSON).  A UTF-8
    byte-order mark at the start of the file, as spreadsheets write one, is
    dropped.  A byte that is not UTF-8 is an error that names the path and,
    in a regular file, the byte's offset in it.
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
                yield _json_block(path, "".join(head) + fh.read())
            else:
                yield from _csv_blocks(path, "".join(head), fh)
    except UnicodeDecodeError as exc:
        # the streaming decoder counts positions from the start of its
        # current chunk; decoding the whole file again finds the offset in
        # the file, and a pipe, which cannot be read again, gives none
        reason = exc.reason
        try:
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    fh.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            reason = f"byte {whole.start}: {whole.reason}"
        raise ValueError(f"{path}: not valid UTF-8 ({reason})") from None


def _json_block(path: str, text: str) -> _Block:
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
    return labels, np.array(weights)


_BLOCK_CHARS = 8192  # characters read per CSV block, before completing its last line


def _csv_blocks(path: str, head: str, fh: TextIO) -> Iterator[_Block]:
    """The CSV rows of ``head`` and then of the rest of ``fh``, a block of
    whole lines at a time.  A plain block is split by :func:`_plain_block`;
    every other block goes through :func:`_row_rules`, which states the
    format."""
    rows = 0
    block = head + fh.read(_BLOCK_CHARS)
    while block:
        if block[-1] != "\n":
            block += fh.readline()
        labels, weights = _plain_block(block) or _row_rules(
            path, _csv_rows(block, fh), not rows
        )
        rows += len(labels)
        yield labels, weights
        block = fh.read(_BLOCK_CHARS)
    if not rows:
        raise ValueError(f"{path}: no data rows")


# What the byte pass of _plain_block keeps: every byte that can shape a row
# (comma, newline, quote, comment, NUL) and the ASCII bytes that str.strip
# strips.  UTF-8 encodes every other character in bytes that are deleted.
_SPACE = bytes(c for c in range(128) if chr(c).isspace() and c != 10)
_NOT_SHAPE = bytes(c for c in range(256) if c not in b',\n"#\0' + _SPACE)
_ROW_SHAPE = b",\n"


def _plain_block(block: str) -> tuple[list[str], np.ndarray] | None:
    """The labels and weights of a block of whole lines in which the row
    rules reduce to "label = cell 0 stripped, weight = float(cell 1)", or
    None for any other block.

    So it is when no row can be quoted, a comment, blank, a header, over
    the field size limit or refused by ``csv.reader`` (which rejects NUL
    before Python 3.11): the block is shorter than
    ``csv.field_size_limit()``, what one byte pass keeps of it, less the
    whitespace, is one ``,\\n`` per line (so no ``"``, ``#`` or NUL, and
    exactly one comma a line), and every weight cell is a number.  Labels
    are stripped only where there can be something to strip: in a block
    that holds whitespace or a character past ASCII.
    """
    if len(block) >= csv.field_size_limit():
        return None
    shape = block.encode().translate(None, _NOT_SHAPE)
    rows = shape.translate(None, _SPACE)
    if rows != _ROW_SHAPE * (len(rows) // 2) + (b"" if block[-1] == "\n" else b","):
        return None
    n = (len(rows) + 1) // 2  # lines, the last perhaps without its newline
    cells = block.replace("\n", ",").split(",")
    try:
        weights = np.fromiter(map(float, cells[1 : 2 * n : 2]), float, n)
    except ValueError:
        return None
    labels = cells[0 : 2 * n : 2]
    if len(rows) != len(shape) or not block.isascii():
        labels = list(map(str.strip, labels))
    return labels, weights


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


def _row_rules(path: str, rows: Iterator[list[str]], first: bool) -> _Block:
    """The labels and weights of the data rows of ``rows``, under the row
    rules: blank rows and ``#`` comments are skipped, a ``label,weight``
    header only before the first data row of the file (``first`` says that
    no block before held one), and every other row must be two cells with
    a numeric weight."""
    labels, weights = [], []
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
            if first and not labels and label.lower() == "label" and text.lower() == "weight":
                continue
            try:
                weights.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}: weight {text!r} is not a number") from exc
            labels.append(label)
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return labels, np.array(weights)


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


def _plot_file_text(orders: list[float], values: list[float]) -> str:
    """Two whitespace-separated columns, loadable with numpy.loadtxt.

    Infinite orders are clamped to the extreme finite order of the grid and
    annotated with a trailing comment; they are dropped when the grid has no
    finite order at all.
    """
    finite = [order for order in orders if math.isfinite(order)]
    lines = []
    for order, value in zip(orders, values):
        if math.isfinite(order):
            lines.append(f"{_fmt(order)} {_fmt(value)}")
        elif finite:
            clamped = max(finite) if order > 0 else min(finite)
            lines.append(
                f"{_fmt(clamped)} {_fmt(value)}  # clamped from order={_fmt(order)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands


def _read_weights(path: str) -> np.ndarray:
    """The weights of the measure in ``path``, checked as
    :func:`read_measure` checks them, from one read of ``path``, for the
    commands that print no label.  Each block keeps only its label hashes
    and an exact record of its labels, their joined text and lengths, and
    its label strings go with it.  Where two hashes meet, the labels are
    rebuilt from the record and the measure decides: it names a repeated
    label, or it was a collision."""
    hashes, texts, lengths, weights = [], [], [], []
    for labels, block_weights in _read_blocks(path):
        hashes.append(_label_hashes(labels))
        texts.append("".join(labels))
        lengths.append(np.fromiter(map(len, labels), np.int32, len(labels)))
        weights.append(block_weights)
    weights = np.concatenate(weights)
    if _unique_hashes(np.concatenate(hashes)):
        _check_weights(weights)
    else:
        text, ends = "".join(texts), np.cumsum(np.concatenate(lengths)).tolist()
        MassMeasure([text[i:j] for i, j in zip([0, *ends], ends)], weights)
    return weights


def cmd_spectrum(args: argparse.Namespace) -> int:
    grid = parse_orders(args.orders)
    base = resolve_base(args.base)
    weights = _read_weights(args.input)
    if args.normalize:
        weights = _probabilities(weights)
        _check_normalized(weights)
    meta = {
        "n": weights.size,
        "total_mass": float(weights.sum()),
        "base": base,
        "normalized": bool(args.normalize),
    }
    columns = _columns(_LogSupport(weights, weights), grid, base)
    header = ["order", "entropy", "equiv_prob", "potential", "derivative"]
    _write_table(args.format, "spectrum", meta, header, zip(*columns))
    if args.plot_data:
        orders, entropy, prob = columns[:3]
        _atomic_write(f"{args.plot_data}_entropy.dat", _plot_file_text(orders, entropy))
        _atomic_write(f"{args.plot_data}_eqprob.dat", _plot_file_text(orders, prob))
    return EXIT_OK


def cmd_divergence(args: argparse.Namespace) -> int:
    grid = parse_orders(args.orders)
    base = resolve_base(args.base)
    p = read_measure(args.p_input)
    q = read_measure(args.q_input)
    # labels are aligned once; D_r is minus the entropy column of the
    # spectrum columns of (p, p/q), which have passed the spectrum's laws
    orders, entropy = _columns(_divergence_support(p, q), grid, base, slope=False)[:2]
    header = ["order", "divergence"]
    columns = [orders, [-h for h in entropy]]
    q_support = q.weights[q.weights > 0]
    uniform = bool(np.all(q_support == q_support[0]))
    if uniform:
        ln_b = math.log(base)
        check_const = math.log(q_support.size) / ln_b - math.log(q.total) / ln_b
        header.append("uniform_check")
        own = _columns(_LogSupport(p.weights, p.weights), grid, base, slope=False)[1]
        columns.append([check_const - h for h in own])
    meta = {"base": base, "uniform_reference": uniform}
    _write_table(args.format, "divergence", meta, header, zip(*columns))
    return EXIT_OK


def cmd_invert(args: argparse.Namespace) -> int:
    # only the rows of --all print labels
    data = read_measure(args.input) if args.all else _read_weights(args.input)
    if not args.tol > 0:
        raise OptionError(f"--tol must be positive, got {args.tol}")
    if args.target is not None and math.isnan(args.target):
        raise OptionError("--target must not be NaN")
    if args.all:
        header = ["labels", "order", "probability"]
        rows = recover_distribution_probe(data, tol=args.tol)
    else:
        # the order and the probability the solver attained there
        orders, probs = _invert(_probabilities(data), (args.target,), args.tol)
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


def run() -> None:
    """The ``srenyi`` console script and ``python -m srenyi``: :func:`main`
    on the process arguments, then exit with its code.

    The heap is frozen first, so that interpreter teardown does not walk
    and free numpy's import-time cyclic objects one by one, which costs a
    process about 20 ms; the process ends just after.  atexit handlers
    still run, and stdout and stderr are still flushed.  :func:`main`
    itself never freezes: tests and embedders call it in their own process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
