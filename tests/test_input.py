"""The CSV/JSON input reader against the reader it replaced.

``read_measure`` reads a CSV file in blocks of whole lines, about
``cli._BLOCK_CHARS`` characters each: a plain block is split with str
methods, and any other goes through ``csv.reader`` and the row rules.
``support.reference_read_measure`` is the earlier reader, which parsed an
``io.StringIO`` copy of the whole text with ``csv.reader``.  Both must give
the same labels, bitwise the same weights, and the same first error, on an
edge corpus, on generated files (also at block sizes small enough that
every row crosses a block end) and on a bench-sized file.  Two differences
are intended.  A ``csv.Error`` (a field over ``csv.field_size_limit()``)
is now a ``ValueError`` naming the file, which the CLI reports with exit
code 1.  A file is decoded as it is read, so a bad row ahead of an
invalid UTF-8 byte in a later block of the file is the error reported,
where the earlier reader decoded everything first.  And a UTF-8 byte-order
mark at the start of a file is dropped, so such a file reads as the
earlier reader read the same bytes without it.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srenyi import cli
from srenyi.cli import main, read_measure

from support import UCB_COUNTS, UCB_LABELS, reference_read_measure

LONG = "x" * 200_000
BOM = "\ufeff".encode()


def second_block(rows: str) -> bytes:
    """A file whose second block, at the default block size, starts with
    ``rows``: a header and filler rows end exactly where the first block
    does."""
    text = "label,weight\n"
    end = len(text) + cli._BLOCK_CHARS  # the header is the sniffed first line
    i = 0
    while end - len(text) >= 20:
        text += f"x{i},1\n"
        i += 1
    text += "p" * (end - len(text) - 3) + ",2\n"
    return (text + rows).encode()


def straddling_block_end(tail: str) -> bytes:
    """A file whose rows go on with ``tail``, which opens a quote 5
    characters before the end of the first block, at the default block
    size."""
    rows = second_block("")[:-10].decode()
    return f"{rows}z1,3\n{tail}".encode()


EDGE_CORPUS = {
    "quoted_labels": b'"a,b",1\n"c",2\n',
    "multiline_label": b'label,weight\n"line one\nline two",1\nz,2\n',
    "doubled_quote": b'"say ""hi""",1\nb,2\n',
    "quote_inside_field": b'a"b,1\nc,2\n',
    "unterminated_quote": b'a,1\n"b,2\n',
    "crlf": b"label,weight\r\na,1\r\nb,2\r\n",
    "lone_cr": b"a,1\rb,2\r",
    "bom_header": "\ufefflabel,weight\na,1\n".encode(),
    "bom_data": "\ufeffa,1\nb,2\n".encode(),
    "no_trailing_newline": b"a,1\nb,2",
    "comments": b"# note\n  # indented, with, commas\na,1\n#x,2\n\"# quoted\",3\n",
    "blanks": b"\n\n  \n,\n , \n\t,\na,1\n\n",
    "header_repeats": b"label,weight\n Label , WEIGHT \na,1\n",
    "late_header": b"a,1\nlabel,weight\n",
    "one_cell_row": b"a,1\nb\n",
    "three_cell_row": b"a,1\nb,2,3\n",
    "three_cell_row_after_quote": b'a,1\n"b",2\nc,3,4\n',
    "one_comma_per_line_on_average": b"1,1\n2\n3,4,5\n",
    "bad_weight": b"a,1\nb,one\n",
    "precedence_weight_first": b"a,x\nb,1,2\n",
    "precedence_cells_first": b"a,1,2\nb,x\n",
    "whitespace_cells": b" a , 1.5 \n\tb\t,\t2\t\n",
    "unicode_whitespace": "a,1\x1c\nb ,2\x85\n".encode(),
    "nul": b"a\x00b,1\n",
    "duplicate_labels": b"a,1\na,2\n",
    "empty": b"",
    "whitespace_only": b"  \n\t\n",
    "comments_only": b"# a\n# b\n",
    "header_only": b"label,weight\n",
    "json_sniffed": b'  \n[{"label": "a", "weight": 1}]',
    "bad_json_sniffed": b"\n{broken\n",
    "long_unquoted": f"a,1\n{LONG},2\n".encode(),
    "long_quoted": f'a,1\n"{LONG}",2\n'.encode(),
    "long_blank_row": f"{' ' * 200_000}\na,1\n".encode(),
    "bad_utf8_past_first_chunk": b"label,weight\n"
    + b"".join(b"x%d,1\n" % i for i in range(3000))
    + b"\xff,1\n",
    "quoted_label_straddles_block_end": straddling_block_end('"two\nlines",4\nz2,5\n'),
    "long_quoted_label_at_block_end": straddling_block_end(
        '"' + "y" * 10_000 + '",4\nz2,5\n'
    ),
    "quoted_label_spans_blocks": straddling_block_end(
        '"' + "y\n" * 10_000 + '",4\nz2,5\n'
    ),
    "quote_open_at_eof_past_block": straddling_block_end('"open,4\nz2,5\n'),
    "comment_opens_block": second_block("# note,1\ny,2\n"),
    "blank_row_opens_block": second_block("\n , \ny,2\n"),
    "late_header_opens_block": second_block("label,weight\ny,2\n"),
}


def outcome(read, path):
    """Labels and weight bytes, or the error text; the reference's escaping
    ``csv.Error`` is mapped to the message the reader now raises."""
    try:
        measure = read(path)
    except csv.Error as exc:
        return "error", f"{path}: {exc}"
    except ValueError as exc:
        return "error", str(exc)
    return measure.labels, measure.weights.tobytes()


def reference_outcome(path, data: bytes):
    """The earlier reader's outcome on ``data`` without a leading BOM, read
    from ``path``, which is left holding ``data``."""
    path.write_bytes(data.removeprefix(BOM))
    expected = outcome(reference_read_measure, str(path))
    path.write_bytes(data)
    return expected


@pytest.mark.parametrize("name", sorted(EDGE_CORPUS))
def test_edge_corpus_matches_reference(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    expected = reference_outcome(path, EDGE_CORPUS[name])
    assert outcome(read_measure, str(path)) == expected


CELL = st.one_of(
    st.sampled_from(
        [
            "label", " Label ", "WEIGHT", "weight", "x1", "x2", "x3", " x4 ",
            "1", "2.5", " 3 ", "-1", "0", "1e-320", "nan", "inf", "1_0",
            "one", "", " ", "#", "# note", " #x",
            '"a,b"', '"x\ny"', '"q""q"', '"open', 'in"side', '""',
        ]
    ),
    st.text(alphabet='ab1.e-,"# \t\n\r\x0b\x1c\x85 \ufeff\x00', max_size=6),
)
ROW = st.lists(CELL, max_size=3).map(",".join)
LINE = st.tuples(ROW, st.sampled_from(["\n", "\r\n", "\r"])).map("".join)


@st.composite
def csv_files(draw):
    text = "".join(draw(st.lists(LINE, max_size=8)))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8")


@given(csv_files())
@settings(max_examples=400, deadline=None)
def test_generated_files_match_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("generated") / "input.csv"
    default_limit = csv.field_size_limit()
    try:
        for limit in (default_limit, 4):
            csv.field_size_limit(limit)
            expected = reference_outcome(path, data)
            for block_chars in (cli._BLOCK_CHARS, 1, 7, 64):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(cli, "_BLOCK_CHARS", block_chars)
                    assert outcome(read_measure, str(path)) == expected, (
                        limit,
                        block_chars,
                    )
    finally:
        csv.field_size_limit(default_limit)


def test_bench_sized_file_matches_reference(tmp_path, monkeypatch):
    # written as the bench writes its spectrum-large input
    w = np.random.default_rng(1).random(100_000)
    path = tmp_path / "measure.csv"
    path.write_text(
        "label,weight\n" + "".join(f"x{i},{v!r}\n" for i, v in enumerate(w.tolist()))
    )
    row_blocks = []
    row_rules = cli._row_rules

    def counted(*args):
        row_blocks.append(args)
        return row_rules(*args)

    monkeypatch.setattr(cli, "_row_rules", counted)
    assert outcome(read_measure, str(path)) == outcome(reference_read_measure, str(path))
    assert len(row_blocks) == 1  # only the header's block is not plain


@pytest.mark.parametrize("name", ["long_unquoted", "long_quoted"])
def test_over_long_label_exit_1(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(EDGE_CORPUS[name])
    assert main(["spectrum", str(path), "--orders", "named"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"srenyi: error: {path}: field larger than field limit "
        f"({csv.field_size_limit()})\n"
    )


def test_row_error_before_bad_utf8_is_reported_first(tmp_path, capsys):
    path = tmp_path / "input.csv"
    path.write_bytes(
        b"a,1\nb,1,2\n" + b"".join(b"x%d,1\n" % i for i in range(3000)) + b"\xff,1\n"
    )
    with pytest.raises(UnicodeDecodeError):
        reference_read_measure(str(path))
    assert main(["spectrum", str(path), "--orders", "named"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"srenyi: error: {path}: expected 'label,weight' rows, "
        "got 3 cells: ['b', '1', '2']\n"
    )


def test_csv_rows_read_past_the_block_only_to_close_a_quote():
    rest = io.StringIO("b,2\nc,3\n")
    assert list(cli._csv_rows("a,1\n\n", rest)) == [["a", "1"], []]
    assert rest.read() == "b,2\nc,3\n"
    rest = io.StringIO('y",2\nc,3\n')
    assert list(cli._csv_rows('a,1\n"x\n', rest)) == [["a", "1"], ["x\ny", "2"]]
    assert rest.read() == "c,3\n"
    # the last block of a file may end without a newline
    assert list(cli._csv_rows('a,1\n"b",2', io.StringIO())) == [["a", "1"], ["b", "2"]]


UCB_CSV = "".join(f"{a},{c}\n" for a, c in zip(UCB_LABELS, UCB_COUNTS))
UCB_JSON = json.dumps([{"label": a, "weight": c} for a, c in zip(UCB_LABELS, UCB_COUNTS)])


@pytest.mark.parametrize(
    "name, text",
    [("header.csv", "label,weight\n" + UCB_CSV), ("rows.csv", UCB_CSV), ("ucb.json", UCB_JSON)],
    ids=["csv-header", "csv-rows", "json"],
)
def test_leading_bom_reads_as_without_it(name, text, tmp_path, capsys):
    """A file that starts with a UTF-8 byte-order mark, as spreadsheets
    write CSV, gives the measure of the same bytes without it, and the two
    have the same support for ``divergence``."""
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    assert outcome(read_measure, str(marked)) == outcome(read_measure, str(plain))
    assert main(["divergence", str(plain), str(marked), "--orders", "named"]) == 0
    assert capsys.readouterr().err == ""
