"""The CSV/JSON input reader against the reader it replaced.

``read_measure`` streams a file's lines through ``csv.reader`` in one pass;
``support.reference_read_measure`` is the earlier reader, which parsed an
``io.StringIO`` copy of the whole text with ``csv.reader``.  Both must give
the same labels, bitwise the same weights, and the same first error, on an
edge corpus and on generated files.  Two differences are intended.  A
``csv.Error`` (a field over ``csv.field_size_limit()``) is now a
``ValueError`` naming the file, which the CLI reports with exit code 1.
And a file is decoded as it is read, so a bad row ahead of an invalid
UTF-8 byte in a later part of the file is the error reported, where the
earlier reader decoded everything first.
"""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srenyi.cli import main, read_measure

from support import reference_read_measure

LONG = "x" * 200_000

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


@pytest.mark.parametrize("name", sorted(EDGE_CORPUS))
def test_edge_corpus_matches_reference(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(EDGE_CORPUS[name])
    assert outcome(read_measure, str(path)) == outcome(reference_read_measure, str(path))


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
    path.write_bytes(data)
    default_limit = csv.field_size_limit()
    try:
        for limit in (default_limit, 4):
            csv.field_size_limit(limit)
            assert outcome(read_measure, str(path)) == outcome(
                reference_read_measure, str(path)
            ), limit
    finally:
        csv.field_size_limit(default_limit)


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
