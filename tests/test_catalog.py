import json

import pytest

import ybekit
from ybekit.catalog import CatalogRecord, read_catalog, write_catalog
from ybekit.enumeration import fast_enumerate
from ybekit.errors import InvalidSolutionError


def test_jsonl_round_trip(tmp_path):
    records = fast_enumerate(3)
    path = tmp_path / "n3.jsonl"
    write_catalog(str(path), 3, records, budget={"threads": 1})
    header, back = read_catalog(str(path))
    assert header["n"] == 3
    assert header["tool"] == "ybekit"
    assert header["version"] == ybekit.__version__
    assert header["budget"] == {"threads": 1}
    assert back == records


def test_header_required(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps({"n": 3}) + "\n")
    with pytest.raises(InvalidSolutionError):
        read_catalog(str(path))
    path.write_text("")
    with pytest.raises(InvalidSolutionError):
        read_catalog(str(path))


@pytest.mark.parametrize("n", [True, 1.0, "1", None])
def test_header_n_must_be_an_int(tmp_path, n):
    path = tmp_path / "n1.jsonl"
    write_catalog(str(path), 1, fast_enumerate(1))
    header, record = path.read_text().splitlines()
    header = json.dumps({**json.loads(header), "n": n})
    path.write_text(header + "\n" + record + "\n")
    with pytest.raises(InvalidSolutionError, match='catalog line 1: header "n" must be a JSON int'):
        read_catalog(str(path))


def test_record_json_round_trip():
    rec = fast_enumerate(2)[0]
    assert CatalogRecord.from_json(rec.to_json()) == rec
    invalid = CatalogRecord(n=2, sigma=((0, 1), (0, 1)), valid=False)
    blob = invalid.to_json()
    assert blob["mpl"] is None
    assert CatalogRecord.from_json(blob) == invalid


def test_malformed_record():
    with pytest.raises(InvalidSolutionError):
        CatalogRecord.from_json({"n": 2})


@pytest.mark.parametrize(
    "line",
    [
        '{"n": 2, "sigma": [[0, 1], [0, 1]]',
        json.dumps({"n": 2, "sigma": [[0, 1.7], [0, 1]], "valid": True}),
        json.dumps({"n": 2, "sigma": [[0, 1], [0, 1]], "valid": "no"}),
        json.dumps({"n": 2, "sigma": [[0, 1], [0, 1]], "valid": True, "primitive": 1}),
        json.dumps({"n": 2, "sigma": [[0, 1], [0, 1]], "valid": True, "mpl": "x"}),
        json.dumps({"n": 2, "sigma": [[0, 1], [0, 1]], "valid": True, "group_order": True}),
        json.dumps(
            {"n": 2, "sigma": [[0, 1], [0, 1]], "valid": True, "primitive": True,
             "indecomposable": False}
        ),
        json.dumps({"n": 3, "sigma": [[0, 1, 2], [0, 1, 2], [0, 1, 2]], "valid": True}),
        json.dumps({"n": 2, "sigma": [[0, 1], [0, 1]], "valid": True, "bogus": 5}),
        json.dumps({"n": 2, "sigma": [[1, 0], [0, 1]], "valid": True}),
        json.dumps({"n": 2.0, "sigma": [[0, 1], [0, 1]], "valid": True}),
    ],
    ids=[
        "malformed-json", "float-entry", "non-bool-valid", "non-bool-flag", "non-int-mpl",
        "bool-group-order", "primitive-not-indecomposable", "n-differs-from-header",
        "unknown-key", "valid-but-fails-validate", "float-n",
    ],
)
def test_bad_record_line_rejected(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    write_catalog(str(path), 2, fast_enumerate(2))
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(InvalidSolutionError, match="catalog line 4"):
        read_catalog(str(path))


def test_round_trip_loads_every_enumerated_class(tmp_path, records_up_to_6):
    # every record is re-validated and checked against the header on read
    for n, records in records_up_to_6.items():
        path = tmp_path / f"n{n}.jsonl"
        write_catalog(str(path), n, records)
        assert read_catalog(str(path))[1] == records
