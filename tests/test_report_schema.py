"""validate_report against a Draft-7 validator of report_schema.json.

Real `partition` and `scan --truth` reports are mutated one field at a time.
Whenever the reference validator rejects a mutant, validate_report must
reject it too; on this set of mutants the two agree in both directions.
"""

import copy
import json

import pytest

from vecpart import cli
from vecpart.cli import main, validate_report
from helpers import PAIRGRAPH4_TEXT

jsonschema = pytest.importorskip("jsonschema")

# Wrong types, zero and negative counts and labels, a 63-character sha256,
# an unknown mode, and bools where numbers are expected.
CANDIDATES = [None, True, False, 0, -1, 7, 0.5, -0.5, "x", "0" * 63, "f" * 64, "spectral", [], [0], {}]


@pytest.fixture(scope="module")
def draft7():
    return jsonschema.Draft7Validator(json.loads(cli._SCHEMA_PATH.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    graph = tmp / "g.txt"
    graph.write_text(PAIRGRAPH4_TEXT)
    truth = tmp / "truth.txt"
    truth.write_text("0 0\n1 0\n2 1\n3 1\n")
    commands = {
        "partition": ["partition", str(graph), "--dim", "2", "--time", "5"],
        "scan": ["scan", str(graph), "--tmin", "0.5", "--tmax", "5", "--npoints", "3", "--truth", str(truth)],
    }
    out = {}
    for name, args in commands.items():
        path = tmp / f"{name}.json"
        assert main(args + ["--output", str(path)]) == 0
        out[name] = json.loads(path.read_text())
    return out


@pytest.fixture(params=["partition", "scan"])
def report(request, reports):
    return reports[request.param]


def described(value, schema, path=()):
    """Every (path, subschema) of ``value`` that the schema describes.

    Arrays contribute their first item only, which keeps the mutant count small.
    """
    yield path, schema
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from described(value[key], sub, path + (key,))
    elif isinstance(value, list) and value and "items" in schema:
        yield from described(value[0], schema["items"], path + (0,))


def mutated(report, path, value=None, drop=False):
    out = copy.deepcopy(report)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def mutants(report, schema):
    for path, sub in described(report, schema):
        for key in sub.get("required", []):
            yield f"drop {path + (key,)}", mutated(report, path + (key,), drop=True)
        if path:
            for value in CANDIDATES:
                yield f"{path} = {value!r}", mutated(report, path, value)


def rejects(report):
    try:
        validate_report(report)
    except ValueError:
        return True
    return False


def test_both_accept_the_real_report(report, draft7):
    assert "records" in report and report["records"]
    assert not list(draft7.iter_errors(report))
    validate_report(report)


def test_single_field_mutants_agree_with_draft7(report, draft7):
    schema = draft7.schema
    checked = 0
    for name, mutant in mutants(report, schema):
        expected = not draft7.is_valid(mutant)
        assert rejects(mutant) == expected, name
        checked += expected
    assert checked > 100


@pytest.mark.parametrize(
    "path, value",
    [
        (("records", 0, "dim"), 0),
        (("records", 0, "num_communities"), 0),
        (("records", 0, "partition", 0), -1),
        (("graph", "sha256"), "0" * 63),
        (("records", 0, "mode"), "spectral"),
        (("graph", "m"), 0),
        (("graph", "m"), True),
        (("records", 0, "objective"), True),
        (("records", 0, "time"), True),
        (("timing_ms",), False),
    ],
)
def test_named_mutants_rejected_by_both(report, draft7, path, value):
    mutant = mutated(report, path, value)
    assert not draft7.is_valid(mutant)
    assert rejects(mutant)


def test_scan_record_fields_are_checked(reports, draft7):
    last = len(reports["scan"]["records"]) - 1
    for key in ("nmi", "uncertainty", "vi_prev"):
        for value in ("0.5", True, None):
            mutant = mutated(reports["scan"], ("records", last, key), value)
            assert not draft7.is_valid(mutant) and rejects(mutant), (key, value)
