"""Command-line front end: decompose, partition, scan, compare.

Every command exits 0 on success; library errors map to the distinct codes
declared in vecpart.errors, argparse usage errors exit 2, and IO failures
exit 3. JSON reports are written atomically (temp file, then rename) and are
byte-identical across reruns with the same inputs and seeds, except for the
timing field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import reprlib
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .errors import InvalidParameter, MalformedLine, VecpartError
from .graph import Graph, Partition, load_edge_list, read_lines
from .harness import ScanRecord, best_of_restarts, geometric_grid, scan_record, time_scan
from .metrics import nmi, sankey_links, sankey_to_json, uncertainty_coefficient, variation_of_information
from .spectral import (
    QualityMatrix,
    build_embedding,
    check_time,
    decompose_modularity_matrix,
    decompose_transition,
    spectral_health,
    uses_quality_matrix,
)


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def _load_partition_file(path: str) -> Partition:
    """Read "node_id group_id" lines (0-based, one per node) into a Partition."""
    pairs: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, node, grp, _ in read_lines(fh, f"{path} line", "'node group'"):
            if node in pairs:
                raise MalformedLine(f"{path} line {lineno}: node {node} listed twice")
            pairs[node] = grp
    if not pairs:
        raise MalformedLine(f"{path}: no assignments found")
    n = len(pairs)
    if sorted(pairs) != list(range(n)):
        raise MalformedLine(f"{path}: node ids must be exactly 0..{n - 1}")
    return Partition.from_labels([pairs[i] for i in range(n)])


def _write_partition_file(path: str, partition: Partition) -> None:
    text = "".join(f"{i} {int(grp)}\n" for i, grp in enumerate(partition.assignment))
    _write_atomic(path, text)


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or ".", prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _graph_payload(g: Graph) -> dict:
    return {"n": g.n, "m": g.total_weight, "edges": g.num_edges, "sha256": g.sha256()}


def _record_payload(rec: ScanRecord) -> dict:
    payload = {
        "time": rec.time,
        "dim": rec.dim,
        "mode": rec.mode,
        "num_communities": rec.num_communities,
        "objective": rec.objective,
        "partition": [int(x) for x in rec.partition.assignment],
    }
    if rec.nmi is not None:
        payload["nmi"] = rec.nmi
    if rec.uncertainty is not None:
        payload["uncertainty"] = rec.uncertainty
    if rec.vi_to_previous is not None:
        payload["vi_prev"] = rec.vi_to_previous
    return payload


def _make_report(g: Graph, params: dict, records: list[dict], started: float) -> dict:
    return {
        "version": __version__,
        "graph": _graph_payload(g),
        "params": params,
        "records": records,
        "timing_ms": (time.perf_counter() - started) * 1000.0,
    }


_SCHEMA_PATH = Path(__file__).with_name("report_schema.json")

# The JSON types a report schema may name, by Draft-7 name. A bool is neither
# an integer nor a number, and a number must be finite.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and math.isfinite(v)),
    "null": lambda v: v is None,
}
_KEYWORDS = {"type", "required", "properties", "items", "enum", "minimum", "exclusiveMinimum", "pattern"}
_ANNOTATIONS = {"$schema", "title"}


def _check_keywords(schema: dict, where: str) -> None:
    """Raise NotImplementedError where the schema asks for a check _check_node lacks."""
    unknown = set(schema) - _KEYWORDS - _ANNOTATIONS
    if not isinstance(schema.get("items", {}), dict):
        unknown.add("items as an array")
    if "pattern" in schema and not (schema["pattern"].startswith("^") and schema["pattern"].endswith("$")):
        unknown.add("a pattern not anchored at both ends")
    if unknown:
        raise NotImplementedError(
            f"report schema at {where} uses {sorted(unknown)}, which validate_report cannot check"
        )
    for key, sub in schema.get("properties", {}).items():
        _check_keywords(sub, f"{where}/properties/{key}")
    if "items" in schema:
        _check_keywords(schema["items"], f"{where}/items")


@functools.cache
def _report_schema() -> dict:
    schema = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))
    _check_keywords(schema, "#")
    return schema


def _fail(path: str, msg: str) -> None:
    raise ValueError(f"invalid report: {path}: {msg}")


def _check_node(value, schema: dict, path: str) -> None:
    """Check ``value`` against one schema node, then its properties and items."""
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](value) for t in types):
            _fail(path, f"expected {' or '.join(types)}, got {reprlib.repr(value)}")
    if "enum" in schema and value not in schema["enum"]:
        _fail(path, f"expected one of {schema['enum']}, got {reprlib.repr(value)}")
    if _TYPES["number"](value):
        if "minimum" in schema and not value >= schema["minimum"]:
            _fail(path, f"{value} is below the minimum {schema['minimum']}")
        if "exclusiveMinimum" in schema and not value > schema["exclusiveMinimum"]:
            _fail(path, f"{value} is not above {schema['exclusiveMinimum']}")
    # A pattern is anchored at both ends (see _check_keywords), where ECMA-262,
    # which Draft 7 names, reads $ as the end of the string. Python's $ also
    # matches before a final newline; fullmatch does not.
    if isinstance(value, str) and "pattern" in schema and not re.fullmatch(schema["pattern"], value):
        _fail(path, f"{value!r} does not match {schema['pattern']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                _fail(path, f"missing key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check_node(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for idx, item in enumerate(value):
            _check_node(item, schema["items"], f"{path}[{idx}]")


def validate_report(report: dict) -> None:
    """Check a run report against report_schema.json, its single definition.

    Raises ValueError naming the path of the first value that fails.
    """
    _check_node(report, _report_schema(), "report")


def _emit_report(report: dict, output: str | None) -> None:
    validate_report(report)
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if output:
        _write_atomic(output, text)
    else:
        sys.stdout.write(text)


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.source == "transition":
        basis = decompose_transition(g)
    else:
        basis = decompose_modularity_matrix(g)
    for value in basis.eigenvalues:
        print(f"{value:.6f}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    if not math.isfinite(args.time):
        print(f"error: usage: --time must be finite, got {args.time}", file=sys.stderr)
        return 2
    if args.mode != "modularity":
        try:
            check_time(args.mode, args.time)
        except InvalidParameter as exc:
            print(f"error: usage: --time: {exc}", file=sys.stderr)
            return 2
    started = time.perf_counter()
    g = _load_graph(args.graph)
    t = None if args.mode == "modularity" else args.time
    if uses_quality_matrix(args.mode, args.dim, g.n):
        emb = QualityMatrix(g, args.mode, t)
        spectral = {"solver": "graph"}
    else:
        if args.mode == "modularity":
            basis = decompose_modularity_matrix(g, dim=args.dim)
        else:
            basis = decompose_transition(g, dim=args.dim)
        emb = build_embedding(basis, args.mode, t=t, dim=args.dim)
        spectral = spectral_health(g, basis, emb.dim)
    partition, objective, diag = best_of_restarts(emb, args.restarts, args.seed)
    record = scan_record(emb, partition, objective)
    params = {
        "command": "partition",
        "mode": args.mode,
        "time": args.time,
        "dim": args.dim,
        "restarts": args.restarts,
        "seed": args.seed,
    }
    report = _make_report(g, params, [_record_payload(record)], started)
    report["diagnostics"] = diag.as_dict()
    report["diagnostics"]["spectral"] = spectral
    _emit_report(report, args.output)
    if args.partition_out:
        _write_partition_file(args.partition_out, partition)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        geometric_grid(args.tmin, args.tmax, args.npoints)
    except InvalidParameter as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    g = _load_graph(args.graph)
    truth = _load_partition_file(args.truth) if args.truth else None
    records = time_scan(
        g,
        args.tmin,
        args.tmax,
        args.npoints,
        mode=args.mode,
        dim=args.dim,
        seed=args.seed,
        restarts=args.restarts,
        truth=truth,
    )
    params = {
        "command": "scan",
        "tmin": args.tmin,
        "tmax": args.tmax,
        "npoints": args.npoints,
        "mode": args.mode,
        "dim": args.dim,
        "restarts": args.restarts,
        "seed": args.seed,
        "truth": args.truth,
    }
    report = _make_report(g, params, [_record_payload(r) for r in records], started)
    _emit_report(report, args.output)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    pa = _load_partition_file(args.partition_a)
    pb = _load_partition_file(args.partition_b)
    print(f"nmi {nmi(pa, pb):.6f}")
    print(f"uncertainty {uncertainty_coefficient(pa, pb):.6f}")
    print(f"vi {variation_of_information(pa, pb):.6f}")
    if args.sankey:
        links = sankey_to_json(sankey_links(pa, pb))
        _write_atomic(args.sankey, json.dumps(links, indent=2) + "\n")
    return 0


def _positive_int(value: str) -> int:
    out = int(value)
    if out < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return out


def _nonnegative_int(value: str) -> int:
    out = int(value)
    if out < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecpart",
        description="Multiscale community detection via spectral max-sum vector partitioning.",
    )
    parser.add_argument("--version", action="version", version=f"vecpart {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="eigendecompose a graph and print its eigenvalues")
    p.add_argument("graph", help="edge-list file, 'i j [w]' per line, zero-based")
    p.add_argument("--source", choices=("transition", "modularity"), default="transition")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("partition", help="optimise a single partition")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("exponential", "linearised", "modularity"), default="exponential")
    p.add_argument("--time", type=float, default=1.0, help="Markov time or resolution (ignored for modularity mode)")
    p.add_argument("--dim", type=_positive_int, default=None, help="embedding dimension (default n-1)")
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--partition-out", default=None, help="also write 'node group' lines here")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("scan", help="scan a geometric grid of Markov times")
    p.add_argument("graph")
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--npoints", type=_positive_int, required=True)
    p.add_argument("--mode", choices=("exponential", "linearised"), default="exponential")
    p.add_argument("--dim", type=_positive_int, default=None)
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--truth", default=None, help="partition file with ground-truth labels")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("compare", help="compare two partition files")
    p.add_argument("partition_a", help="treated as the ground truth for the uncertainty coefficient")
    p.add_argument("partition_b")
    p.add_argument("--sankey", default=None, help="write contingency links as JSON here")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VecpartError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
