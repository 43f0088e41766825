"""Run one vecpart CLI job in-process, timing the calls into each module.

Usage: python3 perfbench/tracejob.py TRACE_FILE -- CLI_ARGS...

The public functions are wrapped at the names each module imports them
under (``vecpart.cli.best_of_restarts``, ``vecpart.harness.partition_vectors``,
``vecpart.vp.stability``, ...), then ``vecpart.cli.main(CLI_ARGS)`` runs.
Each finished call appends one JSON line to TRACE_FILE with its layer,
start, end, inclusive and self time; a ``vp`` call also writes a line when
it starts, so a call that never returns shows. The last line holds the
import time of ``vecpart.cli`` and the wall time of ``main``. The process
exits with the CLI's exit code.
"""

import json
import resource
import sys
import time

# Only the standard library is imported above, so this times the whole
# import a fresh CLI process pays.
_started = time.perf_counter()
import vecpart.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _started

# (module, attribute) -> layer. Each name is looked up at call time by the
# module that imports it, so wrapping the attribute intercepts those calls.
WRAPPED = {
    ("vecpart.cli", "load_edge_list"): "graph.load",
    ("vecpart.cli", "decompose_transition"): "spectral.decompose",
    ("vecpart.cli", "decompose_modularity_matrix"): "spectral.decompose",
    ("vecpart.harness", "decompose_transition"): "spectral.decompose",
    ("vecpart.cli", "build_embedding"): "spectral.embed",
    ("vecpart.harness", "build_embedding"): "spectral.embed",
    ("vecpart.cli", "best_of_restarts"): "harness",
    ("vecpart.cli", "time_scan"): "harness",
    ("vecpart.harness", "best_of_restarts"): "harness",
    ("vecpart.harness", "partition_vectors"): "vp",
    ("vecpart.vp", "stability"): "objective",
    ("vecpart.harness", "nmi"): "metrics",
    ("vecpart.harness", "uncertainty_coefficient"): "metrics",
    ("vecpart.harness", "variation_of_information"): "metrics",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span stack that writes each finished span as a JSON line."""

    def __init__(self, out) -> None:
        self.out = out
        self.stack: list[float] = []  # child time accumulated by each open span

    def emit(self, record: dict) -> None:
        self.out.write(json.dumps(record) + "\n")
        self.out.flush()

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            if layer == "vp":
                self.emit({"enter": layer})
            rss = _maxrss_mb()
            self.stack.append(0.0)
            start = time.perf_counter()
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                child = self.stack.pop()
                incl = end - start
                if self.stack:
                    self.stack[-1] += incl
                record = {"layer": layer, "start": start, "end": end, "incl": incl,
                          "self": incl - child, "ok": ok}
                if ok:
                    record.update(_counts(layer, args, result, rss))
                self.emit(record)

        return traced


def _counts(layer: str, args: tuple, result, rss_before: float) -> dict:
    if layer == "graph.load":
        return {"edges": result.num_edges}
    if layer == "spectral.decompose":
        return {"pairs": int(result.eigenvalues.size), "rss_delta_mb": _maxrss_mb() - rss_before}
    if layer == "vp":
        diag = result[2]
        return {"dim": int(args[0].dim), "levels": diag.levels,
                "sweeps": sum(diag.sweeps_per_level), "moves": sum(diag.moves_per_level)}
    return {}


def main() -> int:
    trace_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracejob.py TRACE_FILE -- CLI_ARGS...")
    with open(trace_path, "w", encoding="utf-8") as out:
        tracer = Tracer(out)
        for (module, name), layer in WRAPPED.items():
            mod = sys.modules[module]
            setattr(mod, name, tracer.wrap(layer, getattr(mod, name)))
        start = time.perf_counter()
        code = vecpart.cli.main(cli_args)
        tracer.emit({"import_s": IMPORT_S, "main_s": time.perf_counter() - start, "rc": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
