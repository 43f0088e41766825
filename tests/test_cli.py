import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vecpart as vp
from vecpart import cli
from vecpart.cli import _emit_report, main, validate_report
from helpers import PAIRGRAPH4_TEXT, random_connected_graph, scaled_weight_graph


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "pairgraph4.txt"
    path.write_text(PAIRGRAPH4_TEXT)
    return str(path)


def write_partition(tmp_path, name, labels):
    path = tmp_path / name
    path.write_text("".join(f"{i} {g}\n" for i, g in enumerate(labels)))
    return str(path)


def strip_timing(path):
    report = json.loads(open(path).read())
    report.pop("timing_ms")
    return json.dumps(report, sort_keys=True)


class TestDecompose:
    def test_pairgraph4_eigenvalues_printed(self, graph_file, capsys):
        assert main(["decompose", graph_file]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert values == pytest.approx([1.0, 0.666667, -0.833333, -0.833333], abs=1e-6)

    def test_triangle(self, tmp_path, capsys):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        assert main(["decompose", str(path)]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert values == pytest.approx([1.0, -0.5, -0.5], abs=1e-6)

    def test_modularity_source(self, graph_file, capsys):
        assert main(["decompose", graph_file, "--source", "modularity"]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        expected = vp.decompose_modularity_matrix(vp.load_edge_list(PAIRGRAPH4_TEXT)).eigenvalues
        assert values == pytest.approx(expected.tolist(), abs=1e-6)

    def test_output_option_is_gone(self, graph_file, tmp_path):
        assert main(["decompose", graph_file, "--output", str(tmp_path / "b.json")]) == 2
        assert not (tmp_path / "b.json").exists()

    def test_disconnected_graph_fails_with_named_error(self, tmp_path, capsys):
        path = tmp_path / "disc.txt"
        path.write_text("0 1\n2 3\n")
        code = main(["decompose", str(path)])
        assert code == vp.Disconnected.exit_code
        assert "Disconnected" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["decompose", str(tmp_path / "nope.txt")])
        assert code == 3


class TestPartition:
    def test_pairgraph4_exponential_t5(self, graph_file, tmp_path):
        out = tmp_path / "report.json"
        pout = tmp_path / "partition.txt"
        code = main(
            [
                "partition",
                graph_file,
                "--mode",
                "exponential",
                "--time",
                "5",
                "--dim",
                "3",
                "--output",
                str(out),
                "--partition-out",
                str(pout),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        validate_report(report)
        record = report["records"][0]
        assert record["partition"] == [0, 0, 1, 1]
        assert record["num_communities"] == 2
        assert record["objective"] == pytest.approx(math.exp(-5.0 / 3.0) / 2.0, abs=1e-9)
        assert report["graph"]["n"] == 4 and report["graph"]["m"] == 24.0
        assert "diagnostics" in report
        assert pout.read_text() == "0 0\n1 0\n2 1\n3 1\n"

    def test_linearised_objective_equals_modularity(self, graph_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["partition", graph_file, "--mode", "linearised", "--time", "1", "--output", str(out)]) == 0
        record = json.loads(out.read_text())["records"][0]
        g = vp.load_edge_list(PAIRGRAPH4_TEXT)
        q = vp.modularity_score(g, vp.Partition.from_labels(record["partition"]))
        assert record["objective"] == pytest.approx(q, abs=1e-10)

    def test_modularity_mode_ignores_time(self, graph_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["partition", graph_file, "--mode", "modularity", "--time", "9", "--output", str(out)]) == 0
        record = json.loads(out.read_text())["records"][0]
        assert record["time"] is None
        assert record["mode"] == "modularity"

    def test_spectral_health_in_diagnostics(self, graph_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["partition", graph_file, "--time", "5", "--dim", "2", "--output", str(out)]) == 0
        health = json.loads(out.read_text())["diagnostics"]["spectral"]
        assert health["solver"] == "eigh" and health["pairs"] == 4
        assert 0 <= health["max_residual"] <= 1e-12
        # dim 2 cuts inside the double eigenvalue -5/6 of pairgraph4
        assert health["gap_at_dim"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["exponential", "modularity"])
    def test_low_dim_on_a_large_graph_uses_the_truncated_solver(self, tmp_path, mode):
        g, _ = vp.planted_partition(6, 50, 0.3, 0.01, seed=0)
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        args = ["partition", str(path), "--mode", mode, "--dim", "5", "--restarts", "2"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert strip_timing(out1) == strip_timing(out2)
        report = json.loads(out1.read_text())
        health = report["diagnostics"]["spectral"]
        assert health["solver"] == "lanczos" and health["pairs"] == 7
        assert health["max_residual"] <= 1e-10 and health["gap_at_dim"] > 0
        assert report["records"][0]["num_communities"] == 6

    def test_full_dim_linearised_objective_equals_linearised_stability(self, tmp_path):
        g = random_connected_graph(5, n=12, weighted=True)
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        out = tmp_path / "report.json"
        args = ["partition", str(path), "--mode", "linearised", "--time", "0.7", "--restarts", "3"]
        assert main(args + ["--output", str(out)]) == 0
        report = json.loads(out.read_text())
        record = report["records"][0]
        expected = vp.linearised_stability(g, vp.Partition.from_labels(record["partition"]), 0.7)
        assert record["objective"] == pytest.approx(expected, abs=1e-10)
        assert set(report["diagnostics"]["paths_per_level"]) == {"graph"}

    def test_report_names_the_path_of_each_level(self, graph_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["partition", graph_file, "--time", "5", "--dim", "2", "--output", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        # 4 vectors of dimension 2 start in vector space; 2 groups end in Gram space
        assert diagnostics["paths_per_level"] == ["vector", "gram"]
        assert len(diagnostics["sweeps_per_level"]) == 2

    @pytest.mark.parametrize(
        "mode, t",
        [
            ("exponential", "-1"),
            ("linearised", "0"),
            ("linearised", "inf"),
            ("exponential", "inf"),
            ("modularity", "inf"),
            ("modularity", "nan"),
        ],
    )
    def test_time_outside_the_mode_domain_is_usage_error(self, graph_file, capsys, mode, t):
        assert main(["partition", graph_file, "--mode", mode, "--time", t]) == 2
        assert "usage" in capsys.readouterr().err

    def test_infinite_weight_is_named_error(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2 inf\n")
        assert main(["partition", str(path)]) == vp.NonFiniteWeight.exit_code
        assert "NonFiniteWeight: line 2" in capsys.readouterr().err

    def test_overflowing_weights_are_named_error(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1e308\n1 2 1e308\n2 3 1e308\n0 3 1e308\n")
        assert main(["partition", str(path)]) == vp.TooLarge.exit_code
        assert "TooLarge" in capsys.readouterr().err

    def test_dim_zero_is_flag_error(self, graph_file):
        assert main(["partition", graph_file, "--dim", "0"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["partition", "--mode", "exponential"],
            ["partition", "--mode", "linearised"],
            ["partition", "--mode", "modularity"],
            ["scan", "--tmin", "1", "--tmax", "2", "--npoints", "2", "--mode", "exponential"],
            ["scan", "--tmin", "1", "--tmax", "2", "--npoints", "2", "--mode", "linearised"],
        ],
    )
    @pytest.mark.parametrize("dim", ["4", "5000"])
    def test_dim_of_n_or_more_fails_before_any_decomposition(self, graph_file, monkeypatch, capsys, args, dim):
        def no_decomposition(*_args, **_kwargs):
            raise AssertionError("decomposed before checking --dim")

        monkeypatch.setattr(vp.spectral, "_eigenpairs", no_decomposition)
        assert main([args[0], graph_file, *args[1:], "--dim", dim]) == vp.DimOutOfRange.exit_code
        assert f"DimOutOfRange: dim must be in [1, 3], got {dim}" in capsys.readouterr().err

    def test_stdout_when_no_output_flag(self, graph_file, capsys):
        assert main(["partition", graph_file, "--mode", "exponential", "--time", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)


class TestGraphSpace:
    """Full-dimension linearised and modularity runs optimise the graph's quality matrix."""

    @staticmethod
    def planted_file(tmp_path, seed=0):
        g, _ = vp.planted_partition(4, 25, 0.3, 0.02, seed=seed)
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        return g, str(path)

    @pytest.mark.parametrize(
        "mode, extra", [("linearised", ["--time", "0.8"]), ("modularity", []), ("linearised", ["--dim", "99"])]
    )
    def test_report_names_the_graph_solver_and_is_valid(self, tmp_path, mode, extra):
        g, path = self.planted_file(tmp_path)
        out = tmp_path / "report.json"
        assert main(["partition", path, "--mode", mode, *extra, "--restarts", "2", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        validate_report(report)
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft7Validator(json.loads(cli._SCHEMA_PATH.read_text(encoding="utf-8"))).validate(report)
        assert report["diagnostics"]["spectral"] == {"solver": "graph"}
        assert set(report["diagnostics"]["paths_per_level"]) == {"graph"}
        record = report["records"][0]
        assert record["dim"] == g.n - 1
        partition = vp.Partition.from_labels(record["partition"])
        if mode == "modularity":
            assert record["objective"] == vp.modularity_score(g, partition)
        else:
            assert record["objective"] == vp.linearised_stability(g, partition, record["time"])

    @pytest.mark.parametrize("mode", ["linearised", "modularity"])
    def test_decomposes_nothing(self, tmp_path, monkeypatch, mode):
        def fail(*args, **kwargs):
            raise AssertionError("decomposed on the graph-space path")

        monkeypatch.setattr(cli, "decompose_transition", fail)
        monkeypatch.setattr(cli, "decompose_modularity_matrix", fail)
        _, path = self.planted_file(tmp_path)
        assert main(["partition", path, "--mode", mode, "--restarts", "1", "--output", str(tmp_path / "r.json")]) == 0

    def test_other_runs_keep_the_eigensolver(self, tmp_path):
        _, path = self.planted_file(tmp_path)
        for args in (["--mode", "exponential"], ["--mode", "linearised", "--dim", "98"]):
            out = tmp_path / "report.json"
            assert main(["partition", path, *args, "--restarts", "1", "--output", str(out)]) == 0
            assert json.loads(out.read_text())["diagnostics"]["spectral"]["solver"] == "eigh"

    def test_scan_records_equal_partition_runs(self, tmp_path):
        _, path = self.planted_file(tmp_path, seed=2)
        scan = tmp_path / "scan.json"
        common = ["--mode", "linearised", "--restarts", "3", "--seed", "4"]
        assert main(["scan", path, "--tmin", "0.2", "--tmax", "6", "--npoints", "5", *common, "--output", str(scan)]) == 0
        records = json.loads(scan.read_text())["records"]
        assert len({r["num_communities"] for r in records}) > 1
        for record in records:
            out = tmp_path / "partition.json"
            assert main(["partition", path, "--time", repr(record["time"]), *common, "--output", str(out)]) == 0
            record.pop("vi_prev", None)
            assert json.loads(out.read_text())["records"] == [record]


class TestHugeWeights:
    """Weights at the ends of the float64 range. Squared degrees that
    overflow fail modularity mode alone, which needs d d^T; degrees whose
    reciprocals overflow fail at load."""

    @staticmethod
    def cycle4(tmp_path, weight):
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{i} {j} {weight}\n" for i, j in ((0, 1), (1, 2), (2, 3), (0, 3))))
        return str(path)

    def test_modularity_overflow_is_named_error(self, tmp_path, capsys):
        path = self.cycle4(tmp_path, "1e200")
        assert main(["partition", path, "--mode", "modularity"]) == vp.TooLarge.exit_code
        assert main(["decompose", path, "--source", "modularity"]) == vp.TooLarge.exit_code
        err = capsys.readouterr().err
        assert err.count("error: TooLarge") == 2 and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["exponential", "linearised"])
    def test_transition_modes_still_run(self, tmp_path, capsys, mode):
        assert main(["partition", self.cycle4(tmp_path, "1e200"), "--mode", mode]) == 0
        validate_report(json.loads(capsys.readouterr().out))

    def test_modularity_runs_below_the_overflow(self, tmp_path, capsys):
        records = []
        for weight in ("1e153", "1"):
            assert main(["partition", self.cycle4(tmp_path, weight), "--mode", "modularity"]) == 0
            report = json.loads(capsys.readouterr().out)
            validate_report(report)
            records.append(report["records"][0])
        assert records[0]["partition"] == records[1]["partition"]
        assert records[0]["objective"] == pytest.approx(records[1]["objective"], abs=1e-12)

    @pytest.mark.parametrize("mode", ["exponential", "linearised", "modularity"])
    @pytest.mark.parametrize("dim", [["--dim", "14"], []], ids=["dim14", "full"])
    def test_subnormal_weights_fail_at_load(self, tmp_path, capsys, mode, dim):
        g, _ = vp.planted_partition(4, 25, 0.3, 0.02, seed=0)
        path = tmp_path / "g.txt"
        weights = (5e-324 * (1 + e % 3) for e in range(g.num_edges))  # subnormal, cycled by edge index
        path.write_text("".join(f"{i} {j} {w!r}\n" for (i, j), w in zip(g.edge_index.tolist(), weights)))
        assert main(["partition", str(path), "--mode", mode, *dim]) == vp.TooLarge.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error: TooLarge: node ") and "reciprocal" in err

    @staticmethod
    def heavy_modularity_job(tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(scaled_weight_graph(20).to_edge_list_text())
        return ["partition", str(path), "--mode", "modularity", "--dim", "14", "--restarts", "3"]

    def test_group_sum_drift_is_named_error(self, tmp_path, capsys, monkeypatch):
        # Weights times 4^20 drift the group sums by about 2e-9: past the
        # unscaled run's bound of 1e-9, forced here, though within their own.
        tolerances = vp.vp.tolerances
        monkeypatch.setattr(vp.vp, "tolerances", lambda mode, m: (*tolerances(mode, m)[:2], 1e-9))
        assert main(self.heavy_modularity_job(tmp_path)) == vp.StateDrift.exit_code == 30
        assert capsys.readouterr().err.startswith("error: StateDrift: group sums drifted by ")

    def test_group_sums_of_large_weights_drift_within_their_units(self, tmp_path, capsys):
        assert main(self.heavy_modularity_job(tmp_path)) == 0
        validate_report(json.loads(capsys.readouterr().out))


class TestUndecodableInput:
    """A file that is not UTF-8 text is a malformed input, exit 10, not a
    UnicodeDecodeError traceback."""

    @staticmethod
    def write_bytes(tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    def test_graph_file(self, tmp_path, capsys):
        path = self.write_bytes(tmp_path, "g.txt", b"0 1\n1 2 \xff\n0 2\n")
        assert main(["partition", path]) == vp.MalformedLine.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedLine: line ") and "not utf-8 text (byte 0xff" in err
        assert "Traceback" not in err

    def test_truth_file_of_a_scan(self, graph_file, tmp_path, capsys):
        truth = self.write_bytes(tmp_path, "truth.txt", b"0 0\n1 \xff\n2 1\n3 1\n")
        args = ["scan", graph_file, "--tmin", "0.5", "--tmax", "2", "--npoints", "2", "--truth", truth]
        assert main(args) == vp.MalformedLine.exit_code
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedLine: {truth} line ") and "Traceback" not in err

    def test_partition_file_of_a_compare(self, tmp_path, capsys):
        a = write_partition(tmp_path, "a.txt", [0, 0, 1])
        b = self.write_bytes(tmp_path, "b.txt", b"0 0\n1 \xff\n2 1\n")
        assert main(["compare", a, b]) == vp.MalformedLine.exit_code
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedLine: {b} line ") and "Traceback" not in err


class TestOverflowingObjective:
    """A Markov time so large that the reported objective overflows is
    TooLarge, exit 28, not the report validator's traceback."""

    @pytest.fixture()
    def triangle(self, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        return str(path)

    @pytest.mark.parametrize(
        "args",
        [
            ["partition", "{graph}", "--mode", "linearised", "--time", "1e308"],
            ["scan", "{graph}", "--mode", "linearised", "--tmin", "1", "--tmax", "1e308", "--npoints", "2"],
        ],
        ids=["partition", "scan"],
    )
    def test_linearised_overflow_is_too_large(self, triangle, capsys, args):
        assert main([a.format(graph=triangle) for a in args]) == vp.TooLarge.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error: TooLarge: the linearised objective at t = 1e+308")
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "exponential"],
            ["--mode", "exponential", "--dim", "1"],
            ["--mode", "linearised", "--dim", "1"],
        ],
        ids=["exponential", "exponential-dim1", "linearised-dim1"],
    )
    def test_finite_objectives_at_the_same_time_still_run(self, triangle, capsys, args):
        assert main(["partition", triangle, "--time", "1e308", *args]) == 0
        validate_report(json.loads(capsys.readouterr().out))


class TestLargeExponentialTime:
    """The stationary eigenvalue of a 3-node path comes out as 1 + eps; at a
    large Markov time its weight must not overflow, nor print a warning."""

    @pytest.fixture()
    def path3(self, tmp_path):
        path = tmp_path / "path3.txt"
        path.write_text("0 1\n1 2\n")
        return str(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "args",
        [
            ["partition", "{graph}", "--mode", "exponential", "--time", "1e300"],
            ["scan", "{graph}", "--tmin", "1", "--tmax", "1e300", "--npoints", "2"],
        ],
        ids=["partition", "scan"],
    )
    def test_runs_without_a_warning(self, path3, capsys, args):
        assert main([a.format(graph=path3) for a in args]) == 0
        captured = capsys.readouterr()
        validate_report(json.loads(captured.out))
        assert "Warning" not in captured.err


class TestExtremeTimes:
    """Markov times near the float64 limit end in a report or a named error,
    never in a warning."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exponential_weights_that_underflow_to_zero(self, tmp_path, capsys):
        path = tmp_path / "g4.txt"
        path.write_text("0 2 2.5\n0 1 2.5\n0 3 7\n1 2 2.5\n")
        assert main(["partition", str(path), "--mode", "exponential", "--time", "1e308"]) == 0
        captured = capsys.readouterr()
        validate_report(json.loads(captured.out))
        assert "Warning" not in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "args",
        [
            ["partition", "{graph}", "--mode", "linearised", "--time", "1e308", "--dim", "2"],
            ["scan", "{graph}", "--mode", "linearised", "--dim", "2", "--tmin", "1", "--tmax", "1e308", "--npoints", "2"],
        ],
        ids=["partition", "scan"],
    )
    def test_linearised_weights_that_overflow_are_too_large(self, tmp_path, capsys, args):
        path = tmp_path / "g4.txt"
        path.write_text("0 2 2.5\n0 1 2.5\n0 3 7\n1 2 2.5\n")
        assert main([a.format(graph=path) for a in args]) == vp.TooLarge.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error: TooLarge: the linearised weights 1 - t (1 - lambda) overflow at t = 1e+308")
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_linearised_factor_that_overflows_is_too_large(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1 1e-308\n1 2 1e-308\n2 3 1e-308\n0 3 1e-308\n")
        g = vp.load_edge_list(path.read_text())
        with pytest.raises(vp.TooLarge, match=r"^t / 2m is inf at t = 1e\+308"):
            vp.partition_vectors(vp.QualityMatrix(g, "linearised", 1e308))
        assert main(["partition", str(path), "--mode", "linearised", "--time", "1e308"]) == vp.TooLarge.exit_code == 28
        assert "t / 2m is inf" in capsys.readouterr().err

    GRID_GRAPHS = {
        "g5": "1 4\n0 1\n1 3\n0 4\n1 2\n2 3\n",
        "g4": "0 2 2.5\n0 1 2.5\n0 3 7\n1 2 2.5\n",
        "g5w3": "0 2 3\n1 2 3\n1 3 3\n2 3 3\n1 4 3\n0 1 3\n2 4 3\n",
    }
    GRID_TIMES = [*np.geomspace(1e-300, 1e308, 13), 5e-324, np.finfo(np.float64).max]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", [[], ["--dim", "1"], ["--dim", "2"]], ids=["full", "dim1", "dim2"])
    @pytest.mark.parametrize("mode", ["exponential", "linearised"])
    @pytest.mark.parametrize("graph", sorted(GRID_GRAPHS))
    def test_every_time_on_a_grid_gives_a_report_or_a_named_error(self, tmp_path, capsys, graph, mode, dim):
        # Which named error comes out is not pinned: some are defects of the
        # tolerances at large t, and mending them turns them into reports.
        errors = [cls for cls in vars(vp.errors).values() if isinstance(cls, type) and issubclass(cls, vp.VecpartError)]
        named = {cls.__name__: cls.exit_code for cls in errors}
        path = tmp_path / f"{graph}.txt"
        path.write_text(self.GRID_GRAPHS[graph])
        for t in self.GRID_TIMES:
            code = main(["partition", str(path), "--mode", mode, "--time", repr(float(t)), "--restarts", "2", *dim])
            out, err = capsys.readouterr()
            if code == 0:
                validate_report(json.loads(out))
            else:
                name = re.match(r"error: (\w+): ", err)
                assert name and named.get(name[1]) == code, (t, code, err)


class TestSweepCap:
    """A level whose sweeps keep moving vectors stops at the sweep cap with
    LevelCapExceeded, exit 27, instead of running until it is killed."""

    G5 = "1 4\n0 1\n1 3\n0 4\n1 2\n2 3\n"

    def run(self, tmp_path, prelude: str = "") -> subprocess.CompletedProcess:
        path = tmp_path / "g5.txt"
        path.write_text(self.G5)
        src = str(Path(vp.__file__).resolve().parent.parent)
        code = f"import sys\n{prelude}from vecpart.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        return subprocess.run(
            [sys.executable, "-c", code, "partition", str(path), "--mode", "linearised", "--time", "1e6"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=30,
        )

    def test_a_level_at_the_sweep_cap_exits_27(self, tmp_path):
        # Level 0 moves in its first sweep, so a cap of one sweep stops it.
        result = self.run(tmp_path, "import vecpart.vp\nvecpart.vp.MAX_SWEEPS = 1\n")
        assert result.returncode == vp.LevelCapExceeded.exit_code == 27, result.stderr
        assert result.stderr == "error: LevelCapExceeded: level 0 still moves vectors after the sweep cap of 1 sweeps\n"

    def test_the_graph_level_ends_where_the_dense_gram_livelocked(self, tmp_path):
        # At linearised t = 1e6 a dense Gram level moved one vector back and
        # forth on roundoff gains until the cap; the graph level converges.
        result = self.run(tmp_path)
        assert result.returncode == 0, result.stderr
        validate_report(json.loads(result.stdout))


class TestDenseMemoryGuard:
    """A dense n x n array larger than the machine's physical memory is
    refused with TooLarge before it is allocated, on a path of n nodes; a
    full-dimension linearised run on the same path forms no dense array."""

    @staticmethod
    def run_on_path(tmp_path, args: list[str], address_space: int) -> subprocess.CompletedProcess:
        """Run the CLI on the path, in a process whose address space is
        capped, so that a missing guard fails with MemoryError instead of
        exhausting the machine."""
        n = math.isqrt(vp.graph.PHYSICAL_MEMORY // 8) + 1  # one n x n float64 array exceeds it
        path = tmp_path / "path.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))

        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

        src = str(Path(vp.__file__).resolve().parent.parent)
        return subprocess.run(
            [sys.executable, "-m", "vecpart.cli", args[0], str(path), *args[1:]],
            capture_output=True,
            text=True,
            preexec_fn=cap,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )

    @pytest.mark.parametrize(
        "args",
        [["partition", "--mode", "exponential"], ["decompose"]],
        ids=["partition-exponential", "decompose"],
    )
    def test_path_graph_too_large_for_a_dense_matrix(self, tmp_path, args):
        result = self.run_on_path(tmp_path, args, vp.graph.PHYSICAL_MEMORY // 2)
        assert result.returncode == vp.TooLarge.exit_code, result.stderr
        assert result.stderr.startswith("error: TooLarge: a dense") and "Traceback" not in result.stderr

    def test_a_full_dimension_linearised_run_on_the_path_ends_in_a_report(self, tmp_path):
        # Level 0 pairs the nodes: c = n / 2 groups, whose c x c matrix would not fit in 1 GiB.
        args = ["partition", "--mode", "linearised", "--time", "1", "--restarts", "1"]
        result = self.run_on_path(tmp_path, args, 2**30)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        validate_report(report)
        assert set(report["diagnostics"]["paths_per_level"]) == {"graph"}


class TestScan:
    def test_pairgraph4_grid(self, graph_file, tmp_path):
        out = tmp_path / "scan.json"
        code = main(
            [
                "scan",
                graph_file,
                "--tmin",
                "0.01",
                "--tmax",
                "10",
                "--npoints",
                "25",
                "--dim",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        validate_report(report)
        counts = [r["num_communities"] for r in report["records"]]
        assert len(counts) == 25
        assert counts[0] == 4 and counts[-1] == 2
        assert sum(1 for a, b in zip(counts, counts[1:]) if a != b) == 1
        assert "vi_prev" in report["records"][1]
        assert "vi_prev" not in report["records"][0]

    @pytest.mark.parametrize("mode, t", [("exponential", "2.5"), ("linearised", "0.8")])
    def test_single_point_record_equals_the_partition_record(self, tmp_path, mode, t):
        g, truth = vp.planted_partition(4, 25, 0.3, 0.02, seed=1)
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        truth_file = write_partition(tmp_path, "truth.txt", truth.assignment)
        common = ["--mode", mode, "--dim", "5", "--restarts", "3", "--seed", "2"]
        scan, single = tmp_path / "scan.json", tmp_path / "partition.json"
        grid = ["--tmin", t, "--tmax", t, "--npoints", "1", "--truth", truth_file]
        assert main(["scan", str(path), *grid, *common, "--output", str(scan)]) == 0
        assert main(["partition", str(path), "--time", t, *common, "--output", str(single)]) == 0
        (record,) = json.loads(scan.read_text())["records"]
        assert {"nmi", "uncertainty"} <= set(record)
        for key in ("nmi", "uncertainty", "vi_prev"):
            record.pop(key, None)
        assert json.loads(single.read_text())["records"] == [record]

    def test_single_point(self, graph_file, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", graph_file, "--tmin", "1", "--tmax", "1", "--npoints", "1", "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["records"]) == 1

    def test_truth_metrics_included(self, graph_file, tmp_path):
        truth = write_partition(tmp_path, "truth.txt", [0, 0, 1, 1])
        out = tmp_path / "scan.json"
        code = main(
            ["scan", graph_file, "--tmin", "0.5", "--tmax", "5", "--npoints", "3", "--truth", truth, "--output", str(out)]
        )
        assert code == 0
        for record in json.loads(out.read_text())["records"]:
            assert "nmi" in record and "uncertainty" in record

    def test_truth_wrong_node_count(self, graph_file, tmp_path, capsys):
        truth = write_partition(tmp_path, "truth.txt", [0, 0, 1])
        code = main(["scan", graph_file, "--tmin", "0.5", "--tmax", "5", "--npoints", "2", "--truth", truth])
        assert code == vp.SizeMismatch.exit_code
        assert "SizeMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("npoints", [10**12, 2**62, 10**20])
    def test_absurd_npoints_is_too_large(self, graph_file, capsys, npoints):
        args = ["scan", graph_file, "--tmin", "0.1", "--tmax", "10", "--npoints", str(npoints)]
        assert main(args) == vp.TooLarge.exit_code
        err = capsys.readouterr().err
        assert f"TooLarge: {npoints} grid points" in err and "Traceback" not in err

    def test_bad_grid_is_usage_error(self, graph_file):
        assert main(["scan", graph_file, "--tmin", "0", "--tmax", "1", "--npoints", "3"]) == 2
        assert main(["scan", graph_file, "--tmin", "5", "--tmax", "1", "--npoints", "3"]) == 2
        for mode in ("exponential", "linearised"):
            assert main(["scan", graph_file, "--tmin", "0.1", "--tmax", "inf", "--npoints", "3", "--mode", mode]) == 2

    def test_grid_checked_before_the_graph_loads(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        assert main(["scan", missing, "--tmin", "5", "--tmax", "1", "--npoints", "3"]) == 2
        assert "error: usage: need finite 0 < t_min <= t_max" in capsys.readouterr().err
        assert main(["scan", missing, "--tmin", "0.1", "--tmax", "10", "--npoints", str(10**12)]) == vp.TooLarge.exit_code


class TestCompare:
    def test_identical_partitions(self, tmp_path, capsys):
        a = write_partition(tmp_path, "a.txt", [0, 0, 1, 1])
        b = write_partition(tmp_path, "b.txt", [1, 1, 0, 0])
        assert main(["compare", a, b]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
        assert float(out["nmi"]) == pytest.approx(1.0)
        assert float(out["vi"]) == pytest.approx(0.0)

    def test_coarsening_uncertainty_one(self, tmp_path, capsys):
        truth = write_partition(tmp_path, "a.txt", [0, 0, 1, 1, 2, 2])
        coarse = write_partition(tmp_path, "b.txt", [0, 0, 0, 0, 1, 1])
        assert main(["compare", truth, coarse]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
        assert float(out["uncertainty"]) == pytest.approx(1.0)

    def test_independent_halvings_vi(self, tmp_path, capsys):
        a = write_partition(tmp_path, "a.txt", [0, 0, 1, 1])
        b = write_partition(tmp_path, "b.txt", [0, 1, 0, 1])
        assert main(["compare", a, b]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
        assert float(out["vi"]) == pytest.approx(1.386294, abs=1e-6)

    def test_sankey_export(self, tmp_path, capsys):
        a = write_partition(tmp_path, "a.txt", [0, 0, 1, 1, 2, 2])
        b = write_partition(tmp_path, "b.txt", [0, 0, 0, 0, 1, 1])
        sankey = tmp_path / "sankey.json"
        assert main(["compare", a, b, "--sankey", str(sankey)]) == 0
        links = json.loads(sankey.read_text())
        assert links == [
            {"from": 0, "to": 0, "count": 2},
            {"from": 1, "to": 0, "count": 2},
            {"from": 2, "to": 1, "count": 2},
        ]

    def test_size_mismatch(self, tmp_path, capsys):
        a = write_partition(tmp_path, "a.txt", [0, 0, 1, 1])
        b = write_partition(tmp_path, "b.txt", [0, 1, 0])
        assert main(["compare", a, b]) == vp.SizeMismatch.exit_code

    def test_malformed_partition_file(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("0 0\n2 1\n")  # node 1 missing
        b = write_partition(tmp_path, "b.txt", [0, 1])
        assert main(["compare", str(a), str(b)]) == vp.MalformedLine.exit_code


class TestDeterminism:
    def test_repeated_runs_byte_identical_except_timing(self, graph_file, tmp_path):
        args = [
            "scan",
            graph_file,
            "--tmin",
            "0.05",
            "--tmax",
            "8",
            "--npoints",
            "7",
            "--dim",
            "3",
            "--restarts",
            "5",
            "--seed",
            "0",
        ]
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert strip_timing(out1) == strip_timing(out2)

    def test_partition_runs_byte_identical_except_timing(self, graph_file, tmp_path):
        args = ["partition", graph_file, "--time", "2", "--seed", "3", "--restarts", "4"]
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert strip_timing(out1) == strip_timing(out2)


    @pytest.mark.parametrize("mode", ["linearised", "modularity"])
    def test_graph_space_reports_do_not_depend_on_blas_threads(self, tmp_path, mode):
        # On this graph the spectral path's partitions differ between one and
        # two BLAS threads, in both modes: exact gain ties decided by roundoff.
        g, _ = vp.planted_partition(8, 50, 0.15, 0.01, seed=2)
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        src = str(Path(vp.__file__).resolve().parents[1])
        texts = []
        for threads in ("1", "2"):
            out = tmp_path / f"report{threads}.json"
            env = dict(os.environ, PYTHONPATH=src)
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "vecpart.cli", "partition", str(path), "--mode", mode,
                 "--time", "1", "--restarts", "2", "--output", str(out)],
                env=env, check=True, timeout=120,
            )
            text, masked = re.subn(r'"timing_ms": [^,\n]+', '"timing_ms": 0', out.read_text())
            assert masked == 1
            texts.append(text)
        assert texts[0] == texts[1]
        paths = json.loads(texts[0])["diagnostics"]["paths_per_level"]
        assert len(paths) > 1 and set(paths) == {"graph"}  # the group graph levels too


class TestReportSchema:
    def test_schema_file_committed_and_consistent(self):
        import importlib.resources as resources

        schema = json.loads(
            resources.files("vecpart").joinpath("report_schema.json").read_text()
        )
        assert set(schema["required"]) == {"version", "graph", "params", "records", "timing_ms"}
        record_schema = schema["properties"]["records"]["items"]
        assert set(record_schema["required"]) == {
            "time",
            "dim",
            "mode",
            "num_communities",
            "objective",
            "partition",
        }

    def test_validator_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            validate_report({"version": "0.1.0"})
        with pytest.raises(ValueError):
            validate_report(
                {
                    "version": "0.1.0",
                    "graph": {"n": 1, "m": 1.0, "edges": 1, "sha256": "x"},
                    "params": {},
                    "records": [{"time": 1.0}],
                    "timing_ms": 0.0,
                }
            )

    @staticmethod
    def valid_report():
        return {
            "version": "0.1.0",
            "graph": {"n": 2, "m": 1.0, "edges": 1, "sha256": "0" * 64},
            "params": {},
            "records": [
                {"time": 1.0, "dim": 1, "mode": "exponential", "num_communities": 1, "objective": 0.0, "partition": [0, 0]}
            ],
            "timing_ms": 0.0,
        }

    @pytest.mark.parametrize(
        "field, value, path",
        [("objective", math.nan, "records[0].objective"), ("objective", math.inf, "records[0].objective"),
         ("dim", True, "records[0].dim"), ("time", False, "records[0].time")],
    )
    def test_validator_rejects_non_finite_and_bool_numbers(self, field, value, path):
        report = self.valid_report()
        validate_report(report)
        report["records"][0][field] = value
        with pytest.raises(ValueError, match=re.escape(f"report.{path}:")):
            validate_report(report)

    def test_validator_names_the_failing_path(self):
        report = self.valid_report()
        report["records"][0]["partition"][1] = -1
        with pytest.raises(ValueError, match=re.escape("report.records[0].partition[1]: -1 is below the minimum 0")):
            validate_report(report)

    def test_validator_rejects_a_sha256_with_a_trailing_newline(self):
        # ECMA-262 reads the schema's ^...$ as the whole string; Python's $
        # also matches before a final newline, which let this digest through.
        report = self.valid_report()
        report["graph"]["sha256"] = "0" * 64 + "\n"
        with pytest.raises(ValueError, match=re.escape("report.graph.sha256:")):
            validate_report(report)

    def test_emitted_report_is_strict_json(self, capsys):
        report = self.valid_report()
        report["diagnostics"] = {"gap": math.nan}
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit_report(report, None)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "schema",
        [{"type": "object", "additionalProperties": False},
         {"properties": {"x": {"type": "number", "maximum": 1}}},
         {"items": [{"type": "integer"}]},
         {"properties": {"s": {"type": "string", "pattern": "[0-9a-f]{64}"}}}],
    )
    def test_unchecked_schema_keyword_raises(self, schema):
        with pytest.raises(NotImplementedError, match="validate_report cannot check"):
            cli._check_keywords(schema, "#")


class TestUsage:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert vp.__version__ in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
