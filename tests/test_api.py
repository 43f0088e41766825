"""The public surface: every exported name resolves, and exit codes stay distinct."""

import ast
from pathlib import Path

import numpy as np
import pytest

import vecpart as vp
from helpers import pairgraph4


@pytest.mark.parametrize("name", vp.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(vp, name, None) is not None, f"vecpart.__all__ lists {name!r}, which is not defined"


def test_all_lists_no_name_twice():
    assert len(vp.__all__) == len(set(vp.__all__))


def error_classes(cls=vp.VecpartError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


def test_every_error_has_its_own_exit_code():
    codes = {}
    for cls in error_classes():
        assert cls.exit_code not in codes, f"{cls.__name__} reuses exit code {cls.exit_code} of {codes.get(cls.exit_code)}"
        codes[cls.exit_code] = cls.__name__
    # 2 and 3 are the CLI's usage and IO codes; 25 and 26 are retired.
    assert not {2, 3, 25, 26} & set(codes)


def test_invalid_parameter_is_also_a_value_error():
    assert issubclass(vp.InvalidParameter, ValueError)
    assert vp.InvalidParameter.exit_code == 19


def empty_embedding():
    return vp.Embedding(
        mode="exponential",
        time=1.0,
        dim=1,
        vectors=np.empty((0, 1)),
        signature=np.ones(1, dtype=np.int64),
        total_weight=1.0,
    )


def transition():
    return vp.decompose_transition(pairgraph4())


# One call per parameter check in the library, each outside its domain.
OUT_OF_DOMAIN = {
    "negative exponential time": lambda: vp.scaled_eigenvalues(transition(), "exponential", -1.0),
    "zero linearised time": lambda: vp.scaled_eigenvalues(transition(), "linearised", 0.0),
    "embedding without a time": lambda: vp.build_embedding(transition(), "exponential", dim=2),
    "negative autocovariance time": lambda: vp.autocovariance_direct(pairgraph4(), -0.1),
    "zero linearised stability time": lambda: vp.linearised_stability(
        pairgraph4(), vp.Partition.from_labels([0] * 4), 0.0
    ),
    "partition over no nodes": lambda: vp.Partition(assignment=np.array([], dtype=np.int64), num_groups=1),
    "partition with too many groups": lambda: vp.Partition(assignment=np.array([0, 1]), num_groups=3),
    "partition with a label gap": lambda: vp.Partition(assignment=np.array([0, 2]), num_groups=2),
    "planted partition k < 1": lambda: vp.planted_partition(0, 4, 0.9, 0.1, seed=0),
    "planted partition size < 2": lambda: vp.planted_partition(2, 1, 0.9, 0.1, seed=0),
    "planted partition p_out > p_in": lambda: vp.planted_partition(2, 4, 0.5, 0.9, seed=0),
    "partition of an empty embedding": lambda: vp.partition_vectors(empty_embedding()),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_out_of_domain_parameter_is_an_invalid_parameter(case):
    with pytest.raises(vp.InvalidParameter):
        OUT_OF_DOMAIN[case]()


def bare_raisers(name: str) -> list:
    """Top-level definitions in the package that raise the builtin ``name``."""
    found = []
    for path in sorted(Path(vp.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id == name:
                        found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


@pytest.mark.parametrize("name, allowed", [("ValueError", ["cli._fail"]), ("RuntimeError", [])])
def test_only_the_report_validator_raises_a_bare_value_error(name, allowed):
    # The report validator's contract is a plain ValueError; every other
    # parameter check, and the optimiser's drift check, raises a named
    # VecpartError.
    assert bare_raisers(name) == allowed
