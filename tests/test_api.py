"""The public surface: every exported name resolves, and exit codes stay distinct."""

import pytest

import vecpart as vp


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
    # 2 and 3 are the CLI's usage and IO codes; 26 is retired.
    assert not {2, 3, 26} & set(codes)


def test_invalid_parameter_is_also_a_value_error():
    assert issubclass(vp.InvalidParameter, ValueError)
    assert vp.InvalidParameter.exit_code == 19
