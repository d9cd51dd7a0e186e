"""The documented surface: the README's library example runs as printed,
the package's export list is whole, and its records are read-only
tuples."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import qrgxy

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "[-0.26, -0.663099, -0.983511]"
    theta = float(lines[-1])
    assert abs(theta - 1.49) < 0.01


def test_every_exported_name_resolves_once():
    names = qrgxy.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(qrgxy, name) is not None, name
    namespace = {}
    exec("from qrgxy import *", namespace)
    assert set(names) <= set(namespace)


RECORDS = ("CouplingParams", "BlockGeometry", "GroundDoublet", "RGTrajectory", "FixedPoint",
           "ConcurrenceCurve", "DerivativeCurve", "ScalingFit", "ExponentEstimate")


def test_every_record_is_a_read_only_tuple():
    for name in RECORDS:
        cls = getattr(qrgxy, name)
        record = cls(*[1.0] * len(cls._fields))
        # a record is the tuple of its fields, as the README says
        assert record == tuple(record) == (1.0,) * len(cls._fields)
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0.5)
            assert getattr(record, field) == 1.0
        with pytest.raises(AttributeError):
            record.extra = 0.5
