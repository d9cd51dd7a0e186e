"""The documented surface: the README's library example runs as printed,
and the package's export list is whole."""

import contextlib
import io
import re
from pathlib import Path

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
