"""The declared dependency floor: every module of ``fblab`` parses as
Python 3.10, the ``requires-python`` floor of pyproject.toml.

The numpy floor (2.0, for ``out=`` of ``numpy.fft``) is not checked here:
it needs numpy 2.0 installed, and this test installs nothing.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fblab"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
