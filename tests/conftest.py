import sys

import pytest

from gtvm import corpus
from gtvm.corpus.fixtures import load_fixture
from gtvm.patterns import Pattern

# how many digits int() and str() convert here (from Python 3.10.7 on, 4300
# by default; 0 is no limit), integer text of 5000 digits, and whether int()
# of it raises ValueError
INT_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_DIGITS = "7" * 5000
INT_DIGITS_LIMITED = 0 < INT_MAX_DIGITS < 5000


def builtin_library(registry=None) -> dict[str, Pattern]:
    """The shared graph-pattern library (graphPatterns), validated against
    ``registry`` (a fresh metamodel registry when omitted)."""
    program = corpus.library_program(registry if registry is not None
                                     else corpus.metamodels())
    return {name: p for name, p in program.patterns.items()
            if name.startswith("graphPatterns.")}


@pytest.fixture
def registry():
    return corpus.metamodels()


@pytest.fixture
def triangle():
    return load_fixture("triangle")


@pytest.fixture
def library(triangle):
    """(space, program) with the shared pattern library linked."""
    return triangle, corpus.library_program(triangle.registry)
