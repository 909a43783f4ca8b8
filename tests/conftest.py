import pytest

from gtvm import corpus
from gtvm.corpus.fixtures import load_fixture
from gtvm.patterns import Pattern


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
