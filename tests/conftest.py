import os
import pathlib

import pytest

from constakit import (
    CodeParams,
    build_field,
    code_from_generator,
)


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a `python -m constakit.cli` subprocess, with src/ on
    its import path, so it runs from a checkout without an install."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


@pytest.fixture(scope="session")
def f2():
    return build_field(2, [])


@pytest.fixture(scope="session")
def f3():
    return build_field(3, [])


@pytest.fixture(scope="session")
def f4():
    return build_field(2, [2])


@pytest.fixture(scope="session")
def f5():
    return build_field(5, [])


@pytest.fixture(scope="session")
def f9():
    return build_field(3, [2])


@pytest.fixture(scope="session")
def negacyclic_example(f3):
    """q=3, n=4, lam=2, C = <x^2+x+2>: the small worked example."""
    params = CodeParams(f3, 4, f3.elem(2))
    g = f3.vector([2, 1, 1])
    from constakit import Poly

    return code_from_generator(params, Poly.from_elements(g))


@pytest.fixture(scope="session")
def hamming_example(f2):
    """q=2, n=7, lam=1, C = <x^3+x+1>: the binary [7,4] code."""
    params = CodeParams(f2, 7, f2.one())
    from constakit import Poly

    return code_from_generator(params, Poly.from_indices(f2, [1, 1, 0, 1]))


@pytest.fixture(scope="session")
def degenerate_example(f5):
    """q=5, n=4, lam=1, C = <1+x^2>: degenerate with v=2, alpha=1."""
    params = CodeParams(f5, 4, f5.one())
    from constakit import Poly

    return code_from_generator(params, Poly.from_indices(f5, [1, 0, 1]))
