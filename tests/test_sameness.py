"""Four more of tools/sameness.py's fingerprints, pinned in the suite.

Three grids reach vector splitting fields: the product grid GF(2^20) and
GF(3^8), the large-prime factor runs GF(p^3) at p = 1,000,003, and the
transform grid, which reaches every path of RootBasis._transform and pins
its values, not only the supports and generators the CLI prints.  The
powers grid pins every bound record `powers` prints, in all three formats.
The script is loaded from its file, as it is not a package module.
"""

import importlib.util
import pathlib

import pytest

SAMENESS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "sameness.py"


@pytest.fixture(scope="module")
def sameness():
    spec = importlib.util.spec_from_file_location("tools_sameness", SAMENESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_product_grid_fingerprint(sameness):
    assert sameness._fingerprint(sameness.product_argvs()) == (
        "295 runs: md5 4453c3e8f8a48ab8d06495dc4d764c67, exit 0: 295"
    )


def test_transform_fingerprint(sameness):
    assert sameness.transform_fingerprint() == (
        "194 points: md5 1d7817a368e2b7e0d74f6a494c97b81e, "
        "prime: 11, tabulated: 134, vector/prime: 18, vector/tabulated: 31"
    )


def test_large_prime_factor_fingerprint(sameness):
    assert sameness._fingerprint(sameness.large_prime_argvs()) == (
        "6 runs: md5 504776449f61fb7f0694bf6a1ad848ce, exit 0: 6"
    )


def test_powers_grid_fingerprint(sameness):
    assert sameness._fingerprint(sameness.powers_argvs()) == (
        "696 runs: md5 35df313255600f999bfb7b6a814aeac6, exit 0: 672, exit 2: 24"
    )
