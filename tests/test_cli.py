import json
import subprocess
import sys

import pytest

from constakit.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run_cli(capsys, *argv)
    return rc, json.loads(out)


def test_factor_worked_example(capsys):
    rc, doc = run_json(capsys, "factor", "--p", "3", "--n", "4", "--lambda", "2")
    assert rc == 0
    assert doc["basis"]["t"] == 1
    assert doc["basis"]["m1"] == 2 and doc["basis"]["m2"] == 2
    assert doc["basis"]["orbits"] == [[0, 1], [2, 3]]
    assert doc["basis"]["delta"] == [1, 1]
    assert doc["basis"]["xi"] == [0, 2]
    assert doc["basis"]["beta"] == [1, 1]
    assert doc["factors"] == [[2, 1, 1], [2, 2, 1]]


def test_factor_binary_cyclic(capsys):
    rc, doc = run_json(capsys, "factor", "--p", "2", "--n", "7", "--lambda", "1")
    assert rc == 0
    assert doc["basis"]["t"] == 0
    assert doc["factors"] == [[1, 1], [1, 1, 0, 1], [1, 0, 1, 1]]
    assert doc["basis"]["orbits"] == [[0], [1, 2, 4], [3, 5, 6]]


def test_factor_n_one(capsys):
    rc, doc = run_json(capsys, "factor", "--p", "5", "--n", "1", "--lambda", "3")
    assert rc == 0
    assert doc["factors"] == [[2, 1]]  # x - 3


def test_factor_rejects_bad_length(capsys):
    rc, doc = run_json(capsys, "factor", "--p", "3", "--n", "3", "--lambda", "1")
    assert rc == 2
    assert "error" in doc


def test_factor_rejects_zero_lambda(capsys):
    rc, doc = run_json(capsys, "factor", "--p", "3", "--n", "4", "--lambda", "0")
    assert rc == 2
    assert "error" in doc


def test_factor_rejects_splitting_field_over_the_cap(capsys):
    # x^67 - 1 over F_2 splits in GF(2^66), above the 2^64 tower cap
    rc, doc = run_json(capsys, "factor", "--p", "2", "--n", "67", "--lambda", "1")
    assert rc == 2
    assert "exceeds the cap" in doc["error"]


def test_factor_refuses_a_splitting_field_past_the_scan_budget(capsys, monkeypatch):
    """GF(2^10)^6 has no irreducible sextic within the scan budget.  At the
    real budget the refusal takes about 50 s on two cores, so it is lowered."""
    from constakit import field

    monkeypatch.setattr(field, "MODULUS_SCAN_BUDGET", 500)
    rc, doc = run_json(
        capsys, "factor", "--p", "2", "--degrees", "10", "--n", "13", "--lambda", "1"
    )
    assert rc == 2
    assert "first 500 candidates" in doc["error"]
    assert "MODULUS_SCAN_BUDGET" in doc["error"]


def test_factor_extension_field(capsys):
    rc, doc = run_json(
        capsys, "factor", "--p", "3", "--degrees", "2", "--n", "2", "--lambda", "[0,1]"
    )
    assert rc == 0
    assert doc["params"]["q"] == 9
    assert len(doc["factors"]) == 2
    # coefficient arrays over the prime field at every level
    for f in doc["factors"]:
        for coeff in f:
            assert isinstance(coeff, list) and len(coeff) == 2


@pytest.mark.parametrize("degrees", ["[1]", "1", "[1,1]"])
def test_degree_one_adds_no_level(capsys, degrees):
    """GF(2) with or without degree-1 levels is one field, printed the same."""
    argv = ["factor", "--p", "2", "--n", "7", "--lambda", "1"]
    plain = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--degrees", degrees) == plain
    assert plain[0] == 0


def test_product_square_negacyclic(capsys):
    rc, doc = run_json(
        capsys, "product", "--p", "3", "--n", "4", "--lambda", "2",
        "--generator", "[2,1,1]",
    )
    assert rc == 0
    assert doc["agree"] is True
    by_method = {r["method"]: r for r in doc["reports"]}
    assert set(by_method) == {"sumset", "gcd", "oracle"}
    for rep in by_method.values():
        assert rep["generator"] == [2, 1]
        assert rep["dim"] == 3
        assert rep["G"] == [0, 1, 2]
        assert rep["agrees_with_oracle"] is True


def test_product_single_method(capsys):
    rc, doc = run_json(
        capsys, "product", "--p", "2", "--n", "7", "--lambda", "1",
        "--generator", "[1,1,0,1]", "--method", "gcd",
    )
    assert rc == 0
    (rep,) = doc["reports"]
    assert rep["method"] == "gcd"
    assert rep["dim"] == 7
    assert rep["generator"] == [1]


@pytest.mark.parametrize("method", ["sumset", "gcd"])
def test_product_spectral_method_runs_without_the_oracle(capsys, monkeypatch, method):
    def refuse(*args):
        raise AssertionError("oracle run")

    monkeypatch.setattr("constakit.cli.oracle_schur_product", refuse)
    rc, doc = run_json(
        capsys, "product", "--p", "2", "--n", "7", "--lambda", "1",
        "--generator", "[1,1,0,1]", "--method", method,
    )
    assert rc == 0
    assert doc == {"reports": [
        {"method": method, "generator": [1], "G": list(range(7)), "dim": 7,
         "agrees_with_oracle": None},
    ]}


def test_product_oracle_method_runs_without_the_spectral_products(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("spectral product run")

    monkeypatch.setattr("constakit.codes.schur_product_sumset", refuse)
    monkeypatch.setattr("constakit.codes.schur_product_gcd", refuse)
    rc, doc = run_json(
        capsys, "product", "--p", "2", "--n", "7", "--lambda", "1",
        "--generator", "[1,1,0,1]", "--method", "oracle",
    )
    assert rc == 0
    assert doc == {"reports": [
        {"method": "oracle", "generator": [1], "G": list(range(7)), "dim": 7,
         "agrees_with_oracle": None},
    ]}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_product_disagreement_exits_1(capsys, monkeypatch, fmt):
    """A valid but wrong oracle answer for the Hamming square: the [7,4]
    code itself, where the spectral methods give the whole space."""
    from constakit import Poly

    def wrong(c1, c2):
        return 4, Poly.from_indices(c1.params.field, [1, 1, 0, 1])

    monkeypatch.setattr("constakit.cli.oracle_schur_product", wrong)
    rc, out = run_cli(
        capsys, "product", "--p", "2", "--n", "7", "--lambda", "1",
        "--generator", "[1,1,0,1]", "--method", "all", "--format", fmt,
    )
    assert rc == 1
    if fmt == "json":
        doc = json.loads(out)
        assert doc["agree"] is False
        assert [r["agrees_with_oracle"] for r in doc["reports"]] == [False, False, True]
    elif fmt == "csv":
        assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == [
            "False", "False", "True",
        ]
    else:
        assert out.splitlines()[-1] == "agree: False"


def test_product_two_codes_two_lambdas(capsys):
    rc, doc = run_json(
        capsys, "product", "--p", "5", "--n", "4",
        "--lambda", "4", "--lambda", "4",
        "--generator", "[2,0,1]", "--generator", "[3,0,1]",
    )
    assert rc == 0
    assert doc["agree"] is True
    rep = doc["reports"][0]
    # product of the two lam=4 codes is lam=16=1 constacyclic
    assert rep["dim"] >= 1


def test_product_generator_not_divisor(capsys):
    rc, doc = run_json(
        capsys, "product", "--p", "3", "--n", "4", "--lambda", "2",
        "--generator", "[1,1]",
    )
    assert rc == 2
    assert "does not divide" in doc["error"]


def test_product_requires_codes(capsys):
    rc, doc = run_json(capsys, "product", "--p", "3", "--n", "4", "--lambda", "2")
    assert rc == 2
    assert "error" in doc


def test_powers_worked_example(capsys):
    rc, doc = run_json(
        capsys, "powers", "--p", "3", "--n", "4", "--lambda", "2",
        "--generator", "[2,1,1]",
    )
    assert rc == 0
    assert doc["dims"] == [2, 3, 4]
    assert doc["r"] == 3
    assert doc["fills"] is True
    assert doc["bounds"]["regularity_bound"] == {
        "applies": True, "bound": 4.0, "holds": True,
    }
    code = doc["code"]
    assert code["G"] == [2, 3]
    assert code["degenerate"] is False
    assert code["pattern"] == {"v": 4, "alpha": 1}


def test_powers_degenerate_witness(capsys):
    rc, doc = run_json(
        capsys, "powers", "--p", "5", "--n", "4", "--lambda", "1",
        "--generator", "[1,0,1]",
    )
    assert rc == 0
    assert doc["dims"] == [2]
    assert doc["r"] == 1
    assert doc["fills"] is False
    assert doc["code"]["degenerate"] is True
    assert doc["code"]["pattern"] == {"v": 2, "alpha": 1}


def test_powers_full_space(capsys):
    rc, doc = run_json(
        capsys, "powers", "--p", "2", "--n", "5", "--lambda", "1", "--generator", "[1]"
    )
    assert rc == 0
    assert doc["dims"] == [5] and doc["r"] == 1


def test_powers_zero_code_rejected(capsys):
    rc, doc = run_json(
        capsys, "powers", "--p", "2", "--n", "3", "--lambda", "1",
        "--generator", "[1,1,1,1]",  # wrong: x^3+x^2+x+1 does not divide x^3-1
    )
    assert rc == 2
    rc, doc = run_json(
        capsys, "powers", "--p", "2", "--n", "3", "--lambda", "1",
        "--generator", "[1,0,0,1]",  # x^3 + 1 = x^3 - 1: the zero code
    )
    assert rc == 2
    assert "error" in doc


def test_powers_gen_set_input(capsys):
    rc, doc = run_json(
        capsys, "powers", "--p", "2", "--n", "7", "--lambda", "1",
        "--gen-set", "[0,3,5,6]",
    )
    assert rc == 0
    assert doc["code"]["generator"] == [1, 1, 0, 1]
    assert doc["dims"] == [4, 7]


def test_powers_csv_columns(capsys):
    rc, out = run_cli(
        capsys, "powers", "--p", "3", "--n", "4", "--lambda", "2",
        "--generator", "[2,1,1]", "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,n,lambda,generator,dim,r,bounds,flags"
    assert lines[1].startswith('3,4,2,"[2,1,1]",2,3,')


def test_json_round_trip(capsys):
    """The descriptor a command prints is valid input reproducing itself."""
    rc, doc = run_json(
        capsys, "powers", "--p", "2", "--n", "7", "--lambda", "1",
        "--generator", "[1,1,0,1]",
    )
    assert rc == 0
    code = doc["code"]
    rc2, doc2 = run_json(
        capsys, "powers",
        "--p", str(doc["params"]["p"]),
        "--n", str(code["n"]),
        "--lambda", json.dumps(code["lambda"]),
        "--generator", json.dumps(code["generator"]),
    )
    assert rc2 == 0
    assert doc2 == doc


def test_output_is_byte_deterministic(capsys):
    args = ("product", "--p", "3", "--n", "4", "--lambda", "2", "--generator", "[2,1,1]")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out = run_cli(
        capsys, "factor", "--p", "2", "--n", "7", "--lambda", "1", "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["factors"]) == 3


def test_out_path_that_cannot_be_written(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    rc, doc = run_json(
        capsys, "factor", "--p", "3", "--n", "4", "--lambda", "2", "--out", str(target)
    )
    assert rc == 2
    assert list(doc) == ["error"] and str(target) in doc["error"]
    assert not target.parent.exists()


def test_verify_small_grid(capsys):
    rc, doc = run_json(capsys, "verify", "--grid-q", "[2,3]", "--grid-n", "4")
    assert rc == 0
    assert doc["failures"] == 0
    assert doc["points"] == 8


def test_verify_corruption_hook(capsys):
    rc, doc = run_json(
        capsys, "verify", "--grid-q", "[2]", "--grid-n", "3", "--inject-corruption"
    )
    assert rc == 1
    assert doc["failures"] >= 1
    assert doc["first_counterexample"]["check"] == "product_methods_agree"


def test_verify_grid_caps(capsys):
    rc, doc = run_json(capsys, "verify", "--grid-n", "17")
    assert rc == 2
    assert "grid too large" in doc["error"]
    rc, doc = run_json(capsys, "verify", "--grid-q", "[33]", "--grid-n", "4")
    assert rc == 2
    rc, doc = run_json(capsys, "verify", "--grid-q", "[6]", "--grid-n", "4")
    assert rc == 2


def test_verify_text_format(capsys):
    rc, out = run_cli(
        capsys, "verify", "--grid-q", "[2]", "--grid-n", "3", "--format", "text"
    )
    assert rc == 0
    assert "failures=0" in out


def test_console_entry_point(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "constakit.cli", "factor", "--p", "3", "--n", "4", "--lambda", "2"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["basis"]["t"] == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "--grid-n", "true"], "argument --grid-n: invalid int value: 'true'"),
    (["factor", "--p", "3"], "the following arguments are required: --n, --lambda"),
    (["factor", "--p", "3", "--n", "4", "--lambda", "2", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    ([], "the following arguments are required: command"),
    (["factor", "--p", "3", "--n", "4", "--lambda", '"a"'], "not a field element: 'a'"),
    (["product", "--p", "3", "--n", "4", "--lambda", "2", "--generator", "5"],
     "a polynomial is a list of coefficients, got 5"),
    (["product", "--p", "3", "--n", "4", "--lambda", "2", "--lambda", "2", "--lambda", "2",
      "--generator", "[2,1,1]"], "--lambda must appear once, or once per code"),
    (["powers", "--p", "2", "--n", "7", "--lambda", "1", "--generator", "[1,1]",
      "--gen-set", "[0]"], "give the code as --generator or --gen-set, not both"),
    (["powers", "--p", "2", "--n", "7", "--lambda", "1"],
     "give the code as --generator or --gen-set"),
    (["verify", "--grid-q", "6", "--grid-n", "4"], "6 is not a prime power"),
    (["verify", "--grid-n", "0"], "--grid-n must be >= 1"),
], ids=["grid-n-type", "missing-args", "format-choice", "no-command", "lambda-string",
        "generator-int", "three-lambdas", "powers-both-codes", "powers-no-code",
        "grid-q-int", "grid-n-zero"])
def test_argument_errors_are_json(capsys, argv, message):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert message in json.loads(captured.out)["error"]
    assert captured.err == ""


@pytest.mark.parametrize("argv, message", [
    (["factor", "--p", "3", "--degrees", "2", "--n", "2", "--lambda", "[true,1]"],
     "prime-level coefficient must be int, got True"),
    (["factor", "--p", "3", "--degrees", "[true]", "--n", "2", "--lambda", "1"],
     "--degrees: expected positive integers, got '[true]'"),
    (["powers", "--p", "3", "--n", "2", "--lambda", "1", "--gen-set", "[true]"],
     "--gen-set: expected residues mod n, got '[true]'"),
    (["verify", "--grid-q", "[2,true]", "--grid-n", "3"],
     "--grid-q: expected prime powers, got '[2,true]'"),
], ids=["lambda", "degrees", "gen-set", "grid-q"])
def test_booleans_are_not_integers(capsys, argv, message):
    rc, doc = run_json(capsys, *argv)
    assert rc == 2
    assert doc == {"error": message}
