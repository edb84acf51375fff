"""Command-line contract: exit codes, formats, calculator grammar."""

import csv
import io
import json
import random
import re
from pathlib import Path

import pytest

from hyperwreath import verify
from hyperwreath.cli import (CalcError, _inverse_degrees, _product_degrees, eval_expression,
                             main, suite_options)
from hyperwreath.verify import random_group_element
from hyperwreath.wreath import GroupElement, parse_element


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chain_text_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "chain", "--n", "4", "--imax", "12")
    assert code == 0
    assert "all above-threshold rows match: True" in out


def test_chain_degenerate_n2(capsys):
    code, out, _ = run_cli(capsys, "chain", "--n", "2", "--imax", "6")
    assert code == 0
    assert "MISMATCH" not in out


def test_chain_json_schema(capsys):
    code, out, _ = run_cli(capsys, "chain", "--n", "4", "--imax", "12", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_match"] is True
    assert data["n"] == 4
    assert len(data["rows"]) == 12
    row = data["rows"][0]
    assert isinstance(row["generators"], list)
    assert isinstance(row["counts"], dict)
    assert isinstance(row["match"], bool)
    assert all(isinstance(v, int) for v in row["counts"].values())


def test_chain_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "chain", "--n", "3", "--imax", "4", "--format", "csv")
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    assert rows[0] == ["n", "i", "r", "h", "k", "count", "predicted", "match"]
    assert len(rows) == 1 + 4 * 3
    assert out.count("\r") == 0


def test_chain_config_errors(capsys):
    code, _, err = run_cli(capsys, "chain", "--n", "1")
    assert code == 2
    assert "n >= 2" in err
    code, _, _ = run_cli(capsys, "chain", "--n", "4", "--imax", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "chain", "--n", "2", "--imax", "1001")
    assert code == 2 and "--imax must be <= 1000" in err
    code, _, _ = run_cli(capsys, "chain", "--n", "2", "--imax", "1000")  # the cap itself runs
    assert code == 0


def test_chain_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "chain", "--n", "3", "--imax", "3", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["n"] == 3


def test_verify_formulas_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "formulas", "--seed", "7")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_regular_suite_with_range(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "regular", "--c-range", "-3..3", "--n", "3"
    )
    assert code == 0
    assert "FAIL" not in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nosuch")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize(
    "argv",
    [
        "verify --suite regular --n 1",
        "verify --suite chain --n 1",
        "verify --suite formulas --n 1",
        "verify --suite group --n 0",
        "verify --suite chain --wt-bound 1",
        "verify --suite chain --imax 0",
        "verify --suite regular --radius 0",
        "chain --n 3 --imax 2 --out /nonexistent/x.json",
        "verify --suite group --radius 3",
        "verify --suite all --n 3",
        "verify --suite all --imax 2",
        "verify --suite all --wt-bound 9",
        "verify --suite all --radius 1",
        "verify --suite all --c-range 0..1",
        "calc [x1^]D2 --n 2",
        "calc [3/]D2 --n 2",
        "calc [3/0]D2 --n 2",
        "calc [x99999999999999999999999]D2 --n 2",
        pytest.param("calc " + "inv(" * 1000 + "1" + ")" * 1000 + " --n 2", id="calc deep inv"),
        pytest.param("calc " + "(" * 1000 + "1" + ")" * 1000 + " --n 2", id="calc deep parens"),
        pytest.param("calc [1]D" + "9" * 5000 + " --n 2", id="calc 5000-digit layer"),
        "calc [2^20000]D2 --n 2",
        "calc [2^10000*2^10000]D2 --n 2",
        "calc [2^99999999999]D2 --n 2",
        "calc [1]D1*[x1^3000]D2 --n 2",
        "calc [1]D1*[x1^99999999999]D2 --n 2",
        "calc [1]D2 --n 99999999999999999999",
        "chain --n 99999999999999999999 --imax 1",
        "verify --suite group --n 99999999999999999999",
        "chain --n 4 --imax 99999999999999999999",
        "chain --n 8 --imax 1001",
        "verify --suite chain --imax 99999999999999999999",
        "verify --suite chain --n 3 --imax 1001",
        "verify --suite chain --n 2 --imax 41",
        "calc [x1^4]D2*[x2^4]D3*[x3^4]D4*[x4^4]D5*[x5^4]D6 --n 6",
        "calc inv([x2^200]D3*[x1^2]D2) --n 3",
        "calc comm([x2^200]D3,[x1^2]D2) --n 3",
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_readme_lists_the_options_each_suite_takes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| suite ", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        suites, options = (cell.strip() for cell in row.strip().strip("|").split("|"))
        for suite in re.findall(r"`(\w+)`", suites):
            documented[suite] = re.findall(r"`(--[\w-]+)`", options)
    derived = {s: ["--" + d.replace("_", "-") for d in suite_options(s)] for s in verify.SUITES}
    assert documented == {**derived, "all": []}


def test_verify_bad_c_range(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "regular", "--c-range", "oops")
    assert code == 2


def test_calc_examples(capsys):
    code, out, _ = run_cli(capsys, "calc", "comm([x1]D2, [1]D1)", "--n", "2")
    assert code == 0 and out.strip() == "[1]D2"

    code, out, _ = run_cli(capsys, "calc", "tdeg([x1^2]D4)", "--n", "4")
    assert code == 0 and out.strip() == "2"

    code, out, _ = run_cli(capsys, "calc", "phi([x1^2]D3)", "--n", "3")
    assert code == 0 and out.strip() == "x1^2 d3"

    code, out, _ = run_cli(capsys, "calc", "[x1^256]D2", "--n", "2")
    assert code == 0 and out.strip() == "[x1^256]D2"  # the largest exponent calc takes


def test_verify_takes_imax_up_to_its_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "chain", "--n", "2", "--imax", "40")
    assert code == 0 and out.splitlines()[-1] == "all properties hold (42/42)"


def test_calc_degree_bounds_hold_on_random_elements():
    rng = random.Random(4)
    for n in (2, 3, 4, 5):
        elements = [random_group_element(rng, n) for _ in range(8)]
        elements += [a * b for a, b in zip(elements, elements[1:])]
        for g, h in zip(elements, elements[1:]):
            for bound, result in ((_product_degrees(g, h), g * h), (_inverse_degrees(g), g.inverse())):
                assert all(max((sum(e) for e in f.terms), default=0) <= b
                           for f, b in zip(result.layers, bound))


def test_calc_keeps_products_within_the_degree_cap(capsys):
    code, out, _ = run_cli(capsys, "calc", "[1]D1 * [x1^256]D2", "--n", "2")
    assert code == 0 and out.startswith("[x1^256 - 256*x1^255 + ")
    code, out, _ = run_cli(capsys, "calc", "inv([x1^16]D2 * [x2^16]D3)", "--n", "3")
    assert code == 0


def test_calc_product_and_inverse(capsys):
    code, out, _ = run_cli(capsys, "calc", "[x1]D2 * inv([x1]D2)", "--n", "2")
    assert code == 0 and out.strip() == "1"

    code, out, _ = run_cli(capsys, "calc", "inv([1]D1)", "--n", "3")
    assert code == 0 and out.strip() == "[-1]D1"


def test_calc_parse_error_carries_position(capsys):
    code, _, err = run_cli(capsys, "calc", "comm([x1]D2", "--n", "2")
    assert code == 2
    assert "position" in err

    with pytest.raises(CalcError):
        eval_expression("tdeg([x1]D2) * [1]D1", 2)  # ordinals are not elements


def test_calc_rejects_bad_layer(capsys):
    code, _, err = run_cli(capsys, "calc", "[x1]D7", "--n", "3")
    assert code == 2


def test_element_grammar_round_trip_100():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 5)
        g = random_group_element(rng, n)
        text = g.render()
        assert parse_element(text, n) == g
        # the calculator grammar accepts the same literal
        assert eval_expression(text, n) == g


def test_identity_round_trip():
    assert parse_element(GroupElement.identity(4).render(), 4) == GroupElement.identity(4)


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
