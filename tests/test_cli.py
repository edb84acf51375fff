"""Command-line contract: exit codes, formats, calculator grammar."""

import csv
import io
import json
import random
import re
from pathlib import Path

import pytest

from hyperwreath import verify
from hyperwreath.cli import (_MAX_CALC_TERMS, CalcError, _inverse_sizes, _product_sizes,
                             _verify_caps, _verify_config_error, eval_expression, main,
                             suite_options)
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
        "verify --suite chain --n 4 --imax 40",
        "verify --suite chain --n 64 --imax 1",
        "calc [x1^4]D2*[x2^4]D3*[x3^4]D4*[x4^4]D5*[x5^4]D6 --n 6",
        "calc inv([x2^200]D3*[x1^2]D2) --n 3",
        "calc comm([x2^200]D3,[x1^2]D2) --n 3",
        "calc [x1^2]D2*[x2^2]D3*[x3^2]D4*[x4^2]D5*[x5^2]D6*[x6^2]D7*[x7^2]D8*[x8^2]D9 --n 10",
        "calc [x1+1]D2*[x2^140]D3 --n 3",
        "calc inv([x1+1]D2*[x2^139]D3) --n 3",
        pytest.param("calc inv(" + "*".join(f"[x{k - 1}^256]D{k}" for k in range(64, 1, -1))
                     + ") --n 64", id="calc inv of 63 layers of degree 256"),
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


def test_verify_imax_cap_boundaries(capsys):
    caps = {n: _verify_caps(n)[0] for n in range(2, 21)}
    assert [caps[n] for n in (2, 3, 4, 5, 6, 7, 8, 10, 11, 14, 15, 16, 17, 18, 19, 20)] == [
        40, 32, 20, 16, 13, 11, 9, 9, 7, 7, 6, 6, 2, 2, 1, 1]
    for n, cap in caps.items():
        assert _verify_config_error("chain", {"n": n, "imax": cap}) is None
        code, out, err = run_cli(capsys, "verify", "--suite", "chain", "--n", str(n),
                                 "--imax", str(cap + 1))
        assert code == 2 and out == ""
        assert err == f"error: suite chain takes --imax <= {cap} at --n {n}\n"
    # without --n the suite runs n = 3 and 4, so the smaller cap holds
    assert _verify_config_error("chain", {"imax": 20}) is None
    assert _verify_config_error("chain", {"imax": 21}) is not None
    # the default --imax (6) is above the cap from n = 17 on
    assert _verify_config_error("chain", {"n": 16}) is None
    assert _verify_config_error("chain", {"n": 17}) is not None
    code, _, err = run_cli(capsys, "verify", "--suite", "chain", "--n", "21", "--imax", "1")
    assert code == 2 and err == "error: suite chain takes --n <= 20\n"


def test_verify_wt_bound_cap_boundaries(capsys):
    for n in range(2, 21):
        imax, cap = _verify_caps(n)
        assert _verify_config_error("chain", {"n": n, "imax": imax, "wt_bound": cap}) is None
        code, out, err = run_cli(capsys, "verify", "--suite", "chain", "--n", str(n),
                                 "--imax", "1", "--wt-bound", str(cap + 1))
        assert code == 2 and out == ""
        assert err == f"error: suite chain takes --wt-bound <= {cap} at --n {n}\n"
    code, out, _ = run_cli(capsys, "verify", "--suite", "chain", "--n", "2", "--imax", "1",
                           "--wt-bound", "200")
    assert code == 0 and out.splitlines()[0] == "PASS normalizer step n=2 i=1 (bound 200)"
    # these took 11 s and 7 s before the cap
    for n, bound in ((4, 60), (3, 100)):
        code, _, err = run_cli(capsys, "verify", "--suite", "chain", "--n", str(n), "--imax", "10",
                               "--wt-bound", str(bound))
        assert code == 2 and err.count("error:") == 1
    # without --n the suite runs n = 3 and 4, so the smaller cap holds
    assert _verify_config_error("chain", {"imax": 20, "wt_bound": 44}) is None
    assert _verify_config_error("chain", {"wt_bound": 45}) is not None


def test_verify_chain_default_bound_covers_the_first_generators(capsys):
    # from n = 8 on, step 1's generators are heavier than the default 2 * (1 + 2)
    code, out, _ = run_cli(capsys, "verify", "--suite", "chain", "--n", "8", "--imax", "2")
    assert code == 0
    assert out.splitlines()[:2] == ["PASS normalizer step n=8 i=1 (bound 7)",
                                    "PASS normalizer step n=8 i=2 (bound 8)"]


def test_calc_degree_bounds_hold_on_random_elements():
    rng = random.Random(4)
    for n in (2, 3, 4, 5):
        elements = [random_group_element(rng, n) for _ in range(8)]
        elements += [a * b for a, b in zip(elements, elements[1:])]
        for g, h in zip(elements, elements[1:]):
            for bounds, result in ((_product_sizes(g, h), g * h), (_inverse_sizes(g), g.inverse())):
                for f, bound in zip(result.layers, bounds):
                    assert max((sum(e) for e in f.terms), default=0) <= bound.degree
                    assert all(v <= d for e in f.terms for v, d in zip(e, bound.degrees))
                    assert all(len(e) <= len(bound.degrees) for e in f.terms)
                    assert len(f.terms) <= bound.terms


def test_calc_term_bounds_are_tight_on_powers_of_binomials():
    g, h = parse_element("[x1 + 1]D2", 3), parse_element("[x2^139]D3", 3)
    assert [b.terms for b in _product_sizes(g, h)] == [0, 2, 9870]
    assert len((g * h).layers[2].terms) == 9870
    # x2^139 is the largest power of x2 - x1 - 1 within the cap
    over = list(_product_sizes(g, parse_element("[x2^140]D3", 3)))[2]
    assert over.terms > _MAX_CALC_TERMS >= 9870


def test_calc_keeps_products_within_the_degree_cap(capsys):
    code, out, _ = run_cli(capsys, "calc", "[1]D1 * [x1^256]D2", "--n", "2")
    assert code == 0 and out.startswith("[x1^256 - 256*x1^255 + ")
    code, out, _ = run_cli(capsys, "calc", "inv([x1^16]D2 * [x2^16]D3)", "--n", "3")
    assert code == 0
    code, out, _ = run_cli(capsys, "calc", "[x1 + 1]D2 * [x2^139]D3", "--n", "3")
    assert code == 0 and out.startswith("[-x1^139 + 139*x1^138*x2 - 9591*x1^137*x2^2 + ")


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
