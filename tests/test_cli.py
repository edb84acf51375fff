"""Command-line contract: exit codes, formats, calculator grammar."""

import csv
import hashlib
import io
import json
import random
import re
from pathlib import Path

import pytest

from hyperwreath import budget, verify
from hyperwreath.chains import enumerate_N
from hyperwreath.cli import CalcError, _verify_config_error, eval_expression, main, suite_options
from hyperwreath.partitions import weight_of
from hyperwreath.verify import random_group_element
from hyperwreath.wreath import GroupElement, comm, parse_element


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refusal_line(limit):
    return f"error: the command needs more than the work budget of {limit:,} units\n"


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


def test_large_chain_report_is_pinned(tmp_path, capsys):
    # a scale the increment oracles in test_chains.py do not reach (n <= 13, i <= 200)
    argv = ["chain", "--n", "16", "--imax", "300", "--format", "json"]
    pinned = "a23b76dc6b61cde86747dfcb54dd5c11c62477336567ae3d3f3de71d81029538"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned
    target = tmp_path / "chain.json"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == pinned


@pytest.mark.parametrize("fmt, pinned", [
    ("csv", "43938d08dd5a7373fdd1a719d73d07ab48d4207054adb7b6dc1533ac24512f64"),
    ("text", "d7bf5498992b6a167f017d73a4517de3d8e6cec3e7315682c08ab028263b2b92"),
])
def test_chain_table_formats_are_pinned(capsys, fmt, pinned):
    # both formats write the per-layer counts, which no other test pins at this scale
    code, out, _ = run_cli(capsys, "chain", "--n", "12", "--imax", "200", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned


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
        "verify --suite chain --n 4 --imax 120",
        "verify --suite chain --n 64 --imax 1",
        "verify --suite chain --n 28 --imax 1",
        "verify --suite chain --imax 1000",
        "verify --suite chain --n 20 --imax 1000 --wt-bound 30",
        "verify --suite chain --n 4 --imax 10 --wt-bound 60",
        "verify --suite chain --n 2 --imax 1 --wt-bound 99999999999999999999",
        "calc [x1^4]D2*[x2^4]D3*[x3^4]D4*[x4^4]D5*[x5^4]D6 --n 6",
        "calc [x1^2]D2*[x2^2]D3*[x3^2]D4*[x4^2]D5*[x5^2]D6*[x6^2]D7*[x7^2]D8*[x8^2]D9 --n 10",
        "calc inv([x1+1]D2*[x2^139]D3) --n 3",
        pytest.param("calc inv(" + "*".join(f"[x{k - 1}^256]D{k}" for k in range(64, 1, -1))
                     + ") --n 64", id="calc inv of 63 layers of degree 256"),
    ],
)
def test_bad_input_is_a_usage_error(capsys, monkeypatch, argv):
    # a runaway input is refused once it has spent the budget; a smaller one
    # keeps this test quick, and the test below spends the real one
    monkeypatch.setattr(budget, "LIMIT", 20_000)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "calc [x1^2]D2*[x2^2]D3*[x3^2]D4*[x4^2]D5*[x5^2]D6*[x6^2]D7*[x7^2]D8*[x8^2]D9 --n 10",
    "verify --suite chain --n 64 --imax 1",
    # group products charge one unit per layer, and the orbit grid its act calls
    "verify --suite regular --n 16",
    "verify --suite centers --n 64",
    # chain counts every step's generators before it enumerates one
    "chain --n 64 --imax 1000",
])
def test_runaway_input_is_refused_at_the_real_budget(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", refusal_line(budget.LIMIT))


@pytest.mark.parametrize("argv, units", [
    ("calc inv([x1^16]D2*[x2^16]D3) --n 3", 691),
    ("verify --suite chain --n 5 --imax 8", 8635),
    ("chain --n 8 --imax 60 --format json", 1352),
    ("verify --suite chain --n 3 --imax 10 --wt-bound 100", 29_003),
    ("verify --suite chain --n 8 --imax 16", 381_456),
    ("verify --suite all --seed 0", 270_343),
])
def test_commands_charge_pinned_units(capsys, monkeypatch, argv, units):
    monkeypatch.setattr(budget, "LIMIT", units)
    assert run_cli(capsys, *argv.split())[0] == 0
    monkeypatch.setattr(budget, "LIMIT", units - 1)
    assert run_cli(capsys, *argv.split()) == (2, "", refusal_line(units - 1))


def test_a_refused_chain_creates_no_out_file(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code, stdout, err = run_cli(capsys, "chain", "--n", "64", "--imax", "1000", "--out", str(out))
    assert (code, stdout, err) == (2, "", refusal_line(budget.LIMIT))
    assert not out.exists()


def test_library_callers_run_without_a_budget(monkeypatch):
    monkeypatch.setattr(budget, "LIMIT", 0)
    g = parse_element("[x1 + 1]D2", 3) * parse_element("[x2^16]D3", 3)
    assert eval_expression("[x1 + 1]D2 * [x2^16]D3", 3) == g


def test_wt_bound_floor_is_the_heaviest_generator_before_step_imax():
    for n in range(2, 9):
        for j in range(0, 21):
            floor = max(weight_of(mults) for mults, _ in enumerate_N(j, n))
            options = {"n": n, "imax": j + 1}
            assert _verify_config_error("chain", {**options, "wt_bound": floor}) is None
            assert _verify_config_error("chain", {**options, "wt_bound": floor - 1}) == (
                f"--wt-bound must be >= {floor}, the heaviest generator before step --imax")
    # without --n the suite runs n = 3 and 4
    assert _verify_config_error("chain", {"imax": 1, "wt_bound": 3}) is None
    assert _verify_config_error("chain", {"imax": 1, "wt_bound": 2}) is not None


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


@pytest.mark.parametrize("argv", [
    "verify --suite chain --n 2 --imax 41",
    "verify --suite chain --n 2 --imax 1 --wt-bound 200",
    "verify --suite chain --n 3 --imax 10 --wt-bound 100",
])
def test_verify_runs_past_the_removed_caps(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0 and out.splitlines()[-1].startswith("all properties hold")


def test_verify_chain_default_bound_covers_the_first_generators(capsys):
    # from n = 8 on, step 1's generators are heavier than the default 2 * (1 + 2)
    code, out, _ = run_cli(capsys, "verify", "--suite", "chain", "--n", "8", "--imax", "2")
    assert code == 0
    assert out.splitlines()[:2] == ["PASS normalizer step n=8 i=1 (bound 7)",
                                    "PASS normalizer step n=8 i=2 (bound 8)"]


def test_calc_keeps_products_within_the_degree_cap(capsys):
    code, out, _ = run_cli(capsys, "calc", "[1]D1 * [x1^256]D2", "--n", "2")
    assert code == 0 and out.startswith("[x1^256 - 256*x1^255 + ")
    code, out, _ = run_cli(capsys, "calc", "inv([x1^16]D2 * [x2^16]D3)", "--n", "3")
    assert code == 0
    code, out, _ = run_cli(capsys, "calc", "[x1 + 1]D2 * [x2^139]D3", "--n", "3")
    assert code == 0 and out.startswith("[-x1^139 + 139*x1^138*x2 - 9591*x1^137*x2^2 + ")


@pytest.mark.parametrize("expr, value", [
    pytest.param("inv([x2^200]D3*[x1^2]D2)", lambda g, h: (g * h).inverse(),
                 id="inv([x2^200]D3*[x1^2]D2)"),
    pytest.param("comm([x2^200]D3,[x1^2]D2)", comm, id="comm([x2^200]D3,[x1^2]D2)"),
])
def test_calc_runs_past_the_removed_size_bounds(capsys, expr, value):
    g, h = parse_element("[x2^200]D3", 3), parse_element("[x1^2]D2", 3)
    code, out, _ = run_cli(capsys, "calc", expr, "--n", "3")
    assert code == 0 and out == value(g, h).render() + "\n"


def test_calc_takes_a_product_past_the_removed_term_bound(capsys):
    # (x2 - x1 - 1)^140 has C(142, 2) = 10,011 terms, past the old bound of 10,000
    code, out, _ = run_cli(capsys, "calc", "[x1+1]D2*[x2^140]D3", "--n", "3")
    top = out[1:out.index("]")]
    assert code == 0 and top.startswith("x1^140 - 140*x1^139*x2 + 9730*x1^138*x2^2 - ")
    assert top.count(" + ") + top.count(" - ") + 1 == 10_011


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
