"""Command-line frontend: fixtures, exit codes, file outputs."""

import csv
import json

import pytest

from ghcodes.cli import main

TEXT_2_3_101 = """\
p=2 s=3 alpha=2,1,1 t=1,0,1
1 1 | 2 | 4
0 1 | 1 | 1
"""

TEXT_2_3_201 = """\
p=2 s=3 alpha=4,6,12 t=2,0,1
1 1 1 1 | 2 2 2 2 2 2 | 4 4 4 4 4 4 4 4 4 4 4 4
0 1 0 1 | 0 2 1 1 1 1 | 0 2 4 6 1 1 1 1 1 1 1 1
0 0 1 1 | 1 1 0 1 2 3 | 1 1 1 1 0 1 2 3 4 5 6 7
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_base_fixture(capsys):
    code, out, _ = run(capsys, "construct", "-p", "2", "-s", "3", "-t", "1,0,1")
    assert code == 0 and out == TEXT_2_3_101


def test_construct_three_row_fixture(capsys):
    code, out, _ = run(capsys, "construct", "-p", "2", "-s", "3", "-t", "2,0,1")
    assert code == 0 and out == TEXT_2_3_201


def test_construct_json(capsys):
    code, out, _ = run(
        capsys, "construct", "-p", "2", "-s", "3", "-t", "1,0,1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == [2, 1, 1]
    assert doc["rows"][0] == [[1, 1], [2], [4]]


def test_construct_usage_errors(capsys):
    code, _, err = run(capsys, "construct", "-p", "2", "-s", "2", "-t", "0,1")
    assert code == 2 and "t_1" in err
    code, _, err = run(capsys, "construct", "-p", "4", "-s", "2", "-t", "1,1")
    assert code == 2
    code, _, err = run(capsys, "construct", "-p", "2", "-s", "3", "-t", "1,1")
    assert code == 2  # -s disagrees with -t length


def test_construct_resource_exit(capsys, monkeypatch):
    monkeypatch.setenv("GHCODES_MAX_SIZE", "16")
    code, _, err = run(capsys, "construct", "-p", "2", "-s", "3", "-t", "2,0,1")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_size_cap_is_usage_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("GHCODES_MAX_SIZE", cap)
    code, _, err = run(capsys, "construct", "-p", "2", "-s", "2", "-t", "1,1")
    assert code == 2 and "GHCODES_MAX_SIZE" in err
    code, _, err = run(capsys, "analyze", "-p", "2", "-s", "2", "-t", "1,1")
    assert code == 2 and "GHCODES_MAX_SIZE" in err


# ---------------------------------------------------------------------------
# gray / span
# ---------------------------------------------------------------------------

def test_gray_vector(capsys):
    code, out, _ = run(
        capsys,
        "gray", "-p", "2", "-s", "3", "--alpha", "2,1,1",
        "--vector", "1 1 | 2 | 4",
    )
    assert code == 0 and out.strip() == "11111111"


def test_gray_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(TEXT_2_3_101)
    code, out, _ = run(capsys, "gray", "--matrix", str(path))
    assert code == 0
    assert out.splitlines() == ["11111111", "01010101"]


def test_gray_from_signature(capsys):
    code, out, _ = run(capsys, "gray", "-p", "2", "-s", "3", "-t", "1,0,1")
    assert code == 0 and out.splitlines() == ["11111111", "01010101"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gray", "-t", "1,1"],
        ["gray", "--alpha", "1,1", "--vector", "1|2"],
        ["gray", "-p", "257", "-s", "2", "--alpha", "1,1", "--vector", "256 | 300"],
        ["grid", "--max-size", "0"],
        ["span", "-p", "2", "-s", "2", "-t", "1,1", "--max-size", "0"],
        ["analyze", "-p", "2", "-s", "2", "-t", "1,1", "--quad-cap", "-5"],
    ],
)
def test_bad_input_is_a_usage_error(argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    assert code == 2


def test_gray_needs_an_input(capsys):
    code, _, err = run(capsys, "gray", "-p", "2")
    assert code == 2


def test_span_dump(capsys):
    code, out, _ = run(capsys, "span", "-p", "2", "-s", "3", "-t", "1,0,1")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 16
    assert "0 0 | 0 | 0" in lines
    assert "1 1 | 2 | 4" in lines


def test_span_gray_dump(capsys):
    code, out, _ = run(capsys, "span", "-p", "2", "-s", "3", "-t", "1,0,1", "--gray")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 16 == len(set(lines))
    assert "00000000" in lines and "11111111" in lines


def test_span_max_size(capsys):
    code, _, err = run(
        capsys, "span", "-p", "2", "-s", "3", "-t", "2,0,1", "--max-size", "64"
    )
    assert code == 3


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_table(capsys):
    code, out, _ = run(capsys, "analyze", "-p", "3", "-s", "2", "-t", "1,1")
    assert code == 0
    assert "is_gh" in out and "True" in out and "FAIL" not in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "-p", "2", "-s", "3", "-t", "1,0,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["is_linear"] and doc["kernel_dim"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "-p", "3", "-s", "2", "-t", "1,1", "--pairs", "1000"],
        ["grid", "--primes", "3", "--s-values", "2", "--pairs", "1000"],
        ["analyze", "-p", "2", "-s", "3", "-t", "2,0,1", "--kernel", "brute"],
    ],
)
def test_pairs_option_is_a_usage_error(capsys, argv):
    # Removed options, each given last with its value: every check is
    # exact, so there is no sample size to choose, and there is one kernel.
    option = argv[-2]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_small_with_outputs(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "grid", "--primes", "3", "--s-values", "2", "--max-size", "2048",
        "--out", str(out_json), "--csv", str(out_csv),
    )
    assert code == 0
    assert "summary:" in out and "FAIL" not in out
    doc = json.loads(out_json.read_text())
    assert sorted(doc["grid"]) == ["max_size", "primes", "quad_cap", "s_values", "seed"]
    assert doc["summary"]["failed"] == 0
    assert all(r["ok"] for r in doc["results"])
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert len(rows) == len(doc["results"]) > 0
    assert rows[0]["is_gh"] == "True"


def test_grid_empty(capsys):
    code, out, _ = run(capsys, "grid", "--primes", "", "--s-values", "2")
    assert code == 0 and "0/0" in out.split("summary:")[1]


def test_grid_tiny_cap_notes_skips(capsys):
    code, out, _ = run(capsys, "grid", "--primes", "3", "--s-values", "3", "--max-size", "16")
    assert code == 0 and "skipped" in out
