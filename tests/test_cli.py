import json
import shlex
import time
from pathlib import Path

import pytest

from perfcone import brackets as br
from perfcone.cli import main
from perfcone.cones import catalog
from perfcone.series import MAX_SERIES_DEGREE

GOLDEN_DIR = Path(__file__).parent / "goldens"
ABOVE_SERIES_BOUND = str(MAX_SERIES_DEGREE + 1)

DOCUMENTED = [
    ("betti_perf_12_breakdown.txt", "betti --space perf --max-degree 12 --breakdown"),
    ("betti_beta2_8.txt", "betti --space beta2 --max-degree 8"),
    ("betti_matr_12.txt", "betti --space matr --max-degree 12"),
    ("betti_perf_6_csv.csv", "betti --space perf --max-degree 6 --format csv"),
    ("brackets_enum_5.txt", "brackets enum -d 5"),
    ("brackets_multiply_cube.txt", "brackets multiply {1}^3"),
    ("brackets_of_cone_K4-1.txt", "brackets of-cone K4-1"),
    ("brackets_bounds_12.txt", "brackets bounds -d 12"),
    ("strata_count_12.txt", "strata-count -d 12"),
    ("stabilizer_K3.txt", "stabilizer K3"),
    ("molien_C4_6.txt", "molien C4 --max-degree 6"),
    ("koszul_1+1_4.txt", "koszul 1+1 --max-total 4"),
    ("catalog_show_NS.txt", "catalog show NS"),
    ("satake_0.txt", "betti --space satake --max-degree 0"),
    ("voronoi_faces_3_6.txt", "voronoi faces -g 3 --max-dim 6"),
    ("verify.txt", "verify"),
]


@pytest.mark.parametrize("golden,command", DOCUMENTED, ids=[g for g, _ in DOCUMENTED])
def test_documented_command_matches_golden(capsys, golden, command):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text()


def test_quintic_enumeration_prints_16_lines(capsys):
    assert main(["brackets", "enum", "-d", "5"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 16


def test_unknown_space_fails(capsys):
    assert main(["betti", "--space", "everything", "--max-degree", "4"]) == 1
    assert "unknown space" in capsys.readouterr().err


@pytest.mark.parametrize(
    "label", ["universal:x", "universal", "mumford_partial", "beta_open", "beta0"]
)
def test_bad_space_label_fails_cleanly(capsys, label):
    assert main(["betti", "--space", label, "--max-degree", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown space {label!r}; expected perf, matr,")
    assert "universal:<n> with 0 <= n <= 8" in captured.err
    assert captured.err.count("\n") == 1


def test_negative_molien_degree_fails_before_the_stabilizer_search(capsys, monkeypatch):
    from perfcone import stabilizers

    def refuse(cone):
        raise AssertionError("stabilizer search ran before the degree check")

    monkeypatch.setattr(stabilizers, "stabilizer_action", refuse)
    assert main(["molien", "6d-g6-x", "--max-degree", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Molien series needs max_deg >= 0, got max_deg = -1\n"


def test_molien_degree_above_bound_fails_before_the_stabilizer_search(capsys, monkeypatch):
    from perfcone import stabilizers

    def refuse(cone):
        raise AssertionError("stabilizer search ran before the degree check")

    monkeypatch.setattr(stabilizers, "stabilizer_action", refuse)
    assert main(["molien", "6d-g6-x", "--max-degree", ABOVE_SERIES_BOUND]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"only through degree {MAX_SERIES_DEGREE}, not {ABOVE_SERIES_BOUND}" in captured.err


def test_unknown_cone_fails(capsys):
    for argv in (["catalog", "show", "Zeta"], ["stabilizer", "Zeta"],
                 ["molien", "Zeta", "--max-degree", "4"], ["koszul", "Zeta"],
                 ["brackets", "of-cone", "Zeta"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: unknown catalog cone 'Zeta'\n"), argv


def test_depth_beyond_catalog_fails(capsys):
    assert main(["betti", "--space", "perf", "--max-degree", "14"]) == 1
    assert "catalog incomplete beyond degree 13" in capsys.readouterr().err
    # above the series bound the catalog is still what is named
    assert main(["betti", "--space", "perf", "--max-degree", ABOVE_SERIES_BOUND]) == 1
    assert capsys.readouterr().err == "error: catalog incomplete beyond degree 13\n"


def test_stabilizer_of_dim6_entry(capsys):
    assert main(["stabilizer", "6d-g4-a"]) == 0
    assert "order: 8\n" in capsys.readouterr().out


@pytest.mark.parametrize("name", [e.name for e in catalog(6)])
def test_catalog_show_check_flags(capsys, name):
    assert main(["catalog", "show", name, "--check-flags"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_json_format(capsys):
    assert main(["betti", "--space", "satake", "--max-degree", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["space"] == "satake"
    assert doc["entries"][0]["degree"] == 0
    assert {"space", "degree", "stratum", "value"} <= set(doc["entries"][0])


def test_json_format_lists_every_degree_through_the_last(capsys):
    assert main(["betti", "--space", "perf", "--max-degree", "12", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_degree"] == 12
    assert sorted({e["degree"] for e in doc["entries"]}) == list(range(13))
    assert doc["entries"][-1] == {"space": "perf", "degree": 12, "stratum": "total", "value": 84}


def test_catalog_check_flags(capsys):
    assert main(["catalog", "show", "NS", "--check-flags"]) == 0
    out = capsys.readouterr().out
    assert "recomputed matroidal = False: ok" in out


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "NS" in out and "6d-g6-y" in out


def test_oracle_command(capsys):
    assert main(["brackets", "oracle", "-g", "3", "{1}*{1}"]) == 0
    out = capsys.readouterr().out
    assert "agrees with multiply" in out


def test_oracle_command_accepts_powers(capsys):
    assert main(["brackets", "oracle", "-g", "3", "{1}*{1}"]) == 0
    product = capsys.readouterr().out
    assert main(["brackets", "oracle", "-g", "3", "{1}^2"]) == 0
    assert capsys.readouterr().out == product


@pytest.mark.parametrize(
    "argv", [["brackets", "enum", "-d", "9"], ["brackets", "multiply", "{1}^8"]]
)
def test_bracket_degree_beyond_bound_fails_fast(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "through degree 7" in captured.err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["brackets", "multiply", "{1}^-1"], "negative power -1"),
        (["brackets", "multiply", "{1}*{12}^-2"], "negative power -2"),
        (["koszul", "1+1", "--max-total", "-1"], "max_total must be nonnegative"),
    ],
)
def test_negative_count_fails(capsys, argv, named):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize(
    "argv,bound",
    [
        (["voronoi", "enumerate", "-g", "0"], "g >= 1, got g = 0"),
        (["voronoi", "faces", "-g", "0"], "g >= 1, got g = 0"),
        (["molien", "K3", "--max-degree", "-1"], "max_deg >= 0, got max_deg = -1"),
        (["brackets", "oracle", "-g", "-1", "{1}"], "0 <= g <= 6, got g = -1"),
        (["betti", "--space", "universal:9", "--max-degree", "4"], "supported for 0 <= n <= 8"),
        (["betti", "--space", "universal:-1", "--max-degree", "4"], "supported for 0 <= n <= 8"),
        (["voronoi", "enumerate", "-g", "6"], "g <= 5, got g = 6"),
        (["voronoi", "faces", "-g", "3", "--max-dim", "-1"], "got max_dim = -1"),
        (["voronoi", "faces", "-g", "3", "--max-dim", "7"], "got max_dim = 7"),
    ] + [
        (["betti", "--space", space, "--max-degree", ABOVE_SERIES_BOUND],
         f"series are computed only through degree {MAX_SERIES_DEGREE}, not {ABOVE_SERIES_BOUND}")
        for space in ("std", "satake", "partial", "beta1", "beta2", "beta3", "universal:8")
    ],
)
def test_out_of_range_genus_or_degree_names_the_bound(capsys, argv, bound):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert bound in captured.err


@pytest.mark.parametrize(
    "expression,power", [("{1^2}^x", "'x'"), ("{1}^", "''"), ("{1}*{12}^1.5", "'1.5'")]
)
def test_bad_power_names_the_power_and_the_expression(capsys, expression, power):
    assert main(["brackets", "multiply", expression]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: power {power} is not an integer in {expression!r}\n"


@pytest.mark.parametrize(
    "expression",
    [
        "{123(120)}", "{1^0}", "{12(12)}", "{1^}", "{1 (12}", "{1 1 2}", "{1 3}",
        # a bad factor of a longer expression
        "{1}^2^3", "{1}*1^2", "{12}*{1 3}",
    ],
)
def test_bad_bracket_names_the_expression(capsys, expression):
    assert main(["brackets", "multiply", expression]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert repr(expression) in line


@pytest.mark.parametrize(
    "expression,error",
    [
        ("{1}^2^3", "bracket class must be enclosed in braces: '{1}^2'"),
        ("{1}*1^2", "bracket class must be enclosed in braces: '1^2'"),
        ("{12}*{1 3}", "indices must be 1..2, each once, in '{1 3}'"),
    ],
)
@pytest.mark.parametrize("command", [["multiply"], ["oracle", "-g", "3"]])
def test_bad_factor_error_names_the_factor_then_the_expression(capsys, command, expression, error):
    assert main(["brackets", *command, expression]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error} in {expression!r}\n"


@pytest.mark.parametrize(
    "argv", [["brackets", "enum", "-d", "7"], ["brackets", "multiply", "{1}*{1^6}"]]
)
def test_degree7_warning_is_one_plain_line(capsys, fresh_bracket_caches, argv):
    # with cold caches degree 7 is enumerated, and warns, afresh
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: bracket classes of degree 7 are unvalidated beyond degree 6\n"
    if argv[1] == "enum":
        expected = [br.render_bracket(bc) for bc in br.enumerate_brackets(7)]
        assert len(expected) == 80
    else:
        expected = ["{1^7} + {1^6 2}"]
    assert captured.out.splitlines() == expected


@pytest.mark.parametrize("expression", ["{1}*", "{1}**{1}"])
@pytest.mark.parametrize("command", [["multiply"], ["oracle", "-g", "3"]])
def test_empty_factor_names_the_expression(capsys, command, expression):
    assert main(["brackets", *command, expression]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: empty factor in {expression!r}\n"


def test_power_zero_is_the_unit(capsys):
    assert main(["brackets", "multiply", "{1}*{12}^0"]) == 0
    assert main(["brackets", "multiply", "{1}"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


@pytest.mark.parametrize(
    "expr,bound", [("{1}^6", "MAX_PRODUCT_MONOMIALS"), ("{123456}", "MAX_PATTERN_MONOMIALS")]
)
def test_oracle_job_beyond_bound_fails_fast(capsys, expr, bound):
    start = time.perf_counter()
    assert main(["brackets", "oracle", "-g", "6", expr]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert bound in captured.err


def test_voronoi_enumerate(capsys):
    assert main(["voronoi", "enumerate", "-g", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 perfect form class(es)" in out


def test_voronoi_faces_g2(capsys):
    assert main(["voronoi", "faces", "-g", "2", "--max-dim", "6"]) == 0
    out = capsys.readouterr().out
    assert "3 inequivalent face class(es)" in out


def _readme_commands():
    readme = Path(__file__).parent.parent / "README.md"
    commands = []
    for line in readme.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("perfcone "):
            commands.append(line[len("perfcone ") :])
    return commands


@pytest.mark.oracle
def test_every_readme_command_runs(capsys):
    commands = _readme_commands()
    assert commands
    for command in commands:
        code = main(shlex.split(command))
        capsys.readouterr()
        assert code == 0, command
