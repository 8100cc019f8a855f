import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lotbench
from lotbench.cli import main


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


UNIFORM4 = {"n": 4, "f": ["1/4"] * 4, "g": ["1/4"] * 4, "D": "1"}
FIG4 = {"n": 3, "f": ["1/3", "1/12", "7/12"], "g": ["1/3"] * 3, "D": "1"}
MENU = {
    "a": [
        ["0", "0", "0", "0"],
        ["1/2", "1/2", "0", "0"],
        ["1/2", "1/2", "0", "0"],
        ["0", "0", "1/4", "1/4"],
    ]
}
BAD = {
    "a": [
        ["0", "0", "0", "0"],
        ["1/5", "0", "0", "0"],
        ["1/5", "3/5", "0", "0"],
        ["3/5", "2/5", "2/5", "0"],
    ]
}

UNIFORM2 = {"n": 2, "f": ["1/2"] * 2, "g": ["1/2"] * 2, "D": "1"}
# every constraint holds except the sign of cell (0, 0)
NEGATIVE_CELL = {"a": [["-1/2", "0"], ["1/2", "1/2"]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(files, capsys):
    code, out, _ = run(capsys, "validate", files("i.json", UNIFORM4))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_malformed(files, capsys):
    code, _, err = run(
        capsys, "validate", files("i.json", {"n": 2, "f": ["1/2"], "g": [], "D": "1"})
    )
    assert code == 2 and "error" in err


@pytest.mark.parametrize("d", ["1e100000", "1.5", "1_000"])
def test_validate_rejects_rationals_not_written_p_over_q(files, capsys, d):
    # an exponent string is rejected before Fraction builds its integer
    code, out, err = run(capsys, "validate", files("i.json", {**FIG4, "D": d}))
    assert code == 2 and out == ""
    assert err == f"error: Invalid literal for Fraction: {d!r}\n"


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent.json")
    assert code == 2 and "error" in err


def test_check_feasible(files, capsys):
    code, out, _ = run(
        capsys, "check", files("m.json", MENU), "--instance", files("i.json", UNIFORM4)
    )
    assert code == 0
    assert json.loads(out)["feasible"] is True


@pytest.mark.parametrize(
    "mech, inst, name",
    [
        (BAD, UNIFORM4, "IC[2,0]"),
        (NEGATIVE_CELL, UNIFORM2, "NONNEG[0,0]"),
    ],
    ids=["ic", "negative-cell"],
)
def test_check_infeasible(files, capsys, mech, inst, name):
    code, out, err = run(
        capsys, "check", files("m.json", mech), "--instance", files("i.json", inst)
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert name in doc["violated"]
    assert name in err


def test_convexity_codes(files, capsys):
    code, out, _ = run(capsys, "convexity", files("i.json", UNIFORM4))
    assert code == 0 and json.loads(out)["is_convex"]
    code, out, _ = run(capsys, "convexity", files("j.json", FIG4))
    assert code == 1 and not json.loads(out)["is_convex"]


def test_optimal_lottery(files, capsys):
    code, out, _ = run(capsys, "optimal-lottery", files("i.json", UNIFORM4))
    assert code == 0
    doc = json.loads(out)
    assert doc["lottery"] == ["0", "5/12", "1/3", "1/4"]
    assert doc["value"] == "17/24"


def test_optimal_lottery_warns_on_nonconvex(files, capsys):
    code, out, err = run(capsys, "optimal-lottery", files("j.json", FIG4))
    assert code == 0
    assert json.loads(out)["convexity_warning"] is True
    assert "warning" in err


def test_optimal_lottery_with_objective(files, capsys):
    obj = {"kind": "linear", "weights": ["1", "1", "1", "1"]}
    code, out, _ = run(
        capsys,
        "optimal-lottery",
        files("i.json", UNIFORM4),
        "--objective",
        files("o.json", obj),
    )
    assert code == 0 and json.loads(out)["value"] == "17/24"


@pytest.mark.parametrize(
    "command, obj",
    [
        ("optimal-lottery", {"kind": "linear", "weights": ["1", "1"]}),
        ("optimal-lottery", {"kind": "concave", "weights": ["1", "1"], "rho": "1/2"}),
        ("solve-lp", {"kind": "linear", "weights": ["1", "1"]}),
    ],
    ids=["linear", "concave", "solve-lp"],
)
def test_optimal_lottery_rejects_short_weights(files, capsys, command, obj):
    code, out, err = run(
        capsys,
        command,
        files("j.json", FIG4),
        "--objective",
        files("o.json", obj),
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_solve_lp_json_and_csv(files, capsys):
    inst = files("i.json", UNIFORM4)
    code, out, _ = run(capsys, "solve-lp", inst)
    assert code == 0 and json.loads(out)["value"] == "17/24"
    code, out, _ = run(capsys, "solve-lp", inst, "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_repeated_calls_share_no_parsed_state(files, capsys):
    """main reuses one parser per process: a csv call, then a call that
    argparse rejects, then the default format must print what a fresh
    process prints."""
    inst = files("i.json", UNIFORM4)
    code, out, _ = run(capsys, "solve-lp", inst, "--format", "csv")
    assert code == 0 and len(out.strip().splitlines()) == 4
    with pytest.raises(SystemExit) as exc:
        main(["solve-lp", inst, "--format", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "solve-lp", inst)
    fresh = run_subprocess("solve-lp", inst)
    assert code == 0 == fresh.returncode and out == fresh.stdout
    assert json.loads(out)["value"] == "17/24"


def test_transform(files, capsys):
    code, out, _ = run(
        capsys,
        "transform",
        files("m.json", MENU),
        "--instance",
        files("i.json", UNIFORM4),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lottery"] == ["0", "1/2", "1/3", "1/8"]
    assert doc["overflow"] is False
    assert doc["decomposition"]["residual"] == "0"


def test_min_mass(files, capsys):
    code, out, _ = run(
        capsys,
        "min-mass",
        files("i.json", UNIFORM4),
        "--targets",
        files("t.json", ["0", "5/24", "1/4", "1/4"]),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["d_star"] == "1"
    assert doc["multipliers"]["POS"]["3"] == "1"


PINNED_OPTIMA = {
    # 1/F is not convex here: the common lottery is refused and the
    # simplex's certified vertex is printed
    "fig4": (
        FIG4,
        ["1/6", "1/3", "1/3"],
        {
            "mechanism": {"a": [["0", "0", "0"], ["1", "0", "0"], ["0", "1/2", "1/2"]]},
            "value": "2/3",
        },
        {
            "status": "optimal",
            "d_star": "3/2",
            "mechanism": {"a": [["1/3", "0", "0"], ["2/3", "0", "0"], ["0", "1/3", "1/3"]]},
            "multipliers": {
                "POS": {"0": "9/2", "1": "3", "2": "3/2"},
                "AGE": {"0": "3/2", "1": "0", "2": "0"},
                "IC": {"0,1": "1", "0,2": "0", "1,0": "0", "1,2": "7/4", "2,0": "0", "2,1": "0"},
            },
        },
    ),
    # 1/F is convex: the certified common lottery is printed
    "uniform4": (
        UNIFORM4,
        ["0", "5/24", "1/4", "1/4"],
        {
            "mechanism": {"a": [
                ["0", "0", "0", "0"],
                ["5/12", "5/12", "0", "0"],
                ["1/3", "1/3", "1/3", "0"],
                ["1/4", "1/4", "1/4", "1/4"],
            ]},
            "value": "17/24",
        },
        {
            "status": "optimal",
            "d_star": "1",
            "mechanism": {"a": [
                ["0", "0", "0", "0"],
                ["5/12", "5/12", "0", "0"],
                ["1/3", "1/3", "1/3", "0"],
                ["1/4", "1/4", "1/4", "1/4"],
            ]},
            "multipliers": {
                "POS": {"0": "4", "1": "2", "2": "4/3", "3": "1"},
                "AGE": {"0": "1", "1": "0", "2": "0", "3": "0"},
                "IC": {
                    "0,1": "3/2", "0,2": "0", "0,3": "0",
                    "1,0": "1", "1,2": "1", "1,3": "0",
                    "2,0": "1/4", "2,1": "1/4", "2,3": "3/4",
                    "3,0": "0", "3,1": "0", "3,2": "0",
                },
            },
        },
    ),
}


@pytest.mark.parametrize("name", PINNED_OPTIMA)
def test_solve_lp_and_min_mass_print_pinned_optima(files, capsys, name):
    inst, targets, designer, min_mass = PINNED_OPTIMA[name]
    inst = files("i.json", inst)
    code, out, err = run(capsys, "solve-lp", inst)
    assert (code, err) == (0, "")
    assert out == json.dumps(designer, indent=2) + "\n"
    code, out, err = run(capsys, "min-mass", inst, "--targets", files("t.json", targets))
    assert (code, err) == (0, "")
    assert out == json.dumps(min_mass, indent=2) + "\n"


def test_perturb_improves_and_declines(files, capsys):
    code, out, _ = run(capsys, "perturb", files("j.json", FIG4), "--D", "3/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["improved"] is True and doc["gain"] == "1/45"
    # without --D the own D = 1 fails and the search moves to 49/30, the
    # midpoint of the window (17/15, 32/15)
    code, out, _ = run(capsys, "perturb", files("j.json", FIG4))
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == "49/30" and doc["gain"] == "1/45"
    code, out, err = run(capsys, "perturb", files("i.json", UNIFORM4))
    assert code == 1
    assert json.loads(out)["diagnostic"] == "convex"
    assert "convex" in err


def test_simulate_crp(files, capsys):
    code, out, _ = run(
        capsys,
        "simulate-crp",
        files("i.json", UNIFORM4),
        "--caps",
        files("c.json", ["0", "5/24", "1/4", "1/4"]),
        "--agents",
        "2000",
        "--reps",
        "3",
        "--seed",
        "11",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["quotas"] == [0, 416, 500, 500]
    cell = next(r for r in doc["cells"] if r["k"] == 3 and r["i"] == 0)
    assert cell["analytic_prob"] == "1/4"
    assert abs(cell["empirical_prob"] - 0.25) < 0.05


def test_simulate_crp_csv(files, capsys):
    code, out, _ = run(
        capsys,
        "simulate-crp",
        files("i.json", UNIFORM4),
        "--caps",
        files("c.json", ["0", "0", "0", "1/4"]),
        "--agents",
        "100",
        "--reps",
        "2",
        "--seed",
        "1",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,i,empirical_prob,stderr,analytic_prob"
    assert len(lines) == 17


def test_reproduce_targets(capsys):
    code, out, _ = run(capsys, "reproduce", "fig1")
    assert code == 0
    doc = json.loads(out)
    assert doc["uniform_lottery_mass"] == "5/8"
    assert doc["optimal_mass"] == "17/24"
    assert doc["optimal_lottery"] == ["0", "5/12", "1/3", "1/4"]

    code, out, _ = run(capsys, "reproduce", "fig2")
    doc = json.loads(out)
    assert code == 0
    assert doc["menu"] == {"mass": "5/8", "feasible": True}
    assert doc["ceei"] == {"mass": "11/16", "feasible": True}

    code, out, _ = run(capsys, "reproduce", "fig3")
    doc = json.loads(out)
    assert code == 0
    assert doc["ic_violations"] == ["IC[2,0]"] and doc["feasible"] is False

    code, out, _ = run(capsys, "reproduce", "fig4")
    doc = json.loads(out)
    assert code == 0
    assert doc["best_common_lottery_value"] == "11/18"
    assert doc["lp_value"] == "2/3"
    assert doc["strict_gap"] is True

    code, out, _ = run(capsys, "reproduce", "appendixA1")
    doc = json.loads(out)
    assert code == 0
    values = {c["epsilon"]: (c["menu_value"], c["lottery_value"]) for c in doc["cases"]}
    assert values["-1/4"] == ("2/3", "20/27")
    assert values["-1/10"] == ("2/3", "19/27")
    assert values["0"] == ("2/3", "2/3")
    assert values["1/10"] == ("2/3", "3/5")


def test_min_mass_rejects_wrong_length_targets(files, capsys):
    code, out, err = run(
        capsys,
        "min-mass",
        files("j.json", FIG4),
        "--targets",
        files("t.json", ["1/6", "1/6"]),
    )
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", {"n": 3, "f": ["1/3", "1/3", "1/0"], "g": ["1/3"] * 3, "D": "1"}),
        ("validate", ["1/3", "1/3", "1/3"]),
        ("convexity", ["1/3", "1/3", "1/3"]),
        ("validate", {"n": 3, "f": 5, "g": ["1/3"] * 3, "D": "1"}),
        ("optimal-lottery", FIG4, "--objective", ["1", "1", "1"]),
        ("validate", {**FIG4, "n": [3]}),
        ("validate", {**FIG4, "n": 3.7}),
        ("check", {"a": 5}, "--instance", FIG4),
    ],
    ids=[
        "zero-denominator", "validate-list", "convexity-list", "scalar-pmf",
        "objective-list", "list-n", "float-n", "scalar-rows",
    ],
)
def test_malformed_json_exits_2_without_traceback(files, argv):
    out = run_subprocess(*file_args(files, *argv))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        '{"n": 2, "f": ' + "[" * 5000 + "]" * 5000 + ', "g": ["1/2", "1/2"], "D": "1"}',
    ],
    ids=["deep-list", "deep-f"],
)
def test_deeply_nested_json_exits_2_without_traceback(tmp_path, text):
    # written as raw text: json.dumps cannot build a document this deep
    path = tmp_path / "i.json"
    path.write_text(text)
    out = run_subprocess("validate", str(path))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == f"error: {path}: JSON nested too deeply\n"


def file_args(files, command, instance, *rest):
    """Command line with the instance and an optional second JSON file."""
    args = [command, files("i.json", instance)]
    if rest:
        args += [rest[0], files("o.json", rest[1])]
    return args


def run_subprocess(*args):
    """Run `python -m lotbench.cli` on this checkout's sources."""
    src = str(Path(lotbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-m", "lotbench.cli", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


# F_0 = 10^-400 is exact here but rounds to 0.0 as a float
TINY = 10**400
TINY3 = {
    "n": 3,
    "f": [f"1/{TINY}", f"{TINY - 1}/{2 * TINY}", f"{TINY - 1}/{2 * TINY}"],
    "g": ["1/3"] * 3,
    "D": "1",
}
TINY4 = {
    "n": 4,
    "f": [f"1/{TINY}", f"{TINY // 2 - 1}/{TINY}", "1/20", "9/20"],
    "g": ["1/4"] * 4,
    "D": "1",
}


@pytest.mark.parametrize(
    "argv, code, improves",
    [
        (("optimal-lottery", TINY3, "--objective",
          {"kind": "concave", "weights": ["1", "1", "1"], "rho": "1/2"}), None, False),
        (("perturb", TINY4), None, False),
        # the cost of filling everything, about 10^400, has no float
        (("perturb", {**TINY4, "D": str(10 * TINY)}), None, True),
        # (10^200)**4 has no float; once that position is capped the others
        # split the budget left, their b_k about 10^-800 of its
        (("optimal-lottery", {"n": 3, "f": ["1/3"] * 3, "g": ["1/3"] * 3, "D": "3/2"},
          "--objective",
          {"kind": "concave", "weights": [str(10**200), "1", "1"], "rho": "3/4"}),
         None, False),
        # D = 4e-320 is a subnormal float, with too few bits to solve with
        (("optimal-lottery", {"n": 3, "f": ["1/3"] * 3, "g": ["1/3"] * 3,
                              "D": f"4/{10**320}"},
          "--objective", {"kind": "concave", "weights": ["1", "2", "3"], "rho": "1/2"}),
         2, False),
    ],
    ids=["concave-water-fill", "perturb-d-grid", "perturb-beyond-float-spent",
         "concave-huge-weight", "concave-subnormal-mass"],
)
def test_beyond_float_range_exits_without_traceback(files, argv, code, improves):
    out = run_subprocess(*file_args(files, *argv))
    assert out.returncode in (0, 1, 2) if code is None else out.returncode == code
    assert "Traceback" not in out.stderr
    if out.returncode == 2:
        assert out.stderr.startswith("error:")
    if improves:
        assert out.returncode == 0
        assert json.loads(out.stdout)["improved"] is True
