"""Fuzz test of the CLI exit-code contract.

Every subcommand is run in-process on generated JSON that is mostly valid
with a few faults: wrong types, wrong lengths, zero or negative entries,
missing keys, pmfs whose denominators leave the float range and Monte
Carlo sizes past their bounds.  Whatever the input, `main` returns 0, 1
or 2, never lets an exception escape, and says `error:` when it returns 2.
A second test holds `simulate-crp` to the same contract on inputs that are
mostly valid, so that most of its examples run the Monte Carlo itself.  A
third runs `solve-lp` and `min-mass` on valid instances; where 1/F is
convex it holds `solve-lp`'s value to `optimal-lottery`'s and to the
simplex's, and `check` to the mechanism `solve-lp` prints.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from lotbench import Instance, build_designer_lp, cli, convexity_report, simplex_solve
from lotbench.cli import main

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2, 2, allow_nan=False),
    st.sampled_from(["", "abc", "1/0", "1/", "nan", "-1/2", "0"]),
    st.just({}),
    st.just([]),
)
# small rationals as JSON carries them, zero and negative ones included
RATIONAL = st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-2, 6), st.integers(1, 6)
)


@st.composite
def pmf(draw, n, full_support):
    """Exact pmf as "p/q" strings.  In one draw of three, one weight is
    10^300..10^420, which leaves the others far below the smallest
    positive float."""
    low = 1 if full_support else 0
    weights = [draw(st.integers(low, 9)) for _ in range(n)]
    if draw(st.integers(0, 2)) == 2:
        weights[draw(st.integers(0, n - 1))] = 10 ** draw(st.integers(300, 420))
    if sum(weights) == 0:
        weights[0] = 1
    return [f"{w}/{sum(weights)}" for w in weights]


def vector(n):
    return st.lists(RATIONAL, min_size=n, max_size=n)


@st.composite
def mutate(draw, doc):
    """Apply up to two faults to a dict document, or replace it by junk."""
    if draw(st.integers(0, 9)) == 9:
        return draw(st.one_of(JUNK, st.lists(RATIONAL, max_size=3)))
    doc = dict(doc)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if not doc:
            break
        key = draw(st.sampled_from(sorted(doc)))
        fault = draw(st.sampled_from(["drop", "junk", "short", "long", "zero", "negative"]))
        value = doc.get(key)
        if fault == "drop":
            doc.pop(key, None)
        elif fault == "junk" or not isinstance(value, list) or not value:
            doc[key] = draw(JUNK)
        elif fault == "short":
            doc[key] = value[:-1]
        elif fault == "long":
            doc[key] = value + value[:1]
        else:
            i = draw(st.integers(0, len(value) - 1))
            doc[key] = value[:i] + ["0" if fault == "zero" else "-1/3"] + value[i + 1:]
    return doc


@st.composite
def instance_doc(draw):
    n = draw(st.integers(2, 4))
    doc = {
        "n": n,
        "f": draw(pmf(n, True)),
        "g": draw(pmf(n, False)),
        "D": draw(st.sampled_from(["1", "1/2", "3/2", "2", "1/10"])),
    }
    return n, draw(mutate(doc))


@st.composite
def mechanism_doc(draw, n):
    """Half the time the expansion of a small common lottery, which is
    feasible unless a capacity is smaller still; else arbitrary cells."""
    if draw(st.booleans()):
        c = draw(st.lists(st.sampled_from(["0", "1/100", "1/50"]), min_size=n, max_size=n))
        a = [[c[k] if i <= k else "0" for i in range(n)] for k in range(n)]
    else:
        a = draw(st.lists(vector(n), min_size=n, max_size=n))
    return draw(mutate({"a": a}))


def objective_doc(n):
    weight = st.sampled_from(["1", "2", "1/3", str(10**400)])
    doc = st.fixed_dictionaries({
        "kind": st.sampled_from(["fill", "linear", "concave", "concave", "other"]),
        "weights": st.one_of(st.lists(weight, min_size=n, max_size=n), vector(n)),
        "rho": st.sampled_from(["1/2", "1/4", "99/100", "0", "3/2", f"1/{10**400}"]),
    })
    return doc.flatmap(mutate)


@st.composite
def masses_doc(draw, n):
    """Mostly n small masses, which fit under most capacities."""
    kind = draw(st.integers(0, 9))
    if kind == 9:
        return draw(JUNK)
    if kind == 8:
        return draw(st.lists(RATIONAL, max_size=5))
    entry = RATIONAL if kind >= 5 else st.sampled_from(["0", "1/1000", "1/100"])
    return draw(st.lists(entry, min_size=n, max_size=n))


def run_cli(tmp_path, argv, docs):
    """Write each document to a file named by its key, then run `main`;
    returns its exit code and stdout."""
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(tmp_path / a) if a in docs else a for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    return code, out.getvalue()


@st.composite
def cli_case(draw):
    """(argv, documents) for one subcommand; documents are named files."""
    n, inst = draw(instance_doc())
    command = draw(st.sampled_from([
        "validate", "check", "convexity", "optimal-lottery", "solve-lp",
        "transform", "min-mass", "perturb", "simulate-crp", "reproduce",
    ]))
    docs = {"i.json": inst}
    if command in ("validate", "convexity"):
        argv = [command, "i.json"]
    elif command in ("check", "transform"):
        docs["m.json"] = draw(mechanism_doc(n))
        argv = [command, "m.json", "--instance", "i.json"]
    elif command in ("optimal-lottery", "solve-lp"):
        docs["o.json"] = draw(objective_doc(n))
        argv = [command, "i.json", "--objective", "o.json"]
        if command == "solve-lp":
            argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    elif command == "min-mass":
        docs["t.json"] = draw(masses_doc(n))
        argv = [command, "i.json", "--targets", "t.json"]
    elif command == "perturb":
        argv = [command, "i.json"]
        d = draw(st.one_of(st.none(), st.sampled_from(["1", "3/2", "0", "-1", "x", "1/0"])))
        if d is not None:
            argv += ["--D", d]
    elif command == "simulate-crp":
        docs["c.json"] = draw(masses_doc(n))
        # now and then a size past the bounds, which must exit 2 before
        # any array or seed stream is built
        agents, reps = draw(st.one_of(
            st.tuples(st.integers(-1, 1000), st.integers(0, 3)),
            st.sampled_from([(10**15, 1), (1, 10**4 + 1)]),
        ))
        argv = [
            command, "i.json", "--caps", "c.json",
            "--agents", str(agents),
            "--reps", str(reps),
            "--seed", str(draw(st.integers(-1, 5))),
            "--format", draw(st.sampled_from(["json", "csv"])),
        ]
    else:
        argv = [command, draw(st.sampled_from(["fig1", "fig2", "fig3", "fig4", "appendixA1"]))]
    return argv, docs


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=cli_case())
def test_every_subcommand_keeps_the_exit_code_contract(tmp_path, case):
    argv, docs = case
    run_cli(tmp_path, argv, docs)


@st.composite
def crp_case(draw):
    """simulate-crp on a valid instance with N <= 4, caps that are 0 or a
    share of g_k, and in-range sizes; one example in five gets the usual
    one or two faults in the instance or in the caps."""
    n = draw(st.integers(2, 4))
    inst = {
        "n": n,
        "f": draw(pmf(n, True)),
        "g": draw(pmf(n, False)),
        "D": draw(st.sampled_from(["1", "1/2", "3/2", "2", "1/10"])),
    }
    share = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    caps = [Fraction(gk) * draw(share) for gk in inst["g"]]
    docs = {"i.json": inst, "c.json": [f"{c.numerator}/{c.denominator}" for c in caps]}
    if draw(st.integers(0, 4)) == 0:
        name = draw(st.sampled_from(sorted(docs)))
        faulty = draw(mutate({"doc": docs[name]}))
        docs[name] = faulty.get("doc") if isinstance(faulty, dict) else faulty
    argv = [
        "simulate-crp", "i.json", "--caps", "c.json",
        "--agents", str(draw(st.integers(1, 1000))),
        "--reps", str(draw(st.integers(1, 3))),
        "--seed", str(draw(st.integers(0, 5))),
        "--format", draw(st.sampled_from(["json", "csv"])),
    ]
    return argv, docs


def test_simulate_crp_keeps_the_exit_code_contract_in_range(tmp_path, monkeypatch):
    examples, reached = [], []
    simulate = cli.simulate_finite

    def counted(*args):
        reached.append(args)
        return simulate(*args)

    monkeypatch.setattr(cli, "simulate_finite", counted)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=crp_case())
    def run(case):
        examples.append(case)
        run_cli(tmp_path, *case)

    run()
    # the Monte Carlo path itself is what this test is for
    assert len(reached) > len(examples) // 2


@st.composite
def lp_case(draw):
    """A valid instance with N <= 5, a Fill or Linear objective (weights
    zero and negative included) and min-mass targets; half the time the
    type pmf is non-increasing, which makes 1/F convex."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights.sort(reverse=True)
    inst = {
        "n": n,
        "f": [f"{w}/{sum(weights)}" for w in weights],
        "g": draw(pmf(n, False)),
        "D": draw(st.sampled_from(["1", "1/2", "3/2", "2", "1/10"])),
    }
    obj = draw(st.one_of(
        st.just({"kind": "fill"}),
        st.fixed_dictionaries({"kind": st.just("linear"), "weights": st.lists(
            st.sampled_from(["-1", "0", "1/2", "1", "3"]), min_size=n, max_size=n,
        )}),
    ))
    targets = draw(st.lists(st.sampled_from(["0", "1/100", "1/10", "1/3"]), min_size=n, max_size=n))
    return {"i.json": inst, "o.json": obj, "t.json": targets}


def test_solve_lp_and_min_mass_on_valid_instances(tmp_path):
    """On a valid instance both LP commands answer.  Where 1/F is convex,
    `solve-lp` answers with the common lottery: its value must equal
    `optimal-lottery`'s and the simplex's (computed in-process, with no
    closed form, so the two values are found independently), and the
    mechanism it prints must pass `check`."""
    convex = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(docs=lp_case())
    def run(docs):
        code, out = run_cli(tmp_path, ["solve-lp", "i.json", "--objective", "o.json"], docs)
        assert code == 0
        solved = json.loads(out)
        code, _ = run_cli(tmp_path, ["min-mass", "i.json", "--targets", "t.json"], docs)
        assert code == 0
        inst = Instance.from_json_dict(docs["i.json"])
        if not convexity_report(inst).is_convex:
            return
        convex.append(docs)
        code, out = run_cli(tmp_path, ["optimal-lottery", "i.json", "--objective", "o.json"], docs)
        assert code == 0 and json.loads(out)["value"] == solved["value"]
        obj = cli._load_objective(str(tmp_path / "o.json"))
        assert Fraction(solved["value"]) == simplex_solve(build_designer_lp(inst, obj)).objective
        code, _ = run_cli(
            tmp_path, ["check", "m.json", "--instance", "i.json"],
            {**docs, "m.json": solved["mechanism"]},
        )
        assert code == 0

    run()
    assert len(convex) >= 40
