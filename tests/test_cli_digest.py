"""CLI output pinned by one digest.

A seeded sweep of in-process `cli.main` commands: the five `reproduce`
targets, then on random instances `optimal-lottery` with the fill, linear
and concave objectives, `convexity`, `check`, `transform`, `solve-lp`
(json and csv), `min-mass`, `perturb` (with and without `--D`) and
`simulate-crp` (json and csv), with a few malformed inputs among them.
The sha256 of every command's arguments, exit code, stdout and stderr is
compared with a digest recorded at commit bb2b274, before the explore
path's Fraction loops (objective sums, the water-fill's budget walk, the
instance cdf, the per-taste grids, the Monte Carlo scan) moved to ints.
A change that means to alter some output records a new digest and says
which outputs moved.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from lotbench.cli import main

# recorded at commit bb2b274
PINNED = "2e3606d75d10601e57df463ab21419a1d2a76cd67a005f329bed84ef466cd022"

F = Fraction


def _pmf(rng, n, full_support):
    weights = [rng.randint(1 if full_support else 0, 9) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    return [F(w, sum(weights)) for w in weights]


def _text(values):
    return [str(v) for v in values]


def _instance(rng, n):
    d = rng.choice((F(1), F(3, 2), F(rng.randint(1, 9), rng.randint(1, 7)), F(1, 10**20)))
    return {"n": n, "f": _text(_pmf(rng, n, True)), "g": _text(_pmf(rng, n, False)), "D": str(d)}


def _mechanism(rng, n, kind):
    if kind == 0:  # the expansion of a small lottery
        c = [F(rng.randint(0, 2), 5 * n) for _ in range(n)]
        a = [[c[k] if i <= k else 0 for i in range(n)] for k in range(n)]
    elif kind == 1:  # cells on the acceptable support
        a = [[F(rng.randint(0, 12), 12) if i <= k else 0 for i in range(n)] for k in range(n)]
    else:  # raw cells, negative and above the diagonal too
        a = [[F(rng.randint(-3, 3), rng.choice((1, 2, 7))) for _ in range(n)] for _ in range(n)]
    return {"a": [_text(row) for row in a]}


def _commands(rng):
    """(argv, files) pairs; files maps a relative file name to its JSON."""
    for target in ("fig1", "fig2", "fig3", "fig4", "appendixA1"):
        yield ["reproduce", target], {}
    for trial in range(30):
        n = rng.randint(2, 6)
        inst = _instance(rng, n)
        if trial % 10 == 9:
            inst = {**inst, "D": "0"}  # malformed: exits 2
        files = {"i.json": inst}
        weights = _text(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n))
        objectives = {
            "fill.json": {"kind": "fill"},
            "linear.json": {"kind": "linear", "weights": weights},
            "concave.json": {
                "kind": "concave", "weights": weights, "rho": rng.choice(("1/4", "1/2", "3/5")),
            },
        }
        for name, doc in objectives.items():
            yield ["optimal-lottery", "i.json", "--objective", name], {**files, name: doc}
        yield ["convexity", "i.json"], files
        for kind in range(3):
            mech = {**files, "m.json": _mechanism(rng, n, kind)}
            yield ["check", "m.json", "--instance", "i.json"], mech
            yield ["transform", "m.json", "--instance", "i.json"], mech
        if n <= 5:
            for name in ("fill.json", "linear.json"):
                fmt = rng.choice(("json", "csv"))
                yield (["solve-lp", "i.json", "--objective", name, "--format", fmt],
                       {**files, name: objectives[name]})
        g = [F(v) for v in inst["g"]]
        targets = _text(gk * F(rng.randint(0, 3), 4) for gk in g)
        yield ["min-mass", "i.json", "--targets", "t.json"], {**files, "t.json": targets}
        yield ["perturb", "i.json"], files
        yield ["perturb", "i.json", "--D", rng.choice(("1", "3/2", "2/7"))], files
        caps = _text(gk * F(rng.randint(0, 4), 4) for gk in g)
        for fmt in ("json", "csv"):
            agents = rng.choice((1, 2, 7, 50, 300))
            yield ([
                "simulate-crp", "i.json", "--caps", "c.json", "--agents", str(agents),
                "--reps", str(rng.randint(1, 3)), "--seed", str(rng.randrange(2**32)),
                "--format", fmt,
            ], {**files, "c.json": caps})


def test_cli_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    count = 0
    for argv, files in _commands(random.Random(2031)):
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for part in (json.dumps(argv), str(code), out.getvalue(), err.getvalue()):
            digest.update(part.encode() + b"\0")
        count += 1
    assert count >= 300
    assert digest.hexdigest() == PINNED
