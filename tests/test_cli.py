import contextlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nahm_forge.candidates import family
from nahm_forge.cli import main, _parse_grid
from nahm_forge.modular import check_transformation, relations
from nahm_forge.recognizer import hunt


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--id", "capparelli", "--order", "60")
    assert code == 0
    assert "pass" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--id", "rr-1", "--order", "40", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["id"] == "rr-1" and data["result"] == "pass"
    assert data["first_mismatch"] is None


def test_verify_unknown_id_exit2(capsys):
    code, _, err = run(capsys, "verify", "--id", "nope", "--order", "10")
    assert code == 2
    assert "nope" in err


def test_verify_order_zero_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--id", "rr-1", "--order", "0"])
    assert exc.value.code == 2


def test_verify_all_filtered(capsys):
    code, out, _ = run(capsys, "verify-all", "--order", "25",
                       "--status-filter", "conjecture", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(r["result"] == "conjecture_pass" for r in data)
    assert len(data) == 13


def test_nahm_series_output(capsys):
    code, out, _ = run(capsys, "nahm", "--A", '[["2"]]', "--b", '["0"]',
                       "--d", "[1]", "--order", "7")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()
            if not line.startswith("#")]
    assert [r[1] for r in rows] == ["1", "1", "1", "1", "2", "2", "3"]


def test_nahm_parity_lowest_exponent(capsys):
    code, out, _ = run(capsys, "nahm", "--A", '[["1","1/2"],["1","1"]]',
                       "--b", '["0","0"]', "--d", "[1,2]", "--order", "5",
                       "--parity", "0:1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"][0][0] == "1/2"


def test_nahm_terms_below_c(capsys):
    # E(n) = -1 at n = (1, 0) and (2, 0): with c = 1 the series is 2 + O(q)
    code, out, _ = run(capsys, "nahm", "--A", '[[1,"-1/2"],[-1,"3/2"]]',
                       "--b", '["-3/2","5/2"]', "--d", "[1,2]", "--c", "1",
                       "--order", "1")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()
            if not line.startswith("#")]
    assert rows == [["0", "2"]]


def test_nahm_invalid_matrix_exit2(capsys):
    code, _, err = run(capsys, "nahm", "--A", '[["1","2"],["2","1"]]',
                       "--b", '["0","0"]', "--d", "[1,2]", "--order", "5")
    assert code == 2
    assert "symmetric" in err or "error" in err


def test_dual_capparelli_file(tmp_path, capsys):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({
        "A": [["4", "2"], ["6", "4"]], "b": ["0", "0"], "c": "-1/24",
        "d": [1, 3], "parity": [None, None]}))
    code, out, _ = run(capsys, "dual", "--quadruple", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["A"] == [["1", "-1/2"], ["-3/2", "1"]]
    assert data["c"] == "-1/8"
    assert data["d"] == [1, 3]


def test_hunt_cli(capsys):
    code, out, _ = run(capsys, "hunt", "--A", '[["2","1"],["2","2"]]',
                       "--d", "[1,2]", "--b-grid=-3/2:-3/2:1;0:0:1",
                       "--order", "30", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    hit = data[0]
    assert set(hit) == {"b", "delta", "const", "period", "residue_exponents",
                        "order_checked"}
    assert hit["period"] == 4


HUNT_ARGS = ["hunt", "--A", '[["2","1"],["2","2"]]', "--d", "[1,2]",
             "--b-grid=0:0:1;3:3:1", "--order", "40"]


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_hunt_max_n_nonpositive_usage_error(capsys, max_n):
    with pytest.raises(SystemExit) as exc:
        main(HUNT_ARGS + ["--max-n", max_n])
    assert exc.value.code == 2
    assert "max-n" in capsys.readouterr().err


def test_hunt_max_exp_negative_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(HUNT_ARGS + ["--max-exp", "-1"])
    assert exc.value.code == 2
    assert "max-exp" in capsys.readouterr().err
    # the smallest accepted values run normally
    code, out, _ = run(capsys, *HUNT_ARGS, "--max-n", "1", "--max-exp", "0")
    assert code == 0 and "out of 1 grid points" in out


def test_modular_check_pass(capsys):
    code, out, _ = run(capsys, "modular-check", "--relation", "conj1.1",
                       "--tau", "0,1", "--tol", "1e-9", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["theorem"] == "conj1.1"


def test_modular_check_bad_tau_exit2(capsys):
    code, _, err = run(capsys, "modular-check", "--relation", "conj1.1",
                       "--tau", "0,-1")
    assert code == 2


@pytest.mark.parametrize("tau", ["0,nan", "0,inf", "nan,1", "0.1,0.001"])
def test_modular_check_unusable_tau_exit2(capsys, tau):
    # not finite, or |q| >= 0.9 where the series tail bound does not hold
    code, _, err = run(capsys, "modular-check", "--relation", "u-routes", "--tau", tau)
    assert code == 2 and err.startswith("error:")


def test_modular_check_all(capsys):
    code, out, _ = run(capsys, "modular-check", "--relation", "all",
                       "--tau", "0.3,0.8", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 11 and all(r["pass"] for r in data)


def test_documented_experiments(capsys):
    # README "Experiments" at small order: the rediscovery grid of family 1,
    # every relation at one point, and the whole registry
    code, out, _ = run(capsys, "hunt", "--A", '[["2","1"],["2","2"]]', "--d", "[1,2]",
                       "--b-grid=-2:2:1/2;-2:4:1", "--order", "41", "--max-n", "40",
                       "--json")
    grid = [(F(x, 2), F(y)) for x in range(-4, 5) for y in range(-2, 5)]
    hits = hunt(family(1).A, family(1).d, grid, 41, max_n=40)
    assert code == 0 and hits and json.loads(out) == [h.to_json() for h in hits]
    code, out, _ = run(capsys, "modular-check", "--relation", "all", "--tau", "0,1",
                       "--json")
    assert code == 0 and json.loads(out) == [
        check_transformation(rel, 1j).to_json() for rel in relations()]
    code, out, _ = run(capsys, "verify-all", "--order", "20", "--param-order", "10")
    assert code == 0 and out.endswith("records, 0 failures\n")


def test_readme_library_tour_runs(capsys):
    # the README's "Library quick tour" block, run as printed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    exec(tour.split("```", 1)[0], {})
    assert "ModularReport" in capsys.readouterr().out


def test_grid_parser():
    grid = _parse_grid("-1:1:1/2;0:1:1")
    assert (F(-1), F(0)) in grid and (F(1, 2), F(1)) in grid
    assert len(grid) == 10


def test_oversized_grid_refused_before_it_is_built(capsys):
    # 1,000,001 points: counted from the ranges, refused with exit code 2
    t0 = time.perf_counter()
    code = main(HUNT_ARGS[:5] + ["--b-grid=0:1000000:1", "--order", "40"])
    assert code == 2 and time.perf_counter() - t0 < 1
    assert "more than 100000" in capsys.readouterr().err
    assert len(_parse_grid("0:1:1/2;0:4:1/4;0:100:1")) == 3 * 17 * 101


@pytest.mark.parametrize("argv", [
    # the left side of j1-square is a product of 2*10^7 slots
    ["verify", "--id", "j1-square", "--order", "20000000"],
    # a rank-two lattice with a row of 8*10^6 slots per prefix n_0
    ["nahm", "--A", '[["2","1"],["1","2"]]', "--b", '["0","0"]', "--d", "[1,1]",
     "--order", "8000000"],
])
def test_oversized_request_refused_before_it_is_built(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "window slots" in err


def test_jobs_env_default(monkeypatch):
    from nahm_forge.cli import build_parser
    monkeypatch.setenv("NAHM_FORGE_JOBS", "3")
    args = build_parser().parse_args(["verify-all", "--order", "10"])
    assert args.jobs == 3


def test_jobs_env_not_integer_usage_error(capsys, monkeypatch):
    from nahm_forge.cli import build_parser
    monkeypatch.setenv("NAHM_FORGE_JOBS", "x")
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--order", "10"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    # an explicit --jobs, or a subcommand without one, ignores the variable
    assert build_parser().parse_args(
        ["verify-all", "--order", "10", "--jobs", "2"]).jobs == 2
    code, out, _ = run(capsys, "verify", "--id", "rr-1", "--order", "10")
    assert code == 0 and "pass" in out


def test_verify_failure_exit1(capsys, monkeypatch):
    from nahm_forge import cli, registry

    def fake_verify(rid, order):
        return registry.VerifyReport(rid, "known", order, "fail",
                                     (F(7), F(1), F(2)), 0)

    monkeypatch.setattr(registry, "verify", fake_verify)
    code = cli.main(["verify", "--id", "rr-1", "--order", "10"])
    out = capsys.readouterr().out
    assert code == 1
    assert "mismatch at q^7" in out


# -- bad input is a usage error, never a traceback -------------------------------

@pytest.mark.parametrize("argv, message", [
    (["nahm", "--A", "5", "--b", '["0"]', "--d", "[1]", "--order", "5"], "list of rows"),
    (["nahm", "--A", '[["2"]]', "--b", '["0"]', "--d", "[1.5]", "--order", "5"],
     "symmetrizer entries must be integers"),
    (["nahm", "--A", '[["2"]]', "--b", '["0"]', "--d", "[1]", "--c", "1/0",
      "--order", "5"], "zero denominator"),
    (["nahm", "--A", "[]", "--b", "[]", "--d", "[]", "--order", "5"], "empty"),
    # a valid request whose dense window would need 3*10^11 slots
    (["nahm", "--A", '[["2"]]', "--b", '["1/100000000000"]', "--d", "[1]", "--order", "3"],
     "window slots"),
    # colon- and comma-separated arguments name the form they expect
    (["hunt", "--A", '[["2"]]', "--d", "[1]", "--b-grid", "0", "--order", "5"], "lo:hi:step"),
    (["hunt", "--A", '[["2"]]', "--d", "[1]", "--b-grid", "0:1:1:1", "--order", "5"],
     "lo:hi:step"),
    (["nahm", "--A", '[["2"]]', "--b", '["0"]', "--d", "[1]", "--order", "5", "--parity", "0"],
     "i:r"),
    (["modular-check", "--relation", "conj1.1", "--tau", "1"], "RE,IM"),
    (["modular-check", "--relation", "conj1.1", "--tau", "0,1,2"], "RE,IM"),
    (["nahm", "--A", '[["2"]]', "--b", '["0"]', "--d", "[1]", "--order", "5", "--parity", "0:2"],
     "parity residues must be 0 or 1"),
    # a quadruple file whose parity residue is the JSON true, not 1
    (["nahm", "--quadruple", "{tmp}/parity-true.json", "--order", "5"],
     "parity residues must be 0 or 1"),
])
def test_malformed_arguments_exit2(capsys, tmp_path, argv, message):
    (tmp_path / "parity-true.json").write_text(
        '{"A": [["2"]], "b": ["0"], "d": [1], "parity": [true]}')
    code, _, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 2 and err.startswith("error:") and message in err


@pytest.mark.parametrize("doc", ["[1, 2]", '{"A": 5, "b": [0], "d": [1]}',
                                 '{"A": [[2]], "b": [0], "d": [1], "parity": 1}',
                                 '{"A": [[2]], "b": [0], "d": [Infinity]}', "[" * 5000])
def test_malformed_quadruple_file_exit2(tmp_path, capsys, doc):
    path = tmp_path / "quad.json"
    path.write_text(doc)
    code, _, err = run(capsys, "nahm", "--quadruple", str(path), "--order", "5")
    assert code == 2 and err.startswith("error:")


def test_quadruple_file_reads_floats_as_typed(tmp_path, capsys):
    # b = 0.1 is 1/10, as on the command line, not the binary float
    # 3602879701896397/36028797018963968, whose window would not fit in memory
    path = tmp_path / "quad.json"
    path.write_text('{"A": [[2]], "b": [0.1], "c": 0.5, "d": [1]}')
    code, from_file, _ = run(capsys, "nahm", "--quadruple", str(path), "--order", "3")
    assert code == 0
    code, from_args, _ = run(capsys, "nahm", "--A", "[[2]]", "--b", '["1/10"]', "--c", "1/2",
                             "--d", "[1]", "--order", "3")
    assert code == 0 and from_file == from_args and "8/5\t1" in from_file


# Fuzzed values.  Text carries no decimal digits, and the numbers are small or
# are fixed tokens: a valid but nearly singular matrix, or a large negative b,
# is a legitimate request for astronomically many lattice points, and this
# test looks for crashes, not for size limits.
_NO_DIGITS = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")),
                     max_size=6)
_NUMBER_TOKENS = ["0", "1", "-1", "2", "3", "1/2", "-3/2", " 2 ", "1.5", "1e400",
                  "1/0", "0/0", "nan", "-inf", "0x1", "1_0", ""]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([0.5, -1.5, 2.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from(_NUMBER_TOKENS), _NO_DIGITS)
_JSON = st.recursive(
    _SCALARS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["A", "b", "c", "d", "parity", ""]), kids, max_size=5),
    max_leaves=12)
_ARG = st.one_of(_JSON.map(json.dumps), _NO_DIGITS)
_SMALL = st.sampled_from([0, 1, 2, 3, -1, -2, 0.5, 1.5, "1/2", "3/2", "-3/2", "2", "1/3"])
_VALID = [([[2]], [1]), ([["1/2"]], [3]), ([[2, 1], [2, 2]], [1, 2]),
          ([[4, 2], [6, 4]], [1, 3]), ([[1, "-1/2"], [-1, "3/2"]], [1, 2])]


@st.composite
def _coherent(draw):
    """JSON (A, b, d) of one rank, often a valid quadruple, so that the fuzz
    also reaches the sums and not only the parsers."""
    A, d = draw(st.sampled_from(_VALID))
    r = len(A)
    vec = st.lists(_SMALL, min_size=r, max_size=r)
    A = draw(st.just(A) | st.lists(vec, min_size=r, max_size=r))
    d = draw(st.just(d) | vec)
    return A, draw(vec), d


_TRIPLES = st.one_of(_coherent().map(lambda t: tuple(map(json.dumps, t))),
                     st.tuples(_ARG, _ARG, _ARG))
_PARITY = st.one_of(st.lists(st.sampled_from(["0:1", "1:0", "2:1", "0:2", "-1:0", "x",
                                              ":", "0:1:1", ""]),
                             max_size=3).map(",".join), _NO_DIGITS)
_GRID_NUM = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "x", "", "1/0", "0/1"])
_AXIS = st.one_of(
    st.sampled_from(["-1:1:1", "0:0:1", "-3/2:1/2:1", "1/2:1/2:1"]),
    st.tuples(_GRID_NUM, _GRID_NUM, st.sampled_from(["1", "1/2", "0", "-1", "x"])).map(":".join),
    st.lists(_GRID_NUM, max_size=4).map(":".join))
_GRID = st.one_of(st.lists(_AXIS, min_size=1, max_size=2).map(";".join), _NO_DIGITS)


def _main_exit_code(argv) -> int:
    """main's exit code, with its output swallowed; a usage error from
    argparse counts as 2 and any other exception propagates."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    assert "values to unpack" not in err.getvalue()
    return code


@settings(max_examples=150, deadline=None)
@given(triple=_TRIPLES, c=_SMALL.map(str) | _ARG, parity=st.none() | _PARITY,
       command=st.sampled_from(["nahm", "dual"]))
def test_fuzzed_quadruple_arguments(triple, c, parity, command):
    A, b, d = triple
    argv = [command, f"--A={A}", f"--b={b}", f"--d={d}", f"--c={c}"]
    if command == "nahm":
        argv += ["--order", "3"] + ([f"--parity={parity}"] if parity is not None else [])
    assert _main_exit_code(argv) in (0, 1, 2)


def _documents(triple, extra):
    A, b, d = triple
    return {"A": A, "b": b, "d": d, **extra}


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(
    _JSON,
    st.builds(_documents, _coherent(), st.fixed_dictionaries(
        {}, optional={"c": _SCALARS | _SMALL, "parity": _JSON}))),
    raw=st.none() | st.binary(max_size=12))
def test_fuzzed_quadruple_file(doc, raw):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw if raw is not None else json.dumps(doc).encode())
        assert _main_exit_code(["nahm", "--quadruple", path, "--order", "3"]) in (0, 1, 2)
        assert _main_exit_code(["dual", "--quadruple", path]) in (0, 1, 2)
    finally:
        os.remove(path)


@settings(max_examples=100, deadline=None)
@given(ad=st.one_of(st.sampled_from(_VALID).map(lambda t: tuple(map(json.dumps, t))),
                   _TRIPLES.map(lambda t: (t[0], t[2]))), grid=_GRID)
def test_fuzzed_hunt_arguments(ad, grid):
    A, d = ad
    argv = ["hunt", f"--A={A}", f"--d={d}", f"--b-grid={grid}", "--order", "6",
            "--max-n", "5"]
    assert _main_exit_code(argv) in (0, 1, 2)
