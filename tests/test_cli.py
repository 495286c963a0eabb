import json
import time
from fractions import Fraction as F

import pytest

from nahm_forge.cli import main, _parse_grid


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
