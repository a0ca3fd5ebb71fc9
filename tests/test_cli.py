import csv
import io
import json

import pytest

from frogline import level_chain, stationary_levels
from frogline.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_simulate_csv_contract(capsys):
    code, out = _run(capsys, "simulate", "--graph", "tree:d=2,n=3",
                     "--lambda", "1.0", "--mode", "susceptibility",
                     "--trials", "2", "--seed", "3")
    assert code == 0
    rows = _rows(out)
    assert [r["trial"] for r in rows] == ["0", "1"]
    assert rows[0]["graph"] == "tree:d=2,n=3"
    assert rows[0]["metric"] == "susceptibility"
    assert int(rows[0]["value"]) >= 1
    assert list(rows[0]) == ["trial", "seed", "graph", "lambda", "origin",
                             "metric", "value", "steps_simulated", "wall_ms"]


def test_simulate_reproducible(capsys):
    args = ("simulate", "--graph", "cycle:n=12", "--lambda", "0.5",
            "--mode", "cover", "--trials", "3", "--seed", "9")
    _, out1 = _run(capsys, *args)
    _, out2 = _run(capsys, *args)

    def rows_no_wall(text):
        return [{k: v for k, v in r.items() if k != "wall_ms"}
                for r in _rows(text)]

    assert rows_no_wall(out1) == rows_no_wall(out2)


def test_sweep_output(capsys):
    code, out = _run(capsys, "sweep", "--graph", "tree:d=2,n=3",
                     "--graph", "complete:n=16", "--lambda", "1.0,2.0",
                     "--metric", "susceptibility", "--trials", "3")
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 4
    assert list(rows[0]) == ["graph", "lambda", "origin", "metric", "trials",
                             "failures", "mean", "median", "q10", "q90", "se"]


def test_analytic_pi_matches_library(capsys):
    code, out = _run(capsys, "analytic", "--graph", "tree:d=2,n=3",
                     "--quantity", "pi")
    assert code == 0
    rows = _rows(out)
    pi = stationary_levels(level_chain(2, 3))
    assert [float(r["value"]) for r in rows] == pytest.approx(list(pi))


def test_analytic_threshold(capsys):
    code, out = _run(capsys, "analytic", "--graph", "complete:n=100",
                     "--quantity", "threshold", "--lambda", "1.0",
                     "--delta", "0.0", "--t", "8")
    assert code == 0
    assert _rows(out)[0]["value"] == "3"


def test_analytic_bd_law_mass(capsys):
    code, out = _run(capsys, "analytic", "--quantity", "bd-law",
                     "--chain", "dary:d=2,n=2")
    assert code == 0
    rows = _rows(out)
    assert rows[0]["t"] == "2"
    assert float(rows[0]["mass"]) == pytest.approx(1 / 3)
    total = sum(float(r["mass"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_json_format_mirrors_csv(capsys):
    code, out = _run(capsys, "analytic", "--graph", "tree:d=2,n=2",
                     "--quantity", "q", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [d["key"] for d in data] == [0, 1]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out = _run(capsys, "simulate", "--graph", "complete:n=8",
                     "--lambda", "1.0", "--mode", "susceptibility",
                     "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("trial,seed,graph")


def test_parameter_error_exit_2(capsys, tmp_path):
    assert _run(capsys, "simulate", "--graph", "torus:n=3",
                "--lambda", "1.0")[0] == 2
    assert _run(capsys, "simulate", "--graph", "tree:d=2,n=3",
                "--lambda", "3.0", "--lambda-max", "2.0")[0] == 2
    assert _run(capsys, "simulate", "--graph", "tree:d=2,n=2",
                "--lambda", "nan")[0] == 2
    assert _run(capsys, "simulate", "--graph", "tree:d=2,n=2",
                "--lambda", "inf")[0] == 2
    assert _run(capsys, "analytic", "--quantity", "pi",
                "--graph", "cycle:n=5")[0] == 2
    assert _run(capsys, "sweep", "--graph", "tree:d=2,n=3",
                "--lambda", "1.0", "--metric", "leafwalk")[0] == 2
    # rejected with a one-line message, before any work where possible
    for argv, says in [
            (["analytic", "--quantity", "bd-law", "--chain", "dary:d=x,n=3"],
             "dary:d=<int>,n=<int>"),
            (["analytic", "--quantity", "bd-law", "--chain", "dary:d=2"],
             "dary:d=<int>,n=<int>"),
            (["analytic", "--quantity", "kappa", "--graph", "cycle:n=9",
              "--t", "-3"], "--t"),
            (["sweep", "--graph", "tree:d=2,n=2", "--lambda", "1",
              "--out", str(tmp_path / "missing" / "x.csv")], "--out")]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert says in err and err.count("\n") == 1, (argv, err)


def test_budget_exceeded_exit_3(capsys):
    # --budget-steps caps the clock of both simulation metrics
    for mode in ("cover", "susceptibility"):
        code, _ = _run(capsys, "simulate", "--graph", "tree:d=2,n=5",
                       "--lambda", "0.5", "--mode", mode,
                       "--budget-steps", "2")
        assert code == 3, mode


def test_budget_failures_in_sweep_are_rows_not_exit(capsys):
    code, out = _run(capsys, "sweep", "--graph", "tree:d=2,n=4",
                     "--lambda", "0.5", "--metric", "cover",
                     "--trials", "2", "--budget-steps", "2")
    assert code == 0
    assert _rows(out)[0]["failures"] == "2"


def test_validate_fast_exit_0(capsys):
    code, out = _run(capsys, "validate", "--suite", "fast")
    assert code == 0
    rows = _rows(out)
    assert all(r["passed"] == "true" for r in rows)
    names = {r["check"] for r in rows}
    assert {"pi_stationary", "activation_oracle", "spectral_oracle"} <= names


def test_unknown_choice_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--quantity", "entropy"])
    assert exc.value.code == 2
