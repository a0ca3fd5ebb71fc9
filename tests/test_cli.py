import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from frogline import (Pmf, geometric_convolution_law, hitting_eigenvalues,
                      level_chain, stationary_levels, write_table)
import frogline
from frogline import cli, errors, experiments, spectral_bd, tree_analytics
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("chunk", [7, experiments.LAW_CHUNK_ROWS])
def test_bd_law_table_is_write_table_of_rows(capsys, monkeypatch, fmt, chunk):
    # the law is written in chunks, not as one dict per row; the bytes must
    # be those of write_table on the rows
    monkeypatch.setattr(experiments, "LAW_CHUNK_ROWS", chunk)
    for d, n in ((2, 6), (3, 3)):
        code, out = _run(capsys, "analytic", "--quantity", "bd-law",
                         "--chain", "dary:d=%d,n=%d" % (d, n), "--format", fmt)
        assert code == 0
        pmf = geometric_convolution_law(
            hitting_eigenvalues(level_chain(d, n)),
            "odd" if n % 2 else "even")
        rows = [{"t": pmf.offset + i, "mass": repr(float(m))}
                for i, m in enumerate(pmf.masses) if m > 0]
        assert out == write_table(rows, ["t", "mass"], "-", fmt)
        capsys.readouterr()
    empty = Pmf(offset=3, masses=np.zeros(4))
    experiments.write_law(empty, "-", fmt)
    assert capsys.readouterr().out == write_table([], ["t", "mass"], "-", fmt)


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


def test_parameter_error_exit_2(capsys, tmp_path, monkeypatch):
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
            # a tree-only quantity on a cycle, before its budget is counted
            (["analytic", "--quantity", "mixing", "--graph", "cycle:n=1000",
              "--t", "100000"], "trees"),
            # every other tree-only request on a cycle is a FamilyError too
            (["analytic", "--quantity", "pi", "--graph", "cycle:n=5"],
             "pi is defined on trees only"),
            (["analytic", "--quantity", "q", "--graph", "cycle:n=5"],
             "q is defined on trees only"),
            (["analytic", "--quantity", "hit", "--graph", "cycle:n=5"],
             "hit is defined on trees only"),
            (["simulate", "--graph", "cycle:n=5", "--mode", "leafwalk",
              "--s", "3"], "leafwalk is defined on trees only"),
            (["simulate", "--graph", "cycle:n=5", "--mode", "leafwalk",
              "--s", "3", "--origin", "0"], "leafwalk is defined on trees only"),
            (["simulate", "--graph", "cycle:n=5", "--origin", "leaf"],
             "origin 'leaf' is defined on trees only"),
            (["sweep", "--graph", "tree:d=2,n=2", "--lambda", "1",
              "--out", str(tmp_path / "missing" / "x.csv")], "--out"),
            (["simulate", "--graph", "tree:d=2,n=2", "--origin", "99"],
             "origin 99"),
            (["simulate", "--graph", "tree:d=2,n=2", "--origin", "-1"],
             "origin -1"),
            (["analytic", "--quantity", "threshold", "--graph",
              "tree:d=2,n=3", "--lambda", "nan"], "lambda"),
            (["analytic", "--quantity", "mu", "--graph", "cycle:n=5", "--t",
              "3", "--lambda", "inf"], "lambda"),
            (["analytic", "--quantity", "q", "--graph", "tree:d=2,n=2000"],
             "int64"),
            (["simulate", "--graph", "tree:d=2,n=2", "--jobs", "0"],
             "jobs must be >= 1"),
            (["sweep", "--graph", "tree:d=2,n=2", "--lambda", "1",
              "--jobs", "-5"], "jobs must be >= 1"),
            (["analytic", "--quantity", "pi", "--graph", "tree:d=2,n=2",
              "--jobs", "0"], "jobs must be >= 1"),
            # a repeated key would otherwise let the last one win
            (["analytic", "--quantity", "pi", "--graph", "tree:d=2,n=3,n=1"],
             "repeated key"),
            (["simulate", "--graph", "complete:n=5,n=7"], "repeated key"),
            # a repeated graph or lambda pooled its trials into one row
            (["sweep", "--graph", "tree:d=2,n=3", "--lambda", "1,1",
              "--trials", "2"], "repeated lambda in [1.0, 1.0]"),
            (["sweep", "--graph", "tree:d=2,n=3", "--graph", "tree:d=2,n=3",
              "--lambda", "1"], "repeated graph"),
            (["validate", "--suite", "slow"],
             "unknown suite 'slow' (want fast or full)"),
            (["analytic", "--quantity", "bd-law", "--chain",
              "dary:d=2,n=3,d=3"], "repeated key"),
            # a seed outside the u64 range would alias one inside it
            (["simulate", "--graph", "tree:d=2,n=2", "--seed", "-1"],
             "seed must be in [0, 2^64)"),
            (["simulate", "--graph", "tree:d=2,n=2", "--seed",
              str(2 ** 64 + 5)], "seed must be in [0, 2^64)"),
            (["sweep", "--graph", "tree:d=2,n=2", "--lambda", "1", "--seed",
              str(2 ** 64)], "seed must be in [0, 2^64)"),
            (["simulate", "--graph", "tree:d=2,n=3", "--mode", "leafwalk",
              "--s", "3", "--seed", "-7"], "seed must be in [0, 2^64)")]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert says in err and err.count("\n") == 1, (argv, err)
    # validate runs in one process and takes no --jobs
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--jobs", "-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs -3" in capsys.readouterr().err
    # --budget-steps below 1 is refused on every metric, before any sampling:
    # a configuration of tree n=20 at lambda 2 takes about a second
    def no_sampling(*args, **kwargs):
        raise AssertionError("a refused spec sampled a configuration")

    monkeypatch.setattr(experiments, "init_config", no_sampling)
    for argv in (["simulate", "--graph", "tree:d=2,n=6", "--mode", "leafwalk",
                  "--s", "40"],
                 ["simulate", "--graph", "tree:d=2,n=20", "--lambda", "2"],
                 ["simulate", "--graph", "tree:d=2,n=20", "--lambda", "2",
                  "--mode", "cover"],
                 ["sweep", "--graph", "tree:d=2,n=20", "--lambda", "1,2",
                  "--metric", "cover"]):
        for cap in ("-1", "0"):
            assert main(argv + ["--budget-steps", cap]) == 2, (argv, cap)
            err = capsys.readouterr().err
            assert "step_cap must be > 0" in err and err.count("\n") == 1, \
                (argv, cap, err)


def test_budget_exceeded_exit_3(capsys, peak_bytes):
    # --budget-steps caps the clock of both simulation metrics
    for mode in ("cover", "susceptibility"):
        code, _ = _run(capsys, "simulate", "--graph", "tree:d=2,n=5",
                       "--lambda", "0.5", "--mode", mode,
                       "--budget-steps", "2")
        assert code == 3, mode
    # the configuration alone would need 2^41 Poisson draws
    code = main(["simulate", "--graph", "tree:d=2,n=40"])
    err = capsys.readouterr().err
    assert code == 3
    assert "needs about 2.64e+14 bytes" in err, err
    # a clock overrun names the cap and the fraction it covered
    code = main(["simulate", "--graph", "tree:d=2,n=6", "--budget-steps", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "clock exceeded step cap 3 (fraction covered 0." in err, err
    # a leaf walk on 2^40 leaves would need 8 bytes per leaf
    with peak_bytes() as peak:
        code = main(["simulate", "--mode", "leafwalk", "--graph",
                     "tree:d=2,n=40", "--s", "3"])
    err = capsys.readouterr().err
    assert code == 3 and peak[0] < 2 ** 22, (err, peak)
    assert "a leaf walk on tree:d=2,n=40 needs about 8.8e+12 bytes" in err, err


def test_huge_trial_counts_refused_before_any_work(capsys, peak_bytes):
    # one seed entry, batch index and result row per trial cell: 10^12
    # trials would need about 10^15 bytes
    for argv in (["simulate", "--graph", "tree:d=2,n=3",
                  "--trials", "1000000000000"],
                 ["sweep", "--graph", "tree:d=2,n=3", "--graph",
                  "complete:n=5", "--lambda", "0.5,1", "--trials",
                  str(10 ** 9)],
                 ["simulate", "--mode", "leafwalk", "--graph", "tree:d=2,n=3",
                  "--s", "3", "--trials", str(10 ** 10)]):
        with peak_bytes() as peak:
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 3, argv
        assert "trial cells needs about" in err and peak[0] < 2 ** 22, (
            argv, err, peak)
    # a million trial cells stay allowed
    assert (10 ** 6 * experiments.TRIAL_CELL_BYTES
            <= frogline.errors.CONFIG_BYTE_LIMIT)


def test_budget_steps_caps_the_leaf_walk(capsys):
    code = main(["simulate", "--mode", "leafwalk", "--graph", "tree:d=2,n=6",
                 "--s", "40", "--budget-steps", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "leaf walk exceeded step cap 3 (fraction covered 0." in err, err


def test_analytic_byte_bounds(capsys, peak_bytes):
    # refused before any allocation: V x V mixing matrices at depth 14
    # (about 34 GB) and a table of 2^30 mu rows at depth 30
    for argv in (["--quantity", "mixing", "--graph", "tree:d=2,n=14"],
                 ["--quantity", "mu", "--graph", "tree:d=2,n=30"],
                 ["--quantity", "kappa", "--graph", "tree:d=2,n=40"],
                 # 20 geometric factors, the longest 8.1e13 masses
                 ["--quantity", "bd-law", "--chain", "dary:d=2,n=40"],
                 # the table of returns, 10^11 times of one representative
                 ["--quantity", "kappa", "--graph", "complete:n=5",
                  "--t", "100000000000"],
                 ["--quantity", "threshold", "--graph", "complete:n=5",
                  "--t", "100000000000"]):
        with peak_bytes() as peak:
            code = main(["analytic"] + argv)
        err = capsys.readouterr().err
        assert code == 3, argv
        assert "needs about" in err and peak[0] < 2 ** 22, (argv, err, peak)
    # return sums need only vectors
    code, out = _run(capsys, "analytic", "--quantity", "kappa",
                     "--graph", "tree:d=2,n=16", "--t", "4")
    assert code == 0 and _rows(out)[0]["key"] == "4"


# every chain with d in {2, 3, 4, 5, 8} and n <= 40 whose smallest gamma,
# about d^-n, lies below the eigensolver's accuracy, so that
# hitting_eigenvalues raises on it
UNRESOLVED_CHAINS = ([(3, 36), (3, 38)] + [(4, n) for n in range(28, 41)]
                     + [(5, n) for n in range(25, 41)])


def test_bd_law_refuses_unresolved_chains_before_the_eigensolver(
        capsys, monkeypatch):
    def unreachable(chain):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(spectral_bd, "hitting_eigenvalues", unreachable)
    assert len(UNRESOLVED_CHAINS) == 31
    for d, n in UNRESOLVED_CHAINS:
        code = main(["analytic", "--quantity", "bd-law",
                     "--chain", "dary:d=%d,n=%d" % (d, n)])
        err = capsys.readouterr().err
        assert code == 3, (d, n, err)
        assert err.startswith("budget exceeded:"), (d, n, err)
        assert "internal error:" not in err, (d, n, err)


def _expire(signum, frame):
    raise TimeoutError("still running")


def test_analytic_work_bounds(capsys, peak_bytes):
    # admitted by the byte guard, refused by the work guard before any
    # allocation: 1.0e14 and 6.7e12 mixing entries (the second would run
    # for about 43 h), 1.8e11 entries of return sums; on K_5, where a step
    # costs 2^10 entries whatever its length, 1.3e11 of return sums (6.5e8
    # entries, about 15 min of steps) and 1.0e10 of an absorbing walk for mu
    for argv in (["--quantity", "mixing", "--graph", "tree:d=2,n=3",
                  "--t", "99999999999"],
                 ["--quantity", "mixing", "--graph", "tree:d=2,n=12",
                  "--t", "100000"],
                 ["--quantity", "kappa", "--graph", "tree:d=2,n=20",
                  "--t", "4096"],
                 ["--quantity", "kappa", "--graph", "complete:n=5",
                  "--t", "130000000"],
                 ["--quantity", "mu", "--graph", "complete:n=5",
                  "--t", "10000000"]):
        # an admitted call would run for hours: the alarm turns it into an
        # error (exit 4) after 5 s
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.alarm(5)
        t0 = time.perf_counter()
        try:
            with peak_bytes() as peak:
                code = main(["analytic"] + argv)
            took = time.perf_counter() - t0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
        assert code == 3, (argv, err[-200:])
        assert "operator entries" in err and peak[0] < 2 ** 22, (argv, err,
                                                                 peak)
        assert took < 1.0, (argv, took)


def test_analytic_work_bound_admits_the_measured_calls(monkeypatch):
    # the first work check of each call is its total; a call it admits
    # reaches the loop, which is stopped there instead of run
    class Admitted(Exception):
        pass

    def admit(*args):
        errors.check_budget(*args)
        raise Admitted(args[0])

    monkeypatch.setattr(tree_analytics, "check_budget", admit)
    ta = tree_analytics
    for text, call in (("tree:d=2,n=11", lambda g: ta.mixing_profile(g, [64])),
                       ("tree:d=2,n=16",
                        lambda g: ta.threshold_time(g, 1.0, 0.0, 256)),
                       ("tree:d=2,n=14", lambda g: ta.kappa_sequence(g, 256)),
                       ("tree:d=2,n=10", lambda g: ta.mu_table(g, 1.0, 64))):
        g = frogline.build_graph(frogline.parse_descriptor(text))
        with pytest.raises(Admitted):
            call(g)


def test_threshold_reads_only_return_sums(capsys):
    # the threshold needs kappa alone, no Green sums
    code, out = _run(capsys, "analytic", "--quantity", "threshold",
                     "--graph", "tree:d=2,n=12", "--t", "256")
    assert code == 0 and _rows(out)[0]["value"] == "8"


def test_mu_does_not_need_the_threshold(capsys):
    # lambda 0.5 reaches no threshold by t=8 on this tree; mu is printed anyway
    code, out = _run(capsys, "analytic", "--quantity", "mu", "--graph",
                     "tree:d=2,n=6", "--lambda", "0.5", "--t", "3,8")
    assert code == 0
    assert main(["analytic", "--quantity", "threshold", "--graph",
                 "tree:d=2,n=6", "--lambda", "0.5", "--t", "8"]) == 3
    rows = _rows(out)
    assert len(rows) == 2 * 64
    assert rows[1] == {"quantity": "mu", "key": "a=63,t=8",
                       "value": "1.0846288675506783"}


def test_internal_error_exit_4(capsys, monkeypatch):
    def crash(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "_cmd_validate", crash)
    code = main(["validate"])
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" in err and "ZeroDivisionError" in err
    assert err.splitlines()[-1] == "internal error: ZeroDivisionError: boom"


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


def _last_line_of(code):
    """The last line that `code` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(frogline.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_process_pool():
    # the pool is imported only by a run with more than one worker
    assert _last_line_of("import sys, frogline.cli; "
                         "print('concurrent.futures' in sys.modules)") \
        == "False"


def test_cli_import_and_bd_law_load_no_scipy():
    # `import frogline.cli` is what the benchmark's setup time measures
    for run in ("", "main(['analytic', '--quantity', 'bd-law', '--chain', "
                    "'dary:d=2,n=6']); "):
        assert _last_line_of(
            "import sys; from frogline.cli import main; %sprint([m for m in "
            "sys.modules if m == 'frogline.checks' or m.split('.')[0] == "
            "'scipy'])" % run) == "[]"


def test_chi_square_checks_load_no_scipy():
    # the two chi-square checks of validate's full suite use closed forms
    assert _last_line_of(
        "import sys; from frogline import checks; "
        "checks.check_walkstep_uniform(); checks.check_poisson_moments(); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])") \
        == "[]"


def test_simulate_and_sweep_load_no_numpy_random():
    # one random-number layer: every draw comes from the keyed walk hash,
    # so a run never imports numpy's generators
    assert _last_line_of(
        "import sys; from frogline.cli import main; "
        "main(['simulate', '--graph', 'tree:d=2,n=4', '--trials', '2']); "
        "main(['sweep', '--graph', 'tree:d=2,n=4', '--lambda', '0.5,1', "
        "'--trials', '2']); "
        "print('numpy.random' in sys.modules)") == "False"


def test_lambda_max_changes_no_simulate_row(capsys):
    for mode in ("susceptibility", "cover"):
        runs = []
        for extra in ((), ("--lambda-max", "2")):
            code, out = _run(capsys, "simulate", "--graph", "tree:d=2,n=5",
                             "--lambda", "1", "--mode", mode, "--trials", "4",
                             *extra)
            assert code == 0
            runs.append([dict(r, wall_ms="") for r in _rows(out)])
        assert runs[0] == runs[1], mode


def test_unknown_choice_exits_2(capsys):
    # argparse refuses these; an empty item of a comma list used to be
    # dropped without a word
    for argv, says in [
            (["analytic", "--quantity", "entropy"], "invalid choice"),
            (["sweep", "--graph", "tree:d=2,n=3", "--lambda", "1,,2"],
             "empty item in '1,,2'"),
            (["analytic", "--quantity", "kappa", "--graph", "tree:d=2,n=3",
              "--t", "4,,8"], "empty item in '4,,8'")]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert says in capsys.readouterr().err, argv


def test_seed_and_step_budget_only_where_read(capsys):
    # analytic and validate draw no random numbers and run no clock
    for argv in (["analytic", "--quantity", "pi", "--graph", "tree:d=2,n=2"],
                 ["validate"]):
        for flag in ("--seed=5", "--budget-steps=10"):
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag])
            assert exc.value.code == 2
            assert "unrecognized arguments: " + flag in \
                capsys.readouterr().err


# ------------------------------------------------------------ CLI fuzzing
# Small sizes only: every valid graph has at most 121 vertices and every
# analytic table at most a few MB, and --jobs stays 1 (no process pool).
# Options are passed as --flag=value, so argparse also hands negative and
# infinite values to the program instead of rejecting them as flags.

_GRAPHS = st.one_of(
    st.builds("tree:d={},n={}".format, st.integers(2, 3), st.integers(1, 4)),
    st.builds("complete:n={}".format, st.integers(2, 30)),
    st.builds("cycle:n={}".format, st.integers(3, 30)),
    st.sampled_from(["tree:d=1,n=2", "tree:d=2", "tree:d=x,n=2",
                     "tree:d=2,n=0", "tree:d=2,n=2000", "cycle:n=2",
                     "complete:n=1", "torus:n=3", "", "cycle:n=5,d=2"]))
_LAMBDAS = st.one_of(
    st.sampled_from(["0", "0.5", "1", "2.5", "1e-3"]),
    st.sampled_from(["nan", "inf", "-inf", "-1", "abc"]))
_ORIGINS = st.sampled_from(["root", "leaf", "0", "1", "-1", "99", "x", "2.5"])
_TRIALS = st.integers(-1, 3).map(str)
_S = st.integers(-2, 40).map(str)


def _opt(flag, strategy):
    return st.one_of(st.just([]), strategy.map(lambda v: [flag + "=" + v]))


_FORMAT = _opt("--format", st.sampled_from(["csv", "json"]))
_SIMULATION = st.tuples(
    _opt("--seed", st.integers(-3, 2 ** 64 + 3).map(str)),
    _opt("--budget-steps", st.sampled_from(["1", "2", "0", "-5", "100000"])),
    _FORMAT).map(lambda ps: ["--jobs=1"] + sum(ps, []))
_ANALYTIC_COMMON = _FORMAT.map(lambda p: ["--jobs=1"] + p)


def _argv(*parts, common=_SIMULATION):
    return st.tuples(*parts, common).map(lambda ps: sum(ps, []))


_SIMULATE = _argv(
    st.just(["simulate"]), _GRAPHS.map(lambda g: ["--graph=" + g]),
    _opt("--lambda", _LAMBDAS), _opt("--lambda-max", _LAMBDAS),
    _opt("--origin", _ORIGINS),
    _opt("--mode", st.sampled_from(["susceptibility", "cover", "leafwalk"])),
    _opt("--trials", _TRIALS), _opt("--s", _S))
_SWEEP = _argv(
    st.just(["sweep"]),
    st.lists(_GRAPHS, min_size=1, max_size=2).map(
        lambda gs: ["--graph=" + g for g in gs]),
    st.lists(_LAMBDAS, max_size=3).map(lambda ls: ["--lambda=" + ",".join(ls)]),
    _opt("--metric", st.sampled_from(["susceptibility", "cover",
                                      "leafwalk"])),
    _opt("--origin", _ORIGINS), _opt("--trials", _TRIALS), _opt("--s", _S))
_ANALYTIC = _argv(
    st.sampled_from(["pi", "q", "hit", "kappa", "threshold", "mu", "mixing",
                     "bd-law"]).map(lambda q: ["analytic", "--quantity=" + q]),
    _opt("--graph", _GRAPHS),
    _opt("--chain", st.one_of(
        st.builds("dary:d={},n={}".format, st.integers(1, 3),
                  st.integers(0, 4)),
        st.sampled_from(["dary:d=x,n=3", "dary:d=2", "tree:d=2,n=2", ""]))),
    _opt("--t", st.lists(st.integers(-300, 300).map(str), max_size=3).map(
        ",".join)),
    _opt("--lambda", _LAMBDAS),
    _opt("--delta", st.sampled_from(["0", "0.5", "1", "-0.1", "nan"])),
    common=_ANALYTIC_COMMON)


@given(st.one_of(_SIMULATE, _SWEEP, _ANALYTIC))
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_exit_codes(argv):
    """Any small argument vector ends in exit 0, 2 or 3, never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
