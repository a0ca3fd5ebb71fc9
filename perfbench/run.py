#!/usr/bin/env python3
"""frogline benchmark: drives `frogline.cli.main` in-process on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload tree-cover --seed 1 --seconds 18 --trace 0

The program is imported from `src/` next to this directory, never from an
installed copy; without `src/frogline` the benchmark exits with code 2.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  wall_s        median time of one pass over the workload's CLI calls, after
                import and one warm-up call; passes repeat with the same
                inputs until --seconds is spent
  setup_s       median over several fresh interpreters of `import frogline.cli`
  peak_rss_mb   peak resident memory of this process after the timed passes
  success_rate  1 - error_rate, over the operations of the timed passes

--trace 1 reports the per-layer metrics instead. It spends half of --seconds
on untraced passes and half on passes traced by `tracer.py`, reports the
median per traced pass, the tracing overhead against the untraced passes,
and import times from `python -X importtime`. Spans go to perfbench/out/.

Output checks (see workloads.py) run after the timed passes. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run's context.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from tracer import Tracer
from workloads import PROFILES, WORKLOADS, CallResult, Checker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SPAWNS = 3
IMPORTTIME_SPAWNS = 3
SPAWN_TIMEOUT_S = 60


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _spawn(args):
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=SPAWN_TIMEOUT_S)


def measure_setup_s(spawns=SETUP_SPAWNS):
    """Median wall time of a fresh interpreter that imports frogline.cli.

    One unmeasured spawn first, so compiled bytecode is in place, as it is
    for a user after the first call."""
    _spawn(["-c", "import frogline.cli"])
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        _spawn(["-c", "import frogline.cli"])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_importtime(stderr):
    """(frogline import s, scipy import s) from `-X importtime` output.

    frogline: cumulative time of the top-level frogline imports. scipy: the
    self time of every scipy module, wherever it was imported from."""
    frog_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        name = name.strip()
        if depth == 0 and name.split(".")[0] == "frogline":
            frog_us += int(cum_us)
        if name.split(".")[0] == "scipy":
            scipy_us += int(self_us)
    return frog_us / 1e6, scipy_us / 1e6


def measure_import_times(spawns=IMPORTTIME_SPAWNS):
    samples = [parse_importtime(_spawn(["-X", "importtime", "-c",
                                        "import frogline.cli"]).stderr)
               for _ in range(spawns)]
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def call_cli(argv):
    """One in-process CLI call; stdout is captured, exceptions become code -1."""
    from frogline import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = -1
    return CallResult(argv=list(argv), code=code, text=out.getvalue())


def seed_base(seed):
    """The 64-bit `--seed` the program receives for workload seed `seed`."""
    digest = hashlib.blake2b(b"frogline-perfbench|%d" % seed,
                             digest_size=8).digest()
    return int.from_bytes(digest, "little")


def run_passes(calls, budget_s, call, tracer=None):
    """Passes over `calls` for about `budget_s`: no pass starts that would
    end more than half a pass after the budget.

    Returns [(pass seconds, outputs, traced metrics or None)]; always at
    least one pass."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        if tracer is None:
            outputs = [call(argv) for argv in calls]
        else:
            outputs = []
            with tracer.span("pass"):
                for argv in calls:
                    with tracer.span("call", argv=" ".join(argv)):
                        outputs.append(call(argv))
        pass_s = time.perf_counter() - t0
        traced = tracer.pass_metrics(pass_s) if tracer is not None else None
        passes.append((pass_s, outputs, traced))
        typical = statistics.median(p[0] for p in passes)
        if time.perf_counter() - start + typical / 2 > budget_s:
            return passes


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_context(workload, seed, load_at_start):
    import numpy
    import scipy
    return {"workload": workload, "seed": seed, "git_commit": git_commit(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "loadavg_at_start": load_at_start, "platform": platform.platform()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace, profile="full", call=call_cli):
    """One benchmark run; returns (result, extra context, spans or None)."""
    w = WORKLOADS[workload]
    p = PROFILES[profile]
    sb = seed_base(seed)
    calls = w.calls(p, sb)

    if trace:
        import_s, scipy_import_s = measure_import_times()
    else:
        setup_s = measure_setup_s()

    warm = call(w.warmup(sb))
    if warm.code != 0:
        sys.exit("perfbench: warm-up call %s exited %d"
                 % (" ".join(warm.argv), warm.code))

    tracer = None
    if trace:
        plain = run_passes(calls, seconds / 2.0, call)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(calls, seconds / 2.0, call, tracer)
        finally:
            tracer.uninstall()
        passes = plain + traced
    else:
        passes = run_passes(calls, seconds, call)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = Checker(call)
    attempted = failed = 0
    notes = []
    for _, outputs, _ in passes:
        try:
            tally = w.check(outputs, checker, p, sb)
        except (ValueError, KeyError, IndexError) as exc:
            # output too malformed to check: every call of the pass failed
            attempted += len(outputs)
            failed += len(outputs)
            notes.append("unreadable output: %r" % (exc,))
            continue
        attempted += tally.attempted
        failed += len(tally.failed)
        notes.extend(tally.notes)
    for note in sorted(set(notes)):
        print("check failed: %s" % note, file=sys.stderr)

    if trace:
        metrics = {}
        for name in traced[0][2]:
            unit = traced[0][2][name][1]
            value = statistics.median(t[2][name][0] for t in traced)
            metrics[name] = _metric(value, unit)
        metrics["cli.import_s"] = _metric(import_s, "s")
        metrics["cli.scipy_import_s"] = _metric(scipy_import_s, "s")
        untraced_s = statistics.median(t[0] for t in plain)
        traced_s = statistics.median(t[0] for t in traced)
        metrics["trace.overhead_ratio"] = _metric(traced_s / untraced_s - 1.0,
                                                  "ratio")
    else:
        metrics = {
            "wall_s": _metric(statistics.median(t[0] for t in passes), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
            "success_rate": _metric(1.0 - failed / attempted, "fraction"),
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    extra = {"pass_s": [t[0] for t in passes], "error_rate": failed / attempted}
    return result, extra, (tracer.spans if tracer is not None else None)


def _require_source():
    if not os.path.isfile(os.path.join(SRC, "frogline", "cli.py")):
        print("perfbench: no program source at src/frogline next to "
              "perfbench/; run from a frogline checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import frogline
    where = os.path.dirname(os.path.abspath(frogline.__file__))
    if where != os.path.join(SRC, "frogline"):
        print("perfbench: frogline imported from %s, not %s" % (where, SRC),
              file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    load_at_start = os.getloadavg()[0]
    _require_source()

    result, extra, spans = measure(args.workload, args.seed, args.seconds,
                                   args.trace)
    context = run_context(args.workload, args.seed, load_at_start)
    context.update(extra)
    if spans is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace_%s_seed%d.json" % (args.workload,
                                                               args.seed))
        with open(path, "w") as fh:
            json.dump({"context": context, "result": result, "spans": spans},
                      fh)
    for name, m in result["metrics"].items():
        print("%-32s %.6g %s" % (name, m["value"], m["unit"]))
    print("error_rate %.6g (%d of %d operations failed)" % (
        extra["error_rate"], result["failed"], result["attempted"]))
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
