"""Benchmark of hybridspec: two workloads, each round in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
A run repeats rounds of the workload, each in a new process that follows
the same sequence, until another round would pass ``--seconds`` (at least
one round), and reports medians over the rounds.  An untraced run sets up
in a process of its own before every round and after the last, and times
``calibrate.py`` there.  ``run_per_cal``, the rounds' mean ``run_s`` over
the calibrations' mean time, follows the rounds' cost and not the host's
speed.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run alternates an untraced and a traced round;
``trace.overhead_s`` is the difference of their median ``run_s``.
Details of every round go to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# one BLAS thread: the steadier setting for the dense ME solves on two
# cores; it must be set before the round imports numpy
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
ROUND_TIMEOUT_S = 170


class RoundFailed(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_round(workload, seed, mode):
    """One round (mode ``run``, ``trace`` or ``setup``) in a fresh process;
    returns its JSON result."""
    env = dict(os.environ, **THREADS)
    spawn_time = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "round.py"), workload,
             str(seed), mode, repr(spawn_time)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{workload} round timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, spec):
    """Rounds until another would pass ``seconds``; the run's result."""
    start = time.monotonic()
    # an untraced run puts a set-up process before every round and after
    # the last, and each of them also times calibrate.py
    setups = [] if trace else [_setup(workload, seed)]
    plain, traced, durations = [], [], []
    while True:
        began = time.monotonic()
        plain.append(run_round(workload, seed, "run"))
        _log(workload, "round", plain[-1])
        if trace:
            traced.append(run_round(workload, seed, "trace"))
            _log(workload, "traced round", traced[-1])
        else:
            setups.append(_setup(workload, seed))
        durations.append(time.monotonic() - began)
        if (time.monotonic() - start + statistics.mean(durations)
                > seconds):
            break
    rounds = plain + traced
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    median = lambda rs, key: statistics.median(r[key] for r in rs)
    if trace:
        derived = {"run.wall_s": median(plain, "run_s"),
                   "trace.overhead_s": (median(traced, "run_s")
                                        - median(plain, "run_s"))}
        metrics = {
            m["name"]: derived[m["name"]] if m["name"] in derived
            else statistics.median_low(r["layers"][m["name"]] for r in traced)
            for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        mean = lambda rs, key: statistics.mean(r[key] for r in rs)
        metrics = {
            "setup_s": statistics.median(
                r["setup_s"] for r in setups + plain),
            # the calibrations are short, so they are pooled over the run
            "run_per_cal": mean(plain, "run_s") / mean(setups, "cal_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    return result


def _setup(workload, seed):
    r = run_round(workload, seed, "setup")
    print(f"{workload} set-up: setup_s={r['setup_s']:.3f} "
          f"cal_s={r['cal_s']:.3f} "
          + " ".join(f"{k}={v:.3f}" for k, v in r["cal_parts"].items()),
          file=sys.stderr, flush=True)
    return r


def _log(workload, kind, r):
    print(f"{workload} {kind}: setup_s={r['setup_s']:.3f} "
          f"run_s={r['run_s']:.3f} (user {r['user_s']:.2f} s, "
          f"sys {r['sys_s']:.2f} s) peak_rss_mb={r['peak_rss_mb']:.1f} "
          f"correct={r['correct']} failed={r['failed_ops']} "
          f"{json.dumps(r['details'])}"
          + (f" absent={r['absent']}" if r.get("absent") else ""),
          file=sys.stderr, flush=True)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(ROOT, "src", "hybridspec", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"no hybridspec package at {package}")
    print(f"BLAS threads: {THREADS['OPENBLAS_NUM_THREADS']}; "
          f"python {sys.version.split()[0]}; cpus {os.cpu_count()}",
          file=sys.stderr)
    try:
        if args.workload != "all":
            print(json.dumps(measure(args.workload, args.seed, args.seconds,
                                     args.trace, spec)))
            return
        results = {}
        for name in names:
            results[name] = r = measure(name, args.seed, args.seconds,
                                        args.trace, spec)
            print(f"{name}: " + " ".join(
                f"{k}={m['value']:.6g} {m['unit']}"
                for k, m in r["metrics"].items())
                + f" attempted={r['attempted']} failed={r['failed']} "
                f"correct={r['correct']}")
        print(json.dumps({"workloads": results}))
    except RoundFailed as exc:
        sys.exit(f"benchmark failed: {exc}")


if __name__ == "__main__":
    main()
