"""One round of one workload, in a fresh process; started by run.py.

    python3 bench/round.py WORKLOAD SEED MODE SPAWN_TIME

MODE is ``run``, ``trace`` (the same round with spans recorded) or
``setup`` (stop once the inputs are built, then time ``calibrate.py``).
SPAWN_TIME is ``time.monotonic()`` in the parent just before the spawn, so
``setup_s`` covers interpreter start, ``import hybridspec`` and building
the inputs.
Prints one JSON object as its last line of output.
"""

import time  # first, so that nothing delays the set-up clock

import contextlib
import json
import os
import resource
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(workload, seed, mode, spawn_time):
    sys.path.insert(0, SRC)
    import hybridspec
    import hybridspec.cli  # noqa: F401  (not imported by the package)

    package_dir = os.path.join(SRC, "hybridspec")
    if os.path.dirname(os.path.abspath(hybridspec.__file__)) != package_dir:
        sys.exit(f"imported hybridspec from {hybridspec.__file__}, "
                 f"not from {package_dir}")

    import spans
    import workloads

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"{workload}-{seed}-{os.getpid()}")
    wl = workloads.WORKLOADS[workload](hybridspec, seed, workdir)
    setup_s = time.monotonic() - spawn_time
    if mode == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        import calibrate
        parts = calibrate.calibrate()
        print(json.dumps({"setup_s": setup_s, "cal_s": sum(parts.values()),
                          "cal_parts": parts}))
        return

    tracer = spans.Tracer() if mode == "trace" else None
    outputs = {}
    with tracer.installed(hybridspec) if tracer else contextlib.nullcontext():
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for name, op in wl.operations():
            if tracer:
                tracer.op = name
            try:
                outputs[name] = op()
            except Exception as exc:
                traceback.print_exc()
                outputs[name] = exc
        run_s = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = r1.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    try:
        failed, problems = wl.check(outputs)
    except Exception as exc:  # an unreadable output fails its check
        traceback.print_exc()
        failed = [k for k, v in outputs.items() if isinstance(v, Exception)]
        problems = [f"checking raised {exc!r}"]
    for p in problems:
        print(f"{workload}: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(outputs),
        "failed": len(failed),
        "failed_ops": failed,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "details": wl.details(outputs),
        "user_s": r1.ru_utime - r0.ru_utime,
        "sys_s": r1.ru_stime - r0.ru_stime,
    }
    if tracer:
        process = {"proc.minor_faults": r1.ru_minflt - r0.ru_minflt,
                   "proc.sys_s": result["sys_s"],
                   "proc.user_s": result["user_s"]}
        summary = tracer.summary()
        # run.py derives run.wall_s and trace.overhead_s over the rounds
        result["layers"] = {
            name: process[name] if name in process
            else spans.layer_metric(summary, name)
            for name in _per_layer_names()
            if name not in ("run.wall_s", "trace.overhead_s")}
        result["absent"] = tracer.absent
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{workload}.jsonl"))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4]))
