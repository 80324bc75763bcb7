"""Host benchmark of the simulator: three workloads, reference-corrected.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-tables --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every time is
in reference-corrected seconds (see ``perfbench/hostclock.py``); the raw
seconds, the wall seconds and the probe series go to
``.perfbench_runs/details/``.  Exit 1 when an output is wrong, 2 when the
program's source is missing.
"""

import time

# setup_s starts at the benchmark's first statement (hostclock.CLOCK);
# the wall clock is read beside it, so time spent blocked shows.
T0 = time.process_time()
T0_WALL = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SETUP_CHILDREN = 4
WARM_REPS = 4
CHILD_TIMEOUT_S = 150
#: One set-up sample: corrected and raw CPU seconds, then wall and CPU
#: seconds of the whole span, probes included.
SETUP_KEYS = ("setup_s", "setup_raw_s", "setup_wall_s", "setup_cpu_s")
#: A run whose timed spans took more wall than CPU seconds by this factor
#: spent time blocked or descheduled, which the CPU-time metrics do not
#: see; it is flagged on stderr.  Single short spans read up to about 1.4
#: on an idle 2-vCPU host, whole runs 1.0-1.1.
WALL_CPU_FLAG = 1.2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-tables", "conformance",
                                 "loadtest-model"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="accepted for the common benchmark command "
                        "line; a run's length is set by its fixed work "
                        f"(one cold pass, {WARM_REPS} warm reruns)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--no-probe", action="store_true",
                        help="run no reference probe (corrected == raw); "
                        "outputs must not change")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cold-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_EVAL_CACHE"] = str(workdir / "cache")
    env["REPRO_FLIGHT_DIR"] = str(workdir / "flight")
    return env


def run_child(argv, workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=child_env(workdir),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def self_argv(args, *extra):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed)]
    if args.no_probe:
        argv.append("--no-probe")
    return argv + list(extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostclock import SHORT_INTERVAL_S, Sampler

    sampler = Sampler(enabled=not args.no_probe, interval=SHORT_INTERVAL_S)
    sampler.start()
    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Isolation: the program's default cache is never consulted.
    os.environ.update({k: v for k, v in child_env(workdir).items()
                       if k.startswith("REPRO_")})
    try:
        return measure(args, sampler, workdir)
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, sampler, workdir: Path) -> int:
    from perfbench.hostclock import DEFAULT_INTERVAL_S
    from perfbench.workloads import WORKLOADS
    from repro.evaluation.cache import default_cache_root

    if workdir not in default_cache_root().parents:
        raise RuntimeError("result cache is not private to this run")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    units = workload.units()
    now = sampler.clock()
    setup = sampler.correct(T0, now) + (time.perf_counter() - T0_WALL,
                                        now - T0)
    if args.setup_only:
        print(json.dumps(dict(zip(SETUP_KEYS, setup))))
        return 0
    setups = [setup]
    if not (args.cold_only or args.trace):
        setups += setup_children(args, sampler, workdir)

    tracer = None
    if args.trace:
        from perfbench.layers import Tracer, install

        tracer = Tracer(sampler.marks, sampler.clock)
        instrumentation = install(tracer)
        tracer.begin()
    sampler.resume(DEFAULT_INTERVAL_S)
    sampler.mark()
    start = sampler.clock()
    wall_start = time.perf_counter()
    for label, unit in units:
        try:
            unit()
        except Exception as exc:  # a failed unit is counted, not fatal
            workload.failed_units.append(f"{label}: {exc!r}"[:300])
    wall_end = time.perf_counter()
    end = sampler.clock()
    sampler.mark()
    run_s, run_raw = sampler.correct(start, end)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if multiprocessing.active_children():
        raise RuntimeError("a child process ran during the cold pass")
    if tracer is not None:
        try:
            workload.warm_in_process()
        except Exception as exc:
            workload.failed_units.append(f"warm pass: {exc!r}"[:300])
        tracer.finish()

    digest, problems = check_outputs(workload, args)
    attempted = len(units)
    failed = len(workload.failed_units) + workload.mismatched()
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "probe": not args.no_probe,
               "digest": digest, "work": workload.work(),
               "failed_units": workload.failed_units,
               "setup": [list(sample) for sample in setups],
               "run": [run_s, run_raw, wall_end - wall_start, end - start],
               "probe_share": (sampler.probe_seconds(start, end)
                               / (end - start)),
               "probes": sampler.series(start, end)}
    raw = {"run_s": run_raw}
    if args.cold_only:
        metrics = {"run_s": {"value": run_s, "unit": "s"}}
    elif tracer is not None:
        metrics, trace_problems = layer_metrics(
            args, sampler, instrumentation, tracer, run_s, digest, workdir,
            details)
        problems += trace_problems
    else:
        warm, warm_failed = warm_reps(args, workload, sampler, workdir,
                                      details)
        attempted += len(warm)
        failed += warm_failed
        spans = [details["run"]] + details["setup"] + details["warm"]
        wall_per_cpu = sum(s[2] for s in spans) / sum(s[3] for s in spans)
        raw.update(run_wall_s=wall_end - wall_start,
                   setup_s=statistics.median(s[1] for s in setups),
                   setup_wall_s=statistics.median(s[2] for s in setups),
                   warm_s=statistics.median(s[1] for s in details["warm"]),
                   warm_wall_s=statistics.median(
                       s[2] for s in details["warm"]))
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(s[0] for s in setups),
                        "unit": "s"},
            "work_per_s": {"value": workload.work() / run_s,
                           "unit": "work/s"},
            "warm_s": {"value": statistics.median(warm), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "wall_per_cpu": {"value": wall_per_cpu, "unit": "ratio"},
        }
        if wall_per_cpu > WALL_CPU_FLAG:
            print(f"perfbench: warning: {wall_per_cpu:.2f} wall seconds "
                  "per CPU second: time spent blocked or descheduled",
                  file=sys.stderr)
    details.update(metrics=metrics, raw=raw, problems=problems)
    write_details(details)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed}: run {run_s:.3f}s "
          f"corrected / {run_raw:.3f}s raw, probe share "
          f"{details['probe_share']:.1%}, digest {digest}", file=sys.stderr)
    print(f"perfbench: raw {json.dumps(raw)}", file=sys.stderr)
    if problems:
        failed = max(failed, 1)
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.cold_only:  # read by the traced run, not by a user
        result["digest"] = digest
    print(json.dumps(result))
    return 0 if correct else 1


def setup_children(args, sampler, workdir: Path) -> list:
    """More set-up samples: fresh processes that stop before the first
    unit and report their own set-up time."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        with sampler.paused():
            child = run_child(self_argv(args, "--setup-only"), workdir)
        if child.returncode != 0:
            raise RuntimeError(f"setup child failed:\n{child.stderr}")
        doc = last_json(child.stdout)
        samples.append(tuple(doc[key] for key in SETUP_KEYS))
    return samples


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def check_outputs(workload, args):
    """``(digest, problems)``: the reference digest at the default seed,
    the workload's invariants at every seed, zero cold cache hits."""
    try:
        digest = workload.digest()
        problems = list(workload.invariants())
    except Exception as exc:  # an output that cannot even be rendered
        return None, [f"output: {exc!r}"[:300]]
    if workload.cache_hits():
        problems.append(f"cold pass had {workload.cache_hits()} cache hits")
    if args.seed != 0:
        return digest, problems
    reference_path = Path(os.environ.get(
        "PERFBENCH_REFERENCE",
        Path(__file__).resolve().with_name("reference.json")))
    reference = json.loads(reference_path.read_text())
    if reference.get(args.workload) != digest:
        problems.append(f"output digest {digest} != reference "
                        f"{reference.get(args.workload)}")
    return digest, problems


def warm_reps(args, workload, sampler, workdir, details):
    """Rerun the user's command against the filled private cache
    WARM_REPS times.  Each command runs under ``child.py``, whose own
    probes correct its CPU time."""
    samples, spans, failed = [], [], 0
    timing = workdir / "warm-timing.json"
    wrapper = [sys.executable, str(Path(__file__).with_name("child.py"))]
    if args.no_probe:
        wrapper.append("--no-probe")
    for _ in range(WARM_REPS):
        corrected = raw = wall = cpu = 0.0
        outs = []
        for command in workload.warm_commands():
            with sampler.paused():
                before = children_cpu_s()
                wall_before = time.perf_counter()
                outs.append(run_child(wrapper + [str(timing)] + command,
                                      workdir))
                wall += time.perf_counter() - wall_before
                spent = children_cpu_s() - before
            inner = json.loads(timing.read_text())
            outside = spent - inner["probe_s"]
            corrected += outside * inner["corrected"] / inner["raw"]
            raw += outside
            cpu += spent
        samples.append(corrected)
        spans.append([corrected, raw, wall, cpu])
        bad = [o for o in outs if o.returncode != 0]
        problems = ([f"warm command exited {o.returncode}: "
                     f"{o.stderr[-300:]}" for o in bad]
                    or workload.warm_problems([o.stdout for o in outs]))
        if problems:
            failed += 1
            details.setdefault("warm_problems", []).extend(problems)
    details["warm"] = spans
    return samples, failed


def layer_metrics(args, sampler, instrumentation, tracer, run_s, digest,
                  workdir, details):
    """Per-layer metrics plus the traced run's own checks: zero residual,
    and an untraced cold pass in a fresh process that must produce the
    same output digest and gives the tracing overhead."""
    problems = []
    residual = tracer.residual()
    if abs(residual["corrected"]) > 1e-6 or abs(residual["raw"]) > 1e-6:
        problems.append(f"traced span residual {residual}")
    with sampler.paused():
        child = run_child(self_argv(args, "--cold-only"), workdir)
    if child.returncode != 0:
        problems.append(f"untraced reference run failed: "
                        f"{child.stderr[-300:]}")
        untraced = run_s
    else:
        doc = last_json(child.stdout)
        untraced = doc["metrics"]["run_s"]["value"]
        if doc["digest"] != digest:
            problems.append(f"traced output digest {digest} != untraced "
                            f"{doc['digest']}")
    values = instrumentation.metrics()
    values.update({"trace.residual_s": residual["corrected"],
                   "trace.run_s": run_s,
                   "trace.overhead_s": run_s - untraced})
    details.update({"residual": residual, "untraced_run_s": untraced,
                    "counts": instrumentation.counts()})
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    return metrics, problems


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_insn") or name.endswith("_per_request"):
        return "ns"
    return "count"


def write_details(details: dict) -> None:
    out = ROOT / ".perfbench_runs" / "details"
    out.mkdir(parents=True, exist_ok=True)
    name = (f"{details['workload']}-seed{details['seed']}"
            f"-trace{details['trace']}-{os.getpid()}.json")
    (out / name).write_text(json.dumps(details, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
