"""Self-checks of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py          # arithmetic only, < 1 s
    python3 perfbench/selftest.py --full   # + probe on/off identity, a
                                           #   tampered reference and two
                                           #   traced runs each (~8 min)

The arithmetic checks use synthetic probe marks and a fake clock: probe
time is excluded, each stretch is scaled by the probes that bracket it,
and the tracer's layer self times add up to its span.  ``--full`` runs
every workload's cold pass with the probe on and off and requires the
same output digest, then runs the conformance cold pass against a
tampered reference and requires a nonzero exit.  Last it makes two traced
runs of every workload at a seed other than the default: each must pass
its own checks (zero residual, and the same output digest as an untraced
cold pass) and every count must repeat exactly across the two.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.hostclock import correct, segment_factors  # noqa: E402
from perfbench.layers import ROOT as UNATTRIBUTED, Tracer  # noqa: E402


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_correct() -> None:
    # Probes at [0, 1] (reads 2.0) and [10, 11] (reads 1.0); P_ref 1.
    marks = [(0.0, 1.0, 2.0), (10.0, 11.0, 1.0)]
    assert segment_factors(marks, 1.0) == [0.5, 1 / 1.5, 1.0]
    # Inside the bracketed stretch: scaled by 1 / mean(2, 1).
    corrected, raw = correct(marks, 1.0, 10.0, p_ref=1.0)
    assert close(raw, 9.0) and close(corrected, 6.0), (corrected, raw)
    # Probe time counts for nothing.
    corrected, raw = correct(marks, 0.5, 10.5, p_ref=1.0)
    assert close(raw, 9.0) and close(corrected, 6.0), (corrected, raw)
    assert correct(marks, 0.2, 0.8, p_ref=1.0) == (0.0, 0.0)
    # Before the first probe / after the last: the nearest probe's factor.
    corrected, raw = correct(marks, -4.0, 0.0, p_ref=1.0)
    assert close(raw, 4.0) and close(corrected, 2.0)
    corrected, raw = correct(marks, 11.0, 14.0, p_ref=1.0)
    assert close(raw, 3.0) and close(corrected, 3.0)
    # A span across both probes sums its pieces.
    corrected, raw = correct(marks, -1.0, 12.0, p_ref=1.0)
    assert close(raw, 1.0 + 9.0 + 1.0)
    assert close(corrected, 0.5 + 6.0 + 1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def check_tracer() -> None:
    clock = FakeClock()
    marks = [(0.0, 0.0, 1.0)]
    tracer = Tracer(marks, clock)
    tracer.begin()
    clock.now = 1.0
    tracer.push("cpu.busy")
    clock.now = 3.0
    marks.append((3.0, 4.0, 2.0))  # a probe fires inside cpu.busy
    clock.now = 5.0
    tracer.push("kernel.syscall")
    clock.now = 6.0
    tracer.pop()
    clock.now = 7.0
    tracer.pop()
    clock.now = 8.0
    tracer.finish()
    raw = tracer.raw()
    assert close(raw["cpu.busy"], 2.0 + 1.0 + 1.0), raw
    assert close(raw["kernel.syscall"], 1.0), raw
    assert close(raw[UNATTRIBUTED], 1.0 + 1.0), raw
    residual = tracer.residual()
    assert close(residual["raw"], 0.0) and close(residual["corrected"], 0.0)
    assert close(residual["span_raw"], 7.0), residual
    # Before the probe the stretch reads P_ref/1.0; after it, the mean
    # of the two probes.  Segment 1 lies between the probes.
    factors = segment_factors(marks)
    corrected = tracer.corrected()
    assert close(corrected["cpu.busy"], 2.0 * factors[1]
                 + 2.0 * factors[2]), corrected


def cold_digest(workload: str, *flags: str, env=None) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "0", "--cold-only", *flags],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=170)
    found = re.findall(r"digest ([0-9a-f]{64})", proc.stderr)
    return proc.returncode, found[-1] if found else None


def check_full() -> None:
    for workload in ("conformance", "paper-tables", "loadtest-model"):
        on = cold_digest(workload)
        off = cold_digest(workload, "--no-probe")
        print(f"  {workload}: probe on {on}, off {off}")
        assert on == off and on[0] == 0 and on[1], (on, off)
    tampered = ROOT / ".perfbench_runs" / "tampered-reference.json"
    tampered.parent.mkdir(parents=True, exist_ok=True)
    reference = json.loads((ROOT / "perfbench" / "reference.json")
                           .read_text())
    reference["conformance"] = "0" * 64
    tampered.write_text(json.dumps(reference))
    env = dict(os.environ, PERFBENCH_REFERENCE=str(tampered))
    code, _digest = cold_digest("conformance", env=env)
    tampered.unlink()
    print(f"  tampered reference: exit {code}")
    assert code != 0


TRACED_SEED = 3


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(TRACED_SEED), "--seconds", "20",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()
            if metric["unit"] == "count"}


def check_traced() -> None:
    for workload in ("conformance", "paper-tables", "loadtest-model"):
        first, second = traced_counts(workload), traced_counts(workload)
        differing = sorted(name for name in first
                           if first[name] != second.get(name))
        print(f"  {workload}: {len(first)} counts, differing {differing}")
        assert first and first.keys() == second.keys() and not differing


def main() -> int:
    check_correct()
    check_tracer()
    print("arithmetic: ok")
    if "--full" in sys.argv[1:]:
        check_full()
        print("probe on/off identity and tampered reference: ok")
        check_traced()
        print("traced runs: checks pass, counts repeat: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
