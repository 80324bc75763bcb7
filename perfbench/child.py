"""Run a user command (``python -m <module> ...``) with the reference probe.

Usage::

    python3 perfbench/child.py [--no-probe] TIMING_FILE MODULE [ARGS...]

Runs ``MODULE`` as ``__main__`` with ``ARGS`` in this process while the
probe timer runs, then writes ``{"corrected", "raw", "probe_s"}`` for the
span from this file's first statement to the command's exit into
``TIMING_FILE``.  The command's stdout, stderr and exit status pass
through unchanged, so its output can be checked byte for byte.
"""

import time

T0 = time.process_time()  # hostclock.CLOCK

import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    probe = argv[:1] != ["--no-probe"]
    timing_file, module, *args = argv if probe else argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.hostclock import SHORT_INTERVAL_S, Sampler

    sampler = Sampler(enabled=probe, interval=SHORT_INTERVAL_S)
    sampler.start()
    sys.argv = [module, *args]
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    end = sampler.clock()
    sampler.stop()
    corrected, raw = sampler.correct(T0, end)
    Path(timing_file).write_text(json.dumps({
        "corrected": corrected, "raw": raw,
        "probe_s": sampler.probe_seconds(T0, end)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
