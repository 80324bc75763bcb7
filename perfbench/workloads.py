"""The three benchmark workloads.

Each workload is a closed loop of *units* driven from this process (no
``--jobs``, no pool): the next unit starts when the previous one has
returned.  A unit calls a public entry point of the program; the
workload then renders the simulated output as bytes, which must match
the reference digest at the default seed and the workload's invariants
at every seed.  The warm commands are what a user types to rerun the
same work; they run as sequential child processes against the private
cache the cold pass filled.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

Unit = Tuple[str, Callable[[], None]]


def _repro(*args: str) -> List[str]:
    """A ``python -m repro`` command line, as module name plus args."""
    return ["repro", *args]


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.failed_units: List[str] = []

    def units(self) -> List[Unit]:
        raise NotImplementedError

    def output(self) -> bytes:
        """The simulated output of the cold pass, as checked bytes."""
        raise NotImplementedError

    def work(self) -> int:
        """Work the cold pass did, in :attr:`work_unit`."""
        raise NotImplementedError

    def cache_hits(self) -> int:
        """Result-cache hits during the cold pass (must be 0)."""
        return 0

    def mismatched(self) -> int:
        """Units that ran but whose own output is wrong."""
        return 0

    def invariants(self) -> List[str]:
        """Problems with the cold output that hold at every seed."""
        return []

    def warm_commands(self) -> List[List[str]]:
        return []

    def warm_problems(self, stdouts: List[str]) -> List[str]:
        """Problems with one warm rerun's output against the cold one."""
        return []

    def warm_in_process(self) -> None:
        """The warm rerun through the entry points (traced run only)."""

    def digest(self) -> str:
        return hashlib.sha256(self.output()).hexdigest()


class PaperTables(Workload):
    """Table 5 micro cells plus three Table 6 rows through
    ``execute_cell``: a syscall-dense loop (micro, SUD), straight-line
    code (sqlite) and net/epoll serving (redis, nginx)."""

    name = "paper-tables"
    work_unit = "insn"
    ROWS = ("sqlite", "redis-1t", "nginx-1w-4k")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from repro.evaluation import pipeline
        from repro.evaluation.cache import ResultCache
        from repro.interposers.registry import REGISTRY
        from repro.kernel.kernel import Kernel

        self.pipeline = pipeline
        self.cache = ResultCache(workdir / "cache")
        self.mechanisms = REGISTRY.names()
        self.micro_seed = 20 + seed
        self.macro_seed = 30 + seed
        self.specs = (pipeline.micro_specs(self.mechanisms,
                                           seed=self.micro_seed)
                      + pipeline.macro_specs(self.ROWS, self.mechanisms,
                                             seed=self.macro_seed))
        self.results: Dict = {}
        self.hits = 0
        # Simulated instructions: every kernel's cycle model is kept
        # (not the kernel) and read once the pass is over.
        self.models: List = []
        original_init = Kernel.__init__

        def init_and_keep(kernel, *args, **kwargs):
            original_init(kernel, *args, **kwargs)
            self.models.append(kernel.cycles)
        Kernel.__init__ = init_and_keep

    def units(self) -> List[Unit]:
        return [(spec.label, lambda spec=spec: self._cell(spec))
                for spec in self.specs]

    def _cell(self, spec) -> None:
        run = self.pipeline.run_cells([spec], jobs=1, cache=self.cache)
        self.hits += run.stats.hits
        result = run.results[spec]
        self.results[spec] = result
        if not result.ok:
            raise self.pipeline.CellFailure(result)

    def cache_hits(self) -> int:
        return self.hits

    def work(self) -> int:
        from repro.cpu.cycles import Event

        return sum(model.counts[Event.INSTRUCTION] for model in self.models)

    def output(self) -> bytes:
        from repro.evaluation.tables import render_table5, render_table6

        pipe = self.pipeline
        run = pipe.PipelineRun(
            results={spec: self.results[spec] for spec in self.specs},
            stats=pipe.PipelineStats())
        table5 = render_table5(pipe.table5_overheads(run,
                                                     self.mechanisms[1:]))
        table6 = render_table6(pipe.table6_rows(run, list(self.ROWS),
                                                self.mechanisms))
        return (table5 + "\n" + table6 + "\n").encode()

    def warm_commands(self) -> List[List[str]]:
        cache = str(self.workdir / "cache")
        return [
            _repro("evalrun", "table5", "--seed", str(self.micro_seed),
                   "--jobs", "1", "--cache-dir", cache, "--no-metrics"),
            _repro("evalrun", "table6", "--rows", *self.ROWS, "--seed",
                   str(self.macro_seed), "--jobs", "1", "--cache-dir",
                   cache),
        ]

    def warm_problems(self, stdouts: List[str]) -> List[str]:
        if "".join(stdouts).encode() != self.output():
            return ["warm evalrun tables differ from the cold pass"]
        return []

    def warm_in_process(self) -> None:
        run = self.pipeline.run_cells(self.specs, jobs=1, cache=self.cache)
        if run.failures() or run.stats.hits != len(self.specs):
            raise RuntimeError(f"warm pipeline pass: {run.stats.summary()}")


class Conformance(Workload):
    """The default differential matrix through ``run_cell``: every
    mechanism x 5 workloads x 5 fault seeds, each (workload, seed)
    column diffed against its ``native`` oracle cell."""

    name = "conformance"
    work_unit = "cell"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from repro.evaluation.conformance import DEFAULT_WORKLOADS, ORACLE
        from repro.faultinject import conformance
        from repro.interposers.registry import REGISTRY

        self.module = conformance
        self.oracle = ORACLE
        self.base = 1 + 5 * seed
        self.seeds = tuple(range(self.base, self.base + 5))
        self.workloads = DEFAULT_WORKLOADS
        self.others = tuple(m for m in REGISTRY.names() if m != ORACLE)
        self.cells = [(mech, workload, fault_seed)
                      for workload in self.workloads
                      for fault_seed in self.seeds
                      for mech in (ORACLE,) + self.others]
        self.observations: Dict = {}

    def units(self) -> List[Unit]:
        return [("/".join(map(str, cell)),
                 lambda cell=cell: self._cell(cell)) for cell in self.cells]

    def _cell(self, cell) -> None:
        # Looked up per call, so the traced run sees its wrapper.
        self.observations[cell] = self.module.run_cell(*cell)

    def verdicts(self) -> List[Tuple[str, str, int, List[str]]]:
        out = []
        for workload in self.workloads:
            for fault_seed in self.seeds:
                oracle = self.observations.get(
                    (self.oracle, workload, fault_seed))
                for mech in self.others:
                    obs = self.observations.get((mech, workload,
                                                 fault_seed))
                    if oracle is None or obs is None:
                        divergences = ["cell did not run"]
                    else:
                        divergences = obs.diff(oracle)
                    out.append((mech, workload, fault_seed, divergences))
        return out

    def work(self) -> int:
        return len(self.observations)

    def mismatched(self) -> int:
        return sum(1 for _m, _w, _s, divergences in self.verdicts()
                   if divergences and divergences != ["cell did not run"])

    def output(self) -> bytes:
        return json.dumps(self.verdicts(), sort_keys=True).encode()

    def invariants(self) -> List[str]:
        bad = [f"{m}/{w}/seed={s}: {d[0]}" for m, w, s, d in self.verdicts()
               if d]
        total = len(self.others) * len(self.workloads) * len(self.seeds)
        return ([f"{total - len(bad)}/{total} cells conformant"] + bad[:5]
                if bad else [])

    def warm_commands(self) -> List[List[str]]:
        # The conformance CLI keeps no result cache: its quickest rerun
        # is one (workload, seed) column of the matrix.
        return [_repro("conformance", "--workloads", "pwd", "--seeds", "1",
                       "--seed", str(self.base), "--jobs", "1", "--out",
                       str(self.workdir / "conformance-warm.json"))]

    def warm_problems(self, stdouts: List[str]) -> List[str]:
        # The whole verdict of every cell of the column, divergence
        # details and fault seed included, against the cold pass.
        doc = json.loads((self.workdir / "conformance-warm.json").read_text())
        warm = sorted([c["mechanism"], c["workload"], c["seed"],
                       c["divergences"]] for c in doc["cells"])
        cold = sorted([m, w, s, d] for m, w, s, d in self.verdicts()
                      if w == "pwd" and s == self.base)
        return [] if warm == cold else ["warm conformance verdicts differ"]


class LoadtestModel(Workload):
    """The default ``native,K23-ultra`` nginx model-mode load test: a
    seeded open-loop Poisson ramp through the calibrated fabric."""

    name = "loadtest-model"
    work_unit = "request"
    REQUESTS = 500_000
    MECHANISMS = ("native", "K23-ultra")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from repro.evaluation.cache import ResultCache
        from repro.traffic import engine
        from repro.traffic.config import TrafficConfig

        self.engine = engine
        self.cache = ResultCache(workdir / "cache")
        self.traffic = TrafficConfig(requests=self.REQUESTS)
        self.report = None
        self.bytes = b""

    def units(self) -> List[Unit]:
        return [("loadtest", self._loadtest)]

    def _loadtest(self) -> None:
        report = self.engine.run_loadtest(
            list(self.MECHANISMS), "nginx", self.traffic, seed=self.seed,
            jobs=1, cache=self.cache)
        self.report = report
        self.bytes = report.write(self.workdir / "cold.json").read_bytes()

    def cache_hits(self) -> int:
        return self.report.stats.hits if self.report is not None else 0

    def work(self) -> int:
        if self.report is None:
            return 0
        return sum(section["totals"]["offered"]
                   for section in self.report.doc["mechanisms"].values())

    def output(self) -> bytes:
        return self.bytes

    def invariants(self) -> List[str]:
        if self.report is None:
            return ["no report"]
        problems = []
        for name, section in self.report.doc["mechanisms"].items():
            totals = section["totals"]
            if totals["completed"] + totals["shed"] != totals["offered"]:
                problems.append(f"{name}: completed + shed != offered")
            if totals["offered"] != self.REQUESTS:
                problems.append(f"{name}: offered {totals['offered']}")
        return problems

    def warm_commands(self) -> List[List[str]]:
        return [_repro("loadtest", "--requests", str(self.REQUESTS),
                       "--mechanisms", ",".join(self.MECHANISMS),
                       "--seed", str(self.seed), "--jobs", "1", "--out",
                       str(self.workdir / "warm.json"))]

    def warm_problems(self, stdouts: List[str]) -> List[str]:
        warm = (self.workdir / "warm.json").read_bytes()
        return [] if warm == self.bytes else ["warm report bytes differ"]

    def warm_in_process(self) -> None:
        report = self.engine.run_loadtest(
            list(self.MECHANISMS), "nginx", self.traffic, seed=self.seed,
            jobs=1, cache=self.cache)
        if report.stats.misses:
            raise RuntimeError(f"warm loadtest: {report.stats.summary()}")


WORKLOADS = {cls.name: cls for cls in (PaperTables, Conformance,
                                       LoadtestModel)}
