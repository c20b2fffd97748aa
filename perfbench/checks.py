"""Running and verifying one check of a workload.

A check returns its timings and a list of problems; an empty list means
every verdict, path count, witness, trace file and re-check matched the
golden result.  Verification is never skipped and never timed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from hilcheck import cli, config_io, engine, scenarios, trace_io
from hilcheck.engine import Verdict, VerdictKind, replay_counterexample

from workloads import CONFIG_DIR, Run, Workload

HERE = Path(__file__).resolve().parent
RECHECK_SECONDS = 0.25
clock = time.perf_counter

PLAIN_API = {
    "load_config": config_io.load_config,
    "build_model": scenarios.build_model,
    "explore": engine.explore,
    "export_trace": trace_io.export_trace,
    "read_trace": trace_io.read_trace,
    "main": cli.main,
}


@dataclass
class CheckResult:
    """Timed (start, end) intervals of one check, and what it verified."""

    verdict: list[tuple[float, float]] = field(default_factory=list)
    recheck: list[tuple[float, float]] = field(default_factory=list)
    recheck_reps: int = 0
    paths: int = 0
    explore_wall_s: float = 0.0     # search workloads: wall time of explore
    trace_bytes: int = 0
    trace_lines: int = 0
    problems: list[str] = field(default_factory=list)


def _golden_problems(run: Run, verdict) -> list[str]:
    exp = run.expected
    got = (verdict.kind.value, verdict.bound, verdict.paths_explored,
           verdict.failed_assertion)
    want = (exp.kind, exp.bound, exp.paths, exp.failed)
    if got != want:
        return [f"{run.config}: verdict {got}, expected {want}"]
    if exp.iteration is not None and verdict.trace[-1].iteration != exp.iteration:
        return [f"{run.config}: violation at iteration "
                f"{verdict.trace[-1].iteration}, expected {exp.iteration}"]
    return []


def _paths_printed(stdout: list[str]) -> int:
    for line in stdout:
        if line.startswith("paths explored: "):
            return int(line.split(": ", 1)[1])
    return 0


def _violated(model, state) -> list[str]:
    return [a.assert_id for a in model.assertions if not a.predicate(state)]


class Bench:
    """One workload's models, references and trace files for a whole run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.models: list | None = None       # [(config, model)] per run
        self.references: list | None = None   # [Verdict] per run
        self.hashes: dict[str, str] = {}      # trace file -> sha256, first seen

    # -- set-up ----------------------------------------------------------------

    def set_up(self, api) -> tuple[tuple[float, float], list]:
        """Get registered models for one check; returns the timed interval
        and [(config, model)]."""
        started = clock()
        models = []
        for run in self.workload.runs:
            config = api["load_config"](HERE / CONFIG_DIR / run.config)
            if run.overrides:
                config = replace(config, **dict(run.overrides))
            models.append((config, api["build_model"](config)))
        return (started, clock()), models

    def compute_references(self) -> list[str]:
        """Explore each preset once through the API: the verdicts the CLI's
        trace files must reproduce byte for byte."""
        problems = []
        self.references = []
        for run, (config, model) in zip(self.workload.runs, self.models):
            verdict = engine.explore(model, config.bound)
            problems += _golden_problems(run, verdict)
            self.references.append(verdict)
            text = trace_io.format_trace(verdict, model, config.name)
            self.hashes[self._trace_path(run).name] = \
                hashlib.sha256(text.encode("ascii")).hexdigest()
        return problems

    def _trace_path(self, run: Run) -> Path:
        return self.workdir / (Path(run.config).stem + ".trace")

    # -- checks ----------------------------------------------------------------

    def check(self, api, tracer=None) -> CheckResult:
        gc.collect()
        result = CheckResult()
        try:
            if self.workload.via_cli:
                self._check_cli(api, result)
            else:
                self._check_search(api, tracer, result)
        except Exception as exc:  # a crash is a failed check, reported
            result.problems.append(f"check raised {exc!r}")
        return result

    def _check_cli(self, api, result: CheckResult) -> None:
        runs = list(enumerate(self.workload.runs))
        self.rng.shuffle(runs)
        for i, run in runs:
            path = self._trace_path(run)
            path.unlink(missing_ok=True)
            argv = ["run", "--config", str(HERE / CONFIG_DIR / run.config),
                    "--trace-out", str(path), "--trace-always"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                started = clock()
                code = api["main"](argv)
                result.verdict.append((started, clock()))
            stdout = out.getvalue().splitlines()
            result.problems += self._cli_problems(run, code, stdout)
            result.paths += _paths_printed(stdout)

        self._recheck(api, [(run, self.models[i][1], self.references[i])
                            for i, run in runs], result)
        for i, run in runs:
            if run.expected.kind == "Unsafe":
                result.problems += self._replay_problems(i, run)

    def _cli_problems(self, run: Run, code: int, stdout: list[str]) -> list[str]:
        exp = run.expected
        problems = []
        if code != exp.exit_code:
            problems.append(f"{run.config}: exit code {code}, "
                            f"expected {exp.exit_code}")
        for line in (f"verdict: {exp.verdict_text}",
                     f"paths explored: {exp.paths}"):
            if line not in stdout:
                problems.append(f"{run.config}: output lacks {line!r}")
        return problems

    def _replay_problems(self, i: int, run: Run) -> list[str]:
        """Replay the witness read back from the CLI's trace file."""
        config, model = self.models[i]
        read = trace_io.read_trace(self._trace_path(run), model)
        witness = Verdict(VerdictKind.Unsafe, config.bound,
                          trace=read.trace, choice_log=read.choices,
                          failed_assertion=read.header["failed"])
        try:
            if replay_counterexample(model, witness) != read.trace:
                return [f"{run.config}: replay differs from the witness"]
        except engine.ModelError as exc:
            return [f"{run.config}: replay failed: {exc}"]
        return []

    def _file_problems(self, run: Run, path: Path, read, violated,
                       reference, result: CheckResult) -> list[str]:
        """Compare a trace file and its parse with the reference verdict."""
        exp = run.expected
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = self.hashes.setdefault(path.name, digest)
        result.trace_bytes += len(data)
        result.trace_lines += data.count(b"\n")
        problems = []
        if digest != first:
            problems.append(f"{path.name}: bytes differ from the first "
                            f"export (sha256 {digest[:12]} vs {first[:12]})")
        header = (read.header.get("verdict"), read.header.get("failed"),
                  read.header.get("paths"), read.header.get("bound"))
        want = (exp.kind, exp.failed or "-", str(exp.paths), str(exp.bound))
        if header != want:
            problems.append(f"{path.name}: header {header}, expected {want}")
        if read.trace != reference.trace:
            problems.append(f"{path.name}: states differ from the verdict's")
        if read.choices != reference.choice_log:
            problems.append(f"{path.name}: choices differ from the verdict's")
        if exp.kind == "Unsafe" and exp.failed not in violated:
            problems.append(f"{path.name}: re-check of the final state does "
                            f"not violate {exp.failed}")
        if exp.kind == "Safe" and violated:
            problems.append(f"{path.name}: re-check of a safe final state "
                            f"violates {violated}")
        return problems

    def explored_problems(self, explored) -> list[str]:
        """Compare the verdicts a traced CLI round produced with the
        untraced references."""
        by_name = {config.name: i for i, (config, _) in enumerate(self.models)}
        problems = []
        if len(explored) != len(self.models):
            problems.append(f"traced round explored {len(explored)} models, "
                            f"expected {len(self.models)}")
        for record in explored:
            ref = self.references[by_name[record.model.name]]
            got = record.verdict
            if (got.kind, got.paths_explored, got.choice_log, got.trace) != \
                    (ref.kind, ref.paths_explored, ref.choice_log, ref.trace):
                problems.append(f"{record.model.name}: traced verdict "
                                "differs from the untraced one")
        return problems

    def _check_search(self, api, tracer, result: CheckResult) -> None:
        (run,) = self.workload.runs
        ((config, model),) = self.models
        explored_model = tracer.instrument(model) if tracer else model
        started = clock()
        verdict = api["explore"](explored_model, config.bound)
        ended = clock()
        result.verdict.append((started, ended))
        result.explore_wall_s = ended - started
        result.paths = verdict.paths_explored

        result.problems += _golden_problems(run, verdict)
        if self.references is None:
            self.references = [verdict]
        reference = self.references[0]
        if verdict.trace != reference.trace \
                or verdict.choice_log != reference.choice_log:
            result.problems.append(f"{run.config}: witness differs from the "
                                   "first check's")

        path = self._trace_path(run)
        path.unlink(missing_ok=True)
        api["export_trace"](path, verdict, model, config.name)
        self._recheck(api, [(run, model, verdict)], result)

    def _recheck(self, api, items, result: CheckResult) -> None:
        """The README's re-check of each (run, model, verdict) trace file:
        read it back and evaluate the final state.  Repeated for at least
        RECHECK_SECONDS so that one sample spans many probe intervals; the
        first repetition is verified."""
        began = clock()
        while not result.recheck_reps or clock() - began < RECHECK_SECONDS:
            for run, model, reference in items:
                path = self._trace_path(run)
                started = clock()
                read = api["read_trace"](path, model)
                violated = _violated(model, read.trace[-1])
                result.recheck.append((started, clock()))
                if not result.recheck_reps:
                    result.problems += self._file_problems(
                        run, path, read, violated, reference, result)
            result.recheck_reps += 1
