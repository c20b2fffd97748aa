"""The benchmark's workloads: what one check runs, why, and its golden result.

Every workload is a closed loop with one client: the next check starts only
after the previous one has finished and been verified.  The golden results
are the checker's fixed contract (README table, closed-form path counts), so
any deviation is a failed check, never a skipped one.

Measured property shares were taken at the commit that added this benchmark
(outside-in trace, see `tracing.py`); a traced run reports them again as
`engine.states_distinct` / `engine.states` and `engine.valuations_distinct`.
"""

from __future__ import annotations

from dataclasses import dataclass

from hilcheck.acc import AccCommand

CONFIG_DIR = "configs"


@dataclass(frozen=True)
class Expected:
    """Golden result of one explore."""

    kind: str                   # "Safe" or "Unsafe"
    bound: int
    paths: int
    failed: str | None = None   # failing assertion of an Unsafe witness
    iteration: int | None = None  # iteration of the witness's last state

    @property
    def exit_code(self) -> int:
        return 0 if self.kind == "Safe" else 1

    @property
    def verdict_text(self) -> str:
        if self.kind == "Safe":
            return f"Safe({self.bound})"
        return f"Unsafe({self.failed})"


@dataclass(frozen=True)
class Run:
    """One explore inside a check: a config file under `configs/`, plus the
    knobs config files have no key for, applied with dataclasses.replace."""

    config: str
    expected: Expected
    overrides: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    property_share: str
    via_cli: bool          # True: each run goes through cli.main in process
    runs: tuple[Run, ...]


PRESETS = Workload(
    name="presets",
    why="What a user runs: the four built-in scenarios through the CLI with "
        "trace export, then the README re-check of each trace. Paths are long "
        "and narrow with no per-iteration draws, so per-step engine "
        "bookkeeping, scenario updates and trace_io do the work.",
    property_share="ideal: 60 distinct valuations of 404 evaluated states; "
                   "no per-iteration draws in any preset",
    via_cli=True,
    runs=(
        Run("ideal.cfg", Expected("Safe", 100, 4)),
        Run("lowered-speed.cfg",
            Expected("Unsafe", 100, 3, "FatigueBounded", 4)),
        Run("manual-override.cfg",
            Expected("Unsafe", 100, 1, "SeparationMaintained", 3)),
        Run("reaction-probe.cfg", Expected("Safe", 100, 1)),
    ),
)

BRANCHING = Workload(
    name="branching",
    why="The driver draws at every iteration, so stateless re-execution "
        "dominates and states repeat across paths: where snapshot resumption "
        "and state matching would pay. Safe, so the whole tree is walked.",
    property_share="520 distinct of 5,832 evaluated states (8.9%)",
    via_cli=False,
    runs=(
        Run("branching.cfg", Expected("Safe", 5, 4 * 3 ** 5),
            overrides=(("command_domain",
                        (AccCommand.Maintain, AccCommand.Decelerate)),)),
    ),
)

ROUTE_SWEEP = Workload(
    name="route-sweep",
    why="Every draw happens at initialisation (13 per path) and no state "
        "repeats, so snapshots and state matching have nothing to reuse; "
        "step throughput does the work. Bound 10: at 30 states repeat.",
    property_share="9,504 distinct of 9,504 evaluated states (100%)",
    via_cli=False,
    runs=(
        Run("route-sweep.cfg", Expected("Safe", 10, 4 * 6 ** 3),
            overrides=(("separation_only", True),)),
    ),
)

WORKLOADS = {w.name: w for w in (PRESETS, BRANCHING, ROUTE_SWEEP)}
