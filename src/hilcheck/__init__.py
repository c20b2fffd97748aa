"""Bounded exhaustive checking of a human-in-the-loop control loop.

The `engine` module is the generic checker: three communicating models,
nine variable groups per iteration, exhaustive exploration of declared
choice points, counterexample traces with replay.  The `acc`, `behaviour`
and `environment` modules are the cruise-control case study's components,
and `scenarios` wires them into runnable configurations.
"""

from .acc import (AccCommand, ControlMode, acc_decide, adaptive_separation,
                  apply_command, compute_safe_stopping)
from .behaviour import (FatigueLevel, InputMode, IntegratorOp, hp_function,
                        integrate, perception_from_fatigue, set_driver_fatigue,
                        set_reaction_time, time_severity)
from .engine import (Assertion, BoolDomain, ChoiceEntry, ChoicePoint, Group,
                     IntDomain, Model, ModelError, ModelState, SymbolicDomain,
                     UpdateFunctions, Var, Verdict, VerdictKind, explore,
                     probed_model, register_model, replay_counterexample,
                     resolve_initial, run_path, step)
from .environment import RoutePoint, Terrain, advance_route, point_difficulty
from .scenarios import (DEFAULT_ROUTE, SCENARIOS, ScenarioConfig, build_model,
                        is_okay)
from .trace_io import TraceFile, export_trace, format_trace, read_trace

__version__ = "0.1.0"
