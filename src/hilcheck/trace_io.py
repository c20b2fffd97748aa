"""Plain-text export and re-import of verdict traces.

One record per line, space-separated key=value fields, in chronological
order: a header, then for each iteration the choices drawn while producing
that iteration's state followed by the state itself.  Values are decimal
integers, `true`/`false` booleans, or enumeration member names.  The format
is deterministic: identical verdicts serialize to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import (BoolDomain, ChoiceEntry, ChoiceLog, IntDomain, Model,
                     ModelState, Trace, Verdict, VerdictKind)


def _label(value) -> str:
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    raise ValueError(f"cannot serialize {value!r}")


def _parse_with_domain(token: str, domain):
    if isinstance(domain, IntDomain):
        return int(token)
    if isinstance(domain, BoolDomain):
        if token == "true":
            return True
        if token == "false":
            return False
        raise ValueError(f"expected true or false, got {token!r}")
    for member in domain.values():
        if _label(member) == token:
            return member
    raise ValueError(f"{token!r} is not a member of the domain")


def _parse_choice_value(token: str, domain: tuple):
    for member in domain:
        if _label(member) == token:
            return member
    raise ValueError(f"{token!r} is not in the choice domain")


def format_trace(verdict: Verdict, model: Model, scenario: str) -> str:
    """Render a Safe or Unsafe verdict's witness path as text."""
    if verdict.kind is VerdictKind.ModelError:
        raise ValueError("a ModelError verdict has no trace to export")
    if verdict.trace is None or verdict.choice_log is None:
        raise ValueError("verdict carries no trace")

    failed = verdict.failed_assertion or "-"
    lines = [f"header scenario={scenario} bound={verdict.bound} "
             f"verdict={verdict.kind.value} failed={failed} "
             f"paths={verdict.paths_explored}"]
    by_iter: dict[int, list[ChoiceEntry]] = {}
    for entry in verdict.choice_log:
        by_iter.setdefault(entry.iteration, []).append(entry)
    keys = [f"{v.group.value}.{v.name}=" for v in model.variables]
    for state in verdict.trace:
        for entry in by_iter.get(state.iteration, ()):
            lines.append(f"choice iter={entry.iteration} "
                         f"point={entry.point_id} value={_label(entry.value)}")
        fields = " ".join(key + _label(value)
                          for key, value in zip(keys, state.values))
        lines.append(f"state iter={state.iteration} {fields}")
    return "\n".join(lines) + "\n"


def export_trace(path, verdict: Verdict, model: Model, scenario: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_trace(verdict, model, scenario))


@dataclass(frozen=True)
class TraceFile:
    header: dict[str, str]
    trace: Trace
    choices: ChoiceLog


def read_trace(path, model: Model) -> TraceFile:
    """Parse an exported trace back into typed states and choices.

    The model supplies variable domains, so values come back as the same
    ints, bools, and enumeration members that produced the file.
    """
    header: dict[str, str] | None = None
    columns = {f"{v.group.value}.{v.name}": (pos, v.domain)
               for pos, v in enumerate(model.variables)}
    states: list[ModelState] = []
    choices: list[ChoiceEntry] = []
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            kind, _, rest = line.partition(" ")
            try:
                fields = dict(token.split("=", 1) for token in rest.split())
            except ValueError:
                raise ValueError(f"line {lineno}: malformed record") from None
            if kind == "header":
                if header is not None:
                    raise ValueError(f"line {lineno}: duplicate header")
                header = fields
            elif kind == "choice":
                if set(fields) != {"iter", "point", "value"}:
                    raise ValueError(f"line {lineno}: bad choice record")
                point_id = fields["point"]
                cp = model.choices.get(point_id)
                if cp is None:
                    raise ValueError(
                        f"line {lineno}: unknown choice point '{point_id}'")
                try:
                    value = _parse_choice_value(fields["value"], cp.domain)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                choices.append(ChoiceEntry(int(fields["iter"]), point_id, value))
            elif kind == "state":
                iteration = int(fields.pop("iter"))
                if iteration != len(states):
                    raise ValueError(f"line {lineno}: state out of order")
                values: list = [None] * len(columns)
                for key, token in fields.items():
                    if key not in columns:
                        raise ValueError(
                            f"line {lineno}: unknown variable {key}")
                    pos, domain = columns[key]
                    try:
                        values[pos] = _parse_with_domain(token, domain)
                    except ValueError as exc:
                        raise ValueError(f"line {lineno}: {key}: {exc}") from None
                missing = [key for key, (pos, _) in columns.items()
                           if values[pos] is None]
                if missing:
                    raise ValueError(
                        f"line {lineno}: state misses " + ", ".join(missing))
                states.append(ModelState(tuple(values), iteration, model.index))
            else:
                raise ValueError(f"line {lineno}: unknown record kind {kind!r}")
    if header is None:
        raise ValueError("trace file has no header")
    if not states:
        raise ValueError("trace file has no states")
    return TraceFile(header, tuple(states), tuple(choices))
