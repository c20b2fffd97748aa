"""Plain-text export and re-import of verdict traces.

One record per line, space-separated key=value fields, in chronological
order: a header, then for each iteration the choices drawn while producing
that iteration's state followed by the state itself.  Values are decimal
integers, `true`/`false` booleans, or enumeration member names.  The format
is deterministic: identical verdicts serialize to identical bytes.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .engine import (ChoiceEntry, ChoiceLog, IntDomain, Model, ModelState,
                     SymbolicDomain, Trace, Verdict, VerdictKind)

_has_space = re.compile(r"\s").search

# a header's fields, in the order `format_trace` writes them
_HEADER_FIELDS = ("scenario", "bound", "verdict", "failed", "paths")


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


def _one_token(text: str) -> str:
    """`text`, which a record holds as one field: records split on
    whitespace, so text with any would not read back."""
    if _has_space(text):
        raise ValueError(f"cannot write {text!r} to a trace: it has whitespace")
    return text


def _unreadable(values) -> frozenset[str]:
    """The labels of `values` that would not read back as the value that
    wrote them: those with whitespace, and those two of the values share."""
    counts = Counter(map(_label, values))
    return frozenset(label for label, n in counts.items()
                     if n > 1 or _has_space(label))


def _written(value, unreadable) -> str:
    """`value`'s label, which must not be one of its domain's `unreadable`
    labels: a ValueError names the whitespace or the shared label."""
    label = _label(value)
    if label in unreadable:
        _one_token(label)
        raise ValueError(f"cannot write {value!r} to a trace: another value "
                         f"of its domain is also written {label!r}")
    return label


def canonical_int(token: str) -> int | None:
    """The integer `token` spells as a canonical decimal, else None: int()
    alone would also take 1_0, +5, 01 and non-ASCII digits."""
    try:
        value = int(token)
    except ValueError:
        return None
    return value if str(value) == token else None


def _parse_iteration(fields: dict[str, str], lineno: int) -> int:
    if "iter" not in fields:
        raise ValueError(f"line {lineno}: record has no iter")
    iteration = canonical_int(fields["iter"])
    if iteration is None:
        raise ValueError(f"line {lineno}: iter needs an integer, "
                         f"got {fields['iter']!r}")
    return iteration


def _fields(rest: str, lineno: int) -> dict[str, str]:
    """A record's key=value fields; a key may appear only once."""
    pairs = [token.split("=", 1) for token in rest.split()]
    try:
        fields = dict(pairs)
    except ValueError:
        raise ValueError(f"line {lineno}: malformed record") from None
    if len(fields) != len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"line {lineno}: field {twice} given twice")
    return fields


def _tokens(values) -> dict[str, object]:
    """Label -> value for every value of a domain: parsing a token is one
    lookup, and a token outside the domain is simply absent."""
    return {_label(value): value for value in values}


class _IntTokens(dict):
    """`_tokens` of an integer domain, filled as a trace is read: only a
    canonical decimal inside the domain is a key."""

    def __init__(self, domain: IntDomain):
        super().__init__()
        self.domain = domain

    def __missing__(self, token: str) -> int:
        value = canonical_int(token)
        if value is None or not self.domain.contains(value):
            raise KeyError(token)
        self[token] = value
        return value


def format_trace(verdict: Verdict, model: Model, scenario: str) -> str:
    """Render a Safe or Unsafe verdict's witness path as text.  A scenario
    other than the model's name, states of another model's variables,
    whitespace in the scenario, the failed assertion's id, a choice point id
    or a symbolic value, or a value whose label another value of its domain
    shares, is a ValueError, since the text would not read back."""
    if scenario != model.name:
        raise ValueError(f"scenario {scenario!r} is not the model's name")
    if verdict.kind is VerdictKind.ModelError:
        raise ValueError("a ModelError verdict has no trace to export")
    if verdict.trace is None or verdict.choice_log is None:
        raise ValueError("verdict carries no trace")
    # layouts, not identity: the same model may have been built twice
    layout = list(model.index.positions)
    if any(list(index.positions) != layout
           for index in {state.index for state in verdict.trace}):
        raise ValueError(f"a verdict of another model than {model.name!r}")

    header = (_one_token(scenario), verdict.bound, verdict.kind.value,
              _one_token(verdict.failed_assertion or "-"),
              verdict.paths_explored)
    lines = ["header " + " ".join(f"{key}={value}" for key, value
                                  in zip(_HEADER_FIELDS, header))]
    by_iter: dict[int, list[ChoiceEntry]] = {}
    for entry in verdict.choice_log:
        by_iter.setdefault(entry.iteration, []).append(entry)
    keys = [f"{v}=" for v in model.variables]
    # of the variables, only a symbolic domain can hold an unreadable label
    checked = {pos: labels for pos, v in enumerate(model.variables)
               if isinstance(v.domain, SymbolicDomain)
               and (labels := _unreadable(v.domain.members))}
    choice_labels = {point_id: labels
                     for point_id, cp in model.choices.items()
                     if (labels := _unreadable(cp.domain))}
    rendered = None
    for state in verdict.trace:
        for entry in by_iter.get(state.iteration, ()):
            label = _written(entry.value, choice_labels.get(entry.point_id, ()))
            lines.append(f"choice iter={entry.iteration} "
                         f"point={_one_token(entry.point_id)} "
                         f"value={_one_token(label)}")
        # a settled path repeats its valuation: render it once
        if state.values != rendered:
            rendered = state.values
            for pos, labels in checked.items():
                _written(rendered[pos], labels)
            fields = " ".join(key + _label(value)
                              for key, value in zip(keys, rendered))
        lines.append(f"state iter={state.iteration} {fields}")
    return "\n".join(lines) + "\n"


def export_trace(path, verdict: Verdict, model: Model, scenario: str) -> None:
    """Write `format_trace` to `path` as ASCII.  The text is formatted and
    encoded before the file is opened, so a trace that cannot be written
    leaves whatever was at `path` untouched."""
    data = format_trace(verdict, model, scenario).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


@dataclass(frozen=True)
class TraceFile:
    header: dict[str, str]
    trace: Trace
    choices: ChoiceLog


def read_trace(path, model: Model) -> TraceFile:
    """Parse an exported trace back into typed states and choices.

    The model supplies variable domains, so values come back as the same
    ints, bools, and enumeration members that produced the file; a value
    outside its variable's or choice point's domain is an error, as are a
    first record that is not a header with exactly the fields
    `format_trace` writes, a header naming another scenario than the
    model's, a field given twice and a choice that does not come right
    before the state of its iteration.
    """
    header: dict[str, str] | None = None
    columns = {str(v): (pos, _IntTokens(v.domain)
                        if isinstance(v.domain, IntDomain)
                        else _tokens(v.domain.values()))
               for pos, v in enumerate(model.variables)}
    choice_tokens = {point_id: _tokens(cp.domain)
                     for point_id, cp in model.choices.items()}
    states: list[ModelState] = []
    choices: list[ChoiceEntry] = []
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            kind, _, rest = line.partition(" ")
            fields = _fields(rest, lineno)
            if header is None:
                if kind != "header":
                    raise ValueError(f"line {lineno}: the first record must "
                                     "be the header")
                if fields.keys() != set(_HEADER_FIELDS):
                    raise ValueError(f"line {lineno}: a header has exactly "
                                     "the fields " + " ".join(_HEADER_FIELDS))
                if fields["scenario"] != model.name:
                    raise ValueError(f"line {lineno}: header names another "
                                     f"scenario than {model.name!r}")
                header = fields
            elif kind == "header":
                raise ValueError(f"line {lineno}: duplicate header")
            elif kind == "choice":
                if set(fields) != {"iter", "point", "value"}:
                    raise ValueError(f"line {lineno}: bad choice record")
                point_id, token = fields["point"], fields["value"]
                tokens = choice_tokens.get(point_id)
                if tokens is None:
                    raise ValueError(
                        f"line {lineno}: unknown choice point '{point_id}'")
                if token not in tokens:
                    raise ValueError(f"line {lineno}: {token!r} is not in "
                                     "the choice domain")
                iteration = _parse_iteration(fields, lineno)
                if iteration != len(states):
                    raise ValueError(f"line {lineno}: choice for iteration "
                                     f"{iteration} precedes state {len(states)}")
                choices.append(ChoiceEntry(iteration, point_id, tokens[token]))
                last_choice_line = lineno
            elif kind == "state":
                iteration = _parse_iteration(fields, lineno)
                del fields["iter"]
                if iteration != len(states):
                    raise ValueError(f"line {lineno}: state out of order")
                values: list = [None] * len(columns)
                for key, token in fields.items():
                    if key not in columns:
                        raise ValueError(
                            f"line {lineno}: unknown variable {key}")
                    pos, tokens = columns[key]
                    try:
                        values[pos] = tokens[token]
                    except KeyError:
                        raise ValueError(f"line {lineno}: {key}: {token!r} "
                                         "is not in the domain") from None
                missing = [key for key, (pos, _) in columns.items()
                           if values[pos] is None]
                if missing:
                    raise ValueError(
                        f"line {lineno}: state misses " + ", ".join(missing))
                states.append(ModelState(tuple(values), iteration, model.index))
            else:
                raise ValueError(f"line {lineno}: unknown record kind {kind!r}")
    if not states:
        raise ValueError("trace file has no states")
    if choices and choices[-1].iteration == len(states):
        raise ValueError(f"line {last_choice_line}: choice for iteration "
                         f"{len(states)} precedes no state")
    return TraceFile(header, tuple(states), tuple(choices))
