"""Plain-text export and re-import of verdict traces.

One record per line, in chronological order: a header, then for each
iteration the choices drawn while producing that iteration's state followed
by the state itself.  A record is its kind and then key=value fields, one
space apart, in the fixed order `format_trace` writes them.  Values are
decimal integers, `true`/`false` booleans, enumeration member names or
strings, each written by `engine.label_of`.  The format is deterministic:
identical verdicts serialize to identical bytes.

The engine decides at declaration what a trace can hold: every name and
label is an ASCII token, and the labels of one domain are distinct.  So
every verdict of a registered model writes a trace that reads back, and
`read_trace` reads each record by its kind's field list.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem

from .engine import (ChoiceEntry, ChoiceLog, IntDomain, Model, ModelState,
                     Trace, Verdict, VerdictKind, label_of)

# each record kind's fields, in the order `format_trace` writes them; a
# state has `iter` and then the model's variables in declared order
_HEADER_FIELDS = ("scenario", "bound", "verdict", "failed", "paths")
_CHOICE_FIELDS = ("iter", "point", "value")


def canonical_int(token: str) -> int | None:
    """The integer `token` spells as a canonical decimal, else None: int()
    alone would also take 1_0, +5, 01 and non-ASCII digits."""
    try:
        value = int(token)
    except ValueError:
        return None
    return value if str(value) == token else None


def _iteration(token: str) -> int:
    iteration = canonical_int(token)
    if iteration is None:
        raise ValueError(f"iter needs an integer, got {token!r}")
    return iteration


def _check_header(header: dict[str, str], model: Model) -> None:
    """A header holds what `format_trace` writes for a verdict of `model`:
    its name, a Safe verdict with no failed assertion or an Unsafe one with
    one of its assertions, and a bound and path count of at least 1."""
    if header["scenario"] != model.name:
        raise ValueError(f"header names another scenario than {model.name!r}")
    for field in ("bound", "paths"):
        value = canonical_int(header[field])
        if value is None or value < 1:
            raise ValueError(f"header {field} needs an integer of at least 1, "
                             f"got {header[field]!r}")
    verdict, failed = header["verdict"], header["failed"]
    if verdict == VerdictKind.Safe.value:
        if failed != "-":
            raise ValueError(f"header failed needs - on a Safe verdict, got "
                             f"{failed!r}")
    elif verdict != VerdictKind.Unsafe.value:
        raise ValueError(f"header verdict needs Safe or Unsafe, got {verdict!r}")
    elif all(assertion.assert_id != failed for assertion in model.assertions):
        raise ValueError(f"header failed needs an assertion of "
                         f"{model.name!r}, got {failed!r}")


def _check_bound(header: dict[str, str], last: int) -> None:
    """The states of a checked header reach as far as its verdict says: a
    Safe path runs to the bound, and an Unsafe one stops at its violation,
    at the bound or before."""
    bound = int(header["bound"])
    if header["verdict"] == VerdictKind.Safe.value:
        if last != bound:
            raise ValueError(f"a Safe trace at bound {bound} holds iterations "
                             f"0..{bound}, this one 0..{last}")
    elif last > bound:
        raise ValueError(f"an Unsafe trace at bound {bound} ends by iteration "
                         f"{bound}, this one at {last}")


def _keys(fields) -> tuple[str, ...]:
    return tuple(f"{field}=" for field in fields)


def _values(kind: str, tokens: list[str], keys: tuple[str, ...]) -> list[str]:
    """The values of a `kind` record's `tokens`, which are exactly `keys`
    (each `field=`) followed by a value, in that order."""
    if len(tokens) != len(keys) or not all(map(str.startswith, tokens, keys)):
        raise ValueError(f"a {kind} record has the fields "
                         + " ".join(key[:-1] for key in keys))
    return list(map(str.removeprefix, tokens, keys))


class _Labels(dict):
    """Label -> value for every value of a domain: reading a field is one
    lookup, and a label outside the domain is a ValueError naming `field`."""

    def __init__(self, field: str, values=()):
        super().__init__((label_of(value), value) for value in values)
        self.field = field

    def __missing__(self, token: str):
        raise ValueError(f"{self.field}: {token!r} is not in the domain")


class _IntLabels(_Labels):
    """`_Labels` of an integer domain, filled as a trace is read: only a
    canonical decimal inside the domain is a key."""

    def __init__(self, field: str, domain: IntDomain):
        super().__init__(field)
        self.domain = domain

    def __missing__(self, token: str) -> int:
        value = canonical_int(token)
        if value is None or not self.domain.contains(value):
            return super().__missing__(token)
        self[token] = value
        return value


def format_trace(verdict: Verdict, model: Model, scenario: str) -> str:
    """Render a Safe or Unsafe verdict's witness path as text, which
    `read_trace` reads back as the verdict's states and choices.

    A ValueError is raised for whatever it would not: a ModelError verdict
    or one without a trace or with no states, states of another model's
    variables, a header the reader rejects (`_check_header`: a scenario
    other than the model's name, a bound or path count below 1, a failed
    assertion the verdict kind or the model does not allow), states whose
    iterations do not run 0, 1, 2, ... or do not reach as far as the
    verdict and bound say (`_check_bound`), and a choice of a point the
    model does not declare, of a value outside its domain, of an iteration
    past the last state or out of iteration order.  The engine's
    declarations make everything else a model holds writable."""
    if verdict.kind is VerdictKind.ModelError:
        raise ValueError("a ModelError verdict has no trace to export")
    if verdict.trace is None or verdict.choice_log is None:
        raise ValueError("verdict carries no trace")
    if not verdict.trace:
        raise ValueError("verdict carries no states")
    # identity first, then layouts: the same model may have been built twice
    if any(state.layout is not model.layout and state.layout != model.layout
           for state in verdict.trace):
        raise ValueError(f"a verdict of another model than {model.name!r}")
    header = dict(zip(_HEADER_FIELDS, map(str, (
        scenario, verdict.bound, verdict.kind.value,
        verdict.failed_assertion or "-", verdict.paths_explored))))
    _check_header(header, model)
    if [state.iteration for state in verdict.trace] != \
            list(range(len(verdict.trace))):
        raise ValueError("the states' iterations must run 0, 1, 2, ... in "
                         "order")
    last = len(verdict.trace) - 1
    _check_bound(header, last)
    previous = 0
    for entry in verdict.choice_log:
        point = model.choices.get(entry.point_id)
        if point is None:
            raise ValueError(f"unknown choice point '{entry.point_id}'")
        if not point.offers(entry.value):
            raise ValueError(f"choice of {entry.value!r} is outside the "
                             f"domain of '{entry.point_id}'")
        if entry.iteration < previous:
            raise ValueError(f"choice for iteration {entry.iteration} is "
                             "out of iteration order")
        if entry.iteration > last:
            raise ValueError(f"choice for iteration {entry.iteration} "
                             "precedes no state")
        previous = entry.iteration

    lines = ["header " + " ".join(f"{key}={value}" for key, value
                                  in header.items())]
    by_iter: dict[int, list[ChoiceEntry]] = {}
    for entry in verdict.choice_log:
        by_iter.setdefault(entry.iteration, []).append(entry)
    keys = _keys(model.variables)
    rendered = None
    # each state's iteration equals its place, which is written in
    # decimal even where the iteration is an equal bool
    for iteration, state in enumerate(verdict.trace):
        for entry in by_iter.get(iteration, ()):
            lines.append(f"choice iter={iteration} "
                         f"point={entry.point_id} value={label_of(entry.value)}")
        # a settled path repeats its valuation: render it once
        if state.values != rendered:
            rendered = state.values
            fields = " ".join(key + label_of(value)
                              for key, value in zip(keys, rendered))
        lines.append(f"state iter={iteration} {fields}")
    return "\n".join(lines) + "\n"


def export_trace(path, verdict: Verdict, model: Model, scenario: str) -> None:
    """Write `format_trace` to `path` as ASCII.  The text is formatted before
    the file is opened, so a trace that cannot be written leaves whatever
    was at `path` untouched."""
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
    ints, bools, and enumeration members that produced the file.  The first
    record must be the header, and each record must hold exactly its kind's
    fields, one space apart, in the order `format_trace` writes them: `line
    N: a <kind> record has the fields ...` otherwise, or another error of
    that line for any other whitespace, a blank line among them.  A value
    outside its variable's or choice point's domain is an error, as are a
    header whose values `format_trace` would not write for the model (see
    `_check_header`), a second header, an unknown record kind or choice
    point, a choice that does not come right before the state of its
    iteration, and states that do not reach as far as the header's verdict
    and bound say (see `_check_bound`).  The header's values come back as
    the strings the file holds.
    """
    header_keys, choice_keys = _keys(_HEADER_FIELDS), _keys(_CHOICE_FIELDS)
    state_keys = _keys(("iter", *model.variables))
    columns = [_IntLabels(str(v), v.domain) if isinstance(v.domain, IntDomain)
               else _Labels(str(v), v.domain.values())
               for v in model.variables]
    choice_labels = {point_id: _Labels(point_id, cp.domain)
                     for point_id, cp in model.choices.items()}
    header: dict[str, str] | None = None
    states: list[ModelState] = []
    choices: list[ChoiceEntry] = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            kind, *tokens = line.removesuffix("\n").split(" ")
            try:
                if header is None:
                    if kind != "header":
                        raise ValueError("the first record must be the header")
                    header = dict(zip(_HEADER_FIELDS,
                                      _values(kind, tokens, header_keys)))
                    _check_header(header, model)
                elif kind == "state":
                    iter_token, *labels = _values(kind, tokens, state_keys)
                    if _iteration(iter_token) != len(states):
                        raise ValueError("state out of order")
                    states.append(ModelState(
                        tuple(map(getitem, columns, labels)), len(states),
                        model.layout))
                elif kind == "choice":
                    iter_token, point_id, label = _values(kind, tokens,
                                                          choice_keys)
                    point = choice_labels.get(point_id)
                    if point is None:
                        raise ValueError(f"unknown choice point '{point_id}'")
                    value = point[label]
                    if _iteration(iter_token) != len(states):
                        raise ValueError(f"choice for iteration {iter_token} "
                                         f"precedes state {len(states)}")
                    choices.append(ChoiceEntry(len(states), point_id, value))
                    last_choice_line = lineno
                elif kind == "header":
                    raise ValueError("a second header")
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if not states:
        raise ValueError("trace file has no states")
    if choices and choices[-1].iteration == len(states):
        raise ValueError(f"line {last_choice_line}: choice for iteration "
                         f"{len(states)} precedes no state")
    _check_bound(header, states[-1].iteration)
    return TraceFile(header, tuple(states), tuple(choices))
