"""Bounded exhaustive checking of a three-model discrete control loop.

The engine runs a closed loop of three communicating models (environment,
system, behaviour).  Every iteration recomputes nine variable groups in a
fixed order:

    1. inputs:   env_input, sys_input, beh_input
    2. states:   env_state,  sys_state,  beh_state
    3. outputs:  env_output, sys_output, beh_output
    4. safety assertions on the resulting valuation

Each group is produced by one update function, which receives read-only
views of the groups its row in `_SLOTS` lists, in that order, and nothing
else, so read-sets are enforced structurally.  Each view comes from the
valuation the step is writing, into which a row writes only its own group,
after its update: a group an earlier row wrote shows this step's value, any
other the previous iteration's, so an output reports its model's new
state.  A step pays for what changes: a path builds the nine views once,
from its initial state, each step hands those of its new state to the
next, and a group's view is built again only after its update changed a
value.  A write of the very object a variable holds changes nothing, so
it is neither checked against the domain again nor stored.  Environment
and behaviour functions may draw values from declared choice points, each
call through a context of its own that draws only the points sited at its
group and only while that call runs: once it returns or raises, the
context draws nothing.  The three system functions must be deterministic
and are never handed a drawing context.  A choice point's site is the
group that draws it in each step, or the (Group, name) of the variable it
initialises before the first iteration.  Every draw, of either kind, goes
through `_draw`, which takes the next of the values it is given, or the
point's first value once they run out.

`step` is the transition alone and consumes the values it draws;
`run_path` runs one path of steps from one sequence of values and
evaluates the assertions once on each state.  `explore` enumerates every
resolution of every choice point up to a bound, depth first in declared
domain order, and reports the first violating path as a replayable
counterexample.  A path is named by its choice log alone, the values it
drew in order, and the search backtracks on that log.  All data is immutable,
so paths are re-executed from the initial state rather than snapshotted;
this keeps the search trivially correct.  An update's result depends only
on its views and its draws, so a step that drew nothing and returned its
input's values would do the same at every later iteration: the path has
settled, and `run_path` repeats that valuation up to the bound without
stepping, still evaluating the assertions at every iteration.

A state is one flat tuple of values, one per declared variable in declared
order.  `register_model` fixes each variable's position once, in the
model's `layout`; views, steps, initial states and trace files all address
values through it.  A view is a named tuple of one group's values, of a
class built once per (group, names) shape.  `register_model` also resolves
`_PLAN` once per model, so a step looks nothing up by group, only the
names an update returns, and a step fetches the nine update functions
from the model's `updates` in one call.

What a trace can hold is decided here, when a model is declared.  A trace
record is split on spaces, so every name a trace writes and every member
label (`label_of`) must be a token (`check_token`), and no two members of
a domain share a label, so each reads back as the value that wrote it.

The only module-level mutable state is the bounded cache of those view
classes, which are immutable and shared by every model of the same shape;
concurrent use of separate models is safe, single-threaded use is assumed
per model.
"""

from __future__ import annotations

import functools
import keyword
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Value = Union[int, bool, str, Enum]

DEFAULT_PATH_CEILING = 10**8


class ModelError(Exception):
    """Raised for structural model problems: bad registration, out-of-domain
    values, read-set or determinism violations, resource exhaustion."""


def check_token(text, what: str) -> None:
    """Raise ModelError unless `text` can be one field of a trace: a
    non-empty str of printable ASCII with no space."""
    if not (isinstance(text, str) and text and text.isascii()
            and text.isprintable() and " " not in text):
        raise ModelError(f"{what} {text!r} must be a non-empty printable "
                         "ASCII str with no space")


def label_of(value: Value) -> str:
    """How a trace writes `value`: an Enum member by name, a bool as true or
    false, an int in decimal and a str as itself."""
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return value


class Group(Enum):
    """The nine variable groups of the control loop."""

    ENV_INPUT = "env_in"
    ENV_OUTPUT = "env_out"
    ENV_STATE = "env_state"
    SYS_INPUT = "sys_in"
    SYS_OUTPUT = "sys_out"
    SYS_STATE = "sys_state"
    BEH_INPUT = "beh_in"
    BEH_OUTPUT = "beh_out"
    BEH_STATE = "beh_state"

    # members are singletons, so identity hashing is exact and runs in C
    __hash__ = object.__hash__


SYSTEM_GROUPS = frozenset({Group.SYS_INPUT, Group.SYS_OUTPUT, Group.SYS_STATE})


@dataclass(frozen=True)
class IntDomain:
    """Bounded integer domain, inclusive on both ends.  Both bounds, and so
    every value between them, can be written in decimal."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if type(self.lo) is not int or type(self.hi) is not int:
            raise ModelError("integer domain bounds must be ints, got "
                             f"[{self.lo!r}, {self.hi!r}]")
        try:
            bounds = f"[{self.lo}, {self.hi}]"
        except ValueError:   # past the interpreter's int-to-str digit limit
            raise ModelError("integer domain bounds must be writable in "
                             "decimal, as a trace writes them") from None
        if self.lo > self.hi:
            raise ModelError(f"empty integer domain {bounds}")

    def contains(self, v: Value) -> bool:
        # exactly int: True and IntEnum members compare equal to ints
        return type(v) is int and self.lo <= v <= self.hi

    def values(self) -> tuple[Value, ...]:
        return tuple(range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class BoolDomain:
    def contains(self, v: Value) -> bool:
        return type(v) is bool

    def values(self) -> tuple[Value, ...]:
        return (False, True)


@dataclass(frozen=True)
class SymbolicDomain:
    """Finite enumeration of labels.  Members may be ints, bools, strings or
    Enum members, the values a trace can hold; a value belongs only if it
    equals a member of the same type, so neither 1 nor True is an IntEnum
    member.  Each member's `label_of` is a token, and no two members share
    one, so a trace reads each back as the member that wrote it."""

    members: tuple[Value, ...]
    _types: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ModelError("empty domain")
        for member in self.members:
            if isinstance(member, Enum):
                check_token(member.name, "member label")
            elif isinstance(member, str):
                check_token(member, "member label")
            elif not isinstance(member, int):
                raise ModelError(f"member {member!r} is not an int, bool, "
                                 "str or Enum")
        if len(set(self.members)) != len(self.members):
            raise ModelError("duplicate members")
        types = frozenset(map(type, self.members))
        # members of one type differ in their labels too
        if len(types) > 1:
            seen: dict[str, Value] = {}
            for member in self.members:
                other = seen.setdefault(label_of(member), member)
                if other is not member:
                    raise ModelError(f"members {other!r} and {member!r} are "
                                     f"both written {label_of(member)!r}")
        object.__setattr__(self, "_types", types)

    def contains(self, v: Value) -> bool:
        return type(v) in self._types and v in self.members

    def values(self) -> tuple[Value, ...]:
        return self.members


Domain = IntDomain | BoolDomain | SymbolicDomain


@dataclass(frozen=True)
class Var:
    """A declared variable: its group, name, domain and initial value.  The
    name is an ASCII identifier, so `group.name` is a trace token."""

    name: str
    group: Group
    domain: Domain
    init: Value

    def __post_init__(self) -> None:
        if (not isinstance(self.name, str) or not self.name.isidentifier()
                or not self.name.isascii() or keyword.iskeyword(self.name)
                or self.name.startswith("_")):
            raise ModelError(f"variable name {self.name!r} must be an "
                             "identifier of ASCII characters that is not a "
                             "keyword and does not start with '_'")
        if not isinstance(self.group, Group):
            raise ModelError(f"variable {self.name!r} needs a Group, "
                             f"got {self.group!r}")
        if not isinstance(self.domain, Domain):
            raise ModelError(f"variable {self.name!r} needs an IntDomain, "
                             f"BoolDomain or SymbolicDomain, got {self.domain!r}")
        if not self.domain.contains(self.init):
            raise ModelError(f"initial value {self.init!r} outside the domain "
                             f"of {self}")

    def __str__(self) -> str:
        return f"{self.group.value}.{self.name}"


@dataclass(frozen=True)
class ChoicePoint:
    """A named non-deterministic draw site.

    `point_id` is a trace token (`check_token`).  `domain` is the ordered
    list of candidate values, checked as a `SymbolicDomain`; exploration
    branches in exactly this order.  `site` says where the drawn value goes:
    a `Group`, whose update draws the point in each step, or a variable's
    (Group, name), an initialisation choice (a probe among them), drawn once
    before the first iteration in place of that variable's initial value.
    """

    point_id: str
    domain: tuple[Value, ...]
    site: Group | tuple[Group, str]
    # whether a value is a candidate: `SymbolicDomain.contains` of `domain`
    offers: Callable[[Value], bool] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        check_token(self.point_id, "choice point id")
        try:
            candidates = SymbolicDomain(self.domain)
        except ModelError as exc:
            raise ModelError(f"choice point '{self.point_id}': {exc}") from None
        if isinstance(self.site, Group) and self.site in SYSTEM_GROUPS:
            raise ModelError("system update must be deterministic: "
                             f"choice point '{self.point_id}' sited at {self.site.value}")
        object.__setattr__(self, "offers", candidates.contains)


@dataclass(frozen=True)
class ChoiceEntry:
    """One resolved draw: which point, during which iteration, which value.
    Initialisation draws use iteration 0."""

    iteration: int
    point_id: str
    value: Value


ChoiceLog = tuple[ChoiceEntry, ...]


@dataclass(frozen=True)
class Assertion:
    """A pure safety predicate over a full valuation; False means violated.
    `assert_id` is a trace token other than `-`, which a trace header writes
    for no failed assertion."""

    assert_id: str
    predicate: Callable[["ModelState"], bool]

    def __post_init__(self) -> None:
        check_token(self.assert_id, "assertion id")
        if self.assert_id == "-":
            raise ModelError("assertion id '-' is what a trace writes for no "
                             "failed assertion")


@dataclass(frozen=True)
class ModelState:
    """A complete valuation of every declared variable at one iteration.

    `values` holds one value per variable in the model's declared order, and
    `layout`, the model's, says which position belongs to which variable.
    Equality and hashing use the values and the iteration only.
    """

    values: tuple[Value, ...]
    iteration: int
    layout: dict[tuple[Group, str], int] = field(compare=False, repr=False)

    def value(self, group: Group, name: str) -> Value:
        return self.values[_position(self.layout, (group, name))]

    @property
    def valuation(self) -> Mapping[tuple[Group, str], Value]:
        """Read-only (Group, name) -> value mapping in declared order, built
        per call."""
        return MappingProxyType(dict(zip(self.layout, self.values)))


Trace = tuple[ModelState, ...]


@functools.lru_cache
def _view_class(group: Group, names: tuple[str, ...]) -> type:
    """The read-only view of a group declaring `names`, in declared order.

    A named tuple of the group's values, so attribute reads are C-level
    field lookups; `view["name"]` reads by item.  Any other name, including
    tuple's own `count` and `index`, is a ModelError, and `_`-names are an
    AttributeError.  Cached, so models of the same shape share one class.
    """
    fields = {name: i for i, name in enumerate(names)}

    def unknown(name):
        return ModelError(f"no variable '{name}' in group {group.value}")

    def __getitem__(self, name):
        try:
            return tuple.__getitem__(self, fields[name])
        except (KeyError, TypeError):
            raise unknown(name) from None

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        raise unknown(name)

    namespace = {"__slots__": (), "__getitem__": __getitem__,
                 "__getattr__": __getattr__}
    # tuple's own methods would otherwise answer for these names
    for name in {"count", "index"} - fields.keys():
        namespace[name] = property(functools.partial(__getattr__, name=name))
    typename = group.name.lower()
    return type(typename, (namedtuple(typename, names),), namespace)


def _reader(positions: Sequence[int]) -> Callable:
    """Picks the items at `positions` out of a valuation, or out of a step's
    views, as a sequence (`itemgetter` of one position would return the
    bare item)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    first = positions[0] if positions else 0
    return itemgetter(slice(first, first + len(positions)))


@dataclass(frozen=True)
class UpdateFunctions:
    """The nine update functions, keyed by the group they produce.

    Input and output/state functions for the environment and behaviour models
    receive a trailing StepContext and may draw choices through it.  The three
    system functions receive no context and therefore cannot draw.

    Each function returns a mapping from variable name to new value for its
    target group.  Variables omitted from the mapping keep their previous
    value (carry-over).  The result must depend only on the views and the
    draws, which is what lets `run_path` stop stepping a settled path.
    """

    env_input: Callable   # (sys_output, env_state, ctx) -> mapping
    sys_input: Callable   # (beh_output, env_output, sys_state) -> mapping
    beh_input: Callable   # (beh_state, env_output, sys_output, ctx) -> mapping
    env_output: Callable  # (env_input', env_state', ctx) -> mapping
    sys_output: Callable  # (sys_input', sys_state') -> mapping
    beh_output: Callable  # (beh_input', beh_state', ctx) -> mapping
    env_state: Callable   # (env_input', env_state, ctx) -> mapping
    sys_state: Callable   # (sys_input', sys_state) -> mapping
    beh_state: Callable   # (beh_input', beh_state, ctx) -> mapping


# each slot's target group and the groups its update reads, in step order:
# inputs, then states, then outputs
_SLOTS = (
    (Group.ENV_INPUT, (Group.SYS_OUTPUT, Group.ENV_STATE)),
    (Group.SYS_INPUT, (Group.BEH_OUTPUT, Group.ENV_OUTPUT, Group.SYS_STATE)),
    (Group.BEH_INPUT, (Group.BEH_STATE, Group.ENV_OUTPUT, Group.SYS_OUTPUT)),
    (Group.ENV_STATE, (Group.ENV_INPUT, Group.ENV_STATE)),
    (Group.SYS_STATE, (Group.SYS_INPUT, Group.SYS_STATE)),
    (Group.BEH_STATE, (Group.BEH_INPUT, Group.BEH_STATE)),
    (Group.ENV_OUTPUT, (Group.ENV_INPUT, Group.ENV_STATE)),
    (Group.SYS_OUTPUT, (Group.SYS_INPUT, Group.SYS_STATE)),
    (Group.BEH_OUTPUT, (Group.BEH_INPUT, Group.BEH_STATE)),
)

# a group's index is its place in declared order, which `Model.views` follows
_GROUP_INDEX = {group: i for i, group in enumerate(Group)}

# derived once from _SLOTS: (target, its index, a reader of the views of
# the groups it reads, by their indices, may draw)
_PLAN = tuple((target, _GROUP_INDEX[target],
               _reader([_GROUP_INDEX[g] for g in reads]),
               target not in SYSTEM_GROUPS)
              for target, reads in _SLOTS)

# the slots' update functions, in step order, out of an UpdateFunctions
_FUNCTIONS = attrgetter(*(target.name.lower() for target, _ in _SLOTS))


def _draw(cp: ChoicePoint, iteration: int, values: Iterator[Value],
          entries: list[ChoiceEntry]) -> Value:
    """The one place a choice is drawn: take the next of `values`, or the
    point's first value once they run out, check that it is one of the
    point's candidates, and log it in `entries`."""
    value = next(values, cp.domain[0])
    if not cp.offers(value):
        raise ModelError(
            f"drew {value!r}, outside the domain of '{cp.point_id}'")
    entries.append(ChoiceEntry(iteration, cp.point_id, value))
    return value


class StepContext:
    """Drawing context handed to environment and behaviour update functions.
    Each call of such a function gets its own, which draws only the points
    sited at that function's group, and only while the call runs: once it
    returns or raises, the context draws nothing."""

    __slots__ = ("_model", "_iteration", "_values", "_site", "_entries")

    def __init__(self, model: "Model", iteration: int, values: Iterator[Value],
                 site: Group, entries: list[ChoiceEntry]):
        self._model = model
        self._iteration = iteration
        self._values = values
        self._site = site
        self._entries = entries

    def choose(self, point_id: str) -> Value:
        cp = self._model.choices.get(point_id)
        if cp is None:
            raise ModelError(f"unknown choice point '{point_id}'")
        if cp.site is not self._site:
            if self._site is None:
                raise ModelError(
                    f"choice point '{point_id}' was drawn through the context "
                    "of an update that had returned")
            if not isinstance(cp.site, Group):
                raise ModelError(
                    f"choice point '{point_id}' is an initialisation choice "
                    "and cannot be drawn during a step")
            raise ModelError(
                f"choice point '{point_id}' is declared for "
                f"{cp.site.value} but was drawn while computing {self._site.value}")
        return _draw(cp, self._iteration, self._values, self._entries)


@dataclass(frozen=True)
class Model:
    """A registered model: immutable, validated, ready to step or explore.
    `layout` maps each (Group, name) to its position in declared order.
    `views` gives each group, in `Group` order, its view class and a reader
    of its values out of a valuation.  `plan` is `_PLAN` with each row's
    writes resolved: its name -> (position, domain check) map."""

    name: str
    variables: tuple[Var, ...]
    updates: UpdateFunctions
    choices: dict[str, ChoicePoint]
    assertions: tuple[Assertion, ...]
    init_choices: tuple[tuple[int, ChoicePoint], ...]  # (position, point)
    layout: dict[tuple[Group, str], int]
    views: tuple[tuple[type, Callable], ...]
    # (target, its index, reader of the read views, may draw, writes)
    plan: tuple[tuple[Group, int, Callable, bool,
                      dict[str, tuple[int, Callable[[Value], bool]]]], ...]


class VerdictKind(Enum):
    Safe = "Safe"
    Unsafe = "Unsafe"
    ModelError = "ModelError"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exploration.

    Safe(bound): every path ran to the bound without violating an assertion.
    Unsafe: carries the first violating path found in declared-order DFS as
    a trace plus the choice log that reproduces it, and the id of the first
    assertion (in declared order) violated at the final snapshot.
    ModelError: a structural problem or resource ceiling was hit.

    For Safe verdicts, trace and choice_log describe the first explored path
    so that a representative run can still be exported.
    """

    kind: VerdictKind
    bound: int
    paths_explored: int = 0
    trace: Trace | None = None
    choice_log: ChoiceLog | None = None
    failed_assertion: str | None = None
    message: str | None = None

    def __str__(self) -> str:
        if self.kind is VerdictKind.Safe:
            return f"Safe({self.bound})"
        if self.kind is VerdictKind.Unsafe:
            return f"Unsafe({self.failed_assertion})"
        return f"ModelError({self.message})"


def _position(layout: dict, key, unknown: str = "unknown variable") -> int:
    """Position of the variable named by a (Group, name) pair in `layout`;
    `unknown` starts the error message for any key it does not hold."""
    try:
        return layout[key]
    except (KeyError, TypeError):
        pass
    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], Group):
        raise ModelError(f"{unknown} {key[0].value}.{key[1]}")
    raise ModelError(f"{unknown} {key!r}: name a variable by (Group, name)")


def register_model(variables: Sequence[Var],
                   updates: UpdateFunctions,
                   choices: Sequence[ChoicePoint] = (),
                   assertions: Sequence[Assertion] = (),
                   name: str = "model") -> Model:
    """Validate and freeze a model definition.

    Each `Var` carries its own initial value, checked against its domain
    when the `Var` is made.  A choice point sited at a variable's
    (Group, name) overrides that initial value; such initialisation choices
    are drawn in the order they appear in `choices`.

    Checks: `name` is a trace token (`check_token`), as a trace header
    holds it; at least one variable; names unique within each group; choice
    point ids unique; every site that is not a group names a declared
    variable, at most one point targets each variable, and every candidate
    lies inside that variable's domain.  Finally one trial step is taken
    with the first domain value at every draw, whatever the initial state's
    assertions say, and the assertions are evaluated on the stepped state,
    so that wiring mistakes and assertions that raise surface at
    registration rather than mid-exploration.  Violations there are ignored.
    """
    check_token(name, "model name")
    vars_t = tuple(variables)
    if not vars_t:
        raise ModelError("a model needs at least one variable")
    layout: dict[tuple[Group, str], int] = {}
    # each group's name -> (position, domain check), in `Group` order
    writes: list[dict[str, tuple[int, Callable]]] = [{} for _ in Group]
    for pos, v in enumerate(vars_t):
        if (v.group, v.name) in layout:
            raise ModelError(f"duplicate variable {v}")
        layout[(v.group, v.name)] = pos
        writes[_GROUP_INDEX[v.group]][v.name] = (pos, v.domain.contains)
    views = tuple((_view_class(g, tuple(names)),
                   _reader([pos for pos, _ in names.values()]))
                  for g, names in zip(Group, writes))
    plan = tuple((*row, writes[row[1]]) for row in _PLAN)

    choice_map: dict[str, ChoicePoint] = {}
    init_ch: list[tuple[int, ChoicePoint]] = []
    for cp in choices:
        if cp.point_id in choice_map:
            raise ModelError(f"duplicate choice point '{cp.point_id}'")
        choice_map[cp.point_id] = cp
        if isinstance(cp.site, Group):
            continue
        pos = _position(layout, cp.site, f"choice point '{cp.point_id}' "
                                         "targets unknown variable")
        if any(pos == other for other, _ in init_ch):
            raise ModelError(f"two initialisation choices target {vars_t[pos]}")
        for value in cp.domain:
            if not vars_t[pos].domain.contains(value):
                raise ModelError(
                    f"initialisation choice '{cp.point_id}' offers {value!r}, "
                    f"outside the domain of {vars_t[pos]}")
        init_ch.append((pos, cp))

    assert_t = tuple(assertions)
    ids = [a.assert_id for a in assert_t]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate assertion id")

    model = Model(name=name, variables=vars_t, updates=updates,
                  choices=choice_map, assertions=assert_t, layout=layout,
                  init_choices=tuple(init_ch), views=views, plan=plan)

    # trial step: surfaces read/update wiring errors now
    trial, _ = resolve_initial(model)
    trial, _ = step(model, trial)
    _eval_assertions(model, trial)
    return model


def resolve_initial(model: Model, values: Iterable[Value] = ()
                    ) -> tuple[ModelState, ChoiceLog]:
    """Build the iteration-0 state, drawing the initialisation choices in
    the order `choices` lists them, from `values` as `step` draws."""
    values = iter(values)
    initial = [v.init for v in model.variables]
    entries: list[ChoiceEntry] = []
    for pos, cp in model.init_choices:
        initial[pos] = _draw(cp, 0, values, entries)
    return ModelState(tuple(initial), 0, model.layout), tuple(entries)


def _eval_assertions(model: Model, state: ModelState) -> tuple[str, ...]:
    violated = []
    for a in model.assertions:
        try:
            ok = bool(a.predicate(state))
        except ModelError:
            raise
        except Exception as exc:
            raise ModelError(
                f"assertion '{a.assert_id}' raised {exc!r} at iteration "
                f"{state.iteration}") from exc
        if not ok:
            violated.append(a.assert_id)
    return tuple(violated)


def _views(model: Model, values: Sequence[Value]) -> list[tuple]:
    """The nine group views of a valuation, in `Group` order."""
    new = tuple.__new__
    return [new(cls, read(values)) for cls, read in model.views]


def step(model: Model, state: ModelState, values: Iterable[Value] = ()
         ) -> tuple[ModelState, ChoiceLog]:
    """Advance the loop by one iteration: a transition only, which evaluates
    no assertions.

    Pure: given the same state and values the result is identical.  Each
    draw takes the next of `values`, and the point's first value once they
    run out; an iterator is consumed by exactly the draws made.  Returns
    the new state and the draws made, as `resolve_initial` does.

    It builds the nine group views of `state` and takes the step from them
    (`_step`), rebuilding a view only after an update changed its group.
    Each drawing update gets a context that draws only while its call
    runs: once the call returns or raises, the context draws nothing.
    """
    return _step(model, state, _views(model, state.values), iter(values))


def _step(model: Model, state: ModelState, views: list[tuple],
          values: Iterator[Value]) -> tuple[ModelState, ChoiceLog]:
    """The step after `state`, whose group views `views` holds; leaves in
    `views` those of the new state, so a path's next step can take them.

    The new valuation starts as a copy of the previous one, so variables an
    update omits carry over; each update writes its group in place.  A
    group's view is built again only after its update changed one of its
    values, so a group written earlier shows its new values and every view
    ends exact.  A write of the very object its position already holds
    changes nothing and is not checked again: every value in the valuation
    has passed its domain check or, carried over, is as the state held it.
    It must be the same object, not an equal one, since neither 1 nor True
    is the other's domain's member.

    Each call of a drawing update gets a context of its own, closed in a
    `finally`: once the call returns or raises, the context draws nothing.
    """
    group_views = model.views
    new = tuple.__new__
    current = list(state.values)
    entries: list[ChoiceEntry] = []
    iteration = state.iteration + 1

    for (target, index, reads, may_draw, names), fn in zip(
            model.plan, _FUNCTIONS(model.updates)):
        try:
            if may_draw:
                ctx = StepContext(model, iteration, values, target, entries)
                try:
                    returned = fn(*reads(views), ctx)
                finally:
                    ctx._site = None   # closed however the call ended
            else:
                returned = fn(*reads(views))
        except ModelError:
            raise
        except Exception as exc:
            raise ModelError(f"update for {target.value} raised {exc!r} "
                             f"at iteration {iteration}") from exc
        try:
            items = returned.items()
        except AttributeError:
            raise ModelError(f"update for {target.value} returned "
                             f"{returned!r} (return a mapping, possibly "
                             "empty)") from None
        changed = False
        for var_name, value in items:
            slot = names.get(var_name)
            if slot is None:
                raise ModelError(
                    f"update for {target.value} assigned unknown "
                    f"variable '{var_name}'")
            pos, contains = slot
            if value is current[pos]:
                continue
            if not contains(value):
                raise ModelError(
                    f"update produced {value!r} for {model.variables[pos]}, "
                    f"outside its domain, at iteration {iteration}")
            current[pos] = value
            changed = True
        if changed:
            cls, read = group_views[index]
            views[index] = new(cls, read(current))

    return ModelState(tuple(current), iteration, model.layout), tuple(entries)


def run_path(model: Model, bound: int, values: Iterable[Value] = ()
             ) -> tuple[Trace, ChoiceLog, tuple[str, ...]]:
    """Run one path from the initial state until the first iteration whose
    assertions fail or the bound.  Its draws take `values` in order, across
    initialisation and the steps, then first values.  Returns the states,
    the draws and the violated assertion ids (empty if none).

    The nine group views are built once, from the initial state, and each
    step hands those of its new state to the next (`_step`), so a view is
    built again only after an update changed its group.

    A step that drew nothing and returned its input's values has settled
    the path: every later step would see the same views, draw nothing and
    return the same values again.  From then on each iteration repeats
    that valuation, sharing its tuple, without calling `step`.  Either
    way the assertions run once on every state, since they see the
    iteration.
    """
    values = iter(values)
    state, entries = resolve_initial(model, values)
    views = _views(model, state.values)
    snapshots = [state]
    log = list(entries)
    violated = _eval_assertions(model, state)
    settled = False
    while not violated and state.iteration < bound:
        if settled:
            state = ModelState(state.values, state.iteration + 1, model.layout)
        else:
            stepped, drawn = _step(model, state, views, values)
            settled = not drawn and stepped.values == state.values
            state = stepped
            log.extend(drawn)
        snapshots.append(state)
        violated = _eval_assertions(model, state)
    return tuple(snapshots), tuple(log), violated


def explore(model: Model, bound: int,
            *, path_ceiling: int = DEFAULT_PATH_CEILING) -> Verdict:
    """Exhaustively explore every choice resolution up to `bound` iterations.

    Traversal is depth-first in declared domain order, so the counterexample
    returned for an unsafe model is the lexicographically first violating
    path under the declared ordering.  A path ends at the first iteration
    whose assertions fail, or at the bound.  Structural errors and a path
    count beyond `path_ceiling` yield a ModelError verdict.

    Monotone in the bound: a model unsafe at bound b stays unsafe at every
    larger bound, since the violating path still exists there.  The reported
    witness may differ, because a deeper tree can reach a violation under a
    lexicographically earlier prefix.

    Each path replays a prefix of values, then draws first values.  The
    next prefix is the last path's log up to its deepest draw whose point
    has a later value, advanced to that value; `ChoicePoint` rejects members
    that compare equal, so a value's place in its domain is unambiguous.
    """
    # exactly int, as a trace header writes the bound
    if type(bound) is not int or bound < 1:
        raise ModelError(f"bound must be an int of at least 1, got {bound!r}")
    if type(path_ceiling) is not int or path_ceiling < 1:
        raise ModelError("path ceiling must be an int of at least 1, got "
                         f"{path_ceiling!r}")

    first_path: tuple[Trace, ChoiceLog] | None = None
    prefix: list[Value] = []
    paths = 0
    while True:
        if paths >= path_ceiling:
            return Verdict(VerdictKind.ModelError, bound, paths_explored=paths,
                           message="choice explosion: path ceiling "
                                   f"{path_ceiling} exceeded")
        try:
            trace, log, violated = run_path(model, bound, prefix)
        except ModelError as exc:
            return Verdict(VerdictKind.ModelError, bound, paths_explored=paths + 1,
                           message=str(exc))
        paths += 1
        if violated:
            return Verdict(VerdictKind.Unsafe, bound, paths_explored=paths,
                           trace=trace, choice_log=log,
                           failed_assertion=violated[0])
        if first_path is None:
            first_path = (trace, log)

        # advance the deepest draw whose point has a later value
        for i in range(len(log) - 1, -1, -1):
            domain = model.choices[log[i].point_id].domain
            later = domain.index(log[i].value) + 1
            if later < len(domain):
                break
        else:
            return Verdict(VerdictKind.Safe, bound, paths_explored=paths,
                           trace=first_path[0], choice_log=first_path[1])
        prefix = [entry.value for entry in log[:i]] + [domain[later]]


def probed_model(model: Model, var: tuple[Group, str]) -> Model:
    """Return a copy of the model with one variable's initialisation promoted
    to a choice over its full domain.

    `var` is the variable's (Group, name) pair and the probe's site.  The
    probe is drawn first and appears in choice logs at iteration 0 under the
    id ``probe:<name>``.  The probed model is registered afresh with the
    probe first in `choices`, so `register_model` rejects a variable with an
    initialisation choice of its own, which would overwrite the probed
    value, and a model that already declares a point of the probe's id.
    The original model is not modified.  Counterexamples found on the probed
    model replay against the probed model, not the original, since only the
    former declares the probe choice point.
    """
    target = model.variables[_position(model.layout, var)]
    cp = ChoicePoint(f"probe:{target.name}", target.domain.values(), site=var)
    return register_model(model.variables, model.updates,
                          (cp, *model.choices.values()), model.assertions,
                          model.name)


def replay_counterexample(model: Model, verdict: Verdict) -> Trace:
    """Re-run an Unsafe verdict's choice log through `run_path`, the path
    runner `explore` uses, drawing the log's values in order, and check that
    the run drew the log's entries and reproduces the trace exactly,
    including the final violation.

    Returns the replayed trace; raises ModelError on any mismatch, including
    a ModelError inside the run (a value outside the domain of the point
    that drew it), a run that draws more or fewer entries than the log
    holds, and a trace that runs past the first violation.  This is the
    closure guarantee for counterexamples: trace plus log suffice to
    reproduce the violation with no exploration machinery involved.
    """
    if verdict.kind is not VerdictKind.Unsafe:
        raise ModelError("only Unsafe verdicts carry a counterexample")
    if not verdict.trace or verdict.choice_log is None:
        raise ModelError("verdict has no trace to replay")

    expected = verdict.choice_log
    try:
        trace, log, violated = run_path(model, len(verdict.trace) - 1,
                                        [entry.value for entry in expected])
    except ModelError as exc:
        raise ModelError(f"replay mismatch: {exc}") from exc
    for entry, drawn in zip(expected, log):
        if drawn != entry:   # the values agree, so the place differs
            raise ModelError(
                f"replay mismatch: log has ({entry.iteration}, {entry.point_id}), "
                f"run drew ({drawn.iteration}, {drawn.point_id})")
    if len(log) > len(expected):
        extra = log[len(expected)]
        raise ModelError(f"replay log exhausted at '{extra.point_id}' "
                         f"(iteration {extra.iteration})")
    for replayed, state in zip(trace, verdict.trace):
        if replayed != state:
            raise ModelError(
                f"replay mismatch at iteration {replayed.iteration}")
    if len(trace) < len(verdict.trace):
        raise ModelError(f"replay violated '{violated[0]}' at iteration "
                         f"{trace[-1].iteration}, before the trace ends")
    if len(log) != len(expected):
        raise ModelError(f"replay left {len(expected) - len(log)} "
                         "choice log entries undrawn")
    if verdict.failed_assertion not in violated:
        raise ModelError(
            f"replay did not reproduce the violation of "
            f"'{verdict.failed_assertion}'")
    return trace
