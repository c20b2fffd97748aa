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
else, so read-sets are enforced structurally.  A read of a group written
earlier in the same step is primed and sees this step's value; every other
read sees the previous iteration's, so an output reports its model's new
state.  Environment and behaviour functions may draw values from declared
choice points; the three system functions must be deterministic and are
never handed a drawing context.  A choice point's site is the group that
draws it; one without a site is an initialisation choice, drawn before the
first iteration.  Every draw, of either kind, goes through `_draw`.

`explore` enumerates every resolution of every choice point up to a bound,
depth first in declared domain order, and reports the first violating path
as a replayable counterexample.  All data is immutable, so paths are
re-executed from the initial state rather than snapshotted; this keeps the
search trivially correct at the cost of redundant recomputation, which is
acceptable at the scale this engine targets.

A state is one flat tuple of values, one per declared variable in declared
order.  `register_model` fixes each variable's position once (a `VarIndex`);
views, steps, initial states and trace files all address values through it.
A view is a named tuple of one group's values, of a class built once per
(group, names) shape.

The only module-level mutable state is the bounded cache of those view
classes, which are immutable and shared by every model of the same shape;
concurrent use of separate models is safe, single-threaded use is assumed
per model.
"""

from __future__ import annotations

import functools
import keyword
from collections import namedtuple
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

Value = Union[int, bool, str, Enum]

DEFAULT_PATH_CEILING = 10**8


class ModelError(Exception):
    """Raised for structural model problems: bad registration, out-of-domain
    values, read-set or determinism violations, resource exhaustion."""


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
    """Bounded integer domain, inclusive on both ends."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ModelError(f"empty integer domain [{self.lo}, {self.hi}]")

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
    """Finite enumeration of labels.  Members may be strings or Enum members;
    a value belongs only if it equals a member of the same type, so neither
    1 nor True is an IntEnum member."""

    members: tuple[Value, ...]
    _types: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ModelError("symbolic domain must not be empty")
        if len(set(self.members)) != len(self.members):
            raise ModelError("symbolic domain has duplicate members")
        object.__setattr__(self, "_types", frozenset(map(type, self.members)))

    def contains(self, v: Value) -> bool:
        return type(v) in self._types and v in self.members

    def values(self) -> tuple[Value, ...]:
        return self.members


Domain = Union[IntDomain, BoolDomain, SymbolicDomain]


@dataclass(frozen=True)
class Var:
    """A declared variable: its group, name, domain and initial value."""

    name: str
    group: Group
    domain: Domain
    init: Value

    def __post_init__(self) -> None:
        if (not self.name.isidentifier() or keyword.iskeyword(self.name)
                or self.name.startswith("_")):
            raise ModelError(f"variable name {self.name!r} must be an "
                             "identifier that is not a keyword and does not "
                             "start with '_'")
        if not self.domain.contains(self.init):
            raise ModelError(f"initial value {self.init!r} outside the domain "
                             f"of {self}")

    def __str__(self) -> str:
        return f"{self.group.value}.{self.name}"


@dataclass(frozen=True)
class ChoicePoint:
    """A named non-deterministic draw site.

    `domain` is the ordered list of candidate values; exploration branches in
    exactly this order.  `site` is the group whose update function performs
    the draw, or None for draws resolved once before the first iteration
    (initialisation choices, including probes): `register_model` takes those
    in `init_choices` only, and every point with a site in `choices`.
    """

    point_id: str
    domain: tuple[Value, ...]
    site: Group | None = None
    _types: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.domain:
            raise ModelError(f"choice point '{self.point_id}' has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ModelError(f"choice point '{self.point_id}' has duplicate values")
        if self.site in SYSTEM_GROUPS:
            raise ModelError("system update must be deterministic: "
                             f"choice point '{self.point_id}' sited at {self.site.value}")
        object.__setattr__(self, "_types", frozenset(map(type, self.domain)))

    def offers(self, value: Value) -> bool:
        """Whether `value` is a candidate: equal to one of the same type."""
        return type(value) in self._types and value in self.domain


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
    """A pure safety predicate over a full valuation; False means violated."""

    assert_id: str
    predicate: Callable[["ModelState"], bool]


@dataclass(frozen=True, eq=False)
class VarIndex:
    """Where each variable sits in a model's flat valuation, fixed by
    `register_model`: `positions` maps (group, name) to a position in
    declared order.  `views` gives each group its view class and a reader
    that picks the group's values out of a valuation; `writes` maps each
    group's names to their position and their domain's `contains`."""

    positions: dict[tuple[Group, str], int]
    views: dict[Group, tuple[type, Callable]]
    writes: dict[Group, dict[str, tuple[int, Callable[[Value], bool]]]]


@dataclass(frozen=True)
class ModelState:
    """A complete valuation of every declared variable at one iteration.

    `values` holds one value per variable in the model's declared order, and
    `index` says which position belongs to which variable.  Equality and
    hashing use the values and the iteration only.
    """

    values: tuple[Value, ...]
    iteration: int
    index: VarIndex = field(compare=False, repr=False)

    def value(self, group: Group, name: str) -> Value:
        return self.values[_position(self.index, (group, name))]

    @property
    def valuation(self) -> Mapping[tuple[Group, str], Value]:
        """Read-only (Group, name) -> value mapping in declared order, built
        per call."""
        return MappingProxyType(dict(zip(self.index.positions, self.values)))


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
    """Picks the values at `positions` out of a valuation, as a sequence
    (`itemgetter` of one position would return the bare value)."""
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
    value (carry-over).
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

# derived once from _SLOTS: (target, UpdateFunctions field, reads as (group,
# primed: a row before this one writes it), may draw)
_PLAN = tuple(
    (target, target.name.lower(),
     tuple((group, any(t is group for t, _ in _SLOTS[:i])) for group in reads),
     target not in SYSTEM_GROUPS)
    for i, (target, reads) in enumerate(_SLOTS))


Resolver = Callable[[ChoicePoint, int], Value]


def first_value_resolver(cp: ChoicePoint, iteration: int) -> Value:
    """Resolver that always picks the first value of a choice domain."""
    return cp.domain[0]


def log_resolver(log: Iterable[ChoiceEntry]) -> Resolver:
    """Resolver that replays a recorded choice log, strictly in order."""
    entries = iter(tuple(log))

    def resolve(cp: ChoicePoint, iteration: int) -> Value:
        entry = next(entries, None)
        if entry is None:
            raise ModelError(f"replay log exhausted at '{cp.point_id}' "
                             f"(iteration {iteration})")
        if entry.point_id != cp.point_id or entry.iteration != iteration:
            raise ModelError(
                f"replay mismatch: log has ({entry.iteration}, {entry.point_id}), "
                f"run drew ({iteration}, {cp.point_id})")
        return entry.value

    return resolve


def _draw(cp: ChoicePoint, iteration: int, resolver: Resolver,
          entries: list[ChoiceEntry]) -> Value:
    """The one place a choice is drawn: ask the resolver, check that the
    value is one of the point's candidates, and log it in `entries`."""
    value = resolver(cp, iteration)
    if not cp.offers(value):
        raise ModelError(
            f"resolver produced {value!r}, outside the domain of '{cp.point_id}'")
    entries.append(ChoiceEntry(iteration, cp.point_id, value))
    return value


class StepContext:
    """Drawing context handed to environment and behaviour update functions."""

    def __init__(self, model: "Model", iteration: int, resolver: Resolver,
                 site: Group, entries: list[ChoiceEntry]):
        self._model = model
        self._iteration = iteration
        self._resolver = resolver
        self._site = site
        self._entries = entries

    def choose(self, point_id: str) -> Value:
        cp = self._model.choices.get(point_id)
        if cp is None:
            raise ModelError(f"unknown choice point '{point_id}'")
        if cp.site is None:
            raise ModelError(
                f"choice point '{point_id}' is an initialisation choice and "
                "cannot be drawn during a step")
        if cp.site != self._site:
            raise ModelError(
                f"choice point '{point_id}' is declared for "
                f"{cp.site.value} but was drawn while computing {self._site.value}")
        return _draw(cp, self._iteration, self._resolver, self._entries)


@dataclass(frozen=True)
class Model:
    """A registered model: immutable, validated, ready to step or explore."""

    name: str
    variables: tuple[Var, ...]
    updates: UpdateFunctions
    choices: dict[str, ChoicePoint]
    assertions: tuple[Assertion, ...]
    init_choices: tuple[tuple[int, ChoicePoint], ...]  # (position, point)
    index: VarIndex


@dataclass(frozen=True)
class StepResult:
    state: ModelState
    drawn: ChoiceLog
    violated: tuple[str, ...]


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


def _position(index: VarIndex, key, unknown: str = "unknown variable") -> int:
    """Position of the variable named by a (Group, name) pair; `unknown`
    starts the error message for any key the model does not declare."""
    try:
        return index.positions[key]
    except (KeyError, TypeError):
        pass
    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], Group):
        raise ModelError(f"{unknown} {key[0].value}.{key[1]}")
    raise ModelError(f"{unknown} {key!r}: name a variable by (Group, name)")


def register_model(variables: Sequence[Var],
                   updates: UpdateFunctions,
                   choices: Sequence[ChoicePoint] = (),
                   assertions: Sequence[Assertion] = (),
                   init_choices: Sequence[tuple] = (),
                   name: str = "model") -> Model:
    """Validate and freeze a model definition.

    Each `Var` carries its own initial value, checked against its domain
    when the `Var` is made.  `init_choices` pairs a variable's (Group, name)
    with a site-None choice point that overrides that initial value; they
    are drawn in the order given.

    Checks: at least one variable; names unique within each group; choice
    point ids unique; every point in `choices` has a site; initialisation
    choices target declared variables, at most one each, with values inside
    the variable's domain.  Finally a single trial step is executed (first
    domain value at every draw) so that wiring mistakes surface at
    registration rather than mid-exploration.  Assertion violations during
    the trial step are ignored.
    """
    vars_t = tuple(variables)
    if not vars_t:
        raise ModelError("a model needs at least one variable")
    positions: dict[tuple[Group, str], int] = {}
    writes: dict[Group, dict[str, tuple[int, Callable]]] = {
        g: {} for g in Group}
    for pos, v in enumerate(vars_t):
        if (v.group, v.name) in positions:
            raise ModelError(f"duplicate variable {v}")
        positions[(v.group, v.name)] = pos
        writes[v.group][v.name] = (pos, v.domain.contains)
    views = {g: (_view_class(g, tuple(names)),
                 _reader([pos for pos, _ in names.values()]))
             for g, names in writes.items()}
    index = VarIndex(positions, views, writes)

    choice_map: dict[str, ChoicePoint] = {}
    for cp in choices:
        if cp.site is None:
            raise ModelError(f"choice point '{cp.point_id}' has no site: an "
                             "initialisation choice goes in init_choices")
        if cp.point_id in choice_map:
            raise ModelError(f"duplicate choice point '{cp.point_id}'")
        choice_map[cp.point_id] = cp

    assert_t = tuple(assertions)
    ids = [a.assert_id for a in assert_t]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate assertion id")

    init_ch: list[tuple[int, ChoicePoint]] = []
    for key, cp in init_choices:
        pos = _position(index, key,
                        "initialisation choice targets unknown variable")
        if cp.site is not None:
            raise ModelError(
                f"initialisation choice '{cp.point_id}' must use site None")
        if cp.point_id in choice_map:
            raise ModelError(f"duplicate choice point '{cp.point_id}'")
        if any(pos == other for other, _ in init_ch):
            raise ModelError(f"two initialisation choices target {vars_t[pos]}")
        for value in cp.domain:
            if not vars_t[pos].domain.contains(value):
                raise ModelError(
                    f"initialisation choice '{cp.point_id}' offers {value!r}, "
                    f"outside the domain of {vars_t[pos]}")
        choice_map[cp.point_id] = cp
        init_ch.append((pos, cp))

    model = Model(name=name, variables=vars_t, updates=updates,
                  choices=choice_map, assertions=assert_t,
                  init_choices=tuple(init_ch), index=index)

    # trial step: surfaces read/update wiring errors now
    trial, _ = resolve_initial(model, first_value_resolver)
    step(model, trial, first_value_resolver)
    return model


def resolve_initial(model: Model,
                    resolver: Resolver = first_value_resolver
                    ) -> tuple[ModelState, ChoiceLog]:
    """Build the iteration-0 state, resolving initialisation choices in
    declared order through the resolver."""
    values = [v.init for v in model.variables]
    entries: list[ChoiceEntry] = []
    for pos, cp in model.init_choices:
        values[pos] = _draw(cp, 0, resolver, entries)
    return ModelState(tuple(values), 0, model.index), tuple(entries)


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


def step(model: Model, state: ModelState, resolver: Resolver) -> StepResult:
    """Advance the loop by one iteration.

    Pure: given the same state and resolver decisions the result is
    identical.  The resolver supplies one domain value per choice point draw.
    Returns the new state, the draws made, and the ids of every assertion
    violated by the new state (declared order).

    The new valuation starts as a copy of the previous one, so variables an
    update omits carry over; each update writes its group in place.
    """
    views = model.index.views
    writes = model.index.writes
    view = tuple.__new__
    previous = state.values
    current = list(previous)
    entries: list[ChoiceEntry] = []
    iteration = state.iteration + 1

    for target, fn_name, reads, may_draw in _PLAN:
        fn = getattr(model.updates, fn_name)
        args = []
        for g, primed in reads:
            cls, read = views[g]
            args.append(view(cls, read(current if primed else previous)))
        try:
            if may_draw:
                ctx = StepContext(model, iteration, resolver, target, entries)
                returned = fn(*args, ctx)
            else:
                returned = fn(*args)
        except ModelError:
            raise
        except Exception as exc:
            raise ModelError(f"update for {target.value} raised {exc!r} "
                             f"at iteration {iteration}") from exc
        if returned is None:
            raise ModelError(f"update for {target.value} returned None "
                             "(return a mapping, possibly empty)")
        names = writes[target]
        for var_name, value in returned.items():
            slot = names.get(var_name)
            if slot is None:
                raise ModelError(
                    f"update for {target.value} assigned unknown "
                    f"variable '{var_name}'")
            pos, contains = slot
            if not contains(value):
                raise ModelError(
                    f"update produced {value!r} for {model.variables[pos]}, "
                    f"outside its domain, at iteration {iteration}")
            current[pos] = value

    new_state = ModelState(tuple(current), iteration, model.index)
    violated = _eval_assertions(model, new_state)
    return StepResult(new_state, tuple(entries), violated)


class _ScriptResolver:
    """Resolver that replays a prefix of branch indices and extends it with
    first-value decisions, recording every decision's domain size."""

    def __init__(self, prefix: Sequence[int]):
        self.indices: list[int] = list(prefix)
        self.sizes: list[int] = []

    def __call__(self, cp: ChoicePoint, iteration: int) -> Value:
        pos = len(self.sizes)
        if pos == len(self.indices):
            self.indices.append(0)
        idx = self.indices[pos]
        if idx >= len(cp.domain):
            raise ModelError(
                f"internal search error: index {idx} for '{cp.point_id}'")
        self.sizes.append(len(cp.domain))
        return cp.domain[idx]


def run_path(model: Model, bound: int, resolver: Resolver
             ) -> tuple[Trace, ChoiceLog, tuple[str, ...]]:
    """Run one path from the initial state, drawing through the resolver,
    until the first iteration whose assertions fail or the bound.  Returns
    the states, the draws and the violated assertion ids (empty if none)."""
    state, entries = resolve_initial(model, resolver)
    snapshots = [state]
    log = list(entries)
    violated = _eval_assertions(model, state)
    while not violated and state.iteration < bound:
        result = step(model, state, resolver)
        state = result.state
        snapshots.append(state)
        log.extend(result.drawn)
        violated = result.violated
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
    """
    if bound < 1:
        raise ModelError(f"bound must be at least 1, got {bound}")
    if path_ceiling < 1:
        raise ModelError("path ceiling must be at least 1")

    first_path: tuple[Trace, ChoiceLog] | None = None
    prefix: list[int] = []
    paths = 0
    while True:
        if paths >= path_ceiling:
            return Verdict(VerdictKind.ModelError, bound, paths_explored=paths,
                           message="choice explosion: path ceiling "
                                   f"{path_ceiling} exceeded")
        resolver = _ScriptResolver(prefix)
        try:
            trace, log, violated = run_path(model, bound, resolver)
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

        # advance the deepest decision that still has untried values
        i = len(resolver.indices) - 1
        while i >= 0 and resolver.indices[i] + 1 >= resolver.sizes[i]:
            i -= 1
        if i < 0:
            return Verdict(VerdictKind.Safe, bound, paths_explored=paths,
                           trace=first_path[0], choice_log=first_path[1])
        prefix = resolver.indices[:i] + [resolver.indices[i] + 1]


def probed_model(model: Model, var: tuple[Group, str]) -> Model:
    """Return a copy of the model with one variable's initialisation promoted
    to a choice over its full domain.

    `var` is the variable's (Group, name) pair.  The probe draw appears in
    choice logs at iteration 0 under the id ``probe:<name>``.  A variable
    with an initialisation choice of its own cannot be probed, because that
    choice would overwrite the probed value.  The original model is not
    modified.  Counterexamples found on the probed model replay against the
    probed model, not the original, since only the former declares the probe
    choice point.
    """
    pos = _position(model.index, var)
    target = model.variables[pos]
    if any(pos == other for other, _ in model.init_choices):
        raise ModelError(f"{target} already has an initialisation choice")

    cp = ChoicePoint(f"probe:{target.name}", target.domain.values(), site=None)
    return replace(model,
                   init_choices=((pos, cp),) + model.init_choices,
                   choices={**model.choices, cp.point_id: cp})


def replay_counterexample(model: Model, verdict: Verdict) -> Trace:
    """Re-execute an Unsafe verdict's choice log through `step` and check that
    it reproduces the trace exactly, including the final violation.

    Returns the replayed trace; raises ModelError on any mismatch, including
    a trace that runs past the first violation and log entries the replay
    never drew.  This is the closure guarantee for counterexamples: trace
    plus log suffice to reproduce the violation with no exploration
    machinery involved.
    """
    if verdict.kind is not VerdictKind.Unsafe:
        raise ModelError("only Unsafe verdicts carry a counterexample")
    if not verdict.trace or verdict.choice_log is None:
        raise ModelError("verdict has no trace to replay")

    trace, log, violated = run_path(model, len(verdict.trace) - 1,
                                    log_resolver(verdict.choice_log))
    for replayed, expected in zip(trace, verdict.trace):
        if replayed != expected:
            raise ModelError(
                f"replay mismatch at iteration {replayed.iteration}")
    if len(trace) < len(verdict.trace):
        raise ModelError(f"replay violated '{violated[0]}' at iteration "
                         f"{trace[-1].iteration}, before the trace ends")
    if len(log) != len(verdict.choice_log):
        raise ModelError(f"replay left {len(verdict.choice_log) - len(log)} "
                         "choice log entries undrawn")
    if verdict.failed_assertion not in violated:
        raise ModelError(
            f"replay did not reproduce the violation of "
            f"'{verdict.failed_assertion}'")
    return trace
