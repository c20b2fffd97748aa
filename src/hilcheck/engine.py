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
else, so read-sets are enforced structurally.  A model may also declare,
per update, the variables it reads (`register_model`'s `reads`): its view
of each group then holds only the declared variables of that group, and
any other read of the group is a ModelError that names the update and the
variable.  An update left undeclared reads every variable of its groups.
Each view is built from the valuation the step is writing, just before
its update is called, into which a row writes only its own group, after
its update: a group an earlier row wrote shows this step's value, any
other the previous iteration's, so an output reports its model's new
state.  No view outlives its call.  A write of the very object a variable
holds changes nothing, so it is not checked against the domain again.
Environment and behaviour functions may draw values from
declared choice points, each call through a context of its own that
draws only the points sited at its group and only while that call runs:
once it returns or raises, the context draws nothing.  Only a call whose
group a step choice point is sited at gets a live context, one that can
draw; every other environment or behaviour call gets a bare one, made
without `__init__`, that refuses every draw with the same message a live
one would.  The three system functions must be deterministic and are
never handed a drawing context.
A choice point's site is the group that draws it in each step, or the
(Group, name) of the variable it initialises before the first iteration.
Every draw, at initialisation or in a step, goes through `_draw`, which
takes the next of the values it is given, or the point's first value once
they run out.

`step` is the transition alone and consumes the values it draws;
`run_path` runs one path of steps from one sequence of values and
evaluates the assertions once on each state it steps to.  `explore`
enumerates every resolution of every choice point up to a bound, depth
first in declared domain order, and reports the first violating path as a
replayable counterexample.  A path is named by its choice log alone, the
values it drew in order.  The search walks the initial states, and under
each the tree of step successors, depth first by one sibling rule
(`_next_draws`): it builds each initial state once, and walks the step
tree on an explicit stack with a frame for each node whose step drew, so
each node of the choice tree is stepped at most once, and each state
checked at most once.  `run_path` runs a path from its initial state on
its own, so a witness replays independently of the search.  One purity
rule holds for the whole model: an update's writes, which point it draws
next and whether it raises depend only on its views and on the values it
has drawn so far in the call, and an assertion's result only on a state's
values, never on its iteration.  So a step that drew nothing and returned
its input's values would do the same at every later iteration, on values
the assertions already passed: the path has settled, and `run_path` and
`explore` end it there, repeating that valuation up to the bound with no
further step or assertion.  A node the walk reaches again, with the
values and the remaining depth of one whose subtree it has fully
explored, roots the same subtree: `explore` adds that subtree's path
count, kept in a memo, and steps no further.  A row makes the same writes
whenever it reads the same values and draws the same values: within one
`explore` call each row keeps a bounded table keyed by the values of the
variables it declares it reads, taken from the valuation being written.
A row whose call gets no live context, so that it draws nothing, maps
each key to the writes its update made; a row whose call gets a live one
maps it to a trie of its draws (`_Trie`), each node the point the call
drew next and, for each value drawn, the node after, down to the writes.
A repeated input takes the writes from there, drawing each value on the
way through `_draw`, with no call and no view built; a miss calls the
update, whose context hands back the values the walk drew before it
draws any, so every value is drawn once.  Equal writes of one row are
stored as one tuple, interned through a dict cleared together with the
row's table, so each row holds at most `_TABLE_SIZE` keys and as many
write tuples.  And as the rows before the model's first live row draw
nothing and read the state alone, every sibling of a node starts from
the valuation they made for its first child, the node's prefix: `explore`
takes it from the child stepped before, keeps it in the node's frame and
steps a sibling from it with the rows from the first live row on.  `explore` binds each row to its key, table
or trie and intern dict once per call; `step`, `run_path` and
`register_model`'s trial step bind rows with no tables and step every row
from the state, so a replay calls every update.

One equality rule holds throughout: two values are the same value only if
they are equal and of the same type.  A domain holds a value only if it
equals one of its members of the same type (`IntDomain.contains`,
`SymbolicDomain.contains`), and no domain holds two equal members, so on
the values one variable can hold, equal means the same value.  The table
keys, the interned writes, the memo's states, `_next_draws`'s place of a
value in its domain and the labels a trace writes all rest on it.

A state is one flat tuple of values, one per declared variable in declared
order.  `register_model` fixes each variable's position once, in the
model's `layout`; views, table keys, steps, initial states and trace files
all address values through it.  A view is a tuple of the variables of
one group an update reads, with named fields, of a class built once per
shape.
`register_model` also resolves the `_SLOTS` rows once per model, with
each update's views, key positions and writes (`Model.plan`), so a step
looks nothing up by group, only the names an update returns, and it
decides once which rows get a live context.  A step takes its rows
already bound to the nine update functions of the model's `updates`
(`_rows`).

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
# the C descriptor of a named tuple's fields
from collections import _tuplegetter
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


class Member(Enum):
    """The base of every closed vocabulary a model declares: members are
    singletons, so identity hashing is exact and runs in C."""

    __hash__ = object.__hash__


class Group(Member):
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
class SymbolicDomain:
    """Finite enumeration of labels.  Members may be ints, bools, strings or
    Enum members, the values a trace can hold; a value belongs only if it
    equals a member of the same type, so neither 1 nor True is an IntEnum
    member.  Each member's `label_of` is a token, and no two members share
    one, so a trace reads each back as the member that wrote it."""

    members: tuple[Value, ...]
    # each member -> its type: a value belongs if it maps to its own type
    _types: dict = field(init=False, repr=False, compare=False)

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
        types = {member: type(member) for member in self.members}
        # equal members, such as 1 and True, share one key
        if len(types) != len(self.members):
            raise ModelError("duplicate members")
        # members of one type differ in their labels too
        if len(set(types.values())) > 1:
            seen: dict[str, Value] = {}
            for member in self.members:
                other = seen.setdefault(label_of(member), member)
                if other is not member:
                    raise ModelError(f"members {other!r} and {member!r} are "
                                     f"both written {label_of(member)!r}")
        object.__setattr__(self, "_types", types)

    def contains(self, v: Value) -> bool:
        # a value equal to a member of another type, such as 1 to an
        # IntEnum member, is not that member
        try:
            return self._types.get(v) is type(v)
        except TypeError:   # unhashable, so no member
            return False

    def values(self) -> tuple[Value, ...]:
        return self.members


Domain = IntDomain | SymbolicDomain


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
            raise ModelError(f"variable {self.name!r} needs an IntDomain or "
                             f"a SymbolicDomain, got {self.domain!r}")
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
    Initialisation draws use iteration 0.  The engine makes its entries in
    `_draw`, as `_state` makes a state."""

    iteration: int
    point_id: str
    value: Value


ChoiceLog = tuple[ChoiceEntry, ...]


@dataclass(frozen=True)
class Assertion:
    """A pure safety predicate; False means violated.  Handed a `ModelState`,
    it must depend only on the state's `values`, never its iteration, as
    a settled path ends (`run_path`) and a repeated subtree is counted once
    (`explore`).  `assert_id` is a trace token other
    than `-`, which a trace header writes for no failed assertion."""

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
    Equality and hashing use the values and the iteration only.  The engine
    makes its states with `_state`, which skips `__init__`'s per-field
    `object.__setattr__`: each is in every way one `ModelState(...)` builds.
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


def _state(values: tuple[Value, ...], iteration: int,
           layout: dict[tuple[Group, str], int]) -> ModelState:
    """`ModelState(values, iteration, layout)`, its fields set straight in
    its `__dict__`, in field order, as the frozen `__init__` sets them."""
    state = object.__new__(ModelState)
    fields = state.__dict__
    fields["values"] = values
    fields["iteration"] = iteration
    fields["layout"] = layout
    return state


@functools.lru_cache
def _view_class(group: Group, names: tuple[str, ...],
                group_names: tuple[str, ...] = (),
                reader: Group | None = None) -> type:
    """The read-only view of `names` of a group, in declared order: all
    of its variables, or, handed to the update of `reader`, those it
    declares it reads of the group's `group_names`.

    A tuple of those values whose fields read by name as a named tuple's
    do, through the same C field descriptor, so attribute reads are
    C-level field lookups; `view["name"]` reads by item and `_fields`
    names them.  It is built with one `type` call, without the methods a
    named tuple adds, as a model has a view class for each group each
    update reads.  Any other name, including tuple's own `count` and
    `index`, is a ModelError, which for an undeclared variable names the
    update and the variable, and `_`-names are an AttributeError.  Cached,
    so models of the same shape share one class.
    """
    fields = {name: i for i, name in enumerate(names)}

    def unknown(name):
        if name in group_names:
            return ModelError(f"update for {reader.value} read "
                              f"{group.value}.{name}, which it does not "
                              "declare in its reads")
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

    def __repr__(self):
        return f"{typename}({', '.join(map('{}={!r}'.format, names, self))})"

    typename = group.name.lower()
    namespace = {"__slots__": (), "_fields": names,
                 "__getitem__": __getitem__, "__getattr__": __getattr__,
                 "__repr__": __repr__}
    namespace.update((name, _tuplegetter(i, None))
                     for name, i in fields.items())
    # tuple's own methods would otherwise answer for these names
    for name in {"count", "index"} - fields.keys():
        namespace[name] = property(functools.partial(__getattr__, name=name))
    return type(typename, (tuple,), namespace)


def _reader(positions: Sequence[int]) -> Callable:
    """Picks the items at `positions` out of a valuation as a sequence
    (`itemgetter` of one position would return the bare item)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    first = positions[0] if positions else 0
    return itemgetter(slice(first, first + len(positions)))


def _nothing(values: Sequence[Value]) -> tuple:
    """The key of a row that reads no variable: the same for every
    valuation."""
    return ()


def _key(positions: Sequence[int]) -> Callable:
    """A row's table key out of a valuation: its values at `positions`,
    the bare value for one position, or () for none."""
    return itemgetter(*positions) if positions else _nothing


@dataclass(frozen=True)
class UpdateFunctions:
    """The nine update functions, keyed by the group they produce.

    Input and output/state functions for the environment and behaviour models
    receive a trailing StepContext and may draw choices through it.  The three
    system functions receive no context and therefore cannot draw.

    Each function returns a mapping from variable name to new value for its
    target group.  Variables omitted from the mapping keep their previous
    value (carry-over).  The result, which point the function draws next
    and whether it raises must depend only on the views and on the values
    it has drawn so far in the call, which is what lets a settled path end
    (`run_path`), a repeated subtree be counted once and a repeated input
    be answered from a table, or, for a function that draws, from a trie
    of its draws (`explore`).  A drawing function that, on the same views
    and draws, asks for another point than before, or stops where it drew
    on before, is caught there as a ModelError that names it.
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

# each slot's target -> the groups its update reads
_SLOT_READS = dict(_SLOTS)

# the slots' update functions, in step order, out of an UpdateFunctions
_FUNCTIONS = attrgetter(*(target.name.lower() for target, _ in _SLOTS))


def _draw(cp: ChoicePoint, iteration: int, values: Iterator[Value],
          entries: list[ChoiceEntry]) -> Value:
    """The one place a choice is drawn: take the next of `values`, or the
    point's first value once they run out, check that it is one of the
    point's candidates, and log it in `entries`, as
    `ChoiceEntry(iteration, cp.point_id, value)` made as `_state` makes a
    state."""
    value = next(values, cp.domain[0])
    if not cp.offers(value):
        raise ModelError(
            f"drew {value!r}, outside the domain of '{cp.point_id}'")
    entry = object.__new__(ChoiceEntry)
    fields = entry.__dict__
    fields["iteration"] = iteration
    fields["point_id"] = cp.point_id
    fields["value"] = value
    entries.append(entry)
    return value


class StepContext:
    """Drawing context handed to environment and behaviour update functions.
    Each call of such a function gets its own, which draws only the points
    sited at that function's group, and only while the call runs: once it
    returns or raises, the context draws nothing.

    A call whose group has a step choice point sited at it gets a live
    context, built by `__init__`.  Any other call gets a bare one, made
    with `object.__new__` and given only `_model` and `_site`: no point is
    sited at its group, so `choose` refuses every draw through it, by the
    same checks and with the same messages, before it would need the
    slots a draw reads.

    A live context may be handed `drawn`, the entries its row has already
    drawn and logged in this step, walking its trie in `explore` (`_step`):
    it hands their values back first, one per `choose` of the same point,
    and only then draws through `_draw`, so no value is drawn twice.  A
    `choose` of another point than the entry it would hand back breaks the
    purity rule, and is a ModelError that names the update."""

    __slots__ = ("_model", "_iteration", "_values", "_site", "_entries",
                 "_drawn")

    def __init__(self, model: "Model", iteration: int, values: Iterator[Value],
                 site: Group, entries: list[ChoiceEntry],
                 drawn: list[ChoiceEntry] | tuple):
        self._model = model
        self._iteration = iteration
        self._values = values
        self._site = site
        self._entries = entries
        self._drawn = drawn

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
        if self._drawn:
            entry = self._drawn.pop(0)
            if entry.point_id != point_id:
                raise ModelError(
                    f"update for {self._site.value} drew '{point_id}' where, "
                    f"on the same views and draws, it drew "
                    f"'{entry.point_id}' before: which point an update draws "
                    "next must depend only on its views and the values it "
                    "has drawn")
            return entry.value
        return _draw(cp, self._iteration, self._values, self._entries)


@dataclass(frozen=True)
class Model:
    """A registered model: immutable, validated, ready to step or explore.
    `layout` maps each (Group, name) to its position in declared order.
    `reads` is the declaration `register_model` was given, each update's
    target group -> the (Group, name) pairs it reads.  `plan` holds the
    rows of `_SLOTS`, in step order, each resolved: its context, None for
    a system row, which gets no context, else whether a step choice point
    is sited at its group, so that its calls get a live context; its name
    -> (position, domain check) map; one call that builds, out of a
    valuation, the views its update is handed (`_views_of`); and the
    positions it reads, those of its views in order, which key its
    table."""

    name: str
    variables: tuple[Var, ...]
    updates: UpdateFunctions
    choices: dict[str, ChoicePoint]
    assertions: tuple[Assertion, ...]
    init_choices: tuple[tuple[int, ChoicePoint], ...]  # (position, point)
    layout: dict[tuple[Group, str], int]
    reads: dict[Group, tuple[tuple[Group, str], ...]]
    # (target, live: True for a live context, False for a bare one, None
    # for none, writes, views out of a valuation, read positions)
    plan: tuple[tuple[Group, bool | None,
                      dict[str, tuple[int, Callable[[Value], bool]]],
                      Callable[[Sequence[Value]], tuple],
                      tuple[int, ...]], ...]


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


def _check_reads(layout: dict, reads: Iterable[tuple]) -> None:
    """Raise a ModelError unless each (target, pairs) item of `reads` pairs
    the Group an update writes with the (Group, name) pairs of variables of
    `layout`, each of a group its `_SLOTS` row hands that update."""
    for target, pairs in reads:
        if not isinstance(target, Group):
            raise ModelError(f"reads are keyed by the Group an update "
                             f"writes, not {target!r}")
        what = f"update for {target.value}"
        groups = _SLOT_READS[target]
        try:
            pairs = tuple(pairs)
        except TypeError:
            raise ModelError(f"{what} declares reads {pairs!r}, not a "
                             "sequence of (Group, name) pairs") from None
        for pair in pairs:
            try:
                known = pair in layout
            except TypeError:   # unhashable, so no variable's
                known = False
            if not known:
                _position(layout, pair, f"{what} declares a read of "
                                        "unknown variable")
            if pair[0] not in groups:
                raise ModelError(
                    f"{what} declares a read of {pair[0].value}.{pair[1]}, "
                    "but is handed only "
                    + ", ".join(group.value for group in groups))


@functools.lru_cache
def _read_plan(names: tuple[tuple[Group, str], ...],
               reads: tuple[tuple[Group, tuple[tuple[Group, str], ...]], ...]
               ) -> tuple[tuple[Callable, tuple[int, ...]], ...]:
    """Each `_SLOTS` row's views, as one call that builds them out of a
    valuation (`_views_of`), and the positions they read, in step order,
    for a model whose variables are `names`, (Group, name) pairs in
    declared order, and whose updates declare `reads`, (target, pairs)
    items, which it checks (`_check_reads`).  Cached, so models of one
    shape check and resolve their reads once."""
    _check_reads({name: pos for pos, name in enumerate(names)}, reads)
    positions: dict[Group, dict[str, int]] = {group: {} for group in Group}
    for pos, (group, name) in enumerate(names):
        positions[group][name] = pos
    declared = dict(reads)
    plan = []
    for target, groups in _SLOTS:
        pairs = declared.get(target)
        views, read = [], []
        for group in groups:
            every = positions[group]
            if pairs is None:
                shown = tuple(every)
            else:   # its declared names of the group, in declared order
                shown = tuple(sorted({name for g, name in pairs
                                      if g is group}, key=every.get))
            at = [every[name] for name in shown]
            if len(shown) < len(every):
                cls = _view_class(group, shown, tuple(every), target)
            else:
                cls = _view_class(group, shown)
            views.append((cls, _reader(at)))
            read += at
        plan.append((_views_of(views), tuple(read)))
    return tuple(plan)


def _views_of(views: Sequence[tuple[type, Callable]]) -> Callable:
    """One call that builds a row's views, each (class, reader), out of a
    valuation; a row of `_SLOTS` reads two groups or three."""
    new = tuple.__new__
    (c1, r1), (c2, r2), *third = views
    if not third:
        return lambda values: (new(c1, r1(values)), new(c2, r2(values)))
    (c3, r3), = third
    return lambda values: (new(c1, r1(values)), new(c2, r2(values)),
                           new(c3, r3(values)))


def register_model(variables: Sequence[Var],
                   updates: UpdateFunctions,
                   choices: Sequence[ChoicePoint] = (),
                   assertions: Sequence[Assertion] = (),
                   name: str = "model",
                   reads: Mapping[Group, Iterable[tuple[Group, str]]]
                   | None = None) -> Model:
    """Validate and freeze a model definition.

    Each `Var` carries its own initial value, checked against its domain
    when the `Var` is made.  A choice point sited at a variable's
    (Group, name) overrides that initial value; such initialisation choices
    are drawn in the order they appear in `choices`.

    `reads` maps the Group an update writes to the (Group, name) pairs of
    the variables that update reads, each of a group its `_SLOTS` row
    hands it.  Such an update is handed, for each of its groups, a view of
    only the declared variables of that group, in declared order, and any
    other read of the group is a ModelError that names the update and the
    variable; within `explore` its table is keyed by those variables
    alone.  An update the map leaves out reads every variable of its
    groups.

    Checks: `name` is a trace token (`check_token`), as a trace header
    holds it; at least one variable; names unique within each group; choice
    point ids unique; every site that is not a group names a declared
    variable, at most one point targets each variable, and every candidate
    lies inside that variable's domain; every key of `reads` is a Group,
    and every read it declares a (Group, name) pair naming a variable of a
    group its update is handed.  Finally one trial step is taken
    with the first domain value at every draw, whatever the initial state's
    assertions say, and the assertions are evaluated on the stepped state,
    so that wiring mistakes, undeclared reads and assertions that raise
    surface at registration rather than mid-exploration.  Violations there
    are ignored.
    """
    check_token(name, "model name")
    vars_t = tuple(variables)
    if not vars_t:
        raise ModelError("a model needs at least one variable")
    layout: dict[tuple[Group, str], int] = {}
    # each group's name -> (position, domain check), in declared order
    writes: dict[Group, dict[str, tuple[int, Callable]]] = {
        group: {} for group in Group}
    for pos, v in enumerate(vars_t):
        if (v.group, v.name) in layout:
            raise ModelError(f"duplicate variable {v}")
        layout[(v.group, v.name)] = pos
        writes[v.group][v.name] = (pos, v.domain.contains)
    if reads is not None and not isinstance(reads, Mapping):
        raise ModelError(f"reads must map the Group an update writes to the "
                         f"(Group, name) pairs it reads, not {reads!r}")
    items = () if reads is None else reads.items()
    try:
        # hashable, as the cache needs, unless a read is no (Group, name)
        # pair, which names no variable
        declared = tuple((target, tuple(pairs)) for target, pairs in items)
        resolved = _read_plan(tuple(layout), declared)
    except TypeError:
        _check_reads(layout, items)   # raises, naming the read at fault
        raise

    choice_map: dict[str, ChoicePoint] = {}
    init_ch: dict[int, ChoicePoint] = {}   # position -> point, in order
    for cp in choices:
        if cp.point_id in choice_map:
            raise ModelError(f"duplicate choice point '{cp.point_id}'")
        choice_map[cp.point_id] = cp
        if isinstance(cp.site, Group):
            continue
        pos = _position(layout, cp.site, f"choice point '{cp.point_id}' "
                                         "targets unknown variable")
        if pos in init_ch:
            raise ModelError(f"two initialisation choices target {vars_t[pos]}")
        for value in cp.domain:
            if not vars_t[pos].domain.contains(value):
                raise ModelError(
                    f"initialisation choice '{cp.point_id}' offers {value!r}, "
                    f"outside the domain of {vars_t[pos]}")
        init_ch[pos] = cp

    assert_t = tuple(assertions)
    ids = [a.assert_id for a in assert_t]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate assertion id")

    # the groups a step point is sited at: only their calls get a live
    # context
    sited = {cp.site for cp in choice_map.values()
             if isinstance(cp.site, Group)}
    plan = tuple((target,
                  None if target in SYSTEM_GROUPS else target in sited,
                  writes[target], views, positions)
                 for (target, _), (views, positions) in zip(_SLOTS, resolved))

    model = Model(name=name, variables=vars_t, updates=updates,
                  choices=choice_map, assertions=assert_t, layout=layout,
                  init_choices=tuple(init_ch.items()), reads=dict(declared),
                  plan=plan)

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
    return _state(tuple(initial), 0, model.layout), tuple(entries)


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


# how many inputs a row's table holds before it is cleared
_TABLE_SIZE = 128


def _rows(model: Model, tabled: bool = False) -> tuple[tuple, ...]:
    """The model's plan rows, each bound to its update function, then to
    its key, table and the dict that interns its writes.  If `tabled`, a
    row gets a `_key` of its read positions and two new dicts, or, where
    its calls get a live context, a `_key` and a new `_Trie` in place of
    `live`, and no table; else three Nones, so every call of the row's
    update is made."""
    rows = []
    for (target, live, names, views, positions), fn in zip(
            model.plan, _FUNCTIONS(model.updates)):
        if not tabled:
            rows.append((target, live, names, views, fn, None, None, None))
        elif live:
            rows.append((target, _Trie(), names, views, fn, _key(positions),
                         None, None))
        else:
            rows.append((target, live, names, views, fn, _key(positions),
                         {}, {}))
    return tuple(rows)


class _Fork:
    """A node of a drawing row's trie where its update drew `point` next:
    `children` maps each value drawn there to the node after it, another
    fork or the row's interned writes."""

    __slots__ = ("point", "children")

    def __init__(self, point: ChoicePoint, children: dict):
        self.point = point
        self.children = children


class _Trie:
    """The table of a row whose calls get a live context, for one
    `explore` call (`_step`): `roots` maps the row's key to the root of a
    trie of its draws, a `_Fork` or, where the call drew nothing, its
    writes, and `interned` interns its writes as a table's dict does.
    Cleared once `roots` holds `_TABLE_SIZE` keys, `interned` with it
    (`_graft`)."""

    __slots__ = ("roots", "interned")

    def __init__(self):
        self.roots: dict = {}
        self.interned: dict = {}


def _graft(model: Model, target: Group, trie: _Trie, read,
           drawn: list[ChoiceEntry], unasked: Sequence[ChoiceEntry],
           stored: tuple) -> None:
    """Add to `trie` the path of a call on the key `read` that drew the
    entries `drawn`, the values its row's walk down the trie drew first,
    and wrote `stored`: down the forks it shares with the trie, whose
    points the call's context has checked, then new forks to its interned
    writes.  A call whose context still holds `unasked` entries of the
    walk's returned before drawing a value the trie holds a fork for: it
    broke the purity rule, and is a ModelError that names the update."""
    if unasked:
        asked = ", ".join(f"'{entry.point_id}'"
                          for entry in drawn[:len(drawn) - len(unasked)])
        raise ModelError(
            f"update for {target.value} returned after drawing "
            f"{asked or 'nothing'} where, on the same views and draws, it "
            f"drew '{unasked[0].point_id}' next before: which point an "
            "update draws next must depend only on its views and the "
            "values it has drawn")
    if len(trie.roots) >= _TABLE_SIZE and read not in trie.roots:
        trie.roots.clear()
        trie.interned.clear()
    parent, slot = trie.roots, read
    for depth, entry in enumerate(drawn):
        node = parent.get(slot)
        if node is None:
            break
        parent, slot = node.children, entry.value
    else:
        depth = len(drawn)
    node = trie.interned.setdefault(stored, stored)
    for entry in reversed(drawn[depth:]):
        node = _Fork(model.choices[entry.point_id], {entry.value: node})
    parent[slot] = node


def step(model: Model, state: ModelState, values: Iterable[Value] = ()
         ) -> tuple[ModelState, ChoiceLog]:
    """Advance the loop by one iteration: a transition only, which evaluates
    no assertions.

    Pure: given the same state and values the result is identical.  Each
    draw takes the next of `values`, and the point's first value once they
    run out; an iterator is consumed by exactly the draws made.  Returns
    the new state and the draws made, as `resolve_initial` does.

    It takes the step by `_step`, on rows with no tables, so every update
    is called.  Each drawing update gets a context that draws only while
    its call runs: once the call returns or raises, the context draws
    nothing.
    """
    return _step(model, state.values, state.iteration + 1, iter(values),
                 _rows(model))


def _step(model: Model, start: tuple[Value, ...], iteration: int,
          values: Iterator[Value], rows: Sequence[tuple]
          ) -> tuple[ModelState, ChoiceLog]:
    """The step to `iteration` from the valuation `start`, through `rows`:
    every plan row from a state's values, or, for a sibling `explore`
    steps, the rows from the model's first live row on from its node's
    prefix, the valuation the rows before them made.

    The new valuation starts as a copy of `start`, so variables an update
    omits carry over; each update's writes go into its group in place.
    An update is handed views built from that valuation just before its
    call, each of the variables of one of its groups that it reads, so a
    group written earlier in the step shows its new values.  No view is
    kept after the call.  A write of the very object its position already
    holds changes nothing and is not checked again: every value in the
    valuation has passed its domain check or, carried over, is as the
    state held it.  It must be the same object, not an equal one, since
    neither 1 nor True is the other's domain's member.

    `rows` holds each plan row bound to its update function (`_rows`),
    its key, table and intern dict, all three None on a row with no
    table.  A key picks the values of the variables the row reads out of
    the valuation being written, and the table maps it to the writes the
    row's update returned on them: one tuple of every (position, value),
    checked, those that changed nothing included, since a position may
    hold another value where the entry is used again.  A row found in its
    table takes those writes with no call and no view built; otherwise its
    update is called and checked and its writes stored.  Stored writes go
    through the intern dict, so equal ones share one tuple: by the
    equality rule, an equal (position, value) pair writes the same value.
    Once the table holds `_TABLE_SIZE` inputs it is cleared, and the
    intern dict with it, so neither ever holds more.

    A row whose calls get a live context has, in `explore`, a `_Trie` in
    place of `live` and no table: its key maps to a trie of what the
    row's update drew on that input, each `_Fork` the point it drew next
    and, for each value drawn, the node after, down to its writes.  By the
    purity rule, which point a call draws next and what it writes depend
    only on its views and the values it has drawn, so the walk down the
    trie draws each fork's point through `_draw`, checked and logged as
    the call's context would draw it, and takes the child of the value
    drawn; at the writes the row takes them, with no call, no view and no
    context.  A key or a drawn value the trie holds no child for is a
    miss: the update is called, and its context first hands back the
    values the walk drew, so every value is drawn once, then draws
    through `_draw`, and the call's path is grafted onto the trie
    (`_graft`).  A call that draws another point than the trie holds, or
    returns before drawing one it holds, broke the purity rule: a
    ModelError that names the update.

    Each call of a drawing update gets a context of its own, closed in a
    `finally`: once the call returns or raises, the context draws nothing.
    It is live only on a row the model sites a step point at; on any other
    it is bare, its `_model` and `_site` alone set.
    """
    bare = object.__new__
    current = list(start)
    entries: list[ChoiceEntry] = []

    for target, live, names, views, fn, key, table, interned in rows:
        if table is not None:
            read = key(current)
            writes = table.get(read)
            if writes is not None:
                for pos, value in writes:
                    current[pos] = value
                continue
        elif key is not None:
            # a live row's trie: down it, drawing each value it forks on,
            # to the writes or to a value it holds no child for
            read = key(current)
            writes = live.roots.get(read)
            walked = len(entries)
            while type(writes) is _Fork:
                writes = writes.children.get(
                    _draw(writes.point, iteration, values, entries))
            if writes is not None:
                for pos, value in writes:
                    current[pos] = value
                continue
        args = views(current)
        try:
            if live is None:
                returned = fn(*args)
            else:
                if live:
                    ctx = StepContext(model, iteration, values, target,
                                      entries, () if key is None
                                      else entries[walked:])
                else:
                    ctx = bare(StepContext)
                    ctx._model = model
                    ctx._site = target
                try:
                    returned = fn(*args, ctx)
                finally:
                    ctx._site = None   # closed however the call ended
        except ModelError:
            raise
        except Exception as exc:
            raise ModelError(f"update for {target.value} raised {exc!r} "
                             f"at iteration {iteration}") from exc
        stored = []
        try:
            for var_name, value in returned.items():
                try:
                    pos, contains = names[var_name]
                except (KeyError, TypeError):   # TypeError: unhashable
                    raise ModelError(
                        f"update for {target.value} assigned unknown "
                        f"variable '{var_name}'") from None
                if key is not None:
                    stored.append((pos, value))
                if value is current[pos]:
                    continue
                if not contains(value):
                    raise ModelError(
                        f"update produced {value!r} for "
                        f"{model.variables[pos]}, outside its domain, at "
                        f"iteration {iteration}")
                current[pos] = value
        except ModelError:
            raise
        except Exception as exc:
            if not hasattr(returned, "items"):
                raise ModelError(f"update for {target.value} returned "
                                 f"{returned!r} (return a mapping, "
                                 "possibly empty)") from None
            # items that raise or are not pairs
            raise ModelError(f"update for {target.value} returned a "
                             f"mapping whose items raised {exc!r} at "
                             f"iteration {iteration}") from exc
        if table is not None:
            if len(table) >= _TABLE_SIZE:
                table.clear()
                interned.clear()
            stored = tuple(stored)
            table[read] = interned.setdefault(stored, stored)
        elif key is not None:
            _graft(model, target, live, read, entries[walked:], ctx._drawn,
                   tuple(stored))

    return _state(tuple(current), iteration, model.layout), tuple(entries)


def run_path(model: Model, bound: int, values: Iterable[Value] = ()
             ) -> tuple[Trace, ChoiceLog, tuple[str, ...]]:
    """Run one path from the initial state until the first iteration whose
    assertions fail or the bound, evaluating the assertions once on each
    state.  Its draws take `values` in order, across initialisation and
    the steps, then first values.  Returns the states, the draws and the
    violated assertion ids (empty if none).

    It resolves the initial state, its draws checked by `_draw` like every
    step draw, and takes each step by `_step`, which builds the views an
    update reads for its call alone.  It shares no search state with
    `explore`, its memo, its tables, its tries or its prefixes, and calls
    every update on every step, so a log `explore` builds replays here
    independently of how `explore` walked the choice tree.

    A step that drew nothing and returned its input's values has settled
    the path: every later step would return the same values again, on
    which the assertions, reading only values, already held.  So the path
    ends there, its valuation repeated to the bound, sharing its tuple.
    """
    values = iter(values)
    state, entries = resolve_initial(model, values)
    rows = _rows(model)
    snapshots = [state]
    log = list(entries)
    violated = _eval_assertions(model, state)
    while not violated and state.iteration < bound:
        stepped, drawn = _step(model, state.values, state.iteration + 1,
                               values, rows)
        if not drawn and stepped.values == state.values:
            snapshots.extend(_state(state.values, i, model.layout)
                             for i in range(state.iteration + 1, bound + 1))
            break
        state = stepped
        snapshots.append(state)
        log.extend(drawn)
        violated = _eval_assertions(model, state)
    return tuple(snapshots), tuple(log), violated


def _next_draws(model: Model, drawn: ChoiceLog) -> list[Value] | None:
    """The values that draw the next sibling of the node whose draws
    `drawn` made, the draws of a step or of an initial state: its deepest
    draw whose point has a later value takes it, after the same draws
    before it, or None if there is none.  `ChoicePoint` rejects members
    that compare equal, so a value's place in its domain is unambiguous."""
    for i in range(len(drawn) - 1, -1, -1):
        domain = model.choices[drawn[i].point_id].domain
        later = domain.index(drawn[i].value) + 1
        if later < len(domain):
            return [entry.value for entry in drawn[:i]] + [domain[later]]
    return None


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

    The initial states and the successors of each step follow one sibling
    rule, `_next_draws`, and every value is drawn through `_draw`.  The
    next initial state advances the last initialisation point, in
    `choices` order, that has a later candidate: that point and the ones
    after it are drawn again, and the points before it keep their entries,
    so each node of the initialisation tree is drawn once.

    Under each initial state, the walk is depth first over the successors
    of one step, each node stepped at most once and each state it reaches
    checked at most once.  A step that drew nothing has one successor,
    taken inline, as `run_path` takes it.  A step that drew pushes a frame
    on an explicit stack: the node's state, the draws its step made, the
    paths counted before the node was reached and, once a sibling needs it,
    the node's prefix.  No view is kept: a sibling is stepped from the
    prefix alone.  So a path's draws are its initial state's, then those of
    each frame; they are joined only for a verdict's log.  Once a path
    ends, the walk backs up to the deepest frame whose step has a next
    sibling, cuts the path's states back to that node, and steps the
    sibling from there; a frame with no next sibling has a fully explored
    subtree.  Once no frame has one, the walk moves to the next initial
    state.

    On a model that sites a step choice point at a group, one memo per
    call maps a node's iteration, which, the bound fixed, is its remaining
    depth, and its values to the paths under it, stored as the frame of a
    node whose step drew finishes.  Updates and assertions are pure, so a
    node reached again with the same values at the same depth roots the
    same subtree, in which no path fails: looked up as a step reaches it,
    before its assertions, such a node adds the stored count and steps no
    further.  A frame's node is below the bound, so no entry is stored at
    the bound and a state there is not looked up.  Only safe subtrees
    finish, so the verdict, the first witness and its log, the first path
    (the Safe representative, reached before any frame finishes) and
    `paths_explored` are those of the stateless search.  The ceiling is
    tested before each path, and a stored count that would carry past it
    ends the search where that search would: after `path_ceiling` paths.

    Each plan row keeps a table for the call (`_step`): its key, the
    values of the variables the row declares it reads, in the valuation
    being written, maps, on a row whose call gets no live context, a
    system row or one handed a bare context, to every write its update
    returned, checked as a call's are.  The key's positions are fixed per
    row, and by the equality rule equal keys are the same values, on
    which, by the purity rule, such a row, drawing nothing and reading
    nothing else, writes the same.  A repeated input takes the stored
    writes with no call, no view and no context.  On a row whose call gets
    a live context, the key maps to a trie of what the update drew
    (`_Trie`): by the purity rule the point it drew first is the one it
    draws first on that input, the point it drew next after each value
    the one it draws next, and its writes at the end of the same draws
    the same.  So the walk down the trie draws each value through
    `_draw`, in the order the call would, checked and logged alike, and a
    path the trie holds to its end takes the writes there with no call; a
    miss, at the key or part way down, calls the update, whose context
    hands back the values drawn so far before it draws any more.  By the
    equality rule a drawn value, a member of its point's domain, finds
    its own child.  Equal writes of a row share one tuple, interned
    through a dict of the row's: by the same rule, equal (position, value)
    pairs are interchangeable.  A table or trie is cleared once it holds
    `_TABLE_SIZE` keys, its intern dict with it, so a row holds at most
    that many keys and write tuples.  The rows are bound to their update
    functions, keys, tables or tries and intern dicts once per call
    (`_rows`), made per call like the memo, so one search never warms the
    next.

    Every child of a node runs the rows before the model's first live row
    on the node's state alone, drawing nothing, so they make the same
    valuation for each, the node's prefix.  The first time the walk backs
    up to a node, it takes the prefix from the child stepped last: that
    child's values where those rows write, the node's elsewhere.  The
    node's frame keeps it, and each sibling is stepped from it with the
    rows from the first live row on.  A model with no live row never draws
    in a step, so it pushes no frame and makes no prefix.

    A settled path's repeated tail is built only for the first path, the
    Safe representative: a settled path never violates, and any later
    one's tail would be cut off again as the walk backs up.
    """
    # exactly int, as a trace header writes the bound
    if type(bound) is not int or bound < 1:
        raise ModelError(f"bound must be an int of at least 1, got {bound!r}")
    if type(path_ceiling) is not int or path_ceiling < 1:
        raise ModelError("path ceiling must be an int of at least 1, got "
                         f"{path_ceiling!r}")

    initial = [v.init for v in model.variables]
    drawn: list[ChoiceEntry] = []   # the initial state's draws
    kept = 0   # those of them the next initial state shares
    values: Iterator[Value] = iter(())
    # each row bound to its update, its key, its table, key -> writes or,
    # on a row with a live context, a trie of draws, and its interned
    # writes
    rows = _rows(model, tabled=True)
    # the first row whose calls get a live context, if any
    first = next((i for i, (_, live, *_) in enumerate(model.plan) if live),
                 None)
    # (iteration, values) of a node -> paths under it, where a step can
    # draw; a state is looked up only below `reach`, the bound then
    memo: dict[tuple[int, tuple[Value, ...]], int] = {}
    reach = 0 if first is None else bound
    if first is not None:
        # the rows from it on, which a sibling step runs, and the
        # positions they write, which its prefix takes from the node's
        # state
        tail = rows[first:]
        held = [pos for _, _, names, *_ in tail for pos, _ in names.values()]
    first_path: tuple[Trace, ChoiceLog] | None = None
    paths = 0
    # the answer once the search would run more paths than the ceiling
    exceeded = Verdict(VerdictKind.ModelError, bound,
                       paths_explored=path_ceiling,
                       message=f"choice explosion: path ceiling {path_ceiling} "
                               "exceeded")
    while True:
        del drawn[kept:]
        for pos, cp in model.init_choices[kept:]:
            initial[pos] = _draw(cp, 0, values, drawn)
        state = _state(tuple(initial), 0, model.layout)
        trace = [state]
        # (node, draws, paths before it, prefix, or None until a sibling
        # needs it)
        stack: list[tuple] = []
        before = paths   # counted before the node about to step was reached
        violated = None   # the initial state is yet to be checked
        resumed = None   # the prefix a sibling about to step starts from
        while True:
            if paths >= path_ceiling:
                return exceeded
            cached = None
            try:
                if violated is None:
                    violated = _eval_assertions(model, state)
                while not violated and state.iteration < bound:
                    if resumed is None:
                        stepped, step_drawn = _step(
                            model, state.values, state.iteration + 1,
                            values, rows)
                    else:   # a sibling, from its node's prefix
                        stepped, step_drawn = _step(
                            model, resumed, state.iteration + 1, values,
                            tail)
                    if step_drawn:
                        stack.append((state, step_drawn, before, resumed))
                        resumed = None
                        before = paths   # no path ends on the way down
                    elif stepped.values == state.values:
                        if first_path is None:   # only it keeps its tail
                            trace.extend(
                                _state(state.values, i, model.layout)
                                for i in range(state.iteration + 1,
                                               bound + 1))
                        break
                    state = stepped
                    trace.append(state)
                    if state.iteration < reach:
                        cached = memo.get((state.iteration, state.values))
                        if cached is not None:
                            break
                    violated = _eval_assertions(model, state)
            except ModelError as exc:
                return Verdict(VerdictKind.ModelError, bound,
                               paths_explored=paths + 1, message=str(exc))
            if violated or first_path is None:
                path = (tuple(trace), (*drawn, *(entry for frame in stack
                                                 for entry in frame[1])))
                if violated:
                    return Verdict(VerdictKind.Unsafe, bound,
                                   paths_explored=paths + 1, trace=path[0],
                                   choice_log=path[1],
                                   failed_assertion=violated[0])
                first_path = path
            paths += 1 if cached is None else cached
            if paths > path_ceiling:
                return exceeded

            # back up to the deepest frame whose step has a next sibling,
            # storing the count of each finished one on the way
            for depth in range(len(stack) - 1, -1, -1):
                state, step_drawn, before, resumed = stack[depth]
                later = _next_draws(model, step_drawn)
                if later is not None:
                    break
                memo[state.iteration, state.values] = paths - before
            else:
                break
            if resumed is None:
                # the node's first sibling: its prefix is the state of the
                # child before it with the node's values where the rows
                # from the first live row on write
                resumed = list(trace[state.iteration + 1].values)
                for pos in held:
                    resumed[pos] = state.values[pos]
                resumed = tuple(resumed)
            del stack[depth:], trace[state.iteration + 1:]
            values = iter(later)

        later = _next_draws(model, drawn)
        if later is None:
            return Verdict(VerdictKind.Safe, bound, paths_explored=paths,
                           trace=first_path[0], choice_log=first_path[1])
        kept = len(later) - 1
        values = iter(later[kept:])


def probed_model(model: Model, var: tuple[Group, str]) -> Model:
    """Return a copy of the model with one variable's initialisation promoted
    to a choice over its full domain.

    `var` is the variable's (Group, name) pair and the probe's site.  The
    probe is drawn first and appears in choice logs at iteration 0 under the
    id ``probe:<name>``.  The probed model is registered afresh with the
    probe first in `choices`, so `register_model` rejects a variable with an
    initialisation choice of its own, which would overwrite the probed
    value, and a model that already declares a point of the probe's id.
    It keeps the model's declared `reads`, so its updates are handed the
    same views and its tables keyed on the same values.  The original
    model is not modified.  Counterexamples found on the probed
    model replay against the probed model, not the original, since only the
    former declares the probe choice point.
    """
    target = model.variables[_position(model.layout, var)]
    cp = ChoicePoint(f"probe:{target.name}", target.domain.values(), site=var)
    return register_model(model.variables, model.updates,
                          (cp, *model.choices.values()), model.assertions,
                          model.name, model.reads)


def replay_counterexample(model: Model, verdict: Verdict) -> Trace:
    """Re-run an Unsafe verdict's choice log through `run_path`, which
    draws every value of it through `_draw` and runs the path loop
    `explore` runs, and check that the run drew the log's entries and
    reproduces the trace exactly, including the final violation.

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
