"""Mutants of the engine's step, path loop and search that the oracle must
kill.

Each mutant edits the source of a named engine function, `_step`, `_rows`,
`_graft`, `_key`, `_read_plan`, `run_path`, `_next_draws` or `explore`, or
of the class of a named method, `SymbolicDomain.contains`, at one snippet,
or at each of a tuple of snippets, compiles the result, its decorator
included, in a copy of the engine's namespace, and puts it in place of
that function or method for one test: `step`, `run_path` and `explore`
call `_step` and `_rows` through the engine's namespace, `_rows` calls
`_key`, `_step` calls `_graft` and `register_model` calls `_read_plan`
through it, `explore` calls `_next_draws`, the sibling rule of its initial
states and of its steps alike, through it, every domain check looks
`contains` up on its domain's class, and the oracle and the sweep call
`run_path` and `explore` through the engine's module.  An uncached sweep
of the named oracle family must fail under it, at its first failing model,
with an AssertionError of the oracle's, or with the ModelError a generated
model's registration raises where its trial step already fails; or, for a
mutant named with a check in place of a family, that check must fail.  The
sweep explores at a path ceiling of the oracle's path count, and one below
it, so a search mutant that would walk for ever meets it.  Each snippet
must occur exactly once in its function, so a rewrite that drops or
repeats one fails here, loudly, until its mutant is written again.  Each
unedited copy, compiled the same way, is the engine's own function,
instruction for instruction, with the defaults the engine's has.
Five mutants break the tables `explore` binds its rows to: what a row
stores, a drawing row tabled by its key with no trie of its draws, the
key's last declared position, a table's scope, one `explore` call, and
what its writes are interned by.  Two break the drawing rows' tries: a
leaf keyed by the last value drawn alone, which only a call that draws
twice shows, and a miss whose call draws the values the walk drew again;
one breaks a sibling's prefix, taken after the first drawing row has
run.  Two break the views an update is handed: built from the step's
start values, and a whole group where the update declares a part of it.
And one is the domain check that took a value equal to a member of
another type, such as 1 for an IntEnum member, for that member.  Four
break the memo, keyed by a state's iteration and values: one memo shared
across iterations, keyed by the values alone; a state looked up one
depth off; an entry stored before its node's last child finished; and a
stored count added past the path ceiling.
"""

import __future__
import inspect

import pytest

from hilcheck import engine
from hilcheck.engine import Group, IntDomain, ModelError, Var

from _helpers import updates
from _sweep import sweep


def undeclared_read_refused() -> None:
    """The check that an update's read of a variable its declaration
    leaves out fails registration's trial step, naming the variable."""
    def env_state(ei, e, ctx):
        return {"a": e.b}

    try:
        engine.register_model(
            variables=[Var("a", Group.ENV_STATE, IntDomain(0, 1), 0),
                       Var("b", Group.ENV_STATE, IntDomain(0, 1), 0)],
            updates=updates(env_state=env_state),
            reads={Group.ENV_STATE: [(Group.ENV_STATE, "a")]})
    except ModelError as exc:
        assert "env_state.b" in str(exc), exc
    else:
        raise AssertionError("an undeclared read went through")


# `explore`'s path ceiling, tested before each path
CEILING_TEST = """\
            if paths >= path_ceiling:
                return exceeded
"""

# `explore`'s back-up scan: a frame with a next sibling stops it, and each
# finished one on the way stores its count
SCAN = """\
                if later is not None:
                    break
                memo[state.iteration, state.values] = paths - before
"""

# (name, function, snippet, its replacement, the family whose sweep must
# fail or the check that must, how); a mutant of several edits gives a
# tuple of snippets and one of their replacements
MUTANTS = [
    ("== for is", "_step",
     "if value is current[pos]:",
     "if value == current[pos]:",
     "write-path", AssertionError),
    ("one context shared per step", "_step",
     "ctx = StepContext(model, iteration, values, target,\n"
     "                                      entries, () if key is None\n"
     "                                      else entries[walked:])\n",
     "ctx = shared = (locals().get('shared')\n"
     "                                      or StepContext(model, "
     "iteration, values, target, entries, ()))\n"
     "                    ctx._site = target\n",
     "write-path", AssertionError),
    ("live and bare contexts swapped", "_step",
     "if live:",
     "if not live:",
     "random", ModelError),
    ("bare context born closed", "_step",
     "ctx._site = target\n",
     "ctx._site = None\n",
     "write-path", AssertionError),
    ("bare context never closed", "_step",
     "ctx._site = None   # closed however the call ended",
     "ctx._site = None if live else ctx._site",
     "write-path", AssertionError),
    ("context never closed", "_step",
     "ctx._site = None   # closed however the call ended",
     "pass",
     "raising", AssertionError),
    ("context closed only on return", "_step",
     "                try:\n"
     "                    returned = fn(*args, ctx)\n"
     "                finally:\n"
     "                    ctx._site = None   # closed however the call "
     "ended\n",
     "                returned = fn(*args, ctx)\n"
     "                ctx._site = None\n",
     "raising", AssertionError),
    ("stored writes skip values identical to the state's", "_step",
     "                if key is not None:\n",
     "                if key is not None and value is not current[pos]:\n",
     "random", AssertionError),
    ("row with a live context tabled by its key alone", "_rows",
     "_Trie(), names, views, fn, _key(positions),\n"
     "                         None, None",
     "live, names, views, fn, _key(positions),\n"
     "                         {}, {}",
     "random", AssertionError),
    ("trie leaf keyed by the last drawn value alone", "_graft",
     "    for entry in reversed(drawn[depth:]):\n"
     "        node = _Fork(model.choices[entry.point_id], "
     "{entry.value: node})\n",
     "    if drawn[depth:]:\n"
     "        node = _Fork(model.choices[drawn[depth].point_id],\n"
     "                     {drawn[-1].value: node})\n",
     "variable-schedule", AssertionError),
    ("trie miss whose call draws again from the iterator", "_step",
     "() if key is None\n"
     "                                      else entries[walked:]",
     "()",
     "random", AssertionError),
    ("one table shared across explore calls", "_rows",
     "{}, {}))",
     "*globals().setdefault(('_SHARED', target), ({}, {}))))",
     "random", AssertionError),
    ("key without the row's last declared position", "_key",
     "itemgetter(*positions) if positions",
     "itemgetter(*positions[:-1]) if positions[:-1]",
     "declared-reads", AssertionError),
    ("views read from the step's start values", "_step",
     "args = views(current)",
     "args = views(start)",
     "declared-reads", AssertionError),
    ("whole-group view handed in place of the declared part", "_read_plan",
     "if pairs is None:",
     "if True:",
     undeclared_read_refused, AssertionError),
    ("a value equal to a member of another type of the domain is one",
     "SymbolicDomain.contains",
     "return self._types.get(v) is type(v)",
     "return type(v) in self._types.values() and v in self.members",
     "mixed-types", AssertionError),
    ("writes interned by their values alone", "_step",
     "interned.setdefault(stored, stored)",
     "interned.setdefault(tuple(v for _, v in stored), stored)",
     "conditional-writes", AssertionError),
    ("path settled though the step drew", "run_path",
     "if not drawn and stepped.values == state.values:",
     "if stepped.values == state.values:",
     "settling", AssertionError),
    ("settled tail one state short", "run_path",
     "range(state.iteration + 1, bound + 1)",
     "range(state.iteration + 1, bound)",
     "settling", AssertionError),
    ("settle test against the stepped state itself", "run_path",
     "stepped.values == state.values",
     "stepped.values == stepped.values",
     "random", AssertionError),
    ("settle test against the initial state", "run_path",
     "stepped.values == state.values",
     "stepped.values == snapshots[0].values",
     "cycling", AssertionError),
    ("advanced initialisation point's old entry kept", "explore",
     "del drawn[kept:]",
     "del drawn[kept + 1:]",
     "random", AssertionError),
    ("advanced initialisation point kept, not drawn again", "explore",
     "kept = len(later) - 1",
     "kept = len(later)",
     "random", AssertionError),
    ("path's log without the initial state's draws", "explore",
     "(*drawn, ",
     "(*drawn[:0], ",
     "random", AssertionError),
    ("ceiling tested after a path instead of before", "explore",
     (CEILING_TEST, "if paths > path_ceiling:"),
     ("", "if paths >= path_ceiling:"),
     "random", AssertionError),
    ("walk settles a path though its step drew", "explore",
     "                    if step_drawn:\n                        stack",
     "                    if step_drawn and stepped.values != state.values:\n"
     "                        stack",
     "settling", AssertionError),
    ("sibling's prefix taken after the first drawing row has run",
     "explore",
     "for _, _, names, *_ in tail for",
     "for _, _, names, *_ in tail[1:] for",
     "random", AssertionError),
    ("walk's settled tail one state short", "explore",
     "bound + 1))",
     "bound))",
     "settling", AssertionError),
    ("sibling advances the step's first draw with a later value",
     "_next_draws",
     "range(len(drawn) - 1, -1, -1)",
     "range(len(drawn))",
     "random", AssertionError),
    ("sibling drops the step's draws before the advanced one", "_next_draws",
     "[entry.value for entry in drawn[:i]] + ",
     "",
     "random", AssertionError),
    ("one state too many kept from the path before", "explore",
     "trace[state.iteration + 1:]",
     "trace[state.iteration + 2:]",
     "random", AssertionError),
    ("frame of a stepped sibling never popped", "explore",
     "del stack[depth:],",
     "del stack[depth + 1:],",
     "repeating", AssertionError),
    ("memo keyed by values without the remaining depth", "explore",
     ("memo.get((state.iteration, state.values))",
      "memo[state.iteration, state.values] ="),
     ("memo.get(state.values)", "memo[state.values] ="),
     "repeating", AssertionError),
    ("memo looked up one depth off", "explore",
     "memo.get((state.iteration, state.values))",
     "memo.get((state.iteration - 1, state.values))",
     "repeating", AssertionError),
    ("memo hit added past the ceiling", "explore",
     "            if paths > path_ceiling:\n"
     "                return exceeded\n",
     "",
     "repeating", AssertionError),
    ("memo entry stored before the node's last child finished", "explore",
     SCAN,
     """\
                if later is not None:
                    memo[state.iteration, state.values] = paths - before
                    break
""",
     "repeating", AssertionError),
]

# the functions the mutants edit
FUNCTIONS = tuple(dict.fromkeys(mutant[1] for mutant in MUTANTS))


def owner(name: str) -> tuple[object, str]:
    """Where function `name` is found, the engine or, for a method
    `Class.method`, its class, and its name there."""
    cls, _, attr = name.rpartition(".")
    return (getattr(engine, cls) if cls else engine), attr


def source(name: str) -> str:
    """The source of function `name`, or of the class of a method, after
    as many blank lines as the engine's lines above it, so a copy's code
    starts at the engine's own line."""
    lines, first = inspect.getsourcelines(getattr(engine,
                                                  name.split(".")[0]))
    return "\n" * (first - 1) + "".join(lines)


def compiled(name: str, text: str):
    """Function `name` compiled from `text` as the engine is, postponed
    annotations and all, in a copy of the engine's namespace; a method
    with its class."""
    namespace = dict(vars(engine))
    exec(compile(text, engine.__file__, "exec",
                 flags=__future__.annotations.compiler_flag,
                 dont_inherit=True), namespace)
    top, *method = name.split(".")
    return vars(namespace[top])[method[0]] if method else namespace[top]


@pytest.mark.parametrize("function, snippet, replacement, killer, failure",
                         [mutant[1:] for mutant in MUTANTS],
                         ids=[mutant[0] for mutant in MUTANTS])
def test_the_oracle_kills_the_mutant(function, snippet, replacement, killer,
                                     failure, monkeypatch):
    text = source(function)
    if isinstance(snippet, str):
        snippet, replacement = (snippet,), (replacement,)
    for old, new in zip(snippet, replacement, strict=True):
        assert text.count(old) == 1
        text = text.replace(old, new)
    monkeypatch.setattr(*owner(function), compiled(function, text))
    with pytest.raises(failure):
        killer() if callable(killer) else sweep(killer)


@pytest.mark.parametrize("function", FUNCTIONS)
def test_each_unedited_copy_compiles_to_the_engine_s_own(function):
    # a cached function's own, under its cache
    copy = inspect.unwrap(compiled(function, source(function)))
    where, name = owner(function)
    own = inspect.unwrap(vars(where)[name])
    # code objects compare by instructions, constants (nested code among
    # them), names, flags and line table
    assert copy.__code__ == own.__code__
    # defaults are evaluated apart from the code, such as `_rows`'s
    # `tabled`
    assert copy.__defaults__ == own.__defaults__
    assert copy.__kwdefaults__ == own.__kwdefaults__
