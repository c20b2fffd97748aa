"""Mutants of the engine's step, path loop and search that the oracle must
kill.

Each mutant edits the source of a named engine function, `_step`,
`_rows`, `run_path`, `_next_draws` or `explore`, at one snippet, or at
each of a tuple of snippets, compiles the result in a copy of the engine's
namespace, and puts it in place of that function for one test: `step`,
`run_path` and `explore` call `_step` and `_rows` through the engine's
namespace, `explore` calls `_next_draws`, the sibling rule of its initial
states and of its steps alike, through it, and the oracle and the sweep
call `run_path` and `explore` through the engine's module.  An uncached
sweep of the named oracle family must fail under it, at its first failing
model, with an AssertionError of the oracle's, or with the ModelError a
generated model's registration raises where its trial step already fails.
The sweep explores at a path ceiling of the oracle's path count, and one
below it, so a search mutant that would walk for ever meets it.  Each
snippet must occur exactly once in its function, so a rewrite that drops
or repeats one fails here, loudly, until its mutant is written again.
Each unedited copy, compiled the same way, is the engine's own function,
instruction for instruction, with the defaults the engine's has.
Six mutants break the tables `explore` binds its rows to: what a row
stores, which rows get a table, the key, the rebuild after a hit, a
table's scope, one `explore` call, and what its writes are interned by.
"""

import __future__
import inspect

import pytest

from hilcheck import engine
from hilcheck.engine import ModelError

from _sweep import sweep

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
                memo[state] = paths - before
"""

# (name, function, snippet, its replacement, the family whose sweep must
# fail, how); a mutant of several edits gives a tuple of snippets and one
# of their replacements
MUTANTS = [
    ("== for is", "_step",
     "if value is current[pos]:",
     "if value == current[pos]:",
     "write-path", AssertionError),
    ("no rebuild after a changed write", "_step",
     "        if changed:\n",
     "        if False:\n",
     "random", AssertionError),
    ("rebuild at the wrong group", "_step",
     "group_views[index]\n            views[index] =",
     "group_views[index - 1]\n            views[index - 1] =",
     "random", AssertionError),
    ("changed flag taken from the last write only", "_step",
     "                for var_name, value in returned.items():\n",
     "                for var_name, value in returned.items():\n"
     "                    changed = False\n",
     "write-path", AssertionError),
    ("one context shared per step", "_step",
     "ctx = StepContext(model, iteration, values, target,\n"
     "                                          entries)\n",
     "ctx = shared = (locals().get('shared')\n"
     "                                          or StepContext(model, "
     "iteration, values, target, entries))\n"
     "                        ctx._site = target\n",
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
    ("carried view left stale", "_step",
     "    current = list(state.values)\n",
     "    current = list(state.values)\n    views = list(views)\n",
     "random", AssertionError),
    ("context never closed", "_step",
     "ctx._site = None   # closed however the call ended",
     "pass",
     "raising", AssertionError),
    ("context closed only on return", "_step",
     "                    try:\n"
     "                        returned = fn(*read, ctx)\n"
     "                    finally:\n"
     "                        ctx._site = None   # closed however the call "
     "ended\n",
     "                    returned = fn(*read, ctx)\n"
     "                    ctx._site = None\n",
     "raising", AssertionError),
    ("stored writes skip values identical to the state's", "_step",
     "                    if table is not None:\n",
     "                    if table is not None and value is not current[pos]:\n",
     "random", AssertionError),
    ("row with a live context tabled", "_rows",
     "if tabled and not live",
     "if tabled",
     "random", AssertionError),
    ("table key without the row's last read view", "_step",
     ("table.get(read)", "table[read] ="),
     ("table.get(read[:-1])", "table[read[:-1]] ="),
     "random", AssertionError),
    ("hit written without rebuilding its view", "_step",
     "                if value is not current[pos]:\n"
     "                    current[pos] = value\n"
     "                    changed = True\n",
     "                if value is not current[pos]:\n"
     "                    current[pos] = value\n",
     "random", AssertionError),
    ("one table shared across explore calls", "_rows",
     "({}, {})",
     "globals().setdefault(('_SHARED', index), ({}, {}))",
     "random", AssertionError),
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
     "                    if step_drawn:\n",
     "                    if step_drawn and stepped.values != state.values:\n",
     "settling", AssertionError),
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
    ("sibling stepped from the views its child left", "explore",
     "state, views, step_drawn, before = stack[depth]",
     "state, _, step_drawn, before = stack[depth]",
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
     ("memo.get(state)", "memo[state] ="),
     ("memo.get(state.values)", "memo[state.values] ="),
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
                    memo[state] = paths - before
                    break
""",
     "repeating", AssertionError),
]

# the functions the mutants edit
FUNCTIONS = tuple(dict.fromkeys(mutant[1] for mutant in MUTANTS))


def source(name: str) -> str:
    """The function's source, after as many blank lines as the engine's
    lines above it, so a copy's code starts at the engine's own line."""
    lines, first = inspect.getsourcelines(getattr(engine, name))
    return "\n" * (first - 1) + "".join(lines)


def compiled(name: str, text: str):
    """Function `name` compiled from `text` as the engine is, postponed
    annotations and all, in a copy of the engine's namespace."""
    namespace = dict(vars(engine))
    exec(compile(text, engine.__file__, "exec",
                 flags=__future__.annotations.compiler_flag,
                 dont_inherit=True), namespace)
    return namespace[name]


@pytest.mark.parametrize("function, snippet, replacement, family, failure",
                         [mutant[1:] for mutant in MUTANTS],
                         ids=[mutant[0] for mutant in MUTANTS])
def test_the_oracle_kills_the_mutant(function, snippet, replacement, family,
                                     failure, monkeypatch):
    text = source(function)
    if isinstance(snippet, str):
        snippet, replacement = (snippet,), (replacement,)
    for old, new in zip(snippet, replacement, strict=True):
        assert text.count(old) == 1
        text = text.replace(old, new)
    monkeypatch.setattr(engine, function, compiled(function, text))
    with pytest.raises(failure):
        sweep(family)


@pytest.mark.parametrize("function", FUNCTIONS)
def test_each_unedited_copy_compiles_to_the_engine_s_own(function):
    copy = compiled(function, source(function))
    own = getattr(engine, function)
    # code objects compare by instructions, constants (nested code among
    # them), names, flags and line table
    assert copy.__code__ == own.__code__
    # defaults are evaluated apart from the code, such as `_rows`'s
    # `tabled`
    assert copy.__defaults__ == own.__defaults__
    assert copy.__kwdefaults__ == own.__kwdefaults__
