"""Mutants of the engine's step, path loop and search that the oracle must
kill.

Each mutant edits one snippet of the source of a named engine function,
`_step`, `_run_from` or `explore`, compiles the result in a copy of the
engine's namespace, and puts it in place of that function for one test:
`step` and `_run_from` call `_step` through the engine's namespace,
`run_path` and `explore` call `_run_from` through it, and the oracle and
the sweep call `run_path` and `explore` through the engine's module.  An
uncached sweep of the named oracle family must fail under it, at its first
failing model, with an AssertionError of the oracle's, or with the
ModelError a generated model's registration raises where its trial step
already fails.  The sweep explores at a path ceiling of the oracle's path
count, so a search mutant that would walk for ever meets it.  Each snippet
must occur exactly once in its function, so a rewrite that drops or
repeats one fails here, loudly, until its mutant is written again.  Each
unedited copy, compiled the same way, is the engine's own function,
instruction for instruction.
"""

import __future__
import inspect

import pytest

from hilcheck import engine
from hilcheck.engine import ModelError

from _sweep import sweep

# `explore`'s path ceiling, tested before each path, and the same test
# moved after the path's count
CEILING_TEST = """\
            if paths >= path_ceiling:
                return Verdict(VerdictKind.ModelError, bound,
                               paths_explored=paths,
                               message="choice explosion: path ceiling "
                                       f"{path_ceiling} exceeded")
"""
RUN = """\
            try:
                trace, log, violated = _run_from(model, bound, state,
                                                 iter(prefix), entries,
                                                 shared)
            except ModelError as exc:
                return Verdict(VerdictKind.ModelError, bound,
                               paths_explored=paths + 1, message=str(exc))
            paths += 1
"""
CEILING_BEFORE = CEILING_TEST + RUN
CEILING_AFTER = RUN + CEILING_TEST

# (name, function, snippet, its replacement, the family whose sweep must
# fail, how)
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
     "            for var_name, value in returned.items():\n",
     "            for var_name, value in returned.items():\n"
     "                changed = False\n",
     "write-path", AssertionError),
    ("one context shared per step", "_step",
     "ctx = StepContext(model, iteration, values, target, entries)\n",
     "ctx = shared = (locals().get('shared')\n"
     "                                      or StepContext(model, iteration,"
     " values, target, entries))\n"
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
    ("carried view left stale", "_step",
     "    current = list(state.values)\n",
     "    current = list(state.values)\n    views = list(views)\n",
     "random", AssertionError),
    ("context never closed", "_step",
     "ctx._site = None   # closed however the call ended",
     "pass",
     "raising", AssertionError),
    ("context closed only on return", "_step",
     "                try:\n"
     "                    returned = fn(*reads(views), ctx)\n"
     "                finally:\n"
     "                    ctx._site = None   # closed however the call ended\n",
     "                returned = fn(*reads(views), ctx)\n"
     "                ctx._site = None\n",
     "raising", AssertionError),
    ("path settled though the step drew", "_run_from",
     "if not drawn and stepped.values == state.values:",
     "if stepped.values == state.values:",
     "settling", AssertionError),
    ("settled tail one state short", "_run_from",
     "range(state.iteration + 1, bound + 1)",
     "range(state.iteration + 1, bound)",
     "settling", AssertionError),
    ("settle test against the stepped state itself", "_run_from",
     "stepped.values == state.values",
     "stepped.values == stepped.values",
     "random", AssertionError),
    ("settle test against the initial state", "_run_from",
     "stepped.values == state.values",
     "stepped.values == snapshots[0].values",
     "cycling", AssertionError),
    ("walk advances the first initialisation point fastest", "explore",
     "range(len(points) - 1, -1, -1)",
     "range(len(points))",
     "random", AssertionError),
    ("wrapped point not reset to its first candidate", "explore",
     "            places[changed] = 0\n",
     "",
     "random", AssertionError),
    ("backtrack scan reaches into the initialisation entries", "explore",
     "range(len(log) - 1, start - 1, -1)",
     "range(len(log) - 1, -1, -1)",
     "random", AssertionError),
    ("ceiling tested after a path instead of before", "explore",
     CEILING_BEFORE,
     CEILING_AFTER,
     "random", AssertionError),
    ("path resumed at the backtracked draw's own iteration", "explore",
     "= trace[it - 1],",
     "= trace[it],",
     "random", AssertionError),
    ("same-iteration draws before the backtracked one dropped", "explore",
     "[entry.value for entry in log[cut:i]] + ",
     "",
     "random", AssertionError),
    ("one state too many shared from the previous path", "explore",
     "trace[:it - 1]",
     "trace[:it]",
     "late-failing", AssertionError),
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
    assert text.count(snippet) == 1
    monkeypatch.setattr(engine, function,
                        compiled(function, text.replace(snippet, replacement)))
    with pytest.raises(failure):
        sweep(family)


@pytest.mark.parametrize("function", FUNCTIONS)
def test_each_unedited_copy_compiles_to_the_engine_s_own(function):
    copy = compiled(function, source(function)).__code__
    own = getattr(engine, function).__code__
    # code objects compare by instructions, constants (nested code among
    # them), names, flags and line table
    assert copy == own
