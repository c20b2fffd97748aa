"""Mutants of the engine's step that the oracle must kill.

Each mutant edits one snippet of `engine._step`'s source, compiles the
result in a copy of the engine's namespace, and puts it in place of
`_step` for one test, which `step` and `run_path` then call.  An uncached
sweep of the named oracle family must fail under it, at its first failing
model, with an AssertionError of the oracle's, or with the ModelError of a
generated model's own check where its registration's trial step already
draws through a context it must not.  Each snippet must occur exactly once
in `_step`, so a rewrite of `_step` that drops or repeats one fails here,
loudly, until its mutant is written again.  The unedited copy, compiled the
same way, is the engine's `_step`, instruction for instruction.
"""

import inspect

import pytest

from hilcheck import engine
from hilcheck.engine import ModelError

from _sweep import sweep

SOURCE = inspect.getsource(engine._step)

# (name, snippet, its replacement, the family whose sweep must fail, how)
MUTANTS = [
    ("== for is",
     "if value is current[pos]:",
     "if value == current[pos]:",
     "write-path", AssertionError),
    ("no rebuild after a changed write",
     "        if changed:\n",
     "        if False:\n",
     "random", AssertionError),
    ("rebuild at the wrong group",
     "group_views[index]\n            views[index] =",
     "group_views[index - 1]\n            views[index - 1] =",
     "random", AssertionError),
    ("changed flag taken from the last write only",
     "        for var_name, value in items:\n",
     "        for var_name, value in items:\n            changed = False\n",
     "write-path", AssertionError),
    ("one context shared per step",
     "ctx = StepContext(model, iteration, values, target, entries)\n",
     "ctx = (locals().get('ctx')\n"
     "                       or StepContext(model, iteration, values, target,"
     " entries))\n"
     "                ctx._site = target\n",
     "write-path", ModelError),
    ("carried view left stale",
     "    current = list(state.values)\n",
     "    current = list(state.values)\n    views = list(views)\n",
     "random", AssertionError),
    ("context never closed",
     "ctx._site = None   # closed however the call ended",
     "pass",
     "raising", AssertionError),
    ("context closed only on return",
     "                try:\n"
     "                    returned = fn(*reads(views), ctx)\n"
     "                finally:\n"
     "                    ctx._site = None   # closed however the call ended\n",
     "                returned = fn(*reads(views), ctx)\n"
     "                ctx._site = None\n",
     "raising", AssertionError),
]


def compiled(source: str):
    """`_step` compiled from `source` in a copy of the engine's namespace."""
    namespace = dict(vars(engine))
    exec(compile(source, engine.__file__, "exec"), namespace)
    return namespace["_step"]


@pytest.mark.parametrize("snippet, replacement, family, failure",
                         [mutant[1:] for mutant in MUTANTS],
                         ids=[mutant[0] for mutant in MUTANTS])
def test_the_oracle_kills_the_mutant(snippet, replacement, family, failure,
                                     monkeypatch):
    assert SOURCE.count(snippet) == 1
    monkeypatch.setattr(engine, "_step",
                        compiled(SOURCE.replace(snippet, replacement)))
    with pytest.raises(failure):
        sweep(family)


def test_the_unedited_copy_compiles_to_the_engine_s_step():
    copy = compiled(SOURCE).__code__
    assert (copy.co_code, copy.co_consts, copy.co_names) \
        == (engine._step.__code__.co_code, engine._step.__code__.co_consts,
            engine._step.__code__.co_names)
