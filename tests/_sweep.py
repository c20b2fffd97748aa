"""One sweep of an oracle family: each model built, enumerated by the flat
oracle and explored, once.

`sweep(name)` builds each of the family's models, runs `flat_check` and
`explore` on it, with a path ceiling of exactly the oracle's path count,
so the search must end where the oracle's does, and asserts that they
agree, stopping at the first model that does not: on the verdict, the
number of paths run, the violated assertion and iteration, the witness
path and its choice log (a counterexample must also replay), or, for a
ModelError, the reference's message.  Where the oracle runs two or more
paths, a ceiling one below its count must end the search in a ModelError
after exactly that many, also where a subtree `explore` counts at once
would carry it past the ceiling.  `explore` is called through the
engine's module, so a stand-in put there for a test is what the sweep
checks.  `swept` is the same sweep, cached, so every test that reads a
family shares one run of it per session.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from hilcheck import engine
from hilcheck.engine import Verdict, VerdictKind, replay_counterexample

from _modelgen import GeneratedModel
from _oracle import FAMILIES, OracleResult, flat_check, typed


class Swept(NamedTuple):
    seed: int
    gen: GeneratedModel
    expected: OracleResult
    verdict: Verdict


def sweep(name: str) -> tuple[Swept, ...]:
    family = FAMILIES[name]
    models = []
    for seed in family.seeds:
        gen = family.make(seed)
        expected = flat_check(gen.model, gen.bound, gen.init_points,
                              gen.step_points, gen.variable)
        verdict = engine.explore(gen.model, gen.bound,
                                 path_ceiling=expected.paths)
        where = f"{name} seed {seed}"
        assert verdict.kind.value == expected.kind, where
        assert verdict.paths_explored == expected.paths, where
        if expected.kind == "ModelError":
            assert verdict.message.startswith(expected.message), where
        else:
            assert verdict.choice_log == expected.choice_log, where
            assert typed(verdict.trace) == typed(expected.first_trace), where
        if expected.kind == "Unsafe":
            assert verdict.failed_assertion == expected.failed, where
            assert verdict.trace[-1].iteration \
                == expected.violation_iteration, where
            assert replay_counterexample(gen.model, verdict) \
                == verdict.trace, where
        if expected.paths >= 2:
            below = engine.explore(gen.model, gen.bound,
                                   path_ceiling=expected.paths - 1)
            assert below.kind is VerdictKind.ModelError, where
            assert "choice explosion" in below.message, where
            assert below.paths_explored == expected.paths - 1, where
        models.append(Swept(seed, gen, expected, verdict))
    return tuple(models)


swept = functools.cache(sweep)


def outcomes(name: str) -> dict[str, int]:
    """How many of the family's models end in each kind."""
    counts = dict.fromkeys(("Safe", "Unsafe", "ModelError"), 0)
    for model in swept(name):
        counts[model.expected.kind] += 1
    return counts
