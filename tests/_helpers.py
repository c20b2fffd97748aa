"""Helpers that more than one test module uses."""

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

from hilcheck import engine
from hilcheck.engine import UpdateFunctions


def noop(*views_and_ctx):
    return {}


def updates(**overrides) -> UpdateFunctions:
    """The nine update functions: `overrides`, and `noop` for the rest."""
    return UpdateFunctions(**{**{field.name: noop
                                 for field in fields(UpdateFunctions)},
                              **overrides})


def explore(model, bound, path_ceiling=10_000):
    """`engine.explore`, at a ceiling of 10,000 paths unless a test sets
    its own: no search a test makes runs more, so a walk that would not
    end fails instead of running to the default ceiling."""
    return engine.explore(model, bound, path_ceiling=path_ceiling)


def load(name: str, path: Path):
    """The module in the file at `path`, imported once under `name`: tools/
    and perfbench/ are directories of scripts, not packages.  It goes in
    sys.modules before it runs, where dataclasses look their defining
    module up."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
