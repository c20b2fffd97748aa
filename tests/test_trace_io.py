"""Trace export contract: the exact bytes of every preset's witness, the
read-back round trip, and the state value semantics traces depend on."""

import hashlib
import re

import pytest

from hilcheck.engine import (ChoicePoint, Group, IntDomain, ModelError,
                             SymbolicDomain, UpdateFunctions, Var, explore,
                             register_model, resolve_initial)
from hilcheck.scenarios import SCENARIOS, build_model
from hilcheck.trace_io import export_trace, format_trace, read_trace

# (length, sha256) of format_trace for each preset explored at its own bound
GOLDEN_TRACES = {
    "ideal": (128774, "11a1ac599149041f7533fd7972f4acfe"
                      "99d31134537c43d8356e66a585898112"),
    "lowered-speed": (7517, "c99666c5d7605786f32678bf2bada9f3"
                            "616113144fb2982d5e191281e145389e"),
    "manual-override": (5514, "ce29561cba6120e061c82eb9955f5762"
                              "7edf6123375fdd3c0d0cb59b550bbf4b"),
    "reaction-probe": (129027, "70d65cfef9ae3fec989c3e525691b5ac"
                               "f78507035c6dffa501a5e84a6ed56db1"),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_TRACES))
def test_preset_trace_bytes_and_round_trip(preset, tmp_path):
    config = SCENARIOS[preset]
    model = build_model(config)
    verdict = explore(model, config.bound)
    text = format_trace(verdict, model, config.name)
    data = text.encode("ascii")
    assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_TRACES[preset]

    path = tmp_path / "trace.txt"
    path.write_bytes(data)
    parsed = read_trace(path, model)
    assert parsed.trace == verdict.trace
    assert parsed.choices == verdict.choice_log


# one edit to the first line of a manual-override trace that matches the
# pattern: (pattern, replacement)
MALFORMED = {
    "value outside its domain": (r"sys_state\.gap=\d+", "sys_state.gap=96"),
    "state without iter": (r"^state iter=\d+ ", "state "),
    "non-integer state iter": (r"^state iter=\d+", "state iter=x"),
    "non-integer choice iter": (r"^choice iter=\d+", "choice iter=1.5"),
    "state iter with a plus sign": (r"^state iter=1 ", "state iter=+1 "),
    "choice iter with a leading zero": (r"^choice iter=1 ", "choice iter=01 "),
    "field given twice": (r"sys_state\.gap=\d+", r"\g<0> sys_state.gap=14"),
    "choice iter not its state's": (r"^choice iter=1 ", "choice iter=7 "),
    "choice after the last state": (r"^state iter=3 .*",
                                    "choice iter=3 point=controlMode "
                                    "value=Manual"),
    "header names another scenario": (r"^header scenario=\S+",
                                      "header scenario=ideal"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_trace_rejects_malformed_records_with_their_line(case, tmp_path):
    config = SCENARIOS["manual-override"]
    model = build_model(config)
    text = format_trace(explore(model, config.bound), model, config.name)
    pattern, replacement = MALFORMED[case]
    lines = text.splitlines(keepends=True)
    lineno = next(n for n, line in enumerate(lines, start=1)
                  if re.search(pattern, line))
    lines[lineno - 1] = re.sub(pattern, replacement, lines[lineno - 1], count=1)
    path = tmp_path / "trace.txt"
    path.write_text("".join(lines), encoding="ascii")
    with pytest.raises(ValueError, match=rf"^line {lineno}: "):
        read_trace(path, model)


def test_state_equality_hash_valuation_and_unknown_names():
    model = build_model(SCENARIOS["ideal"])
    first, _ = resolve_initial(model)
    second, _ = resolve_initial(model)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)

    valuation = first.valuation
    assert list(valuation) == [(v.group, v.name) for v in model.variables]
    assert valuation[(Group.SYS_STATE, "gap")] == \
        first.value(Group.SYS_STATE, "gap")

    with pytest.raises(ModelError, match="unknown variable sys_state.ghost"):
        first.value(Group.SYS_STATE, "ghost")


def _big_counter(lo: int):
    """One env-state counter over a domain far too large to enumerate."""
    def env_state(ei, e, ctx):
        return {"n": e.n + 1}

    def noop(*views_and_ctx):
        return {}

    updates = {name: noop for name in UpdateFunctions.__dataclass_fields__}
    updates["env_state"] = env_state
    return register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(lo, 10**19), lo)],
        updates=UpdateFunctions(**updates), name="big")


@pytest.mark.parametrize("lo", [0, -3])
def test_huge_integer_domains_round_trip(lo, tmp_path):
    model = _big_counter(lo)
    verdict = explore(model, 5)
    path = tmp_path / "trace.txt"
    path.write_text(format_trace(verdict, model, "big"), encoding="ascii")
    assert read_trace(path, model).trace == verdict.trace


@pytest.mark.parametrize("token", ["07", "+7", "-0", "7_0", "x",
                                   "-4", str(10**19 + 1)])
def test_integer_tokens_must_be_canonical_and_in_the_domain(token, tmp_path):
    model = _big_counter(-3)
    text = format_trace(explore(model, 12), model, "big")
    path = tmp_path / "trace.txt"
    path.write_text(text.replace("env_state.n=7", f"env_state.n={token}"),
                    encoding="ascii")
    with pytest.raises(ValueError, match=r"^line \d+: env_state.n: .* is not "
                                         "in the domain"):
        read_trace(path, model)


def _labelled(label: str, point_id: str, name: str,
              members: tuple[str, ...] = ("ok", "a b")):
    """A symbolic env-state variable over `members` starting at `label`, and
    an env-input variable drawn from choice point `point_id` every
    iteration."""
    def env_input(so, e, ctx):
        return {"pick": ctx.choose(point_id)}

    def noop(*views_and_ctx):
        return {}

    updates = {field: noop for field in UpdateFunctions.__dataclass_fields__}
    updates["env_input"] = env_input
    return register_model(
        variables=[Var("label", Group.ENV_STATE, SymbolicDomain(members),
                       label),
                   Var("pick", Group.ENV_INPUT, IntDomain(0, 1), 0)],
        updates=UpdateFunctions(**updates),
        choices=[ChoicePoint(point_id, (0, 1), site=Group.ENV_INPUT)],
        name=name)


@pytest.mark.parametrize("label, point_id, name, token", [
    ("a b", "pick", "m", "a b"),
    ("ok", "a b", "m", "a b"),
    ("ok", "pick", "my model", "my model"),
], ids=["symbolic value", "choice point id", "scenario name"])
def test_format_trace_rejects_whitespace_it_could_not_read_back(
        label, point_id, name, token):
    model = _labelled(label, point_id, name)
    verdict = explore(model, 2)
    with pytest.raises(ValueError, match=f"cannot write '{token}' to a trace"):
        format_trace(verdict, model, name)


def test_a_spaced_domain_member_the_trace_never_holds_is_fine(tmp_path):
    model = _labelled("ok", "pick", "m")
    verdict = explore(model, 2)
    path = tmp_path / "trace.txt"
    path.write_text(format_trace(verdict, model, "m"), encoding="ascii")
    assert read_trace(path, model).trace == verdict.trace


@pytest.mark.parametrize("label, scenario, error", [
    ("\u00e9", "m", UnicodeEncodeError),
    ("a b", "m", ValueError),
    ("ok", "other", ValueError),
], ids=["non-ascii value", "spaced value", "another scenario name"])
def test_a_failing_export_leaves_an_existing_trace_as_it_was(
        label, scenario, error, tmp_path):
    good = _labelled("ok", "pick", "m")
    path = tmp_path / "trace.txt"
    export_trace(path, explore(good, 2), good, "m")
    before = path.read_bytes()
    assert before == format_trace(explore(good, 2), good, "m").encode("ascii")

    bad = _labelled(label, "pick", "m", members=("ok", "a b", "\u00e9"))
    with pytest.raises(error):
        export_trace(path, explore(bad, 2), bad, scenario)
    assert path.read_bytes() == before
