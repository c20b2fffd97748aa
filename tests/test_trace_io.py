"""Trace export contract: the read-back round trip, the records a reader
rejects, and the state value semantics traces depend on.  The exact bytes
of every preset's witness are the golden corpus's rows at bound 100."""

import re
from dataclasses import replace
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from hilcheck.engine import (Assertion, ChoicePoint, Group, IntDomain,
                             ModelError, SymbolicDomain, UpdateFunctions, Var,
                             Verdict, VerdictKind, register_model,
                             resolve_initial, run_path)
from hilcheck.scenarios import SCENARIOS, build_model
from hilcheck.trace_io import export_trace, format_trace, read_trace

from _helpers import explore


@pytest.mark.parametrize("preset, bound, message", [
    ("ideal", 5, "a Safe trace at bound 5 holds iterations 0..5, this one "
                 "0..100"),
    ("ideal", 101, "a Safe trace at bound 101 holds iterations 0..101, this "
                   "one 0..100"),
    ("manual-override", 2, "an Unsafe trace at bound 2 ends by iteration 2, "
                           "this one at 3"),
    ("manual-override", 3, None),
], ids=["Safe past its bound", "Safe short of its bound",
        "Unsafe past its bound", "Unsafe at its bound"])
def test_read_trace_checks_the_states_against_the_header_bound(
        preset, bound, message, tmp_path):
    config = SCENARIOS[preset]
    model = build_model(config)
    text = format_trace(explore(model, config.bound), model, config.name)
    path = tmp_path / "trace.txt"
    path.write_text(text.replace(" bound=100 ", f" bound={bound} ", 1),
                    encoding="ascii")
    if message is None:
        assert read_trace(path, model).header["bound"] == str(bound)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trace(path, model)


# one edit to the first line of a manual-override trace that matches the
# pattern: (pattern, replacement)
MALFORMED = {
    "value outside its domain": (r"sys_state\.gap=\d+", "sys_state.gap=96"),
    "state without iter": (r"^state iter=\d+ ", "state "),
    "non-integer state iter": (r"^state iter=\d+", "state iter=x"),
    "non-integer choice iter": (r"^choice iter=\d+", "choice iter=1.5"),
    "state iter with a plus sign": (r"^state iter=1 ", "state iter=+1 "),
    "state out of order": (r"^state iter=1 ", "state iter=5 "),
    "choice iter with a leading zero": (r"^choice iter=1 ", "choice iter=01 "),
    "field given twice": (r"sys_state\.gap=\d+", r"\g<0> sys_state.gap=14"),
    "choice iter not its state's": (r"^choice iter=1 ", "choice iter=7 "),
    "choice after the last state": (r"^state iter=3 .*",
                                    "choice iter=3 point=controlMode "
                                    "value=Manual"),
    "header names another scenario": (r"^header scenario=\S+",
                                      "header scenario=ideal"),
    "header without a field": (r" paths=\d+$", ""),
    "header with another field": (r"^header ", "header mode=fast "),
    "header verdict neither Safe nor Unsafe": (r" verdict=\w+",
                                               " verdict=Maybe"),
    "a ModelError header": (r" verdict=\w+", " verdict=ModelError"),
    "header bound with a leading zero": (r" bound=", " bound=0"),
    "header bound of zero": (r" bound=\d+", " bound=0"),
    "header paths below 1": (r" paths=\d+", " paths=-3"),
    "header failed not an assertion": (r" failed=\w+", " failed=Nope"),
    "Unsafe header with no failed assertion": (r" failed=\w+", " failed=-"),
    "Safe header naming a failed assertion": (r" verdict=\w+",
                                              " verdict=Safe"),
    "unknown record kind": (r"^state iter=1 ", "status iter=1 "),
    "a second header": (r"^choice iter=1 .*",
                        "header scenario=manual-override"),
    "unknown choice point": (r"point=controlMode", "point=ghost"),
    "choice value outside its point": (r"point=controlMode value=\w+",
                                       "point=controlMode value=Cruise"),
    "state missing a variable": (r" sys_state\.gap=\d+", ""),
    "state fields in another order": (
        r"(sys_state\.speed=\d+) (sys_state\.gap=\d+)", r"\2 \1"),
    "token without =": (r"sys_state\.gap=", "sys_state.gap"),
    "a tab between header fields": (r" bound=", "\tbound="),
    "two spaces between state fields": (r"^state iter=", "state  iter="),
    "a trailing space": (r"^choice iter=1 .*", r"\g<0> "),
    "a blank line": (r"^state iter=2 .*", ""),
}


def _malformed(case, tmp_path):
    """The model, and the path and edited line number of its
    manual-override trace with the `MALFORMED[case]` edit."""
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
    return model, path, lineno


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_trace_rejects_malformed_records_with_their_line(case, tmp_path):
    model, path, lineno = _malformed(case, tmp_path)
    with pytest.raises(ValueError, match=rf"^line {lineno}: "):
        read_trace(path, model)


@pytest.mark.parametrize("case", ["field given twice", "state missing a variable",
                                  "state fields in another order",
                                  "token without ="])
def test_a_state_out_of_its_layout_names_the_layout(case, tmp_path):
    model, path, lineno = _malformed(case, tmp_path)
    layout = " ".join(["iter", *map(str, model.variables)])
    with pytest.raises(ValueError, match=re.escape(
            f"line {lineno}: a state record has the fields {layout}")):
        read_trace(path, model)


# what each header case's error says, after its `line 1: `
HEADER_ERRORS = {
    "header verdict neither Safe nor Unsafe":
        "header verdict needs Safe or Unsafe, got 'Maybe'",
    "a ModelError header":
        "header verdict needs Safe or Unsafe, got 'ModelError'",
    "header bound with a leading zero":
        "header bound needs an integer of at least 1, got '0100'",
    "header bound of zero": "header bound needs an integer of at least 1, "
                            "got '0'",
    "header paths below 1": "header paths needs an integer of at least 1, "
                            "got '-3'",
    "header failed not an assertion":
        "header failed needs an assertion of 'manual-override', got 'Nope'",
    "Unsafe header with no failed assertion":
        "header failed needs an assertion of 'manual-override', got '-'",
    "Safe header naming a failed assertion":
        "header failed needs - on a Safe verdict, got 'SeparationMaintained'",
}


@pytest.mark.parametrize("case", sorted(HEADER_ERRORS))
def test_a_header_value_format_trace_would_not_write_is_named(case,
                                                              tmp_path):
    model, path, lineno = _malformed(case, tmp_path)
    assert lineno == 1
    with pytest.raises(ValueError, match=re.escape(
            f"line 1: {HEADER_ERRORS[case]}")):
        read_trace(path, model)


def test_a_header_alone_is_no_trace(tmp_path):
    config = SCENARIOS["manual-override"]
    model = build_model(config)
    text = format_trace(explore(model, config.bound), model, config.name)
    path = tmp_path / "trace.txt"
    path.write_text(text.split("\n", 1)[0] + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="^trace file has no states$"):
        read_trace(path, model)


def test_the_header_must_be_the_first_record(tmp_path):
    config = SCENARIOS["manual-override"]
    model = build_model(config)
    text = format_trace(explore(model, config.bound), model, config.name)
    header, rest = text.split("\n", 1)
    path = tmp_path / "trace.txt"
    path.write_text(rest + header + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="^line 1: the first record must be "
                                         "the header"):
        read_trace(path, model)


def test_format_trace_rejects_states_of_another_models_variables():
    config = SCENARIOS["manual-override"]
    model = build_model(config)
    verdict = explore(model, config.bound)
    # another model under the same name: 37 variables, not 53
    other = build_model(replace(SCENARIOS["lowered-speed"], route_length=1,
                                name=config.name))
    with pytest.raises(ValueError, match="a verdict of another model than "
                                         "'manual-override'"):
        format_trace(verdict, other, config.name)
    # the same model built again holds the same variables
    assert format_trace(verdict, build_model(config), config.name) == \
        format_trace(verdict, model, config.name)


def _shifted(verdict):
    """`verdict` with its first choice moved after its second."""
    first, second, *rest = verdict.choice_log
    return replace(verdict, choice_log=(second, first, *rest))


# an edit to manual-override's Unsafe verdict, 4 states and 7 choices, that
# `read_trace` would reject or read back otherwise: (edit, message)
UNWRITABLE = {
    "paths left at 0": (
        lambda v: replace(v, paths_explored=0),
        "header paths needs an integer of at least 1, got '0'"),
    "Safe short of its bound": (
        lambda v: replace(v, kind=VerdictKind.Safe, failed_assertion=None),
        "a Safe trace at bound 100 holds iterations 0..100, this one 0..3"),
    "states skipping an iteration": (
        lambda v: replace(v, trace=v.trace[:2] + v.trace[3:]),
        "the states' iterations must run 0, 1, 2, ... in order"),
    "a choice of an unknown point": (
        lambda v: replace(v, choice_log=(
            replace(v.choice_log[0], point_id="ghost"), *v.choice_log[1:])),
        "unknown choice point 'ghost'"),
    "a choice outside its point's domain": (
        lambda v: replace(v, choice_log=(
            replace(v.choice_log[0], value=7), *v.choice_log[1:])),
        "choice of 7 is outside the domain of 'integrator'"),
    "a choice past the last state": (
        lambda v: replace(v, choice_log=(
            *v.choice_log, replace(v.choice_log[-1], iteration=4))),
        "choice for iteration 4 precedes no state"),
    "a log out of iteration order": (
        _shifted, "choice for iteration 0 is out of iteration order"),
}


@pytest.mark.parametrize("edit, message", UNWRITABLE.values(),
                         ids=UNWRITABLE)
def test_format_trace_writes_only_what_read_trace_reads_back(edit, message,
                                                             tmp_path):
    config = SCENARIOS["manual-override"]
    model = build_model(config)
    verdict = explore(model, config.bound)
    assert (len(verdict.trace), len(verdict.choice_log)) == (4, 7)
    path = tmp_path / "trace.txt"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        export_trace(path, edit(verdict), model, config.name)
    # raised before the file was opened
    assert not path.exists()
    # and the verdict as the search made it writes a trace that reads back
    export_trace(path, verdict, model, config.name)
    read = read_trace(path, model)
    assert (read.trace, read.choices) == (verdict.trace, verdict.choice_log)


def test_format_trace_writes_an_iteration_that_is_a_bool_in_decimal(
        tmp_path):
    # False equals 0, and True 1: the reader takes only decimal
    config = SCENARIOS["manual-override"]
    model = build_model(config)
    verdict = explore(model, config.bound)
    first, second, *rest = verdict.trace
    entry, *entries = verdict.choice_log
    bools = replace(verdict, trace=(replace(first, iteration=False),
                                    replace(second, iteration=True), *rest),
                    choice_log=(replace(entry, iteration=False), *entries))
    text = format_trace(bools, model, config.name)
    assert text == format_trace(verdict, model, config.name)
    path = tmp_path / "trace.txt"
    path.write_text(text, encoding="ascii")
    assert read_trace(path, model).trace == verdict.trace


def test_format_trace_refuses_a_trace_of_no_states():
    config = SCENARIOS["manual-override"]
    model = build_model(config)
    verdict = replace(explore(model, config.bound), trace=(), choice_log=())
    with pytest.raises(ValueError, match="^verdict carries no states$"):
        format_trace(verdict, model, config.name)


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


def _labelled(label, point_id: str, name: str, assertions: tuple = ()):
    """A symbolic env-state variable that holds only `label`, and a choice
    point `point_id` over (0, 1) that env_input draws every iteration."""
    def env_input(so, e, ctx):
        ctx.choose(point_id)
        return {}

    def noop(*views_and_ctx):
        return {}

    updates = {field: noop for field in UpdateFunctions.__dataclass_fields__}
    updates["env_input"] = env_input
    return register_model(
        variables=[Var("label", Group.ENV_STATE, SymbolicDomain((label,)),
                       label)],
        updates=UpdateFunctions(**updates),
        choices=[ChoicePoint(point_id, (0, 1), site=Group.ENV_INPUT)],
        assertions=assertions, name=name)


@pytest.mark.parametrize("label, point_id, name, assert_id, token", [
    ("a b", "pick", "m", None, "a b"),
    ("ok", "a b", "m", None, "a b"),
    ("ok", "pick", "my model", None, "my model"),
    ("ok", "pick", "m", "below three", "below three"),
], ids=["symbolic value", "choice point id", "scenario name",
        "failed assertion id"])
def test_format_trace_rejects_whitespace_it_could_not_read_back(
        label, point_id, name, assert_id, token):
    """Records split on spaces, so a model holding one in a name or
    label is rejected when declared, before a trace could be written."""
    with pytest.raises(ModelError, match=f"'{token}' must be a non-empty "
                                         "printable ASCII str with no space"):
        assertions = () if assert_id is None else (
            Assertion(assert_id, lambda s: True),)
        _labelled(label, point_id, name, assertions)


class Letter(Enum):
    a = 1


# pairs of domain members that one label writes
SHARED_LABELS = {"bool": ("true", True), "enum": ("a", Letter.a),
                 "int": ("1", 1)}


@pytest.mark.parametrize("pair", SHARED_LABELS.values(), ids=SHARED_LABELS)
def test_format_trace_rejects_a_label_another_value_shares(pair):
    """A trace could not tell such values apart, so neither a variable's
    domain nor a choice point may hold both."""
    shared = re.escape(f"members {pair[0]!r} and {pair[1]!r} are both "
                       f"written {pair[0]!r}")
    with pytest.raises(ModelError, match=shared):
        SymbolicDomain(("ok", *pair))
    with pytest.raises(ModelError, match="choice point 'pick': " + shared):
        ChoicePoint("pick", pair, site=Group.ENV_INPUT)


@pytest.mark.parametrize("scenario, ceiling", [("other", 10), ("m", 1)],
                         ids=["another scenario name", "ModelError verdict"])
def test_a_failing_export_leaves_an_existing_trace_as_it_was(
        scenario, ceiling, tmp_path):
    model = _labelled("ok", "pick", "m")
    path = tmp_path / "trace.txt"
    export_trace(path, explore(model, 2), model, "m")
    before = path.read_bytes()
    assert before == format_trace(explore(model, 2), model, "m").encode("ascii")

    # the model has four paths, so a ceiling of one gives a ModelError verdict
    with pytest.raises(ValueError):
        export_trace(path, explore(model, 2, path_ceiling=ceiling), model,
                     scenario)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="^verdict carries no trace$"):
        export_trace(path, Verdict(VerdictKind.Safe, 1), model, "m")
    assert path.read_bytes() == before


class Small(Enum):
    x = 1
    y = 2


# what a symbolic domain may be asked to hold: values a trace writes alike,
# and strings over an alphabet with a space, a non-ASCII letter and the
# characters a record uses
MEMBERS = st.lists(st.one_of(
    st.integers(-3, 3), st.booleans(), st.sampled_from(Small),
    st.sampled_from(["true", "1", "x", "-"]),
    st.text(alphabet=["a", " ", "\u00e9", "-", "="], max_size=3)),
    min_size=1, max_size=4, unique=True)


@settings(max_examples=60, deadline=None)
@given(members=MEMBERS)
def test_a_domain_that_declares_holds_values_that_read_back(
        members, tmp_path_factory):
    """Either the domain is rejected when declared, or a model whose state
    starts at each member and draws each member in turn exports a trace
    that reads back as the same states and draws."""
    try:
        SymbolicDomain(tuple(members))
    except ModelError:
        return
    members = tuple(members)

    def env_state(ei, e, ctx):
        return {"v": ctx.choose("pick")}

    def noop(*views_and_ctx):
        return {}

    updates = {field: noop for field in UpdateFunctions.__dataclass_fields__}
    updates["env_state"] = env_state
    path = tmp_path_factory.getbasetemp() / "members.txt"
    for start in members:
        model = register_model(
            variables=[Var("v", Group.ENV_STATE, SymbolicDomain(members),
                           start)],
            updates=UpdateFunctions(**updates),
            choices=[ChoicePoint("pick", members, site=Group.ENV_STATE)],
            name="members")
        trace, log, _ = run_path(model, len(members), members)
        verdict = Verdict(VerdictKind.Safe, len(members), 1, trace, log)
        export_trace(path, verdict, model, "members")
        read = read_trace(path, model)
        assert (read.trace, read.choices) == (trace, log)
