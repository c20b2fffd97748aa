"""Trace export contract: the exact bytes of every preset's witness, the
read-back round trip, and the state value semantics traces depend on."""

import hashlib

import pytest

from hilcheck.engine import Group, ModelError, VarId, explore, resolve_initial
from hilcheck.scenarios import SCENARIOS, build_model
from hilcheck.trace_io import format_trace, read_trace

# (length, sha256) of format_trace for each preset explored at its own bound
GOLDEN_TRACES = {
    "ideal": (133117, "7c9523aa0111ddb63732e64970fd1579"
                      "f8ef45bdf2ca297894a8e74015bdbcd5"),
    "lowered-speed": (7732, "662ac11356a7630cdb77e9a5b0445710"
                            "b10592188dfde02b475676819b66d1bd"),
    "manual-override": (5686, "efe47e87c6faeca369d9293741d6d2d4"
                              "7760be3afac8c157d245aec67778ce3c"),
    "reaction-probe": (133370, "2b9a4a4d0b879336c6085b212a78fe35"
                               "a6c2abcb5c6af768a2aef4bfdde38e07"),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_TRACES))
def test_preset_trace_bytes_and_round_trip(preset, tmp_path):
    config = SCENARIOS[preset]()
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


def test_state_equality_hash_valuation_and_unknown_names():
    model = build_model(SCENARIOS["ideal"]())
    first, _ = resolve_initial(model)
    second, _ = resolve_initial(model)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)

    valuation = first.valuation
    assert list(valuation) == [VarId(v.name, v.group) for v in model.variables]
    assert valuation[VarId("gap", Group.SYS_STATE)] == \
        first.value(Group.SYS_STATE, "gap")

    with pytest.raises(ModelError, match="unknown variable sys_state.ghost"):
        first.value(Group.SYS_STATE, "ghost")
