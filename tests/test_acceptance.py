"""Acceptance checklist.  One test per shipping criterion; the -v report
line for each is the pass/fail record."""

import itertools
import subprocess
import sys
import time

from hilcheck.acc import acc_decide, adaptive_separation
from hilcheck.behaviour import (FatigueLevel, InputMode, IntegratorOp,
                                integrate, set_driver_fatigue,
                                set_reaction_time)
from hilcheck.engine import (Group, VerdictKind, explore, probed_model,
                             replay_counterexample)
from hilcheck.scenarios import SCENARIOS, build_model
from hilcheck.trace_io import format_trace

from test_acc import _closed_loop
from test_engine_oracle import SEEDS, compare_one

EXPECTED_VERDICTS = {
    "ideal": ("Safe", None, None, 4),
    "lowered-speed": ("Unsafe", "FatigueBounded", 4, 3),
    "manual-override": ("Unsafe", "SeparationMaintained", 3, 1),
}


def test_criterion_1_published_scenario_verdicts_reproduce_exactly():
    for name, (kind, failed, at, paths) in EXPECTED_VERDICTS.items():
        config = SCENARIOS[name]
        verdict = explore(build_model(config), config.bound)
        assert verdict.kind.value == kind, name
        assert verdict.failed_assertion == failed, name
        assert verdict.paths_explored == paths, name
        if failed is not None:
            assert verdict.trace[-1].iteration == at, name


def test_criterion_2_every_scenario_explores_in_under_sixty_seconds():
    for name, config in SCENARIOS.items():
        started = time.perf_counter()
        explore(build_model(config), config.bound)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"


def test_criterion_3_search_agrees_with_flat_enumeration_on_random_models():
    kinds = [compare_one(seed).kind for seed in SEEDS]
    assert len(kinds) >= 200
    assert kinds.count("Safe") >= 20
    assert kinds.count("Unsafe") >= 20


def test_criterion_4_every_counterexample_replays_from_its_log():
    for name in ("lowered-speed", "manual-override"):
        config = SCENARIOS[name]
        model = build_model(config)
        verdict = explore(model, config.bound)
        assert verdict.kind is VerdictKind.Unsafe, name
        assert replay_counterexample(model, verdict) == verdict.trace, name

    base = build_model(SCENARIOS["reaction-probe"])
    swept = probed_model(base, (Group.BEH_STATE, "fatigue"))
    verdict = explore(swept, 100)
    assert verdict.kind is VerdictKind.Unsafe
    assert replay_counterexample(swept, verdict) == verdict.trace


def test_criterion_5_behaviour_and_control_properties_hold_exhaustively():
    ideal = SCENARIOS["ideal"]

    # reaction time strictly grows with fatigue for every interaction mode
    for mode in InputMode:
        times = [set_reaction_time(mode, level, ideal)
                 for level in FatigueLevel]
        assert times[0] < times[1] < times[2], mode

    # and richer interaction modes always react at least as fast
    for level in FatigueLevel:
        assert (set_reaction_time(InputMode.MultiModal, level, ideal)
                <= set_reaction_time(InputMode.GamePad, level, ideal)
                <= set_reaction_time(InputMode.Speech, level, ideal))

    # fatigue is monotone in both severity inputs under every integrator
    pairs = list(itertools.product(range(13), range(3)))
    for op in IntegratorOp:
        for (t1, s1), (t2, s2) in itertools.product(pairs, pairs):
            if t1 <= t2 and s1 <= s2:
                low = set_driver_fatigue(t1, s1, op, ideal.tired_after,
                                         ideal.exhausted_after)
                high = set_driver_fatigue(t2, s2, op, ideal.tired_after,
                                          ideal.exhausted_after)
                assert low.value <= high.value, (op, t1, s1, t2, s2)

    # severity integration respects the operator ordering everywhere
    for a, b in itertools.product(range(3), range(3)):
        results = [integrate(op, a, b) for op in
                   (IntegratorOp.Min, IntegratorOp.RoundedMean,
                    IntegratorOp.Max, IntegratorOp.Sum)]
        assert results == sorted(results), (a, b)

    # the cruise controller's command is the exact sign of the gap error
    for preset, gap in itertools.product(range(16), range(16)):
        command = acc_decide(preset, gap)
        assert (gap - preset > 0) == (command.name == "Accelerate")
        assert (gap - preset < 0) == (command.name == "Decelerate")
        assert (gap == preset) == (command.name == "Maintain")

    # the fatigue-widened separation floor never shrinks
    for base in range(1, 9):
        widths = [adaptive_separation(level, base) for level in FatigueLevel]
        assert widths == sorted(widths), base

    # closed-loop convergence: from any start the gap reaches preset +/- 1
    # within |gap - preset| + speed + max_speed iterations
    preset, max_speed = 6, 10
    for speed0 in range(max_speed + 1):
        for gap0 in range(16):
            budget = abs(gap0 - preset) + speed0 + max_speed
            loop = _closed_loop(speed0, gap0, preset, max_speed=max_speed)
            assert any(abs(next(loop)[1] - preset) <= 1
                       for _ in range(budget)), (speed0, gap0)


def test_criterion_6_ideal_stays_safe_under_each_integrator_alone():
    from dataclasses import replace
    for op in IntegratorOp:
        config = replace(SCENARIOS["ideal"], operators=(op,))
        verdict = explore(build_model(config), config.bound)
        assert verdict.kind is VerdictKind.Safe, op
        assert verdict.bound == 100, op


def test_criterion_7_trace_exports_are_byte_identical_across_runs(tmp_path):
    outs = []
    for stem in ("first", "second"):
        out = tmp_path / f"{stem}.trace"
        proc = subprocess.run(
            [sys.executable, "-m", "hilcheck.cli", "run", "lowered-speed",
             "--trace-out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # the in-process serializer is deterministic too
    config = SCENARIOS["manual-override"]
    model = build_model(config)
    verdict = explore(model, config.bound)
    assert (format_trace(verdict, model, config.name)
            == format_trace(verdict, model, config.name))
