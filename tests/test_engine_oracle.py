"""Search correctness against a flat-enumeration oracle.

220 randomized small models, each drawing on a fixed schedule, each checked
two ways: explore()'s depth-first search with pruning, and brute enumeration
of the full choice-vector product.  Both must agree on the verdict, on the
violated assertion and iteration, on the witness path, and on the number of
paths run: every complete run for a safe model, the runs up to and
including the first violating one for an unsafe model.  The enumeration
also checks that initialisation points are drawn in their list order, and
step points on the schedule whatever their list order.

100 more models saturate instead of wrapping and run to a bound of 6 to 10,
so most of their paths settle into a fixed point well before it: the
engine stops stepping there, and the oracle steps every iteration.

40 write-path models hold several int, bool and symbolic variables per
group, written in part, with equal ints that are new objects, keep their
drawing contexts and try to draw through them later, and on some branches
write True into an int variable that holds 1.  Their search must end in a
ModelError on the first path that does, after as many paths as the oracle
counts to it, and each path's `run_path` must give what its steps give.

A path ceiling at each model's path count changes nothing, and one below it
ends the search after exactly that many paths.
"""

from hilcheck.engine import VerdictKind, explore, replay_counterexample

from _modelgen import generate, generate_write_path
from _oracle import flat_check

SEEDS = range(220)
SETTLING_SEEDS = range(100)
WRITE_PATH_SEEDS = range(40)


def compare_one(seed: int, make=generate, check_run_path=False, **options):
    gen = make(seed, **options)
    expected = flat_check(gen.model, gen.bound, gen.init_points,
                          gen.step_points, check_run_path)
    verdict = explore(gen.model, gen.bound)

    assert verdict.kind.value == expected.kind, f"seed {seed}"
    assert verdict.paths_explored == expected.paths, f"seed {seed}"
    if expected.kind == "ModelError":
        assert "outside its domain" in verdict.message, f"seed {seed}"
    elif expected.kind == "Unsafe":
        assert verdict.failed_assertion == expected.failed, f"seed {seed}"
        assert verdict.trace[-1].iteration == expected.violation_iteration, \
            f"seed {seed}"
        assert verdict.choice_log == expected.choice_log, f"seed {seed}"
        assert verdict.trace == expected.first_trace, f"seed {seed}"
        replayed = replay_counterexample(gen.model, verdict)
        assert replayed == verdict.trace, f"seed {seed}"
    else:
        assert verdict.choice_log == expected.choice_log, f"seed {seed}"
        assert verdict.trace == expected.first_trace, f"seed {seed}"
    return expected


def settles(expected) -> bool:
    """Whether the oracle's witness path has a step that drew nothing and
    returned its input's values."""
    drew = {entry.iteration for entry in expected.choice_log}
    trace = expected.first_trace
    return any(after.values == before.values and after.iteration not in drew
               for before, after in zip(trace, trace[1:]))


def test_explore_matches_flat_enumeration_on_all_seeds():
    kinds = {"Safe": 0, "Unsafe": 0}
    for seed in SEEDS:
        kinds[compare_one(seed).kind] += 1
    # the corpus must actually exercise both outcomes to mean anything
    assert kinds["Safe"] >= 20, kinds
    assert kinds["Unsafe"] >= 20, kinds


def test_explore_matches_flat_enumeration_on_settling_models():
    results = [compare_one(seed, max_runs=128, settling=True)
               for seed in SETTLING_SEEDS]
    assert sum(map(settles, results)) == 28
    assert sum(r.failed == "late" for r in results) == 37
    assert sum(r.kind == "Safe" for r in results) == 32


def test_explore_matches_flat_enumeration_on_write_path_models():
    results = [compare_one(seed, generate_write_path, check_run_path=True)
               for seed in WRITE_PATH_SEEDS]
    kinds = [r.kind for r in results]
    assert (kinds.count("Safe"), kinds.count("Unsafe"),
            kinds.count("ModelError")) == (13, 10, 17)


def test_path_ceiling_at_and_one_below_each_path_count():
    # at the oracle's path count n the search is as unbounded; at n - 1 it
    # ends in a ModelError after exactly n - 1 paths
    branching = 0
    for seed in SEEDS:
        gen = generate(seed)
        n = flat_check(gen.model, gen.bound,
                       gen.init_points, gen.step_points).paths
        unbounded = explore(gen.model, gen.bound)
        assert explore(gen.model, gen.bound, path_ceiling=n) == unbounded, \
            f"seed {seed}"
        if n >= 2:
            below = explore(gen.model, gen.bound, path_ceiling=n - 1)
            assert below.kind is VerdictKind.ModelError, f"seed {seed}"
            assert "choice explosion" in below.message, f"seed {seed}"
            assert below.paths_explored == n - 1, f"seed {seed}"
            branching += 1
    assert branching == 76, branching


def test_generated_models_have_bounded_run_counts():
    for seed in list(SEEDS)[:50]:
        for settling in (False, True):
            gen = generate(seed, settling=settling)
            assert 1 <= gen.runs <= 400
