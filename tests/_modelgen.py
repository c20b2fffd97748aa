"""Random small-model generator for cross-checking the explorer.

Every generated model draws from each of its choice points exactly once per
iteration, on a fixed schedule, so the set of complete runs is exactly the
cartesian product of all choice domains over the bound.  That property is
what lets the flat-enumeration oracle in _oracle.py enumerate runs without
any knowledge of the search algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hilcheck.engine import (Assertion, ChoicePoint, Group, IntDomain,
                             UpdateFunctions, Var, register_model)

# slots that may draw, in the order the engine executes them
_DRAW_SLOTS = (Group.ENV_INPUT, Group.BEH_INPUT, Group.ENV_OUTPUT,
               Group.BEH_OUTPUT, Group.ENV_STATE, Group.BEH_STATE)

_SLOT_VAR = {
    Group.ENV_INPUT: "ei", Group.SYS_INPUT: "si", Group.BEH_INPUT: "bi",
    Group.ENV_OUTPUT: "eo", Group.SYS_OUTPUT: "so", Group.BEH_OUTPUT: "bo",
    Group.ENV_STATE: "e", Group.SYS_STATE: "s", Group.BEH_STATE: "b",
}


@dataclass(frozen=True)
class GeneratedModel:
    model: object
    bound: int
    init_domains: tuple[tuple[int, ...], ...]
    step_domains: tuple[tuple[int, ...], ...]  # draws per iteration, in order

    @property
    def runs(self) -> int:
        total = 1
        for dom in self.init_domains:
            total *= len(dom)
        per_iter = 1
        for dom in self.step_domains:
            per_iter *= len(dom)
        return total * per_iter ** self.bound


def _rand_domain(rng: random.Random) -> tuple[int, ...]:
    size = rng.randint(1, 3)
    return tuple(sorted(rng.sample(range(0, 5), size)))


def generate(seed: int, max_runs: int = 400) -> GeneratedModel:
    """Build one random model whose complete-run count is at most max_runs."""
    rng = random.Random(seed)

    caps = {name: rng.randint(2, 6) for name in _SLOT_VAR.values()}
    variables = [Var(name, group, IntDomain(0, caps[name]))
                 for group, name in _SLOT_VAR.items()]
    coeff = {name: rng.randint(1, 2) for name in _SLOT_VAR.values()}
    offset = {name: rng.randint(0, 3) for name in _SLOT_VAR.values()}

    bound = rng.randint(2, 4)
    # keep sampling draw layouts until the run count fits the budget
    for _ in range(50):
        n_init = rng.randint(0, 2)
        init_domains = tuple(_rand_domain(rng) for _ in range(n_init))
        site_of: list[Group] = []
        for slot in _DRAW_SLOTS:
            for _ in range(rng.randint(0, 1)):
                site_of.append(slot)
        step_domains = tuple(_rand_domain(rng) for _ in site_of)
        total = 1
        for dom in init_domains:
            total *= len(dom)
        per_iter = 1
        for dom in step_domains:
            per_iter *= len(dom)
        if total * per_iter ** bound <= max_runs:
            break
        bound = max(2, bound - 1)

    choices = []
    draw_ids: dict[Group, list[str]] = {slot: [] for slot in _DRAW_SLOTS}
    for k, (slot, dom) in enumerate(zip(site_of, step_domains)):
        cp = ChoicePoint(f"d{k}", dom, site=slot)
        choices.append(cp)
        draw_ids[slot].append(cp.point_id)

    def clamp(name: str, value: int) -> int:
        return value % (caps[name] + 1)

    def drawn_sum(ctx, slot: Group) -> int:
        return sum(ctx.choose(point_id) for point_id in draw_ids[slot])

    def env_input(so, e, ctx):
        return {"ei": clamp("ei", so.so + coeff["ei"] * e.e + offset["ei"]
                            + drawn_sum(ctx, Group.ENV_INPUT))}

    def sys_input(bo, eo, s):
        return {"si": clamp("si", bo.bo + eo.eo + coeff["si"] * s.s
                            + offset["si"])}

    def beh_input(b, eo, so, ctx):
        return {"bi": clamp("bi", coeff["bi"] * b.b + eo.eo + so.so
                            + offset["bi"] + drawn_sum(ctx, Group.BEH_INPUT))}

    def env_output(ei, e, ctx):
        return {"eo": clamp("eo", ei.ei + coeff["eo"] * e.e + offset["eo"]
                            + drawn_sum(ctx, Group.ENV_OUTPUT))}

    def sys_output(si, s):
        return {"so": clamp("so", si.si + coeff["so"] * s.s + offset["so"])}

    def beh_output(bi, b, ctx):
        return {"bo": clamp("bo", bi.bi + coeff["bo"] * b.b + offset["bo"]
                            + drawn_sum(ctx, Group.BEH_OUTPUT))}

    def env_state(ei, e, ctx):
        return {"e": clamp("e", ei.ei + coeff["e"] * e.e + offset["e"]
                           + drawn_sum(ctx, Group.ENV_STATE))}

    def sys_state(si, s):
        return {"s": clamp("s", si.si + coeff["s"] * s.s + offset["s"])}

    def beh_state(bi, b, ctx):
        return {"b": clamp("b", bi.bi + coeff["b"] * b.b + offset["b"]
                           + drawn_sum(ctx, Group.BEH_STATE))}

    updates = UpdateFunctions(
        env_input=env_input, sys_input=sys_input, beh_input=beh_input,
        env_output=env_output, sys_output=sys_output, beh_output=beh_output,
        env_state=env_state, sys_state=sys_state, beh_state=beh_state)

    init = {(group, name): rng.randint(0, caps[name])
            for group, name in _SLOT_VAR.items()}

    init_targets = rng.sample(["e", "s", "b"], len(init_domains))
    init_choices = []
    for k, (name, dom) in enumerate(zip(init_targets, init_domains)):
        dom = tuple(v % (caps[name] + 1) for v in dom)
        dom = tuple(dict.fromkeys(dom))  # dedupe, keep order
        group = next(g for g, n in _SLOT_VAR.items() if n == name)
        init_choices.append(((group, name),
                             ChoicePoint(f"init{k}", dom, site=None)))
    init_domains = tuple(cp.domain for _, cp in init_choices)

    assertions = []
    for k in range(rng.randint(1, 2)):
        watched = rng.sample(list(_SLOT_VAR.items()), 3)
        weights = [rng.randint(0, 2) for _ in watched]
        modulus = rng.randint(3, 7)
        forbidden = rng.randrange(modulus)

        def pred(state, watched=watched, weights=weights,
                 modulus=modulus, forbidden=forbidden):
            total = sum(w * state.value(group, name)
                        for w, (group, name) in zip(weights, watched))
            return total % modulus != forbidden

        assertions.append(Assertion(f"a{k}", pred))

    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           init=init, init_choices=init_choices,
                           name=f"gen{seed}")
    return GeneratedModel(model=model, bound=bound,
                          init_domains=init_domains,
                          step_domains=step_domains)
