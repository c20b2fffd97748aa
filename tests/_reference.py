"""A reference transition, written from README's semantics alone.

It knows nothing of how the engine steps: no position table, no view
classes, no step plan, and no shortcut for a write that changes nothing.
A valuation is a dict from (Group, name) to value.  The nine update
functions run in README's order, inputs, then states, then outputs, each
model's in environment, system, behaviour order.  Inputs see the previous
valuation's outputs and states; a state update sees its model's new input
and old state, and an output its new input and new state.  Every value an
update returns is checked against its variable's domain, and a variable it
omits keeps its value.  Environment and behaviour updates get a context of
their own, which draws only the points sited at their group, and only
during their call, however it ends.
"""

from __future__ import annotations

from hilcheck.engine import ChoiceEntry, Group, ModelError

G = Group

# (update, the group it writes, the groups it reads); a read marked new
# sees this step's value, any other the previous iteration's
ORDER = (
    ("env_input", G.ENV_INPUT, ((G.SYS_OUTPUT, "old"), (G.ENV_STATE, "old"))),
    ("sys_input", G.SYS_INPUT, ((G.BEH_OUTPUT, "old"), (G.ENV_OUTPUT, "old"),
                                (G.SYS_STATE, "old"))),
    ("beh_input", G.BEH_INPUT, ((G.BEH_STATE, "old"), (G.ENV_OUTPUT, "old"),
                                (G.SYS_OUTPUT, "old"))),
    ("env_state", G.ENV_STATE, ((G.ENV_INPUT, "new"), (G.ENV_STATE, "old"))),
    ("sys_state", G.SYS_STATE, ((G.SYS_INPUT, "new"), (G.SYS_STATE, "old"))),
    ("beh_state", G.BEH_STATE, ((G.BEH_INPUT, "new"), (G.BEH_STATE, "old"))),
    ("env_output", G.ENV_OUTPUT, ((G.ENV_INPUT, "new"), (G.ENV_STATE, "new"))),
    ("sys_output", G.SYS_OUTPUT, ((G.SYS_INPUT, "new"), (G.SYS_STATE, "new"))),
    ("beh_output", G.BEH_OUTPUT, ((G.BEH_INPUT, "new"), (G.BEH_STATE, "new"))),
)
SYSTEM = {G.SYS_INPUT, G.SYS_OUTPUT, G.SYS_STATE}


class View:
    """One group's values, read by attribute or by item."""

    def __init__(self, group: Group, values: dict):
        self._group = group
        self._values = values

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return self[name]

    def __getitem__(self, name):
        if name not in self._values:
            raise ModelError(f"no variable '{name}' in group {self._group.value}")
        return self._values[name]


class Context:
    """Draws the points sited at one group while its update runs."""

    def __init__(self, model, group, iteration, values, log):
        self._model = model
        self._group = group
        self._iteration = iteration
        self._values = values
        self._log = log
        self._open = True

    def choose(self, point_id):
        point = self._model.choices.get(point_id)
        if not self._open or point is None or point.site is not self._group:
            raise ModelError(f"{point_id} cannot be drawn here")
        value = next(self._values, point.domain[0])
        if not any(type(member) is type(value) and member == value
                   for member in point.domain):
            raise ModelError(f"drew {value!r}, outside the domain of "
                             f"'{point_id}'")
        self._log.append(ChoiceEntry(self._iteration, point_id, value))
        return value


def reference_step(model, state, values=()):
    """The values and draws of the step after `state`, as `step` would
    return them: (the new values in declared order, the draws)."""
    old = {(var.group, var.name): value
           for var, value in zip(model.variables, state.values)}
    new = dict(old)
    values = iter(values)
    log: list[ChoiceEntry] = []
    iteration = state.iteration + 1
    for update, target, reads in ORDER:
        views = [View(group, {name: (new if when == "new" else old)[g, name]
                              for g, name in old if g is group})
                 for group, when in reads]
        if target in SYSTEM:
            returned = getattr(model.updates, update)(*views)
        else:
            ctx = Context(model, target, iteration, values, log)
            try:
                returned = getattr(model.updates, update)(*views, ctx)
            finally:
                ctx._open = False
        for name, value in returned.items():
            var = next(v for v in model.variables
                       if v.group is target and v.name == name)
            if not var.domain.contains(value):
                raise ModelError(f"update produced {value!r} for {var}, "
                                 "outside its domain")
            new[target, name] = value
    return tuple(new[var.group, var.name] for var in model.variables), \
        tuple(log)
