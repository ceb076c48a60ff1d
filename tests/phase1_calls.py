"""Observe the phase-1 stages directly: ``run_phase1`` returns the unified
table, the molecular stage and the loss histories, not the graph-stage
weights, the initial features, the assembled rows or the autoencoders."""

# the names ``pipeline.run_phase1`` calls to build what its result leaves out
PHASE1_STAGES = ("HgreParams", "hgre_forward", "assemble_features",
                 "AutoencoderParams")


def record_calls(mp, module, names=PHASE1_STAGES) -> dict[str, list]:
    """Wrap each of ``module``'s ``names`` through the monkeypatch ``mp`` so
    that every call appends ``(args, result)`` to ``calls[name]``; returns
    ``calls``.  A recorded module is the object the stage goes on to train."""
    calls = {name: [] for name in names}

    def wrap(name, original):
        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name].append((args, result))
            return result
        return call

    for name in names:
        mp.setattr(module, name, wrap(name, getattr(module, name)))
    return calls


def initial_features(calls):
    """The initial node features of the one recorded ``run_phase1``: the
    graph stage's input, or with that stage off, what feature assembly
    receives in its place."""
    if calls["hgre_forward"]:
        (args, _), = calls["hgre_forward"]
        return args[0].data
    (args, _), = calls["assemble_features"]
    return args[0]
