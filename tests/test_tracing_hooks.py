"""The benchmark's span hooks (``perfbench/tracing.py``) name attributes
that exist, so renaming a traced function fails here, fast, naming it."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_benchmark_hook_resolves_and_is_restored():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = tracing.leakscope_hooks()

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [current(owner, attr) for owner, attr, _, _ in hooks]
    with tracing.Tracer(hooks):  # a missing name raises KeyError/AttributeError naming it
        assert all(current(o, a) is not f for (o, a, _, _), f in zip(hooks, before))
    assert [current(owner, attr) for owner, attr, _, _ in hooks] == before
