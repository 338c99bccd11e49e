"""The benchmark's span hooks (``perfbench/tracing.py``) name attributes
that exist, so renaming a traced function fails here, fast, naming it; and
every hook records a span in the benchmark's own flows, so a function that
the flows stop calling fails here too."""

import importlib.util
from pathlib import Path

from leakscope import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
flows = _load("flows")


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_benchmark_hook_resolves_and_is_restored():
    hooks = tracing.leakscope_hooks()
    before = [_current(owner, attr) for owner, attr, _, _ in hooks]
    with tracing.Tracer(hooks):  # a missing name raises KeyError/AttributeError naming it
        assert all(_current(o, a) is not f for (o, a, _, _), f in zip(hooks, before))
    assert [_current(owner, attr) for owner, attr, _, _ in hooks] == before


def test_every_benchmark_hook_fires_in_the_smoke_flows(tmp_path, capsys):
    hooks = tracing.leakscope_hooks()
    with tracing.Tracer(hooks) as tracer:
        for name, workload in sorted(flows.WORKLOADS.items()):
            (tmp_path / name).mkdir()
            wl = workload(tmp_path / name, seed=1, size="smoke")
            wl.prepare()
            for argv in wl.commands():
                assert cli.main(argv) == 0, f"{name}: {argv[0]}\n{capsys.readouterr().err}"
    fired = {span.name for span in tracer.spans}
    assert sorted({name for _, _, name, _ in hooks} - fired) == []
