"""The benchmark's span hooks (``perfbench/tracing.py``) name attributes
that exist, so renaming a traced function fails here, fast, naming it; and
every hook records a span in the benchmark's own flows, so a function that
the flows stop calling fails here too. The call and row counts that the
benchmark's smoke tests pin are checked here in-process, in about a second."""

import importlib.util
from pathlib import Path

import numpy as np

from leakscope import cli, metrics

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


def test_a_64_class_ttest_matrix_makes_one_welch_call_per_pair():
    rng = np.random.default_rng(64)
    classes = {f"set{s:02d}": rng.normal(s, 1.0, 20) for s in range(64)}
    with tracing.Tracer(tracing.leakscope_hooks()) as tracer:
        metrics.pairwise_ttest_matrix(classes)
    assert tracing.layer_values(tracer.spans)["metrics.welch_t.calls"] == 64 * 63 // 2


def test_smoke_dpa_flow_attacks_the_pinned_number_of_trace_rows(tmp_path, capsys):
    wl = flows.WORKLOADS["dpa-hardened"](tmp_path, seed=3, size="smoke")
    wl.prepare()
    with tracing.Tracer(tracing.leakscope_hooks()) as tracer:
        for argv in wl.commands():
            assert cli.main(argv) == 0, f"{argv[0]}\n{capsys.readouterr().err}"
    # final attack + MTD + evolution over checkpoints 100, 200, 300
    rows = tracing.layer_values(tracer.spans)["cpa.cpa_attack.trace_rows"]
    assert rows == 300 + 2 * (100 + 200 + 300)
