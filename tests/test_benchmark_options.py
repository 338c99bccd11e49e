"""Every CLI vector the benchmark runs (``perfbench/flows.py``) parses, so
renaming or removing a flag it passes fails here, fast, naming the flag."""

import importlib.util
from pathlib import Path

import pytest

from leakscope import cli

FLOWS = Path(__file__).resolve().parents[1] / "perfbench" / "flows.py"
_spec = importlib.util.spec_from_file_location("perfbench_flows", FLOWS)
flows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flows)


@pytest.mark.parametrize("name", sorted(flows.WORKLOADS))
def test_every_benchmark_command_parses(name, tmp_path, capsys):
    workload = flows.WORKLOADS[name](tmp_path, seed=1, size="smoke")
    workload.prepare()
    parser = cli.build_parser()
    for argv in workload.commands():
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: {' '.join(argv)}\n{capsys.readouterr().err}")
