"""Peak-RSS probes: run code in a fresh interpreter and read that child's own
peak RSS.

Neither ``getrusage`` figure gives it. ``RUSAGE_CHILDREN`` reports the
largest peak of all waited-for children of the test process, and a child's
own ``RUSAGE_SELF.ru_maxrss`` starts at its parent's RSS at the fork: Linux
keeps it across the exec (a 13.5 MB child of a 227 MB parent reads 227 MB).
So the child reads its own high-water mark, ``VmHWM``, which starts afresh
with the exec.
"""

import json
import os
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))


def peak_mb() -> float:
    """This process's own peak RSS in MB (``VmHWM`` of /proc/self/status)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_probe(script: str, *args, timeout: float = 300) -> dict:
    """Run the Python source ``script`` with ``args`` as ``sys.argv[1:]`` in a
    fresh interpreter that imports this checkout's ``leakscope`` and the
    helpers beside this file (``from peak_rss import peak_mb``); return the
    JSON object on its last stdout line."""
    import leakscope

    src = os.path.dirname(os.path.dirname(leakscope.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, _HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                         check=True, capture_output=True, text=True, timeout=timeout).stdout
    return json.loads(out.splitlines()[-1])


_CLI_PROBE = """
import json, sys
from leakscope import cli
from peak_rss import peak_mb

before = peak_mb()
status = cli.main(sys.argv[1:])
print(json.dumps({"status": status, "growth_mb": peak_mb() - before}))
"""


def cli_rss_growth_mb(argv) -> float:
    """Peak-RSS growth in MB of ``leakscope.cli.main(argv)`` in a fresh
    interpreter, from after the import of ``leakscope.cli`` to its return;
    the command must exit 0."""
    probe = run_probe(_CLI_PROBE, *argv)
    if probe["status"] != 0:
        raise AssertionError(f"leakscope {' '.join(map(str, argv))} exited {probe['status']}")
    return probe["growth_mb"]
