"""leakscope benchmark: one workload, closed loop, in one process.

    python3 perfbench/run.py --workload dpa-hardened --seed 1 --seconds 36 --trace 0

Runs from the root of a leakscope checkout and imports the package from its
``src``. It writes the workload's inputs (derived from ``--seed``), then runs
the workload's two CLI commands through ``leakscope.cli.main`` again and again
until ``--seconds`` are used, checking every flow's outputs. The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` count
flows, and ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``). A human summary goes to stderr.

``--size smoke`` runs tiny inputs for the harness's own tests; ``--record``
runs one flow and stores its outputs as the reference for that seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up probes: (groups, probes per group). One group runs before each of the
# first flows, so the median spans the run, not one moment of a host whose
# speed changes over seconds.
SETUP_PROBES = {"full": (3, 4), "smoke": (1, 1)}

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        os.environ[var] = str(max(1, min(want, n)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_leakscope():
    """Import the checkout's own package, never an installed copy."""
    src = ROOT / "src"
    if not (src / "leakscope" / "__init__.py").is_file():
        raise SystemExit(f"error: no leakscope package under {src}; "
                         "run from the root of a leakscope checkout")
    sys.path.insert(0, str(src))
    import leakscope
    import leakscope.cli

    if Path(leakscope.__file__).resolve().parent != src / "leakscope":
        raise SystemExit(f"error: imported leakscope from {leakscope.__file__}, not {src}")
    return leakscope


def environment(blas_threads: int) -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": nproc(), "blas_threads": blas_threads,
            "machine": platform.machine()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dpa-hardened", "analyze-vcd", "ttest-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--record", action="store_true",
                   help="run one flow and store its outputs as this seed's reference")
    p.add_argument("--setup-probe", metavar="DIR", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, write inputs, report."""
    import_leakscope()
    from flows import WORKLOADS

    WORKLOADS[args.workload](Path(args.setup_probe), args.seed, args.size).prepare()
    print("ready", flush=True)
    return 0


def probe_setup(args, work: Path, count: int) -> list[float]:
    """Wall times from interpreter start to inputs written, ``count`` samples.

    Each sample is a fresh interpreter, because a user pays the import on
    every command; the parent's own import has already compiled the sources.
    """
    samples = []
    for k in range(count):
        probe = work / f"setup{k}"
        probe.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-probe", str(probe)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
            rc = child.wait()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        shutil.rmtree(probe)
    return samples


def run_flow(wl, cli) -> list[float]:
    """Run the workload's commands; wall time of each. CLI chatter is dropped."""
    times = []
    for argv in wl.commands():
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"leakscope {argv[0]} exited {rc}")
    return times


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def verify(wl, reference, first_obs) -> tuple[dict, list[str]]:
    obs = wl.observe()
    problems = wl.check(obs)
    if reference is not None:
        problems += wl.compare(obs, reference)
    if first_obs is not None:
        problems += [f"flow differs from this run's first flow: {p}"
                     for p in wl.compare(obs, first_obs)]
    return obs, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    blas = cap_blas_threads()
    if args.setup_probe:
        return setup_probe(args)

    import_leakscope()
    import leakscope.cli as cli
    from flows import WORKLOADS
    import tracing as tr

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed, args.size)
        wl.prepare()
        if args.record:
            return record(args, wl, cli)
        reference = load_reference(args.workload).get(str(args.seed)) \
            if args.size == "full" else None
        if reference is None:
            print(f"note: no recorded reference for {args.workload} seed {args.seed} "
                  f"({args.size}); checking invariants and run-to-run equality only",
                  file=sys.stderr)
        flows, spans, setup = measure(args, wl, cli, tr, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not f["ok"] for f in flows)
    ok = [f for f in flows if f["ok"]]
    result = {"correct": failed == 0, "attempted": len(flows), "failed": failed}
    if args.trace:
        metrics = trace_metrics(ok, wl)
        write_spans(args, spans)
    else:
        metrics = end_to_end_metrics(flows, ok, wl, statistics.median(setup))
    result["metrics"] = metrics
    summarize(args, wl, flows, metrics, environment(blas))
    print(json.dumps(result))
    return 0


def measure(args, wl, cli, tr, reference, work):
    """Closed loop of flows until ``--seconds`` would be exceeded.

    A further flow starts only if the previous one predicts it ends in time,
    but at least one flow runs. Untraced, a group of set-up probes runs before
    each of the first flows (and any group left over after the last); probe
    time does not count against ``--seconds``. Traced, no set-up is probed:
    an uncounted smoke-size flow warms the code paths first, then untraced
    and traced flows alternate, at least two of each, so neither side of the
    tracing overhead holds the only cold flow.
    """
    hooks = tr.leakscope_hooks() if args.trace else None
    groups, per_group = SETUP_PROBES[args.size]
    if args.trace:
        groups = 0
        warm_up(args, cli, work)
    min_flows = 4 if args.trace else 1
    flows, spans, setup, first_obs = [], [], [], None
    t_start = time.perf_counter()
    probe_s = 0.0
    while True:
        n = len(flows)
        if n < groups:
            tp = time.perf_counter()
            setup += probe_setup(args, work, per_group)
            probe_s += time.perf_counter() - tp
        f = {"kind": "traced" if args.trace and n % 2 == 1 else "plain", "ok": False}
        t0 = time.perf_counter()
        try:
            if f["kind"] == "traced":
                with tr.Tracer(hooks) as tracer:
                    f["times"] = run_flow(wl, cli)
                f["layers"] = tr.layer_values(tracer.spans)
                spans.append([s.to_json() for s in tracer.spans])
            else:
                f["times"] = run_flow(wl, cli)
            f["rss_mb"] = tr.peak_rss_mb()
            obs, problems = verify(wl, reference, first_obs)
            first_obs = first_obs or obs
            f["ok"] = not problems
            for p in problems:
                print(f"flow {n}: {p}", file=sys.stderr)
        except Exception:
            traceback.print_exc()
        flows.append(f)
        now = time.perf_counter()
        if len(flows) >= min_flows and now - t_start - probe_s + (now - t0) > args.seconds:
            for _ in range(len(flows), groups):
                setup += probe_setup(args, work, per_group)
            return flows, spans, setup


def warm_up(args, cli, work) -> None:
    """One uncounted smoke-size flow: first imports and first calls."""
    from flows import WORKLOADS

    sub = work / "warm-up"
    sub.mkdir()
    try:
        wl = WORKLOADS[args.workload](sub, args.seed, "smoke")
        wl.prepare()
        run_flow(wl, cli)
    except Exception:
        traceback.print_exc()
    shutil.rmtree(sub, ignore_errors=True)


def end_to_end_metrics(flows, ok, wl, setup_s) -> dict:
    """Medians over the flows; peak RSS is the process's after its first
    flow, i.e. what one command pair costs a fresh process."""
    if not ok or not flows[0]["ok"]:
        return {}
    values = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(wl.items / sum(f["times"]) for f in ok),
        "peak_rss_mb": flows[0]["rss_mb"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def trace_metrics(ok, wl) -> dict:
    """Span metrics from the traced flows; command wall times and the
    tracing overhead from the untraced flows of the same run, which holds at
    least two of each kind."""
    import tracing as tr

    traced = [f for f in ok if f["kind"] == "traced"]
    plain = [f for f in ok if f["kind"] == "plain"]
    if not traced or not plain:
        return {}
    values = tr.median_values([f["layers"] for f in traced])
    names = [argv[0] for argv in wl.commands()]
    for cmd in ("simulate", "analyze", "dpa", "ttest"):
        values[f"cli.{cmd}.wall_s"] = statistics.median(
            sum(t for t, n in zip(f["times"], names) if n == cmd) for f in plain)
    t_on = statistics.median(sum(f["times"]) for f in traced)
    t_off = statistics.median(sum(f["times"]) for f in plain)
    values["trace.overhead_pct"] = 100.0 * (t_on / t_off - 1.0)
    return {k: {"value": values[k], "unit": u} for k, (u, _) in tr.LAYER_METRICS.items()}


def write_spans(args, spans) -> None:
    """Spans of every traced flow, written once the run has ended."""
    out = WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "counts"],
                               "flows": spans}))


def summarize(args, wl, flows, metrics, env) -> None:
    err = sys.stderr
    print(f"{args.workload} seed {args.seed} ({args.size}), {len(flows)} flows, "
          f"trace {args.trace}; env {json.dumps(env)}", file=err)
    print(f"  commands: {wl.commands_run[0]}, then {wl.commands_run[1]}; "
          f"{wl.items} items per flow", file=err)
    for i, f in enumerate(flows):
        shown = " + ".join(f"{t:.3f}" for t in f.get("times", []))
        print(f"  flow {i} ({f['kind']}): {shown} s, peak RSS {f.get('rss_mb', 0):.1f} MB"
              f"{'' if f['ok'] else '  FAILED'}", file=err)
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}", file=err)


def record(args, wl, cli) -> int:
    """Run one flow, check it, and store its outputs as the seed's reference."""
    if args.size != "full":
        raise SystemExit("error: references are recorded at full size only")
    run_flow(wl, cli)
    obs, problems = verify(wl, None, None)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 1
    refs = load_reference(args.workload)
    refs[str(args.seed)] = obs
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    rows = sorted(refs.items(), key=lambda kv: int(kv[0]))
    path.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in rows)
                    + "\n}\n")
    print(f"recorded {args.workload} seed {args.seed} in {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
