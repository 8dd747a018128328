"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload memory-sweep --seed 3 --seconds 5 --trace 0

Each unit of the workload runs in a fresh child process, one at a time,
in a closed loop until ``--seconds`` have passed (at least once).  Every
operation's outputs are checked against the committed reference for its
input seed.  A few extra child processes stop right before the workload's
first call, so set-up time has enough samples for a median.

``--trace 1`` adds one traced iteration after the untraced ones and
reports the per-layer metrics instead of the end-to-end ones; its
outputs must equal the untraced outputs exactly, and each layer the
workload uses (or bypasses) must show calls (or none).  The spans are
written to ``perfbench/out/<workload>-seed<seed>.trace.json`` as Chrome
trace-event JSON.

``--record`` writes the run's outputs as the reference for the input
seed instead of checking them.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
#: Extra set-up-only processes per run.
SETUP_PROBES = 3
#: Hard limit on one invocation, under the 180 s a run may take.
DEADLINE_S = 170.0


def exit_on_sigterm(signum: int, frame: Any) -> None:
    """Turn SIGTERM into SystemExit, so cleanup code runs."""
    sys.exit(128 + signum)


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Runner:
    """Starts child processes one at a time, within a deadline."""

    def __init__(self, deadline: float, out_dir: Path) -> None:
        self.deadline = deadline
        self.out_dir = out_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.count = 0

    def unit(self, unit: str, seed: int, mode: str) -> Dict[str, Any]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.count += 1
        out = self.out_dir / f"unit-{os.getpid()}-{self.count}.json"
        request = {"unit": unit, "seed": seed, "mode": mode, "out": str(out)}
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", json.dumps(request)],
            cwd=ROOT, env=self.env, stdout=sys.stderr,
        )
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            # On a timeout or a signal, let the child stop its own
            # children (campaign workers) before it is killed.
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"unit {unit} ({mode}) exited {proc.returncode}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        out.unlink()
        result["setup_s"] = result["first_call_mono"] - started
        return result


def check(results: List[Dict[str, Any]], expected: Dict[str, Any],
          units: List[str]) -> List[str]:
    """Mark each operation not ok if it differs from the reference."""
    from perfbench import reference

    problems = []
    for unit, result in zip(units, results):
        want = expected["units"].get(unit, {})
        for op in result["ops"]:
            why = op["error"] if not op["ok"] else reference.mismatch(
                op, want.get(op["name"]), expected["tolerance_c"],
                expected["rel_tolerance"])
            if why:
                op["ok"] = False
                problems.append(f"{unit}/{op['name']}: {why}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _die(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT))
    from perfbench import metrics, reference, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _die(f"unknown workload {args.workload!r}; "
                    f"known: {sorted(workloads.WORKLOADS)}")
    seed = workloads.input_seed(workload, args.seed)
    expected = reference.load(workload.name, seed)
    if expected is None and not args.record:
        return _die(f"no reference for {workload.name} input seed {seed}")
    runner = Runner(deadline, workloads.OUT_DIR)
    units = list(workload.units)

    iterations: List[List[Dict[str, Any]]] = []
    started = time.monotonic()
    while not iterations or time.monotonic() - started < args.seconds:
        iterations.append([runner.unit(u, seed, "run") for u in units])
    if args.record:
        path = reference.write(
            workload.name, seed,
            {u: r["ops"] for u, r in zip(units, iterations[0])})
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
        expected = reference.load(workload.name, seed)
    setups = [unit["setup_s"] for it in iterations for unit in it]
    setups += [runner.unit(units[0], seed, "setup")["setup_s"]
               for _ in range(SETUP_PROBES)]

    problems: List[str] = []
    for it in iterations:
        problems += check(it, expected, units)
    e2e = metrics.end_to_end(iterations, setups)
    checked = [unit for it in iterations for unit in it]

    if args.trace:
        traced = [runner.unit(u, seed, "trace") for u in units]
        for unit, untraced, mine in zip(units, iterations[0], traced):
            for a, b in zip(untraced["ops"], mine["ops"]):
                if not reference.identical(a, b):
                    b["ok"] = False
                    problems.append(f"{unit}/{b['name']}: traced outputs differ")
        problems += check(traced, expected, units)
        checked += traced
        layers = metrics.per_layer(traced, e2e["wall_s"])
        problems += metrics.expectation_failures(workload.name, layers)
        _write_trace(workloads.OUT_DIR / f"{workload.name}-seed{args.seed}.trace.json",
                     units, traced)
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, unit, _ in metrics.PER_LAYER}
        _print_layers(layers)
    else:
        reported = {name: {"value": e2e[name], "unit": unit}
                    for name, unit, _, _ in metrics.END_TO_END}
    _print_end_to_end(workload.name, args.seed, seed, len(iterations), e2e)

    attempted, failed = metrics.op_counts(checked)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def _write_trace(path: Path, units: List[str], traced: List[Dict[str, Any]]) -> None:
    from perfbench.tracing import chrome_trace

    processes = []
    for unit, result in zip(units, traced):
        processes.append((unit, result["trace"]["spans"]))
        processes += [(f"{unit} worker", w["spans"]) for w in result.get("workers", [])]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(processes), handle)


def _print_end_to_end(name: str, seed: int, input_seed: int, n: int,
                      e2e: Dict[str, float]) -> None:
    print(f"{name} seed {seed} (input seed {input_seed}), {n} untraced iteration(s)")
    for key in ("wall_s", "setup_s", "peak_rss_mb", "ok_rate", "error_rate",
                "oracle_pass_rate", "oracle_violations", "paper_err_pct"):
        print(f"  {key:<40} {e2e[key]:.6g}")


def _print_layers(layers: Dict[str, float]) -> None:
    from perfbench.metrics import PER_LAYER

    print("per-layer (traced run):")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<40} {layers[name]:.6g} {unit}")
    ranked = sorted(((v, k) for k, v in layers.items()
                     if k.endswith(".self_s") or k == "runner.dispatch_overhead_s"),
                    reverse=True)
    print("largest self times: " + ", ".join(f"{k} {v:.3f}s" for v, k in ranked[:4]))


if __name__ == "__main__":
    sys.exit(main())
