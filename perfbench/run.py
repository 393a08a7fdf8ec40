"""hompoly benchmark: one workload, timed end to end or traced by layer.

Run from the root of a source checkout (it needs ``src/hompoly``)::

    python3 perfbench/run.py --workload table --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload table --seed 1 --seconds 26 --trace 1

The untraced run (``--trace 0``) starts a few set-up-only processes and
one measuring process, and reports ``setup_s``, ``wall_s``,
``peak_rss_mb`` and ``pass_ratio``; its times are scaled to a reference
machine speed (see ``speed.py``).  The traced run (``--trace 1``)
reports the per-layer metrics listed in ``BENCHMARK.json``.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full run record (machine
facts, per-pass and per-item times, stdout digests, failures) is written
under ``perfbench/out/``.  The exit status is 0 only when every item's
output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import unit
from speed import REFERENCE_UNIT_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# Set-up-only processes started besides the measuring one; set-up time is
# the median over all of them.
SETUP_PROCESSES = 4
# Every process must end well inside the three-minute limit of one run.
PROCESS_TIMEOUT_S = 150


def machine_facts() -> dict:
    """Read-only facts about the machine the run used."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def start_worker(mode: str, args: argparse.Namespace, workdir: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir), "--out", str(out),
    ]
    timeout = max(1.0, min(PROCESS_TIMEOUT_S, deadline - time.monotonic()))
    t0 = time.monotonic()
    done = subprocess.run(
        command + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} process failed:\n{done.stderr.strip()}")
    return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (Path.cwd() / "src" / "hompoly" / "__init__.py").is_file():
        print("perfbench: run from the root of a hompoly checkout (no src/hompoly here)", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + 170
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "load_1min_start": os.getloadavg()[0],
    }

    try:
        if args.trace:
            setup_results = []
        else:
            setup_results = [
                start_worker("setup", args, out_dir / f"setup{k}", deadline) for k in range(SETUP_PROCESSES)
            ]
        main_result = start_worker("trace" if args.trace else "measure", args, out_dir / "main", deadline)
        setup_results.append(main_result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = main_result["attempted"]
    failed = main_result["failed"]
    passes = main_result["pass_times"]
    setup_samples = [r["setup_s"] for r in setup_results]
    record.update(
        load_1min_end=os.getloadavg()[0],
        reference_unit_s=REFERENCE_UNIT_S,
        setup_samples_s=setup_samples,
        setup_raw_samples_s=[r["setup_raw_s"] for r in setup_results],
        pass_count=len(passes),
        pass_times_s=passes,
        **{k: v for k, v in main_result.items() if not k.startswith("setup_") and k != "pass_times"},
    )
    correct = failed == 0 and main_result.get("restored", True) and main_result.get("counts_repeat", True)

    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in main_result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mb": {"value": main_result["peak_rss_mb"], "unit": "MiB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
        }
    record["metrics"] = metrics
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    traced = main_result.get("traced_pass_times", [])
    print(
        f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
        + (f" untraced, {len(traced)} traced" if args.trace else "")
        + f"  items attempted {attempted}"
    )
    if not args.trace:
        print(f"fail_ratio  {failed / attempted:g}  ({failed} of {attempted} items)")
        raw = statistics.median(main_result["raw_pass_times"])
        factor = statistics.median(main_result["speed_factors"])
        print(f"median unscaled pass {raw:.6g} s, median speed factor {factor:.4g}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    for failure in main_result["failures"]:
        print(f"FAILED {failure}")
    if not main_result.get("restored", True):
        print("FAILED the tracer left wrapped functions bound in hompoly")
    if not main_result.get("counts_repeat", True):
        print("FAILED a per-layer count differed between traced passes")
    print(f"record: {out_dir / 'record.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
