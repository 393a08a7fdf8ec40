"""One benchmark process: set up a workload, then time passes over it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; never run by hand.  Modes:

``setup``
    import ``hompoly``, write the V-files, run the warm-up item, report
    the set-up time and exit.
``measure``
    set up, then run whole passes over the items until the next pass
    would end after ``--seconds``.
``trace``
    set up, run untraced passes for half of ``--seconds``, then traced
    passes for the other half, and report per-layer metrics.

Set-up time runs from ``--t0``, the parent's ``time.monotonic()`` just
before it started this process, so interpreter start-up is included.
A :class:`speed.Sampler` runs from before ``hompoly`` is imported until
the last pass ends.  ``setup_s`` and ``pass_times`` are scaled to its
reference speed; the raw wall times are reported beside them.
The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path

import spans
import speed
import workloads


def run_item(item: workloads.Item) -> tuple:
    """(status, output); an item that raises gets status None."""
    try:
        return item.run()
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def problem_of(item: workloads.Item, output: tuple) -> str | None:
    """Why an output is wrong, or None when it matches its reference."""
    status, out = output
    if status is None:
        return "raised " + out
    try:
        return item.check(status, out)
    except (ValueError, IndexError) as exc:
        return f"unreadable output ({exc})"


def run_passes(
    workload: workloads.Workload, seconds: float, sampler: speed.Sampler, checker: Checker, tracer=None
) -> dict:
    """Whole passes until the next one would end after ``seconds``.

    ``sampler`` runs throughout.  An item's raw time leaves out the time
    spent in the sampler's handler; a pass's time is the sum of its items'
    raw times, scaled over the samples taken during the pass.  Each
    pass's outputs go to ``checker`` after the pass, outside its time.
    """
    pass_times: list[float] = []
    raw_pass_times: list[float] = []
    speed_factors: list[float] = []
    item_times: dict[str, list[float]] = {item.name: [] for item in workload.items}
    begin = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same collector state
        lap = time.perf_counter()
        since = sampler.mark()
        raw = 0.0
        outputs = []
        for item in workload.items:
            if tracer is not None:
                tracer.item = (len(pass_times), item.name)
                root = tracer.begin("item")
            spent = sampler.spent
            t = time.perf_counter()
            output = run_item(item)
            took = time.perf_counter() - t - (sampler.spent - spent)
            if tracer is not None:
                tracer.end(root)
            item_times[item.name].append(took)
            outputs.append((item, output))
            raw += took
        end = time.perf_counter()
        pass_times.append(sampler.scale(raw, since))
        raw_pass_times.append(raw)
        speed_factors.append(pass_times[-1] / raw)
        for item, output in outputs:
            checker.add(item, output)
        if time.perf_counter() - begin + (end - lap) > seconds:
            break
    return {
        "pass_times": pass_times,
        "raw_pass_times": raw_pass_times,
        "speed_factors": speed_factors,
        "item_times": item_times,
    }


class Checker:
    """Checks outputs against their references, one pass at a time.

    Outputs are checked after each pass and then dropped, so peak memory
    does not grow with the number of passes a run makes.
    """

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, list[str]] = {}

    def add(self, item: workloads.Item, output: tuple) -> None:
        self.attempted += 1
        problem = problem_of(item, output)
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{item.name}: {problem}")
            return
        digest = hashlib.sha256(item.text(output[1]).encode()).hexdigest()
        if digest not in self.digests.setdefault(item.name, []):
            self.digests[item.name].append(digest)

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "digests": self.digests,
        }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sampler = speed.Sampler()
    checker = Checker()
    sampler.start()
    try:
        import hompoly.cli  # noqa: F401  (importing the program is part of set-up)

        workload = workloads.build(args.workload, args.seed, args.workdir)
        warmup = run_item(workload.warmup)
        setup_raw_s = time.monotonic() - args.t0 - sampler.spent
        result: dict = {"setup_s": sampler.scale(setup_raw_s, 0), "setup_raw_s": setup_raw_s}
        if args.mode == "measure":
            measured = run_passes(workload, args.seconds, sampler, checker)
        elif args.mode == "trace":
            plain = run_passes(workload, args.seconds / 2, sampler, checker)
            before = spans.bindings()
            tracer = spans.Tracer()
            try:
                tracer.install()
                patched = tracer.patched_names()
                traced = run_passes(workload, args.seconds / 2, sampler, checker, tracer)
            finally:
                tracer.remove()
            restored = spans.bindings() == before
    finally:
        sampler.stop()

    if args.mode == "measure":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(measured)
    elif args.mode == "trace":
        per_pass = [spans.layer_totals(p) for p in spans.split_by_pass(tracer.spans)]
        layers = spans.median_layers(per_pass)
        counts_repeat = all(
            p[k] == per_pass[0][k] for p in per_pass for k in p if spans.unit(k) == "count"
        )
        plain_wall = statistics.median(plain["pass_times"])
        traced_wall = statistics.median(traced["pass_times"])
        layers["trace.overhead_ratio"] = traced_wall / plain_wall - 1
        with gzip.open(args.workdir / "spans.jsonl.gz", "wt") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
        result.update(
            layers=layers,
            pass_times=plain["pass_times"],
            raw_pass_times=plain["raw_pass_times"],
            speed_factors=plain["speed_factors"],
            traced_pass_times=traced["pass_times"],
            patched=patched,
            restored=restored,
            counts_repeat=counts_repeat,
        )
    # the warm-up item counts as one more attempted item
    checker.add(workload.warmup, warmup)
    result.update(checker.result())
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
