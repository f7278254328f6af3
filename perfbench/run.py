"""hamfix benchmark: run one workload and print its metrics.

Run from the root of a hamfix checkout (the directory holding ``src/hamfix``):

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload solve-wide --seed 1 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of a timed run; ``--trace 1``
prints the per-layer metrics of one traced pass.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BUILDERS = {
    "analyze": workloads.build_analyze,
    "solve-deep": workloads.build_solve_deep,
    "solve-wide": workloads.build_solve_wide,
    "cli": workloads.build_cli,
}
# Set-ups before every pass, so that the set-ups of a run are spread
# over the whole of it.
SETUPS_PER_PASS = 5
# An item's time is its fastest of at least this many passes, and it
# runs on another CPU the process may use in each pass.  On a shared VM each
# virtual CPU runs at about half speed for seconds, sometimes for a whole
# run, while the other runs at full speed; an item timed seconds apart on
# each CPU is almost always timed once at full speed, whereas a median
# over the run rests on how much of the run was slow.
MIN_PASSES = 3
INTERPRETER = "cli.interpreter"
KNOWN_DEFECTS = {"ring-invalid"}


class CheckoutError(Exception):
    """The working directory is not a hamfix checkout."""


@dataclass
class Context:
    root: Path
    tmp: Path
    children: workloads.Children


@dataclass
class Outcome:
    # The item's id and kind, not the item: an item holds the hamfix
    # modules of its set-up, which would then outlive their pass.
    id: str
    kind: str
    seconds: float
    failure: str | None = None


def fresh_import(root: Path):
    """Import hamfix from the checkout, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "hamfix" or m.startswith("hamfix.")]:
        del sys.modules[name]
    hf = importlib.import_module("hamfix")
    if Path(hf.__file__).resolve().parent != (root / "src" / "hamfix").resolve():
        raise CheckoutError(f"imported hamfix from {hf.__file__}, not from this checkout")
    return hf


def build(name: str, hf, seed: int, smoke: bool, ctx: Context):
    rng = random.Random(f"{name}:{seed}")
    if name == "cli":
        return BUILDERS[name](hf, rng, smoke, ctx.root, ctx.tmp, ctx.children)
    return BUILDERS[name](hf, rng, smoke)


def set_up(name: str, seed: int, smoke: bool, ctx: Context):
    """Import, generate the inputs and warm up; returns (seconds, hf, items)."""
    gc.collect()  # every set-up starts from the same heap, not from the last one's garbage
    start = perf_counter()
    hf = fresh_import(ctx.root)
    items, warmup = build(name, hf, seed, smoke, ctx)
    for item in warmup:
        try:
            item.call()
        except Exception:  # noqa: BLE001 - the same item fails, and is counted, in the timed passes
            pass
    return perf_counter() - start, hf, items


CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_to_cpu(turn: int | None):
    """Run on the CPU whose turn it is, or on all of them again (None)."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS if turn is None else {CPUS[turn % len(CPUS)]})


def run_pass(items, outcomes: list[Outcome], tracer: tracing.Tracer | None = None, turn: int | None = None):
    """Run and check every item once.  With ``turn``, item j runs on the
    CPU whose turn is ``turn + j``, so consecutive items, and one item in
    consecutive passes, run on different CPUs."""
    for j, item in enumerate(items):
        if turn is not None:
            pin_to_cpu(turn + j)
        if tracer is not None:
            tracer.item = item.id
            tracer.active = True
        start = perf_counter()
        try:
            value = item.call()
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising item is a failed item
            value, error = None, exc
        end = perf_counter()
        if tracer is not None:
            tracer.active = False
            if item.kind.startswith("cli."):
                tracer.record(item.kind, start, end)
        outcome = Outcome(item.id, item.kind, end - start)
        if error is not None:
            outcome.failure = f"raised {type(error).__name__}: {error}"
        else:
            try:
                item.check(value)
            except workloads.Mismatch as exc:
                outcome.failure = str(exc)
        outcomes.append(outcome)


def latencies(outcomes: list[Outcome]) -> list[float]:
    """One latency in seconds per item that met its oracle in every pass:
    its fastest time over the passes.  A cli item's is net of the median
    of the bare interpreters' fastest times.  An item that failed in any
    pass is left out, so a fast failure cannot raise the figures."""
    best: dict[str, float] = {}
    failed, base_ids = set(), set()
    for o in outcomes:
        if o.failure is not None:
            failed.add(o.id)
        best[o.id] = min(best.get(o.id, o.seconds), o.seconds)
        if o.kind == INTERPRETER:
            base_ids.add(o.id)
    base = [best[i] for i in base_ids - failed]
    offset = statistics.median(base) if base else 0.0
    return [t - offset for i, t in best.items() if i not in failed and i not in base_ids]


def items_per_s(outcomes: list[Outcome]) -> float:
    lat = latencies(outcomes)
    return len(lat) / sum(lat) if lat else 0.0


def summary(outcomes: list[Outcome]) -> dict:
    """``attempted`` and ``failed`` count the workload's items (not the bare
    interpreter runs); ``correct`` is false on any failure but a known defect."""
    counted = [o for o in outcomes if o.kind != INTERPRETER]
    failures = [o for o in counted if o.failure is not None]
    return {
        "correct": all(o.id in KNOWN_DEFECTS for o in outcomes if o.failure is not None),
        "attempted": len(counted),
        "failed": len(failures),
        "failures": failures,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(name: str, seed: int, seconds: float, smoke: bool, ctx: Context):
    setups = []
    outcomes: list[Outcome] = []
    passes = 0
    start = perf_counter()
    # Whole passes only, each over the same seeded items, so every item
    # has a time from every pass.
    while True:
        pin_to_cpu(passes)
        for _ in range(SETUPS_PER_PASS):
            elapsed, _, items = set_up(name, seed, smoke, ctx)
            setups.append(elapsed)
        run_pass(items, outcomes, turn=passes)
        passes += 1
        if passes >= MIN_PASSES and perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    pin_to_cpu(None)

    lat = sorted(latencies(outcomes))
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "items_per_s": metric(items_per_s(outcomes), "1/s"),
        "item_ms_p50": metric(1000.0 * statistics.median(lat) if lat else 0.0, "ms"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    result = summary(outcomes)
    lines = [
        f"workload {name}, seed {seed}: {len(lat)} items in {passes} passes, {wall:.2f} s",
        f"item_ms_p50 over the {len(lat)} items that met their oracle, each timed by its fastest of {passes} passes on {max(len(CPUS), 1)} CPUs in turn",
        f"setup_s is the median of {len(setups)} set-ups, {SETUPS_PER_PASS} before each pass",
    ]
    if len(lat) >= 100:
        p90 = statistics.quantiles(lat, n=10)[-1]
        lines.append(f"item_ms_p90 {1000.0 * p90:.3f} ms over {len(lat)} items")
    return result, metrics, lines


def traced_run(name: str, seed: int, smoke: bool, ctx: Context):
    _, hf, items = set_up(name, seed, smoke, ctx)
    untraced: list[Outcome] = []
    run_pass(items, untraced)

    tracer = tracing.Tracer()
    tracer.install(hf)
    try:
        tracer.item, tracer.active = "setup", True
        items, _ = build(name, hf, seed, smoke, ctx)
        tracer.active = False
        traced: list[Outcome] = []
        run_pass(items, traced, tracer)
        tracer.active = True
        workloads.run_probe(hf, ctx.children, tracer, ctx.root, ctx.tmp)
        tracer.active = False
    finally:
        tracer.uninstall()

    metrics = {k: metric(v, unit) for k, (v, unit) in tracing.layer_metrics(tracer.spans).items()}
    fast, slow = items_per_s(untraced), items_per_s(traced)
    metrics["trace.items_per_s"] = metric(slow, "1/s")
    metrics["trace.untraced_items_per_s"] = metric(fast, "1/s")
    metrics["trace.overhead_pct"] = metric(100.0 * (fast / slow - 1.0), "%")

    out = ctx.root / ".perfbench" / f"trace-{name}-seed{seed}.json"
    out.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    result = summary(untraced + traced)
    lines = [
        f"workload {name}, seed {seed}: one untraced and one traced pass of {result['attempted'] // 2} items",
        f"{len(tracer.spans)} spans written to {out.relative_to(ctx.root)}",
    ]
    return result, metrics, lines


def report(result: dict, metrics: dict, lines: list[str]):
    for line in lines:
        print(line)
    for key, m in metrics.items():
        print(f"  {key} = {m['value']} {m['unit']}")
    print(f"failed_ratio {result['failed']}/{result['attempted']}")
    first = {}
    for o in result["failures"]:
        first.setdefault(o.id, o)
    for o in list(first.values())[:5]:
        print(f"  failed {o.id}: {o.failure}")
    payload = {k: result[k] for k in ("correct", "attempted", "failed")}
    payload["metrics"] = metrics
    print(json.dumps(payload))


def smoke(ctx: Context) -> bool:
    """Each workload at its smallest size: metric names and units as in
    BENCHMARK.json, no failures but the known ring defect, and the same
    counts from two traced runs."""
    spec = json.loads((ctx.root / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True

    def verdict(passed: bool, text: str):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {text}")

    for name in BUILDERS:
        runs = [timed_run(name, 1, 0.0, True, ctx)] + [traced_run(name, 1, True, ctx) for _ in range(2)]
        for (result, metrics, _), want in zip(runs, (want_e2e, want_layer, want_layer)):
            got = {k: m["unit"] for k, m in metrics.items()}
            verdict(got == want, f"{name}: metrics and units {'match' if got == want else sorted(set(got.items()) ^ set(want.items()))}")
            unexpected = sorted({o.id for o in result["failures"]} - KNOWN_DEFECTS)
            verdict(not unexpected and result["correct"], f"{name}: no failures but the known ring defect {unexpected}")
        counts = [
            {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"} for _, metrics, _ in runs[1:]
        ]
        verdict(counts[0] == counts[1], f"{name}: traced counts repeat {counts[0]}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check every workload at its smallest size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    for needed in ("src/hamfix/__init__.py", "tests/data/cp2.golden.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a hamfix checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(root / "src"))
    # Every workload, in process and in the cli children, runs with the
    # solver's default search budget.
    os.environ.pop("HAMFIX_BUDGET", None)
    tmp = root / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = Context(root, tmp, workloads.Children(root))
    try:
        if args.smoke:
            return 0 if smoke(ctx) else 1
        if args.trace:
            report(*traced_run(args.workload, args.seed, False, ctx))
        else:
            report(*timed_run(args.workload, args.seed, args.seconds, False, ctx))
        return 0
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
