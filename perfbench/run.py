"""qualdyn benchmark: seeded workloads, end-to-end metrics, per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload score-find --seed 1 --seconds 30 --trace 0

Workloads: score-find, uniform-plateau and halfspace-find, the ones
BENCHMARK.json lists, and decoupled-sweep, which is run by hand because its
timings are not steady enough to gate on (see workloads.py). The program is
imported from ./src; nothing is installed.
Load comes from this one process in a closed loop, one task at a time; the
only other threads are the ones `qualdyn sweep` starts itself.

--trace 0 times tasks back to back with tracing off, cycling through the
seeded family (anchor first) until --seconds have passed and the family has
been run once, and reports the end-to-end metrics. Task times are in
reference seconds: each wall time is scaled by REF_S over the time a fixed
reference loop took right beside it (see reference()), so that a host whose
CPU runs slower for seconds at a time, as a shared one does, moves them far
less than it moves wall times. Wall times are printed too. setup_s is in
wall seconds: importing and loading track the reference loop no better
than they track the clock, so its median of SETUP_REPEATS is not scaled.

--trace 1 runs a fixed round of the family's first tasks, each once
untraced and once traced, repeated while --seconds allows, and reports
per-layer metrics per task (see tracer.py) plus the tracing overhead; its
spans go to .perfbench/trace-<workload>.jsonl.
Every task's answer is checked after the timed region. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
REF_S = 0.010  # reference() on a 2-core Intel Xeon VM at its fastest
_REF_X = np.linspace(0.0, 1.0, 50)
TAIL_BEYOND = 10  # the tail percentile keeps this many tasks beyond it
MIN_TASKS = TAIL_BEYOND + 1


def import_program() -> None:
    """Put ./src first on the path and import qualdyn from there, or exit."""
    package = SRC / "qualdyn"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no qualdyn sources at {package}")
    sys.path.insert(0, str(SRC))
    import qualdyn

    if Path(qualdyn.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported qualdyn from {qualdyn.__file__}, not {package}")


def reference() -> float:
    """Seconds a fixed loop of small numpy operations driven from Python
    takes: the kind of work qualdyn's tasks are made of, using nothing from
    qualdyn, so a change to the program cannot change it. Timed beside a
    task, it tells how fast the CPU is running just then."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(2000):
        z = np.maximum(_REF_X * 0.3 + k, 0.1)
        acc += float(z.sum()) + int(np.argmax(z))
    return time.perf_counter() - t0


def write_and_load(configs: list[dict], directory: Path) -> list[tuple[str, object]]:
    """Write each scenario file and load it back through the CLI's loader."""
    from qualdyn import cli

    directory.mkdir(parents=True, exist_ok=True)
    loaded = []
    for i, config in enumerate(configs):
        path = directory / f"scenario-{i:02d}.json"
        path.write_text(json.dumps(config, indent=1))
        loaded.append((str(path), cli.load_scenario(str(path))))
    return loaded


def setup(workload, seed: int, directory: Path) -> list[dict]:
    """Generate the seeded family, then write and load its scenarios."""
    import workloads

    items = workloads.generate(workload, seed)
    loaded = write_and_load([item["config"] for item in items], directory)
    for item, (path, scenario) in zip(items, loaded):
        item["path"], item["scenario"] = path, scenario
    return items


def setup_in_child(family: str, directory: str) -> None:
    """Body of one timed set-up process: import qualdyn, then write and
    load the family's scenarios; prints the seconds taken."""
    t0 = time.perf_counter()
    import_program()
    write_and_load(json.loads(Path(family).read_text()), Path(directory))
    print(time.perf_counter() - t0)


def timed_setup(items: list[dict], k: int) -> float:
    """Set-up time as a fresh process pays it: importing qualdyn, writing
    the scenario files and loading them. Interpreter start-up and the
    benchmark's own scenario generation are not counted."""
    family = WORK / "family.json"
    family.write_text(json.dumps([item["config"] for item in items]))
    code = "import sys, run; run.setup_in_child(sys.argv[1], sys.argv[2])"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(family), str(WORK / f"setup-{k}")],
        cwd=Path(__file__).resolve().parent, check=True, timeout=120,
        capture_output=True, text=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_task(workload, item):
    """One timed task; returns (seconds, output or None, error or None)."""
    t0 = time.perf_counter()
    try:
        output, error = workload.run(item), None
    except Exception as exc:  # a raising task counts as failed, the run goes on
        output, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, output, error


def check_all(workload, records):
    """Answer checks, outside the timed region. Returns (failed, notes)."""
    failed, notes = 0, []
    for item, output, error in records:
        if error is None:
            try:
                ok, detail = workload.check(item, output)
            except Exception as exc:  # a check that cannot run is a failure
                ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, detail = False, error
        if not ok:
            failed += 1
            notes.append(f"scenario {item['index']}: {detail}")
    return failed, notes


def assessed_frac(workload, records) -> float:
    """Share of reported stability labels that are Stable/Unstable rather
    than NotAssessed; 1 when the workload's command prints no labels. Pass
    the records of one run through the family, so that the share does not
    depend on how far a run got."""
    labels = [
        label for _, output, error in records if error is None
        for label in workload.labels(output)
    ]
    return 1.0 - labels.count("NotAssessed") / len(labels) if labels else 1.0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND tasks beyond it: (seconds, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine() -> str:
    import numpy
    import scipy

    cpu = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return (
        f"nproc {os.cpu_count()}, {cpu}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}"
    )


def end_to_end(workload, seed: int, seconds: float):
    items = setup(workload, seed, WORK / f"{workload.name}-{seed}")
    setups = [timed_setup(items, k) for k in range(SETUP_REPEATS)]
    least = max(MIN_TASKS, len(items))
    walls, times, records = [], [], []
    reference()  # warm-up
    ref_before = reference()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < least:
        item = items[len(times) % len(items)]
        dt, output, error = run_task(workload, item)
        ref_after = reference()
        walls.append(dt)
        times.append(dt * 2.0 * REF_S / (ref_before + ref_after))
        records.append((item, output, error))
        ref_before = ref_after
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, notes = check_all(workload, records)
    tail_s, tail_pct = tail(times)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (n / sum(times), "1/s"),
        "task_s.p50": (statistics.median(times), "s"),
        "task_s.tail": (tail_s, "s"),
        "ok_frac": ((n - failed) / n, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "assessed_frac": (assessed_frac(workload, records[: len(items)]), "share"),
    }
    extra = [
        f"times in reference seconds (REF_S = {REF_S} s); task_s.tail is "
        f"p{tail_pct:.1f} of {n} tasks ({TAIL_BEYOND} beyond it)",
        f"wall: {n / elapsed:.4g} tasks/s over {elapsed:.1f} s, task p50 "
        f"{statistics.median(walls):.4g} s, tail {tail(walls)[0]:.4g} s",
        f"failed_frac = {failed / n:.6g} ({failed} of {n} tasks)",
        "setup samples: " + ", ".join(f"{s:.4f}" for s in setups),
    ]
    return n, failed, notes, metrics, extra


def traced(workload, seed: int, seconds: float):
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        items = setup(workload, seed, WORK / f"{workload.name}-{seed}")
    finally:
        tracer.uninstall()
    round_items = items[: workload.trace_round]
    plain_s = traced_s = 0.0
    records, done = [], 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for item in round_items:
            dt, output, error = run_task(workload, item)
            plain_s += dt
            records.append((item, output, error))
            tracer.task = done
            tracer.install()
            try:
                dt, output, error = run_task(workload, item)
            finally:
                tracer.uninstall()
                tracer.task = None
            traced_s += dt
            records.append((item, output, error))
            done += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    tracer.write(WORK / f"trace-{workload.name}.jsonl")
    failed, notes = check_all(workload, records)
    metrics = tracing.layer_metrics(tracer, done)
    metrics["trace.untraced_tasks_per_s"] = (done / plain_s, "1/s")
    metrics["trace.traced_tasks_per_s"] = (done / traced_s, "1/s")
    metrics["trace.traced_over_untraced"] = (plain_s / traced_s, "ratio")
    extra = [f"traced {done} tasks ({len(round_items)} per round), spans: {len(tracer.spans)}"]
    return len(records), failed, notes, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    attempted, failed, notes, metrics, extra = run(workload, args.seed, args.seconds)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}; {machine()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    for line in extra + notes[:20]:
        print(f"  {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
