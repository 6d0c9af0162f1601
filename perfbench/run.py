"""Benchmark of jordal: how long a user waits for a `jordal verify` verdict.

Run from the repository root:

    python3 perfbench/run.py --workload flagship-slice --seed 42 --seconds 40
    python3 perfbench/run.py --workload all             # every workload
    python3 perfbench/run.py --workload all --trace 1   # per-layer metrics

Untraced (--trace 0), a run makes SETUPS fresh set-up processes and
repeats a `jordal verify` subprocess (at least MIN_REPEATS times) until
--seconds have passed, and reports the end-to-end metrics:

    verify_s     seconds of one verify process at the reference speed
                 (see SpeedProbe), median over the repeats
    setup_s      seconds at the reference speed of a fresh process that
                 imports jordal and builds the shape's frame with its Gram
                 data, median over the set-up processes
    peak_rss_mb  median peak resident set of a verify process, read per
                 child with os.wait4

Traced (--trace 1), a run makes one untraced verify and then the same
verification in this process with every layer's public functions wrapped
(see layers.py), and reports the per-layer metrics.

Every report is checked: exit code 0, each check's status as the workload
expects, and the same bytes on every repeat. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics, where attempted counts executed checks and failed those off their
expected status.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

SETUPS = 3
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 50
MAX_SECONDS = 60

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# CPU seconds of one SpeedProbe chunk at the reference speed, which is about
# the speed of an unloaded 2-vCPU Xeon microVM
REFERENCE_CHUNK_S = 0.006


class SpeedProbe:
    """Measures the CPU's speed while a child process runs on the same CPU.

    A shared machine runs a process up to 1.9 times slower for anything from
    a second to minutes, and each vCPU on its own. This thread and every
    child share one CPU, so the two take turns every few milliseconds and
    both run at the same speed. The thread repeats one fixed chunk of
    Fraction arithmetic; a child's CPU seconds times REFERENCE_CHUNK_S over
    the thread's mean CPU seconds per chunk while the child ran is the
    child's time at the reference speed.
    """

    def __init__(self):
        self.chunks = 0
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.spin, daemon=True)

    def __enter__(self):
        self.thread.start()
        self.clock = time.pthread_getcpuclockid(self.thread.ident)
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()

    def spin(self):
        from fractions import Fraction
        while not self.stop.is_set():
            acc = 0
            for i in range(1000):
                x = (Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
                     + Fraction(1, i % 5 + 2))
                acc += x.numerator
            self.chunks += 1

    def reading(self):
        return time.clock_gettime(self.clock), self.chunks

    def scale(self, since):
        """Reference seconds per CPU second since the reading `since`."""
        cpu, chunks = self.reading()
        if chunks - since[1] < 10:
            raise RuntimeError("the speed probe got too little CPU time")
        return REFERENCE_CHUNK_S * (chunks - since[1]) / (cpu - since[0])


@dataclass(frozen=True)
class Child:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_s: float  # cpu_s at the reference speed


def child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(argv, probe=None) -> Child:
    """Run argv to completion; time it and read its own rusage via wait4.

    With a SpeedProbe on this thread's CPU, also scale its CPU time to the
    reference speed.
    """
    since = probe.reading() if probe else None
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        # stderr stays near-empty unless the child fails, so reading stdout
        # to its end first cannot block on a full stderr pipe
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    # a child that failed may have ended before the probe could measure;
    # its run is judged incorrect, whatever its time
    ref = cpu * probe.scale(since) if probe and proc.returncode == 0 else cpu
    return Child(proc.returncode, out, err, wall, cpu,
                 usage.ru_maxrss / 1024, ref)


def verify(workload, seed, probe=None) -> Child:
    return run_child([sys.executable, "-m", "jordal.cli", "verify"]
                     + workload.verify_args(seed), probe)


def setup_probe(workload, probe) -> Child:
    return run_child([sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                      str(workload.k), str(workload.delta)], probe)


def judge(workload, child):
    """(executed checks, checks off their expected status, problems)."""
    expected_executed = workload.summary[0] + workload.summary[1]
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}: "
                        f"{child.err.decode(errors='replace')[-300:]}")
    try:
        doc = json.loads(child.out)
        statuses = {c["id"]: c["status"] for c in doc["checks"]}
        summary = doc["summary"]
    except (ValueError, KeyError, TypeError):
        problems.append("no JSON report on stdout")
        return expected_executed, expected_executed, problems
    executed = sum(1 for s in statuses.values() if s != "skip")
    off = [cid for cid, s in statuses.items() if s != workload.expected_status(cid)]
    got = (summary["passed"], summary["failed"], summary["skipped"])
    if got != workload.summary:
        problems.append(f"summary {got}, expected {workload.summary}")
    if off:
        problems.append(f"unexpected status: {', '.join(off)}")
    return executed, len(off), problems


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def warm_up():
    """Import jordal once so byte-code caches exist before anything is timed."""
    child = run_child([sys.executable, "-c", "import jordal"])
    if child.code != 0:
        raise SystemExit("cannot import jordal from src: "
                         + child.err.decode(errors="replace")[-300:])


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}})


def measure(workload, seed, seconds, probe):
    """Set-up processes and verify repeats that fill `seconds`."""
    start = time.perf_counter()
    # a set-up probe before each of the first verify repeats; then verify
    # only, until the next repeat would end after `seconds`
    setups, repeats = [], []
    while True:
        if len(setups) < SETUPS:
            setups.append(setup_probe(workload, probe))
        repeats.append(verify(workload, seed, probe))
        if setups[-1].code or repeats[-1].code:
            break  # a failing program gets its verdict now, not after more timeouts
        typical = statistics.median(r.wall_s for r in repeats)
        if len(setups) < SETUPS:
            typical += statistics.median(p.wall_s for p in setups)
        if (len(repeats) >= MIN_REPEATS
                and time.perf_counter() - start + typical > seconds):
            break
    while len(setups) < SETUPS and not setups[-1].code:
        setups.append(setup_probe(workload, probe))
    return setups, repeats


def run_untraced(workload, seed, seconds):
    warm_up()
    # this thread, the speed probe and every child share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with SpeedProbe() as probe:
        setups, repeats = measure(workload, seed, seconds, probe)

    problems = []
    for probe in setups:
        if probe.code != 0:
            problems.append(f"set-up probe exit code {probe.code}: "
                            f"{probe.err.decode(errors='replace')[-300:]}")
    if len({probe.out for probe in setups}) != 1:
        problems.append("set-up probes disagree on det(Gram)")

    attempted = failed = 0
    print(f"workload {workload.name}: jordal verify "
          f"{' '.join(workload.verify_args(seed))}")
    for i, rep in enumerate(repeats):
        executed, off, rep_problems = judge(workload, rep)
        attempted += executed
        failed += off
        problems += [f"repeat {i}: {p}" for p in rep_problems]
        print(f"  repeat {i}: wall {rep.wall_s:.3f} s  cpu {rep.cpu_s:.3f} s  "
              f"at reference speed {rep.ref_s:.3f} s  "
              f"rss {rep.rss_mb:.1f} MB  report sha256 {digest(rep.out)} "
              f"bytes {len(rep.out)}  failed_ratio {off}/{executed}")
    if len({rep.out for rep in repeats}) != 1:
        problems.append("report bytes differ between repeats")
    print("  set-up cpu, at reference speed: " + "  ".join(
        f"{p.cpu_s:.3f}/{p.ref_s:.3f} s" for p in setups))

    metrics = {
        "verify_s": statistics.median(r.ref_s for r in repeats),
        "setup_s": statistics.median(p.ref_s for p in setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in repeats),
    }
    for name, count in (("verify_s", len(repeats)), ("setup_s", len(setups)),
                        ("peak_rss_mb", len(repeats))):
        print(f"  {name:<12} {metrics[name]:10.4f} {END_TO_END_UNITS[name]}  "
              f"(median of {count})")
    cpus = [r.cpu_s for r in repeats]
    print(f"  verify cpu time, unscaled: median {statistics.median(cpus):.4f} s, "
          f"least {min(cpus):.4f} s, most {max(cpus):.4f} s")
    print(f"  failed_ratio {failed}/{attempted} checks")
    correct = not problems and failed == 0
    for p in problems:
        print(f"  PROBLEM {p}")
    print(f"  verdict: {'correct' if correct else 'INCORRECT'}")
    return result_line(correct, attempted, failed, metrics, END_TO_END_UNITS)


def traced(tracer, spec, call):
    """Run call() with the layers wrapped; return (result, wall seconds)."""
    import layers
    layers.install(tracer, spec)
    try:
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start
    finally:
        tracer.unpatch()


def run_traced(workload, seed):
    warm_up()
    untraced = verify(workload, seed)
    attempted, failed, problems = judge(workload, untraced)

    import layers
    from tracer import Tracer
    from jordal import report as report_mod
    from jordal import reconstruction, runner
    from jordal.jordan import JordanSpec

    spec = JordanSpec(workload.k, workload.delta)

    def set_up():
        fr = reconstruction.frame(spec)
        return fr.gram_inv, fr.det_gram

    setup_tracer = Tracer()
    _, setup_wall = traced(setup_tracer, spec, set_up)

    config = runner.RunConfig(k=workload.k, delta=workload.delta,
                              suite=workload.suite, trials=workload.trials,
                              seed=seed, mode="exact")
    tracer = Tracer()
    # install() empties jordal's caches, so this verification builds its
    # frame afresh, as a new `jordal verify` process would
    data, traced_wall = traced(
        tracer, spec,
        lambda: report_mod.emit_report(runner.run_suite(config), "json"))
    if data != untraced.out:
        problems.append("traced report differs from the untraced report")

    TRACE_DIR.mkdir(exist_ok=True)
    stem = TRACE_DIR / f"trace-{workload.name}-{seed}"
    tracer.write(stem.with_suffix(".jsonl"))
    setup_tracer.write(stem.with_suffix(".setup.jsonl"))

    metrics = layers.metrics(tracer, workload.trials, traced_wall,
                             untraced.wall_s, len(data))
    metrics.update(layers.setup_metrics(setup_tracer, setup_wall))
    units = {name: unit for name, (unit, _) in layers.metric_units().items()}
    print(f"workload {workload.name} traced: jordal verify "
          f"{' '.join(workload.verify_args(seed))}")
    print(f"  untraced {untraced.wall_s:.3f} s, traced {traced_wall:.3f} s; "
          f"report sha256 {digest(data)} bytes {len(data)}; spans in {stem}.*")
    shares = {}
    for name in layers.TRACED:
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + metrics[name + ".self_s"]
    shares["other (runner, checks, unwrapped code)"] = (
        traced_wall - sum(shares.values()))
    print("  self time as a share of the traced verification: " + ", ".join(
        f"{layer} {100 * s / traced_wall:.1f}%" for layer, s in
        sorted(shares.items(), key=lambda item: -item[1])))
    for name, value in metrics.items():
        print(f"  {name:<62} {value:14.6f} {units[name]}")
    correct = not problems and failed == 0
    for p in problems:
        print(f"  PROBLEM {p}")
    print(f"  verdict: {'correct' if correct else 'INCORRECT'}")
    declared = {name: metrics[name] for name in layers.declared_metrics()}
    return result_line(correct, attempted, failed, declared, units)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jordal" / "__init__.py").is_file():
        sys.stderr.write(f"jordal sources not found under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    if args.trace:
        sys.path.insert(0, str(SRC))  # the traced run imports jordal here
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if args.trace:
            line = run_traced(WORKLOADS[name], args.seed)
        else:
            line = run_untraced(WORKLOADS[name], args.seed, args.seconds)
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
