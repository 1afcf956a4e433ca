#!/usr/bin/env python3
"""The causetlab benchmark: one workload per run, through the public CLI.

    python3 perfbench/run.py --workload hunt --seed 7 --seconds 10 --trace 0

Run it from the root of a causetlab checkout; it imports the package from
`src/` and builds nothing. Workloads (`--workload`):

    hunt      hunt --max-elements 4 --measures 5 --seed S --include-perfect --workers 1
    hunt-par  the same with --workers 2 (needs 2 usable cores)
    theorems  theorems --max-elements 4 --seed S
    census    theorems --max-elements 7 --max-product-elements 1

With `--trace 0` the run is a closed loop with one client: each CLI
invocation starts in a fresh interpreter once the previous one has exited,
until `--seconds` have passed (at least one). Before the loop, a few
import-only probes measure set-up time. After it, untimed, the outputs are
checked: all invocations print the same bytes, the bytes match the digest
in `perfbench/reference.json` where it holds one for the workload and seed,
every hunt finding replays to its recorded bits, `hunt-par` prints what the
serial `hunt` prints, and the theorem suites pass. The end-to-end metrics
are medians over the invocations.

With `--trace 1` the run makes one untraced invocation and one traced
invocation of the workload (serially for `hunt-par`, which also gets an
untraced serial one to compare against) and prints the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. A record of
the run, with the environment and every sample, is written under
`.bench_build/perfbench/`. `--quick` shrinks every workload to a size that
runs in well under a second; it is for the benchmark's own tests. Every
process of a run is killed once the run has lasted `--seconds` plus 160 s.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INVOKE = HERE / "invoke.py"
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("hunt", "hunt-par", "theorems", "census")
SEED_INDEPENDENT = ("census",)
PAR_WORKERS = 2
SETUP_PROBES = 8
# How long a run may go on after its `--seconds` before every process it
# started is killed: at `--seconds 10` the run ends within 170 s.
DEADLINE_MARGIN_S = 160.0
SUITES = {
    "region-identities": "theorems.region_identities",
    "full-specification-partitions": "theorems.partitions",
    "composition-law": "theorems.composition",
    "dom-axioms": "theorems.dom_axioms",
    "so1-to-so2-replication": "theorems.replication",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def cli_args(workload: str, seed: int, quick: bool, workers: int = 1) -> list[str]:
    """The causetlab command line of a workload."""
    if workload in ("hunt", "hunt-par"):
        return [
            "hunt", "--max-elements", "2" if quick else "4", "--measures", "2" if quick else "5",
            "--seed", str(seed), "--include-perfect", "--workers", str(workers),
        ]
    if workload == "theorems":
        return ["theorems", "--max-elements", "2" if quick else "4", "--seed", str(seed)]
    return ["theorems", "--max-elements", "3" if quick else "7", "--max-product-elements", "1"]


@dataclass
class Invocation:
    """One finished causetlab process and what it left behind."""

    role: str
    argv: list[str]
    exit_code: int | None
    stdout_path: Path
    report: dict | None
    t_spawn: float
    t_exit: float
    rusage: object | None
    digest: str
    problems: list[str] = field(default_factory=list)

    @property
    def stdout(self) -> bytes:
        return self.stdout_path.read_bytes()

    @property
    def completed(self) -> bool:
        return self.report is not None

    @property
    def setup_s(self) -> float:
        return self.report["first_call"] - self.t_spawn

    @property
    def wall_s(self) -> float:
        return self.t_exit - self.report["first_call"]

    @property
    def cpu_s(self) -> float:
        ru = self.rusage
        return ru.ru_utime + ru.ru_stime - self.report["cpu_at_first_call"]

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024

    def describe(self) -> str:
        if not self.completed:
            return f"{self.role}: exit {self.exit_code}, no report"
        return (
            f"{self.role}: exit {self.exit_code}, wall {self.wall_s:.4f} s, "
            f"setup {self.setup_s:.4f} s, cpu {self.cpu_s:.4f} s, "
            f"peak {self.peak_rss_mb:.1f} MB, stdout sha256 {self.digest[:16]}"
        )


class Runner:
    """Starts causetlab processes in fresh interpreters and reaps them.

    Every process gets a private stdout, stderr and report file in a
    scratch directory, and is killed if it outlives the run's deadline.
    """

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.live: list[subprocess.Popen] = []
        self.count = 0

    def start(self, role: str, mode: list[str]) -> tuple:
        self.count += 1
        base = self.scratch / f"{self.count:03d}"
        paths = (base.with_suffix(".out"), base.with_suffix(".err"), base.with_suffix(".json"))
        cmd = [sys.executable, "-I", str(INVOKE), str(SRC), str(paths[2])] + mode
        with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
            t_spawn = time.monotonic()
            popen = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
        self.live.append(popen)
        return role, mode, popen, t_spawn, paths

    def finish(self, started: tuple) -> Invocation:
        role, mode, popen, t_spawn, (out, err, report_path) = started
        timer = threading.Timer(max(0.1, self.deadline - time.monotonic()), popen.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(popen.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
        popen.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(popen)
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        argv = mode[mode.index("--") + 1:] if "--" in mode else mode
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        inv = Invocation(role, argv, popen.returncode, out, report, t_spawn, t_exit, rusage, digest)
        if report is None:
            tail = err.read_text(errors="replace").strip().splitlines()[-3:]
            inv.problems.append(f"exited {popen.returncode} without a report: {' | '.join(tail)}")
        return inv

    def call(self, role: str, argv: list[str], trace: bool = False) -> Invocation:
        return self.finish(self.start(role, ["call"] + (["--trace"] if trace else []) + ["--"] + argv))

    def setup_probe(self) -> Invocation:
        return self.finish(self.start("setup", ["setup"]))

    def stop_all(self) -> None:
        for popen in self.live:
            popen.kill()
            popen.wait()
        self.live.clear()


# -- correctness ---------------------------------------------------------------


def check_hunt_output(inv: Invocation) -> dict | None:
    """Structure and exit code of a hunt report; returns the parsed summary."""
    try:
        lines = [json.loads(line) for line in inv.stdout.decode().splitlines()]
        summary, findings = lines[-1]["summary"], lines[:-1]
        summary["witness_samples"] = sum(len(f["witness_samples"]) for f in findings)
        consistent = summary["findings"] == len(findings) and not summary["consistency_failures"]
    except (ValueError, LookupError, TypeError) as exc:
        inv.problems.append(f"hunt stdout is not findings plus a summary: {exc!r}")
        return None
    if not consistent:
        inv.problems.append("hunt summary disagrees with its findings")
    if inv.exit_code != (1 if findings else 0):
        inv.problems.append(f"hunt exited {inv.exit_code} with {len(findings)} findings")
    return summary


def check_theorems_output(inv: Invocation) -> None:
    try:
        data = json.loads(inv.stdout)
        passed, suites = data["passed"], set(data["suites"])
    except (ValueError, LookupError) as exc:
        inv.problems.append(f"theorems stdout is not a suite report: {exc}")
        return
    if passed is not True or inv.exit_code != 0:
        inv.problems.append(f"theorems reported passed={passed} with exit {inv.exit_code}")
    if suites != set(SUITES):
        inv.problems.append(f"theorems ran suites {sorted(suites)}")


def check_run(workload: str, invocations: list[Invocation], expected: str | None,
              replays: list[Invocation]) -> dict | None:
    """Mark every invocation whose output is wrong; returns a hunt summary."""
    summary = None
    done = [inv for inv in invocations if inv.completed]
    for inv in done:
        if workload in ("hunt", "hunt-par"):
            summary = check_hunt_output(inv) or summary
        else:
            check_theorems_output(inv)
    if expected:
        for inv in done:
            if inv.digest != expected:
                inv.problems.append(f"stdout sha256 {inv.digest} is not the reference {expected}")
    if len({inv.digest for inv in done}) > 1:
        for inv in done:
            inv.problems.append("invocations of one workload printed different stdout")
    for rep in replays:
        if not rep.completed:
            problem = f"finding replay failed: {rep.problems[0]}"
        elif rep.report["replay"]["mismatches"]:
            problem = f"findings do not replay: {rep.report['replay']['mismatches'][:3]}"
        else:
            continue
        for inv in done:
            inv.problems.append(problem)
    return summary


def start_replays(runner: Runner, stdout_path: Path, shards: int) -> list[tuple]:
    return [
        runner.start("replay", ["replay", str(stdout_path), str(k), str(shards)])
        for k in range(shards)
    ]


# -- metrics -------------------------------------------------------------------


def end_to_end(timed: list[Invocation], probes: list[Invocation]) -> dict:
    done = [inv for inv in timed if inv.completed]
    setups = [p.setup_s for p in probes if p.completed] + [inv.setup_s for inv in done]
    values = {
        "wall_s": statistics.median(inv.wall_s for inv in done),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(inv.cpu_s for inv in done),
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in done),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(traced: Invocation, untraced_serial: Invocation, par: Invocation | None,
              summary: dict | None, workers: int) -> dict:
    trace = traced.report["trace"]
    busy, self_time, calls, counts = trace["busy"], trace["self"], trace["calls"], trace["counts"]
    tasks = sorted(end - start for name, start, end, _ in trace["spans"] if name == "hunter.task")
    candidates = counts.get("hunter.enumerate.candidates", 0)
    witnesses = counts.get("principles.witnesses", 0)
    samples = summary["witness_samples"] if summary else 0
    # Serial task time without the tracing cost: the untraced serial wall
    # time times the share of the traced wall time spent in tasks.
    serial_task_s = untraced_serial.wall_s * sum(tasks) / traced.wall_s
    metrics: dict[str, tuple[float, str]] = {
        "causet.pairs": (counts.get("causet.pairs", 0), "count"),
        "causet.identity.busy_s": (busy.get("causet.identity", 0.0), "s"),
        "hunter.enumerate.busy_s": (busy.get("hunter.enumerate", 0.0), "s"),
        "hunter.enumerate.candidates": (candidates, "count"),
        "hunter.enumerate.useful_ratio": (
            counts.get("hunter.enumerate.causets", 0) / candidates if candidates else 0.0, "ratio"),
        "histories.space.busy_s": (busy.get("histories.space", 0.0), "s"),
        "histories.full_specs.calls": (calls.get("histories.full_specs", 0), "count"),
        "histories.full_specs.busy_s": (busy.get("histories.full_specs", 0.0), "s"),
        "histories.dom_axioms.busy_s": (busy.get("histories.dom_axioms", 0.0), "s"),
        "histories.dom_axioms.checked": (counts.get("histories.dom_axioms.checked", 0), "count"),
        "measure.prob.calls": (counts["measure.prob.calls"], "count"),
        "measure.prob.histories": (counts["measure.prob.histories"], "count"),
        "measure.sample.busy_s": (busy.get("measure.sample", 0.0), "s"),
        "principles.model_build.busy_s": (busy.get("principles.model_build", 0.0), "s"),
        "principles.sweep.self_s": (self_time.get("principles.sweep", 0.0), "s"),
    }
    for key in ("screening_tests", "region_pairs", "screeners", "zero_screeners"):
        metrics[f"principles.{key}"] = (counts.get(f"principles.{key}", 0), "count")
    metrics.update({
        "principles.witnesses": (witnesses, "count"),
        "principles.witness_useful_ratio": (samples / witnesses if witnesses else 0.0, "ratio"),
        "principles.replay.busy_s": (busy.get("principles.replay", 0.0), "s"),
        "principles.replay.calls": (calls.get("principles.replay", 0), "count"),
        "principles.replicate.busy_s": (busy.get("principles.replicate", 0.0), "s"),
        "principles.replicate.checked": (counts.get("principles.replicate.checked", 0), "count"),
        "principles.gap.busy_s": (busy.get("principles.gap", 0.0), "s"),
        "principles.gap.calls": (calls.get("principles.gap", 0), "count"),
        "hunter.orchestrate.self_s": (self_time.get("hunter.orchestrate", 0.0), "s"),
        "hunter.task.p50_s": (statistics.median(tasks) if tasks else 0.0, "s"),
        "hunter.task.max_s": (tasks[-1] if tasks else 0.0, "s"),
        "hunter.pool.overhead_s": (par.wall_s - serial_task_s / workers if par else 0.0, "s"),
        "hunter.pool.speedup": (untraced_serial.wall_s / par.wall_s if par else 0.0, "ratio"),
    })
    for layer in SUITES.values():
        metrics[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        metrics[f"{layer}.checked"] = (counts.get(f"{layer}.checked", 0), "count")
    metrics["cli.self_s"] = (self_time.get("cli", 0.0), "s")
    metrics["trace.overhead_ratio"] = (traced.wall_s / untraced_serial.wall_s - 1, "ratio")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}


# -- the run -------------------------------------------------------------------


def environment(args, workers: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = got.stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "workers": workers,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def run(args, runner: Runner, expected: str | None, workers: int) -> tuple[list, dict, dict]:
    """Make the invocations of one run and check them; returns the
    invocations, the metrics and the record's extra fields."""
    workload, seed, quick = args.workload, args.seed, args.quick
    argv = cli_args(workload, seed, quick, workers)
    serial_argv = cli_args(workload, seed, quick, 1)
    hunting = workload in ("hunt", "hunt-par")
    cores = min(PAR_WORKERS, len(os.sched_getaffinity(0)))
    runner.setup_probe()  # untimed: writes the bytecode cache of a fresh checkout

    if args.trace:
        untraced = runner.call("untraced", argv)
        serial = runner.call("untraced serial", serial_argv) if workload == "hunt-par" else untraced
        traced = runner.call("traced", serial_argv, trace=True)
        invocations = [untraced] + ([serial] if serial is not untraced else []) + [traced]
        if not all(inv.completed for inv in invocations):
            raise SystemExit("the traced or untraced invocation did not complete")
        replays = start_replays(runner, untraced.stdout_path, cores) if hunting else []
        replays = [runner.finish(r) for r in replays]
        summary = check_run(workload, invocations, expected, replays)
        par = untraced if workload == "hunt-par" else None
        metrics = per_layer(traced, serial, par, summary, workers)
        return invocations, metrics, {"spans": traced.report["trace"]["spans"]}

    # Half the set-up probes go before the loop and half after it, so that
    # their median spans the run rather than one second of a machine whose
    # speed drifts over tens of seconds.
    probes = [runner.setup_probe() for _ in range(SETUP_PROBES // 2)]
    timed = []
    loop_start = time.monotonic()
    while not timed or time.monotonic() - loop_start < args.seconds:
        timed.append(runner.call(f"timed {len(timed) + 1}", argv))
    probes += [runner.setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    invocations = list(timed)
    done = [inv for inv in timed if inv.completed]
    if not done:
        raise SystemExit("no invocation completed")
    checks = []
    if workload == "hunt-par" and not expected:
        checks.append(runner.start("serial reference", ["call", "--"] + serial_argv))
    if hunting:
        checks += start_replays(runner, done[0].stdout_path, max(1, cores - len(checks)))
    finished = [runner.finish(c) for c in checks]
    invocations += [f for f in finished if f.role == "serial reference"]
    replays = [f for f in finished if f.role == "replay"]
    summary = check_run(workload, invocations, expected, replays)
    metrics = end_to_end(timed, probes)
    extra = {"setup_probes_s": [p.setup_s for p in probes if p.completed]}
    if summary:
        extra["models_per_s"] = summary["models"] / metrics["wall_s"]["value"]
    return invocations, metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "causetlab" / "cli.py").is_file():
        print(f"perfbench: no causetlab sources at {SRC}", file=sys.stderr)
        return 2
    workers = 1
    if args.workload == "hunt-par":
        usable = len(os.sched_getaffinity(0))
        if usable < PAR_WORKERS:
            print(f"perfbench: hunt-par not run: {usable} usable core(s), it needs {PAR_WORKERS}")
            return 3
        workers = PAR_WORKERS
    reference = json.loads(REFERENCE.read_text())
    expected = None
    if args.seed == reference["seed"] or args.workload in SEED_INDEPENDENT:
        expected = reference["sha256"]["quick" if args.quick else "full"].get(args.workload)
    env = environment(args, workers)

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    runner = Runner(scratch, started + args.seconds + DEADLINE_MARGIN_S)
    try:
        invocations, metrics, extra = run(args, runner, expected, workers)
    finally:
        runner.stop_all()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [inv for inv in invocations if inv.problems]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for inv in invocations:
        print(inv.describe())
        for problem in inv.problems:
            print(f"  problem: {problem}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if "models_per_s" in extra:
        print(f"metric models_per_s = {extra['models_per_s']:.6g} 1/s")
    if not args.trace:
        print(f"metric failed_ratio = {len(failed) / len(invocations):.6g} ratio "
              f"({len(failed)} of {len(invocations)} invocations)")
    record = {
        "env": env,
        "invocations": [
            {"role": inv.role, "argv": inv.argv, "exit_code": inv.exit_code,
             "problems": inv.problems, "sha256": inv.digest,
             **({"wall_s": inv.wall_s, "setup_s": inv.setup_s, "cpu_s": inv.cpu_s,
                 "peak_rss_mb": inv.peak_rss_mb} if inv.completed else {})}
            for inv in invocations
        ],
        "metrics": metrics,
        **extra,
    }
    quick = "-quick" if args.quick else ""
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{quick}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
