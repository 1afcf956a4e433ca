"""One causetlab process for the benchmark: a CLI call, an import probe, or
a replay of hunt findings, always in a fresh interpreter.

    python3 -I perfbench/invoke.py SRC REPORT call [--trace] -- CLI-ARGS...
    python3 -I perfbench/invoke.py SRC REPORT setup
    python3 -I perfbench/invoke.py SRC REPORT replay STDOUT-FILE SHARD SHARDS

SRC is the checkout's `src` directory; causetlab is imported from there and
nowhere else. REPORT is a JSON file written only when the process finishes
normally; its absence means the call failed.

`call` runs `causetlab.cli.main(CLI-ARGS)` and records the monotonic time
and the CPU time spent at its first call, so that the parent can split the
process into set-up (interpreter start and import) and command. The CLI's
stdout and exit code are passed through untouched. With `--trace` the
package's public functions are wrapped at module boundaries before the call
(see `Tracer`); spans and counters stay in memory and go into REPORT at the
end.

Only `sys`, `os` and `time` are imported before causetlab, so that the
set-up time measured here is the interpreter's and the package's own.
"""

import os
import sys
import time


def main() -> int:
    src, report_path, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    sys.path.insert(0, src)
    import causetlab.cli

    first_call = time.monotonic()
    cpu = os.times()
    if not os.path.abspath(causetlab.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"causetlab was imported from {causetlab.cli.__file__}, not {src}", file=sys.stderr)
        return 4
    report: dict = {"first_call": first_call, "cpu_at_first_call": cpu.user + cpu.system}
    if mode == "setup":
        exit_code = 0
    elif mode == "call":
        rest = sys.argv[4:]
        trace = rest[0] == "--trace"
        argv = rest[rest.index("--") + 1:]
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        exit_code = causetlab.cli.main(argv)
        sys.stdout.flush()
        if tracer:
            report["trace"] = tracer.result()
    elif mode == "replay":
        stdout_file, shard, shards = sys.argv[4], int(sys.argv[5]), int(sys.argv[6])
        report["replay"] = replay(stdout_file, shard, shards)
        exit_code = 0
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 4
    report["exit_code"] = exit_code
    import json

    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return exit_code


def replay(stdout_file: str, shard: int, shards: int) -> dict:
    """Re-run `replay_finding` on every SHARDS-th finding line of a hunt's
    stdout, starting at SHARD, and compare with the recorded bits."""
    import json

    from causetlab.hunter import replay_finding

    with open(stdout_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    findings = [json.loads(line) for line in lines[:-1]]
    checked = 0
    mismatches = []
    for i in range(shard, len(findings), shards):
        checked += 1
        bits = replay_finding(findings[i])
        if bits != findings[i]["bits"]:
            mismatches.append({"line": i, "recorded": findings[i]["bits"], "replayed": bits})
    return {"checked": checked, "mismatches": mismatches}


class Tracer:
    """Spans and counters around causetlab's public names, wrapped from
    outside the package.

    A wrapped function becomes a frame on a stack. When it returns, its
    duration is added to its layer's busy time (outermost frame of that
    layer only, so recursion is not counted twice) and its self time (the
    duration minus the time of the wrapped frames directly inside it).
    Layers listed in SPAN_LAYERS also keep every span (name, start, end,
    parent span index); the others are too frequent and keep totals only.
    Counters (`MeasureTable.prob`, `canonical_form`, spacelike pairs) add
    no frame.
    """

    SPAN_LAYERS = {
        "cli", "hunter.orchestrate", "hunter.enumerate", "hunter.task",
        "theorems.region_identities", "theorems.partitions", "theorems.composition",
        "theorems.dom_axioms", "theorems.replication",
    }

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [layer, child time, span index or -1]
        self.active: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []
        self.start = self.clock()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: str, fn, on_result=None):
        clock, stack, active, keep = self.clock, self.stack, self.active, layer in self.SPAN_LAYERS

        def traced(*args, **kwargs):
            span = -1
            if keep:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                span = len(self.spans)
                self.spans.append([layer, 0.0, 0.0, parent])
            frame = [layer, 0.0, span]
            stack.append(frame)
            active[layer] = active.get(layer, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[layer] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if not active[layer]:
                    self.busy[layer] = self.busy.get(layer, 0.0) + duration
                self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - frame[1]
                self.calls[layer] = self.calls.get(layer, 0) + 1
                if keep:
                    self.spans[span][1:3] = [start - self.start, end - self.start]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        import causetlab.cli as cli
        import causetlab.hunter as hunter
        import causetlab.theorems as theorems
        from causetlab.causet import Causet
        from causetlab.histories import HistorySpace, check_dom_axioms, full_specifications
        from causetlab.measure import MeasureTable
        from causetlab.principles import (
            Model,
            check_principle,
            gap_closure_check,
            implication_matrix,
            replay_witness,
            replicate_so1_to_so2,
        )

        count = self.count

        def verdict_counts(verdict):
            for key in ("screening_tests", "region_pairs", "screeners", "zero_screeners"):
                count(f"principles.{key}", verdict.counts[key])
            count("principles.witnesses", len(verdict.witnesses))

        def suite(layer):
            return lambda result: count(f"{layer}.checked", result.checked)

        wrapped = {cli.main: self.wrap("cli", cli.main)}
        wrapped[hunter.hunt] = self.wrap("hunter.orchestrate", hunter.hunt)
        wrapped[hunter._representatives] = self.wrap("hunter.enumerate", hunter._representatives)
        wrapped[hunter._hunt_causet] = self.wrap("hunter.task", hunter._hunt_causet)
        wrapped[hunter.sample_measures] = self.wrap("measure.sample", hunter.sample_measures)
        wrapped[implication_matrix] = self.wrap(
            "principles.sweep", implication_matrix,
            lambda m: [verdict_counts(v) for v in m.verdicts.values()],
        )
        wrapped[check_principle] = self.wrap("principles.sweep", check_principle, verdict_counts)
        wrapped[replay_witness] = self.wrap("principles.replay", replay_witness)
        wrapped[replicate_so1_to_so2] = self.wrap(
            "principles.replicate", replicate_so1_to_so2,
            lambda r: count("principles.replicate.checked", sum(s.checked for s in r.steps)),
        )
        wrapped[gap_closure_check] = self.wrap("principles.gap", gap_closure_check)
        wrapped[full_specifications] = self.wrap("histories.full_specs", full_specifications)
        wrapped[check_dom_axioms] = self.wrap(
            "histories.dom_axioms", check_dom_axioms,
            lambda r: count("histories.dom_axioms.checked", sum(x.checked for x in r.results)),
        )
        for name, layer in (
            ("region_identity_suite", "theorems.region_identities"),
            ("partition_suite", "theorems.partitions"),
            ("composition_suite", "theorems.composition"),
            ("dom_axiom_suite", "theorems.dom_axioms"),
            ("replication_suite", "theorems.replication"),
        ):
            fn = getattr(theorems, name)
            wrapped[fn] = self.wrap(layer, fn, suite(layer))

        canonical_form = hunter.canonical_form

        def counted_canonical_form(lt):
            count("hunter.enumerate.candidates")
            return canonical_form(lt)

        wrapped[canonical_form] = counted_canonical_form

        # `from x import y` copies the binding, so every causetlab module
        # that holds one of these functions gets the wrapper.
        by_id = {id(fn): wrapper for fn, wrapper in wrapped.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "causetlab" and not module_name.startswith("causetlab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    setattr(module, attr, by_id[id(value)])

        build = Model.__dict__["build"].__func__
        Model.build = classmethod(self.wrap("principles.model_build", build))
        HistorySpace.__init__ = self.wrap("histories.space", HistorySpace.__init__)
        Causet.verify_crucial_identity = self.wrap("causet.identity", Causet.verify_crucial_identity)
        Causet.decomposes_truncated_past = self.wrap(
            "causet.identity", Causet.decomposes_truncated_past
        )

        pairs = Causet.spacelike_pairs

        def counted_pairs(causet, *args, **kwargs):
            for pair in pairs(causet, *args, **kwargs):
                count("causet.pairs")
                yield pair

        Causet.spacelike_pairs = counted_pairs

        prob = MeasureTable.prob
        tallies = [0, 0]

        def counted_prob(table, e):
            tallies[0] += 1
            tallies[1] += e.bit_count()
            return prob(table, e)

        MeasureTable.prob = counted_prob
        self._prob_tallies = tallies
        self._reps_cache = hunter._reps_cache

    def result(self) -> dict:
        self.counts["measure.prob.calls"] = self._prob_tallies[0]
        self.counts["measure.prob.histories"] = self._prob_tallies[1]
        self.counts["hunter.enumerate.causets"] = sum(len(r) for r in self._reps_cache.values())
        return {
            "busy": self.busy,
            "self": self.self_time,
            "calls": self.calls,
            "counts": self.counts,
            "spans": self.spans,
        }


if __name__ == "__main__":
    sys.exit(main())
