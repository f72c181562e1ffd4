"""Repository benchmark: seeded ``repro`` CLI workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload optimize-rnd --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``perfbench/README.md`` for what each metric means
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-command limit; a run must end within 180 s.
COMMAND_TIMEOUT_S = 150.0

#: Set-up samples per run; set-up-only calls of the command top up the
#: samples its full calls (and the eco per-edit loop) give.
SETUP_SAMPLES = 2

#: Quantile of the per-edit latencies reported as ``edit_p97.5_ms``:
#: the highest with ten samples beyond it at 400 edits.
TAIL = 0.975

#: How often the watcher samples a running command.
WATCH_INTERVAL_S = 0.2

#: CPU seconds of one :func:`_probe_work` on a nominal reference host.
#: ``cpu_s`` and ``setup_s`` are CPU seconds scaled to that host by the
#: probe's CPU time measured beside every call: on a shared host both
#: drift together (see README.md, "Host speed").
PROBE_REFERENCE_S = 0.0035

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
    "saving_pct": "%",
    "delay_ratio_pct": "%",
}

PER_LAYER = {
    "wall_s": "s",
    "host.speed": "ratio",
    "power_after_uW": "uW",
    "circuit.parse_s": "s",
    "circuit.write_s": "s",
    "synth.map_s": "s",
    "synth.map_calls": "count",
    "synth.gates_out": "count",
    "core.optimize_s": "s",
    "core.price_s": "s",
    "core.price_calls": "count",
    "core.configs_priced": "count",
    "core.output_stats_s": "s",
    "core.gates_decided": "count",
    "timing.sta_s": "s",
    "timing.refresh_s": "s",
    "timing.gates_retimed": "count",
    "incremental.search_s": "s",
    "incremental.score_batch_s": "s",
    "incremental.power_refresh_s": "s",
    "incremental.stats_refresh_s": "s",
    "incremental.trials": "count",
    "incremental.accepted": "count",
    "incremental.accept_ratio": "ratio",
    "incremental.gates_repropagated": "count",
    "incremental.repropagated_per_trial": "count",
    "incremental.edit_power_ms": "ms",
    "incremental.edit_delay_ms": "ms",
    "incremental.cone_per_edit": "count",
    "edit_p50_ms": "ms",
    "edit_p97.5_ms": "ms",
    "compiled.kernel_calls": "count",
    "robust.fallback": "count",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim_saving_pct": "%",
    "bench.case_s": "s",
    "bench.worker_idle_share": "ratio",
    "robust.worker_retries": "count",
    "robust.worker_failures": "count",
    "obs.trace_overhead_pct": "%",
}


def _probe_work() -> float:
    """A fixed piece of interpreter work (dict updates, float
    arithmetic, a loop) whose data stays in the core's own cache, so
    its CPU time follows the speed of the core, not the command's
    pressure on the shared caches."""
    table: Dict[int, float] = {}
    total = 0.0
    for index in range(20000):
        key = index % 97
        table[key] = table.get(key, 0.0) * 0.5 + index * 1.5
        total += table[key] / (key + 1)
    return total


def _group(pgid: int) -> List[tuple]:
    """``(state, resident MB)`` of every process in group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append((fields[0], int(fields[21]) * PAGE_MB))
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _end_group(pgid: int) -> None:
    """Kill what is left of a command's process group and wait until
    every member has ended."""
    _kill_group(pgid)
    deadline = time.monotonic() + 10.0
    while (any(member[0] != "Z" for member in _group(pgid))
           and time.monotonic() < deadline):
        time.sleep(0.01)


class Watcher(threading.Thread):
    """Runs beside a command: samples the summed resident memory of its
    process group and times :func:`_probe_work` in CPU time (so sharing
    the CPU with the command does not count, but a slower host does).

    ``ru_maxrss`` from ``wait4`` would give one process's peak only,
    and it counts this process's pages the child holds before ``exec``.
    """

    def __init__(self, pgid: int):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.done = threading.Event()
        self.probes: List[float] = []
        self.peak_mb = 0.0

    def run(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, sum(
                member[1] for member in _group(self.pgid)))
            start = time.thread_time()
            _probe_work()
            self.probes.append(time.thread_time() - start)
            if self.done.wait(WATCH_INTERVAL_S):
                return


@dataclass
class Proc:
    """One finished child process.

    ``cpu_s`` and ``setup_s`` are scaled to the reference host:
    measured CPU seconds times ``speed``."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    speed: float = 1.0
    setup_s: Optional[float] = None


class Bench:
    """Spawns the children of one benchmark run inside ``workdir``."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.count = 0

    def path(self, name: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count}.{name}")

    def spawn(self, mode: str, args: List[str], marks: bool = False,
              until_mark: bool = False) -> Proc:
        """Run ``python3 perfbench/launch.py MODE ARGS`` in its own
        process group and reap it with ``wait4`` (CPU time of the
        command and the workers it reaped).  Its stdout is read in full;
        with ``until_mark`` it is discarded and the group is killed as
        soon as the set-up mark is written.  Whatever is left of the
        group is killed and waited for, also after the timeout."""
        mark_path = self.path("marks") if marks or until_mark else None
        command = [sys.executable, os.path.join(HERE, "launch.py"), mode,
                   *(["--marks", mark_path] if mark_path else []), *args]
        with open(self.path("stderr"), "w") as stderr:
            start = time.monotonic()
            proc = subprocess.Popen(
                command, stderr=stderr, env=self.env, cwd=self.workdir,
                stdout=subprocess.DEVNULL if until_mark else subprocess.PIPE,
                start_new_session=True)
            watcher = Watcher(proc.pid)
            watcher.start()
            killer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group,
                                     (proc.pid,))
            killer.start()
            stdout = ""
            try:
                if until_mark:
                    status, usage = _wait_for_mark(proc.pid, mark_path)
                else:
                    stdout = proc.stdout.read().decode()
                    _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - start
            finally:
                killer.cancel()
                watcher.done.set()
                watcher.join()
                if proc.stdout is not None:
                    proc.stdout.close()
                _end_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        speed = PROBE_REFERENCE_S / statistics.fmean(watcher.probes)
        setup = None
        if mark_path is not None and os.path.exists(mark_path):
            with open(mark_path) as handle:
                first = min(tuple(map(float, line.split()))
                            for line in handle if line.strip())
            setup = first[1] * speed
        return Proc(proc.returncode, wall,
                    (usage.ru_utime + usage.ru_stime) * speed,
                    watcher.peak_mb, stdout, speed, setup)

    def cli(self, argv: List[str], marks: bool = False,
            until_mark: bool = False,
            extra: Optional[List[str]] = None) -> Proc:
        return self.spawn("cli", [*(extra or []), "--", *argv], marks=marks,
                          until_mark=until_mark)


def _wait_for_mark(pid: int, mark_path: str):
    """Wait until ``pid`` writes its set-up mark (then kill its group)
    or ends; returns its ``wait4`` status and usage."""
    while True:
        reaped, status, usage = os.wait4(pid, os.WNOHANG)
        if reaped:
            return status, usage
        if os.path.exists(mark_path) and os.path.getsize(mark_path):
            _kill_group(pid)
            _, status, usage = os.wait4(pid, 0)
            return status, usage
        time.sleep(0.01)


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in permille steps)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * round(q * 1000) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def _job_checks(workload: str, jobs, calls: List[Proc], sizes) -> list:
    """Exit status of every call, then the output checks of each job's
    last call (call ``i`` runs ``jobs[i % len(jobs)]``)."""
    codes = [call.code for call in calls]
    checks = [W.Check("exit-status", all(code == 0 for code in codes),
                      f"exit statuses {codes}")]
    for job, call in zip(jobs, _last_calls(jobs, calls)):
        try:
            if workload == "optimize-rnd":
                checks.append(W.check_optimize_equivalent(job))
                checks.append(W.check_optimize_repricing(job, call.stdout))
            elif workload == "search-greedy":
                checks.append(W.check_equivalent(job.network,
                                                 job.files["saved"]))
                checks.append(W.check_search_replay(job, job.mapped))
            elif workload == "eco-replay":
                checks.extend(W.check_eco(job))
            elif workload == "table3-quick":
                checks.append(W.check_table3_rows(
                    job, len(W.suite_cases(sizes))))
        except Exception as error:  # a malformed output fails its check
            checks.append(W.Check("outputs-readable", False,
                                  f"{type(error).__name__}: {error}"))
    return checks


def _last_calls(jobs, calls: List[Proc]) -> List[Proc]:
    last = {}
    for index, call in enumerate(calls):
        last[index % len(jobs)] = call
    return [last[index] for index in range(len(jobs))]


def _quality(workload: str, jobs, calls: List[Proc]) -> dict:
    """The mean of each quality figure over the jobs."""
    figures = [W.quality(workload, job, call.stdout)
               for job, call in zip(jobs, _last_calls(jobs, calls))]
    return {key: statistics.fmean(figure[key] for figure in figures)
            for key in figures[0]}


def _eco_edits(bench: Bench, job, sizes) -> Proc:
    """Map the eco circuit in a fresh process, write its edit script and
    replay it edit by edit there (a set-up sample too)."""
    return bench.spawn("edits", [
        "--blif", job.blif, "--seed", str(job.scenario_seed),
        "--edits", str(sizes.eco_edits),
        "--script", job.files["script"], "--replay", job.files["replay"],
        "--edited", job.files["edited"]], marks=True)


def _end_to_end(calls, setups, checks, figures) -> Dict[str, float]:
    return {
        "cpu_s": statistics.median(call.cpu_s for call in calls),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(call.rss_mb for call in calls),
        "pass_share": sum(c.ok for c in checks) / len(checks),
        "saving_pct": figures["saving"] * 100.0,
        "delay_ratio_pct": figures["delay_ratio"] * 100.0,
    }


def _span_self_s(summary, name: str) -> float:
    for span in summary.spans:
        if span.name == name:
            return span.self_ns / 1e9
    return 0.0


def _per_layer(workload, job, figures, untraced, traced, trace_path,
               traced_registry, timers, registry,
               replay) -> Dict[str, float]:
    from repro.obs.summarize import summarize_file

    summary = summarize_file(trace_path)
    layer = {name: 0.0 for name in PER_LAYER}

    def timer(name, key="seconds"):
        return timers.get(name, {}).get(key, 0)

    layer.update({
        "wall_s": untraced.wall_s,
        "host.speed": untraced.speed,
        "power_after_uW": 1e6 * figures["power_after"],
        "circuit.parse_s": timer("circuit.parse"),
        "circuit.write_s": timer("circuit.write"),
        "synth.map_s": timer("synth.map"),
        "synth.map_calls": timer("synth.map", "calls"),
        "synth.gates_out": timer("synth.map", "items"),
        "core.optimize_s": timer("core.optimize"),
        "core.price_s": timer("core.price"),
        "core.price_calls": timer("core.price", "calls"),
        "core.configs_priced": timer("core.price", "items"),
        "core.output_stats_s": timer("core.output_stats"),
        "core.gates_decided": registry.get("optimize.gates_decided", 0),
        "timing.sta_s": timer("timing.sta"),
        "timing.refresh_s": _span_self_s(summary, "timing.refresh"),
        "incremental.search_s": timer("incremental.search"),
        "incremental.score_batch_s": _span_self_s(summary,
                                                  "search.score_batch"),
        "incremental.power_refresh_s": _span_self_s(summary,
                                                    "stats.power_refresh"),
        "incremental.stats_refresh_s": _span_self_s(summary, "stats.refresh"),
        "compiled.kernel_calls": sum(
            value for name, value in registry.items()
            if name.startswith("compiled.") and name.endswith(".calls")),
        "robust.fallback": registry.get("robust.fallback", 0),
        "sim.run_s": timer("sim.run"),
        "sim.events": timer("sim.run", "items"),
        "robust.worker_retries": traced_registry.get("robust.worker.retries",
                                                     0),
        "robust.worker_failures": traced_registry.get(
            "robust.worker.failures", 0),
        "obs.trace_overhead_pct": 100.0 * (traced.cpu_s / untraced.cpu_s
                                           - 1.0),
    })
    if layer["sim.run_s"]:
        layer["sim.events_per_s"] = layer["sim.events"] / layer["sim.run_s"]
    if workload == "search-greedy":
        artifact = W.load_json(job.files["artifact"])
        trials = artifact["trials"]
        layer.update({
            "incremental.trials": trials,
            "incremental.accepted": artifact["accepted_count"],
            "incremental.accept_ratio": artifact["accepted_count"] / trials,
            "incremental.gates_repropagated": artifact["gates_repropagated"],
            "incremental.repropagated_per_trial":
                artifact["gates_repropagated"] / trials,
            "timing.gates_retimed": artifact["gates_retimed"],
        })
    if replay is not None:
        edits = len(replay["latency_s"])
        layer.update({
            "edit_p50_ms": 1e3 * statistics.median(replay["latency_s"]),
            "edit_p97.5_ms": 1e3 * _quantile(replay["latency_s"], TAIL),
            "incremental.edit_power_ms":
                1e3 * statistics.median(replay["power_s"]),
            "incremental.edit_delay_ms":
                1e3 * statistics.median(replay["delay_s"]),
            "incremental.cone_per_edit": sum(replay["cones"]) / edits,
            "incremental.gates_repropagated": sum(replay["cones"]),
            "timing.gates_retimed": replay["retimed"],
        })
    if workload == "table3-quick":
        rows = W.load_json(job.files["artifact"])["results"]
        case_s = sum(span.total_ns for span in summary.spans
                     if span.name == "bench.case") / 1e9
        layer.update({
            "sim_saving_pct": 100.0 * sum(r["sim_reduction"] for r in rows)
            / len(rows),
            "bench.case_s": case_s,
            "bench.worker_idle_share": 1.0 - case_s / (2 * traced.wall_s),
        })
    return layer


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: str, workdir: str, sizes=None) -> dict:
    """One benchmark run; returns the result object."""
    sizes = sizes if sizes is not None else W.FULL
    os.makedirs(workdir, exist_ok=True)
    bench = Bench(root, workdir)
    jobs = W.WORKLOADS[workload](seed, sizes, workdir)
    if trace:  # one call; the per-layer figures need no more
        jobs = jobs[:1]
    job = jobs[0]
    edits = (_eco_edits(bench, job, sizes)
             if workload == "eco-replay" else None)

    def call(index: int) -> Proc:
        called = jobs[index % len(jobs)]
        result = (["--result", called.files["result"]]
                  if "result" in called.files else None)
        return bench.cli(called.argv, marks=True, extra=result)

    # Every job runs once, then they run again in turn while the next
    # call still fits in ``seconds``; a job's outputs are overwritten by
    # each of its calls, so its checks read its last call.
    start = time.monotonic()
    calls = [call(index) for index in range(len(jobs))]
    while not trace and (time.monotonic() - start + calls[-1].wall_s
                         <= seconds):
        calls.append(call(len(calls)))
    for proc in calls:
        sys.stderr.write(f"call: cpu_s {proc.cpu_s:.3f} (measured "
                         f"{proc.cpu_s / proc.speed:.3f} at speed "
                         f"{proc.speed:.3f}), wall {proc.wall_s:.3f} s\n")
    checks = _job_checks(workload, jobs, calls, sizes)
    try:
        figures = _quality(workload, jobs, calls)
    except Exception as error:  # unreadable outputs fail a check
        figures = {"power_after": 0.0, "saving": 0.0, "delay_ratio": 0.0}
        checks.append(W.Check("figures-readable", False,
                              f"{type(error).__name__}: {error}"))
    failed = sum(not check.ok for check in checks)
    for check in checks:
        if not check.ok:
            sys.stderr.write(f"check failed: {workload} {check.name}: "
                             f"{check.detail}\n")
    if not trace:
        setups = [proc.setup_s for proc in calls + [edits]
                  if proc is not None and proc.setup_s is not None]
        for _ in range(SETUP_SAMPLES - len(setups)):
            probe = bench.cli(job.argv, until_mark=True)
            if probe.setup_s is not None:
                setups.append(probe.setup_s)
        values = _end_to_end(calls, setups, checks, figures)
        units = END_TO_END
    else:
        trace_path = bench.path("trace.jsonl")
        traced_registry_path = bench.path("registry.json")
        traced = bench.cli(job.argv + ["--trace", trace_path],
                           extra=["--registry", traced_registry_path])
        timers_path = bench.path("timers.json")
        registry_path = bench.path("registry.json")
        hooks = ["--timers", timers_path, "--registry", registry_path]
        if workload == "table3-quick":
            cases = (["--cases", *sizes.suite_cases] if sizes.suite_cases
                     else [])
            timed = bench.spawn("suite", ["--seed", str(seed), *cases,
                                          *hooks])
        else:
            timed = bench.cli(job.argv, extra=hooks)
        if traced.code != 0 or timed.code != 0:
            raise RuntimeError(f"traced runs failed: {traced.code}, "
                               f"{timed.code}")
        values = _per_layer(
            workload, job, figures, calls[0], traced, trace_path,
            W.load_json(traced_registry_path), W.load_json(timers_path),
            W.load_json(registry_path),
            W.load_json(job.files["replay"]) if edits else None)
        units = PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        sys.stderr.write("perfbench: run from the repository root "
                         "(src/repro/cli.py not found)\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    workdir = os.path.join(root, ".perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
