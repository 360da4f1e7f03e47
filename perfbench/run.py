#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Parthenon-VIBE engine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload amr-deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1

The script builds perfbench/vibe_perfbench from the checkout's src/ tree
(Release, into .bench_build/perfbench), then repeats one
Experiment::run per child process until --seconds have been spent.

--trace 0 reports the end-to-end metrics, medians over the repetitions:
  fom_zcps     zone-cycles / summed wall of the evolve cycles, from the
               per-cycle metrics heartbeat the engine writes.
  setup_s      wall of the whole Experiment::run call, timed by the child
               around the call, minus the summed cycle walls: mesh
               construction, initial refinement, ghost fill, model
               evaluation and teardown. ExperimentResult::wallSeconds is
               not used for either: on the single-rank path it leaves
               mesh construction and teardown out, on the rank-team path
               it keeps them in.
  peak_rss_mb  peak resident set of the child, from wait4(); one process
               per repetition, so no earlier run's high-water mark leaks
               into it.
Failed repetitions (crash, or an output check below failing) are counted
in "failed"; their ratio to "attempted" is the fail fraction.

--trace 1 alternates untraced repetitions (program counters) with
shorter traced ones (Chrome trace written by ExperimentSpec::tracePath)
and reports the per-layer metrics listed in perfbench/LAYERS.md.

Output checks on every repetition: the run completes; every per-cycle
mass is finite (a non-finite cell makes the mass sum non-finite); the
mass is conserved to 1e-12 relative; and the per-cycle mass and block
count equal the bitwise reference values in perfbench/reference.json
recorded for the workload's velocity variant.

--workload all runs every workload with the repetitions interleaved in a
seed-shuffled order (machine speed drifts over minutes, so one workload's
repetitions must not run in a block) and prints a table per workload.
--record-reference rewrites perfbench/reference.json from this build.
"""

import argparse
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "perfbench-runs"
BINARY = BUILD_DIR / "vibe_perfbench"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
MASS_TOLERANCE = 1e-12
CHILD_TIMEOUT_S = 150
BASE_VELOCITY = (1.0, 0.5, 0.25)

# Every workload uses ranks x threads = 4, sized for a 4-core machine.
# `cycles` is the length of an untraced repetition; `trace_cycles` that
# of a traced one, chosen so the trace stays a few tens of MB (the
# receive-poll retry spans grow it by ~25 MB per lb-imbalance cycle).
WORKLOADS = {
    # The paper's worst regime: ~500 8^3 blocks over 3 levels, frequent
    # remesh and migration, a cheap kernel; boundary exchange and cycle
    # overhead dominate. State fits in L3.
    "amr-deep": {
        "args": ["--package", "advection", "--mesh", "32", "--block", "8",
                 "--levels", "3"],
        "ranks": 2,
        "threads": 2,
        "velocity_block": "advection",
        "cycles": 20,
        "trace_cycles": 6,
    },
    # Interior kernels only: no remesh, no prolong/restrict, no flux
    # correction, no cross-rank traffic. ~1 GB of state, ~3x L3.
    "uniform-kernel": {
        "args": ["--package", "burgers", "--scalars", "8", "--mesh", "64",
                 "--block", "16", "--levels", "1"],
        "ranks": 1,
        "threads": 4,
        "velocity_block": None,
        "cycles": 6,
        "trace_cycles": 3,
    },
    # Per-cell cost varies ~100x inside one octant: straggler waits in
    # collectives, measured-cost migration and receive polling dominate
    # the non-kernel time. Serial executor inside each rank.
    "lb-imbalance": {
        "args": ["--package", "reaction", "--mesh", "64", "--block", "8",
                 "--levels", "1",
                 "--param", "reaction", "stiffness", "6.5",
                 "--param", "reaction", "max_iters", "2000",
                 "--lb-cost", "measured", "--lb-trigger", "0.2"],
        "ranks": 4,
        "threads": 1,
        "velocity_block": "reaction",
        "cycles": 15,
        "trace_cycles": 3,
    },
}

END_TO_END_UNITS = {"fom_zcps": "zone-cycles/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

# Trace span name -> layer bucket (self time). Names not listed fall back
# on their category: compute/kernel -> pkg, comm -> comm.other,
# anything else -> driver.other.
SPAN_LAYER = {
    "Cycle": "driver.unattributed",
    "SendBoundBufs": "comm.bounds",
    "SetBounds": "comm.bounds",
    "StartReceiveBoundBufs": "comm.bounds",
    "ExchangeBounds": "comm.bounds",
    "ReceiveBoundBufs": "comm.poll",
    "FluxCorrSend": "comm.fluxcorr",
    "FluxCorrApply": "comm.fluxcorr",
    "Rendezvous": "comm.collective",
    "MigrateBlocks": "lb.migrate",
    "LoadBalancingAndAMR": "mesh.remesh_lb",
}
CATEGORY_LAYER = {"compute": "pkg.kernel", "kernel": "pkg.kernel",
                  "comm": "comm.other"}
LAYER_BUCKETS = ["pkg.kernel", "comm.bounds", "comm.poll", "comm.fluxcorr",
                 "comm.collective", "comm.other", "lb.migrate",
                 "mesh.remesh_lb", "driver.unattributed", "driver.other"]
BOUNDARY_BUCKETS = ("comm.bounds", "comm.poll", "comm.fluxcorr")
SERIAL_CATEGORIES = ("bound_buf_metadata", "string_lookup",
                     "neighbor_search", "lb_partition")

# name -> unit, in report order.
PER_LAYER_UNITS = {
    "pkg.kernel_s": "s/cycle",
    "pkg.kernel_share": "ratio",
    "pkg.flux_gbs_computed": "GB/s",
    "pkg.launches": "count/cycle",
    "pkg.flux_items": "count/cycle",
    "comm.bounds_s": "s/cycle",
    "comm.poll_s": "s/cycle",
    "comm.boundary_share": "ratio",
    "comm.bound_gbs_computed": "GB/s",
    "comm.fluxcorr_s": "s/cycle",
    "comm.poll_attempts": "count/cycle",
    "comm.poll_useful_ratio": "ratio",
    "comm.collective_s": "s/cycle",
    "comm.collective_share": "ratio",
    "comm.other_s": "s/cycle",
    "comm.boundary_msgs_per_cycle": "count/cycle",
    "comm.boundary_mb_per_cycle": "MB/cycle",
    "comm.remote_msgs_per_cycle": "count/cycle",
    "comm.remote_mb_per_cycle": "MB/cycle",
    "comm.allreduces": "count/cycle",
    "comm.allgathers": "count/cycle",
    "driver.unattributed_s": "s/cycle",
    "driver.unattributed_share": "ratio",
    "driver.other_s": "s/cycle",
    "driver.task_wall_s": "s/cycle",
    "driver.busy_s": "s/cycle",
    "driver.idle_s": "s/cycle",
    "driver.idle_fraction": "ratio",
    "driver.critical_path_s": "s/cycle",
    "driver.straggler_idle_fraction": "ratio",
    "lb.migrate_s": "s/cycle",
    "lb.moved_blocks": "count",
    "lb.migrated_mb": "MB",
    "lb.adopted": "count",
    "lb.rejected": "count",
    "lb.late_imbalance": "ratio",
    "mesh.remesh_lb_s": "s/cycle",
    "mesh.remesh_cycle_ms": "ms",
    "mesh.steady_cycle_ms": "ms",
    "mesh.blocks_mean": "count",
    "mesh.refined": "count",
    "mesh.derefined": "count",
    "mesh.state_mb": "MB",
    "mesh.pool_hits": "count",
    "mesh.pool_fresh_allocs": "count",
    "serial.bound_buf_metadata": "count",
    "serial.string_lookup": "count",
    "serial.neighbor_search": "count",
    "serial.lb_partition": "count",
    "obs.trace_overhead": "ratio",
    "obs.trace_mb": "MB",
    "obs.dropped_events": "count",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --

def build():
    if not (ROOT / "src" / "core" / "experiment.hpp").is_file():
        raise SystemExit(f"perfbench: no engine sources under {ROOT / 'src'}")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD_DIR), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


# ------------------------------------------------------------- workloads --

# The 48 permutations and sign flips of (vx, vy, vz).
VELOCITY_VARIANTS = [
    tuple(BASE_VELOCITY[order[d]] * (-1 if signs >> d & 1 else 1)
          for d in range(3))
    for order in itertools.permutations(range(3)) for signs in range(8)]


def velocity(workload, seed):
    """The seed picks a permutation and sign flip of (vx, vy, vz): every
    norm, and so dt, is unchanged, but the feature's path through blocks
    and ranks is not."""
    if WORKLOADS[workload]["velocity_block"] is None:
        return None
    return random.Random(f"{workload}:{seed}").choice(VELOCITY_VARIANTS)


def variant_key(vel):
    return "default" if vel is None else ",".join(f"{v:+g}" for v in vel)


def child_argv(workload, vel, cycles, metrics, trace):
    spec = WORKLOADS[workload]
    argv = [str(BINARY)] + spec["args"] + [
        "--ranks", str(spec["ranks"]), "--threads", str(spec["threads"]),
        "--cycles", str(cycles), "--metrics", str(metrics)]
    if vel is not None:
        for name, value in zip(("vx", "vy", "vz"), vel):
            argv += ["--param", spec["velocity_block"], name, repr(value)]
    if trace:
        argv += ["--trace", str(trace)]
    return argv


# ------------------------------------------------------------ one child --

def run_child(argv, tag):
    """Run one repetition; return (result dict or None, peak RSS bytes,
    error text)."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RUN_DIR / f"{tag}.out.json"
    err_path = RUN_DIR / f"{tag}.err.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=RUN_DIR)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rss = usage.ru_maxrss * 1024
    if proc.returncode != 0:
        return None, rss, f"exit {proc.returncode}: " + \
            err_path.read_text()[-400:].strip()
    try:
        return json.loads(out_path.read_text()), rss, ""
    except ValueError as exc:
        return None, rss, f"unreadable child output: {exc}"


def read_heartbeat(path):
    cycles = []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("type") == "cycle":
                cycles.append(record)
    return cycles


def conservation_problems(masses):
    if not all(math.isfinite(m) for m in masses):
        return ["non-finite mass"]
    if abs(masses[-1] - masses[0]) > MASS_TOLERANCE * abs(masses[0]):
        return [f"mass drift {masses[-1] - masses[0]:.3e} "
                f"from {masses[0]:.17g}"]
    return []


def check(workload, vel, result, beats, cycles, reference):
    """Output checks; returns a list of problems (empty = correct)."""
    history = result["history"]
    if len(history) != cycles or len(beats) != cycles:
        return [f"expected {cycles} cycles, got {len(history)} history "
                f"records and {len(beats)} heartbeat records"]
    masses = [c["mass"] for c in history]
    problems = conservation_problems(masses)
    if any(b["wall_seconds"] <= 0 for b in beats):
        problems.append("non-positive cycle wall")
    ref = reference.get(workload, {}).get(variant_key(vel))
    if ref is None:
        problems.append(f"no reference for {workload} {variant_key(vel)}")
    else:
        ref_mass = [float.fromhex(m) for m in ref["mass"]]
        if len(ref_mass) < cycles:
            problems.append("reference shorter than the run")
        elif masses != ref_mass[:cycles]:
            bad = next(i for i, (a, b) in enumerate(zip(masses, ref_mass))
                       if a != b)
            problems.append(f"cycle {bad} mass {masses[bad]!r} != "
                            f"reference {ref_mass[bad]!r}")
        if [c["nblocks"] for c in history] != ref["nblocks"][:cycles]:
            problems.append("block counts differ from reference")
        # History counts blocks at the start of a cycle; the final count
        # is after the last cycle's remesh.
        final = ref["nblocks"][cycles] if cycles < len(ref["nblocks"]) \
            else ref["final_blocks"]
        if result["final_blocks"] != final:
            problems.append("final block count differs from reference")
    return problems


class Rep:
    """One finished repetition."""

    def __init__(self, workload, vel, traced, seq, reference,
                 warmup=False):
        spec = WORKLOADS[workload]
        self.workload = workload
        self.traced = traced
        self.warmup = warmup
        self.cycles = spec["trace_cycles"] if traced else spec["cycles"]
        tag = f"{workload}-{seq}"
        metrics = RUN_DIR / f"{tag}.metrics.jsonl"
        trace = RUN_DIR / f"{tag}.trace.json" if traced else None
        for path in (metrics, trace):
            if path is not None and path.exists():
                path.unlink()
        self.result, self.rss, error = run_child(
            child_argv(workload, vel, self.cycles, metrics, trace), tag)
        self.problems = [error] if error else []
        self.layers = None
        if self.result is not None:
            try:
                self.beats = read_heartbeat(metrics)
                self.problems += check(workload, vel, self.result,
                                       self.beats, self.cycles, reference)
                if traced:
                    self.trace_bytes = trace.stat().st_size
                    self.layers = fold_trace(trace)
            except (OSError, ValueError, KeyError) as exc:
                self.problems.append(f"unreadable output: {exc!r}")
        for path in (metrics, trace):
            if path is not None and path.exists():
                path.unlink()
        if self.problems:
            log(f"perfbench: {workload} rep {seq} FAILED: "
                + "; ".join(self.problems))

    @property
    def ok(self):
        return not self.problems

    def cycle_walls(self):
        return [b["wall_seconds"] for b in self.beats]

    def fom(self, first=None):
        """Zone-cycles per second of evolve-cycle wall, optionally over
        the first `first` cycles only."""
        walls = self.cycle_walls()[:first]
        cells = [b["interior_cells"] for b in self.beats][:first]
        if first is None:
            return self.result["zone_cycles"] / sum(walls)
        return sum(cells) / sum(walls)

    def setup_s(self):
        return self.result["run_seconds"] - sum(self.cycle_walls())


# ------------------------------------------------------------- the trace --

def fold_trace(path):
    """Self time per layer bucket over the evolve cycles, from a Chrome
    trace. Self time is a span's duration minus the part its child spans
    on the same (pid, tid) row cover. A rank's evolve window starts at
    its first `Cycle` span; earlier spans are set-up. The three
    `*_all` entries keep whole-run self time of the spans the profiler's
    byte counters also cover whole-run."""
    buckets = dict.fromkeys(LAYER_BUCKETS, 0.0)
    whole = {"CalculateFluxes": 0.0, "SendBoundBufs": 0.0, "SetBounds": 0.0}
    polls = useful = 0
    first_cycle = {}
    stacks = {}

    def close(span):
        name, bucket, start, dur, child, pid = span
        self_us = max(0.0, dur - child)
        if name in whole:
            whole[name] += self_us
        if pid in first_cycle and start >= first_cycle[pid]:
            buckets[bucket] += self_us

    with open(path) as f:
        for line in f:
            if not line.startswith('{"name"'):
                continue
            event = json.loads(line.rstrip().rstrip(","))
            if event.get("ph") != "X":
                continue
            name = event["name"].split(":", 1)[0]
            pid, start, dur = event["pid"], event["ts"], event["dur"]
            if name == "Cycle":
                first_cycle.setdefault(pid, start)
            if name == "ReceiveBoundBufs" and pid in first_cycle:
                polls += 1
                useful += not event["args"].get("poll_retry", False)
            bucket = SPAN_LAYER.get(name) or CATEGORY_LAYER.get(
                event.get("cat"), "driver.other")
            stack = stacks.setdefault((pid, event["tid"]), [])
            end = start + dur
            while stack and stack[-1][2] + stack[-1][3] <= start:
                close(stack.pop())
            span = [name, bucket, start, dur, 0.0, pid]
            # A parent recorded after a child with the same timestamp.
            while stack and stack[-1][2] >= start and \
                    stack[-1][2] + stack[-1][3] <= end and \
                    stack[-1][3] < dur:
                child = stack.pop()
                close(child)
                span[4] += child[3]
                if stack:
                    stack[-1][4] -= child[3]
            if stack:
                stack[-1][4] += dur
            stack.append(span)
    for stack in stacks.values():
        while stack:
            close(stack.pop())
    seconds = {k: v * 1e-6 for k, v in buckets.items()}
    seconds.update({f"{k}_all": v * 1e-6 for k, v in whole.items()})
    seconds["polls"] = polls
    seconds["useful_polls"] = useful
    return seconds


# --------------------------------------------------------------- metrics --

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps):
    good = [r for r in reps if r.ok and not r.traced and not r.warmup]
    return {
        "fom_zcps": median([r.fom() for r in good]),
        "setup_s": median([r.setup_s() for r in good]),
        "peak_rss_mb": median([r.rss / 1e6 for r in good]),
    }


def untraced_layers(rep):
    """Per-layer metrics from program counters of one untraced rep."""
    res, beats, hist = rep.result, rep.beats, rep.result["history"]
    n = len(hist)
    spec = WORKLOADS[rep.workload]
    walls = rep.cycle_walls()
    kernels, serial = res["kernels"], res["serial"]

    def delta(key):
        # Heartbeat traffic counters are cumulative and the first record
        # includes set-up traffic, so rate over cycles 1..n-1.
        return (beats[-1][key] - beats[0][key]) / max(1, n - 1)

    remesh = [w for w, c in zip(walls, hist)
              if c["refined"] or c["derefined"] or c["moved_blocks"]]
    steady = [w for w, c in zip(walls, hist)
              if not (c["refined"] or c["derefined"] or c["moved_blocks"])]
    busy = sum(c["busy"] for c in hist)
    idle = sum(c["idle"] for c in hist)
    late = hist[n // 2:]
    m = {
        "pkg.launches": sum(k["launches"] for k in kernels) / n,
        "pkg.flux_items": sum(k["items"] for k in kernels
                              if k["name"] == "CalculateFluxes") / n,
        "comm.boundary_msgs_per_cycle":
            sum(c["boundary_messages"] for c in hist) / n,
        "comm.boundary_mb_per_cycle":
            sum(c["boundary_bytes"] for c in hist) / n / 1e6,
        "comm.remote_msgs_per_cycle": delta("traffic.remote_messages"),
        "comm.remote_mb_per_cycle": delta("traffic.remote_bytes") / 1e6,
        "comm.allreduces": delta("traffic.all_reduces"),
        "comm.allgathers": delta("traffic.all_gathers"),
        "driver.task_wall_s": sum(c["task_wall"] for c in hist) / n,
        "driver.busy_s": busy / n,
        "driver.idle_s": idle / n,
        "driver.idle_fraction": idle / (busy + idle) if busy + idle else 0.0,
        "driver.critical_path_s": sum(c["critical_path"] for c in hist) / n,
        "driver.straggler_idle_fraction":
            1.0 - busy / (sum(walls) * spec["ranks"] * spec["threads"]),
        "lb.moved_blocks": sum(c["moved_blocks"] for c in hist),
        "lb.migrated_mb": sum(c["migrated_bytes"] for c in hist) / 1e6,
        "lb.adopted": sum(c["lb_decision"] == 1 for c in hist),
        "lb.rejected": sum(c["lb_decision"] == 2 for c in hist),
        "lb.late_imbalance":
            sum(c["lb_imbalance"] for c in late) / len(late),
        "mesh.remesh_cycle_ms": median(remesh) * 1e3,
        "mesh.steady_cycle_ms": median(steady) * 1e3,
        "mesh.blocks_mean": sum(c["nblocks"] for c in hist) / n,
        "mesh.refined": sum(c["refined"] for c in hist),
        "mesh.derefined": sum(c["derefined"] for c in hist),
        "mesh.state_mb": res["state_bytes"] / 1e6,
        "mesh.pool_hits": beats[-1].get("pool.hits", 0),
        "mesh.pool_fresh_allocs": beats[-1].get("pool.fresh_allocs", 0),
    }
    for category in SERIAL_CATEGORIES:
        m[f"serial.{category}"] = sum(s["items"] for s in serial
                                      if s["category"] == category)
    return m


def traced_layers(rep):
    """Per-layer metrics from the trace of one traced rep."""
    t, n = rep.layers, rep.cycles
    total = sum(t[b] for b in LAYER_BUCKETS)

    def kernel_bytes(*names):
        return sum(k["bytes"] for k in rep.result["kernels"]
                   if k["name"] in names)

    def gbs(byte_count, seconds):
        return byte_count / seconds / 1e9 if seconds > 0 else 0.0

    return {
        "pkg.kernel_s": t["pkg.kernel"] / n,
        "pkg.kernel_share": t["pkg.kernel"] / total,
        "pkg.flux_gbs_computed": gbs(kernel_bytes("CalculateFluxes"),
                                     t["CalculateFluxes_all"]),
        "comm.bounds_s": t["comm.bounds"] / n,
        "comm.poll_s": t["comm.poll"] / n,
        "comm.boundary_share": sum(t[b] for b in BOUNDARY_BUCKETS) / total,
        "comm.bound_gbs_computed":
            gbs(kernel_bytes("SendBoundBufs", "SetBounds"),
                t["SendBoundBufs_all"] + t["SetBounds_all"]),
        "comm.fluxcorr_s": t["comm.fluxcorr"] / n,
        "comm.poll_attempts": t["polls"] / n,
        "comm.poll_useful_ratio":
            t["useful_polls"] / t["polls"] if t["polls"] else 1.0,
        "comm.collective_s": t["comm.collective"] / n,
        "comm.collective_share": t["comm.collective"] / total,
        "comm.other_s": t["comm.other"] / n,
        "driver.unattributed_s": t["driver.unattributed"] / n,
        "driver.unattributed_share": t["driver.unattributed"] / total,
        "driver.other_s": t["driver.other"] / n,
        "lb.migrate_s": t["lb.migrate"] / n,
        "mesh.remesh_lb_s": t["mesh.remesh_lb"] / n,
        "obs.trace_mb": rep.trace_bytes / 1e6,
        "obs.dropped_events": rep.result["trace_dropped"],
    }


def per_layer(reps):
    untraced = [r for r in reps if r.ok and not r.traced and not r.warmup]
    traced = [r for r in reps if r.ok and r.traced]
    samples = {}
    for rep in untraced:
        for k, v in untraced_layers(rep).items():
            samples.setdefault(k, []).append(v)
    for rep in traced:
        for k, v in traced_layers(rep).items():
            samples.setdefault(k, []).append(v)
    metrics = {k: median(v) for k, v in samples.items()}
    if untraced and traced:
        # Same cycle window on both sides: the traced run is shorter.
        k = traced[0].cycles
        metrics["obs.trace_overhead"] = (
            median([r.fom(first=k) for r in untraced]) /
            median([r.fom(first=k) for r in traced]))
    return {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}


def report(reps, trace):
    attempted = len(reps)
    failed = sum(not r.ok for r in reps)
    if trace:
        values, units = per_layer(reps), PER_LAYER_UNITS
    else:
        values, units = end_to_end(reps), END_TO_END_UNITS
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                        for k in units}}


# ------------------------------------------------------------------ main --

def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def schedule(workloads, trace, rng):
    """Endless rounds of (workload, traced) pairs: each round holds one
    repetition of every workload (an untraced and a traced one with
    --trace 1), in a freshly shuffled order."""
    kinds = (False, True) if trace else (False,)
    while True:
        round_ = [(w, k) for w in workloads for k in kinds]
        rng.shuffle(round_)
        yield from round_


def run_workloads(workloads, seed, seconds, trace):
    reference = load_reference()
    rng = random.Random(seed)
    reps = {w: [] for w in workloads}
    needed = {(w, k) for w in workloads
              for k in ((False, True) if trace else (False,))}
    done = set()
    # One checked but untimed repetition per workload first: the first
    # run after an idle spell pays for faulting its memory back in
    # (first cycles 2-3x slower), which would otherwise land in the
    # timed medians.
    for workload in workloads:
        reps[workload].append(Rep(workload, velocity(workload, seed), False,
                                  "warmup", reference, warmup=True))
    budget = seconds * len(workloads)
    start = time.monotonic()
    for seq, (workload, traced) in enumerate(schedule(workloads, trace,
                                                      rng)):
        if time.monotonic() - start >= budget and needed <= done:
            break
        reps[workload].append(Rep(workload, velocity(workload, seed),
                                  traced, seq, reference))
        done.add((workload, traced))
    return reps


def record_reference():
    reference = {}
    for workload, spec in WORKLOADS.items():
        variants = [None] if spec["velocity_block"] is None \
            else VELOCITY_VARIANTS
        table = reference.setdefault(workload, {})
        for i, vel in enumerate(variants):
            metrics = RUN_DIR / "reference.metrics.jsonl"
            result, _, error = run_child(
                child_argv(workload, vel, spec["cycles"], metrics, None),
                f"reference-{workload}-{i}")
            if result is None:
                raise SystemExit(f"perfbench: reference run failed: {error}")
            history = result["history"]
            masses = [c["mass"] for c in history]
            problems = conservation_problems(masses)
            if problems:
                raise SystemExit(f"perfbench: {workload} {vel}: "
                                 f"{problems[0]}; no reference recorded")
            table[variant_key(vel)] = {
                "mass": [m.hex() for m in masses],
                "nblocks": [c["nblocks"] for c in history],
                "final_blocks": result["final_blocks"]}
            log(f"reference {workload} {variant_key(vel)}: "
                f"{history[-1]['nblocks']} blocks, mass {masses[-1]!r}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")


def print_table(name, payload, units):
    log(f"\n{name}: attempted {payload['attempted']}, failed "
        f"{payload['failed']}, fail_fraction "
        f"{payload['failed'] / payload['attempted']:.3f} ratio")
    for key, entry in payload["metrics"].items():
        log(f"  {key:34s} {entry['value']:14.6g} {units[key]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so a running child is killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    build()
    if args.record_reference:
        record_reference()
        return 0
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    reps = run_workloads(workloads, args.seed, args.seconds, args.trace)
    payloads = {w: report(reps[w], args.trace) for w in workloads}
    if args.workload != "all":
        print(json.dumps(payloads[args.workload]))
        return 0
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for w in workloads:
        print_table(w, payloads[w], units)
    print(json.dumps({"workloads": payloads}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
