#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload infer-transfuser --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/mmperf from the checkout (into .bench_build/, or
$CARGO_TARGET_DIR when set), runs the workload in its own mmperf process
with 2 worker threads, checks its outputs and prints every metric by
name. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 reports the per-layer metrics from a traced run and writes its
spans to <build dir>/spans/. README.md explains the workloads and
metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

sys.dont_write_bytecode = True
import stats  # noqa: E402

# Worker threads for every workload: 4 threads lost a quarter of their
# time to hypervisor steal on the 4-vCPU host this was tuned on.
THREADS = 2
# Set-up is repeated until both bounds are met; setup_s is the median.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPS = 15

# serve-transfuser: fixed offered rates and the latency limit of goodput.
LOW_RPS = 10.0
HIGH_RPS = 25.0
LIMIT_MS = 100.0
# An offered rate far above capacity (~105 rps), so service calls carry
# full batches and completions per second are the capacity.
SATURATE_RPS = 20000.0
# Requests per serve stream, per second of --seconds.
LOW_REQUESTS_PER_S = 3
HIGH_REQUESTS_PER_S = 15
SATURATE_REQUESTS_PER_S = 20
# Alternating chunks of the high-rate and the saturating stream.
SERVE_CHUNKS = 4

# latency_tail_ms is this percentile on every workload: a run's 240
# passes or steps leave 24 samples beyond it, and higher percentiles of
# short operations did not repeat across runs on a shared host.
TAIL_P = 90.0
# throughput_sps is the median rate over this many consecutive windows of
# a run's passes or steps, so a steal burst in part of a run moves it
# only through the median.
RATE_WINDOWS = 8
# Timed operations per second of --seconds, fixed so that a run's sample
# count, and with it the tail percentile, depends only on --seconds.
OPS_PER_S = {
    "infer-transfuser": 8,
    "train-transfuser": 8,
}
# Traced runs of train and serve add profiled passes over one operation's
# batch (a training batch, one request) for the trace, sim and tensor
# layers; infer's own passes are profiled.
PROFILE_PASSES_PER_S = 1
WORKLOADS = {
    "infer-transfuser": "infer",
    "serve-transfuser": "serve",
    "train-transfuser": "train",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configure and build mmperf; returns the binary's path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("no mmbench sources next to perfbench/; "
                         "run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(build_dir), "--parallel", "4"])
    exe = build_dir / "mmperf"
    if not exe.is_file():
        raise BenchError("build produced no mmperf binary")
    return exe


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


# --------------------------------------------------------------- engine

class Engine:
    """One mmperf process, driven one JSON command per line."""

    def __init__(self, exe, workload, seed):
        env = dict(os.environ, MMBENCH_NUM_THREADS=str(THREADS))
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [str(exe), workload, str(seed)], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        hello = self._read()
        # steady_clock and time.monotonic read the same CLOCK_MONOTONIC.
        self.launch_s = hello["main_us"] / 1e6 - t0
        self.batch = hello["batch"]
        if hello["threads"] != THREADS:
            raise BenchError("mmperf runs %d threads, expected %d"
                             % (hello["threads"], THREADS))

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("mmperf exited (code %s)" % self.proc.wait())
        return json.loads(line)

    def call(self, op, **args):
        args["op"] = op
        self.proc.stdin.write(json.dumps(args) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        """Ask the process to exit; returns its peak RSS in MB."""
        reply = self.call("exit")
        self.proc.wait(timeout=30)
        return reply["peak_rss_mb"]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class HostNoise:
    """Hypervisor steal and the process's CPU use over one window."""

    def __init__(self, pid):
        self.pid = pid
        self.hz = os.sysconf("SC_CLK_TCK")
        self.t0 = time.monotonic()
        self.stat0 = self._stat()
        self.ticks0 = self._ticks()

    def _stat(self):
        with open("/proc/stat") as f:
            return stats.parse_proc_stat_cpu(f.read())

    def _ticks(self):
        with open("/proc/%d/stat" % self.pid) as f:
            return stats.parse_proc_pid_cpu_ticks(f.read())

    def finish(self):
        wall = time.monotonic() - self.t0
        return {
            "steal_pct": stats.steal_pct(self.stat0, self._stat()),
            "cpu_util": stats.cpu_util(self._ticks() - self.ticks0,
                                       self.hz, wall, THREADS),
        }



# ------------------------------------------------------------ workloads

# The metrics every workload prints, in this order. The contract of the
# result line is that each workload reports each of them.
END_TO_END = ("latency_p50_ms", "latency_tail_ms", "throughput_sps",
              "setup_s", "peak_rss_mb")
STAGES = ("encoder", "fusion", "head")
# Kernel classes with calls and flops on every workload; the others
# (pooling, and other with no flops) are printed as details.
COMMON_CLASSES = ("conv", "bnorm", "elewise", "gemm", "reduce", "relu")
PER_LAYER = (
    ("host.cpu_util",) +
    ("models.construct_ms", "data.sample_ms",
     "pipeline.forward_ms", "pipeline.graph_self_ms") +
    tuple("pipeline.%s_ms" % s for s in STAGES) +
    tuple("pipeline.%s.gflops" % s for s in STAGES) +
    ("tensor.calls", "tensor.gflop") +
    tuple("tensor.%s.%s" % (c, k) for c in COMMON_CLASSES
          for k in ("calls", "gflop")) +
    ("tensor.pool.reuse_ratio", "tensor.pool.peak_mb",
     "trace.capture_ms", "trace.events", "pipeline.merge_ms",
     "sim.replay_ms", "sim.latency_ms",
     "trace.traced_p50_ms", "trace.untraced_p50_ms", "trace.overhead_pct"))


class Run:
    """What one invocation measured: metrics, checks and op counts.

    Metrics go into the result line; details are printed above it only,
    for layers that some workloads do not have.
    """

    def __init__(self):
        self.metrics = {}
        self.details = {}
        self.notes = []
        self.checks = []  # (name, passed)
        self.attempted = 0
        self.failed = 0

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def detail(self, name, value, unit):
        self.details[name] = {"value": value, "unit": unit}

    def check(self, name, passed):
        self.checks.append((name, bool(passed)))

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def do_setups(engine, run):
    """Repeated set-up; returns the per-rep replies."""
    reps = []
    t0 = time.monotonic()
    while len(reps) < SETUP_MAX_REPS and (
            len(reps) < SETUP_MIN_REPS
            or time.monotonic() - t0 < SETUP_MIN_SECONDS):
        reps.append(engine.call("setup"))
    checks = sum(r["checks"] for r in reps)
    failures = sum(r["check_failures"] for r in reps)
    run.ops(checks, failures)
    if checks:
        run.check("set-up outputs (%d checked)" % checks, failures == 0)
    setup_s = engine.launch_s + stats.median(
        [r["total_ms"] / 1e3 for r in reps])
    run.notes.append("setup: %d reps, launch %.4f s, median rep %.4f s"
                     % (len(reps), engine.launch_s, setup_s - engine.launch_s))
    return reps, setup_s


def ms(values_us):
    return [v / 1e3 for v in values_us]


def latency_metrics(run, samples_ms):
    run.metric("latency_p50_ms", stats.median(samples_ms), "ms")
    p, value, beyond, windows = stats.windowed_tail(
        samples_ms, ladder=(TAIL_P,))
    run.metric("latency_tail_ms", value, "ms")
    run.notes.append("latency_tail_ms is p%g of %d samples (%d beyond), "
                     "median of %d window(s)" % (
                         p, len(samples_ms) // windows, beyond, windows))
    # The highest percentile the sample supports, printed but not a
    # metric, so that the tail keeps one definition on every workload.
    p, value, beyond, windows = stats.windowed_tail(samples_ms)
    run.notes.append("not a metric: p%g of %d samples (%d beyond), median "
                     "of %d window(s) = %.4f ms" % (
                         p, len(samples_ms) // windows, beyond, windows,
                         value))


def throughput_metric(run, batch, samples_ms):
    run.metric("throughput_sps", stats.windowed_rate(
        [batch] * len(samples_ms), [v / 1e3 for v in samples_ms],
        RATE_WINDOWS), "samples/s")


def pool_metrics(run, reply):
    pool = reply["pool"]
    reuse = pool["hits"] / pool["requests"] if pool["requests"] else 0.0
    run.metric("tensor.pool.reuse_ratio", reuse, "ratio")
    run.metric("tensor.pool.peak_mb", pool["peak_bytes"] / 2**20, "MB")


def spans_by(spans, name):
    return [s for s in spans if s["name"] == name]


def durations_ms(spans):
    return [(s["end_us"] - s["start_us"]) / 1e3 for s in spans]


def per_id_ms(spans, names):
    """Total duration per pass/step id of the spans with these names."""
    total = {}
    for s in spans:
        if s["name"] in names:
            total[s["id"]] = total.get(s["id"], 0.0) + \
                (s["end_us"] - s["start_us"]) / 1e3
    return list(total.values())


def per_parent_ms(spans, name, parents):
    """Total duration of the spans called `name` under each parent."""
    total = {}
    for s in spans:
        if s["name"] == name and s["parent"] in parents:
            total[s["parent"]] = total.get(s["parent"], 0.0) + \
                (s["end_us"] - s["start_us"]) / 1e3
    return list(total.values())


def concat_spans(*lists):
    """One span list; each list's parent indices are shifted with it."""
    out = []
    for spans in lists:
        offset = len(out)
        out.extend(dict(s, parent=s["parent"] + offset)
                   if s["parent"] >= 0 else s for s in spans)
    return out


def forward_metrics(run, spans, stage_flops):
    """pipeline.* from the workload's own graph forwards.

    `spans` holds "forward" spans (capture off, over the same batch as
    the profiled passes) with the graph's node spans as children.
    """
    forward = {i for i, s in enumerate(spans) if s["name"] == "forward"}
    self_us = stats.self_times(spans)
    run.metric("pipeline.forward_ms", stats.median(
        durations_ms([spans[i] for i in forward])), "ms")
    run.metric("pipeline.graph_self_ms", stats.median(
        [self_us[i] / 1e3 for i in forward]), "ms")
    for stage in STAGES:
        stage_ms = stats.median(per_parent_ms(spans, stage, forward))
        run.metric("pipeline.%s_ms" % stage, stage_ms, "ms")
        run.metric("pipeline.%s.gflops" % stage,
                   stage_flops[stage] / 1e9 / (stage_ms / 1e3), "GFLOP/s")


def profile_metrics(run, reply):
    """trace.*, sim.* and tensor.* from profiled passes over the batch."""
    spans = reply["spans"]
    run.metric("trace.capture_ms",
               stats.median(durations_ms(spans_by(spans, "forward_capture")))
               - stats.median(durations_ms(spans_by(spans, "forward"))), "ms")
    run.metric("trace.events", reply["events"], "count")
    run.metric("pipeline.merge_ms",
               stats.median(durations_ms(spans_by(spans, "merge"))), "ms")
    run.metric("sim.replay_ms",
               stats.median(per_id_ms(spans, ("replay", "split"))), "ms")
    run.metric("sim.latency_ms", reply["sim_us"] / 1e3, "ms")
    classes = {cls.lower(): c for cls, c in reply["classes"].items()}
    run.metric("tensor.calls", sum(c["calls"] for c in classes.values()),
               "count")
    run.metric("tensor.gflop",
               sum(c["flops"] for c in classes.values()) / 1e9, "GFLOP")
    for cls, c in sorted(classes.items()):
        put = run.metric if cls in COMMON_CLASSES else run.detail
        put("tensor.%s.calls" % cls, c["calls"], "count")
        put("tensor.%s.gflop" % cls, c["flops"] / 1e9, "GFLOP")


def overhead_metrics(run, traced_ms, untraced_ms):
    t, u = stats.median(traced_ms), stats.median(untraced_ms)
    run.metric("trace.traced_p50_ms", t, "ms")
    run.metric("trace.untraced_p50_ms", u, "ms")
    run.metric("trace.overhead_pct", 100.0 * (t - u) / u, "%")


def profile(engine, run, passes, traced=True):
    """Profiled passes over the workload's batch; checks and counts them."""
    reply = engine.call("infer", passes=passes, traced=traced)
    bad = reply["mismatches"]
    run.ops(len(reply["lat_us"]), bad + reply["sim_mismatches"])
    if reply["checked"]:
        run.check("passes bitwise equal to warmup and 1-thread forward "
                  "(%d mismatched)" % bad, bad == 0)
    run.check("sim latency identical across passes",
              reply["sim_mismatches"] == 0)
    return reply


def infer(engine, run, seconds, traced, workload):
    passes = OPS_PER_S[workload] * seconds
    if not traced:
        lat_ms = ms(profile(engine, run, passes, traced=False)["lat_us"])
        latency_metrics(run, lat_ms)
        throughput_metric(run, engine.batch, lat_ms)
        return None
    # Untraced quarters before and after the traced half, so that drift
    # over the run cancels out of the overhead.
    base = profile(engine, run, passes // 4, traced=False)
    reply = profile(engine, run, passes // 2)
    base2 = profile(engine, run, passes // 4, traced=False)
    spans = reply["spans"]
    forward_metrics(run, spans, reply["stage_flops"])
    profile_metrics(run, reply)
    pool_metrics(run, reply)
    overhead_metrics(run, ms(reply["lat_us"]),
                     ms(base["lat_us"] + base2["lat_us"]))
    return spans


def check_train(run, reply, label):
    losses = reply["loss"]
    finite = [math.isfinite(x) for x in losses]
    run.ops(len(losses), finite.count(False))
    run.check("%s: every loss finite" % label, all(finite))
    return losses


def train(engine, run, seconds, traced):
    steps = OPS_PER_S["train-transfuser"] * seconds
    if not traced:
        reply = engine.call("train", steps=steps, traced=False)
        losses = check_train(run, reply, "train")
        first, last = losses[:10], losses[-10:]
        run.check("mean loss of the last 10 steps (%.4f) below the first 10 "
                  "(%.4f)" % (sum(last) / 10, sum(first) / 10),
                  sum(last) < sum(first))
        step_ms = ms(reply["step_us"])
        latency_metrics(run, step_ms)
        throughput_metric(run, engine.batch, step_ms)
        return None
    base = engine.call("train", steps=steps // 4, traced=False)
    reply = engine.call("train", steps=steps // 2, traced=True)
    base2 = engine.call("train", steps=steps // 4, traced=False)
    for label, r in (("untraced", base), ("traced", reply),
                     ("untraced", base2)):
        check_train(run, r, label)
    prof = profile(engine, run, PROFILE_PASSES_PER_S * seconds)
    spans = reply["spans"]
    forward_metrics(run, spans, prof["stage_flops"])
    profile_metrics(run, prof)
    pool_metrics(run, reply)
    overhead_metrics(run, ms(reply["step_us"]),
                     ms(base["step_us"] + base2["step_us"]))
    run.detail("data.loader_ms",
               stats.median(durations_ms(spans_by(spans, "loader"))), "ms")
    for phase in ("loss", "backward"):
        run.detail("autograd.%s_ms" % phase, stats.median(
            durations_ms(spans_by(spans, phase))), "ms")
    run.detail("autograd.optim_ms",
               stats.median(per_id_ms(spans, ("zero_grad", "optim"))), "ms")
    return concat_spans(spans, prof["spans"])


def serve_stream(engine, run, rate, requests, seed, traced=False):
    """One open-loop stream; checks its outcomes and counts its requests."""
    reply = engine.call("serve", rate=rate, requests=requests, seed=seed,
                        traced=traced)
    o = reply["outcomes"]
    total = sum(o.values())
    run.ops(requests, requests - o["ok"])
    run.check("serve @%g rps: outcomes sum to %d and all ok" % (
        rate, requests), total == requests and o["ok"] == requests)
    reply["lat_ms"] = ms(reply["lat_us"])
    reply["drain_ms"] = stats.drain_ms(reply["arrival_us"], reply["wall_us"])
    return reply


def serve_details(run, label, r, n):
    """Serving-layer figures of one traced stream, printed as details."""
    spans = r["spans"]
    pre = "serve.%s." % label
    queue_ms, service_ms = ms(r["queue_us"]), ms(r["service_us"])
    run.detail(pre + "queue_p50_ms", stats.median(queue_ms), "ms")
    run.detail(pre + "queue_tail_ms", stats.windowed_tail(queue_ms)[1], "ms")
    run.detail(pre + "service_p50_ms", stats.median(service_ms), "ms")
    run.detail(pre + "service_tail_ms", stats.windowed_tail(service_ms)[1],
               "ms")
    run.detail(pre + "batch_mean", n / r["calls"], "requests")
    assembly = durations_ms(spans_by(spans, "assembly"))
    run.detail(pre + "assembly_ms",
               stats.median(assembly) if assembly else 0.0, "ms")
    run.detail(pre + "drain_ms", r["drain_ms"], "ms")
    busy_us = sum(s["end_us"] - s["start_us"]
                  for s in spans_by(spans, "call"))
    run.detail(pre + "util", busy_us / (r["wall_us"] * r["inflight"]),
               "ratio")


def serve(engine, run, seconds, seed, traced):
    # Each stream gets its own arrival schedule, derived from the seed.
    stream_seed = iter(range(seed * 1000 + 1, seed * 1000 + 1000))
    low_n = LOW_REQUESTS_PER_S * seconds
    high_n = HIGH_REQUESTS_PER_S * seconds
    if not traced:
        # The high-rate and saturating streams alternate in chunks, so both
        # sample host speed over the whole run, not one stretch of it.
        lat_ms, ok, high_wall_us = [], [], 0.0
        sat_n, sat_calls, sat_wall_s = [], 0, []
        for _ in range(SERVE_CHUNKS):
            high = serve_stream(engine, run, HIGH_RPS, high_n // SERVE_CHUNKS,
                                next(stream_seed))
            lat_ms += high["lat_ms"]
            ok += high["ok"]
            high_wall_us += high["wall_us"]
            n = SATURATE_REQUESTS_PER_S * seconds // SERVE_CHUNKS
            sat = serve_stream(engine, run, SATURATE_RPS, n, next(stream_seed))
            sat_n.append(n)
            sat_calls += sat["calls"]
            sat_wall_s.append(sat["wall_us"] / 1e6)
        latency_metrics(run, lat_ms)
        run.notes.append("latency metrics at %g rps; goodput there %.1f "
                         "req/s within %g ms" % (HIGH_RPS, stats.goodput(
                             lat_ms, ok, high_wall_us / 1e6, LIMIT_MS),
                             LIMIT_MS))
        # One sample per request; the median over the chunks.
        run.metric("throughput_sps", stats.windowed_rate(
            sat_n, sat_wall_s, SERVE_CHUNKS), "samples/s")
        run.notes.append("throughput_sps: %d requests offered at %g rps in "
                         "%d chunks, mean batch %.2f" % (
                             sum(sat_n), SATURATE_RPS, SERVE_CHUNKS,
                             sum(sat_n) / sat_calls))
        return None

    untraced_high = serve_stream(engine, run, HIGH_RPS, high_n // 2,
                                 next(stream_seed))
    streams = {}
    for label, rate, n in (("low", LOW_RPS, low_n),
                           ("high", HIGH_RPS, high_n)):
        streams[label] = serve_stream(engine, run, rate, n, next(stream_seed),
                                      traced=True)
        serve_details(run, label, streams[label], n)
    untraced_after = serve_stream(engine, run, HIGH_RPS, high_n // 2,
                                  next(stream_seed))
    prof = profile(engine, run, PROFILE_PASSES_PER_S * seconds)
    spans = concat_spans(streams["low"]["spans"], streams["high"]["spans"])
    forward_metrics(run, spans, prof["stage_flops"])
    profile_metrics(run, prof)
    pool_metrics(run, streams["high"])
    overhead_metrics(run, streams["high"]["lat_ms"],
                     untraced_high["lat_ms"] + untraced_after["lat_ms"])
    return concat_spans(spans, prof["spans"])


def runner_check(engine, run, mode):
    """The same mode once through runner::runOne, the runner's own path.

    Profiled passes must reproduce the runner's simulated latency bit
    for bit; a runner serve stream must end with every request ok.
    """
    requests = 50
    reply = engine.call("runner", rate=HIGH_RPS, requests=requests)
    if mode == "infer":
        passed = reply["sim_us"] / 1e3 == run.metrics["sim.latency_ms"]["value"]
        name = "runner::runOne simulates the same latency"
    elif mode == "serve":
        passed = reply["ok"] == requests
        name = "runner::runOne serves %d requests, all ok" % requests
    else:
        passed = reply["timed"] > 0
        name = "runner::runOne trains"
    run.ops(1, 0 if passed else 1)
    run.check(name, passed)


# ----------------------------------------------------------------- main

def measure(exe, args):
    run = Run()
    mode = WORKLOADS[args.workload]
    engine = Engine(exe, args.workload, args.seed)
    try:
        reps, setup_s = do_setups(engine, run)
        noise = HostNoise(engine.proc.pid)
        if mode == "infer":
            spans = infer(engine, run, args.seconds, args.trace,
                          args.workload)
        elif mode == "train":
            spans = train(engine, run, args.seconds, args.trace)
        else:
            spans = serve(engine, run, args.seconds, args.seed, args.trace)
        host = noise.finish()
        if args.trace:
            runner_check(engine, run, mode)
        peak_rss = engine.close()
    finally:
        engine.kill()

    if args.trace:
        run.metric("models.construct_ms",
                   stats.median([r["construct_ms"] for r in reps]), "ms")
        run.metric("data.sample_ms",
                   stats.median([r["sample_ms"] for r in reps]), "ms")
        run.metric("host.cpu_util", host["cpu_util"], "ratio")
        out = exe.parent / "spans"
        out.mkdir(exist_ok=True)
        path = out / ("%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(spans))
        run.notes.append("spans: %d written to %s" % (len(spans), path))
        names = PER_LAYER
    else:
        run.metric("setup_s", setup_s, "s")
        run.metric("peak_rss_mb", peak_rss, "MB")
        names = END_TO_END
    missing = [n for n in names if n not in run.metrics]
    if missing:
        raise BenchError("no value for " + ", ".join(missing))
    run.metrics = {n: run.metrics[n] for n in names}
    run.notes.append("host: steal_pct=%.2f cpu_util=%.3f (threads=%d)"
                     % (host["steal_pct"], host["cpu_util"], THREADS))
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2^32)")

    try:
        exe = build()
        run = measure(exe, args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2

    correct = all(passed for _, passed in run.checks)
    print("workload %s seed %d seconds %d trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for note in run.notes:
        print("  " + note)
    for name, passed in run.checks:
        print("  check %s: %s" % ("ok" if passed else "FAILED", name))
    for name, m in run.metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, m in run.details.items():
        print("  detail %-25s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
