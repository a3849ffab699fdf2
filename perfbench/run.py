#!/usr/bin/env python3
"""Benchmark driver for earthcc's serve path (see perfbench/BENCHMARK.md).

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. It builds the server and the replay
tool from the checkout's sources, spawns `earthcc --serve --workers K`, and
drives it in a closed loop: K requests in flight on one connection, each new
request sent only after an earlier one was answered, for --seconds. Every
response is checked against the committed reference outputs. The last line
of stdout is one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of the traced replay (--trace 1).

Other modes:
    --self-test       generator determinism check across seeds
    --make-reference  regenerate reference.json with the AST interpreter
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = os.environ.get("PERFBENCH_BUILD_TYPE", "Release")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-" + BUILD_TYPE)
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")

PROGRAMS = ("power", "perimeter", "tsp", "health", "voronoi")
MACHINES = (("ideal", 4), ("torus2d", 16))
MODES = ("opt", "simple")
WORKLOADS = ("cold-mix", "compile-only")

CACHE_MB = 16        # server artifact-cache budget (MiB)
SETUP_REPEATS = 11   # set-ups per run; setup_s is their median
SPAWN_S = 30         # spawn -> first ping answered
PRIME_S = 60         # priming / check pass
DRAIN_S = 20         # answers still in flight when the window closes
WARMUP_S = 3         # requests before the window: the cache fills, evictions start
RUN_LIMIT_S = 170    # whole run, build excluded
BUILD_LIMIT_S = 880  # whole run when it has to build first
FULL_PARSE_EVERY = 16  # every Nth reply is also parsed as full JSON

# Replayed rounds per measured second in the traced run, per workload.
REPLAY_ROUNDS_PER_S = {"cold-mix": 0.3, "compile-only": 10}

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_time_ms_geomean", "sim_ms"),
    ("sim_speedup_geomean", "x"),
)


class Kind(NamedTuple):
    """One request kind: what a generated line asks for, minus id and salt."""
    op: str              # "run" or "compile"
    program: str
    mode: str            # "opt" or "simple"
    topology: str = ""
    nodes: int = 0
    profile: bool = False

    def label(self):
        if self.op == "compile":
            return "compile/%s/%s" % (self.program, self.mode)
        return "%s/%s/%s@%d" % (self.program, self.mode, self.topology,
                                self.nodes)

    def line(self, rid, escaped_source):
        head = '{"id":%d,"op":"%s"' % (rid, self.op)
        if self.op == "compile":
            head += ',"threaded_c":true'
        else:
            head += ',"nodes":%d,"topology":"%s"' % (self.nodes, self.topology)
            if self.mode == "simple":
                head += ',"no-opt":true'
            if self.profile:
                head += ',"profile":true'
        return (head + ',"source":"' + escaped_source + '"}\n').encode()


RUN_KINDS = [Kind("run", p, m, t, n)
             for p in PROGRAMS for m in MODES for (t, n) in MACHINES]


def round_kinds(workload):
    """The kinds one round of a workload's stream contains, once each."""
    if workload == "cold-mix":
        return list(RUN_KINDS)
    return [Kind("compile", p, "opt") for p in PROGRAMS]


def escape(source):
    return json.dumps(source)[1:-1]


class Stream:
    """Seeded request generator. It emits whole rounds, each a shuffled
    permutation of the workload's kinds, so every prefix of whole rounds
    holds the same multiset of kinds on every seed. Every source gets a
    distinct salt comment, which changes the cache keys but not the
    program."""

    def __init__(self, workload, seed, sources, first_id=1):
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.kinds = round_kinds(workload)
        self.escaped = {p: escape(sources[p]) for p in PROGRAMS}
        self.next_id = first_id
        self.pending = []

    def next(self):
        if not self.pending:
            order = list(self.kinds)
            self.rng.shuffle(order)
            self.pending = order[::-1]
        kind = self.pending.pop()
        rid = self.next_id
        self.next_id += 1
        src = self.escaped[kind.program]
        src += "\\n// perfbench salt %016x\\n" % self.rng.getrandbits(64)
        return rid, kind, kind.line(rid, src)

    def take(self, n):
        return [self.next() for _ in range(n)]


def prime_lines(sources, first_id):
    """The 20 run kinds, unsalted and asking for the per-site profile:
    compile-only's check pass and the traced replay's reference pass."""
    kinds = [k._replace(profile=True) for k in RUN_KINDS]
    return [(first_id + i, k, k.line(first_id + i, escape(sources[k.program])))
            for i, k in enumerate(kinds)]


# --------------------------------------------------------------------------
# Server process and the non-blocking closed-loop client


class ServerDied(Exception):
    pass


def now_ns():
    return time.perf_counter_ns()


def reply_id(line):
    if line.startswith(b'{"id":'):
        end = line.find(b",", 6)
        if end > 0:
            try:
                return int(line[6:end])
            except ValueError:
                pass
    try:
        return json.loads(line).get("id")
    except (ValueError, AttributeError):
        return None


class Server:
    """`earthcc --serve` as a child process, driven over non-blocking pipes:
    the client keeps reading answers while it writes requests, so neither
    side can block the other on a full pipe."""

    def __init__(self, exe, workers, extra=()):
        self.proc = subprocess.Popen(
            [exe, "--serve", "--workers", str(workers),
             "--cache-mb", str(CACHE_MB)] + list(extra),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.fd_in = self.proc.stdin.fileno()
        self.fd_out = self.proc.stdout.fileno()
        os.set_blocking(self.fd_in, False)
        os.set_blocking(self.fd_out, False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.fd_out, selectors.EVENT_READ)
        self.writing = False
        self.wbuf = bytearray()
        self.rbuf = b""

    def exchange(self, source, k, stop_ns, deadline_ns, on_reply):
        """Closed loop with up to k requests in flight. `source()` gives
        (id, tag, line) or None. No request is sent at or after stop_ns;
        answers are awaited until deadline_ns. Returns the unanswered
        {id: (tag, send_ns)}."""
        inflight = {}
        exhausted = False
        while True:
            now = now_ns()
            while not exhausted and len(inflight) < k and now < stop_ns:
                item = source()
                if item is None:
                    exhausted = True
                    break
                rid, tag, line = item
                inflight[rid] = (tag, now)
                self.wbuf += line
            if not inflight or now >= deadline_ns:
                return inflight
            if self.wbuf and not self.writing:
                self.sel.register(self.fd_in, selectors.EVENT_WRITE)
                self.writing = True
            for key, _ in self.sel.select((deadline_ns - now) / 1e9):
                if key.fd == self.fd_in:
                    self._write()
                else:
                    self._read(inflight, on_reply)

    def _write(self):
        try:
            n = os.write(self.fd_in, self.wbuf)
        except BlockingIOError:
            return
        except BrokenPipeError:
            raise ServerDied("server closed its input")
        del self.wbuf[:n]
        if not self.wbuf:
            self.sel.unregister(self.fd_in)
            self.writing = False

    def _read(self, inflight, on_reply):
        try:
            data = os.read(self.fd_out, 1 << 20)
        except BlockingIOError:
            return
        if not data:
            raise ServerDied("server closed its output")
        t = now_ns()
        lines = (self.rbuf + data).split(b"\n")
        self.rbuf = lines.pop()
        for line in lines:
            rid = reply_id(line)
            entry = inflight.pop(rid, None)
            if entry is None:
                raise ServerDied("answer to unknown request %r" % (rid,))
            on_reply(rid, entry[0], entry[1], t, line)

    def control(self, op, timeout_s):
        """Sends one control op with nothing else in flight; returns its
        answer as JSON."""
        out = []
        t = now_ns()
        items = iter([(-1, op, ('{"id":-1,"op":"%s"}\n' % op).encode())])
        left = self.exchange(lambda: next(items, None), 1, t + 10 ** 12,
                             t + int(timeout_s * 1e9),
                             lambda *a: out.append(a[4]))
        if left:
            raise ServerDied("no answer to %s within %ss" % (op, timeout_s))
        return json.loads(out[0])

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise ServerDied("no VmHWM for the server")

    def shutdown(self):
        stats = self.control("shutdown", DRAIN_S).get("stats", {})
        self.close()
        return stats

    def close(self):
        """Waits briefly for the process to exit, kills it if it does not,
        and reaps it."""
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.sel.get_map() is None:
            return
        self.sel.close()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.close()


LIVE_SERVERS = []


def start_server(exe, workers, extra=()):
    srv = Server(exe, workers, extra)
    LIVE_SERVERS.append(srv)
    return srv


def stop_all_servers():
    for srv in LIVE_SERVERS:
        if srv.proc.returncode is None:
            srv.kill()


# --------------------------------------------------------------------------
# Reply checking

RUN_RE = re.compile(
    rb'^\{"id":(-?\d+),"ok":(true|false),"op":"run",.*?'
    rb'"cache_hit":(true|false),"compile_cache_hit":(true|false),'
    rb'"wall_ns":([^,]+),"time_ns":([^,]+),"exit":([^,]+),')
COMPILE_RE = re.compile(
    rb'^\{"id":(-?\d+),"ok":(true|false),"op":"compile","key":"[0-9a-f]*",'
    rb'"cache_hit":(true|false),"wall_ns":([^,}]+)')


class Checker:
    """Checks every answer against the reference outputs and collects the
    figures the metrics are made of. Cheap field extraction runs on every
    reply; every FULL_PARSE_EVERY-th reply is also parsed as JSON."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.sim = {}                    # kind label -> set of time_ns
        self.codegen = {}                # program -> set of digests
        self.hits = 0
        self.replies = 0
        self.samples = []                # (send_ns, recv_ns, wall_ns)

    def problem(self, msg):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def reply(self, rid, kind, send_ns, recv_ns, line):
        self.replies += 1
        if kind.op == "run":
            m = RUN_RE.match(line)
            if not m or m.group(2) != b"true":
                return self.problem("%s #%d failed: %.200s" % (
                    kind.label(), rid, line))
            hit = m.group(3) == b"true"
            wall = float(m.group(5))
            exit_value = float(m.group(7))
            self.sim.setdefault(kind.label(), set()).add(float(m.group(6)))
            if exit_value != self.reference[kind.label()]:
                return self.problem("%s #%d exit %r, reference %r" % (
                    kind.label(), rid, exit_value,
                    self.reference[kind.label()]))
        else:
            m = COMPILE_RE.match(line)
            if not m or m.group(2) != b"true":
                return self.problem("%s #%d failed: %.200s" % (
                    kind.label(), rid, line))
            hit = m.group(3) == b"true"
            wall = float(m.group(4))
            at = line.find(b'"threaded_c":"')
            if at < 0 or len(line) - at < 100:
                return self.problem("%s #%d has no Threaded-C" % (
                    kind.label(), rid))
            self.codegen.setdefault(kind.program, set()).add(
                hashlib.sha1(line[at:]).hexdigest())
        self.hits += hit
        if hit:
            return self.problem("%s #%d was a cache hit; every request must "
                                "miss" % (kind.label(), rid))
        if rid % FULL_PARSE_EVERY == 0 and not self.full_check(kind, line):
            return self.problem("%s #%d malformed: %.200s" % (
                kind.label(), rid, line))
        self.samples.append((send_ns, recv_ns, wall))

    @staticmethod
    def full_check(kind, line):
        try:
            d = json.loads(line)
        except ValueError:
            return False
        if kind.op == "compile":
            return d.get("ok") is True and bool(d.get("threaded_c"))
        return (d.get("ok") is True and isinstance(d.get("counters"), dict)
                and ("comm_profile" in d) == kind.profile)

    def consistency(self):
        """Deterministic outputs must not vary between answers of one kind."""
        for label, times in sorted(self.sim.items()):
            if len(times) != 1:
                self.problem("%s: simulated time varies: %s" % (
                    label, sorted(times)))
        for program, digests in sorted(self.codegen.items()):
            if len(digests) != 1:
                self.problem("compile/%s: Threaded-C differs between salts"
                             % program)

    def sim_metrics(self):
        """Geomean simulated time of the optimized kinds, and the geomean
        simple/optimized speedup per (program, machine)."""
        t = {label: next(iter(v)) for label, v in self.sim.items()}
        opt, speedups = [], []
        for p in PROGRAMS:
            for topo, n in MACHINES:
                o = t.get("%s/opt/%s@%d" % (p, topo, n))
                s = t.get("%s/simple/%s@%d" % (p, topo, n))
                if o is None or s is None:
                    return None
                opt.append(o / 1e6)
                speedups.append(s / o)
        return geomean(opt), geomean(speedups)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# --------------------------------------------------------------------------
# Build, host facts, inputs


def fail_exit(msg, code=2):
    stop_all_servers()
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    """Configures and builds the package; returns True when it compiled
    anything (so the run may take the first-run time limit)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "examples",
                                            "earthcc_main.cpp")):
        fail_exit("no earthcc sources next to %s; run from a full checkout"
                  % BENCH_DIR)
    fresh = not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    log = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    jobs = str(min(4, host_cpus()))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if fresh:
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    t = time.monotonic()
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                fail_exit("build failed: %s (log: %s)" % (" ".join(cmd), log))
    return fresh or time.monotonic() - t > 5


def host_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tool(*args):
    out = subprocess.run([os.path.join(BUILD_DIR, "perfbench_replay")] +
                         list(args), check=True, stdout=subprocess.PIPE)
    return json.loads(out.stdout)


def build_type():
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for row in f:
            if row.startswith("CMAKE_BUILD_TYPE:"):
                return row.split("=", 1)[1].strip()
    return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_facts(workers, seed):
    """nproc, compiler, build type, commit, K and seed; refuses a build
    that is not optimized."""
    facts = tool("--host")
    facts["build_type"] = build_type()
    if facts["build_type"] not in OPTIMIZED_BUILD_TYPES or \
            not facts["optimized"]:
        fail_exit("build type %r is not optimized; host timings from it "
                  "would be meaningless (unset PERFBENCH_BUILD_TYPE)"
                  % facts["build_type"], code=3)
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL,
                                check=True).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    facts.update(nproc=host_cpus(), commit=commit,
                 source_sha256=source_digest(), workers=workers, seed=seed)
    return facts


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)["exit"]


# --------------------------------------------------------------------------
# One serve-driven run


def send_all(srv, lines, checker, workers):
    """Sends every line, K in flight, and checks the answers."""
    items = iter(lines)
    t = now_ns()
    left = srv.exchange(lambda: next(items, None), workers, t + 10 ** 13,
                        t + PRIME_S * 10 ** 9, checker.reply)
    checker.attempted += len(lines)
    if left:
        checker.failed += len(left)
        raise ServerDied("%d check-pass requests unanswered" % len(left))


def serve_run(workload, seed, seconds, exe, sources, reference, workers):
    """Set-up (repeated), warm-up, the measured window and the checks.
    Returns (metrics, checker, figures for the per-layer metrics)."""
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = now_ns()
        srv = start_server(exe, workers)
        srv.control("ping", SPAWN_S)
        setups.append((now_ns() - t0) / 1e9)
        if i + 1 < SETUP_REPEATS:
            srv.shutdown()

    checker = Checker(reference)
    stream = Stream(workload, seed, sources)
    sent = []

    def source():
        item = stream.next()
        sent.append(item[0])
        return item

    start = now_ns() + WARMUP_S * 10 ** 9
    stop = start + int(seconds * 1e9)
    left = srv.exchange(source, workers, stop, stop + DRAIN_S * 10 ** 9,
                        checker.reply)
    checker.attempted += len(sent)
    stats = {}
    rss = None
    check = Checker(reference)
    if left:
        checker.failed += len(left)
        checker.problems.append("%d requests unanswered at the deadline; "
                                "server killed" % len(left))
        srv.kill()
    else:
        rss = srv.peak_rss_mb()
        if workload == "compile-only":
            send_all(srv, prime_lines(sources, 10 ** 9), check, workers)
        stats = srv.shutdown()
    checker.consistency()
    check.consistency()

    window = [x for x in checker.samples if x[0] >= start]
    lat = sorted((r - s) / 1e6 for s, r, _ in window)
    done_in_window = sum(1 for _, r, _ in checker.samples if start < r <= stop)
    sim = (check if workload == "compile-only" else checker).sim_metrics()
    metrics = None
    if lat and rss is not None and sim is not None:
        p50, _ = percentile(lat, 50)
        p95, beyond = percentile(lat, 95)
        metrics = {
            "throughput_rps": done_in_window / seconds,
            "latency_p50_ms": p50,
            "latency_p95_ms": p95,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "sim_time_ms_geomean": sim[0],
            "sim_speedup_geomean": sim[1],
        }
        if beyond < 10:
            checker.problems.append("only %d samples beyond p95" % beyond)
        print("window: %d sent (%d in warm-up), %d answered in %.1fs; %d "
              "latency samples, %d beyond p95" % (
                  len(sent), len(sent) - len(window), done_in_window, seconds,
                  len(lat), beyond))
    elif sim is None:
        checker.problems.append("not every run kind was answered")
    checker.attempted += check.attempted
    checker.failed += check.failed
    checker.problems += check.problems
    queue = [(r - s) / 1e6 - w / 1e6 for s, r, w in window]
    extra = {"stats": stats, "queue_ms": statistics.median(queue) if queue
             else 0.0, "hit_ratio": checker.hits / max(1, checker.replies)}
    return metrics, checker, extra


# --------------------------------------------------------------------------
# Traced replay


def traced_replay(workload, seed, seconds, sources, tag):
    """Runs the in-process replay over the first whole rounds of the same
    seeded stream; returns the tool's summary and the stream's kinds."""
    per_round = len(round_kinds(workload))
    rounds = max(2, 2 * round(REPLAY_ROUNDS_PER_S[workload] * seconds / 2))
    stream = Stream(workload, seed, sources).take(rounds * per_round)
    prime = prime_lines(sources, 10 ** 9)
    out_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, "%s-%s.jsonl" % (tag, what))
             for what in ("prime", "stream")]
    for path, items in zip(paths, (prime, stream)):
        with open(path, "wb") as f:
            f.writelines(line for _, _, line in items)
    spans = os.path.join(out_dir, "%s-spans.json" % tag)
    args = ["--prime", paths[0], "--stream", paths[1], "--round-size",
            str(per_round), "--spans-out", spans]
    proc = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_replay")] + args,
        stdout=subprocess.PIPE, timeout=RUN_LIMIT_S)
    summary = json.loads(proc.stdout)
    summary["exit_code"] = proc.returncode
    summary["spans_file"] = os.path.relpath(spans, ROOT)
    kinds = {rid: k for rid, k, _ in prime + stream}
    return summary, kinds


PER_LAYER = (
    ("frontend.parse_ms", "ms"), ("frontend.simplify_ms", "ms"),
    ("frontend.tokens", "count"), ("simple.verify_ms", "ms"),
    ("analysis.placement_ms", "ms"), ("analysis.read_tuples", "count"),
    ("analysis.write_tuples", "count"), ("transform.comm_select_ms", "ms"),
    ("transform.blocked_reads", "count"),
    ("transform.pipelined_reads", "count"),
    ("transform.blocked_writes", "count"), ("transform.remarks", "count"),
    ("interp.lower_ms", "ms"), ("interp.insns", "count"),
    ("interp.run_ms.ideal", "ms"), ("interp.run_ms.torus2d", "ms"),
    ("interp.steps", "count"), ("interp.steps_per_us", "steps/us"),
    ("codegen.emit_ms", "ms"), ("codegen.bytes", "bytes"),
    ("earth.remote_msgs", "count"), ("earth.link_busy_ms_max", "sim_ms"),
    ("earth.link_queue_max", "count"), ("driver.key_us", "us"),
    ("driver.profile_json_us", "us"), ("support.json_decode_us", "us"),
    ("support.json_encode_us", "us"), ("support.json_bytes", "bytes"),
    ("service.lookup_us", "us"), ("service.hit_ratio", "ratio"),
    ("service.waits", "count"), ("service.evictions", "count"),
    ("service.cache_mb", "MB"), ("service.queue_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def per_layer_metrics(summary, extra):
    layers, c = summary["layers"], summary["counts"]

    def self_per_call(name, scale):
        row = layers.get(name)
        return row["self_ns"] / row["calls"] / scale if row else 0.0

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    run_ns = sum(layers[n]["self_ns"] for n in layers
                 if n.startswith("interp.run."))
    stats = extra["stats"]
    values = {
        "frontend.parse_ms": self_per_call("frontend.parse", 1e6),
        "frontend.simplify_ms": self_per_call("frontend.simplify", 1e6),
        "frontend.tokens": ratio("tokens", "parses"),
        "simple.verify_ms": self_per_call("simple.verify", 1e6),
        "analysis.placement_ms": self_per_call("analysis.placement", 1e6),
        "analysis.read_tuples": ratio("read_tuples", "placements"),
        "analysis.write_tuples": ratio("write_tuples", "placements"),
        "transform.comm_select_ms":
            self_per_call("transform.comm_select", 1e6),
        "transform.blocked_reads": ratio("blocked_reads", "selects"),
        "transform.pipelined_reads": ratio("pipelined_reads", "selects"),
        "transform.blocked_writes": ratio("blocked_writes", "selects"),
        "transform.remarks": ratio("remarks", "selects"),
        "interp.lower_ms": self_per_call("interp.lower", 1e6),
        "interp.insns": ratio("insns", "lowers"),
        "interp.run_ms.ideal": self_per_call("interp.run.ideal", 1e6),
        "interp.run_ms.torus2d": self_per_call("interp.run.torus2d", 1e6),
        "interp.steps": ratio("steps", "runs"),
        "interp.steps_per_us": c["steps"] / (run_ns / 1e3) if run_ns else 0.0,
        "codegen.emit_ms": self_per_call("codegen.emit", 1e6),
        "codegen.bytes": ratio("codegen_bytes", "emits"),
        "earth.remote_msgs": ratio("remote_msgs", "runs"),
        "earth.link_busy_ms_max": c["link_busy_ns_max"] / 1e6,
        "earth.link_queue_max": c["link_queue_max"],
        "driver.key_us": self_per_call("driver.key", 1e3),
        "driver.profile_json_us": self_per_call("driver.profile_json", 1e3),
        "support.json_decode_us": self_per_call("support.json_decode", 1e3),
        "support.json_encode_us": self_per_call("support.json_encode", 1e3),
        "support.json_bytes": ratio("json_bytes", "requests"),
        "service.lookup_us": self_per_call("service.lookup", 1e3),
        "service.hit_ratio": extra["hit_ratio"],
        "service.waits": stats.get("run_waits", 0) +
                         stats.get("compile_waits", 0),
        "service.evictions": stats.get("evictions", 0),
        "service.cache_mb": stats.get("cache_bytes", 0) / 2.0 ** 20,
        "service.queue_ms": extra["queue_ms"],
        "trace.overhead_pct": summary["overhead_pct"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def check_replay(summary, kinds, reference, checker):
    """Replay outcomes go through the same reference checks."""
    counts = summary["counts"]
    if summary["exit_code"] or summary["failures"]:
        checker.problem("replay tool reported %d failures"
                        % summary["failures"])
    if counts["lookup_hits"] != counts["lookups"]:
        checker.problem("replay: %d of %d lookups missed the cache" % (
            counts["lookups"] - counts["lookup_hits"], counts["lookups"]))
    for rid, ok, exit_value, _ in summary["runs"]:
        kind = kinds[int(rid)]
        checker.attempted += 1
        if not ok or exit_value != reference[kind.label()]:
            checker.problem("replay %s #%d exit %r" % (kind.label(), rid,
                                                      exit_value))


def print_layers(summary):
    layers = summary["layers"]
    print("traced replay: %d rounds, %d spans, overhead %.2f%% "
          "(median on %.3f ms / off %.3f ms per round), spans in %s" % (
              summary["rounds"], summary["spans"], summary["overhead_pct"],
              summary["on_ns_median"] / 1e6, summary["off_ns_median"] / 1e6,
              summary["spans_file"]))
    print("  %-24s %8s %14s %14s" % ("span", "calls", "self ms/call",
                                    "total ms"))
    for name, row in sorted(layers.items()):
        print("  %-24s %8d %14.4f %14.3f" % (
            name, row["calls"], row["self_ns"] / row["calls"] / 1e6,
            row["total_ns"] / 1e6))
    stage_ns = summary.get("stage_ns", {})
    if stage_ns:
        print("  program's own pipeline.stage_ns (mean ms/call):",
              ", ".join("%s %.4f" % (k, v["sum_ns"] / v["count"] / 1e6)
                        for k, v in sorted(stage_ns.items()) if v["count"]))


# --------------------------------------------------------------------------
# Modes


def run_benchmark(args):
    t_start = time.monotonic()
    built = build()
    limit = BUILD_LIMIT_S if built else RUN_LIMIT_S
    remaining = int(limit - (time.monotonic() - t_start))
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(max(1, remaining))

    workers = min(4, host_cpus())
    facts = host_facts(workers, args.seed)
    print("host: " + json.dumps(facts, sort_keys=True))
    exe = os.path.join(BUILD_DIR, "earthcc")
    sources = tool("--sources")
    reference = load_reference()
    digest = stream_digest(args.workload, args.seed, sources)
    if digest != stream_digest(args.workload, args.seed, sources):
        fail_exit("request generator is not deterministic")
    print("workload %s seed %d: stream sha256 %s" % (
        args.workload, args.seed, digest[:16]))

    try:
        metrics, checker, extra = serve_run(
            args.workload, args.seed, args.seconds, exe, sources, reference,
            workers)
        if args.trace:
            summary, kinds = traced_replay(
                args.workload, args.seed, args.seconds, sources,
                "%s-%d" % (args.workload, args.seed))
            check_replay(summary, kinds, reference, checker)
            print_layers(summary)
    except ServerDied as e:
        fail_exit("server failed: %s" % e, code=4)
    finally:
        stop_all_servers()
    signal.alarm(0)

    for msg in checker.problems:
        print("problem: " + msg)
    if metrics is None:
        fail_exit("no metrics: %s" % "; ".join(checker.problems[:3]), code=5)
    correct = checker.failed == 0 and not checker.problems
    if args.trace:
        out = per_layer_metrics(summary, extra)
    else:
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END}
    for name, m in out.items():
        print("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": out}))
    return 0


def on_alarm(signum, frame):
    fail_exit("run exceeded its time limit; servers killed", code=6)


def stream_digest(workload, seed, sources, n=400):
    h = hashlib.sha256()
    for _, _, line in Stream(workload, seed, sources).take(n):
        h.update(line)
    return h.hexdigest()


def self_test(args):
    """Same seed: byte-identical stream and identical deterministic outputs.
    Other seed: different order and salts, same deterministic outputs."""
    build()
    workers = min(4, host_cpus())
    host_facts(workers, args.seed)
    exe = os.path.join(BUILD_DIR, "earthcc")
    sources = tool("--sources")
    reference = load_reference()
    seeds = (args.seed, args.seed, args.seed + 1)
    ok = True
    for workload in WORKLOADS:
        digests = [stream_digest(workload, s, sources) for s in seeds]
        kinds = [sorted(k.label() for _, k, _ in
                        Stream(workload, s, sources).take(
                            4 * len(round_kinds(workload))))
                 for s in seeds]
        same = digests[0] == digests[1]
        differs = digests[0] != digests[2]
        ok &= same and differs and kinds[0] == kinds[2]
        print("%-12s stream: same seed identical=%s, other seed differs=%s, "
              "kind multiset equal=%s" % (workload, same, differs,
                                          kinds[0] == kinds[2]))
        outputs = []
        for s in seeds:
            metrics, checker, _ = serve_run(workload, s, 2, exe, sources,
                                            reference, workers)
            summary, rkinds = traced_replay(workload, s, 2, sources,
                                            "selftest-%s-%d" % (workload, s))
            check_replay(summary, rkinds, reference, checker)
            exits = sorted((rkinds[int(r[0])].label(), r[2], r[3])
                           for r in summary["runs"])
            outputs.append({
                "sim": None if metrics is None else
                (metrics["sim_time_ms_geomean"],
                 metrics["sim_speedup_geomean"]),
                "exits": exits, "counts": summary["counts"],
                "failed": checker.failed})
        det = all(o == outputs[0] for o in outputs) and \
            outputs[0]["failed"] == 0 and outputs[0]["sim"] is not None
        ok &= det
        print("%-12s deterministic outputs identical across seeds=%s "
              "(sim %s)" % (workload, det, outputs[0]["sim"]))
    stop_all_servers()
    print("self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def make_reference(args):
    """Reference exit values from the tree-walking interpreter
    (`earthcc --engine=ast`), cross-checked against the sequential-C
    baseline (`--seq`). Never from the bytecode engine under test."""
    build()
    workers = min(4, host_cpus())
    exe = os.path.join(BUILD_DIR, "earthcc")
    sources = tool("--sources")
    srv = start_server(exe, workers, ["--engine=ast"])
    replies = {}
    lines = prime_lines(sources, 1)
    for i, p in enumerate(PROGRAMS):
        rid = 100 + i
        lines.append((rid, p, ('{"id":%d,"op":"run","seq":true,"source":"%s"}'
                               '\n' % (rid, escape(sources[p]))).encode()))
    items = iter(lines)
    t = now_ns()
    left = srv.exchange(lambda: next(items, None), workers, t + 10 ** 13,
                        t + 600 * 10 ** 9,
                        lambda rid, tag, s, r, line: replies.update(
                            {rid: json.loads(line)}))
    srv.shutdown()
    if left or not all(d.get("ok") for d in replies.values()):
        fail_exit("reference run failed")
    seq = {p: replies[100 + i]["exit"] for i, p in enumerate(PROGRAMS)}
    exit_values = {}
    for rid, kind, _ in lines[:len(RUN_KINDS)]:
        value = replies[rid]["exit"]
        if value != seq[kind.program]:
            fail_exit("%s: AST engine exit %r differs from --seq %r" % (
                kind.label(), value, seq[kind.program]))
        exit_values[kind.label()] = value
    with open(REFERENCE, "w") as f:
        json.dump({"generated_by": "earthcc --serve --engine=ast, each value "
                                   "cross-checked against --seq",
                   "exit": exit_values}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % os.path.relpath(REFERENCE, ROOT))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.make_reference:
        return make_reference(args)
    if args.self_test:
        return self_test(args)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
