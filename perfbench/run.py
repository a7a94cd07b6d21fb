#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of inltool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload optimize-cold --seed 1 --seconds 30 --trace 0

It builds inltool with dune, and the traced-run executable and the
reference program (a dune project of its own, perfbench/trace) in a
workspace under .bench_out/, sets the workload up, drives it as a
closed loop from this one client process for --seconds (finishing the
current round), checks every output, and prints every metric by name
with its unit.  End-to-end times are reported in units of the
reference program's median wall time over the same run.  The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones
(measured with no tracing at all); with --trace 1 the same seeded
workload is replayed in-process by perfbench/trace (spans around each
layer's public calls) and the metrics are the per-layer split.
perfbench/README.md describes the workloads and every metric.

Workloads (J and the cores they run on: see program_cores):
  optimize-cold  one fresh `inltool optimize K.loop --jobs J` process per
                 operation
  serve-mix      one `inltool serve --socket --jobs J` daemon, a heavy and
                 a light connection
  run-exec       one fresh `inltool run K.loop -N n --threads J` process
                 per operation

Every invocation first runs the failure-count self-test.  Everything
the benchmark writes goes under .bench_out/ in the checkout.
"""

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

OUT = ".bench_out"
INLTOOL = os.path.join("_build", "default", "bin", "inltool.exe")
TRACE_WS = os.path.join(OUT, "trace-build")
TRACE_EXE = os.path.join(TRACE_WS, "_build", "default", "trace.exe")
REF_EXE = os.path.join(TRACE_WS, "_build", "default", "calib.exe")
REF_FIRST = 3  # reference samples before a run's loop
REF_EVERY_S = 2.0  # then one at a round boundary this often
KERNEL_DIR = os.path.join("examples", "kernels")

# The nine committed kernels; the corpus manifest's `poisoned` entry is
# left out on purpose (it injects a hang).
KERNELS = ["cholesky", "lu", "stencil", "lu_pivot", "qr", "trisolve", "jacobi1d", "seidel1d", "dp"]
# Kernels whose optimize exits 2 today, with the warning that says why;
# their verify --against the winner exits 2 with the code in VERIFY_DEGRADED.
OPT_DEGRADED = {"qr": "S904", "seidel1d": "V900"}
VERIFY_DEGRADED = {"seidel1d": "V900"}
SERVE_SIZES = (48, 40)
WAVEFRONT_TF = "tf v1\nstep skew I,K,2\nstep interchange K,I\n"
# run-exec rows: (name, kernel, N, schedule).  Sizes make the nest
# dominate process start-up.
RUN_ROWS = [
    ("lu.identity", "lu", 48, "identity"),
    ("lu.winner", "lu", 48, "winner"),
    ("jacobi1d.identity", "jacobi1d", 192, "identity"),
    ("jacobi1d.winner", "jacobi1d", 192, "winner"),
    ("stencil.identity", "stencil", 256, "identity"),
    ("stencil.winner", "stencil", 256, "winner"),
    ("cholesky.identity", "cholesky", 512, "identity"),
    ("cholesky.winner", "cholesky", 512, "winner"),
    ("seidel1d.wavefront", "seidel1d", 256, "wavefront"),
]
SETUP_REPS = 3
SETUP_MIN_S = 2.0
DEFAULT_SEED = 1
# Never used while the benchmark was tuned; run it next to the default.
HELD_OUT_SEED = 20261017
WORKLOADS = ("optimize-cold", "serve-mix", "run-exec")
PROC_TIMEOUT_S = 120


class BenchError(Exception):
    """A condition under which the benchmark cannot produce a result."""


def cores():
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else list(range(os.cpu_count() or 1))


# The cores the measured processes and the reference program are pinned
# to, or None; main sets it from program_cores once the set-up is done.
PINNED = [None]


def program_cores(cpus):
    """The cores inltool's processes are pinned to, or None; their number
    is the --jobs (optimize-cold, serve-mix) or --threads (run-exec).

    inltool runs on every core but the first, which this client keeps.
    OCaml 5 stops every domain for each minor collection, so when a
    shared host takes a core away for a while a process on all of them
    stalls as a whole: on 2 vCPUs, `optimize --jobs 2` read 1.5-1.75x
    slower next to one busy process (`--jobs 1` 1.1x).  The operations
    and the reference program share those cores, so the reference sees
    the same neighbours."""
    return set(cpus[1:]) if len(cpus) > 1 and hasattr(os, "sched_setaffinity") else None


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else float("nan")


def tail(xs):
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(xs)
    for p in (99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            return p, statistics.quantiles(xs, n=100)[p - 1]
    return None, None


def latency_summary(xs):
    p, v = tail(xs)
    s = {"p50": median(xs), "n": len(xs)}
    if p is not None:
        s["p%d" % p] = v
    return s


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---- processes ----

class Proc:
    __slots__ = ("wall_ms", "end", "rc", "out", "err", "rss_mb")


_proc_seq = [0]


def spawn(args, exe=INLTOOL):
    """Run EXE ARGS to exit.  The wall time spans fork to reap."""
    _proc_seq[0] += 1
    base = os.path.join(OUT, "proc", str(_proc_seq[0] % 64))
    r = Proc()
    with open(base + ".out", "wb") as fo, open(base + ".err", "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen([exe] + args, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        pin(p.pid)
        killer = threading.Timer(PROC_TIMEOUT_S, p.kill)
        killer.start()
        _, status, ru = os.wait4(p.pid, 0)
        r.end = time.perf_counter()
        r.wall_ms = (r.end - t0) * 1000.0
        killer.cancel()
    p.returncode = r.rc = os.waitstatus_to_exitcode(status)
    r.rss_mb = ru.ru_maxrss / 1024.0
    r.out, r.err = read(base + ".out"), read(base + ".err")
    return r


def pin(pid):
    """Pin every thread of process PID to PINNED, if that is set."""
    if PINNED[0]:
        try:
            for tid in os.listdir("/proc/%d/task" % pid):
                os.sched_setaffinity(int(tid), PINNED[0])
        except (FileNotFoundError, ProcessLookupError):  # already reaped
            pass


def startup_ms(n=15):
    return median([spawn(["--version"]).wall_ms for _ in range(n)])


def timed_setup(fn):
    """Set the workload up at least SETUP_REPS times and for at least
    SETUP_MIN_S; keep the last state and report the median time."""
    times, state = [], None
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < 15):
        if state is not None and "teardown" in state:
            state["teardown"]()
        t0 = time.perf_counter()
        state = fn()
        times.append(time.perf_counter() - t0)
    return median(times), times, state


class Reference:
    """Wall times of the reference program (perfbench/trace/calib.ml) in
    one run: REF_FIRST before the loop, then one at a round boundary
    whenever REF_EVERY_S have passed.  A shared host drifts by a third
    within seconds to minutes with the program unchanged, and a
    reference doing the same kind of work on the same cores drifts with
    it, so each end-to-end sample is divided by the reference's time
    around it."""

    def __init__(self):
        self.ms, self.mid, self.last = [], [], 0.0
        for _ in range(REF_FIRST):
            self.sample()

    def due(self):
        return time.perf_counter() - self.last >= REF_EVERY_S

    def sample(self):
        r = spawn([], REF_EXE)
        if r.rc != 0:
            raise BenchError("the reference program exited %d" % r.rc)
        self.last = r.end
        self.ms.append(r.wall_ms)
        self.mid.append(r.end - r.wall_ms / 2000.0)

    def median_ms(self):
        return median(self.ms)

    def around(self, t):
        """The reference's time at T, interpolated between the samples
        taken before and after it."""
        i = bisect.bisect(self.mid, t)
        if i == 0 or i == len(self.mid):
            return self.ms[min(i, len(self.ms) - 1)]
        (t0, m0), (t1, m1) = (self.mid[i - 1], self.ms[i - 1]), (self.mid[i], self.ms[i])
        return m0 + (m1 - m0) * (t - t0) / (t1 - t0)


class Rounds:
    """Round boundaries of a closed loop that runs whole rounds until
    SECONDS have passed.  Throughput is the median over rounds of the
    operations completed per second, so a slow spell of a shared machine
    moves it less than a whole-run average would.  The reference program
    runs between rounds, inside QUIET (which holds other senders back)."""

    def __init__(self, seconds, quiet=None):
        self.ref, self.quiet = Reference(), quiet or contextlib.nullcontext()
        self.seconds, self.t0, self.starts, self.ends = seconds, time.perf_counter(), [], []

    def enter(self, rnd):
        """Whether round RND may run: rounds already started always may."""
        if rnd < len(self.starts):
            return True
        now = time.perf_counter()
        if self.starts and now - self.t0 >= self.seconds:
            return False
        if self.starts and self.ref.due():
            with self.quiet:
                self.ends.append(time.perf_counter())
                self.ref.sample()
        elif self.starts:
            self.ends.append(now)
        self.starts.append(time.perf_counter())
        return True

    def close(self):
        self.ends.append(time.perf_counter())
        with self.quiet:
            self.ref.sample()

    def rate(self, done_at):
        return median([sum(1 for t in done_at if a <= t < b) / (b - a) for a, b in zip(self.starts, self.ends)])


class Tally:
    """Per-class latency samples of the operations that passed their checks."""

    def __init__(self):
        self.samples = {}
        self.mid = {}  # per class, the midpoint in time of each sample
        self.done_at = []  # completion times of the operations that passed
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, cls, ms, ok, why="", at=None):
        self.attempted += 1
        if ok:
            at = time.perf_counter() if at is None else at
            self.samples.setdefault(cls, []).append(ms)
            self.mid.setdefault(cls, []).append(at - ms / 2000.0)
            self.done_at.append(at)
        else:
            self.failed += 1
            self.failures.append("%s: %s" % (cls, why))

    def all(self):
        return [x for xs in self.samples.values() for x in xs]

    def class_geomean(self):
        return geomean([median(xs) for xs in self.samples.values()])

    def relative(self, ref):
        """Per class, each sample over the reference's time around it."""
        return {cls: [ms / ref.around(t) for ms, t in zip(xs, self.mid[cls])] for cls, xs in self.samples.items()}


# ---- optimize-cold ----

def optimize_check(kernel, src, prefix, r):
    """Why the optimize run of KERNEL is wrong, or None."""
    want = OPT_DEGRADED.get(kernel)
    if r.rc == 2 and want:
        if ("warning[%s]" % want) not in r.err:
            return "exit 2 without %s" % want
    elif r.rc != 0:
        return "exit %d" % r.rc
    if not os.path.exists(prefix + ".loop"):
        return "no winner written"
    v = spawn(["verify", prefix + ".loop", "--against", src])
    vwant = VERIFY_DEGRADED.get(kernel)
    if "error[" in v.err or not (v.rc == 0 or (v.rc == 2 and vwant and ("warning[%s]" % vwant) in v.err)):
        return "verify --against exit %d: %s" % (v.rc, v.err.strip()[:200])
    return None


def miss_ratio(out):
    """winner misses / source misses, from optimize's report."""
    src = winner = None
    for line in out.splitlines():
        if line.startswith("source: "):
            src = int(line.split("misses=")[1].split()[0])
        elif line.startswith("winner: "):
            winner = line[len("winner: "):].strip()
    if not src or winner is None:
        return None
    for line in out.splitlines():
        parts = line.split(None, 4)
        if len(parts) == 5 and parts[0].isdigit() and parts[4].strip() == winner and parts[2].isdigit():
            return int(parts[2]) / src
    return None


def setup_optimize():
    work = fresh_dir(os.path.join(OUT, "optimize"))
    for k in KERNELS:
        shutil.copy(os.path.join(KERNEL_DIR, k + ".loop"), work)
        if spawn(["show", os.path.join(work, k + ".loop")]).rc != 0:
            raise BenchError("kernel %s does not load" % k)
    return {"work": work}


def optimize_plan(seed, rounds=400):
    rng = random.Random(seed)
    for r in range(rounds):
        order = KERNELS[:]
        rng.shuffle(order)
        for k in order:
            yield r, k


def run_optimize(state, seed, seconds, j):
    work, tally = state["work"], Tally()
    done, rss, rounds = [], 0.0, Rounds(seconds)
    for rnd, k in optimize_plan(seed):
        if not rounds.enter(rnd):
            break
        src, prefix = os.path.join(work, k + ".loop"), os.path.join(work, "%s.r%d" % (k, rnd))
        r = spawn(["optimize", src, "--jobs", str(j), "-o", prefix])
        done.append((k, src, prefix, r))
    rounds.close()
    ratios = {}
    for k, src, prefix, r in done:  # checks, outside the timed loop
        why = optimize_check(k, src, prefix, r)
        tally.add(k, r.wall_ms, why is None, why, r.end)
        if why is None:
            rss = max(rss, r.rss_mb)
            ratios.setdefault(k, miss_ratio(r.out))
    ratio_gm = geomean([v for v in ratios.values() if v])
    wall, ops, ref = tally.class_geomean(), rounds.rate(tally.done_at), rounds.ref.median_ms()
    rel = geomean([median(xs) for xs in tally.relative(rounds.ref).values()])
    metrics = {"wall_geomean_ref": rel, "peak_rss_mb": rss}
    details = {
        "optimize.wall_ms_geomean": (wall, "ms"),
        "optimize.kernels_per_s": (ops, "1/s"),
        "optimize.reference_ms": (ref, "ms"),
        "optimize.miss_ratio_geomean": (ratio_gm, "ratio"),
        "optimize.peak_rss_mb": (rss, "MB"),
        "optimize.failed_share": (tally.failed / max(1, tally.attempted), "share"),
    }
    extra = {
        "latency_ms": latency_summary(tally.all()),
        "per_kernel_p50_ms": {k: median(v) for k, v in sorted(tally.samples.items())},
        "miss_ratio": ratios,
    }
    return tally, metrics, details, extra


# ---- serve-mix ----

class Conn:
    """One client connection to the daemon: a closed loop of request lines."""

    def __init__(self, path):
        self.sock = None
        for _ in range(200):
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(path)
                self.sock = s
                break
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                time.sleep(0.025)
        if self.sock is None:
            raise BenchError("daemon socket %s never accepted" % path)
        self.rfile = self.sock.makefile("rb")

    def call(self, line):
        """Send one request; return (latency_ms, response line)."""
        t0 = time.perf_counter()
        self.sock.sendall(line.encode() + b"\n")
        resp = self.rfile.readline()
        return (time.perf_counter() - t0) * 1000.0, resp.decode()

    def close(self):
        self.rfile.close()
        self.sock.close()


DAEMONS = []  # started and not yet stopped; main stops any left over


def stop_daemon(d):
    if d not in DAEMONS:
        return
    DAEMONS.remove(d)
    if d["proc"].poll() is None:
        try:
            c = Conn(d["sock"])
            c.call(json.dumps({"id": 0, "method": "shutdown"}))
            c.close()
        except (OSError, BenchError):
            pass
    try:
        d["proc"].wait(timeout=30)
    except subprocess.TimeoutExpired:
        d["proc"].kill()
        d["proc"].wait()
    for f in d["files"]:
        f.close()


def start_daemon(work, j):
    sock = os.path.join(work, "d.sock")
    files = [open(os.path.join(work, "daemon.out"), "wb"), open(os.path.join(work, "daemon.err"), "wb")]
    p = subprocess.Popen([INLTOOL, "serve", "--socket", sock, "--jobs", str(j)],
                         stdin=subprocess.DEVNULL, stdout=files[0], stderr=files[1])
    pin(p.pid)
    d = {"proc": p, "sock": sock, "files": files}
    DAEMONS.append(d)
    try:
        c = Conn(sock)
        _, resp = c.call(json.dumps({"id": 0, "method": "ping"}))
        c.close()
        if not json.loads(resp).get("ok"):
            raise BenchError("daemon did not answer ping: %s" % resp)
    except BaseException:
        stop_daemon(d)
        raise
    return d


def winners(work, kernels, j):
    """Cold optimize winners of KERNELS: {kernel: (prefix, optimize stdout)}."""
    out = {}
    for k in kernels:
        src, prefix = os.path.join(work, k + ".loop"), os.path.join(work, k + ".win")
        shutil.copy(os.path.join(KERNEL_DIR, k + ".loop"), work)
        r = spawn(["optimize", src, "--jobs", str(j), "-o", prefix])
        why = optimize_check(k, src, prefix, r)
        if why:
            raise BenchError("set-up winner for %s: %s" % (k, why))
        out[k] = (prefix, r.out)
    return out


def setup_serve(j):
    work = fresh_dir(os.path.join(OUT, "serve"))
    won = winners(work, KERNELS, j)
    state = {
        "work": work,
        "src": {k: read(os.path.join(work, k + ".loop")) for k in KERNELS},
        "winner": {k: read(p + ".loop") for k, (p, _) in won.items()},
        "cli_winner": {k: next((l[8:] for l in o.splitlines() if l.startswith("winner: ")), "-")
                       for k, (_, o) in won.items()},
    }
    state["daemon"] = start_daemon(work, j)
    state["teardown"] = lambda: stop_daemon(state["daemon"])
    return state


def serve_plans(state, seed):
    """(heavy, light) request generators.  Heavy: round 0 sends every
    (kernel, size) pair once in a fixed order; later rounds repeat them in
    a seeded order.  Light: seeded analyze/verify requests."""
    rng_h, rng_l = random.Random(seed), random.Random(seed * 7919 + 1)
    pairs = [(k, s) for k in KERNELS for s in SERVE_SIZES]

    def heavy():
        n = 0
        for rnd in range(10000):
            order = pairs[:]
            if rnd > 0:  # first-seen latencies depend on what ran before
                rng_h.shuffle(order)
            for k, s in order:
                n += 1
                req = {"id": n, "method": "optimize", "program": state["src"][k], "size": s}
                yield rnd, (k, s), ("first" if rnd == 0 else "repeat"), json.dumps(req)

    def light():
        n = 0
        while True:
            n += 1
            k, m = rng_l.choice(KERNELS), rng_l.choice(("analyze", "verify"))
            req = {"id": -n, "method": m, "program": state["src"][k]}
            if m == "verify":
                req["program"], req["against"] = state["winner"][k], state["src"][k]
            yield k, m, json.dumps(req)

    return heavy, light


def serve_response_ok(resp):
    try:
        j = json.loads(resp)
    except ValueError:
        return False, None, "unparsable response"
    if not j.get("ok"):
        return False, j, "not ok: %s" % json.dumps(j.get("error"))[:200]
    if (j.get("result") or {}).get("verdict") == "failed":
        return False, j, "verify verdict failed"
    return True, j, ""


class Quiet:
    """Holds the light connection back while the heavy one runs the
    reference program between rounds, so no request is in flight then."""

    def __init__(self):
        self.go, self.inflight = threading.Event(), threading.Lock()
        self.go.set()

    @contextlib.contextmanager
    def turn(self):
        """The light connection's turn to send one request."""
        self.go.wait()
        with self.inflight:
            yield

    def __enter__(self):
        self.go.clear()
        self.inflight.acquire()

    def __exit__(self, *exc):
        self.inflight.release()
        self.go.set()


def daemon_rss_mb(pid):
    try:
        for line in read("/proc/%d/status" % pid).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_serve(state, seed, seconds, j, poll_stats=False):
    """The serve-mix closed loop.  With POLL_STATS a third connection,
    accepted before the other two so that the daemon reads its line first
    in every batch, sends `stats` every 20 ms for the whole run: the queue
    depth it reads is the number of requests waiting behind it."""
    heavy_plan, light_plan = serve_plans(state, seed)
    sock = state["daemon"]["sock"]
    poller = Conn(sock) if poll_stats else None
    heavy, light = Conn(sock), Conn(sock)
    tally, lock = Tally(), threading.Lock()
    done = threading.Event()
    first_round_done = threading.Event()
    counts = {"light": 0, "heavy": 0}
    winners_seen, depths, errors = {}, [], []
    quiet = Quiet()
    rounds = Rounds(seconds, quiet)

    def heavy_loop():
        try:
            for rnd, (k, s), kind, line in heavy_plan():
                if not rounds.enter(rnd):
                    break
                if rnd == 1:
                    first_round_done.set()
                ms, resp = heavy.call(line)
                ok, j, why = serve_response_ok(resp)
                with lock:
                    counts["heavy"] += 1
                    # first-seen requests run once each: one class for all
                    tally.add("optimize.first" if kind == "first" else "optimize.repeat." + k, ms, ok, why)
                    if ok and kind == "first":
                        winners_seen.setdefault(k, j["result"].get("winner"))
        except BaseException as e:
            errors.append(repr(e))
        finally:
            rounds.close()
            first_round_done.set()
            done.set()

    def light_loop():
        # first-seen requests run alone: each is sampled once, so a wait
        # behind a light request would be all of its noise
        first_round_done.wait()
        try:
            for k, m, line in light_plan():
                with quiet.turn():
                    if done.is_set():
                        break
                    ms, resp = light.call(line)
                    at = time.perf_counter()
                ok, _, why = serve_response_ok(resp)
                with lock:
                    counts["light"] += 1
                    tally.add(m, ms, ok, why, at)
        except BaseException as e:
            errors.append(repr(e))

    def poll_loop():
        try:
            while not done.is_set():
                _, resp = poller.call(json.dumps({"id": 0, "method": "stats"}))
                depths.append(json.loads(resp)["result"]["queue"]["depth"])
                done.wait(0.02)
        except BaseException as e:
            errors.append(repr(e))

    threads = [threading.Thread(target=heavy_loop), threading.Thread(target=light_loop)]
    if poll_stats:
        threads.append(threading.Thread(target=poll_loop))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for c in (heavy, light, poller):
        if c is not None:
            c.close()
    if errors:
        raise BenchError("serve client failed: %s" % errors[0])
    rss = daemon_rss_mb(state["daemon"]["proc"].pid)
    stop_daemon(state["daemon"])
    code = state["daemon"]["proc"].returncode
    if code != 0:
        tally.add("daemon.exit", 0.0, False, "daemon exited %d" % code)
    kinds = {"first": [], "repeat": [], "light": []}
    for cls, xs in tally.samples.items():
        kinds["first" if cls == "optimize.first" else "repeat" if cls.startswith("optimize.") else "light"] += xs
    # a class's latency is its median, but the first-seen class holds one
    # sample of each (kernel, size): its latency is their geomean
    def class_geomean(samples):
        return geomean([geomean(xs) if cls == "optimize.first" else median(xs) for cls, xs in samples.items()])

    wall, ops, ref = class_geomean(tally.samples), rounds.rate(tally.done_at), rounds.ref.median_ms()
    metrics = {"wall_geomean_ref": class_geomean(tally.relative(rounds.ref)), "peak_rss_mb": rss}
    details = {
        "serve.wall_ms_geomean": (wall, "ms"),
        "serve.reference_ms": (ref, "ms"),
        "serve.optimize_first_ms_p50": (median(kinds["first"]), "ms"),
        "serve.optimize_repeat_ms_p50": (median(kinds["repeat"]), "ms"),
        "serve.light_ms_p50": (median(kinds["light"]), "ms"),
        "serve.requests_per_s": (ops, "1/s"),
        "serve.failed_share": (tally.failed / max(1, tally.attempted), "share"),
    }
    extra = {
        "latency_ms": {k: latency_summary(v) for k, v in kinds.items()},
        "per_class_p50_ms": {k: median(v) for k, v in sorted(tally.samples.items())},
        "requests": counts,
        "daemon_exit": code,
        # serve's optimize uses Search.default_config, the CLI widens it
        # with Search.config_for: both winners are recorded, not compared
        "winners": {k: {"serve": winners_seen.get(k), "cli": state["cli_winner"][k]} for k in KERNELS},
    }
    if poll_stats:
        if not depths:
            raise BenchError("the stats poller read no queue depth")
        extra["queue_depth_max"] = max(depths)
    return tally, metrics, details, extra


# ---- run-exec ----

def setup_run(j):
    work = fresh_dir(os.path.join(OUT, "run"))
    kernels = sorted({k for _, k, _, _ in RUN_ROWS})
    won = winners(work, sorted({k for _, k, _, s in RUN_ROWS if s == "winner"}), j)
    for k in kernels:
        shutil.copy(os.path.join(KERNEL_DIR, k + ".loop"), work)
    write(os.path.join(work, "wavefront.tf"), WAVEFRONT_TF)
    rows = []
    for name, k, n, sched in RUN_ROWS:
        recipe, expect = None, "ok"
        if sched == "winner":
            recipe = won[k][0] + ".tf"
            # optimize's own DOALL count of its winner says whether the
            # exec runtime must find a parallel loop or degrade
            if "winner doall: none" in won[k][1]:
                expect = "degraded:X901"
        elif sched == "wavefront":
            recipe = os.path.join(work, "wavefront.tf")
        rows.append({"name": name, "kernel": k, "n": n, "src": os.path.join(work, k + ".loop"),
                     "recipe": recipe, "expect": expect})
    return {"work": work, "rows": rows}


def run_args(row, j):
    args = ["run", row["src"], "-N", str(row["n"]), "--threads", str(j), "--repeat", "1"]
    return args + (["--recipe", row["recipe"]] if row["recipe"] else [])


def run_label(r):
    text = r.out + r.err
    if "X801" in text:
        return "error:X801"
    if r.rc == 0 and "differential: ok" in r.out:
        return "ok"
    if r.rc == 2 and "warning[X901]" in r.err and "differential: ok" in r.out:
        return "degraded:X901"
    return "error:exit%d" % r.rc


def reported_ms(out, what):
    for line in out.splitlines():
        if line.startswith(what + ":"):
            return float(line.split("best-of-")[1].split()[1])
    return None


def run_row_op(row, j, tally, par):
    """One run-exec operation: timed spawn, then the label check."""
    r = spawn(run_args(row, j))
    label = run_label(r)
    ok = label == row["expect"]
    tally.add(row["name"], r.wall_ms, ok, "label %s, expected %s" % (label, row["expect"]), r.end)
    if ok:
        par.setdefault(row["name"], []).append(reported_ms(r.out, "parallel"))
    return r, ok


def run_plan(rows, seed, rounds=400):
    rng = random.Random(seed)
    for rnd in range(rounds):
        order = rows[:]
        rng.shuffle(order)
        for row in order:
            yield rnd, row


def run_exec(state, seed, seconds, j):
    tally, par, rss, rounds = Tally(), {}, 0.0, Rounds(seconds)
    for rnd, row in run_plan(state["rows"], seed):
        if not rounds.enter(rnd):
            break
        r, ok = run_row_op(row, j, tally, par)
        if ok:
            rss = max(rss, r.rss_mb)
    rounds.close()
    wall, ops, ref = tally.class_geomean(), rounds.rate(tally.done_at), rounds.ref.median_ms()
    rel = geomean([median(xs) for xs in tally.relative(rounds.ref).values()])
    metrics = {"wall_geomean_ref": rel, "peak_rss_mb": rss}
    details = {
        "run.wall_ms_geomean": (wall, "ms"),
        "run.rows_per_s": (ops, "1/s"),
        "run.reference_ms": (ref, "ms"),
        "run.par_ms_geomean": (geomean([median(v) for v in par.values()]), "ms"),
        "run.failed_share": (tally.failed / max(1, tally.attempted), "share"),
    }
    extra = {
        "per_row_p50_ms": {k: median(v) for k, v in sorted(tally.samples.items())},
        "expected_labels": {row["name"]: row["expect"] for row in state["rows"]},
    }
    return tally, metrics, details, extra


# ---- the failure-count self-test ----

def self_test(j):
    """Seeded faults must count as failed and must not be timed: a run
    row under an illegal recipe (the carried K loop of lu reversed) and
    an optimize winner file truncated before its check."""
    work = fresh_dir(os.path.join(OUT, "selftest"))
    for k in ("lu", "cholesky"):
        shutil.copy(os.path.join(KERNEL_DIR, k + ".loop"), work)
    bad = os.path.join(work, "reverse_k.tf")
    write(bad, "tf v1\nstep reverse K\n")
    tally = Tally()
    row = {"name": "lu.reversed", "kernel": "lu", "n": 8, "src": os.path.join(work, "lu.loop"),
           "recipe": bad, "expect": "ok"}
    run_row_op(row, j, tally, {})
    src, prefix = os.path.join(work, "cholesky.loop"), os.path.join(work, "cholesky.cut")
    r = spawn(["optimize", src, "--jobs", str(j), "-o", prefix])
    text = read(prefix + ".loop") if os.path.exists(prefix + ".loop") else ""
    write(prefix + ".loop", text[: len(text) // 2])
    why = optimize_check("cholesky", src, prefix, r)
    tally.add("cholesky.truncated", r.wall_ms, why is None, why)
    ok = tally.attempted == 2 and tally.failed == 2 and not tally.samples
    return ok, tally.failures


# ---- the traced run ----

def trace_plan(workload, state, seed, j):
    """The same seeded operations as the end-to-end run, for trace.exe."""
    lines = []
    if workload == "optimize-cold":
        for rnd, k in optimize_plan(seed):
            lines.append(["optimize", k, rnd, os.path.join(state["work"], k + ".loop"),
                          os.path.join(state["work"], "%s.t%d" % (k, rnd)),
                          OPT_DEGRADED.get(k, "-"), VERIFY_DEGRADED.get(k, "-")])
    elif workload == "run-exec":
        for rnd, row in run_plan(state["rows"], seed):
            lines.append(["run", row["name"], rnd, row["src"], row["n"], row["recipe"] or "-", row["expect"]])
    else:
        heavy, light = serve_plans(state, seed)
        lit = light()
        for i, (rnd, (k, s), kind, line) in enumerate(heavy()):
            if i >= 18 * 60:
                break
            lines.append(["serve", "optimize.%s.%s" % (kind, k), rnd, s, line])
            if rnd > 0:  # as in the end-to-end run, first-seen requests run alone
                lk, m, lline = next(lit)
                lines.append(["serve", "%s.%s" % (m, lk), rnd, s, lline])
    return "".join("\t".join(str(x) for x in l) + "\n" for l in lines)


SELF_METRICS = {  # span name -> metric of its self time
    "op": "other_ms",
    "ir.parse": "ir.parse_ms",
    "depend.analyze": "depend.analyze_ms",
    "search.optimize": "search.self_ms",
    "core.completion": "core.completion_ms",
    "core.legality": "core.legality_ms",
    "core.codegen": "core.codegen_ms",
    "core.materialize": "core.materialize_ms",
    "core.transform": "core.transform_ms",
    "cachesim.simulate": "cachesim.self_ms",
    "interp.run": "interp.run_ms",
    "verify.validate": "verify.validate_ms",
    "exec.doall": "exec.doall_ms",
    "exec.par": "exec.par_ms",
    "exec.gate": "exec.gate_ms",
    "serve.handle": "serve.self_ms",
    "serve.json": "serve.json_ms",
}
MEMOS = ["presburger", "legality", "reuse", "trace", "mat", "completion"]
HANDLED = ("analyze", "verify", "optimize")


def per_layer(workload, trace, startup, queue_depth_max):
    """Per-layer metrics from the traced run's spans and counters."""
    ops = [o for o in trace["ops"] if o["ok"]]
    traced = {o["op"]: o for o in ops if o["traced"]}
    spans = {}
    for sid, parent, op, name, t0, t1 in trace["spans"]:
        if op in traced:
            spans[sid] = {"parent": parent, "op": op, "name": name, "dur": t1 - t0, "kids": 0.0}
    for s in spans.values():
        if s["parent"] in spans:
            spans[s["parent"]]["kids"] += s["dur"]
    n = max(1, len(traced))
    m = {v: 0.0 for v in SELF_METRICS.values()}
    totals = {"search.optimize": 0.0, "cachesim.simulate": 0.0, "interp.run": 0.0}
    handle = {h: [] for h in HANDLED}
    wall = {}
    violations = 0  # spans whose children outlast them beyond timing noise
    for s in spans.values():
        self_ms = s["dur"] - s["kids"]
        m[SELF_METRICS[s["name"]]] += self_ms / n
        if s["name"] == "op":
            wall[s["op"]] = s["dur"]
        if s["name"] in totals:
            totals[s["name"]] += s["dur"] / n
        if s["name"] == "serve.handle":
            meth = traced[s["op"]]["class"].split(".")[0]
            handle[meth].append(s["dur"])
    for s in spans.values():
        if s["dur"] - s["kids"] < -max(0.25, 0.02 * wall.get(s["op"], 0.0)):
            violations += 1

    def total(key):
        return sum(o.get(key, 0) or 0 for o in ops)

    def rate(h, miss):
        return h / (h + miss) if h + miss else 0.0

    searched = [o for o in ops if "search.candidates" in o]
    runs = [o for o in ops if o["kind"] == "run"]
    run_spans = {}
    for s in spans.values():
        if traced[s["op"]]["kind"] == "run" and s["name"] in ("interp.run", "exec.par"):
            run_spans.setdefault(s["op"], {})[s["name"]] = s["dur"]
    m.update({
        "cli.startup_ms": startup,
        "op_wall_ms": sum(wall.values()) / n,
        "search.optimize_ms": totals["search.optimize"],
        "cachesim.simulate_ms": totals["cachesim.simulate"],
        "exec.seq_ms": totals["interp.run"] if workload == "run-exec" else 0.0,
        "depend.deps": total("depend.deps") / max(1, sum(1 for o in ops if "depend.deps" in o)),
        "presburger.solver_calls": total("memo.solver.calls") / len(ops) if ops else 0.0,
        "presburger.cache_hit_rate": rate(total("memo.presburger.hits"), total("memo.presburger.misses")),
        "search.candidates": total("search.candidates") / max(1, len(searched)),
        "search.illegal_share": total("search.illegal") / max(1, total("search.candidates")),
        "search.reuse_pruned": total("search.reuse_pruned") / max(1, len(searched)),
        "core.legality_memo_hit_rate": rate(total("memo.legality.hits"), total("memo.legality.misses")),
        "core.delta_inherit_rate": rate(total("memo.delta.inherited"), total("memo.delta.checked")),
        "core.mat_memo_hit_rate": rate(total("memo.mat.hits"), total("memo.mat.misses")),
        "core.completion_memo_hit_rate": rate(total("memo.completion.hits"), total("memo.completion.misses")),
        "reuse.memo_hit_rate": rate(total("memo.reuse.hits"), total("memo.reuse.misses")),
        "search.trace_memo_hit_rate": rate(total("memo.trace.hits"), total("memo.trace.misses")),
        # every trace-memo miss is one simulation of a program the probe ran
        "cachesim.accesses": sum(o.get("probe.accesses", 0) * o.get("memo.trace.misses", 0)
                                 for o in searched) / max(1, len(searched)),
        "exec.speedup": geomean([d["interp.run"] / d["exec.par"] for d in run_spans.values()
                                 if d.get("exec.par")]) if run_spans else 0.0,
        "exec.nonfinite_share": total("exec.nonfinite") / total("exec.cells") if runs else 0.0,
        "parallel.effective_jobs": trace["effective_jobs"],
        "serve.queue_depth_max": queue_depth_max,
        "split.violations": violations,
    })
    if workload == "run-exec":
        seq = sum(d.get("interp.run", 0.0) for d in run_spans.values())
        inst = sum(traced[op].get("interp.instances", 0) for op in run_spans)
        m["interp.ns_per_instance"] = seq * 1e6 / inst if inst else 0.0
    else:
        inst = total("probe.instances")
        m["interp.ns_per_instance"] = total("probe.interp_s") * 1e9 / inst if inst else 0.0
    for h in HANDLED:
        m["serve.handle_ms." + h] = statistics.fmean(handle[h]) if handle[h] else 0.0
    for name in MEMOS:
        for part in ("hits", "misses"):
            m["memo.%s.%s" % (name, part)] = total("memo.%s.%s" % (name, part)) / len(ops) if ops else 0.0
    # tracing overhead: per class, median traced wall minus median
    # untraced wall, averaged over the classes seen both ways
    by = {}
    for o in ops:
        by.setdefault(o["class"], {True: [], False: []})[o["traced"]].append(o["wall_ms"])
    diffs = [median(v[True]) - median(v[False]) for v in by.values() if v[True] and v[False]]
    m["trace.overhead_ms"] = statistics.fmean(diffs) if diffs else 0.0
    memo_table = {name: (total("memo.%s.hits" % name), total("memo.%s.misses" % name)) for name in MEMOS}
    rows = {}
    for o in runs:
        rows.setdefault(o["class"], o["exec.nonfinite"] / max(1, o["exec.cells"]))
    return m, memo_table, rows


UNITS = {"rate": "ratio", "share": "ratio", "speedup": "ratio", "jobs": "count"}


def unit_of(name):
    if name.endswith("_ms") or ".handle_ms." in name:
        return "ms"
    if name.endswith("ns_per_instance"):
        return "ns"
    for key, unit in UNITS.items():
        if key in name:
            return unit
    return "count"


# ---- environment, build and main ----

def environment(nproc, j):
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None

    jobs_line = next((l for l in spawn(["deps", os.path.join(KERNEL_DIR, "lu.loop"), "--jobs", str(j),
                                        "--stats"]).err.splitlines() if l.startswith("jobs:")), "")
    return {
        "nproc": nproc,
        "jobs": j,
        "effective_jobs": jobs_line,
        "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"]) or cmd(["ocamlopt", "-version"]),
        "cc": shutil.which("cc") is not None,
        "commit": cmd(["git", "rev-parse", "HEAD"]) or tree_digest(),
    }


def tree_digest():
    """Stands in for the commit where the checkout is no git repository:
    a SHA-1 over the sources the benchmark builds and runs."""
    digest = hashlib.sha1()
    for top in ("bin", "lib", "examples", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(top)):
            dirnames.sort()
            for f in sorted(files):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return "tree-sha1:" + digest.hexdigest()


def build():
    if not (os.path.exists("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise BenchError("run from the root of a source checkout (no dune-project/lib/bin here)")
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    dune(["build", "./bin/inltool.exe"])
    # The traced run and the reference program are a project of their
    # own (perfbench/trace); its workspace gets a copy of lib/ so that
    # the traced run can link the libraries.
    os.makedirs(TRACE_WS, exist_ok=True)
    for f in os.listdir(os.path.join("perfbench", "trace")):
        shutil.copy(os.path.join("perfbench", "trace", f), TRACE_WS)
    shutil.rmtree(os.path.join(TRACE_WS, "lib"), ignore_errors=True)
    shutil.copytree("lib", os.path.join(TRACE_WS, "lib"))
    dune(["build", "--root", TRACE_WS, "--profile", "release", "./trace.exe", "./calib.exe"])
    os.makedirs(os.path.join(OUT, "proc"), exist_ok=True)


def dune(args):
    # no shared cache: the benchmark writes only inside its checkout
    r = subprocess.run(["dune"] + args + ["--cache", "disabled"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        raise BenchError("dune %s failed:\n%s" % (" ".join(args), r.stdout[-4000:]))


SETUPS = {
    "optimize-cold": lambda j: setup_optimize(),
    "serve-mix": setup_serve,
    "run-exec": setup_run,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        cpus = cores()
        nproc, pinned = len(cpus), program_cores(cpus)
        j = len(pinned) if pinned else nproc
        st_ok, st_failures = self_test(j)
        print("self-test: %s (%s)" % ("ok" if st_ok else "FAILED", "; ".join(st_failures)))
        env = environment(nproc, j)
        env["cores"] = sorted(pinned) if pinned else "all"
        env["seed"] = a.seed
        env["seed_role"] = {DEFAULT_SEED: "default", HELD_OUT_SEED: "held-out"}.get(a.seed, "other")
        setup_s, setup_times, state = timed_setup(lambda: SETUPS[a.workload](j))
        # Only the measured loop is pinned: set-up times on one core moved
        # with that core's neighbours (spread 0.3-0.5 on serve-mix).
        if pinned:
            PINNED[0] = pinned
            os.sched_setaffinity(0, set(cpus) - pinned)
            for d in DAEMONS:
                pin(d["proc"].pid)
        if a.trace == 0:
            fn = {"optimize-cold": run_optimize, "serve-mix": run_serve, "run-exec": run_exec}[a.workload]
            tally, m, details, extra = fn(state, a.seed, a.seconds, j)
            m["setup_s"] = setup_s
            m["ok_share"] = 1.0 - tally.failed / max(1, tally.attempted)
            units = {"wall_geomean_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s", "ok_share": "ratio"}
            attempted, failed = tally.attempted, tally.failed
            failures = tally.failures
            shown = dict(details)
            correct = st_ok and failed == 0 and all(math.isfinite(v) for v in m.values())
        else:
            qmax = 0
            if a.workload == "serve-mix":
                # the end-to-end traffic on the set-up daemon for half the
                # run, with a third connection polling `stats`
                _, _, _, sx = run_serve(state, a.seed, a.seconds / 2, j, poll_stats=True)
                qmax = sx["queue_depth_max"]
            elif "teardown" in state:
                state["teardown"]()
            plan = os.path.join(OUT, "trace-plan.tsv")
            write(plan, trace_plan(a.workload, state, a.seed, j))
            out = os.path.join(OUT, "trace-%s.json" % a.workload)
            r = subprocess.run([TRACE_EXE, plan, out, str(a.seconds), str(j)], timeout=170,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if r.returncode != 0:
                raise BenchError("traced run failed: " + r.stderr[-2000:])
            trace = json.loads(read(out))
            m, memo_table, nonfinite = per_layer(a.workload, trace, startup_ms(), qmax)
            units = {k: unit_of(k) for k in m}
            attempted = len(trace["ops"])
            failures = ["%s: %s" % (o["class"], o.get("error", "check failed")) for o in trace["ops"] if not o["ok"]]
            failed = len(failures)
            split_ok = m["split.violations"] == 0
            correct = st_ok and failed == 0 and split_ok
            extra = {"memo_table": memo_table, "nonfinite_share_per_row": nonfinite, "split_ok": split_ok}
            shown = {}
            print("memo effectiveness (%s, %s): hits / misses" % (
                a.workload, "memos cleared per operation" if a.workload == "optimize-cold" else "memos kept"))
            for name, (h, mi) in memo_table.items():
                print("  %-11s %9d / %-9d hit rate %5.1f%%" % (name, h, mi, 100.0 * h / max(1, h + mi)))
            for row, share in sorted(nonfinite.items()):
                print("  gate power %-20s exec.nonfinite_share %.4f" % (row, share))
        print("environment: " + json.dumps(env, sort_keys=True))
        print("setup: median %.4f s of %s" % (setup_s, ", ".join("%.4f" % t for t in setup_times)))
        for f in failures[:20]:
            print("FAILED " + f)
        for name, (v, unit) in sorted(shown.items()):
            print("  %-34s %14.4f %s" % (name, v, unit))
        for name in sorted(m):
            print("  %-34s %14.4f %s" % (name, m[name], units[name]))
        names = gated(a.trace)
        if names - set(m):
            raise BenchError("metrics not measured: " + ", ".join(sorted(names - set(m))))
        # a metric with no passing sample is NaN; the run is incorrect then
        result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
                  "metrics": {k: {"value": m[k] if math.isfinite(m[k]) else 0.0, "unit": units[k]}
                              for k in sorted(names)}}
        write(os.path.join(OUT, "result-%s-trace%d.json" % (a.workload, a.trace)),
              json.dumps({"environment": env, "details": shown, "extra": extra, "result": result},
                         indent=1, sort_keys=True, default=str))
        print(json.dumps(result))
        return 0
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    finally:
        for d in list(DAEMONS):
            stop_daemon(d)
        if os.path.isdir(os.path.join(OUT, "proc")):
            shutil.rmtree(os.path.join(OUT, "proc"), ignore_errors=True)


def gated(trace):
    """The metric names BENCHMARK.json lists for this mode."""
    spec = json.loads(read("BENCHMARK.json"))
    return {x["name"] for x in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
