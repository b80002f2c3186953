"""End-to-end benchmark of the reproduction: three workloads, one command.

    python3 e2ebench/run.py --workload bundle|bundle-warm|serve-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/repro`` and the committed
``artifacts/`` must be there).  Every timing is in *calibrated seconds*
(raw seconds x C_REF / c_run, see ``calib.py``; a serve-mix batch scales
only its CPU seconds); raw seconds and both calibration samples of every
timed unit go into the run record printed before the result.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs the workload once untraced and once under the layer
wrappers of ``layers.py`` and reports the per-layer ledger.  The last
line of standard output is the JSON result.

Workloads (the one-line reasons live in ``BENCHMARK.json``):

* ``bundle``      -- ``python -m repro.experiments.generate_all -j 1`` into
  an empty directory, no cache: what reproducers run.
* ``bundle-warm`` -- the same regeneration, each in a fresh process,
  against a ``--cache-dir`` filled during set-up.
* ``serve-mix``   -- a live ``gpu-topdown serve`` daemon fed by a closed
  loop of two client connections (repeats, known kernels at a new
  level, fresh seeds) with the store capped so eviction runs.
"""

from __future__ import annotations

import argparse
import http.client
import json
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

import calib
import stats

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bundle", "bundle-warm", "serve-mix")

#: set-up is repeated this many times per run; the median is reported.
#: A bundle-warm set-up is a whole cold regeneration (~11 s), so it
#: gets two, which keeps that run near 40 s.
SETUP_REPEATS = 3
WARM_SETUP_REPEATS = 2
#: re-runs allowed per unit whose calibration samples disagree.
MAX_RERUNS = 2
#: a run stops starting new units after this many seconds.
RUN_DEADLINE_S = 140.0
#: per-child wall-clock limit.
CHILD_TIMEOUT_S = 120.0

# serve-mix shape
GPUS = ("NVIDIA Quadro RTX 4000", "NVIDIA GTX 1070")
SUITES = ("rodinia", "altis")
CLIENTS = 2
BATCHES = 8                    # one calibration point after each
POLL_S = 0.005                 # client sleep between polls
STORE_MAX_BYTES = 48 * 1024    # a run stores ~110 KiB: eviction runs
RECHECK_JOBS = 4               # jobs recomputed in-process after timing
JOB_TIMEOUT_S = 60.0

MB = 1024 * 1024
CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# process plumbing
# ---------------------------------------------------------------------------

class Checkout:
    """Paths and the child environment of the checkout under test."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.src = root / "src"
        self.artifacts = root / "artifacts"
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("GPU_TOPDOWN_")}
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(self.work)
        env.pop("PYTHONSTARTUP", None)
        self.env = env

    def valid(self) -> str | None:
        if not (self.src / "repro" / "__init__.py").is_file():
            return f"no source tree at {self.src}/repro"
        if not (self.artifacts / "MANIFEST.txt").is_file():
            return f"no committed bundle at {self.artifacts}"
        return None


def wait_child(proc: subprocess.Popen, timeout: float) -> int:
    """Reap ``proc``; returns its peak RSS in KiB (kills on timeout)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        time.sleep(0.002)


def run_child(co: Checkout, args: list[str], log: Path) -> tuple[int, int]:
    """Run ``python3 args`` to completion: (exit code, peak RSS KiB)."""
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=co.root, env=co.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            rss = wait_child(proc, CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return proc.returncode, rss


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# calibrated timing
# ---------------------------------------------------------------------------

class Clock:
    """Times units between calibration samples; keeps every record."""

    def __init__(self, first_sample: float) -> None:
        self.last = first_sample
        self.points = [first_sample]
        self.records: list[dict] = []
        self.reruns = 0

    @classmethod
    def start(cls) -> "Clock":
        calib.warm_up()
        return cls(calib.sample())

    def unit(self, label: str, fn, *, rerun: bool = True, account=None):
        """Run ``fn(attempt)`` as one timed unit; re-run it (counted)
        when the samples before and after disagree.  ``account(value,
        record)`` sees every attempt, kept or not, so a failure in a
        re-run unit still counts.  Returns ``(record, value)`` of the
        kept attempt."""
        for attempt in range(MAX_RERUNS + 1):
            c0 = self.last
            t0 = time.perf_counter()
            value = fn(attempt)
            raw = time.perf_counter() - t0
            c1 = self.last = calib.sample()
            self.points.append(c1)
            record = {
                "unit": label, "attempt": attempt, "raw_s": raw,
                "c_before": c0, "c_after": c1,
            }
            self.records.append(record)
            if account is not None:
                account(value, record)
            if (not rerun or attempt == MAX_RERUNS
                    or not stats.calibration_disagrees(c0, c1)):
                return record, value
            self.reruns += 1
            record["rerun"] = True

    def c_run(self) -> float:
        """The run's host speed: the mean of every calibration point
        taken in the run, one before the first unit and one after each.
        A single point is a half-second look at a host whose speed
        flips between phases every second or so; the run's mean is the
        steadier estimate of the speed its work saw, and still follows
        the drift from one run to the next."""
        return sum(self.points) / len(self.points)

    def factor(self) -> float:
        """Raw CPU seconds -> calibrated seconds for this run."""
        return calib.C_REF / self.c_run()

    def calibrated(self, record: dict) -> float:
        """A unit's calibrated seconds; a record with ``cpu_s`` scales
        only its CPU part (see :func:`stats.calibrated`)."""
        return stats.calibrated(record["raw_s"], self.factor(),
                                record.get("cpu_s"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class BundleCheck:
    """Byte-compares regenerated bundles with the committed one.

    Data files must equal ``artifacts/`` byte for byte.  ``MANIFEST.txt``
    is compared across the runs of this code (the first one seen is the
    reference); the committed manifest's staleness is a finding.
    """

    VOLATILE = ("RUNHEALTH.txt",)

    def __init__(self, artifacts: Path) -> None:
        self.committed = {
            p.name: p.read_bytes() for p in sorted(artifacts.iterdir())
            if p.is_file()
        }
        self.manifest: bytes | None = None
        self.findings: list[str] = []

    def check(self, out: Path) -> list[str]:
        problems = []
        produced = {p.name for p in out.iterdir()} if out.is_dir() else set()
        for name, data in self.committed.items():
            if name == "MANIFEST.txt":
                continue
            path = out / name
            if not path.is_file():
                problems.append(f"missing {name}")
            elif path.read_bytes() != data:
                problems.append(f"{name} differs from artifacts/{name}")
        extra = produced - set(self.committed) - set(self.VOLATILE)
        if extra:
            problems.append(f"unexpected files {sorted(extra)}")
        manifest = out / "MANIFEST.txt"
        if not manifest.is_file():
            problems.append("missing MANIFEST.txt")
        else:
            text = manifest.read_bytes()
            if self.manifest is None:
                self.manifest = text
                if text != self.committed.get("MANIFEST.txt"):
                    self.findings.append(
                        "committed artifacts/MANIFEST.txt is stale: it "
                        "differs from what this code writes (known "
                        "ROADMAP item; compared across runs instead)")
            elif text != self.manifest:
                problems.append("MANIFEST.txt differs between runs")
        return problems


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

class Run:
    """Everything one benchmark invocation measured."""

    def __init__(self, workload: str, seed: int, clock: Clock) -> None:
        self.workload = workload
        self.seed = seed
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.findings: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.printed: list[tuple[str, float, str, int]] = []
        self.ledger: dict | None = None
        self.raw: dict[str, float] = {}
        self.layer_spans: list | None = None

    def op(self, problems: list[str], label: str) -> None:
        """Count one operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def metric(self, name: str, value: float, unit: str, n: int,
               gated: bool = True) -> None:
        self.printed.append((name, value, unit, n))
        if gated:
            self.metrics[name] = {"value": value, "unit": unit}


def median_raw(records: list[dict]) -> float:
    return statistics.median([r["raw_s"] for r in records])


def median_cal(clock: Clock, records: list[dict]) -> float:
    return statistics.median([clock.calibrated(r) for r in records])


# ---------------------------------------------------------------------------
# bundle / bundle-warm
# ---------------------------------------------------------------------------

def _regen_args(out: Path, cache: Path | None) -> list[str]:
    """``generate_all`` arguments: serial, seed 0 (the committed bundle)."""
    args = ["--output", str(out), "-j", "1", "--seed", "0"]
    if cache is not None:
        args += ["--cache-dir", str(cache)]
    return args


def _regenerate(run: Run, co: Checkout, check: BundleCheck, label: str,
                out: Path, cache: Path | None, *, traced: Path | None = None,
                rerun: bool = True):
    """One timed regeneration (an operation); returns (record, rss KiB)."""
    log = co.work / "children.log"

    if traced is None:
        argv = ["-m", "repro.experiments.generate_all"]
    else:
        argv = [str(HERE / "launch.py"), str(traced), "generate_all"]
    argv += _regen_args(out, cache)

    def unit(attempt):
        shutil.rmtree(out, ignore_errors=True)
        return run_child(co, argv, log)

    def account(value, record):
        code, rss = value
        record["peak_rss_kib"] = rss
        problems = [] if code == 0 else [f"exit code {code}"]
        run.op(problems + check.check(out), label)

    record, (_code, rss) = run.clock.unit(label, unit, rerun=rerun,
                                          account=account)
    return record, rss


def workload_bundle(run: Run, co: Checkout, seconds: float, trace: bool,
                    warm: bool) -> None:
    check = BundleCheck(co.artifacts)
    out = co.work / "out"
    cache: Path | None = None
    started = time.perf_counter()

    # -- set-up --------------------------------------------------------
    setups = []
    if warm:
        # cold cache fill: memo on, store and driver-source writes.
        for k in range(1 if trace else WARM_SETUP_REPEATS):
            if cache is not None:
                shutil.rmtree(cache)
            cache = co.work / f"cache{k}"
            record, _ = _regenerate(run, co, check, f"fill{k}", out, cache,
                                    rerun=False)
            setups.append(record)
    else:
        log = co.work / "children.log"
        for k in range(1 if trace else SETUP_REPEATS):
            record, (code, _) = run.clock.unit(
                f"import{k}", lambda attempt: run_child(
                    co, ["-c", "import repro.experiments.generate_all"], log),
                rerun=False)
            if code != 0:
                run.problems.append(f"import{k}: exit code {code}")
            setups.append(record)

    if trace:
        base, _ = _regenerate(run, co, check, "untraced", out, cache)
        spans_path = co.work / "spans.json"
        traced, _ = _regenerate(run, co, check, "traced", out, cache,
                                traced=spans_path)
        run.findings += check.findings
        layer_metrics(run, spans_path, traced["raw_s"],
                      base["raw_s"], traced["raw_s"], run.clock.factor(),
                      client=None)
        return

    # -- measured units ------------------------------------------------
    # --seconds counts timed work, not the calibration between units.
    units = []
    rss = []
    while True:
        record, peak = _regenerate(run, co, check, f"regen{len(units)}",
                                   out, cache)
        units.append(record)
        rss.append(peak)
        measured = sum(r["raw_s"] for r in units)
        if (measured >= seconds
                or time.perf_counter() - started >= RUN_DEADLINE_S):
            break
    # the last unit's bundle (bundle) or the cache (bundle-warm) is
    # what the run leaves on disk.
    disk = dir_bytes(cache if warm else out)
    run.findings += check.findings
    run.raw = {"setup_s": median_raw(setups), "run_s": median_raw(units)}
    run.metric("setup_s", median_cal(run.clock, setups), "s", len(setups))
    run.metric("run_s", median_cal(run.clock, units), "s", len(units))
    run.metric("peak_rss_mb", statistics.median(rss) / 1024.0, "MB",
               len(rss))
    run.metric("disk_mb", disk / MB, "MB", 1)


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

class Daemon:
    """One ``gpu-topdown serve`` child with its own state directory."""

    def __init__(self, co: Checkout, state: Path, *,
                 spans: Path | None = None) -> None:
        self.state = state
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        self.port_file = state.parent / f"{state.name}.port"
        self.port_file.unlink(missing_ok=True)
        args = ["--state-dir", str(state), "--port", "0",
                "--port-file", str(self.port_file), "--workers", "2",
                "--store-max-bytes", str(STORE_MAX_BYTES), "-j", "1"]
        if spans is None:
            argv = ["-m", "repro.cli", "serve", *args]
        else:
            argv = [str(HERE / "launch.py"), str(spans), "serve", *args]
        self.log = open(co.work / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=co.root, env=co.env,
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
        )
        self.port: int | None = None
        self.peak_rss_kib = 0

    def cpu_s(self) -> float:
        """User + system CPU seconds the daemon has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def wait_healthy(self, timeout: float = 60.0) -> bool:
        """Poll until ``/healthz`` answers 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            if self.port is None:
                try:
                    self.port = int(self.port_file.read_text())
                except (OSError, ValueError):
                    time.sleep(0.002)
                    continue
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return True
            except OSError:
                pass
            time.sleep(0.002)
        return False

    def stop(self) -> int:
        """SIGTERM (graceful drain); returns the exit code."""
        try:
            if self.proc.returncode is None:
                self.proc.send_signal(signal.SIGTERM)
                self.peak_rss_kib = wait_child(self.proc, 60.0)
        finally:
            self.log.close()
        return self.proc.returncode


def _app_names() -> dict[str, list[str]]:
    from repro.lint import bundled_suites

    suites = bundled_suites()
    return {s: [a.name for a in suites[s]] for s in SUITES}


def plan_batches(seed: int, apps: dict[str, list[str]]) -> list[list]:
    """The (app, gpu) pairs of each batch, split per client: every pair
    of rodinia+altis x both GPUs appears once per run, in seeded order."""
    pairs = [(s, a, g) for s in SUITES for a in apps[s] for g in GPUS]
    random.Random(f"serve-mix:{seed}").shuffle(pairs)
    return [[pairs[b::BATCHES][c::CLIENTS] for c in range(CLIENTS)]
            for b in range(BATCHES)]


def client_stream(pairs, rng: random.Random) -> list[tuple[str, dict]]:
    """One client's job list: ``(kind, spec)`` with every dependent job
    after the job it depends on."""
    origins = []
    for suite, app, gpu in pairs:
        level = rng.choice((1, 2, 3))
        spec = {"kind": "app", "suite": suite, "app": app, "gpu": gpu,
                "level": level, "seed": rng.randrange(1, 2**31)}
        relevel = dict(spec, level=rng.choice(
            [x for x in (1, 2, 3) if x != level]))
        repeat_of = spec if rng.random() < 0.5 else relevel
        origins.append((spec, relevel, repeat_of))
    stream: list[tuple[str, dict]] = []
    ready: list[tuple[str, dict, tuple | None]] = []
    pending = list(origins)
    while pending or ready:
        if ready and (not pending or rng.random() < 0.5):
            kind, spec, unlocks = ready.pop(rng.randrange(len(ready)))
            stream.append((kind, spec))
            if unlocks is not None:
                ready.append(unlocks)
            continue
        spec, relevel, repeat_of = pending.pop(0)
        stream.append(("fresh", spec))
        repeat = ("repeat", dict(repeat_of), None)
        if repeat_of is spec:
            ready += [("relevel", relevel, None), repeat]
        else:
            ready.append(("relevel", relevel, repeat))
    return stream


class Client(threading.Thread):
    """One closed-loop connection: next job only after the last one's
    result arrived."""

    def __init__(self, idx: int, port: int, jobs, shared: dict) -> None:
        super().__init__(name=f"client-{idx}")
        self.idx = idx
        self.port = port
        self.jobs = jobs
        self.shared = shared
        self.latencies: list[float] = []
        self.polls = 0
        self.poll_s = 0.0
        self.problems: list[str] = []
        self.done: list[tuple[str, dict, str]] = []
        self.spans: list[tuple] = []
        self.window = (0.0, 0.0)

    def _request(self, conn, method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json",
                   "X-Tenant": f"client{self.idx}"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()

    def _job(self, conn, kind: str, spec: dict) -> str | None:
        perf = time.perf_counter
        t0 = perf()
        status, body = self._request(conn, "POST", "/jobs", spec)
        if status not in (200, 201):
            return f"submit {status}: {body[:120]!r}"
        doc = json.loads(body)
        job, state = doc["job"], doc["state"]
        t1 = perf()
        deadline = t1 + JOB_TIMEOUT_S
        while state not in ("done", "failed", "quarantined"):
            time.sleep(POLL_S)
            tp = perf()
            status, body = self._request(conn, "GET", f"/jobs/{job}")
            self.polls += 1
            self.poll_s += perf() - tp
            if status != 200:
                return f"poll {status}"
            state = json.loads(body)["state"]
            if perf() > deadline:
                return f"job {job} timed out"
        t2 = perf()
        if state != "done":
            return f"job {job} ended {state}"
        status, result = self._request(conn, "GET", f"/jobs/{job}/result")
        t3 = perf()
        if status != 200:
            return f"result {status}"
        attrs = {"job": job}
        self.spans += [("service.http.submit", t0, t1, attrs),
                       ("service.http.wait", t1, t2, attrs),
                       ("service.http.result", t2, t3, attrs)]
        self.latencies.append(t3 - t0)
        first = self.shared.setdefault(job, result)
        if kind == "repeat" and first != result:
            return f"repeat of {job} returned different bytes"
        self.done.append((kind, spec, job))
        return None

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=JOB_TIMEOUT_S)
        start = time.perf_counter()
        try:
            for kind, spec in self.jobs:
                try:
                    problem = self._job(conn, kind, spec)
                except (OSError, http.client.HTTPException,
                        ValueError, KeyError) as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)
                self.problems.append(problem)
        finally:
            conn.close()
            self.window = (start, time.perf_counter())


def _serve_stream(run: Run, daemon: Daemon, seed: int, batches, label: str):
    """Feed every batch through the daemon; returns per-stream totals."""
    shared: dict[str, bytes] = {}
    out = {"latencies": [], "units": [], "polls": 0, "poll_s": 0.0,
           "jobs": 0, "spans": [], "client_s": 0.0, "done": [],
           "results": shared}
    for b, per_client in enumerate(batches):
        def unit(attempt, b=b, per_client=per_client):
            rng = random.Random(f"serve-mix:{seed}:{b}:{attempt}")
            clients = [
                Client(c, daemon.port, client_stream(pairs, rng), shared)
                for c, pairs in enumerate(per_client)
            ]
            # CPU of both ends: the daemon, and this process's clients.
            cpu0 = daemon.cpu_s() + time.process_time()
            for cl in clients:
                cl.start()
            for cl in clients:
                cl.join(JOB_TIMEOUT_S * 2)
            return clients, daemon.cpu_s() + time.process_time() - cpu0

        def account(value, record, b=b):
            clients, record["cpu_s"] = value
            for cl in clients:
                if cl.is_alive():
                    run.op(["client did not finish"], f"{label} batch{b}")
                    continue
                for problem in cl.problems:
                    run.op([problem] if problem else [], f"{label} batch{b}")

        record, (clients, _cpu) = run.clock.unit(f"{label}-batch{b}", unit,
                                                 account=account)
        out["units"].append(record)
        for cl in clients:
            out["latencies"] += cl.latencies
            out["polls"] += cl.polls
            out["poll_s"] += cl.poll_s
            out["jobs"] += len(cl.latencies)
            out["spans"] += cl.spans
            out["client_s"] += cl.window[1] - cl.window[0]
            out["done"] += cl.done
    return out


def _recheck(run: Run, seed: int, done, results) -> None:
    """Recompute a seeded sample of executed jobs in-process and compare
    the bytes the daemon served."""
    from repro.service.jobs import JobSpec
    from repro.service.manager import ServiceManager

    executed = [(spec, job) for kind, spec, job in done if kind != "repeat"]
    rng = random.Random(f"serve-mix:recheck:{seed}")
    for spec, job in rng.sample(executed, min(RECHECK_JOBS, len(executed))):
        doc = ServiceManager._run_job(None, JobSpec.from_doc(spec))
        expect = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        problems = [] if results.get(job) == expect else [
            f"job {job} served bytes differ from an in-process recompute"]
        run.op(problems, "recheck")


def workload_serve(run: Run, co: Checkout, trace: bool) -> None:
    """A fixed stream of 252 jobs, longer than ``--seconds``: p95 needs
    at least 200 samples (10 beyond it)."""
    sys.path.insert(0, str(co.src))
    batches = plan_batches(run.seed, _app_names())

    def spawn(k, spans=None):
        daemon = Daemon(co, co.work / f"state{k}", spans=spans)
        record, healthy = run.clock.unit(
            f"spawn{k}", lambda attempt: daemon.wait_healthy(), rerun=False)
        if not healthy:
            daemon.stop()
            raise RuntimeError(f"daemon {k} never became healthy "
                               f"(see {co.work}/daemon.log)")
        return daemon, record

    setups = []
    daemon = None
    for k in range(1 if trace else SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        daemon, record = spawn(k)
        setups.append(record)
    try:
        stream = _serve_stream(run, daemon, run.seed, batches, "untraced")
    finally:
        code = daemon.stop()
    if code != 0:
        run.problems.append(f"daemon exit code {code}")

    if trace:
        spans_path = co.work / "spans.json"
        traced_daemon, _ = spawn("traced", spans=spans_path)
        try:
            traced = _serve_stream(run, traced_daemon, run.seed, batches,
                                   "traced")
        finally:
            code = traced_daemon.stop()
        if code != 0:
            run.problems.append(f"traced daemon exit code {code}")
        layer_metrics(run, spans_path, traced["client_s"],
                      sum(r["raw_s"] for r in stream["units"]),
                      sum(r["raw_s"] for r in traced["units"]),
                      _stream_factor(run.clock, traced["units"]),
                      client=traced)
        return

    jobs = stream["jobs"]
    _recheck(run, run.seed, stream["done"], stream["results"])
    units = stream["units"]
    # a job's latency has no CPU split of its own: it takes the
    # stream's calibrated-to-raw ratio.
    f = _stream_factor(run.clock, units)
    lat = [x * f for x in stream["latencies"]]
    total_cal = sum(run.clock.calibrated(r) for r in units)
    run.raw = {"setup_s": median_raw(setups), "run_s": median_raw(units)}
    run.metric("setup_s", median_cal(run.clock, setups), "s", len(setups))
    run.metric("run_s", median_cal(run.clock, units), "s", len(units))
    run.metric("peak_rss_mb", daemon.peak_rss_kib / 1024.0, "MB", 1)
    run.metric("disk_mb", dir_bytes(daemon.state) / MB, "MB", 1)
    for p in (50, 95):
        if stats.reportable(len(lat), p):
            run.metric(f"latency_p{p}_s", stats.percentile(lat, p), "s",
                       len(lat), gated=False)
    run.metric("jobs_per_s", jobs / total_cal, "1/s", jobs, gated=False)
    polls = max(1, stream["polls"])
    run.findings.append(
        f"latency resolution: poll interval {POLL_S * 1000:g} ms + mean "
        f"poll round trip {stream['poll_s'] / polls * 1000:.1f} ms (raw); "
        f"{stream['polls'] / max(1, jobs):.2f} polls per job")
    cpu_share = (sum(r["cpu_s"] for r in units)
                 / sum(r["raw_s"] for r in units))
    run.findings.append(f"CPU share of the batches' wall time (the part "
                        f"calibration scales): {cpu_share:.2f}")


def _stream_factor(clock: Clock, units: list[dict]) -> float:
    """Calibrated over raw seconds of a stream's batches."""
    return (sum(clock.calibrated(r) for r in units)
            / sum(r["raw_s"] for r in units))


# ---------------------------------------------------------------------------
# per-layer ledger
# ---------------------------------------------------------------------------

def _graft(client_spans, daemon_spans):
    """One span list in client-seconds.

    Client spans get ids 1..n.  Each daemon root carrying a job id goes
    under the client span of that job it overlaps most, and its whole
    subtree is clipped to that span: daemon time is counted where a
    client was waiting for it.  Daemon work no client waited for (a
    re-run batch's, or outside every window) is left out.
    """
    spans = []
    by_job: dict[str, list] = {}
    for i, (name, t0, t1, attrs) in enumerate(client_spans, start=1):
        spans.append((i, name, t0, t1, 0, attrs))
        by_job.setdefault(attrs["job"], []).append(spans[-1])
    offset = len(spans) + 1
    parent_of = {s[0]: s[4] for s in daemon_spans}

    def root_of(sid):
        while parent_of.get(sid, 0) != 0:
            sid = parent_of[sid]
        return sid

    owner: dict[int, tuple] = {}     # daemon root id -> client span
    for sid, name, t0, t1, parent, attrs in daemon_spans:
        if parent != 0:
            continue
        best, overlap = None, 0.0
        for cand in by_job.get((attrs or {}).get("job"), ()):
            ov = min(t1, cand[3]) - max(t0, cand[2])
            if ov > overlap:
                best, overlap = cand, ov
        if best is not None:
            owner[sid] = best
    for sid, name, t0, t1, parent, attrs in daemon_spans:
        host = owner.get(root_of(sid))
        if host is None:
            continue
        t0, t1 = max(t0, host[2]), min(t1, host[3])
        if t1 <= t0:
            continue
        new_parent = host[0] if parent == 0 else parent + offset
        spans.append((sid + offset, name, t0, t1, new_parent, attrs))
    return spans


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, as ``BENCHMARK.json`` lists them."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def layer_metrics(run: Run, span_file: Path, wall_raw: float,
                  base_raw: float, traced_raw: float, factor: float,
                  client) -> None:
    """Turn the traced run's spans and counters into per-layer metrics
    (times in calibrated seconds: raw x ``factor``).  ``trace_overhead``
    compares the traced and untraced work of this run; one run has one
    ``c_run``, so it is a ratio of raw times."""
    doc = json.loads(span_file.read_text())
    spans = [tuple(s) for s in doc["spans"]]
    if client is not None:
        spans = _graft(client["spans"], spans)
    c = doc["counters"]
    led = stats.ledger(spans, wall_raw)
    run.ledger = {
        "rows": {k: v * factor for k, v in led["rows"].items()},
        "unattributed_s": led["unattributed_s"] * factor,
        "residual_s": led["residual_s"] * factor,
        "wall_s": wall_raw * factor,
        "basis": "client-seconds (2 closed-loop clients)"
        if client is not None else "traced regeneration wall time",
    }

    def incl(name):
        return stats.inclusive(spans, name)

    def ratio(a, b):
        return a / b if b else 0.0

    selfs = stats.self_times(spans)

    def self_of(name):
        return sum(selfs[s[0]] for s in spans if s[1] == name)

    launches = c.get("engine.launches", 0)
    executed = doc["engine"]["executed"]
    sm_loop = self_of("sim.sm")
    cycles = c.get("sm.cycles", 0)
    loads = c.get("result_cache.loads", 0)
    values = {
        "sim.engine.launches": launches,
        "sim.engine.executed": executed,
        "sim.engine.memo_hits": doc["engine"]["memo_hits"],
        "sim.engine.executed_ratio": ratio(executed, launches),
        "sim.engine.sim_s": incl("sim.engine")[1] * factor,
        "sim.fingerprint.calls": c.get("sim.fingerprint.calls", 0),
        "sim.fingerprint.s": incl("sim.fingerprint")[1] * factor,
        "sim.specialize.builds": c.get("specialize.builds", 0),
        "sim.specialize.hits": c.get("specialize.hits", 0),
        "sim.specialize.codegen_s":
            incl("sim.specialize.codegen")[1] * factor,
        "sim.specialize.compile_s":
            incl("sim.specialize.compile")[1] * factor,
        "sim.specialize.tables_s": incl("sim.specialize.tables")[1] * factor,
        "sim.specialize.source_mb": c.get("specialize.source_bytes", 0) / MB,
        "sim.sm.runs": c.get("sm.runs", 0),
        "sim.sm.loop_s": sm_loop * factor,
        "sim.sm.cycles": cycles,
        "sim.sm.ns_per_cycle": ratio(sm_loop * factor * 1e9, cycles),
        "sim.caches.calls": c.get("caches.calls", 0),
        "sim.caches.s": incl("sim.caches")[1] * factor,
        "sim.caches.l1_hit_ratio": ratio(c.get("caches.l1_hits", 0),
                                         c.get("caches.l1_accesses", 0)),
        "sim.caches.l2_hit_ratio": ratio(c.get("caches.l2_hits", 0),
                                         c.get("caches.l2_accesses", 0)),
        "sim.result_cache.loads": loads,
        "sim.result_cache.hit_ratio": ratio(c.get("result_cache.hits", 0),
                                            loads),
        "sim.result_cache.load_s": incl("sim.result_cache.load")[1] * factor,
        "sim.result_cache.stores": c.get("result_cache.stores", 0),
        "sim.result_cache.store_s":
            incl("sim.result_cache.store")[1] * factor,
        "sim.result_cache.read_mb": c.get("result_cache.read_bytes", 0) / MB,
        "sim.result_cache.written_mb":
            c.get("result_cache.written_bytes", 0) / MB,
        "sim.result_cache.evictions": doc["evictions"],
        "pmu.collect.calls": incl("pmu.collect")[0],
        "pmu.collect.self_s": self_of("pmu.collect") * factor,
        "pmu.replay_passes": c.get("pmu.replay_passes", 0),
        "core.analyzer.kernels": c.get("analyzer.kernels", 0),
        "core.analyzer.s": incl("core.analyzer")[1] * factor,
        "experiments.render_s": incl("experiments.render")[1] * factor,
        "resilience.checkpoint.records": incl("resilience.checkpoint")[0],
        "resilience.checkpoint.s":
            incl("resilience.checkpoint")[1] * factor,
        "service.journal.appends": incl("service.journal")[0],
        "service.journal.s": incl("service.journal")[1] * factor,
        "service.http.submit_s": incl("service.http.submit")[1] * factor,
        "service.http.polls_per_job":
            ratio(client["polls"], client["jobs"]) if client else 0.0,
        "service.http.result_s": incl("service.http.result")[1] * factor,
        "service.manager.queue_wait_s":
            incl("service.manager.queue_wait")[1] * factor,
        "service.manager.job_s": incl("service.manager.job")[1] * factor,
        "unattributed_s": run.ledger["unattributed_s"],
        "ledger_residual_s": run.ledger["residual_s"],
        "trace_overhead": traced_raw / base_raw - 1.0,
    }
    for name, unit in per_layer_units().items():
        run.metric(name, float(values[name]), unit, 1)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def report(run: Run) -> None:
    w = run.workload
    print(f"== e2ebench {w} seed={run.seed} ==")
    print("-- run record (raw seconds and calibration samples; "
          f"C_REF={calib.C_REF}) --")
    for r in run.clock.records:
        flag = "  RE-RUN: calibration samples disagree" if r.get(
            "rerun") else ""
        cpu = f"  cpu {r['cpu_s']:7.3f}s" if "cpu_s" in r else ""
        print(f"  {r['unit']:<22} raw {r['raw_s']:9.4f}s  c_run "
              f"{r['c_before']:.5f}/{r['c_after']:.5f}  cal "
              f"{run.clock.calibrated(r):9.4f}s{cpu}{flag}")
    print(f"  calibration re-runs: {run.clock.reruns}; run c_run "
          f"{run.clock.c_run():.5f} (mean of {len(run.clock.points)} "
          f"points), factor {run.clock.factor():.4f}")
    if run.ledger is not None:
        led = run.ledger
        preds = _predictions()
        print(f"-- per-layer ledger ({led['basis']}, calibrated s) --")
        for name, secs in led["rows"].items():
            share = secs / led["wall_s"] if led["wall_s"] else 0.0
            print(f"  {name:<30} {secs:10.4f}  {share:6.1%}")
        print(f"  {'unattributed_s':<30} {led['unattributed_s']:10.4f}")
        print(f"  {'(residual)':<30} {led['residual_s']:10.4f}")
        total = (sum(led["rows"].values()) + led["unattributed_s"]
                 + led["residual_s"])
        print(f"  rows + unattributed + residual = {total:.4f} s; "
              f"wall = {led['wall_s']:.4f} s")
        print("-- per-layer metrics (prediction: -> moves / != flat on) --")
        for name, value, unit, _n in run.printed:
            pred = preds.get(name, {})
            note = ""
            if pred:
                note = (f"  -> {', '.join(pred['moves']) or 'none'}"
                        f"  != {', '.join(pred['flat_on']) or 'none'}")
            print(f"  {name:<32} {value:14.6g} {unit:<6}{note}")
    else:
        print("-- end-to-end metrics (calibrated) --")
        for name, value, unit, n in run.printed:
            print(f"  {name:<16} {value:12.6g} {unit:<4} n={n}")
    if run.raw:
        print("  raw medians (gate nothing): " + ", ".join(
            f"{k}={v:.4f}s" for k, v in run.raw.items()))
    rate = stats.error_rate(run.failed, run.attempted)
    print(f"  error_rate       {rate:.4f}"
          f"  ({run.failed} failed / {run.attempted} attempted)")
    for finding in run.findings:
        print(f"finding: {finding}")
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")


def _predictions() -> dict:
    return json.loads((HERE / "PREDICTIONS.json").read_text())["per_layer"]


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    co = Checkout(Path.cwd(), workload, seed)
    problem = co.valid()
    if problem is not None:
        print(f"e2ebench: {problem}; run from a source checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(co.work, ignore_errors=True)
    co.work.mkdir(parents=True)
    run = Run(workload, seed, Clock.start())
    try:
        if workload == "serve-mix":
            workload_serve(run, co, trace)
        else:
            workload_bundle(run, co, seconds, trace,
                            warm=workload == "bundle-warm")
        if run.problems and run.failed == 0:
            # a failure outside any counted operation (set-up, daemon
            # exit) still fails the run.
            run.attempted += 1
            run.failed += 1
        if run.attempted == 0:
            raise RuntimeError("no operation was attempted")
        report(run)
    finally:
        shutil.rmtree(co.work, ignore_errors=True)
        try:
            co.work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="'all' runs the three in turn, each report "
                             "ending in its own JSON line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children and the daemon are
    # stopped and reaped by the cleanup paths on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
