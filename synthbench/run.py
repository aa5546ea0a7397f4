"""End-to-end benchmark of the synthesizer, its checker, and its service.

    python3 synthbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists is recorded in ``BENCHMARK.json``):

``synth-corpus``  cold in-process synthesis of the seven corpus goals, a
                  fresh ``Synthesizer`` and session per query, whole rounds
                  in seeded order.
``synth-deep``    cold in-process synthesis of ``drop``, repeated.
``service-mixed`` one ``repro serve`` process, two keep-alive connections
                  in a closed loop sending a seeded mix of ``/check`` and
                  ``/synth`` bodies plus byte-identical repeats.

Every answer is checked by :mod:`oracle` (which does not use the package),
and the search counters must repeat exactly across queries and hash seeds.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones from :mod:`tracer`, each per query, plus the tracing
overhead (a traced pass over the same queries as an untraced one).
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import goals
import oracle
import tracer as layer_tracer

HERE = goals.HERE
ROOT = goals.ROOT

#: Set-up samples per run: one fresh interpreter (or server) each.
SETUP_SAMPLES = 21
#: Corpus runs keep going until this many queries, so p90 has ten beyond it.
MIN_CORPUS_QUERIES = 100
#: Timed cache hits per cold query, taken between rounds (in-process workloads).
HITS_PER_QUERY = {"synth-corpus": 5, "synth-deep": 4000}
#: Byte-identical repeats per service round of 9 checks and 3 syntheses
#: (a quarter of all requests).
REPEATS_PER_ROUND = 4
CONNECTIONS = 2
WARMUP_REQUESTS = 6
#: Warm-up query of the deep workload.
WARMUP_GOAL = goals.CORPUS[1]
#: A traced run spends about this share of ``--seconds`` on untraced
#: queries, and as long again on the same queries traced.
TRACE_SHARE = 0.25
HTTP_TIMEOUT_S = 60.0
#: Every timed process runs under this string-hash seed, so timings do not
#: move with hash-dependent iteration orders; the determinism check runs
#: its probes under other seeds.
TIMING_HASHSEED = "0"


class DeterminismError(Exception):
    """Search counters differed between two runs of the same query."""


def median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0


def p90_ms(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=10, method="inclusive")[8] * 1000.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Counters:
    """Search counters per query key; every repeat must match the first."""

    def __init__(self) -> None:
        self.seen: Dict[str, Dict[str, int]] = {}

    def record(self, key: str, counters: Dict[str, int], where: str) -> None:
        first = self.seen.setdefault(key, counters)
        if first != counters:
            changed = {k: (first[k], counters.get(k)) for k in first if first[k] != counters.get(k)}
            raise DeterminismError(f"{key}: counters differ ({where}): {changed}")


# -- in-process workloads ------------------------------------------------------


def run_probe(request: Dict[str, object], hashseed: str) -> dict:
    """One ``probe.py`` child under ``hashseed``: its JSON report."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), json.dumps(request)],
        env=dict(os.environ, PYTHONHASHSEED=hashseed),
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_samples(goal_list: List[goals.Goal]) -> List[float]:
    """Set-up times (import, then parse every input) from fresh
    interpreters, all under the timing hash seed."""
    request = {"sources": sorted({goal.path for goal in goal_list})}
    return [run_probe(request, TIMING_HASHSEED)["setup_s"] for _ in range(SETUP_SAMPLES)]


def probe_goals(goal_list: List[goals.Goal], seed: int, cache_dir: Path) -> Dict[str, dict]:
    """Each goal synthesized once into the result cache by a fresh
    interpreter under its own seeded hash seed (untimed):
    goal name -> probe report."""
    rng = random.Random(f"hashseed-{seed}")
    probes = {}
    for goal in goal_list:
        request = {"sources": [goal.path], "goal": goal.name, "path": goal.path,
                   "depth": goal.depth, "cache_dir": str(cache_dir)}
        probes[goal.name] = run_probe(request, str(rng.randrange(1, 2**32)))
    return probes


class InProcess:
    """Cold synthesis queries in this process, checked and counted."""

    def __init__(self, goal_list: List[goals.Goal], seed: int) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.service import api
        from repro.service.cache import ResultCache
        from repro.syntax.parser import parse_program
        from repro.synth import SynthesisGoal, Synthesizer

        self._goal_type, self._synthesizer_type = SynthesisGoal, Synthesizer
        self._synth_query, self._cache_type = api.synth_query, ResultCache
        self.goals = {goal.name: goal for goal in goal_list}
        self.programs = {goal.name: parse_program(goal.source()) for goal in goal_list}
        self.seed = seed
        self.counters = Counters()
        self.answers: Dict[str, str] = {}
        self.statistics: Dict[str, dict] = {}
        self._verdicts: Dict[Tuple[str, str], bool] = {}

    def query(self, name: str) -> Tuple[float, bool]:
        """One cold synthesis: (latency seconds, answer correct)."""
        goal = self.goals[name]
        start = perf_counter()
        synthesizer = self._synthesizer_type(
            self._goal_type.from_program(self.programs[name], name), max_depth=goal.depth
        )
        result = synthesizer.synthesize()
        elapsed = perf_counter() - start
        if not (result.solved and result.verified):
            return elapsed, False
        text = result.pretty()
        enumeration = result.statistics.as_dict()
        self.counters.record(
            name,
            goals.search_counters(enumeration, synthesizer.session.backend.statistics),
            "repeat in one process",
        )
        self.answers.setdefault(name, text)
        self.statistics.setdefault(name, enumeration)
        return elapsed, self.correct(name, text)

    def correct(self, name: str, text: str) -> bool:
        key = (name, text)
        if key not in self._verdicts:
            self._verdicts[key] = oracle.program_meets_spec(name, text, self.seed)
        return self._verdicts[key]

    def run(
        self,
        order: Callable[[], List[str]],
        seconds: float,
        min_queries: int,
        after_round: Callable[[List[str]], None],
    ):
        """Whole rounds of ``order()`` until ``seconds`` have passed and at
        least ``min_queries`` ran: (names, latencies, correct flags, wall).
        ``after_round`` runs between rounds, outside the wall time."""
        names, latencies, oks = [], [], []
        start = perf_counter()
        paused = 0.0
        while perf_counter() - start - paused < seconds or len(names) < min_queries:
            round_names = order()
            for name in round_names:
                elapsed, ok = self.query(name)
                names.append(name)
                latencies.append(elapsed)
                oks.append(ok)
            pause = perf_counter()
            after_round(round_names)
            paused += perf_counter() - pause
        return names, latencies, oks, perf_counter() - start - paused

    def hits(self, cache_dir: Path, names: List[str], repeats: int):
        """Each goal answered ``repeats`` more times through the query
        layer's cache, each answer timed and checked: it must be a hit
        carrying the payload this process computed (a probe under another
        hash seed stored it).  Returns (latencies, correct flags)."""
        latencies, oks = [], []
        for name in names:
            for _ in range(repeats):
                start = perf_counter()
                payload, cached, _ = self._synth_query(
                    self.programs[name],
                    only=name,
                    depth=self.goals[name].depth,
                    cache=self._cache_type(cache_dir),
                )
                latencies.append(perf_counter() - start)
                item = payload["items"][0]
                oks.append(
                    cached
                    and item["program"] == self.answers.get(name)
                    and item["statistics"] == self.statistics.get(name)
                )
        return latencies, oks


def in_process_workload(args, workdir: Path) -> dict:
    corpus = args.workload == "synth-corpus"
    goal_list = goals.CORPUS if corpus else goals.DEEP
    cache_dir = workdir / "cache"
    samples = [] if args.trace else setup_samples(goal_list)
    probes = probe_goals(goal_list, args.seed, cache_dir)
    bench = InProcess(goal_list if corpus else goal_list + [WARMUP_GOAL], args.seed)
    rng = random.Random(args.seed)

    def order() -> List[str]:
        names = [goal.name for goal in goal_list]
        rng.shuffle(names)
        return names

    # Warm-up, untimed: one corpus round; drop's search is warmed by
    # `replicate` (lists, abduction, MUS pruning), not by an 8 s query.
    for goal in goal_list if corpus else [WARMUP_GOAL]:
        bench.query(goal.name)
    if args.trace:
        # Each query runs both untraced and traced, in alternating order, so
        # the overhead estimate compares neighbours in time and neither side
        # always inherits the other's warm caches.
        active = layer_tracer.Tracer()
        untraced = traced = 0.0
        names, oks = [], []

        def traced_query(name: str) -> Tuple[float, bool]:
            active.install()
            try:
                return bench.query(name)
            finally:
                active.uninstall()

        while untraced < args.seconds * TRACE_SHARE:
            for name in order():
                if len(names) % 2:
                    plain = bench.query(name)
                    with_spans = traced_query(name)
                else:
                    with_spans = traced_query(name)
                    plain = bench.query(name)
                untraced += plain[0]
                traced += with_spans[0]
                names.append(name)
                oks += [plain[1], with_spans[1]]
        metrics = layer_tracer.layer_metrics(active.totals(), active.counters(), len(names))
        metrics.update(
            {
                "service.hit_ratio": 0.0,
                "service.transport_ms": 0.0,
                "trace.overhead_ms": (traced - untraced) * 1000.0 / len(names),
            }
        )
        print(f"{args.workload}: traced {len(names)} queries; untraced {untraced:.2f} s, "
              f"traced {traced:.2f} s")
        oks += bench.hits(cache_dir, list(probes), 1)[1]
    else:
        hit_latencies: List[float] = []
        hit_oks: List[bool] = []

        def hits(round_names: List[str]) -> None:
            latencies, round_oks = bench.hits(
                cache_dir, round_names, HITS_PER_QUERY[args.workload]
            )
            hit_latencies.extend(latencies)
            hit_oks.extend(round_oks)

        names, latencies, oks, wall = bench.run(
            order, args.seconds, MIN_CORPUS_QUERIES if corpus else 0, hits
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"{args.workload}: {len(latencies)} queries in {wall:.2f} s; "
            f"{len(samples)} set-up samples; {len(hit_latencies)} cache hits"
        )
        metrics = {
            "setup_s": metric(statistics.median(samples), "s"),
            "queries_per_s": metric(oks.count(True) / wall, "1/s"),
            "latency_p50_ms": metric(median_ms(latencies), "ms"),
            "latency_p90_ms": metric(p90_ms(latencies), "ms"),
            "latency_hit_p50_ms": metric(median_ms(hit_latencies), "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        oks += hit_oks
    for name, probe in probes.items():
        bench.counters.record(name, probe["counters"], "probe under another hash seed")
        oks.append(bench.correct(name, probe["program"]))
    return {"attempted": len(oks), "failed": oks.count(False), "metrics": metrics}


# -- service workload ------------------------------------------------------------


class Server:
    """A ``launch_server.py`` child: started, announced, stopped."""

    def __init__(self, cache_dir: Path, trace_out: Optional[Path] = None):
        command = [sys.executable, str(HERE / "launch_server.py"), str(cache_dir)]
        if trace_out is not None:
            command.append(str(trace_out))
        env = dict(os.environ, PYTHONHASHSEED=TIMING_HASHSEED)
        self.started = perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def healthy(self) -> float:
        """Seconds from spawn until ``/healthz`` answered 200."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        finally:
            connection.close()
        return perf_counter() - self.started

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Request:
    """One request body with what its answer must be."""

    def __init__(self, path: str, body: bytes, goal: str, expect: Optional[str], first=None):
        self.path, self.body, self.goal, self.expect = path, body, goal, expect
        #: the earlier request this one repeats byte for byte (must hit)
        self.first = first
        self.latency = 0.0
        self.status = 0
        self.answer: Optional[dict] = None


class Traffic:
    """One connection's seeded request stream, in rounds.

    Each round holds one ``/check`` per checked function (its correct form
    or its mutant, by seeded choice), ``/synth`` for half of the service
    goals (alternate rounds take the other half), and
    :data:`REPEATS_PER_ROUND` byte-identical repeats of earlier bodies, in
    seeded order: every run sends the same mix, only its order varies.
    """

    def __init__(self, seed: int, connection: int, tag: str) -> None:
        self.rng = random.Random(f"{seed}-{connection}-{tag}")
        self.tag = f"{tag}{seed}c{connection}"
        self.fresh: List[Request] = []
        self.checks = goals.check_cases()
        self.expected = oracle.expected_verdicts()
        self.functions = sorted({goals.check_function(case) for case in self.checks})
        self.pending: List[str] = []
        self.rounds = 0
        self.count = 0

    def _round(self) -> List[str]:
        slots = ["check:" + f for f in self.functions]
        half = goals.SERVICE_SYNTH[self.rounds % 2 :: 2]
        slots += ["synth:" + goal.name for goal in half]
        self.rounds += 1
        slots += ["repeat"] * REPEATS_PER_ROUND
        self.rng.shuffle(slots)
        while not self.fresh and slots[0] == "repeat":
            self.rng.shuffle(slots)
        return slots

    def next(self) -> Request:
        if not self.pending:
            self.pending = self._round()
        slot = self.pending.pop(0)
        self.count += 1
        if slot == "repeat":
            first = self.rng.choice(self.fresh)
            return Request(first.path, first.body, first.goal, first.expect, first)
        kind, _, name = slot.partition(":")
        suffix = f"_{self.tag}n{self.count}"
        if kind == "check":
            case = self.rng.choice([c for c in self.checks if goals.check_function(c) == name])
            source = _rename(self.checks[case], name, name + suffix)
            request = Request("/check", json.dumps({"program": source}).encode(),
                              name, self.expected[case])
        else:
            goal = next(g for g in goals.SERVICE_SYNTH if g.name == name)
            body = {"program": _rename(goal.source(), name, name + suffix),
                    "only": name + suffix, "depth": goal.depth}
            request = Request("/synth", json.dumps(body).encode(), name, None)
        self.fresh.append(request)
        return request


def _rename(source: str, old: str, new: str) -> str:
    return re.sub(rf"(?<![\w']){re.escape(old)}(?![\w'])", new, source)


def drive(port: int, streams: List[List[Request]], until: Optional[float],
          traffic: Optional[List[Traffic]] = None) -> float:
    """Closed loop: one keep-alive connection per stream.  With ``until``
    each connection draws requests from its ``traffic`` until that time;
    otherwise it sends exactly its stream.  Returns the wall time."""

    def worker(index: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
        stream = streams[index]
        position = 0
        try:
            while True:
                if until is None:
                    if position == len(stream):
                        break
                    request = stream[position]
                    position += 1
                else:
                    if perf_counter() >= until:
                        break
                    request = traffic[index].next()
                    stream.append(request)
                start = perf_counter()
                try:
                    connection.request("POST", request.path, body=request.body,
                                       headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    data = response.read()
                    request.status = response.status
                    request.answer = json.loads(data)
                except (OSError, http.client.HTTPException, ValueError):
                    request.status = -1
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=HTTP_TIMEOUT_S
                    )
                request.latency = perf_counter() - start
        finally:
            connection.close()

    start = perf_counter()
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return perf_counter() - start


class ServiceChecker:
    """Judges service answers against the oracle and the repeat contract."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.counters = Counters()

    def correct(self, request: Request) -> bool:
        if request.status != 200 or request.answer is None:
            return False
        answer = request.answer
        if answer.get("cached") != (request.first is not None):
            return False
        if request.first is not None:
            return request.first.answer is not None and (
                answer.get("result") == request.first.answer.get("result")
            )
        items = answer["result"]["items"]
        if request.path == "/check":
            return len(items) == 1 and items[0]["status"] == request.expect
        item = items[0]
        if not (item["solved"] and item["verified"]):
            return False
        stats = item["statistics"]
        self.counters.record(
            request.goal,
            {name: stats[name] for name in goals.ENUMERATION_COUNTERS},
            "service repeat",
        )
        return oracle.program_meets_spec(request.goal, item["program"], self.seed)


def service_workload(args, workdir: Path) -> dict:
    samples = []
    for index in range(SETUP_SAMPLES):
        server = Server(workdir / f"boot{index}")
        try:
            samples.append(server.healthy())
        finally:
            server.stop()
    checker = ServiceChecker(args.seed)

    oks: List[bool] = []

    def start(tag: str, trace_out: Optional[Path] = None) -> Tuple[Server, List[Request]]:
        """A fresh server with an empty cache, after its warm-up requests
        (returned, judged)."""
        server = Server(workdir / f"cache-{tag}", trace_out)
        try:
            server.healthy()
            warm = [Traffic(args.seed, c, "w") for c in range(CONNECTIONS)]
            streams = [[warm[c].next() for _ in range(WARMUP_REQUESTS)] for c in range(CONNECTIONS)]
            drive(server.port, streams, None)
        except BaseException:
            server.stop()
            raise
        warm_requests = [r for stream in streams for r in stream]
        oks.extend(checker.correct(r) for r in warm_requests)
        return server, warm_requests

    traffic = [Traffic(args.seed, c, "q") for c in range(CONNECTIONS)]
    streams: List[List[Request]] = [[] for _ in range(CONNECTIONS)]
    budget = args.seconds * TRACE_SHARE if args.trace else args.seconds
    server, _ = start("timed")
    try:
        wall = drive(server.port, streams, perf_counter() + budget, traffic)
        stats = server.get("/stats")
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    requests = [r for stream in streams for r in stream]
    timed_oks = [checker.correct(r) for r in requests]
    oks += timed_oks
    metrics: Dict[str, dict] = {}
    if args.trace:
        replay = [
            [Request(r.path, r.body, r.goal, r.expect) for r in stream] for stream in streams
        ]
        _relink(streams, replay)
        trace_out = workdir / "trace.json"
        server, warm_requests = start("traced", trace_out)
        try:
            traced = drive(server.port, replay, None)
            stats = server.get("/stats")
        finally:
            server.stop()
        traced_requests = [r for stream in replay for r in stream]
        oks += [checker.correct(r) for r in traced_requests]
        # The traced server's spans, counters and /stats also cover its
        # warm-up, so every figure here is taken over the warm-up requests
        # plus the replayed ones; only the overhead compares the replay
        # with the untraced pass it repeats.
        served = warm_requests + traced_requests
        dump = json.loads(trace_out.read_text())
        metrics = layer_tracer.layer_metrics(dump["spans"], dump["counters"], len(served))
        cache = stats["cache"]
        handled = dump["spans"].get("service.handle", {}).get("busy_s", 0.0)
        client = sum(r.latency for r in served)
        metrics.update(
            {
                "service.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
                "service.transport_ms": (client - handled) * 1000.0 / len(served),
                "trace.overhead_ms": (traced - wall) * 1000.0 / len(traced_requests),
            }
        )
        print(f"service-mixed: traced {len(served)} requests ({len(warm_requests)} warm-up); "
              f"untraced {wall:.2f} s, traced {traced:.2f} s")
    else:
        latencies = [r.latency for r in requests]
        hits = [r.latency for r in requests if r.first is not None]
        print(
            f"service-mixed: {len(requests)} requests ({len(hits)} repeats) in {wall:.2f} s; "
            f"{len(samples)} set-up samples; cache {stats['cache']}"
        )
        metrics = {
            "setup_s": metric(statistics.median(samples), "s"),
            "queries_per_s": metric(timed_oks.count(True) / wall, "1/s"),
            "latency_p50_ms": metric(median_ms(latencies), "ms"),
            "latency_p90_ms": metric(p90_ms(latencies), "ms"),
            "latency_hit_p50_ms": metric(median_ms(hits), "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    return {"attempted": len(oks), "failed": oks.count(False), "metrics": metrics}


def _relink(old: List[List[Request]], new: List[List[Request]]) -> None:
    """Point each replayed repeat at the replayed copy of its original."""
    for old_stream, new_stream in zip(old, new):
        position = {id(r): i for i, r in enumerate(old_stream)}
        for old_request, new_request in zip(old_stream, new_stream):
            if old_request.first is not None:
                new_request.first = new_stream[position[id(old_request.first)]]


# -- entry point -----------------------------------------------------------------

WORKLOADS = {
    "synth-corpus": in_process_workload,
    "synth-deep": in_process_workload,
    "service-mixed": service_workload,
}


def per_layer_units(metrics: Dict[str, float]) -> Dict[str, dict]:
    units = {}
    for name, value in metrics.items():
        if name.endswith("_ms"):
            unit = "ms"
        elif name.endswith("_ratio"):
            unit = "ratio"
        else:
            unit = "count"
        units[name] = metric(value, unit)
    return units


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != TIMING_HASHSEED:
        env = dict(os.environ, PYTHONHASHSEED=TIMING_HASHSEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Byte-compile first, so no sample pays for it on a fresh checkout.
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(str(directory), quiet=1)
    workdir = ROOT / ".synthbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        outcome = WORKLOADS[args.workload](args, workdir)
        correct = True
    except DeterminismError as error:
        print(f"error: search counters are not deterministic: {error}", file=sys.stderr)
        outcome = {"attempted": 1, "failed": 1, "metrics": {}}
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.trace:
        outcome["metrics"] = per_layer_units(outcome["metrics"])
    correct = correct and outcome["failed"] == 0
    print(json.dumps({"correct": correct, **outcome}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
