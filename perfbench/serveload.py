"""Closed-loop request streams against a real ``repro.serve`` daemon.

The daemon is a ``python -m repro.serve --listen 127.0.0.1:0`` child
with its default ``--workers`` and ``--max-inflight``.  One client,
in the benchmark's main thread, holds one TCP connection and sends its
next request only after the previous reply arrived.  A refusal
(OVERLOADED) is a failed request; nothing is retried.
"""

from __future__ import annotations

import json
import os
import queue
import re
import socket
import subprocess
import sys
import threading
import time
from itertools import count
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.dsl import parse_program
from repro.idempotency.labeling import label_region

#: Seconds a daemon may take to report its port and answer ``ping``.
SPAWN_TIMEOUT = 60.0
#: Seconds a client waits for one reply before counting it as dropped.
REPLY_TIMEOUT = 60.0
_PORT = re.compile(r"\blistening\b.*\bport=(\d+)")


class Record:
    """One request as the client saw it."""

    __slots__ = ("index", "request", "method", "sent", "latency_ms", "response")

    def __init__(self, index, request, sent, latency_ms, response):
        self.index = index
        self.request = request
        self.method = request["method"]
        self.sent = sent
        self.latency_ms = latency_ms
        self.response = response


class Connection:
    """One client connection speaking line-delimited JSON-RPC."""

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT)
        self._stream = self._sock.makefile("rwb")
        self._ids = count()

    def call(self, method: str, params: Optional[Dict] = None) -> Tuple[float, Optional[Dict]]:
        """(latency in ms from send to the full reply line, reply or None)."""
        line = json.dumps(
            {"jsonrpc": "2.0", "id": next(self._ids), "method": method, "params": params or {}}
        ).encode("utf-8") + b"\n"
        t0 = time.perf_counter()
        try:
            self._stream.write(line)
            self._stream.flush()
            raw = self._stream.readline()
        except OSError:
            raw = b""
        latency_ms = (time.perf_counter() - t0) * 1e3
        return latency_ms, json.loads(raw) if raw else None

    def close(self) -> None:
        for closeable in (self._stream, self._sock):
            try:
                closeable.close()
            except OSError:
                pass


class Daemon:
    """A ``repro.serve --listen`` child process."""

    def __init__(self, root: str):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0"],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        try:
            self.port = self._await_port(t0 + SPAWN_TIMEOUT)
            conn = Connection(self.port)
            try:
                _, reply = conn.call("ping")
            finally:
                conn.close()
            if not reply or reply.get("result", {}).get("pong") is not True:
                raise RuntimeError(f"daemon did not answer ping: {reply!r}")
        except BaseException:
            self.stop()
            raise
        #: Spawn until the first ``ping`` is answered.
        self.setup_s = time.perf_counter() - t0

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, deadline: float) -> int:
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("daemon did not report its port in time") from None
            if line is None:
                raise RuntimeError(f"daemon exited with code {self.proc.wait()}")
            match = _PORT.search(line)
            if match:
                return int(match.group(1))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for ``shutdown``; kill if the daemon does not exit."""
        if self.proc.poll() is None and getattr(self, "port", None):
            try:
                conn = Connection(self.port)
                conn.call("shutdown")
                conn.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stderr.close()


def peak_rss_mb(pid) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def spawn_measured(root: str, spawns: int) -> Tuple[Daemon, List[float]]:
    """Spawn the daemon ``spawns`` times; keep the last one running."""
    times = []
    for n in range(spawns):
        daemon = Daemon(root)
        times.append(daemon.setup_s)
        if n < spawns - 1:
            daemon.stop()
    return daemon, times


def closed_loop(
    port: int,
    stream: Iterator[Tuple[int, Dict]],
    seconds: float,
) -> Tuple[List[Record], float]:
    """Send ``(index, request)`` items of ``stream`` one at a time for
    ``seconds``.

    Returns the records and the measured window in seconds (start until
    the last reply).
    """
    records: List[Record] = []
    conn = Connection(port)
    start = time.perf_counter()
    deadline = start + seconds
    try:
        for index, req in stream:
            sent = time.perf_counter()
            if sent >= deadline:
                break
            latency_ms, reply = conn.call(req["method"], req["params"])
            records.append(Record(index, req, sent, latency_ms, reply))
            if reply is None:
                break
    finally:
        conn.close()
    end = max((r.sent + r.latency_ms / 1e3 for r in records), default=start)
    return records, end - start


# ----------------------------------------------------------------------
# reply checks
# ----------------------------------------------------------------------
def failure(method: str, reply: Optional[Dict]) -> Optional[str]:
    """Why a reply counts as a failed operation, or None."""
    if reply is None:
        return "connection dropped"
    if "error" in reply:
        return f"error {reply['error'].get('code')}: {reply['error'].get('message')}"
    result = reply.get("result", {})
    if method == "simulate" and (result.get("bit_identical") is not True or result.get("degraded")):
        return "simulate not bit-identical or degraded"
    if method == "speedup_sweep" and not all(
        side.get("bit_identical") is True for side in result.get("engines", {}).values()
    ):
        return "speedup_sweep not bit-identical"
    return None


def expected_labels(source: str) -> List[Dict]:
    """Labels of every region from a fresh in-process parse and labelling."""
    program = parse_program(source)
    out = []
    for region in program.regions:
        result = label_region(region, program=program)
        out.append(
            {
                "name": region.name,
                "fully_independent": result.fully_independent,
                "labels": {
                    ref.uid: {
                        "label": result.label_of(ref).value,
                        "category": result.category_of(ref).value,
                    }
                    for ref in region.references
                },
            }
        )
    return out


def label_mismatch(method: str, result: Dict, expected: List[Dict]) -> Optional[str]:
    """How an ``analyze``/``label`` result differs from ``expected``."""
    if method == "label":
        want = expected[0]
        if (result["labels"], result["fully_independent"]) != (
            want["labels"],
            want["fully_independent"],
        ):
            return f"label of {result['program']} differs from in-process labelling"
        return None
    got = [
        (
            r["name"],
            r["fully_independent"],
            r["references"],
            r["categories"],
            r["static_fraction_idempotent"],
        )
        for r in result["regions"]
    ]
    want_regions = []
    for region in expected:
        categories: Dict[str, int] = {}
        for entry in region["labels"].values():
            categories[entry["category"]] = categories.get(entry["category"], 0) + 1
        refs = len(region["labels"])
        idempotent = sum(e["label"] == "idempotent" for e in region["labels"].values())
        want_regions.append(
            (
                region["name"],
                region["fully_independent"],
                refs,
                categories,
                round(idempotent / refs, 4) if refs else 0.0,
            )
        )
    if got != want_regions:
        return f"analyze of {result['program']} differs from in-process labelling"
    return None
