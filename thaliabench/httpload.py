"""Served-path plumbing: the server child process and a keep-alive load
generator.

The generator is one thread driving at most two persistent HTTP/1.1
connections through ``selectors``.  It speaks just enough HTTP for the
service under test: every response carries ``Content-Length`` except a
304, which has no body.  :func:`closed_loop` keeps one request
outstanding per connection and sends the next only when the previous
answer is in.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

BOOT_TIMEOUT_S = 120.0
#: Bounded shutdown: client sockets are closed first, then the server
#: gets this long after SIGTERM before it is killed (a finding).
STOP_TIMEOUT_S = 10.0
IO_TIMEOUT_S = 30.0
#: The CPUs this process may use when it starts (see _pin_server).
_CPUS = sorted(os.sched_getaffinity(0))
#: The CPU the server is pinned to, or None on a single CPU.
SERVER_CPU = _CPUS[-1] if len(_CPUS) >= 2 else None


@dataclass(frozen=True)
class Req:
    """One generated request.  ``tag`` says how its answer is checked."""

    method: str
    path: str
    body: bytes = b""
    headers: tuple[tuple[str, str], ...] = ()
    tag: tuple = ()

    def wire(self) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.1",
                 "Host: 127.0.0.1"]
        lines.extend(f"{key}: {value}" for key, value in self.headers)
        if self.body or self.method == "POST":
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(self.body)}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + self.body


@dataclass
class Resp:
    status: int
    headers: dict[str, str]
    body: bytes


class HttpError(RuntimeError):
    """The connection broke or the server sent something unparseable."""


class Connection:
    """One keep-alive connection with an incremental response parser."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._buffer = bytearray()
        self._head: tuple[int, dict[str, str], int] | None = None

    def send(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            try:
                sent = self.sock.send(view)
            except BlockingIOError:
                _wait_writable(self.sock)
                continue
            view = view[sent:]

    def feed(self) -> Resp | None:
        """Read what is available; the completed response, if any."""
        try:
            chunk = self.sock.recv(1 << 18)
        except BlockingIOError:
            return None
        if not chunk:
            raise HttpError("server closed the connection")
        self._buffer += chunk
        return self._parse()

    def _parse(self) -> Resp | None:
        if self._head is None:
            end = self._buffer.find(b"\r\n\r\n")
            if end < 0:
                return None
            lines = bytes(self._buffer[:end]).decode("latin-1").split("\r\n")
            parts = lines[0].split(" ", 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise HttpError(f"bad status line {lines[0]!r}")
            headers = {}
            for line in lines[1:]:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
            status = int(parts[1])
            length = 0 if status == 304 \
                else int(headers.get("content-length", "0"))
            del self._buffer[:end + 4]
            self._head = (status, headers, length)
        status, headers, length = self._head
        if len(self._buffer) < length:
            return None
        body = bytes(self._buffer[:length])
        del self._buffer[:length]
        self._head = None
        return Resp(status, headers, body)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _wait_writable(sock: socket.socket) -> None:
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_WRITE)
        if not selector.select(IO_TIMEOUT_S):
            raise HttpError("send timed out")


def request(port: int, req: Req) -> Resp:
    """One request on a fresh connection (set-up and checks, not timed)."""
    conn = Connection(port)
    try:
        conn.send(req.wire())
        deadline = time.monotonic() + IO_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(conn.sock, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if selector.select(1.0):
                    resp = conn.feed()
                    if resp is not None:
                        return resp
        raise HttpError(f"no answer to {req.method} {req.path}")
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Load loops
# --------------------------------------------------------------------------- #

@dataclass
class Sample:
    """One completed request: what was sent, when, and what came back."""

    index: int
    req: Req
    latency_s: float
    resp: Resp
    in_window: bool


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    window_s: float = 0.0
    client_cpu_s: float = 0.0

    @property
    def timed(self) -> list[Sample]:
        return [sample for sample in self.samples if sample.in_window]


def closed_loop(conns: list[Connection], requests: Iterator[Req],
                seconds: float,
                on_response: Callable[[Sample], list[Req] | None]
                | None = None,
                on_send: Callable[[int, Req], None] | None = None,
                first_index: int = 0) -> LoadResult:
    """Each connection sends its next request when its answer arrives.

    Requests are drawn from *requests* in order, so the stream the
    server sees is the generated stream whatever the timing.
    *on_response* may return requests that the same connection sends
    next, before drawing again (a visitor who reads the honor roll
    right after an upload); they are sent even after the window closes.
    Requests in flight when the window closes are finished and kept,
    but marked outside the window.  Requests are numbered from
    *first_index*, so consecutive windows number them apart.
    """
    result = LoadResult()
    selector = selectors.DefaultSelector()
    pending: dict[int, tuple[int, Req, float]] = {}
    follow: list[deque[Req]] = [deque() for _ in conns]
    counter = first_index
    cpu0 = time.process_time()
    start = time.perf_counter()
    end = start + seconds

    def send(slot: int) -> None:
        nonlocal counter
        req = follow[slot].popleft() if follow[slot] else next(requests)
        pending[slot] = (counter, req, time.perf_counter())
        if on_send is not None:
            on_send(counter, req)
        counter += 1
        conns[slot].send(req.wire())

    try:
        for slot, conn in enumerate(conns):
            selector.register(conn.sock, selectors.EVENT_READ, slot)
            send(slot)
        while pending:
            events = selector.select(IO_TIMEOUT_S)
            if not events:
                raise HttpError("closed loop: no answer within timeout")
            for key, _ in events:
                slot = key.data
                resp = conns[slot].feed()
                if resp is None:
                    continue
                now = time.perf_counter()
                index, req, sent = pending.pop(slot)
                sample = Sample(index, req, now - sent, resp, sent < end)
                result.samples.append(sample)
                if on_response is not None:
                    follow[slot].extend(on_response(sample) or ())
                if now < end or follow[slot]:
                    send(slot)
    finally:
        selector.close()
    result.window_s = seconds
    result.client_cpu_s = time.process_time() - cpu0
    return result


# --------------------------------------------------------------------------- #
# The server child process
# --------------------------------------------------------------------------- #

@dataclass
class Server:
    process: subprocess.Popen
    port: int
    setup_s: float
    log_path: Path

    def proc_cpu_s(self) -> float:
        """utime + stime of the server so far, from ``/proc``."""
        return proc_cpu_s(self.process.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)


def proc_cpu_s(pid: int) -> float:
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def peak_rss_mb(pid: int | str = "self") -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def boot_server(root: Path, scale: int, scores: Path, log_path: Path,
                launcher: list[str] | None = None) -> Server:
    """Spawn ``repro.cli --scale N --no-cache serve --port 0`` and wait
    until ``/healthz`` answers 200; ``setup_s`` is spawn → healthy.

    *launcher* replaces ``-m repro.cli`` (the traced run's wrapper,
    which takes the same CLI arguments).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    entry = launcher if launcher is not None else ["-m", "repro.cli"]
    argv = [sys.executable, *entry, "--scale", str(scale), "--no-cache",
            "serve", "--port", "0", "--scores", str(scores)]
    log = open(log_path, "wb")
    started = time.perf_counter()
    process = subprocess.Popen(argv, cwd=root, env=env,
                               preexec_fn=_pin_server(),
                               stdout=subprocess.PIPE, stderr=log)
    log.close()
    try:
        port = _read_port(process)
        deadline = started + BOOT_TIMEOUT_S
        while True:
            if process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {process.returncode} during "
                    f"boot (log: {log_path})")
            try:
                if request(port, Req("GET", "/healthz")).status == 200:
                    break
            except (OSError, HttpError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.005)
    except BaseException:
        _kill(process)
        raise
    return Server(process, port, time.perf_counter() - started, log_path)


def _pin_server():
    """With two or more CPUs, keep the server on the last one and this
    process on the others, so neither preempts the other and the server
    never migrates.  On two vCPUs it narrowed every site-mix spread a
    little (thaliabench/STEADINESS.md).  Returns the child's pre-exec
    hook, or ``None`` on a single CPU."""
    if SERVER_CPU is None:
        return None
    os.sched_setaffinity(0, set(_CPUS[:-1]))
    return lambda: os.sched_setaffinity(0, {SERVER_CPU})


def _read_port(process: subprocess.Popen) -> int:
    """The port from the CLI's ``serving ... on http://host:port`` line."""
    assert process.stdout is not None
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        if not selector.select(BOOT_TIMEOUT_S):
            raise RuntimeError("server printed no address")
    line = process.stdout.readline().decode("utf-8", "replace")
    marker = "http://"
    if marker not in line:
        raise RuntimeError(f"unexpected server banner {line!r}")
    address = line.split(marker, 1)[1].split()[0]
    return int(address.rsplit(":", 1)[1])


def stop_server(server: Server, conns: list[Connection]) -> bool:
    """Close every client socket, SIGTERM, wait a bounded time.

    Returns ``True`` for a clean exit; ``False`` when the server had to
    be killed, which the caller records as a failed run.
    """
    for conn in conns:
        conn.close()
    process = server.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=STOP_TIMEOUT_S)
        clean = process.returncode == 0
    except subprocess.TimeoutExpired:
        _kill(process)
        clean = False
    if process.stdout is not None:
        process.stdout.close()
    return clean


def _kill(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait(timeout=STOP_TIMEOUT_S)
    if process.stdout is not None:
        process.stdout.close()
