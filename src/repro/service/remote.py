"""Remote workers: the framed TCP protocol of DESIGN.md §13.

Any machine can join a running job: the submitting process arms a
:class:`RemoteDispatcher` (``Job.listen``), a joining machine runs
``python -m repro worker serve --connect HOST:PORT``, and from then on
the worker receives exactly the ``(index, point)`` task shape the local
pool uses -- the :class:`~repro.service.queue.WorkQueue` cannot tell the
difference, which is what keeps records byte-identical to a local-only
run.

Framing: every message is one ``pickle`` payload behind a 4-byte
big-endian length prefix (:func:`send_frame` / :func:`recv_frame`).  EOF
at a frame boundary is a clean close (``recv_frame`` returns ``None``);
EOF mid-frame raises :class:`ConnectionError` -- a torn frame is never
delivered.

Handshake (worker connects)::

    worker  -> {"type": "hello", "protocol", "code_version"}
    dispatcher
            -> {"type": "reject", "reason", "job_id"}       # stale worker
            -> {"type": "welcome", "job_id", "runner", "payload",
                "code_version"}
    worker  -> {"type": "ready"}

The welcome carries the job's spec fingerprint (the content-addressed
job id) and the dispatcher's code version; a worker built from different
code is rejected *deterministically* -- before it can run a single
point -- because records from mismatched code would not be comparable.

Task loop (dispatcher holds at most one task in flight per worker)::

    dispatcher -> ("task", index, point)
    worker     -> ("done", index, record, source)
               |  ("task_error", index, exc)
    dispatcher -> ("stop", final)                              # job over

Workers never touch the result cache: the dispatcher's
:class:`~repro.service.job.Job` probes it before dispatch and puts each
record a worker returns.

Failure matrix: a **version/protocol mismatch** is rejected at the
handshake (the worker exits with a reason); a **worker death** surfaces
on the dispatcher as EOF -> a ``("dead", wid, None)`` result -> the
queue reissues the in-flight point to another worker; a **dispatcher
death** surfaces on the worker as EOF/refused-connection -> it retries
for ``--retry`` seconds, then exits; a ``("stop", True)`` means the job
completed and the worker exits cleanly.
"""

from __future__ import annotations

import pickle
import queue as _queue
import socket
import threading
import time
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.version import __version__

__all__ = [
    "HandshakeRejected",
    "RemoteDispatcher",
    "RemoteEndpoint",
    "recv_frame",
    "send_frame",
    "serve_worker",
]

#: Wire-protocol revision; bumped on any frame-shape change.
PROTOCOL_VERSION = 2
#: Hard cap on one frame (a record or a pickled working set).
MAX_FRAME = 256 * 1024 * 1024
#: Handshake must complete within this many seconds.
HANDSHAKE_TIMEOUT_S = 10.0


class HandshakeRejected(ConnectionError):
    """The dispatcher turned this worker away (code/protocol skew)."""


# ----------------------------------------------------------------- framing
def send_frame(sock: socket.socket, obj: Any) -> None:
    """Send one length-prefixed pickled message."""
    blob = pickle.dumps(obj)
    if len(blob) > MAX_FRAME:
        raise ValueError(f"frame of {len(blob)} bytes exceeds {MAX_FRAME}")
    sock.sendall(len(blob).to_bytes(4, "big") + blob)


def recv_frame(sock: socket.socket) -> Any:
    """Receive one message; ``None`` on a clean close.

    The protocol never sends a bare ``None``, so the sentinel is
    unambiguous.  EOF inside a frame raises :class:`ConnectionError`.
    """
    header = _recv_exact(sock, 4, eof_ok=True)
    if header is None:
        return None
    size = int.from_bytes(header, "big")
    if size > MAX_FRAME:
        raise ConnectionError(f"peer announced a {size}-byte frame "
                              f"(cap: {MAX_FRAME})")
    return pickle.loads(_recv_exact(sock, size, eof_ok=False))


def _recv_exact(sock: socket.socket, n: int,
                eof_ok: bool) -> Optional[bytes]:
    chunks: List[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if eof_ok and not chunks:
                return None
            raise ConnectionError(
                f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _parse_hostport(address: Union[str, Tuple[str, int], int],
                    default_host: str) -> Tuple[str, int]:
    if isinstance(address, int):
        return default_host, address
    if isinstance(address, tuple):
        return address[0] or default_host, int(address[1])
    host, _, port = str(address).rpartition(":")
    return host or default_host, int(port)


# -------------------------------------------------------------- dispatcher
class RemoteDispatcher:
    """Accepts remote workers for one job; one endpoint per worker.

    The accept thread performs the handshake and parks handshaken
    connections; :meth:`take_endpoints` (called by the queue's dispatch
    loop) adopts them, so a worker can join -- or rejoin -- at any
    moment of the run.
    """

    def __init__(self, host: str = "0.0.0.0", port: int = 0, *,
                 job_id: str, runner_name: str, payload: bytes):
        self.job_id = job_id
        self.runner_name = runner_name
        self.payload = payload
        self._sock = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._ready: _queue.SimpleQueue = _queue.SimpleQueue()
        self._endpoints: List["RemoteEndpoint"] = []
        self._closed = False
        self._accepter = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"repro-accept-{job_id}")
        self._accepter.start()

    # ------------------------------------------------------------- accepting
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listener closed
            try:
                conn.settimeout(HANDSHAKE_TIMEOUT_S)
                if self._handshake(conn):
                    conn.settimeout(None)
                    self._ready.put(conn)
                else:
                    conn.close()
            except (OSError, ConnectionError, EOFError,
                    pickle.PickleError):
                # A half-open or garbage client must not take the
                # listener down; keep accepting.
                try:
                    conn.close()
                except OSError:
                    pass

    def _handshake(self, conn: socket.socket) -> bool:
        hello = recv_frame(conn)
        if not isinstance(hello, dict) or hello.get("type") != "hello":
            return False
        reason = None
        if hello.get("protocol") != PROTOCOL_VERSION:
            reason = (f"protocol {hello.get('protocol')!r} != "
                      f"{PROTOCOL_VERSION}")
        elif hello.get("code_version") != __version__:
            reason = (f"code version {hello.get('code_version')!r} != "
                      f"{__version__!r}: records would not be comparable")
        if reason is not None:
            send_frame(conn, {"type": "reject", "reason": reason,
                              "job_id": self.job_id})
            return False
        send_frame(conn, {"type": "welcome", "job_id": self.job_id,
                          "runner": self.runner_name,
                          "payload": self.payload,
                          "code_version": __version__})
        ready = recv_frame(conn)
        return isinstance(ready, dict) and ready.get("type") == "ready"

    # -------------------------------------------------------------- adoption
    def take_endpoints(self, results: "_queue.Queue",
                       alloc_wid: Callable[[], int]
                       ) -> List["RemoteEndpoint"]:
        """Adopt every worker that handshook since the last call."""
        out: List[RemoteEndpoint] = []
        while True:
            try:
                conn = self._ready.get_nowait()
            except _queue.Empty:
                return out
            ep = RemoteEndpoint(alloc_wid(), conn, results)
            self._endpoints.append(ep)
            out.append(ep)

    def close(self, final: bool = True) -> None:
        """Stop accepting and release every worker.

        ``final=True`` tells workers the job is over (they exit);
        ``final=False`` lets them reconnect-retry (e.g. a resume is
        coming).
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        for ep in self._endpoints:
            ep.shutdown(final=final)


class RemoteEndpoint:
    """Dispatcher-side handle of one connected worker (capacity 1).

    A reader thread turns the worker's frames into the queue's unified
    result shape -- ``("done", wid, (index, record, source))``,
    ``("err", wid, (index, exc))`` -- and reports EOF as
    ``("dead", wid, None)`` so the in-flight point can be reissued.
    """

    kind = "remote"
    capacity = 1

    def __init__(self, wid: int, conn: socket.socket,
                 results: "_queue.Queue"):
        self.wid = wid
        self._conn = conn
        self._results = results
        self._send_lock = threading.Lock()
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"repro-remote-{wid}")
        self._reader.start()

    def alive(self) -> bool:
        return not self._closed

    def send_task(self, index: int, point: dict) -> None:
        self._send(("task", index, point))

    def _send(self, msg: Any) -> None:
        with self._send_lock:
            send_frame(self._conn, msg)

    def _read_loop(self) -> None:
        try:
            while True:
                msg = recv_frame(self._conn)
                if msg is None:
                    return
                kind = msg[0]
                if kind == "done":
                    self._results.put(("done", self.wid,
                                       (msg[1], msg[2], msg[3])))
                elif kind == "task_error":
                    self._results.put(("err", self.wid, (msg[1], msg[2])))
                # Unknown frames are ignored: forward compatibility.
        except (OSError, ConnectionError, EOFError, pickle.PickleError):
            pass
        finally:
            self._closed = True
            self._results.put(("dead", self.wid, None))

    def shutdown(self, final: bool = True) -> None:
        """Release the worker and close the connection."""
        self._closed = True
        try:
            self._send(("stop", final))
        except (OSError, ConnectionError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass


# ------------------------------------------------------------------ worker
def serve_worker(connect: Union[str, Tuple[str, int]], *,
                 store: Any = None, retry_s: float = 30.0,
                 once: bool = False,
                 log: Callable[[str], None] = None) -> int:
    """Join jobs dispatched at ``connect`` until the work dries up.

    Connects, handshakes, builds the runner working set from the
    welcome's payload (or from ``store`` when the job's spec is visible
    on a shared filesystem), then serves ``(index, point)`` tasks one at
    a time.

    Returns a process exit code: 0 after a final stop (job complete) --
    or, with ``once``, after serving one job; 1 when no dispatcher
    answered for ``retry_s`` seconds; 2 when the dispatcher rejected the
    handshake (stale worker -- deterministic, before any point ran).
    """
    from repro.service.store import _maybe_store

    if log is None:
        log = lambda line: print(line, flush=True)  # noqa: E731
    host, port = _parse_hostport(connect, default_host="127.0.0.1")
    store = _maybe_store(store)
    waited = 0.0
    while True:
        try:
            sock = socket.create_connection((host, port),
                                            timeout=HANDSHAKE_TIMEOUT_S)
        except OSError:
            if waited >= retry_s:
                log(f"worker giving up: no dispatcher at {host}:{port} "
                    f"after {retry_s:.0f}s")
                return 1
            time.sleep(0.5)
            waited += 0.5
            continue
        waited = 0.0
        try:
            final = _serve_one(sock, store, log)
        except HandshakeRejected as why:
            log(f"worker rejected: {why}")
            return 2
        except (OSError, ConnectionError, EOFError, pickle.PickleError):
            final = False  # dispatcher vanished mid-job; retry
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if final or once:
            return 0


def _serve_one(sock: socket.socket, store: Any,
               log: Callable[[str], None]) -> bool:
    """One connection's lifetime; returns True on a final stop."""
    from repro.service.runners import _portable_error, get_runner

    send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                      "code_version": __version__})
    resp = recv_frame(sock)
    if not isinstance(resp, dict):
        raise ConnectionError("no handshake response")
    if resp.get("type") == "reject":
        raise HandshakeRejected(resp.get("reason", "unspecified"))
    if resp.get("type") != "welcome":
        raise ConnectionError(f"unexpected handshake frame: {resp!r}")

    job_id = resp["job_id"]
    payload = resp["payload"]
    if store is not None:
        # Shared-filesystem deployments: the journaled spec's payload is
        # authoritative (and saves shipping it over the wire next time).
        try:
            payload = store.load(job_id).payload or payload
        except KeyError:
            pass
    runner = get_runner(resp["runner"])
    state = runner.init(payload)
    send_frame(sock, {"type": "ready"})
    sock.settimeout(None)
    log(f"worker serving job {job_id}")

    while True:
        msg = recv_frame(sock)
        if msg is None:
            return False
        kind = msg[0]
        if kind == "stop":
            final = bool(msg[1]) if len(msg) > 1 else True
            log(f"worker released from job {job_id}"
                + (" (job complete)" if final else ""))
            return final
        if kind != "task":
            continue
        index, point = msg[1], msg[2]
        try:
            record, source = runner.run(state, index, point)
        except BaseException as exc:
            send_frame(sock, ("task_error", index, _portable_error(exc)))
        else:
            send_frame(sock, ("done", index, record, source))
            log(f"point {index} done ({source})")
