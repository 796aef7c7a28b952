"""Pre-fork, shared-nothing worker pool behind one listening port.

One supervisor process owns the TCP port and N forked workers each own a
full serving stack — :class:`~repro.serving.server.PredictionService`,
micro-batcher, flight recorder, trace buffer — with **nothing shared**
between them but the listener.  That buys true multi-core scaling for a
GIL-bound server without any cross-process locks: the kernel does the
load balancing, and a worker that dies takes only its own in-flight
requests with it.

Two listener strategies, picked automatically:

* **SO_REUSEPORT** (Linux, modern BSD): the supervisor binds the port
  *without listening* — a pure port reservation — and every worker binds
  its own ``SO_REUSEPORT`` listener to the resolved port.  The kernel
  hashes connections across the listening sockets, so load spreads
  evenly and a dead worker's backlog dies with it instead of stranding
  connections nobody will accept.
* **bind-then-fork** (everywhere else): the supervisor binds *and*
  listens, puts the listener in non-blocking mode, and the workers
  inherit it across ``fork`` — classic pre-fork accept sharing.  The
  non-blocking listener keeps the thundering herd harmless: a worker
  that loses the accept race gets ``EAGAIN`` and goes back to waiting.

The supervisor is deliberately boring: it forks, reaps, respawns dead
workers with per-slot exponential backoff, forwards ``SIGTERM``/
``SIGINT``, and publishes pool state to ``pool.json``.  It never touches
a model, numpy, or a request — everything interesting happens in the
workers, so supervisor uptime is decoupled from serving bugs.

Cross-worker observability rides a per-worker **unix-socket side
channel** (``worker-<slot>.sock`` next to ``pool.json``): any worker
answering ``GET /metrics`` scrapes its peers over the side channel and
merges the expositions with
:func:`~repro.serving.metrics.merge_expositions` — counters summed,
gauges labelled ``worker="<slot>"`` — plus ``repro_pool_*`` families for
the pool itself.  ``GET /healthz`` likewise reports supervisor-published
pool state alongside the answering worker's own liveness.

Canary promotion needs no pool plumbing at all: each worker's registry
re-stats the model manifest on every request, so a tag move published by
``repro promote`` (or the adaptation controller) is visible on every
worker within one manifest ``stat``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
import urllib.parse
from operator import itemgetter

from .metrics import FamilySpec, merge_expositions, render_families
from .registry import ModelRegistry
from .server import _Handler, PredictionServer, build_service

__all__ = ["POOL_FAMILIES", "ServingPool"]


#: a worker that dies this soon after spawning is "crash looping" for
#: backoff purposes; one that served longer resets its slot's backoff
_FAST_FAIL_WINDOW = 5.0

#: side-channel request/response deadline — scrapes are small and local,
#: so anything slower than this means the peer is wedged, not busy
_SIDE_CHANNEL_TIMEOUT = 2.0

#: longest side-channel command line a worker reads — far above any
#: session blob (a window-1024 x 8-channel ring is ~90 KB), yet bounded
_SIDE_CHANNEL_MAX_REQUEST = 16 * 1024 * 1024

#: the pool's own families, rendered after the merged worker expositions:
#: ``pool`` carries one unlabelled entry, ``slot`` one per worker slot
POOL_FAMILIES = tuple(FamilySpec(*row) for row in (
    ("repro_pool_workers", "gauge",
     "Worker processes the pool is configured to run.", "pool",
     itemgetter("workers")),
    ("repro_pool_workers_alive", "gauge",
     "Workers currently alive per the supervisor.", "pool",
     itemgetter("alive")),
    ("repro_pool_worker_up", "gauge",
     "Whether each worker slot answered the metrics scrape.", "slot", int),
    ("repro_pool_respawns_total", "counter",
     "Worker processes respawned after dying.", "pool",
     itemgetter("respawns")),
))


def _atomic_write_json(path: str, payload: dict) -> None:
    """Write *payload* as JSON via rename so readers never see a torn file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=0, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _scrape(sock_path: str, command: dict,
            timeout: float = _SIDE_CHANNEL_TIMEOUT) -> bytes:
    """One side-channel round trip: send a JSON command line, read the
    full response (the peer half-closes after writing)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.settimeout(timeout)
        client.connect(sock_path)
        client.sendall(json.dumps(command).encode() + b"\n")
        client.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = client.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


class _SideChannel:
    """Per-worker unix-socket command server for peer scrapes.

    Protocol: one JSON command line per connection —
    ``{"cmd": "metrics"}`` answers the worker's raw exposition text,
    ``{"cmd": "session_put", "blob": ...}`` adopts a peer's replicated
    session blob, and ``{"cmd": "session_take", "id": ..., "token": ...}``
    hands a held blob over to a resuming peer.  The command is read up
    to its newline, however long (bounded by
    ``_SIDE_CHANNEL_MAX_REQUEST``).  The responder half-closes after
    writing, which is the client's end-of-response signal.  A request it
    cannot read or answer is counted in
    ``repro_session_side_channel_errors_total``.
    """

    def __init__(self, path: str, service, slot: int):
        self.path = path
        self.service = service
        self.slot = slot
        self._closed = False
        try:
            os.unlink(path)  # a previous occupant of this slot
        except FileNotFoundError:
            pass
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(8)
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"side-channel-{slot}", daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # closed under us: shutdown
            threading.Thread(target=self._serve_one, args=(conn,),
                             daemon=True).start()

    def _serve_one(self, conn) -> None:
        try:
            with conn:
                conn.settimeout(_SIDE_CHANNEL_TIMEOUT)
                with conn.makefile("rb") as reader:
                    request = reader.readline(_SIDE_CHANNEL_MAX_REQUEST)
                command = json.loads(request.decode() or "{}")
                if not isinstance(command, dict):
                    raise ValueError(f"not a command object: {command!r}")
                conn.sendall(self._respond(command))
        except (OSError, ValueError):
            # Torn or malformed: the peer's own call fails or times out,
            # and a lost session_put or session_take shows here.
            self.service.sessions.side_channel_errors.inc()

    def _respond(self, command: dict) -> bytes:
        verb = command.get("cmd")
        if verb == "metrics":
            return self.service.metrics_text().encode()
        if verb == "session_put":
            # A peer replicating a session blob to us for durability.
            try:
                ok = self.service.sessions.adopt(command.get("blob") or {})
            except Exception:  # noqa: BLE001 - a bad blob must not kill us
                ok = False
            return json.dumps({"ok": bool(ok)}).encode()
        if verb == "session_take":
            # A peer resuming a stream whose session lives here: hand the
            # blob over (removed locally, so exactly one worker owns it).
            try:
                blob = self.service.sessions.take(
                    str(command.get("id") or ""),
                    int(command.get("token") or 0))
            except Exception:  # noqa: BLE001 - answer, never wedge a resume
                blob = None
            return json.dumps({"blob": blob}).encode()
        return json.dumps({"error": f"unknown command {verb!r}"}).encode()

    def close(self) -> None:
        """Stop accepting and remove the socket file."""
        self._closed = True
        try:
            self._sock.close()
        finally:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass


def _build_pool_session_store(pool_dir: str, slot: int, workers: int):
    """A worker's :class:`~repro.streaming.session.SessionStore` whose
    durability hooks ride the pool's unix-socket side channel.

    Every session save replicates the blob to one deterministic peer —
    the rendezvous hash of the stream id over the *other* worker slots —
    so when this worker dies mid-stream, exactly one survivor holds the
    state.  A resume landing on any worker that lacks the session asks
    the rendezvous peer first (then the rest), adopting and removing the
    blob from whoever answers, so exactly one worker serves the resumed
    stream.  Both directions are best-effort: a dead peer fails the
    scrape, and the client's retry loop covers the respawn window.  A
    replication the peer does not acknowledge with ``{"ok": true}`` —
    peer down or respawning, or a stale copy the peer's
    :meth:`SessionStore.adopt` refused — is counted in
    ``repro_session_replication_failures_total``, and every peer a
    resume fetch fails on in ``repro_session_fetch_failures_total``.
    """
    from ..streaming.session import SessionStore, rendezvous_slot

    peers = [s for s in range(int(workers)) if s != int(slot)]

    class _PoolSessionStore(SessionStore):
        """Session store with side-channel replication (one per worker)."""

        def _peer_sock(self, peer: int) -> str:
            return os.path.join(pool_dir, f"worker-{peer}.sock")

        def _replicate(self, session) -> None:
            if not peers:
                return
            peer = rendezvous_slot(session.id, peers)
            try:
                reply = _scrape(self._peer_sock(peer),
                                {"cmd": "session_put",
                                 "blob": session.to_blob()})
                acked = json.loads(reply.decode() or "null") == {"ok": True}
            except (OSError, ValueError):
                acked = False  # peer down or respawning
            if not acked:
                self.replication_failures.inc()

        def _fetch(self, session_id: str, token: int):
            preferred = rendezvous_slot(session_id, peers)
            order = ([] if preferred is None else [preferred]) \
                + [p for p in peers if p != preferred]
            for peer in order:
                try:
                    raw = _scrape(self._peer_sock(peer),
                                  {"cmd": "session_take", "id": session_id,
                                   "token": int(token)})
                    payload = json.loads(raw.decode() or "null")
                except (OSError, ValueError):
                    self.fetch_failures.inc()  # down, respawning or torn
                    continue
                blob = payload.get("blob") \
                    if isinstance(payload, dict) else None
                if blob:
                    return blob
            return None

    return _PoolSessionStore()


class _WorkerServer(PredictionServer):
    """A worker's :class:`PredictionServer` plus drain bookkeeping.

    Tracks in-flight requests so a terminating worker can finish what it
    has admitted before ``server_close`` tears the batchers down, and
    carries the ``draining`` flag that makes keep-alive connections wind
    down (the handler closes each connection after the response in
    flight instead of serving new requests forever).
    """

    def __init__(self, address, handler, service, **kwargs):
        super().__init__(address, handler, service, **kwargs)
        self.draining = False
        self._in_flight = 0
        self._idle = threading.Condition()

    def request_started(self) -> None:
        """Count one admitted request toward the drain barrier."""
        with self._idle:
            self._in_flight += 1

    def request_finished(self) -> None:
        """Release one request; wakes a drain waiting for idle."""
        with self._idle:
            self._in_flight -= 1
            if self._in_flight <= 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no requests are in flight (or *timeout* passes)."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._in_flight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True


class _PoolHandler(_Handler):
    """The worker-pool request handler: ``_Handler`` plus pool awareness.

    Adds the ``X-Worker`` response header (which worker answered — the
    tests' load-balance oracle), intercepts ``/metrics`` to serve the
    pool-wide merged exposition, folds supervisor-published pool state
    into ``/healthz``, and participates in graceful drain by counting
    in-flight requests and closing keep-alive connections once the
    worker is draining.
    """

    worker_slot: int = -1
    pool_dir: str = ""

    def send_response(self, code, message=None):  # noqa: A002
        """Stamp every response with the answering worker's slot."""
        super().send_response(code, message)
        self.send_header("X-Worker", str(self.worker_slot))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._in_drain_barrier(super().do_GET)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._in_drain_barrier(super().do_POST)

    def _in_drain_barrier(self, handle) -> None:
        """Run one request counted toward the drain barrier; once the
        worker is draining, the keep-alive connection closes after it."""
        self.server.request_started()
        try:
            handle()
        finally:
            self.server.request_finished()
            if self.server.draining:
                self.close_connection = True

    def _handle_get(self) -> None:
        """Route pool-level endpoints; defer everything else upstream."""
        url = urllib.parse.urlsplit(self.path)
        if url.path == "/metrics":
            try:
                text = self._pool_metrics()
            except Exception as error:  # noqa: BLE001 - must answer
                self._reply(500, {"error": f"{type(error).__name__}: {error}"})
                return
            self._send(200, text.encode(),
                       "text/plain; version=0.0.4; charset=utf-8")
        elif url.path == "/healthz":
            self._reply(200, self._pool_healthz())
        else:
            super()._handle_get()

    # ------------------------------------------------------------------ #

    def _pool_state(self) -> dict:
        """The supervisor's last published ``pool.json`` snapshot."""
        with open(os.path.join(self.pool_dir, "pool.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)

    def _pool_metrics(self) -> str:
        """The pool-wide exposition: every worker scraped and merged,
        plus ``repro_pool_*`` families describing the pool itself."""
        state = self._pool_state()
        texts: dict[str, str] = {}  # slots that answered: the "up" ones
        for slot in sorted(state["slots"]):
            if int(slot) == self.worker_slot:
                texts[slot] = self.service.metrics_text()
                continue
            sock_path = os.path.join(self.pool_dir, f"worker-{slot}.sock")
            try:
                texts[slot] = _scrape(sock_path, {"cmd": "metrics"}).decode()
            except OSError:
                pass  # dead or respawning; supervisor will report it
        alive = sum(1 for info in state["slots"].values() if info.get("alive"))
        pool = {"workers": state["workers"], "alive": alive,
                "respawns": state["respawns"]}
        return merge_expositions(texts) + render_families(POOL_FAMILIES, {
            "pool": [(None, pool)],
            "slot": [({"worker": slot}, int(slot in texts))
                     for slot in sorted(state["slots"])],
        })

    def _pool_healthz(self) -> dict:
        """This worker's liveness plus the supervisor's pool state."""
        payload = self.service.healthz()
        payload["worker"] = self.worker_slot
        try:
            state = self._pool_state()
        except (OSError, ValueError):
            payload["pool"] = {"error": "pool state unavailable"}
            return payload
        alive = sum(1 for info in state["slots"].values() if info.get("alive"))
        payload["pool"] = {
            "workers": state["workers"],
            "alive": alive,
            "degraded": alive < state["workers"],
            "respawns": state["respawns"],
            "supervisor_pid": state.get("supervisor_pid"),
            "slots": state["slots"],
        }
        return payload


class ServingPool:
    """Supervisor for a pre-fork pool of shared-nothing serving workers.

    ``start()`` binds the listener, forks ``workers`` children — each
    running a complete :class:`~repro.serving.server.PredictionServer`
    stack built *after* the fork, so no Python object is ever shared —
    and starts a monitor thread that reaps dead workers and respawns
    them with per-slot exponential backoff (immediate on a first death
    under load, backing off only when a slot crash-loops).  ``stop()``
    forwards ``SIGTERM`` so every worker drains in-flight requests
    before exiting; workers that outlive ``drain_timeout`` are killed.

    The pool's working state lives in ``pool_dir``: ``pool.json``
    (atomic snapshots of slots, pids, respawn counts) and one
    ``worker-<slot>.sock`` side channel per worker, which is how
    ``/metrics`` aggregates across the pool.  All constructor knobs
    after *workers* mirror :func:`~repro.serving.server.create_server`.
    """

    def __init__(self, registry, *, workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 max_batch: int = 64, quiet: bool = True,
                 max_queue: int = 1024, max_loaded_models: int = 0,
                 max_body_bytes: int = 10_000_000, access_log: bool = False,
                 compute_policy=None, reuse_port: bool | None = None,
                 drain_timeout: float = 10.0, respawn_backoff: float = 0.25,
                 max_respawn_backoff: float = 8.0, trace: bool = False,
                 trace_capacity: int = 128, trace_export=None,
                 pool_dir: str | None = None):
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        if not hasattr(os, "fork"):
            raise RuntimeError("the worker pool needs os.fork "
                               "(POSIX only); use create_server instead")
        # Workers re-open the registry *after* the fork (shared nothing),
        # so all the supervisor keeps is the path.
        if isinstance(registry, ModelRegistry):
            registry = registry.root
        self.registry = os.fspath(registry)
        self.workers = int(workers)
        self.host = host
        self.port = int(port)  # resolved to the real port by start()
        self._service_options = dict(
            max_batch=max_batch, max_queue=max_queue,
            max_loaded_models=max_loaded_models,
            compute_policy=compute_policy)
        self._handler_options = dict(
            quiet=quiet, max_body_bytes=int(max_body_bytes),
            access_log=bool(access_log))
        if reuse_port is None:
            reuse_port = hasattr(socket, "SO_REUSEPORT")
        self.reuse_port = bool(reuse_port)
        self.drain_timeout = float(drain_timeout)
        self.respawn_backoff = float(respawn_backoff)
        self.max_respawn_backoff = float(max_respawn_backoff)
        self._trace = dict(trace=trace, trace_capacity=trace_capacity,
                           trace_export=trace_export)
        self.pool_dir = pool_dir
        self._own_pool_dir = pool_dir is None
        self.respawns = 0
        self._listener: socket.socket | None = None
        self._slots: dict[int, dict] = {}
        self._stopping = threading.Event()
        self._done = threading.Event()
        self._stop_deadline: float | None = None
        self._monitor_thread: threading.Thread | None = None
        self._supervisor_pid = os.getpid()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # supervisor side
    # ------------------------------------------------------------------ #

    def start(self, *, ready_timeout: float = 30.0) -> None:
        """Bind the listener, fork the workers, start the monitor.

        Blocks (up to *ready_timeout*) until every initial worker has
        its listener active — callers can connect the moment this
        returns.  Raises ``RuntimeError`` if the pool fails to come up.
        """
        if self.pool_dir is None:
            self.pool_dir = tempfile.mkdtemp(prefix="repro-pool-")
        else:
            os.makedirs(self.pool_dir, exist_ok=True)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.reuse_port:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        listener.bind((self.host, self.port))
        if not self.reuse_port:
            # Classic pre-fork: children inherit this listening socket.
            # Non-blocking, so a worker losing the accept race gets
            # EAGAIN (socketserver swallows it) instead of blocking a
            # serve loop that select() said was ready.
            listener.listen(128)
            os.set_blocking(listener.fileno(), False)
        # With SO_REUSEPORT the supervisor's socket stays *unlistening*:
        # a pure port reservation.  A listening-but-never-accepting
        # socket would receive a kernel-balanced share of connections
        # and black-hole them.
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._publish_state()
        for slot in range(self.workers):
            self._spawn(slot)
        self._publish_state()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="pool-monitor", daemon=True)
        self._monitor_thread.start()
        deadline = time.monotonic() + ready_timeout
        for slot in range(self.workers):
            sock_path = os.path.join(self.pool_dir, f"worker-{slot}.sock")
            while not os.path.exists(sock_path):
                if time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError(
                        f"worker {slot} did not come up within "
                        f"{ready_timeout:.0f}s")
                if self._slots.get(slot, {}).get("alive") is False \
                        and self.respawns == 0:
                    self.close()
                    raise RuntimeError(f"worker {slot} died during startup")
                time.sleep(0.02)

    def _spawn(self, slot: int) -> None:
        pid = os.fork()
        if pid == 0:
            # Child: never return into the supervisor's world — not the
            # monitor thread, not pytest's atexit machinery.
            status = 0
            try:
                self._worker_main(slot)
            except BaseException:  # noqa: BLE001 - report, then _exit
                traceback.print_exc()
                status = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        with self._lock:
            info = self._slots.setdefault(slot, {
                "respawns": 0, "consecutive_fast_fails": 0})
            info.update(pid=pid, alive=True, started=time.monotonic(),
                        respawn_at=None)

    def _publish_state(self) -> None:
        """Atomically publish the pool snapshot workers read back."""
        with self._lock:
            slots = {
                str(slot): {
                    "pid": info.get("pid"),
                    "alive": bool(info.get("alive")),
                    "respawns": info.get("respawns", 0),
                }
                for slot, info in self._slots.items()
            }
            payload = {
                "host": self.host,
                "port": self.port,
                "workers": self.workers,
                "supervisor_pid": self._supervisor_pid,
                "respawns": self.respawns,
                "reuse_port": self.reuse_port,
                "slots": slots,
            }
        _atomic_write_json(os.path.join(self.pool_dir, "pool.json"), payload)

    def _monitor(self) -> None:
        """Reap dead workers, schedule respawns with backoff, enforce
        the stop deadline; exits once stopping and every worker is gone."""
        while True:
            changed = self._reap_once()
            now = time.monotonic()
            if self._stopping.is_set():
                if self._stop_deadline is not None \
                        and now > self._stop_deadline:
                    self._kill_stragglers()
                    self._stop_deadline = None
                    changed = True
                with self._lock:
                    any_alive = any(info.get("alive")
                                    for info in self._slots.values())
                if not any_alive:
                    if changed:
                        self._publish_state()
                    self._done.set()
                    return
            else:
                for slot in list(self._slots):
                    info = self._slots[slot]
                    due = info.get("respawn_at")
                    if not info.get("alive") and due is not None \
                            and now >= due:
                        self._spawn(slot)
                        changed = True
            if changed:
                self._publish_state()
            time.sleep(0.05)

    def _reap_once(self) -> bool:
        """``waitpid`` each live worker non-blockingly; mark the dead
        and schedule their respawns.  Returns whether anything changed."""
        changed = False
        with self._lock:
            live = [(slot, info["pid"]) for slot, info in self._slots.items()
                    if info.get("alive")]
        for slot, pid in live:
            try:
                reaped, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                reaped = pid  # someone reaped it for us; treat as dead
            if reaped == 0:
                continue
            changed = True
            with self._lock:
                info = self._slots[slot]
                info["alive"] = False
                if self._stopping.is_set():
                    info["respawn_at"] = None
                    continue
                self.respawns += 1
                info["respawns"] = info.get("respawns", 0) + 1
                uptime = time.monotonic() - info.get("started", 0.0)
                if uptime < _FAST_FAIL_WINDOW:
                    info["consecutive_fast_fails"] = \
                        info.get("consecutive_fast_fails", 0) + 1
                else:
                    info["consecutive_fast_fails"] = 0
                fails = info["consecutive_fast_fails"]
                delay = 0.0 if fails == 0 else min(
                    self.max_respawn_backoff,
                    self.respawn_backoff * (2 ** (fails - 1)))
                info["respawn_at"] = time.monotonic() + delay
        return changed

    def _kill_stragglers(self) -> None:
        with self._lock:
            live = [info["pid"] for info in self._slots.values()
                    if info.get("alive")]
        for pid in live:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def stop(self) -> None:
        """Begin a graceful shutdown: SIGTERM every worker (they drain
        in-flight requests), SIGKILL whatever outlives ``drain_timeout``.
        Safe to call from a signal handler; returns immediately — use
        ``wait()`` to block until the pool is down."""
        if self._stopping.is_set():
            return
        self._stop_deadline = time.monotonic() + self.drain_timeout
        self._stopping.set()
        with self._lock:
            live = [info["pid"] for info in self._slots.values()
                    if info.get("alive")]
        for pid in live:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        if self._monitor_thread is None or not self._monitor_thread.is_alive():
            self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every worker has exited (or *timeout* passes)."""
        return self._done.wait(timeout)

    def close(self) -> None:
        """Stop the pool, wait for the workers, release the listener,
        and (when the pool made its own ``pool_dir``) remove the state
        directory.  Idempotent."""
        self.stop()
        self.wait(self.drain_timeout + 5.0)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._own_pool_dir and self.pool_dir \
                and os.path.isdir(self.pool_dir):
            import shutil
            shutil.rmtree(self.pool_dir, ignore_errors=True)

    def __enter__(self):
        """Context-manager entry: start the pool and return it."""
        self.start()
        return self

    def __exit__(self, *exc_info):
        """Context-manager exit: close the pool, workers and all."""
        self.close()
        return False

    def alive_workers(self) -> list[int]:
        """The slots whose worker process is currently alive."""
        with self._lock:
            return sorted(slot for slot, info in self._slots.items()
                          if info.get("alive"))

    def worker_pids(self) -> dict[int, int]:
        """Slot -> pid for every currently-alive worker."""
        with self._lock:
            return {slot: info["pid"] for slot, info in self._slots.items()
                    if info.get("alive")}

    # ------------------------------------------------------------------ #
    # worker side (runs in the forked child, never returns)
    # ------------------------------------------------------------------ #

    def _drain_backlog(self, server) -> None:
        """Serve connections already queued on a stopping worker's
        ``SO_REUSEPORT`` listener.

        The kernel keeps balancing new connections onto this listener
        right up to the moment it closes — and closing resets whatever
        its accept queue still holds.  A graceful stop therefore accepts
        and answers the stragglers (each response closes its connection,
        since ``draining`` is set) instead of letting ``close`` turn
        them into client-visible connection resets.  Only needed with
        ``SO_REUSEPORT``: the fallback mode shares one accept queue that
        the surviving workers keep draining.
        """
        import selectors

        with selectors.DefaultSelector() as selector:
            try:
                selector.register(server.socket, selectors.EVENT_READ)
            except (OSError, ValueError):
                return
            deadline = time.monotonic() + min(1.0, self.drain_timeout)
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.05):
                    return  # accept queue empty
                try:
                    server._handle_request_noblock()
                except OSError:
                    return

    def _worker_main(self, slot: int) -> None:
        """Everything one worker is: build the stack, serve, drain."""
        drained = threading.Event()
        server_box: list = []

        def _begin_drain(signum=None, frame=None):
            if drained.is_set():
                return
            drained.set()
            if server_box:
                server = server_box[0]
                server.draining = True
                # shutdown() blocks until serve_forever's loop notices;
                # calling it on the interrupted thread would deadlock.
                threading.Thread(target=server.shutdown,
                                 daemon=True).start()

        signal.signal(signal.SIGTERM, _begin_drain)
        signal.signal(signal.SIGINT, _begin_drain)

        if self.reuse_port:
            # Our own kernel-balanced listener; drop the reservation fd.
            if self._listener is not None:
                self._listener.close()
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            listener.bind((self.host, self.port))
            listener.listen(128)
        else:
            listener = self._listener  # inherited, already listening

        tracer = None
        if self._trace["trace"] or self._trace["trace_export"]:
            from ..observability import (configure_tracing, get_tracer,
                                         worker_export_path)
            export = self._trace["trace_export"]
            configure_tracing(
                enabled=True, capacity=self._trace["trace_capacity"],
                export_path=(worker_export_path(export, slot)
                             if export else None))
            tracer = get_tracer()

        service = build_service(self.registry, tracer=tracer,
                                **self._service_options)
        # Durable stream sessions survive this worker's death: the pool
        # store replicates blobs to a rendezvous peer over the side
        # channel and pulls them back when a resume lands here.
        service.sessions = _build_pool_session_store(
            self.pool_dir, slot, self.workers)
        handler = type("PoolHandler", (_PoolHandler,), {
            "service": service,
            "worker_slot": slot,
            "pool_dir": self.pool_dir,
            **self._handler_options,
        })
        server = _WorkerServer((self.host, self.port), handler, service,
                               bind_and_activate=False)
        server.adopt_socket(listener)
        server_box.append(server)
        if drained.is_set():
            # A SIGTERM raced our startup; don't start serving.
            server.server_close()
            return

        side = _SideChannel(
            os.path.join(self.pool_dir, f"worker-{slot}.sock"),
            service, slot)

        def _watch_parent() -> None:
            # Orphan protection: if the supervisor dies without signaling
            # us (SIGKILL, OOM), our ppid changes — drain and leave
            # rather than serve forever unsupervised.
            while not drained.is_set():
                if os.getppid() != self._supervisor_pid:
                    _begin_drain()
                    return
                time.sleep(1.0)

        threading.Thread(target=_watch_parent, daemon=True,
                         name=f"parent-watch-{slot}").start()

        try:
            server.serve_forever(poll_interval=0.05)
        finally:
            if self.reuse_port:
                self._drain_backlog(server)
            # Finish what we admitted, then tear down batchers + models.
            server.wait_idle(self.drain_timeout)
            side.close()
            server.server_close()
            if tracer is not None:
                flush = getattr(tracer, "flush", None)
                if callable(flush):
                    flush()
