"""NDJSON streaming client for ``POST /v1/models/<name>/stream``.

Stdlib only, like the server.  The request body is sent with chunked
transfer encoding from a background thread while the main thread reads
the chunked response — full duplex, so a long stream never deadlocks on
socket buffers: the server writes a window line as soon as the window's
prediction resolves, without waiting for the next sample, and the
client consumes it while still sending samples.

The one public entry point is :func:`stream_windows`, which yields the
response lines (``window`` results, then a ``summary``; an ``error`` line
on in-band failure) as parsed dictionaries::

    for event in stream_windows("127.0.0.1", 8080, "demo",
                                samples, window=32, hop=8):
        if event["kind"] == "window":
            ...

*samples* is any iterable of ``(values, label_or_None)`` pairs,
``(values, label_or_None, t)`` triples — ``t`` is the sample's position
on the source clock, sent so the server can see gaps (``None`` sends
none) — ready-made request-line dicts, or bare value vectors.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
import uuid
from collections import deque
from typing import Iterable, Iterator

import numpy as np

__all__ = ["StreamRequestError", "stream_session", "stream_windows"]


class StreamRequestError(RuntimeError):
    """The server refused the stream before it started (non-200 status)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


#: how long to wait for the sender thread after it has been told to stop
#: — it only needs to notice the stop event between two samples, so this
#: bounds teardown at a fraction of the request timeout instead of the
#: whole thing
_SENDER_LINGER = 1.0


def _encode_sample(sample) -> bytes:
    """One NDJSON line, framed as one HTTP chunk."""
    if isinstance(sample, dict):
        payload = sample
    elif isinstance(sample, tuple) and len(sample) in (2, 3):
        values, label, t = sample if len(sample) == 3 else (*sample, None)
        payload = {"values": np.asarray(values, dtype=float).tolist()}
        if label is not None:
            payload["label"] = int(label)
        if t is not None:
            payload["t"] = int(t)
    else:
        payload = {"values": np.asarray(sample, dtype=float).tolist()}
    data = json.dumps(payload).encode() + b"\n"
    return b"%x\r\n" % len(data) + data + b"\r\n"


def stream_windows(host: str, port: int, name: str, samples: Iterable, *,
                   window: int, hop: int | None = None, version=None,
                   proba: bool = False, timeout: float = 60.0,
                   session: str | None = None, resume: int | None = None,
                   follow: bool | None = None) -> Iterator[dict]:
    """Stream *samples* to a served model; yield its response lines.

    Yields each ``{"kind": "window", ...}`` line as the server emits it,
    then the ``{"kind": "summary", ...}`` line; an in-band server failure
    surfaces as a ``{"kind": "error", ...}`` line (the generator ends
    after it).  A refusal before the stream starts (unknown model, bad
    parameters) raises :class:`StreamRequestError`.

    Window lines carry a ``confidence`` field whenever the served model
    provides probabilities; *proba* additionally requests each window's
    full probability vector (``?proba=1``).

    *session* names a durable stream session (``?session=``); *resume*
    re-attaches it at a resume token (``?resume=``) and *follow* can be
    set ``False`` to pin a session's model version across canary
    promotions (``?follow=0``).  This is one raw connection — it does
    not reconnect by itself; the resuming loop is
    :func:`stream_session`.
    """
    query = {"window": int(window)}
    if hop is not None:
        query["hop"] = int(hop)
    if version is not None:
        query["version"] = version
    if proba:
        query["proba"] = 1
    if session is not None:
        query["session"] = session
    if resume is not None:
        query["resume"] = int(resume)
    if follow is not None and not follow:
        query["follow"] = 0
    path = (f"/v1/models/{urllib.parse.quote(name)}/stream?"
            + urllib.parse.urlencode(query))

    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/x-ndjson")
        connection.putheader("Transfer-Encoding", "chunked")
        connection.endheaders()

        send_error: list[BaseException] = []
        stop = threading.Event()

        def _send() -> None:
            try:
                for sample in samples:
                    if stop.is_set():
                        # The consumer is gone (early close) or done
                        # reading; pushing the rest of the stream would
                        # only fill socket buffers nobody drains.
                        return
                    connection.send(_encode_sample(sample))
                connection.send(b"0\r\n\r\n")
            except BaseException as error:  # noqa: BLE001 - reported below
                # The server may have torn the stream down mid-send (it
                # answers in-band); keep the error for after the read loop.
                send_error.append(error)

        sender = threading.Thread(target=_send, daemon=True)
        sender.start()
        try:
            response = connection.getresponse()
            if response.status != 200:
                body = response.read().decode(errors="replace")
                try:
                    message = json.loads(body).get("error", body)
                except json.JSONDecodeError:
                    message = body
                raise StreamRequestError(response.status, message)
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line)
        finally:
            # Signal the sender first, then join with a short bound: a
            # consumer that breaks out of the generator after one window
            # must not hang here for the full request timeout while the
            # sender pushes the rest of a long stream (the daemon sender
            # exits at its next between-samples check; if it is blocked
            # inside send() on a full socket buffer, the connection.close
            # below unblocks it).
            stop.set()
            sender.join(timeout=_SENDER_LINGER)
        if send_error and not isinstance(send_error[0],
                                         (BrokenPipeError, ConnectionError)):
            raise send_error[0]
    finally:
        connection.close()


#: pre-commit statuses worth retrying during a session resume: the pool
#: answers 503 while a worker drains or respawns and 429 under shed —
#: both clear within the backoff window
_RETRYABLE_STATUSES = frozenset({429, 503})


def stream_session(host: str, port: int, name: str, samples: Iterable, *,
                   window: int, hop: int | None = None, version=None,
                   proba: bool = False, timeout: float = 60.0,
                   session: str | None = None, follow: bool = True,
                   resume_from: int | None = None,
                   max_retries: int = 8, retry_delay: float = 0.2
                   ) -> Iterator[dict]:
    """Stream through a durable session, resuming across disconnects.

    Wraps :func:`stream_windows` in the full client half of the session
    protocol: samples handed to the wire are buffered until the server
    acknowledges them (the ``samples`` field on session and window
    lines), and on any disconnect — a dropped TCP connection, a killed
    worker, a server-initiated ``detach`` during drain — the stream
    reconnects with ``resume=<last token>`` and re-sends exactly the
    unacknowledged samples.  The server replays nothing and loses
    nothing, so the caller sees every window line exactly once, in
    order, bit-identical to an uninterrupted stream.

    *session* defaults to a fresh random id.  *resume_from* starts the
    very first attempt as a resume at that token instead of a fresh
    open — ``resume_from=0`` re-attaches a session a previous process
    left behind, replaying every window line its cache still covers
    (``repro stream --resume``).  Reconnects retry up to
    *max_retries* consecutive failures with linear backoff
    (*retry_delay*, doubling per attempt is not needed — worker respawn
    is sub-second); any successful re-attach resets the budget.  A
    non-retryable pre-commit refusal raises :class:`StreamRequestError`
    immediately.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0; got {max_retries}")
    session_id = session if session is not None else uuid.uuid4().hex
    source = iter(samples)
    lock = threading.Lock()
    buffered: deque[tuple[int, object]] = deque()
    feed_pos = 0  # samples pulled from the source so far
    acked = 0  # samples the server has folded into session state
    exhausted = False
    generation = 0  # bumped per attempt: fences off stale sender threads
    skip_source = resume_from is not None  # see _feed: line the source up

    def _feed(gen: int, ready: threading.Event) -> Iterator[object]:
        """Unacknowledged buffer first, then the live source (recorded).

        A sample is buffered *before* it is yielded, so nothing handed
        to a connection is ever unrecoverable; the generation fence
        keeps the previous attempt's sender thread (which may outlive
        its connection by a moment) from stealing source samples the
        new connection would then never see.

        *ready* gates the first sample: on a resume the server's
        session ack carries the true resend offset — the snapshot may
        be *ahead* of the last window line this client saw (replayed
        windows), in which case resending from the stale ack would
        misalign the ring.  The wire is full duplex, so waiting for the
        ack while the response streams costs nothing.
        """
        nonlocal feed_pos, exhausted
        while not ready.wait(0.05):
            with lock:
                if gen != generation:
                    return
        with lock:
            # An externally resumed session (resume_from) starts with an
            # empty buffer but a server already ``acked`` samples ahead:
            # line the source up by discarding what the snapshot holds.
            to_skip = acked - feed_pos if skip_source else 0
        for _ in range(max(0, to_skip)):
            try:
                next(source)
            except StopIteration:
                with lock:
                    exhausted = True
                return
        if to_skip > 0:
            with lock:
                feed_pos = max(feed_pos, acked)
        with lock:
            replay = [item for item in buffered if item[0] >= acked]
        for _, sample in replay:
            yield sample
        while True:
            with lock:
                if exhausted or gen != generation:
                    return
                try:
                    sample = next(source)
                except StopIteration:
                    exhausted = True
                    return
                buffered.append((feed_pos, sample))
                feed_pos += 1
            yield sample

    def _ack(position) -> None:
        nonlocal acked
        with lock:
            acked = max(acked, int(position))
            while buffered and buffered[0][0] < acked:
                buffered.popleft()

    # Last window token seen; None = fresh open.
    token: int | None = None if resume_from is None else int(resume_from)
    failures = 0
    while True:
        detached = False
        dropped: BaseException | None = None
        with lock:
            generation += 1
            gen = generation
        ready = threading.Event()
        if token is None:
            ready.set()  # fresh open: samples start at zero, no ack needed
        try:
            events = stream_windows(
                host, port, name, _feed(gen, ready), window=window, hop=hop,
                version=version, proba=proba, timeout=timeout,
                session=session_id, resume=token, follow=follow)
            for event in events:
                kind = event.get("kind")
                if kind == "session":
                    failures = 0
                    if token is None:
                        token = int(event["token"])
                    # Never adopt the ack's token otherwise: replayed
                    # window lines are still in flight, and a drop
                    # before they land must resume *behind* them so
                    # they are replayed again — windows reach the
                    # caller exactly once, never zero times.
                    _ack(event.get("samples", 0))
                    ready.set()
                elif kind == "window":
                    if "token" in event:
                        token = int(event["token"])
                    if "samples" in event:
                        _ack(event["samples"])
                elif kind == "detach":
                    detached = True
                    yield event
                    break
                elif kind == "error":
                    # In-band failure after commit: the server-side
                    # stream is gone, but the session state survived —
                    # treat exactly like a dropped connection.
                    dropped = StreamRequestError(500, str(event.get("error")))
                    break
                yield event
                if kind == "summary":
                    return
            else:
                # Response ended without summary/detach: connection lost.
                dropped = ConnectionError("stream ended without summary")
        except StreamRequestError as error:
            if error.status == 409 and token is None:
                # The session outlived a first attach we never saw
                # confirmed (the drop beat the session line); switch to
                # resuming it from the start.
                token = 0
                dropped = error
            elif error.status == 409:
                # Mid-resume conflict — most likely the server has not
                # yet noticed the old connection is dead and the
                # session still counts as attached.  That clears in
                # milliseconds; genuine conflicts (token ahead, codec
                # mismatch) just exhaust the retry budget and surface.
                dropped = error
            elif error.status == 404 and token is not None:
                # Mid-resume "unknown session" — in a worker pool the
                # peer holding the replicated blob may itself still be
                # respawning, or the dying worker has not suspended the
                # session yet.  Genuinely unknown sessions exhaust the
                # budget and surface as 404.
                dropped = error
            elif error.status not in _RETRYABLE_STATUSES:
                raise
            else:
                dropped = error
        except (ConnectionError, TimeoutError, http.client.HTTPException,
                OSError) as error:
            dropped = error
        if dropped is not None:
            failures += 1
            if failures > max_retries:
                raise dropped
        if detached:
            failures = 0
        time.sleep(retry_delay * max(1, failures))
