"""Durable stream sessions: resume tokens and a snapshot/restore codec.

A stream normally lives exactly one HTTP request: when the TCP
connection drops, the worker dies, or the client machine reboots, the
scorer's windower ring and the drift monitor's EWMAs evaporate — the
next connection starts a cold stream and the drift baseline re-warms
from nothing.  A :class:`StreamSession` makes the scorer state
*portable*: after every resolved window the scorer deposits a
versioned, JSON-ready snapshot (the **codec**) and bumps a monotonic
**resume token** (the number of windows the session has emitted).  A
client that reconnects with its last token gets the windows it missed
replayed verbatim from a bounded cache and the stream continues from
the exact ring/EWMA state it left — *replay nothing* (no window is
ever re-scored) *and lose nothing* (no window is ever skipped).

The codec is deliberately plain data — scalars as JSON numbers (CPython
round-trips ``float`` through ``repr`` bit-exactly) and arrays as
base64 of their raw little-endian float64 bytes — so a snapshot
survives ``json.dumps``/``loads`` across the worker pool's unix-socket
side channel byte-for-byte, which is what makes resumed streams
*bit-identical* to uninterrupted ones rather than merely close.

:class:`SessionStore` is the server-side registry of live and suspended
sessions (bounded, TTL-swept) with two overridable hooks —
``_replicate`` and ``_fetch`` — that the multi-process pool uses to
copy session blobs to a rendezvous-hashed peer worker and to pull them
back when a resume lands on a different worker than the one that died.
"""

from __future__ import annotations

import base64
import hashlib
import threading
import time
from collections import deque

import numpy as np

__all__ = [
    "CODEC_VERSION",
    "SessionError",
    "SessionStore",
    "StreamSession",
    "check_codec",
    "decode_array",
    "encode_array",
    "rendezvous_slot",
]

#: Version stamp written into every snapshot.  Bump it whenever the
#: snapshot layout changes shape; ``check_codec`` rejects mismatches so
#: a worker never restores state written by an incompatible build.
CODEC_VERSION = 2


class SessionError(Exception):
    """A session operation the caller got wrong, with its HTTP status.

    Mirrors the shape of :class:`~repro.serving.server.ServingError`
    (``status`` attribute plus a human message) so the NDJSON endpoint
    maps both onto wire responses with the same code path: ``404`` for
    an unknown or expired session, ``409`` for token/state conflicts,
    ``410`` for a token older than the replay cache retains.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)


def encode_array(values: np.ndarray) -> dict:
    """Encode an array as base64 of its raw float64 bytes (JSON-ready).

    Text floats truncate; raw bytes do not.  The snapshot must restore
    the windower ring *bit-identically* or resumed streams would score
    windows that never existed on the uninterrupted timeline.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    return {
        "shape": list(values.shape),
        "b64": base64.b64encode(values.tobytes()).decode("ascii"),
    }


def decode_array(state: dict) -> np.ndarray:
    """Invert :func:`encode_array` back to a float64 array."""
    raw = base64.b64decode(state["b64"].encode("ascii"))
    return np.frombuffer(raw, dtype=np.float64).reshape(
        tuple(state["shape"])).copy()


def check_codec(state: dict) -> None:
    """Reject a snapshot written by an incompatible codec version."""
    found = state.get("codec")
    if found != CODEC_VERSION:
        raise SessionError(
            409, f"snapshot codec version {found!r} is not supported "
                 f"(this build speaks {CODEC_VERSION})")


def rendezvous_slot(key: str, slots) -> int | None:
    """Pick one slot for *key* by highest-random-weight (rendezvous) hash.

    Every worker computes the same answer from the same slot list with
    no coordination, and removing a slot only remaps the keys that
    lived on it — which is exactly the stability the pool needs when a
    worker dies and its sessions must land somewhere deterministic.
    Returns ``None`` for an empty slot list.
    """
    best, best_weight = None, None
    for slot in slots:
        digest = hashlib.md5(f"{slot}|{key}".encode()).digest()
        weight = int.from_bytes(digest[:8], "big")
        if best_weight is None or weight > best_weight \
                or (weight == best_weight and slot < best):
            best, best_weight = int(slot), weight
    return best


class StreamSession:
    """One durable stream: an id, a monotonic token, and the state blob.

    The **token** counts windows the session has emitted; after window
    ``k`` resolves the token is ``k + 1`` and ``state`` is the codec
    snapshot from which window ``k + 1`` can be scored.  A bounded ring
    of recently emitted wire lines (``cache_lines`` of them) lets a
    resume at any recent token replay the exact bytes the client missed
    without re-scoring anything.
    """

    def __init__(self, session_id: str, *, cache_lines: int = 128):
        if cache_lines < 1:
            raise ValueError(f"cache_lines must be >= 1; got {cache_lines}")
        self.id = str(session_id)
        self.token = 0
        self.state: dict | None = None
        self.lines: deque[dict] = deque(maxlen=int(cache_lines))
        self.active = False
        self.epoch = 0
        #: set by the attached stream handler: called (no arguments) when
        #: a resume takes the session over, so a handler waiting on a
        #: half-open connection wakes, finds itself fenced and ends
        self.on_takeover = None
        self.touched = time.time()
        # Serialises owner batches against attachment changes: a handler
        # mutates the session (advance + remember + save) only inside
        # guard(), and a takeover bumps the epoch only under this lock,
        # so the replay cache always covers exactly what the token
        # claims at every point a new owner can observe.
        self._mutate = threading.Lock()

    def guard(self, epoch: int) -> "_OwnerGuard":
        """Enter one owner batch; raises 409 if the attachment moved on.

        The stream handler wraps each feed batch (scorer advance, line
        caching, store save) in ``with session.guard(my_epoch):`` — if a
        resume stole the session meanwhile (its epoch advanced), the
        fenced owner aborts *before* touching any state, and a takeover
        in progress waits for the in-flight batch to land rather than
        observing half of it.
        """
        return _OwnerGuard(self, int(epoch))

    @property
    def samples(self) -> int:
        """Samples folded into ``state`` — the client's resend position.

        A resuming client must replay its sample feed from exactly this
        offset; earlier samples are already inside the snapshot's ring
        and later ones were never captured.
        """
        if self.state is None:
            return 0
        return int(self.state["counters"]["samples"])

    def advance(self, snapshot: dict) -> None:
        """Install the snapshot for the next window; token moves by one.

        The snapshot carries the token it was taken at; anything other
        than ``current + 1`` means windows were dropped or reordered
        between scorer and session, which must never be papered over.
        """
        check_codec(snapshot)
        expected = self.token + 1
        if snapshot.get("token") != expected:
            raise SessionError(
                409, f"snapshot token {snapshot.get('token')!r} breaks "
                     f"monotonicity (expected {expected})")
        self.state = snapshot
        self.token = expected
        self.touched = time.time()

    def remember(self, payload: dict) -> None:
        """Cache one emitted wire line for replay-on-resume."""
        self.lines.append(payload)

    def replay_from(self, token: int) -> list[dict]:
        """The cached wire lines a client at *token* has not seen yet.

        Raises :class:`SessionError` when the client claims to be ahead
        of the session (409 — its token is from another life) or so far
        behind that the bounded cache no longer covers the gap (410 —
        the stream cannot resume without re-scoring, which sessions
        refuse to do by design).
        """
        token = int(token)
        if token < 0:
            raise SessionError(400, f"resume token must be >= 0; got {token}")
        if token > self.token:
            raise SessionError(
                409, f"resume token {token} is ahead of the session "
                     f"(at {self.token})")
        if token == self.token:
            return []
        replay = [line for line in self.lines
                  if int(line.get("token", 0)) > token]
        if len(replay) != self.token - token:
            raise SessionError(
                410, f"session replay cache covers only the last "
                     f"{len(self.lines)} windows; token {token} is too old "
                     f"(session at {self.token})")
        return replay

    def to_blob(self) -> dict:
        """JSON-ready form for replication across the pool side channel."""
        return {
            "id": self.id,
            "token": self.token,
            "state": self.state,
            "lines": list(self.lines),
            "cache_lines": self.lines.maxlen,
        }

    @classmethod
    def from_blob(cls, blob: dict) -> "StreamSession":
        """Rebuild a (suspended) session from :meth:`to_blob` output."""
        session = cls(blob["id"], cache_lines=blob.get("cache_lines") or 128)
        session.token = int(blob["token"])
        session.state = blob.get("state")
        if session.state is not None:
            check_codec(session.state)
        session.lines.extend(blob.get("lines") or ())
        return session


class _OwnerGuard:
    """Context manager for :meth:`StreamSession.guard`."""

    __slots__ = ("_session", "_epoch")

    def __init__(self, session: StreamSession, epoch: int):
        self._session = session
        self._epoch = epoch

    def __enter__(self) -> StreamSession:
        self._session._mutate.acquire()
        if self._session.epoch != self._epoch:
            self._session._mutate.release()
            raise SessionError(
                409, f"session {self._session.id!r} was taken over by a "
                     f"newer attachment")
        return self._session

    def __exit__(self, *exc) -> None:
        self._session._mutate.release()


class SessionStore:
    """Server-side registry of stream sessions, bounded and TTL-swept.

    One store lives on each :class:`~repro.serving.server.PredictionService`;
    the NDJSON endpoint opens, resumes, saves, suspends and finishes
    sessions through it.  The store never persists to disk — durability
    across *process* death comes from the pool subclass replicating
    blobs to a peer worker via the ``_replicate``/``_fetch`` hooks,
    which are deliberate no-ops here.

    All counters are plain unlabelled metrics, exposed by the service
    as the ``repro_session_*`` families.
    """

    def __init__(self, *, max_sessions: int = 256, ttl: float = 3600.0,
                 cache_lines: int = 128):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1; got {max_sessions}")
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0; got {ttl}")
        from ..serving.metrics import Counter, Gauge

        self.max_sessions = int(max_sessions)
        self.ttl = float(ttl)
        self.cache_lines = int(cache_lines)
        self._lock = threading.Lock()
        self._sessions: dict[str, StreamSession] = {}
        self.opened = Counter()
        self.resumed = Counter()
        self.snapshots = Counter()
        self.replayed = Counter()
        self.handoffs = Counter()
        self.takeovers = Counter()
        self.expired = Counter()
        self.swaps = Counter()
        #: replications a peer did not acknowledge (the pool store counts
        #: them; includes stale copies the peer's adopt() refused)
        self.replication_failures = Counter()
        #: side-channel requests this worker could not read or answer,
        #: and peers that failed a resume fetch (the pool counts both)
        self.side_channel_errors = Counter()
        self.fetch_failures = Counter()
        self.active = Gauge()

    # ------------------------------------------------------------------ #

    def open(self, session_id: str) -> StreamSession:
        """Create a fresh session under *session_id* and mark it attached.

        An id that already exists is a conflict either way: attached
        means two clients are racing for one stream; suspended means
        the caller forgot its resume token and re-opening would fork
        the stream's history.
        """
        with self._lock:
            self._sweep_locked()
            existing = self._sessions.get(session_id)
            if existing is not None:
                if existing.active:
                    raise SessionError(
                        409, f"session {session_id!r} is attached to a live "
                             f"stream")
                raise SessionError(
                    409, f"session {session_id!r} already exists; reconnect "
                         f"with resume=<token>")
            if len(self._sessions) >= self.max_sessions:
                self._evict_locked()
            session = StreamSession(session_id, cache_lines=self.cache_lines)
            session.active = True
            session.epoch = 1
            self._sessions[session_id] = session
            self.opened.inc()
            self.active.inc()
            return session

    def resume(self, session_id: str, token: int
               ) -> tuple[StreamSession, list[dict]]:
        """Re-attach to a suspended session at *token*.

        Returns the session plus the cached wire lines the client has
        not seen (possibly empty).  A session unknown locally is asked
        for via the ``_fetch`` hook before giving up — in the pool that
        is what turns a worker death into a peer handoff.

        A resume against an *attached* session **takes it over**: the
        client is the stream's single writer, so a resume means the old
        connection is dead from where the client stands — even when the
        server never saw a FIN (half-open TCP after a mid-write crash).
        The takeover bumps the session epoch, which fences the previous
        handler out at its next :meth:`StreamSession.guard`; everything
        it had already committed is in the replay cache, so the new
        attachment loses nothing.
        """
        with self._lock:
            self._sweep_locked()
            session = self._sessions.get(session_id)
        if session is None:
            blob = self._fetch(session_id, int(token))
            if blob is None:
                raise SessionError(
                    404, f"unknown or expired session {session_id!r}")
            adopted = StreamSession.from_blob(blob)
            with self._lock:
                current = self._sessions.get(session_id)
                if current is None or (not current.active
                                       and current.token <= adopted.token):
                    self._sessions[session_id] = adopted
                    session = adopted
                elif current.active:
                    raise SessionError(
                        409, f"session {session_id!r} is attached to a live "
                             f"stream")
                else:
                    session = current
            self.handoffs.inc()
        # Waits out any in-flight owner batch, so the replay cache is
        # consistent with the token before we compute the replay; a bad
        # token raises *before* the epoch bump, so a botched resume
        # never fences a healthy stream.
        with session._mutate:
            replay = session.replay_from(int(token))
            taken_over = session.active
            session.epoch += 1
            session.active = True
            session.touched = time.time()
            fenced, session.on_takeover = session.on_takeover, None
        if taken_over and fenced is not None:
            fenced()
        with self._lock:
            self.resumed.inc()
            self.replayed.inc(len(replay))
            if taken_over:
                self.takeovers.inc()
            else:
                self.active.inc()
        return session, replay

    def save(self, session: StreamSession) -> None:
        """Record one more snapshotted window and replicate the blob."""
        self.snapshots.inc()
        self._replicate(session)

    def suspend(self, session: StreamSession,
                epoch: int | None = None) -> None:
        """Detach a session (client gone, stream resumable later).

        *epoch* fences the call: a handler whose attachment was taken
        over must not detach (or replicate over) the newer owner's
        stream, so it passes the epoch it attached at and the suspend
        becomes a no-op if the session has moved on.
        """
        if self._detach(session, epoch):
            self._replicate(session)

    def finish(self, session: StreamSession,
               epoch: int | None = None) -> None:
        """Retire a session after a clean end-of-stream (epoch-fenced)."""
        if self._detach(session, epoch):
            with self._lock:
                self._sessions.pop(session.id, None)

    def _detach(self, session: StreamSession, epoch: int | None) -> bool:
        """Mark *session* detached unless a takeover fenced *epoch* out;
        ``False`` means the session has moved on and must be left alone."""
        with session._mutate:
            if epoch is not None and session.epoch != epoch:
                return False
            was_active = session.active
            session.active = False
            session.touched = time.time()
        if was_active:
            self.active.dec()
        return True

    def get(self, session_id: str) -> StreamSession | None:
        """The session under *session_id*, if any (introspection)."""
        with self._lock:
            return self._sessions.get(session_id)

    def adopt(self, blob: dict) -> bool:
        """Install a replicated peer blob as a suspended session.

        An attached session is never clobbered, and a stale blob never
        rolls an id's token backwards — replication is at-least-once
        and may arrive out of order.
        """
        session = StreamSession.from_blob(blob)
        with self._lock:
            current = self._sessions.get(session.id)
            if current is not None and (current.active
                                        or current.token > session.token):
                return False
            if current is None and len(self._sessions) >= self.max_sessions:
                self._evict_locked()
            self._sessions[session.id] = session
            return True

    def take(self, session_id: str, token: int) -> dict | None:
        """Hand a suspended session's blob to a resuming peer.

        The session must exist, be detached, and actually cover *token*
        (state plus replay cache); it is removed locally on success so
        exactly one worker serves the resume.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or session.active:
                return None
            # Try-lock (never block inside the store lock): losing the
            # race to a concurrent local resume means the session is no
            # longer ours to hand over anyway.
            if not session._mutate.acquire(blocking=False):
                return None
            try:
                if session.active:
                    return None
                try:
                    session.replay_from(int(token))
                except SessionError:
                    return None
                del self._sessions[session_id]
                return session.to_blob()
            finally:
                session._mutate.release()

    # ------------------------------------------------------------------ #

    def _sweep_locked(self) -> None:
        deadline = time.time() - self.ttl
        stale = [sid for sid, session in self._sessions.items()
                 if not session.active and session.touched < deadline]
        for sid in stale:
            del self._sessions[sid]
            self.expired.inc()

    def _evict_locked(self) -> None:
        suspended = [(session.touched, sid)
                     for sid, session in self._sessions.items()
                     if not session.active]
        if not suspended:
            raise SessionError(
                503, f"session store is full ({self.max_sessions} attached "
                     f"sessions)")
        _, oldest = min(suspended)
        del self._sessions[oldest]
        self.expired.inc()

    def _replicate(self, session: StreamSession) -> None:
        """Durability hook: copy *session* somewhere that survives us.

        No-op in-process; the pool subclass sends the blob to a
        rendezvous-hashed peer worker over the unix-socket side
        channel and counts every copy the peer does not acknowledge in
        ``replication_failures``.
        """

    def _fetch(self, session_id: str, token: int) -> dict | None:
        """Recovery hook: find *session_id* beyond this process.

        No-op in-process; the pool subclass asks every peer worker and
        adopts the best-covering blob.
        """
        return None
