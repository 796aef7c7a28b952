"""Golden ``/metrics`` output: the exposition is pinned byte for byte.

The service exposition, the cross-worker merge and the pool's own
``repro_pool_*`` block are rendered for a fixed state in which every
family is populated and nothing is timing-derived, then compared with
captures in ``tests/golden/``.  The captures predate the three
durability-failure families in ``NEW_FAMILIES``, so those families'
three lines each are the only ones allowed to differ — anything else
that moves is a change to what scrapers and dashboards read.

The test also holds the catalog in ``docs/operations.md`` to exactly
the families ``/metrics`` renders, and the ``# HELP``/``# TYPE`` layout
to the one module that draws it.
"""

import re
from pathlib import Path
from types import SimpleNamespace

from repro.observability import StructuredLogger
from repro.serving import ModelRegistry, PredictionService, StreamStats
from repro.serving.batcher import BatcherStats
from repro.serving.metrics import merge_expositions
from repro.serving.pool import _PoolHandler

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
#: the families newer than the captures, in exposition order, with
#: their HELP text
NEW_FAMILIES = {
    "repro_session_replication_failures_total":
        "Session blobs a peer worker did not acknowledge adopting "
        "(includes stale copies it refused).",
    "repro_session_side_channel_errors_total":
        "Peer side-channel requests this worker could not read or answer "
        "(torn or malformed).",
    "repro_session_fetch_failures_total":
        "Peer workers a session resume fetch failed on (down, respawning "
        "or a torn reply).",
}


class _IdleBatcher:
    """Stands in for a loaded model's batcher: a fixed queue depth."""

    def __init__(self, depth: int):
        self.queue_depth = depth

    def close(self, timeout=None) -> None:
        pass


def fixed_service(root: Path, *, scale: int = 1) -> PredictionService:
    """A service whose every ``/metrics`` family holds fixed values.

    *scale* multiplies the counts, so two workers' states differ and
    their merged sums are distinguishable from either input.
    """
    service = PredictionService(
        ModelRegistry(root), logger=StructuredLogger(enabled=False))
    alpha, beta = ("alpha", 1), ("beta", 2)
    for key, sizes, seconds in ((alpha, (1, 3, 8), (0.004, 0.03)),
                                (beta, (2,) * scale, (0.2,))):
        stats = service._stats[key] = BatcherStats()
        for size in sizes:
            stats._record_batch(size)
        for value in seconds:
            stats.latency.observe(value)
    for _ in range(scale):
        service._stats[beta]._record_rejected()
    service._loaded[alpha] = (None, _IdleBatcher(2 * scale))
    service._loaded[beta] = (None, _IdleBatcher(0))

    for key, confidences in ((alpha, (0.93, 0.55, 1.0)), (beta, ())):
        stream = service._streams[key] = StreamStats()
        stream.opened.inc(2 * scale)
        stream.active.inc(scale)
        for index, confidence in enumerate(confidences):
            stream.record_window(shift=index == 1, confidence=confidence)
        if not confidences:
            stream.record_window()
    for stage, seconds in (("queue_wait", 0.0003), ("assemble", 0.002),
                           ("predict", 0.0007), ("serialize", 0.00004)):
        service.observe_stage(alpha, stage, seconds)
    service.observe_stage(beta, "predict", 0.3)
    for status in (200, 200, 200, 404, 429):
        service.record_response(status)
    for _ in range(scale):
        service.record_client_disconnect(client="127.0.0.1", status=200)

    sessions = service.sessions
    for index, counter in enumerate(
            (sessions.opened, sessions.resumed, sessions.snapshots,
             sessions.replayed, sessions.handoffs, sessions.takeovers,
             sessions.expired, sessions.swaps)):
        counter.inc(scale * (index + 1))
    sessions.active.inc(scale)
    return service


def pool_exposition(service, pool_dir: Path) -> str:
    """The pool-wide ``/metrics`` body as worker 0 of two answers it;
    worker 1's side channel is absent, so its scrape reports it down."""
    handler = SimpleNamespace(
        worker_slot=0, pool_dir=str(pool_dir), service=service,
        _pool_state=lambda: {"workers": 2, "respawns": 3,
                             "slots": {"0": {"alive": True},
                                       "1": {"alive": False}}})
    return _PoolHandler._pool_metrics(handler)


def _is_new(line: str) -> bool:
    return any(name in line for name in NEW_FAMILIES)


def _assert_matches_capture(text: str, capture: str,
                            values=(0, 0, 0)) -> None:
    """*text* equals the capture once the new families' lines are out,
    and those are exactly each family's HELP, TYPE and *values* entry."""
    lines = text.splitlines(keepends=True)
    known = "".join(line for line in lines if not _is_new(line))
    assert known == (GOLDEN / capture).read_text()
    assert [line.rstrip("\n") for line in lines if _is_new(line)] == [
        line for (name, help_), value in zip(NEW_FAMILIES.items(), values)
        for line in (f"# HELP {name} {help_}", f"# TYPE {name} counter",
                     f"{name} {value}")]


class TestGoldenExposition:
    def test_service_exposition_matches_capture(self, tmp_path):
        service = fixed_service(tmp_path)
        sessions = service.sessions
        sessions.replication_failures.inc(4)
        sessions.side_channel_errors.inc(5)
        sessions.fetch_failures.inc(6)
        _assert_matches_capture(service.metrics_text(), "service.prom",
                                (4, 5, 6))

    def test_merged_exposition_matches_capture(self, tmp_path):
        texts = {"0": fixed_service(tmp_path / "a").metrics_text(),
                 "1": fixed_service(tmp_path / "b", scale=3).metrics_text()}
        _assert_matches_capture(merge_expositions(texts), "merged.prom")

    def test_pool_exposition_matches_capture(self, tmp_path):
        text = pool_exposition(fixed_service(tmp_path / "reg"), tmp_path)
        _assert_matches_capture(text, "pool.prom")


class TestCatalog:
    @staticmethod
    def _rendered(tmp_path) -> dict[str, str]:
        """Every family the pool-wide ``/metrics`` renders, with its kind."""
        text = pool_exposition(fixed_service(tmp_path / "reg"), tmp_path)
        return dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))

    def test_catalog_lists_exactly_the_rendered_families(self, tmp_path):
        doc = (ROOT / "docs" / "operations.md").read_text()
        catalog = dict(re.findall(
            r"^\| `(repro_\w+)` \| (counter|gauge|histogram) \|", doc, re.M))
        assert catalog == self._rendered(tmp_path)

    def test_rendered_families_are_the_tables(self, tmp_path):
        from repro.serving.pool import POOL_FAMILIES
        from repro.serving.server import SERVICE_FAMILIES

        tables = {spec.name: spec.kind
                  for spec in SERVICE_FAMILIES + POOL_FAMILIES}
        assert tables == self._rendered(tmp_path)

    def test_help_and_type_lines_are_written_in_one_module(self):
        writers = sorted(
            path.relative_to(ROOT).as_posix()
            for path in (ROOT / "src").rglob("*.py")
            if re.search(r"# (HELP|TYPE) ", path.read_text()))
        assert writers == ["src/repro/serving/metrics.py"]
