"""In-process serving metrics with Prometheus text-format rendering.

The serving runtime needs observability without adding a dependency, so
this module implements the two primitives the ``/metrics`` endpoint
exports — monotonically growing counters (plain ints guarded by their
owners' locks) and fixed-bucket :class:`Histogram`\\ s — plus the
formatting helpers that render them in the Prometheus exposition format
(text version 0.0.4), which every mainstream scraper understands::

    repro_serving_requests_total{model="demo",version="1"} 412
    repro_serving_request_latency_seconds_bucket{model="demo",version="1",le="0.01"} 390
    ...

Histograms are cumulative (a sample with ``le="0.05"`` counts every
observation ``<= 0.05``) exactly as Prometheus expects, so latency
quantiles can be derived server-side with ``histogram_quantile``.

Every exposition in the package is drawn here: a component declares its
families as a table of :class:`FamilySpec` rows (name, kind, help, label
source, value getter) and :func:`render_families` renders the table, so
adding a family is adding a row.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "CONFIDENCE_BUCKETS",
    "LATENCY_BUCKETS",
    "STAGE_LATENCY_BUCKETS",
    "Counter",
    "FamilySpec",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricFamily",
    "format_labels",
    "format_sample",
    "merge_expositions",
    "parse_exposition",
    "render_families",
    "render_histogram",
]

#: request-latency buckets in seconds: sub-millisecond cache hits through
#: multi-second stalls (predict_timeout territory)
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: micro-batch panel sizes; powers of two up to the default max_batch
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: per-stage latency buckets in seconds: stages (queue wait, batch
#: assembly, predict, serialize) are fractions of a request, so the
#: range starts an order of magnitude below LATENCY_BUCKETS
STAGE_LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                         0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)

#: per-window top-1 confidence: dense near 1.0 where healthy models live,
#: so a drift-induced slide out of the top buckets is visible at a glance
CONFIDENCE_BUCKETS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)


class Counter:
    """A thread-safe monotone counter.

    The serving layer's original counters are plain ints guarded by their
    owners' locks; this class exists for owners that have no natural lock
    of their own — the streaming layer's per-model window and shift
    totals, incremented from handler threads.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (≥ 0; a negative step raises ``ValueError``)."""
        if amount < 0:
            raise ValueError(f"a Counter only grows; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current running total."""
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe gauge: a value that can move both ways.

    Used for the per-model active-stream count — incremented when an
    NDJSON stream opens, decremented when it closes.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Raise the level by *amount* (default one)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: int = 1) -> None:
        """Lower the level by *amount* (default one)."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int:
        """The gauge's current level (may be negative)."""
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramSnapshot:
    """A consistent point-in-time copy of a :class:`Histogram`."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]  # per-bucket, one extra trailing +Inf bucket
    sum: float

    @property
    def count(self) -> int:
        """Total observations across every bucket (incl. +Inf)."""
        return sum(self.counts)

    def cumulative(self) -> list[int]:
        """Running totals per bucket, +Inf last — the Prometheus layout."""
        totals, running = [], 0
        for count in self.counts:
            running += count
            totals.append(running)
        return totals


class Histogram:
    """A thread-safe fixed-bucket histogram.

    ``observe`` is O(log buckets) and lock-cheap, so it can sit on the
    per-request hot path of the batcher.  Bucket upper bounds are
    inclusive (Prometheus ``le`` semantics); one implicit +Inf bucket
    catches the overflow.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_lock")

    def __init__(self, buckets=LATENCY_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a Histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        """Record one observation into its ``le``-inclusive bucket."""
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    @property
    def count(self) -> int:
        """Total observations recorded so far."""
        with self._lock:
            return sum(self._counts)

    def snapshot(self) -> HistogramSnapshot:
        """A consistent point-in-time :class:`HistogramSnapshot` copy."""
        with self._lock:
            return HistogramSnapshot(self.bounds, tuple(self._counts), self._sum)


# --------------------------------------------------------------------------- #
# exposition-format rendering
# --------------------------------------------------------------------------- #


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_labels(labels: dict[str, str] | None) -> str:
    """``{a="x",b="y"}`` — or an empty string for no labels."""
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(str(value))}"'
                     for key, value in labels.items())
    return "{" + inner + "}"


def _number(value) -> str:
    """Render ints without a decimal point, floats via repr (shortest)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        value = int(value)
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    return str(int(as_float)) if as_float.is_integer() else repr(as_float)


def format_sample(name: str, labels: dict[str, str] | None, value) -> str:
    """One exposition line: ``name{labels} value``."""
    return f"{name}{format_labels(labels)} {_number(value)}"


def render_histogram(name: str, labels: dict[str, str] | None,
                     snapshot: HistogramSnapshot) -> list[str]:
    """The ``_bucket``/``_sum``/``_count`` sample lines for one histogram."""
    labels = dict(labels or {})
    lines = []
    totals = snapshot.cumulative()
    for bound, total in zip(snapshot.bounds, totals):
        lines.append(format_sample(
            f"{name}_bucket", {**labels, "le": _number(bound)}, total))
    lines.append(format_sample(f"{name}_bucket", {**labels, "le": "+Inf"},
                               totals[-1]))
    lines.append(format_sample(f"{name}_sum", labels, snapshot.sum))
    lines.append(format_sample(f"{name}_count", labels, totals[-1]))
    return lines


@dataclass(frozen=True)
class FamilySpec:
    """One row of a family table: how to name, describe and sample it.

    *source* names a label source — a sequence of ``(labels, entry)``
    pairs the owner gathers at render time — and *value* maps one entry
    to its sample: a number, a :class:`HistogramSnapshot` for
    histograms, or ``None`` to leave that entry out.
    """

    name: str
    kind: str  # counter | gauge | histogram
    help: str
    source: str
    value: Callable[[object], object]


def _family_lines(name: str, kind: str, help_text: str,
                  samples: list[str]) -> list[str]:
    """The ``# HELP``/``# TYPE`` header plus *samples*.  A family with no
    samples is left out, except a gauge, which always renders its
    header."""
    if not samples and kind != "gauge":
        return []
    header = [f"# HELP {name} {help_text}"] if help_text else []
    return header + [f"# TYPE {name} {kind}"] + samples


def render_families(table, sources: dict[str, list]) -> str:
    """Render a :class:`FamilySpec` *table* over the label *sources* it
    names, in table order, as one exposition."""
    lines: list[str] = []
    for spec in table:
        samples: list[str] = []
        for labels, entry in sources[spec.source]:
            value = spec.value(entry)
            if value is None:
                continue
            if spec.kind == "histogram":
                samples += render_histogram(spec.name, labels, value)
            else:
                samples.append(format_sample(spec.name, labels, value))
        lines += _family_lines(spec.name, spec.kind, spec.help, samples)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# exposition-format parsing and cross-worker merging
# --------------------------------------------------------------------------- #


@dataclass
class MetricFamily:
    """One parsed metric family: ``# HELP``/``# TYPE`` plus its samples.

    Each sample is ``(sample_name, labels, value)`` — the sample name can
    differ from the family name (histogram ``_bucket``/``_sum``/``_count``
    suffixes).  Produced by :func:`parse_exposition`, consumed by
    :func:`merge_expositions`.
    """

    name: str
    kind: str
    help: str
    samples: list  # of (sample_name, dict[str, str], float)


def _parse_labels(text: str) -> dict[str, str]:
    """Parse the ``key="value",...`` interior of a label set, undoing the
    exposition escapes (``\\\\``, ``\\"``, ``\\n``).  An unquoted or
    unterminated value raises ``ValueError``."""
    labels: dict[str, str] = {}
    index = 0
    while index < len(text):
        equals = text.index("=", index)
        key = text[index:equals].strip().lstrip(",").strip()
        if text[equals + 1:equals + 2] != '"':
            raise ValueError(f"unquoted label value in {text!r}")
        value_chars = []
        index = equals + 2
        try:
            while (char := text[index]) != '"':
                if char == "\\":
                    index += 1
                    char = {"n": "\n"}.get(text[index], text[index])
                value_chars.append(char)
                index += 1
        except IndexError:
            raise ValueError(f"unterminated label value in {text!r}") from None
        labels[key] = "".join(value_chars)
        index += 1
    return labels


def parse_exposition(text: str) -> list[MetricFamily]:
    """Parse one Prometheus text-format (0.0.4) exposition.

    Returns the families in document order.  Tolerates samples that
    arrive before any ``# TYPE`` line by giving them an ``untyped``
    family of their own.  This is the inverse of what ``metrics_text``
    renders — the worker pool round-trips each worker's exposition
    through it to build the pool-wide aggregate.
    """
    families: list[MetricFamily] = []
    by_name: dict[str, MetricFamily] = {}

    def family_for(sample_name: str) -> MetricFamily:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in by_name:
                base = base[: -len(suffix)]
                break
        if base not in by_name:
            by_name[base] = MetricFamily(base, "untyped", "", [])
            families.append(by_name[base])
        return by_name[base]

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            if name not in by_name:
                by_name[name] = MetricFamily(name, "untyped", "", [])
                families.append(by_name[name])
            by_name[name].help = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            if name not in by_name:
                by_name[name] = MetricFamily(name, kind.strip(), "", [])
                families.append(by_name[name])
            else:
                by_name[name].kind = kind.strip()
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        space = line.find(" ")
        if brace != -1 and (space == -1 or brace < space):
            sample_name = line[:brace]
            close = line.rindex("}")
            labels = _parse_labels(line[brace + 1:close])
            value = float(line[close + 1:].strip())
        else:
            sample_name, _, raw = line.partition(" ")
            labels, value = {}, float(raw.strip())
        family_for(sample_name).samples.append((sample_name, labels, value))
    return families


def merge_expositions(texts: dict[str, str], *,
                      worker_label: str = "worker") -> str:
    """Merge per-worker expositions into one pool-wide exposition.

    *texts* maps a worker identity (the ``worker`` label value) to that
    worker's ``/metrics`` text.  Counters and histograms are **summed**
    across workers per label set — the pool total is what a dashboard
    wants for monotone series, and sums of monotone series stay monotone
    as long as worker identities are stable (a respawned worker restarts
    its slot's contribution, which Prometheus ``rate()`` treats as the
    familiar counter reset).  Gauges are **not** summed: each worker's
    gauge samples are re-emitted with a ``worker=<identity>`` label, so
    per-worker levels (queue depth, loaded models) stay inspectable and
    a dashboard can still ``sum by`` on top.
    """
    merged: dict[str, MetricFamily] = {}
    order: list[str] = []
    summed: dict[tuple, list] = {}  # (family, sample, labels) -> mutable row
    for identity in sorted(texts):
        for family in parse_exposition(texts[identity]):
            target = merged.get(family.name)
            if target is None:
                target = merged[family.name] = MetricFamily(
                    family.name, family.kind, family.help, [])
                order.append(family.name)
            elif target.kind == "untyped" and family.kind != "untyped":
                target.kind, target.help = family.kind, family.help
            for sample_name, labels, value in family.samples:
                if target.kind == "gauge":
                    target.samples.append(
                        (sample_name,
                         {**labels, worker_label: identity}, value))
                    continue
                key = (family.name, sample_name,
                       tuple(sorted(labels.items())))
                row = summed.get(key)
                if row is None:
                    row = summed[key] = [sample_name, labels, 0.0]
                    target.samples.append(row)
                row[2] += value
    lines: list[str] = []
    for name in order:
        family = merged[name]
        lines += _family_lines(name, family.kind, family.help, [
            format_sample(*sample) for sample in family.samples])
    return "\n".join(lines) + "\n"
