"""Outside-in layer ledger for the traced run.

The benchmark wraps each layer's public entry points from its own side
of the call -- replacing the attribute at the place its caller looks it
up (``repro.core.kfc.assemble_composite_items``, ``KFCBuilder.build``,
...) -- so nothing under ``src/`` changes.  Each wrapper records a span:
name, start, end, parent and request id.  Spans stay in memory until the
run writes them out; a span's self time is its duration minus the part
of it its child spans cover.

The client serves one request at a time, so the parent of a span is the
innermost open span on its own thread, or -- for the first span on the
shard thread -- the ``ShardCluster.submit`` span that handed it over.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    request: str | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Ledger:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        self._handoff: Span | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, stack: list[Span]) -> Span:
        parent = stack[-1] if stack else self._handoff
        return Span(next(self._ids), parent.sid if parent else None, name,
                    perf_counter(), self.request)

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = self._new(name, stack)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def begin_request(self, request_id: str) -> Span:
        self.request, self._handoff = request_id, None
        return self.open("request")

    # -- wrappers ----------------------------------------------------------

    def _sync(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            if before is not None:
                span.attrs.update(before(*args, **kwargs))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(span)
                if after is not None:
                    span.attrs.update(after(result))
        return traced

    def _async(self, name, fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def _handoff_submit(self, fn):
        """``ShardCluster.submit``: the span runs from the call until its
        future resolves on the shard thread, and parents whatever the
        shard thread records first."""
        @functools.wraps(fn)
        def traced(cluster, op, payload):
            span = self._new("shard", self._stack())
            span.attrs["op"] = op
            self._handoff = span

            def done(_future) -> None:
                span.end = perf_counter()
                self.spans.append(span)

            future = fn(cluster, op, payload)
            future.add_done_callback(done)
            return future
        return traced

    def _patch(self, owner, attr: str, make) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per install/remove)."""
        import repro.core.kfc as kfc
        import repro.data.dataset as dataset
        import repro.live.patch as patch
        import repro.service.registry as registry
        from repro.core.arrays import CityArrays
        from repro.core.customize import CustomizationSession
        from repro.profiles.vectors import ItemVectorIndex
        from repro.service.cache import PackageCache
        from repro.service.engine import PackageService
        from repro.service.server import PackageServer
        from repro.service.shard import ShardCluster
        from repro.store import AssetStore

        sync, patch_ = self._sync, self._patch
        patch_(PackageServer, "_process_line", lambda f: self._async("wire", f))
        patch_(PackageServer, "handle_line", lambda f: self._async("server", f))
        patch_(ShardCluster, "submit", self._handoff_submit)
        patch_(PackageService, "dispatch", lambda f: sync(
            "engine", f, before=lambda svc, op, payload: {"op": op}))
        patch_(PackageCache, "get", lambda f: sync(
            "cache.get", f, after=lambda value: {"hit": value is not None}))
        patch_(registry.CityRegistry, "group_profile",
               lambda f: sync("registry.group_profile", f))
        patch_(registry.CityRegistry, "mutate", lambda f: sync(
            "registry.mutate", f,
            before=lambda reg, city, mutation: {"kind": mutation.kind}))
        patch_(kfc.KFCBuilder, "build", lambda f: sync("kfc.build", f))
        patch_(kfc.KFCBuilder, "place_centroids", lambda f: sync(
            "kfc.place_centroids", f, before=_fcm_fit))
        patch_(kfc, "assemble_composite_items", lambda f: sync(
            "assembly.kernel", f,
            before=lambda ds, cents, query, *a, **kw: {
                "budgeted": query.has_budget}))
        for op in ("remove", "replace", "add"):
            patch_(CustomizationSession, op,
                   lambda f, op=op: sync(f"customize.{op}", f))
        patch_(registry, "patch_arrays", lambda f: sync(
            "live.patch", f, before=lambda arrays, mutation, *a: {
                "kind": mutation.kind}))
        for module in (patch, dataset):
            patch_(module, "max_pairwise_distance",
                   lambda f: sync("geo.max_pairwise", f))
        patch_(AssetStore, "save", lambda f: sync(
            "store.save", f, after=lambda path: {"bytes": _dir_bytes(path)}))
        patch_(registry, "generate_city", lambda f: sync("setup.generate", f))
        patch_(ItemVectorIndex, "fit", lambda f: classmethod(
            sync("setup.lda_fit", f.__func__)))
        patch_(CityArrays, "build", lambda f: classmethod(
            sync("arrays.build", f.__func__)))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """All spans as NDJSON (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.sid):
                out.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "request": s.request,
                    **s.attrs}) + "\n")


def _fcm_fit(builder, k=None, seed=None) -> dict:
    """Whether this ``place_centroids`` call misses the FCM seed cache."""
    key = (builder.k if k is None else k, builder.seed if seed is None else seed)
    return {"fit": key not in builder._centroid_cache}


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# -- self time ---------------------------------------------------------------

def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time in ms (duration minus the union of the
    intervals its direct children cover, clipped to the span)."""
    children = _children(spans)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start - covered) * 1000.0
    return out


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


#: Layers that do the core work; warm hits must record none of them.
CORE = ("kfc.", "assembly.", "customize.", "registry.mutate", "live.",
        "geo.", "store.", "arrays.")


def layer_metrics(workload: str, spans: list[Span],
                  stats_delta: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one traced pass of ``workload``:
    ``{name: (value, unit)}``."""
    selfs = self_times(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def self_p50(name, pred=lambda s: True):
        return _p50(selfs[s.sid] for s in named.get(name, ()) if pred(s))

    def dur_p50(name, pred=lambda s: True):
        return _p50(s.ms for s in named.get(name, ()) if pred(s))

    def count(name, pred=lambda s: True):
        return float(sum(1 for s in named.get(name, ()) if pred(s)))

    def attr(key, value):
        return lambda s: s.attrs.get(key) == value

    gets = count("cache.get")
    out: dict[str, tuple[float, str]] = {
        "server.self_ms": (self_p50("server"), "ms"),
        "wire.encode_ms": (self_p50("wire"), "ms"),
        "shard.self_ms": (self_p50("shard"), "ms"),
        "cache.get_ms": (dur_p50("cache.get"), "ms"),
        "cache.gets": (gets, "count"),
        "cache.hit_ratio": (count("cache.get", attr("hit", True)) / gets
                            if gets else 0.0, "ratio"),
        "unattributed_ms": (_p50(_unattributed(spans, selfs)), "ms"),
    }
    ops = ("build",) if workload != "live_edit" else (
        "open_session", "customize", "mutate")
    for op in ops:
        out[f"engine.self_ms.{op}"] = (self_p50("engine", attr("op", op)), "ms")

    if workload == "warm_hit":
        out["core.spans"] = (float(sum(1 for s in spans
                                       if s.name.startswith(CORE))), "count")
    if workload == "cold_build":
        assembly = stats_delta.get("assembly", {})
        out.update({
            "registry.group_profile_ms": (dur_p50("registry.group_profile"),
                                          "ms"),
            "kfc.self_ms": (self_p50("kfc.build"), "ms"),
            "assembly.kernel_ms.unbudgeted": (
                dur_p50("assembly.kernel", attr("budgeted", False)), "ms"),
            "assembly.kernel_ms.budgeted": (
                dur_p50("assembly.kernel", attr("budgeted", True)), "ms"),
            "assembly.calls.unbudgeted": (
                count("assembly.kernel", attr("budgeted", False)), "count"),
            "assembly.calls.budgeted": (
                count("assembly.kernel", attr("budgeted", True)), "count"),
            "assembly.rows_scored_frac": (
                assembly.get("rows_scored", 0) / assembly["rows_total"]
                if assembly.get("rows_total") else 0.0, "ratio"),
            "assembly.rows_total": (float(assembly.get("rows_total", 0)),
                                    "count"),
            "kfc_share.unbudgeted": (_p50(_kfc_share(spans)), "ratio"),
        })
    if workload == "live_edit":
        live = stats_delta.get("live", {})
        mutations = live.get("mutations_applied", 0)
        edits = count("engine", attr("op", "customize"))
        fits = attr("fit", True)
        out.update({
            "kfc.fcm_ms": (dur_p50("kfc.place_centroids", fits), "ms"),
            "kfc.fcm_fits": (count("kfc.place_centroids", fits), "count"),
            "registry.mutate.self_ms": (self_p50("registry.mutate"), "ms"),
            "live.full_rebuild_frac": (
                live.get("full_rebuilds", 0) / mutations if mutations
                else 0.0, "ratio"),
            "live.mutations": (float(mutations), "count"),
            "live.replay_frac": (live.get("sessions_replayed", 0) / edits
                                 if edits else 0.0, "ratio"),
            "live.edits": (edits, "count"),
            "live.sessions_stale": (float(live.get("sessions_stale", 0)),
                                    "count"),
            "geo.max_pairwise_ms": (dur_p50("geo.max_pairwise"), "ms"),
            "geo.max_pairwise_calls": (count("geo.max_pairwise"), "count"),
            "store.save_ms": (dur_p50("store.save"), "ms"),
            "store.save_bytes": (_p50(s.attrs["bytes"]
                                      for s in named.get("store.save", ())),
                                 "B"),
            "reprice.store_largest_frac": (_store_largest(spans), "ratio"),
        })
        for op in ("remove", "replace", "add"):
            out[f"customize.op_ms.{op}"] = (self_p50(f"customize.{op}"), "ms")
        for kind, short in (("reprice_poi", "reprice"), ("close_poi", "close"),
                            ("add_poi", "add")):
            out[f"live.patch_ms.{short}"] = (
                dur_p50("live.patch", attr("kind", kind)), "ms")
    return out


def _by_request(spans: list[Span]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = {}
    for s in spans:
        if s.request is not None:
            grouped.setdefault(s.request, []).append(s)
    return grouped


def _unattributed(spans, selfs) -> list[float]:
    """Per request: its latency minus the self times of its layers."""
    out = []
    for group in _by_request(spans).values():
        root = next((s for s in group if s.name == "request"), None)
        if root is not None:
            out.append(root.ms - sum(selfs[s.sid] for s in group
                                     if s is not root))
    return out


def _kfc_share(spans) -> list[float]:
    """Per unbudgeted build: ``KFCBuilder.build`` time (which holds FCM
    and assembly) over the request's latency."""
    out = []
    for group in _by_request(spans).values():
        root = next((s for s in group if s.name == "request"), None)
        kfc = [s for s in group if s.name == "kfc.build"]
        budgeted = any(s.attrs.get("budgeted") for s in group
                       if s.name == "assembly.kernel")
        if root is not None and kfc and not budgeted:
            out.append(sum(s.ms for s in kfc) / root.ms)
    return out


def _store_largest(spans) -> float:
    """Share of reprice mutations whose largest layer below the engine
    is ``AssetStore.save``."""
    selfs, children = self_times(spans), _children(spans)
    reprices = [s for s in spans if s.name == "registry.mutate"
                and s.attrs.get("kind") == "reprice_poi"]
    if not reprices:
        return 0.0
    wins = 0
    for s in reprices:
        parts = {c.name: c.ms for c in children.get(s.sid, ())}
        parts["registry.mutate(self)"] = selfs[s.sid]
        wins += max(parts, key=parts.get) == "store.save"
    return wins / len(reprices)


def setup_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Set-up layers of one stack boot (spans outside any request)."""
    boot = [s for s in spans if s.request is None]

    def total(name):
        return sum(s.end - s.start for s in boot if s.name == name)

    return {
        "setup.generate_s": (total("setup.generate"), "s"),
        "setup.lda_fit_s": (total("setup.lda_fit"), "s"),
        "setup.arrays_build_s": (total("arrays.build"), "s"),
        "setup.geo_max_pairwise_s": (total("geo.max_pairwise"), "s"),
        "setup.store_save_s": (total("store.save"), "s"),
    }


#: The end-to-end figure each per-layer metric should move, and where.
TARGETS = {
    "server.self_ms": "build_p50_norm_ms, throughput_norm_rps on warm_hit",
    "wire.encode_ms": "build_p50_norm_ms on warm_hit",
    "shard.self_ms": "build_p50_norm_ms on warm_hit",
    "engine.self_ms.build": "build_p50_norm_ms on warm_hit and cold_build",
    "engine.self_ms.open_session": "build_p50_norm_ms on live_edit",
    "engine.self_ms.customize": "edit_p50_norm_ms on live_edit",
    "engine.self_ms.mutate": "mutate_p50_norm_ms on live_edit",
    "cache.get_ms": "build_p50_norm_ms on warm_hit",
    "cache.gets": "base of cache.hit_ratio",
    "cache.hit_ratio": "build_p50_norm_ms on warm_hit (~1) and live_edit (~0)",
    "core.spans": "none on warm_hit (expected 0)",
    "registry.group_profile_ms": "build_p50_norm_ms on cold_build",
    "registry.mutate.self_ms": "mutate_p50_norm_ms on live_edit",
    "kfc.self_ms": "build_p50_norm_ms on cold_build",
    "kfc.fcm_ms": "build_p90_norm_ms / edit_p90_norm_ms on live_edit",
    "kfc.fcm_fits": "build_p90_norm_ms / edit_p90_norm_ms on live_edit",
    "kfc_share.unbudgeted": "confirms cold_build's rationale (>= 0.5)",
    "assembly.kernel_ms.unbudgeted": "build_p50_norm_ms on cold_build",
    "assembly.kernel_ms.budgeted": "build_p90_norm_ms on cold_build",
    "assembly.calls.unbudgeted": "base of the kernel times",
    "assembly.calls.budgeted": "base of the kernel times",
    "assembly.rows_scored_frac": "explains cold_build moves",
    "assembly.rows_total": "base of assembly.rows_scored_frac",
    "customize.op_ms.remove": "edit_p50_norm_ms on live_edit",
    "customize.op_ms.replace": "edit_p50_norm_ms on live_edit",
    "customize.op_ms.add": "edit_p50_norm_ms on live_edit",
    "live.patch_ms.reprice": "mutate_p50_norm_ms on live_edit",
    "live.patch_ms.close": "mutate_p90_norm_ms on live_edit",
    "live.patch_ms.add": "mutate_p90_norm_ms on live_edit",
    "live.full_rebuild_frac": "mutate_p90_norm_ms on live_edit (expected 0)",
    "live.mutations": "base of live.full_rebuild_frac",
    "live.replay_frac": "edit_p90_norm_ms on live_edit",
    "live.edits": "base of live.replay_frac",
    "live.sessions_stale": "none (expected 0)",
    "geo.max_pairwise_ms": "mutate_p90_norm_ms on live_edit; setup_s",
    "geo.max_pairwise_calls": "base of geo.max_pairwise_ms",
    "store.save_ms": "mutate_p50_norm_ms on live_edit; setup_s",
    "store.save_bytes": "store.save_ms",
    "reprice.store_largest_frac": "confirms live_edit's rationale (~1)",
    "unattributed_ms": "none; shows ledger coverage",
    "trace_overhead_ms": "none; traced minus untraced request p50",
    "setup.generate_s": "setup_s",
    "setup.lda_fit_s": "setup_s",
    "setup.arrays_build_s": "setup_s",
    "setup.geo_max_pairwise_s": "setup_s",
    "setup.store_save_s": "setup_s",
    "setup.total_s": "setup_s (one traced boot)",
    "obs.overhead_ms": "build_p50_norm_ms on warm_hit",
}
