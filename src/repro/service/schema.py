"""Typed requests and responses -- the service wire format.

Everything crossing the service boundary is a frozen dataclass with a
complete JSON round trip (``to_dict``/``from_dict``), built on the
serialization hooks of the core and profile classes.  A client can
therefore be a separate process speaking JSON lines (see
:mod:`repro.service.server`) without importing anything beyond the
schema module.

Two ways to name a group in a :class:`BuildRequest`:

* ``profile`` -- an explicit serialized
  :class:`~repro.profiles.group.GroupProfile` (the normal path for a
  client that elicited real ratings); or
* ``group_spec`` -- a :class:`GroupSpec` describing a synthetic group
  (size, uniformity, seed, consensus method), resolved server-side
  against the city's fitted schema.  This is what makes a pure-JSON
  demo possible: the client cannot know the LDA topic labels a city's
  item index discovered, so it asks the server to draw the group.

A cached package is serialized once: :class:`Encoded` is the wire dict
that carries its own JSON text, which the NDJSON writer splices
instead of re-encoding (see :func:`repro.service.server.encode_line`).

A warm hit re-sends a query and a group spec it sent before, so each is
parsed once: :class:`ParseMemo` keeps the frozen parsed objects, keyed
by the exact wire value with each value's type.
"""

from __future__ import annotations

import enum
import json
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from threading import Lock

from repro.core.customize import InteractionKind
from repro.core.objective import ObjectiveWeights
from repro.core.package import TravelPackage
from repro.core.query import DEFAULT_QUERY, GroupQuery
from repro.geo.rectangle import Rectangle
from repro.profiles.consensus import ConsensusMethod
from repro.profiles.group import GroupProfile


class Encoded(dict):
    """A wire dict that carries its own JSON text.

    ``json`` is ``json.dumps(self)`` with default settings, computed
    once at construction.  The instance is still a plain dict to every
    reader: in-process callers index it, and ``json.dumps`` of anything
    holding it gives the same bytes, because the C encoder walks dict
    subclasses as dicts.  Default pickling ships the dict and the text
    together, so a process hop keeps both.

    Read-only by contract, like the cached
    :class:`~repro.core.package.TravelPackage` it encodes: one instance
    is shared by every cache hit, and a mutation would also put the
    dict and ``json`` out of step.
    """

    __slots__ = ("json",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.json = json.dumps(self)

    @classmethod
    def spliced(cls, value: dict, text: str) -> "Encoded":
        """``value`` with ``text`` as its JSON, for a caller that already
        has ``json.dumps(value)`` -- e.g. a package's
        :meth:`~repro.core.package.TravelPackage.to_json`, spliced from
        per-POI texts."""
        encoded = cls.__new__(cls)
        dict.update(encoded, value)
        encoded.json = text
        return encoded


def trace_limit(payload: dict) -> int | None:
    """The ``limit`` of a ``trace`` request: ``None`` when absent or
    null, else a non-negative int.

    Raises:
        ValueError: For anything else -- a string, a float, a bool or a
            negative int (which would slice the tail off the traces).
    """
    limit = payload.get("limit")
    if limit is None:
        return None
    if type(limit) is not int or limit < 0:
        raise ValueError(
            f"trace limit must be a non-negative integer, got {limit!r}")
    return limit


def _wire_int(value, name: str) -> int:
    """``value`` as a wire integer field, under ``trace_limit``'s rule.

    Raises:
        ValueError: For anything but an int -- a bool (``true`` would
            build one of something), a float (``2.7`` would silently
            truncate) or a string.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


#: Parsed values each :class:`ParseMemo` keeps.  A hit needs its
#: package in the cache too, so this matches the package cache's
#: default capacity.
PARSE_MEMO_SIZE = 256


class ParseMemo:
    """A bounded LRU (:data:`PARSE_MEMO_SIZE`) of frozen objects parsed
    from wire values.

    ``key(data)`` must determine ``parse(data)``: it holds every input
    the parser reads, with each value's type, since ``True == 1`` and
    ``hash(True) == hash(1)`` would otherwise serve a ``true`` the
    object parsed from a ``1``.  A value whose key cannot be built or
    hashed (a list, a missing field) goes to ``parse`` every time, as
    does one ``parse`` rejects, so it raises what ``parse`` raises.
    Parsed objects ``keep`` refuses are not stored either (a float
    zero: ``-0.0`` and ``0.0`` are one key but two signs).  Thread-safe.
    """

    def __init__(self, parse: Callable, key: Callable[[object], tuple],
                 keep: Callable[[object], bool]) -> None:
        self.parse = parse
        self.key = key
        self.keep = keep
        self._parsed: OrderedDict[tuple, object] = OrderedDict()
        self._lock = Lock()

    def __call__(self, data):
        try:
            key = self.key(data)
            with self._lock:
                parsed = self._parsed.get(key)
                if parsed is not None:
                    self._parsed.move_to_end(key)
                    return parsed
        except Exception:
            return self.parse(data)
        parsed = self.parse(data)
        if self.keep(parsed):
            with self._lock:
                self._parsed[key] = parsed
                if len(self._parsed) > PARSE_MEMO_SIZE:
                    self._parsed.popitem(last=False)
        return parsed

    def __len__(self) -> int:
        return len(self._parsed)

    def clear(self) -> None:
        with self._lock:
            self._parsed.clear()


def _parse_query(data) -> GroupQuery:
    """A wire query, with every category count a :func:`_wire_int`
    (checked inline first: the field name is formatted only for a bad
    count)."""
    for cat, count in data["counts"].items():
        if type(count) is not int:
            _wire_int(count, f"query count for {cat}")
    return GroupQuery.from_dict(data)


def _query_key(data) -> tuple:
    """The inputs :func:`_parse_query` reads, with their types."""
    counts = data["counts"]
    budget = data.get("budget")
    return (tuple(counts.items()), tuple(map(type, counts.values())),
            type(budget), budget)


def _flat_key(data) -> tuple:
    """A flat wire dict as a key: its keys in order, its values' types
    and its values."""
    values = tuple(data.values())
    return tuple(data), tuple(map(type, values)), values


#: The wire query parser, memoized.
_wire_query = ParseMemo(_parse_query, _query_key,
                        keep=lambda query: query.budget != 0)


class ErrorCode(str, enum.Enum):
    """Machine-readable classification of error responses.

    The string value travels on the wire (``PackageResponse.code``), so
    clients and the load generator can branch on failure class without
    parsing messages: ``overloaded`` is retryable after backoff,
    ``bad_request``/``invalid``/``not_found`` are not.
    """

    BAD_REQUEST = "bad_request"    # unparseable or schema-invalid payload
    NOT_FOUND = "not_found"        # unknown city / POI / resource
    INVALID = "invalid"            # well-formed but unservable request
    UNKNOWN_SESSION = "unknown_session"
    OVERLOADED = "overloaded"      # shed by admission control; retryable
    FAILED = "failed"              # internal build failure
    #: The session's city moved to a newer epoch (a live mutation) and
    #: its interaction log could not be replayed; the session is still
    #: open but pinned -- reopen or rebuild against the new epoch.
    STALE_EPOCH = "stale_epoch"


#: Largest group a :class:`GroupSpec` may ask for: the paper's largest
#: group.  A non-uniform group's admission is cubic in its size, and one
#: shard serves one request at a time.
MAX_GROUP_SIZE = 100

#: Most Composite Items a :class:`BuildRequest` may ask for (the paper's
#: default is 5).  Assembly holds ``(k, N)`` temporaries per round and
#: FCM seeding grows with ``k``, so ``k`` is priced before it runs.
MAX_K = 20


@dataclass(frozen=True)
class GroupSpec:
    """A server-resolved synthetic group (Section 4.1 generators).

    Attributes:
        size: Number of members.
        uniform: Draw a uniform (True) or non-uniform (False) group.
        seed: Generator seed; equal specs resolve to equal profiles.
        method: Consensus method aggregating members into the profile.
        w1: Weight for the combined consensus (``None`` = method default).
    """

    size: int = 5
    uniform: bool = True
    seed: int = 0
    method: str = ConsensusMethod.AVERAGE.value
    w1: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.size <= MAX_GROUP_SIZE:
            raise ValueError(f"group size must be between 1 and "
                             f"{MAX_GROUP_SIZE}, got {self.size}")
        ConsensusMethod(self.method)  # validate early, not at resolve time

    def to_dict(self) -> dict:
        return {"size": self.size, "uniform": self.uniform, "seed": self.seed,
                "method": self.method, "w1": self.w1}

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSpec":
        w1 = data.get("w1")
        uniform = data.get("uniform", True)
        if type(uniform) is not bool:
            raise ValueError(f"group uniform must be a boolean, got {uniform!r}")
        return cls(
            size=_wire_int(data.get("size", 5), "group size"),
            uniform=uniform,
            seed=_wire_int(data.get("seed", 0), "group seed"),
            method=str(data.get("method", ConsensusMethod.AVERAGE.value)),
            w1=float(w1) if w1 is not None else None,
        )


#: The wire group-spec parser, memoized.
_wire_spec = ParseMemo(GroupSpec.from_dict, _flat_key,
                       keep=lambda spec: spec.w1 != 0)


@dataclass(frozen=True)
class BuildRequest:
    """One package-construction request.

    Exactly one of ``profile`` / ``group_spec`` must be given.

    Attributes:
        city: City name (a template name, or a city pre-registered with
            the service's :class:`~repro.service.registry.CityRegistry`).
        query: The Composite-Item specification.
        profile: Explicit group profile (wire form preferred).
        group_spec: Synthetic group to resolve server-side.
        weights: Optional per-request Equation 1 weights.
        k: Composite Items per package (``None`` = city default).
        seed: FCM seed override (``None`` = city default).
        request_id: Opaque client correlation id, echoed in the response.
    """

    city: str
    query: GroupQuery = DEFAULT_QUERY
    profile: GroupProfile | None = None
    group_spec: GroupSpec | None = None
    weights: ObjectiveWeights | None = None
    k: int | None = None
    seed: int | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        if not self.city:
            raise ValueError("a build request needs a city")
        if (self.profile is None) == (self.group_spec is None):
            raise ValueError(
                "a build request needs exactly one of profile / group_spec"
            )
        if self.k is not None and not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must be between 1 and {MAX_K}, "
                             f"got {self.k}")

    def to_dict(self) -> dict:
        return {
            "city": self.city,
            "query": self.query.to_dict(),
            "profile": self.profile.to_dict() if self.profile else None,
            "group_spec": self.group_spec.to_dict() if self.group_spec else None,
            "weights": self.weights.to_dict() if self.weights else None,
            "k": self.k,
            "seed": self.seed,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BuildRequest":
        profile = data.get("profile")
        spec = data.get("group_spec")
        weights = data.get("weights")
        k = data.get("k")
        seed = data.get("seed")
        return cls(
            city=str(data["city"]),
            query=(_wire_query(data["query"])
                   if data.get("query") is not None else DEFAULT_QUERY),
            profile=GroupProfile.from_dict(profile) if profile else None,
            group_spec=_wire_spec(spec) if spec else None,
            weights=ObjectiveWeights.from_dict(weights) if weights else None,
            k=_wire_int(k, "k") if k is not None else None,
            seed=_wire_int(seed, "seed") if seed is not None else None,
            request_id=data.get("request_id"),
        )


class CustomizeOp(str, enum.Enum):
    """Operators a :class:`CustomizeRequest` may carry.

    The four atomic operators of Section 3.3 plus whole-CI deletion
    (their iterated-REMOVE convenience form).
    """

    REMOVE = InteractionKind.REMOVE.value
    ADD = InteractionKind.ADD.value
    REPLACE = InteractionKind.REPLACE.value
    GENERATE = InteractionKind.GENERATE.value
    DELETE_CI = "delete_ci"


@dataclass(frozen=True)
class CustomizeRequest:
    """One customization step against an open session.

    Attributes:
        session_id: Handle returned by ``PackageService.open_session``.
        op: Which operator to apply.
        ci_index: Target Composite Item (all ops except GENERATE).
        poi_id: Target POI (REMOVE / REPLACE).
        add_poi_id: POI to insert (ADD); looked up in the city dataset.
        replacement_id: Explicit replacement POI (REPLACE; ``None`` =
            system recommendation).
        rect: Map rectangle as ``(lat, lon, width, height)`` (GENERATE).
        actor: Acting group-member index, for individual refinement.
        request_id: Opaque client correlation id.
    """

    session_id: str
    op: CustomizeOp
    ci_index: int = 0
    poi_id: int | None = None
    add_poi_id: int | None = None
    replacement_id: int | None = None
    rect: tuple[float, float, float, float] | None = None
    actor: int | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", CustomizeOp(self.op))
        if self.op in (CustomizeOp.REMOVE, CustomizeOp.REPLACE) and self.poi_id is None:
            raise ValueError(f"{self.op.value} needs a poi_id")
        if self.op is CustomizeOp.ADD and self.add_poi_id is None:
            raise ValueError("add needs an add_poi_id")
        if self.op is CustomizeOp.GENERATE and self.rect is None:
            raise ValueError("generate needs a rect")
        if self.rect is not None:
            rect = tuple(float(v) for v in self.rect)
            if len(rect) != 4:
                raise ValueError(
                    "rect must be (lat, lon, width, height), "
                    f"got {len(rect)} values"
                )
            object.__setattr__(self, "rect", rect)

    def rectangle(self) -> Rectangle:
        """The GENERATE rectangle as a geometry object."""
        if self.rect is None:
            raise ValueError("this request carries no rectangle")
        lat, lon, width, height = self.rect
        return Rectangle(lat=lat, lon=lon, width=width, height=height)

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "op": self.op.value,
            "ci_index": self.ci_index,
            "poi_id": self.poi_id,
            "add_poi_id": self.add_poi_id,
            "replacement_id": self.replacement_id,
            "rect": list(self.rect) if self.rect is not None else None,
            "actor": self.actor,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CustomizeRequest":
        def _opt_int(key: str) -> int | None:
            value = data.get(key)
            return _wire_int(value, key) if value is not None else None

        rect = data.get("rect")
        return cls(
            session_id=str(data["session_id"]),
            op=CustomizeOp(data["op"]),
            ci_index=_wire_int(data.get("ci_index", 0), "ci_index"),
            poi_id=_opt_int("poi_id"),
            add_poi_id=_opt_int("add_poi_id"),
            replacement_id=_opt_int("replacement_id"),
            rect=tuple(rect) if rect is not None else None,
            actor=_opt_int("actor"),
            request_id=data.get("request_id"),
        )


@dataclass(frozen=True)
class PackageResponse:
    """The service's answer to a build or customize request.

    Attributes:
        city: The city served.
        package: The (current) Travel Package; ``None`` on error.
        cached: Whether the package came from the warm cache.
        latency_ms: Server-side wall clock for this request.
        metrics: Quality measures of the package (representativity,
            within-CI distance, personalization, validity).
        session_id: Set for responses tied to a customization session.
        request_id: Echo of the request's correlation id.
        error: Error message when the request could not be served.
        code: Machine-readable :class:`ErrorCode` value accompanying
            ``error`` (``None`` on success).
        shard: Index of the shard that served the request, when served
            through a :class:`~repro.service.shard.ShardCluster`.
        package_wire: ``package.to_dict()`` as an :class:`Encoded`, set
            for packages served through the cache; :meth:`to_dict`
            passes it (and an :class:`Encoded` ``metrics``) through
            instead of serializing again.
    """

    city: str
    package: TravelPackage | None = None
    cached: bool = False
    latency_ms: float = 0.0
    metrics: dict = field(default_factory=dict)
    session_id: str | None = None
    request_id: str | None = None
    error: str | None = None
    code: str | None = None
    shard: int | None = None
    package_wire: Encoded | None = field(default=None, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        if self.code is not None:
            object.__setattr__(self, "code", ErrorCode(self.code).value)
        if (self.code is not None) and self.error is None:
            raise ValueError("an error code needs an error message")

    @property
    def ok(self) -> bool:
        """Whether the request was served successfully."""
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "city": self.city,
            # "is not None", not truthiness: TravelPackage has __len__,
            # so presence must never hinge on its item count.
            "package": (self.package_wire if self.package_wire is not None
                        else self.package.to_dict()
                        if self.package is not None else None),
            "cached": self.cached,
            "latency_ms": self.latency_ms,
            "metrics": (self.metrics if isinstance(self.metrics, Encoded)
                        else dict(self.metrics)),
            "session_id": self.session_id,
            "request_id": self.request_id,
            "error": self.error,
            "code": self.code,
            "shard": self.shard,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PackageResponse":
        package = data.get("package")
        shard = data.get("shard")
        return cls(
            city=str(data["city"]),
            package=(TravelPackage.from_dict(package)
                     if package is not None else None),
            cached=bool(data.get("cached", False)),
            latency_ms=float(data.get("latency_ms", 0.0)),
            metrics=dict(data.get("metrics", {})),
            session_id=data.get("session_id"),
            request_id=data.get("request_id"),
            error=data.get("error"),
            code=data.get("code"),
            shard=int(shard) if shard is not None else None,
        )
