"""The on-disk city-asset store.

Everything a city's serving entry needs that is query-independent --
the POI dataset, the fitted :class:`~repro.profiles.vectors.ItemVectorIndex`
(both LDA models) and the :class:`~repro.core.arrays.CityArrays`
compute bundle -- is a pure function of ``(city, seed, scale,
lda_iterations)`` for template cities, and of ``(dataset content,
seed, lda_iterations)`` for wire-registered ones (the key carries a
dataset content hash; LDA is deterministic in the dataset and seed).
:class:`AssetStore` persists that function's value once and serves it
forever: the same pay-at-registration move as OBDA's precomputed exact
mappings, extended across process restarts.  A warm registry or shard
worker hydrates a city from disk in milliseconds instead of refitting
LDA for seconds.

Layout (one directory per content key)::

    <root>/
      paris-seed2019-scale0.35-lda50-c90ff4c1-v5/
        manifest.json   # format version, key, sha256 + size per file
        segment.bin     # page-structured binary segment (see below)
        journal.ndjson  # {"seq", "mutation"} per live mutation applied
                        # to the base (optional, append-only)

The segment is the city's *base* and never changes once published.

``segment.bin`` is a :mod:`repro.store.segment` file: a 64-byte header,
page-aligned regions (the dataset JSON, the meta JSON, and every array
of the item index and the ``CityArrays`` export), a crc32-per-page
checksum table and a JSON directory.  Hydration memory-maps the file
read-only and hands ``np.frombuffer`` views to
``CityArrays.from_export`` -- zero copies, so N shard workers on one
host share each city's array bytes through the OS page cache and
resident bytes per city stay ~constant regardless of shard count.

Guarantees:

* **Byte-identity.**  A loaded entry builds packages bit-for-bit equal
  to a freshly-fitted one (the golden fixtures assert this on the
  loaded path).  Arrays round-trip through raw region bytes; the
  dataset through JSON (``repr`` floats round-trip exactly); LDA
  corpora are rebuilt deterministically from the loaded dataset.
  Segment bytes themselves are deterministic in the assets, so
  concurrent writers publish identical files.
* **Atomic publication.**  Writers assemble a hidden temp directory
  and ``rename`` it into place; readers see either nothing or a
  complete entry, never a half-written one.  Temp directories leaked
  by crashed writers are reaped (age-gated) on store init and by
  ``prune``.
* **Corruption safety.**  :meth:`AssetStore.load` checks the manifest
  and every data page's crc32; any mismatch, truncation, missing file,
  version skew or parse error makes it return ``None`` -- the caller
  refits, it never crashes serving.  :mod:`repro.store.repair` can
  instead salvage the regions whose pages still pass and refit only
  what the damage destroyed.
* **Distinct keys never collide.**  Directory names carry a short hash
  of the exact key, so two cities that sanitize to the same slug
  (``"são paulo"`` vs ``"s_o paulo"``) publish side by side instead of
  evicting each other's entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from threading import Lock

import numpy as np

from repro.core.arrays import CityArrays
from repro.data.dataset import POIDataset
from repro.data.poi import CATEGORIES, Category
from repro.live.mutations import Mutation, mutation_from_dict
from repro.obs import stage
from repro.profiles.schema import ProfileSchema
from repro.profiles.vectors import ItemVectorIndex
from repro.store.segment import Segment, SegmentError, write_segment

#: Bump when the on-disk layout changes; entries of other versions are
#: treated as misses (never best-effort parsed) and pruned as stale.
#: v2: the dataset.json + index.npz + arrays.npz payload became one
#: page-structured ``segment.bin`` hydrated by mmap.
#: v3: keys carry an optional dataset content hash so wire-registered
#: (non-template) cities can persist; ``CityArrays`` exports gained the
#: per-category grid-cell CSR layout used by pruned assembly.
#: v4: ``CityArrays`` exports dropped the per-category grid cells and
#: the city-wide cell buckets; only the columns assembly scores against
#: remain.
#: v5: an entry is a base segment plus an append-only
#: ``journal.ndjson`` of the live mutations applied to it; mutated
#: versions are no longer written back under their content hash.
FORMAT_VERSION = 5

_MANIFEST = "manifest.json"
_SEGMENT = "segment.bin"
_JOURNAL = "journal.ndjson"
_PAYLOAD_FILES = (_SEGMENT,)

#: Temp directories older than this are considered crash litter and
#: reaped on store init / ``prune`` (a healthy writer publishes in
#: well under a minute).
TMP_TTL_S = 3600.0

#: LDA array-state keys persisted per topic model, in region-key order.
_LDA_ARRAY_KEYS = ("doc_topic", "topic_word", "topic_totals")

#: Region-name prefixes inside the segment.
_R_DATASET = "dataset"
_R_META = "meta"
_R_INDEX = "index/"
_R_ARRAYS = "arrays/"

#: Entry directory names end in the format-version tag.
_VERSION_SUFFIX = re.compile(r"-v(\d+)$")


@dataclass(frozen=True)
class StoreKey:
    """The content key one stored entry answers for.

    Template-city assets are deterministic in the four generation
    fields (plus the format version), so the key doubles as the
    directory name and as the equality check a loader performs before
    trusting an entry.  Wire-registered cities carry arbitrary caller
    data instead; their identity is ``dataset_hash`` -- a content hash
    of the dataset JSON -- which makes the fitted artifacts a pure
    function of the key again (LDA is deterministic in the dataset,
    seed and iteration count).
    """

    city: str
    seed: int
    scale: float
    lda_iterations: int
    #: Content hash of a non-template dataset (see
    #: :func:`dataset_content_hash`); ``None`` for template cities,
    #: whose datasets are regenerable from ``(city, seed, scale)``.
    dataset_hash: str | None = None

    def dirname(self) -> str:
        # The slug is for humans; the hash is the identity.  Distinct
        # keys whose cities sanitize to one slug ("são paulo" vs
        # "s_o paulo") must not share a directory, or each saver would
        # treat the other's valid entry as corrupt and replace it --
        # a perpetual eviction thrash.
        slug = re.sub(r"[^a-z0-9_-]+", "_", self.city.lower()) or "city"
        digest = hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()[:8]
        data_tag = f"-d{self.dataset_hash[:8]}" if self.dataset_hash else ""
        return (f"{slug}-seed{self.seed}-scale{self.scale!r}"
                f"-lda{self.lda_iterations}{data_tag}-{digest}"
                f"-v{FORMAT_VERSION}")

    def to_dict(self) -> dict:
        return {"city": self.city.lower(), "seed": self.seed,
                "scale": self.scale, "lda_iterations": self.lda_iterations,
                "dataset_hash": self.dataset_hash,
                "format_version": FORMAT_VERSION}


@dataclass(frozen=True)
class CityAssets:
    """The query-independent artifacts one store entry holds: the base
    city and the journal of mutations applied to it (``None``: unknown,
    and :meth:`AssetStore.save` leaves the stored journal as it is)."""

    dataset: POIDataset
    item_index: ItemVectorIndex
    arrays: CityArrays
    journal: tuple[Mutation, ...] | None = None


def dataset_content_hash(dataset: POIDataset) -> str:
    """The content identity of a non-template dataset.

    A short, stable sha256 of the canonical JSON form -- the same bytes
    the store persists, so a loaded entry's dataset re-hashes to its own
    key.  16 hex chars (64 bits) keeps directory names readable while
    making accidental collision across a store's handful of cities
    astronomically unlikely.
    """
    return hashlib.sha256(
        dataset.to_json().encode("utf-8")
    ).hexdigest()[:16]


def _journal_line(seq: int, mutation: Mutation) -> bytes:
    return (json.dumps({"seq": seq, "mutation": mutation.to_dict()},
                       sort_keys=True) + "\n").encode("utf-8")


def read_journal(path: Path) -> tuple[tuple[Mutation, ...], int]:
    """The longest valid prefix of a journal file, and its length in
    bytes.  A torn or malformed line ends the prefix: a writer killed
    mid-append loses at most the record it was writing."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return (), 0
    records: list[Mutation] = []
    nbytes = 0
    for line in data.splitlines(keepends=True):
        try:
            record = json.loads(line)
            if not line.endswith(b"\n") or record["seq"] != len(records) + 1:
                break
            records.append(mutation_from_dict(record["mutation"]))
        except (ValueError, KeyError, TypeError):
            break
        nbytes += len(line)
    return tuple(records), nbytes


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _tree_bytes(path: Path) -> int:
    total = 0
    for child in path.glob("*"):
        try:
            total += child.stat().st_size
        except OSError:
            pass
    return total


class StoreCorruption(Exception):
    """Internal: an entry exists but cannot be trusted (bad digest,
    missing file, malformed payload).  Never escapes :meth:`load`."""


# -- segment decoding ---------------------------------------------------------
#
# Shared by the load path and by :mod:`repro.store.repair`, which
# salvages these pieces individually when only some regions survive.

def read_meta(segment: Segment) -> dict:
    """The entry's meta region (key echo, schema, LDA hyperparams,
    arrays scalars)."""
    return json.loads(segment.json_bytes(_R_META))


def read_dataset(segment: Segment) -> POIDataset:
    """The dataset JSON region, decoded."""
    return POIDataset.from_json(segment.json_bytes(_R_DATASET).decode("utf-8"))


def restore_index(segment: Segment, dataset: POIDataset,
                  meta: dict) -> ItemVectorIndex:
    """The fitted item-vector index, rebuilt from zero-copy views of
    the ``index/*`` regions (LDA corpora come deterministically from
    ``dataset``)."""
    schema = ProfileSchema.from_dict(meta["schema"])
    category_vectors = {}
    for cat in CATEGORIES:
        category_vectors[cat] = (
            np.asarray(segment.array(f"{_R_INDEX}ids__{cat.value}"),
                       dtype=np.int64),
            np.asarray(segment.array(f"{_R_INDEX}vectors__{cat.value}"),
                       dtype=float),
        )
    topic_states = {}
    for cat_value, params in meta["lda"].items():
        cat = Category.parse(cat_value)
        state = dict(params)
        for name in _LDA_ARRAY_KEYS:
            state[name] = segment.array(f"{_R_INDEX}lda__{cat.value}__{name}")
        topic_states[cat] = state
    return ItemVectorIndex.restore(dataset, schema, category_vectors,
                                   topic_states)


def restore_arrays(segment: Segment, meta: dict) -> CityArrays:
    """The ``CityArrays`` bundle as read-only views of the ``arrays/*``
    regions -- the zero-copy hydration path."""
    return CityArrays.from_export(segment.arrays_with_prefix(_R_ARRAYS),
                                  meta["arrays"])


class AssetStore:
    """A directory of persistent, integrity-checked city assets.

    Args:
        root: Store directory; created (with parents) if absent.
            Stale ``.tmp-*`` litter from crashed writers is reaped on
            init (age-gated by :data:`TMP_TTL_S`).

    Thread- and process-safe for its intended access pattern: many
    concurrent readers, plus writers that only ever publish the same
    deterministic content under one key.  All methods may be called
    from multiple threads; counters are internally locked.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = Lock()
        self._counters = {"hits": 0, "misses": 0, "corrupt": 0,
                          "writes": 0, "write_races": 0, "bytes_mapped": 0,
                          "reaped_tmp": 0, "pruned": 0, "repairs": 0}
        # Entries this store loaded or published, with the journal
        # (records, bytes) it last saw on disk (``None``: unknown).
        self._journals: dict[Path, tuple[int, int] | None] = {}
        try:
            self.reap_tmp()
        except OSError:  # pragma: no cover - init stays best-effort
            pass

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    # -- keys --------------------------------------------------------------

    def key(self, city: str, *, seed: int, scale: float,
            lda_iterations: int,
            dataset_hash: str | None = None) -> StoreKey:
        return StoreKey(city=city.lower(), seed=int(seed),
                        scale=float(scale),
                        lda_iterations=int(lda_iterations),
                        dataset_hash=dataset_hash)

    def path(self, key: StoreKey) -> Path:
        """The directory a key publishes to."""
        return self.root / key.dirname()

    def contains(self, city: str, *, seed: int, scale: float,
                 lda_iterations: int, dataset_hash: str | None = None,
                 verify_digests: bool = False) -> bool:
        """Whether an entry exists for the key.

        The default check is **manifest-only** (parse, key/version
        match, payload files present with their recorded sizes) -- a
        few stat calls, so registry warmup pre-checks cost nothing.
        ``verify_digests=True`` additionally checksums every data page
        and the whole-file sha256, the full ``load``-grade guarantee.
        """
        key = self.key(city, seed=seed, scale=scale,
                       lda_iterations=lda_iterations,
                       dataset_hash=dataset_hash)
        entry = self.path(key)
        try:
            manifest = self._manifest(entry, key)
            if verify_digests:
                self._verify_payload(entry, manifest)
        except StoreCorruption:
            return False
        return True

    def keys(self) -> list[str]:
        """Directory names of published entries (valid or not,
        including stale format versions)."""
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and not p.name.startswith("."))

    def tmp_dirs(self) -> list[Path]:
        """In-flight (or leaked) writer temp directories."""
        return sorted(p for p in self.root.iterdir()
                      if p.is_dir() and p.name.startswith(".tmp-"))

    # -- saving ------------------------------------------------------------

    def save(self, assets: CityAssets, *, city: str, seed: int, scale: float,
             lda_iterations: int, dataset_hash: str | None = None) -> Path:
        """Persist one city's base assets under their content key, then
        bring the entry's journal to ``assets.journal`` (unless ``None``).

        With a journal, for an entry this store loaded or published, a
        save only appends the records the file lacks: no payload, no
        re-hash.  Otherwise the base is published atomically (temp
        directory, then ``rename``) unless a verified entry is there --
        e.g. a concurrent writer won the race; the content is
        deterministic in the key, so both copies are equal.
        Non-template datasets must pass ``dataset_hash`` (see
        :func:`dataset_content_hash`).  Returns the entry's directory.
        """
        key = self.key(city, seed=seed, scale=scale,
                       lda_iterations=lda_iterations,
                       dataset_hash=dataset_hash)
        final = self.path(key)
        try:
            if assets.journal is None or final not in self._journals:
                raise StoreCorruption("not known to hold this base")
            self._manifest(final, key)
        except StoreCorruption:
            self._publish(final, key, assets)
        if assets.journal is not None:
            self._sync_journal(final, assets.journal)
        return final

    def _publish(self, final: Path, key: StoreKey,
                 assets: CityAssets) -> None:
        tmp = self._tmp_path(key)
        tmp.mkdir()
        try:
            with stage("store_write", city=key.city):
                self._write_payload(tmp, key, assets)
            present = final.exists()
            try:
                manifest = self._manifest(final, key)
                self._verify_payload(final, manifest)
            except StoreCorruption:
                if present:
                    # Present and untrustworthy: move it aside in one
                    # atomic rename, then delete it.  A reader racing
                    # this sees the old entry (which it rejects itself)
                    # or nothing; never a blend.  An entry found
                    # missing is never removed: it may be a concurrent
                    # writer's valid entry published since the check.
                    # Its journal moves into the (equal) replacement.
                    aside = self._tmp_path(key)
                    try:
                        os.rename(final, aside)
                        os.replace(aside / _JOURNAL, tmp / _JOURNAL)
                    except OSError:
                        pass  # moved aside by another writer, or no journal
                    shutil.rmtree(aside, ignore_errors=True)
                try:
                    os.rename(tmp, final)
                except OSError:
                    # Another writer published first; the content is
                    # deterministic in the key, so it is equivalent.
                    self._count("write_races")
                else:
                    self._count("writes")
            else:
                self._count("write_races")
        finally:
            if tmp.exists():
                shutil.rmtree(tmp, ignore_errors=True)
        self._journals[final] = None

    def _sync_journal(self, entry: Path,
                      journal: tuple[Mutation, ...]) -> None:
        """Make ``entry``'s journal file hold exactly ``journal``: an
        append of the records past those this store last wrote, once a
        ``stat`` shows the file as it left it; otherwise the file's
        valid prefix is kept if ``journal`` extends it (a torn tail is
        cut) and the file is rewritten if not (a dropped journal)."""
        path = entry / _JOURNAL
        known = self._journals.get(entry)
        self._journals[entry] = None  # unknown until the write lands
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        if known is None or known[1] != size or known[0] > len(journal):
            records, nbytes = read_journal(path)
            if records != journal[:len(records)]:
                records, nbytes = (), 0
            if nbytes != size:
                os.truncate(path, nbytes)
            known = (len(records), nbytes)
        tail = b"".join(_journal_line(seq, mutation) for seq, mutation
                        in enumerate(journal[known[0]:], start=known[0] + 1))
        if tail:
            with path.open("ab") as out:
                out.write(tail)
        self._journals[entry] = (len(journal), known[1] + len(tail))

    def _tmp_path(self, key: StoreKey) -> Path:
        """A fresh hidden ``.tmp-*`` directory name under the root
        (:meth:`reap_tmp` collects any a killed writer leaks)."""
        return self.root / (f".tmp-{key.dirname()}-{os.getpid()}-"
                            f"{uuid.uuid4().hex[:8]}")

    def _write_payload(self, into: Path, key: StoreKey,
                       assets: CityAssets) -> None:
        arrays: dict[str, np.ndarray] = {}
        lda_meta: dict[str, dict] = {}
        for cat, (ids, matrix) in assets.item_index.category_vectors(
                assets.dataset).items():
            arrays[f"{_R_INDEX}ids__{cat.value}"] = ids
            arrays[f"{_R_INDEX}vectors__{cat.value}"] = matrix
        for cat, state in assets.item_index.topic_model_states().items():
            for name in _LDA_ARRAY_KEYS:
                arrays[f"{_R_INDEX}lda__{cat.value}__{name}"] = state[name]
            lda_meta[cat.value] = {
                k: state[k] for k in ("n_topics", "alpha", "beta",
                                      "n_iterations")
            }
        for name, array in assets.arrays.export_arrays().items():
            arrays[f"{_R_ARRAYS}{name}"] = array

        meta = {
            "key": key.to_dict(),
            "schema": assets.item_index.schema.to_dict(),
            "lda": lda_meta,
            "arrays": assets.arrays.export_meta(),
        }
        segment_path = into / _SEGMENT
        write_segment(
            segment_path,
            json_blobs={
                _R_META: json.dumps(meta, sort_keys=True).encode("utf-8"),
                _R_DATASET: assets.dataset.to_json().encode("utf-8"),
            },
            arrays=arrays,
            format_version=FORMAT_VERSION,
        )

        manifest = {
            "format_version": FORMAT_VERSION,
            "key": key.to_dict(),
            "files": {name: {"sha256": _sha256(into / name),
                             "nbytes": (into / name).stat().st_size}
                      for name in _PAYLOAD_FILES},
        }
        (into / _MANIFEST).write_text(json.dumps(manifest, sort_keys=True))

    # -- loading -----------------------------------------------------------

    def _manifest(self, entry: Path, key: StoreKey | None) -> dict:
        """The entry's manifest after the *cheap* integrity checks:
        parse, format version, key echo, payload files present with
        their recorded sizes.  No payload bytes are read.

        Raises :class:`StoreCorruption` on any reason to distrust the
        entry.  ``key=None`` skips the key-echo comparison (lifecycle
        tooling walking unknown entries).
        """
        try:
            manifest = json.loads((entry / _MANIFEST).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreCorruption(f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreCorruption("manifest is not an object")
        if manifest.get("format_version") != FORMAT_VERSION:
            raise StoreCorruption(
                f"format version {manifest.get('format_version')!r} "
                f"!= {FORMAT_VERSION}"
            )
        if key is not None and manifest.get("key") != key.to_dict():
            raise StoreCorruption("manifest key does not match the request")
        files = manifest.get("files")
        if not isinstance(files, dict) or set(files) != set(_PAYLOAD_FILES):
            raise StoreCorruption("manifest file list is malformed")
        for name, record in files.items():
            if not isinstance(record, dict) \
                    or not isinstance(record.get("sha256"), str) \
                    or not isinstance(record.get("nbytes"), int):
                raise StoreCorruption(f"malformed file record for {name}")
            path = entry / name
            if not path.is_file():
                raise StoreCorruption(f"missing payload file {name}")
            try:
                size = path.stat().st_size
            except OSError as exc:
                # Removed since the check above (a writer replacing a
                # corrupt entry): the entry cannot be trusted.
                raise StoreCorruption(f"vanished payload file {name}: "
                                      f"{exc}") from exc
            if size != record["nbytes"]:
                raise StoreCorruption(f"size mismatch on {name}")
        return manifest

    def _verify_payload(self, entry: Path, manifest: dict) -> None:
        """The deep check: every data page's crc32 plus the manifest's
        whole-file sha256.  One sequential read of the segment."""
        try:
            segment = Segment.open(entry / _SEGMENT, verify_pages=True,
                                   expect_version=FORMAT_VERSION)
        except SegmentError as exc:
            raise StoreCorruption(str(exc)) from exc
        del segment
        for name, record in manifest["files"].items():
            if _sha256(entry / name) != record["sha256"]:
                raise StoreCorruption(f"digest mismatch on {name}")

    def load(self, city: str, *, seed: int, scale: float,
             lda_iterations: int,
             dataset_hash: str | None = None) -> CityAssets | None:
        """The assets stored for a key (``journal``: the journal's
        longest valid prefix), or ``None`` -- for the honest miss and
        for every defect (corruption, truncation, version skew, key
        mismatch, unparseable payload): a bad entry degrades to a refit,
        never to an exception on the serving path.  A hit costs one
        crc32 pass over the segment and *zero array copies*: the arrays
        are read-only views onto the shared memory mapping."""
        key = self.key(city, seed=seed, scale=scale,
                       lda_iterations=lda_iterations,
                       dataset_hash=dataset_hash)
        entry = self.path(key)
        if not (entry / _MANIFEST).is_file():
            self._count("misses")
            return None
        try:
            self._manifest(entry, key)
            with stage("store_read", city=city):
                assets, mapped = self._read_payload(entry)
        except StoreCorruption:
            self._journals.pop(entry, None)
            self._count("corrupt")
            return None
        journal, nbytes = read_journal(entry / _JOURNAL)
        self._journals[entry] = (len(journal), nbytes)
        self._count("hits")
        self._count("bytes_mapped", mapped)
        return replace(assets, journal=journal)

    def _read_payload(self, entry: Path) -> tuple[CityAssets, int]:
        try:
            segment = Segment.open(entry / _SEGMENT, verify_pages=True,
                                   expect_version=FORMAT_VERSION)
        except SegmentError as exc:
            raise StoreCorruption(str(exc)) from exc
        try:
            meta = read_meta(segment)
            dataset = read_dataset(segment)
            item_index = restore_index(segment, dataset, meta)
            arrays = restore_arrays(segment, meta)
        except Exception as exc:
            # Anything the decoders throw -- region-shape mismatches,
            # bad JSON, restore() validation -- is corruption by
            # definition here: the page checksums passed, so the
            # *format* contract was broken, and refitting is the only
            # safe answer.
            raise StoreCorruption(f"unreadable payload: {exc}") from exc
        if len(arrays) != len(dataset):
            raise StoreCorruption("arrays bundle does not match the dataset")
        return (CityAssets(dataset=dataset, item_index=item_index,
                           arrays=arrays), segment.nbytes_file)

    # -- lifecycle ---------------------------------------------------------

    def reap_tmp(self, ttl_s: float = TMP_TTL_S,
                 dry_run: bool = False) -> list[str]:
        """Remove writer temp directories older than ``ttl_s``.

        A SIGKILL between payload write and rename leaks the hidden
        ``.tmp-*`` directory forever otherwise -- ``keys()``/``stats()``
        skip dot-dirs, so nothing else would ever notice the disk.
        The age gate keeps live writers (which publish in seconds)
        safe.  Returns the names reaped (or that would be).
        """
        now = time.time()
        reaped: list[str] = []
        for tmp in self.tmp_dirs():
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue
            if age < ttl_s:
                continue
            reaped.append(tmp.name)
            if not dry_run:
                shutil.rmtree(tmp, ignore_errors=True)
        if reaped and not dry_run:
            self._count("reaped_tmp", len(reaped))
        return reaped

    def prune(self, *, max_entries: int | None = None,
              max_bytes: int | None = None, tmp_ttl_s: float = TMP_TTL_S,
              dry_run: bool = False) -> dict:
        """Reclaim disk: stale format versions, crash litter, and --
        when ``max_entries``/``max_bytes`` are set -- least-recently-used
        current entries (by segment atime, falling back to mtime).

        Returns a JSON-ready report of what was (or would be) removed.
        Never touches the entry another process is mid-way through
        publishing: temp directories stay age-gated.
        """
        stale: list[str] = []
        current: list[tuple[float, int, str]] = []  # (last_used, bytes, name)
        for name in self.keys():
            entry = self.root / name
            match = _VERSION_SUFFIX.search(name)
            if match is None or int(match.group(1)) != FORMAT_VERSION:
                stale.append(name)
                continue
            probe = entry / _SEGMENT
            try:
                stat = (probe if probe.is_file() else entry).stat()
                last_used = max(stat.st_atime, stat.st_mtime)
            except OSError:
                last_used = 0.0
            current.append((last_used, _tree_bytes(entry), name))

        current.sort()  # oldest first
        lru: list[str] = []
        kept = len(current)
        kept_bytes = sum(size for _, size, _ in current)
        for last_used, size, name in current:
            over_count = max_entries is not None and kept > max_entries
            over_bytes = max_bytes is not None and kept_bytes > max_bytes
            if not (over_count or over_bytes):
                break
            lru.append(name)
            kept -= 1
            kept_bytes -= size

        freed = 0
        removed = stale + lru
        for name in removed:
            freed += _tree_bytes(self.root / name)
            if not dry_run:
                shutil.rmtree(self.root / name, ignore_errors=True)
        tmp = self.reap_tmp(tmp_ttl_s, dry_run=dry_run)
        if removed and not dry_run:
            self._count("pruned", len(removed))
        return {"stale_version": stale, "lru": lru, "tmp": tmp,
                "kept": kept, "kept_bytes": kept_bytes,
                "freed_bytes": freed, "dry_run": dry_run}

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Counters plus a cheap directory census."""
        entries = self.keys()
        total = sum(_tree_bytes(self.root / name) for name in entries)
        with self._lock:
            counters = dict(self._counters)
        return {"root": str(self.root), "entries": len(entries),
                "disk_bytes": total, **counters}
