"""The persistent compile-cache store.

Layout::

    <cache root>/
        v<schema>-<repro version>-<cpython cache tag>/   # the "stamp"
            <program digest[:16]>-<random>.pack          # one flush

The stamp directory bakes the cache schema version, the repro package
version, and the CPython bytecode tag into the path, so upgrading any
of them busts the whole cache without touching individual keys (stale
stamps are ignored by lookups and removed by ``clear``).

A pack holds one entry per line: the key, a space, and the JSON
document ``{"key", "meta", "artifact_sha", "artifact"}``.  Its name
starts with the digest of the program its keys commit to (see
:mod:`repro.cache.keys`), so a lookup reads only its own program's
packs however many programs share the directory; a key that
:meth:`CompileCache.key_for` did not make has the empty program.
``artifact_sha`` is verified on load, so a truncated or hand-poisoned
entry is detected and treated as a miss (the poisoning tests assert a
recompile, never a mis-link), while the other entries of its pack
still hit.

Writes are behind and atomic.  :meth:`CompileCache.store` serializes
the entry and keeps only that text in memory, where
:meth:`~CompileCache.load` on the same instance sees it at once.
:meth:`CompileCache.flush` writes every entry stored since the last
flush as one pack per program (a VM runs one) — one temp file, one
``os.replace`` — and drops the texts; the VM flushes when its outermost
:meth:`~repro.vm.runtime.VM.call_static` returns or raises.  Other
instances and processes see the entries once the pack lands: a lookup
that misses re-lists the stamp directory and reads its program's packs
that this instance has not read yet into its index (key -> entry
texts), so each pack is read at most once per instance, and a hit
parses only its own entry.  A key in two packs (two processes compiled
it at once) links from any valid copy.

Concurrency: one :class:`CompileCache` instance may be shared by many
threads (the ``repro.server`` sessions all hold the code space's
store).  Flushes and directory reads of one instance take turns under
one lock, and a flushed entry stays in memory until its pack has
landed, so no lookup can fall between the two.  The per-key locks
(:meth:`CompileCache.key_lock`) make the load→compile→store sequence
exclusive per key, so two concurrent compilers of the same key
serialize and the second becomes a hit instead of a duplicate compile.
Time spent waiting is accounted in ``lock_wait_seconds`` (surfaced as
``cache.lock_wait_seconds`` telemetry by the opt pipeline).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable

from repro import __version__
from repro.cache.keys import (
    compile_key,
    environment_payload,
    program_digest,
    stable_digest,
    unit_method_digest,
)

#: Bump when the artifact or key format changes incompatibly.
#: v2: unified swap accounting — generated code counts swaps on
#: ``vm.mutation_stats`` (pin kind ``mutation_stats``); v1 artifacts
#: wrote ``manager.tib_swaps``, a counter that no longer exists.
#: v3: interpreter quickening — quickened bodies and inline-cache cells
#: are runtime-only and are never persisted (``method_digest`` reads the
#: pristine ``info.code``), but the stamp is bumped defensively so no
#: pre-quickening artifact can ever co-mingle with this runtime.
#: v4: analysis-audit environment — ``environment_payload`` gained the
#: ``analysis`` entry (audit flag + downgraded classes), changing every
#: compile key's shape.
#: v5: per-session swap accounting — opt2's inline hook counting
#: reads ``vm.mutation_stats`` at runtime instead of pinning the
#: compiling VM's stats record, so shared-code-space sessions charge
#: themselves; v4 artifacts carry the old pinned form.
#: v6: on-stack replacement — specialized artifacts may carry
#: ``deoptcheck`` guards with ``special_tib``/``osr_deopt`` pins, the
#: opt1 IR serializer gained the ``pc``/``live`` Extra fields, and
#: ``environment_payload`` gained the ``osr`` entry.
#: v7: specialization sharing + memoization — ``environment_payload``
#: gained the ``spec_share``/``memo`` entries (sharing merges special
#: TIBs, memoization suppresses the inline swap fast path), and shared
#: bodies are stored once under the compiling (leader) state's key —
#: aliased states never consult the cache.
#: v8: shape-based packed layouts — field slots are renumbered by
#: packing, unboxed constants fold field reads, pinned state fields
#: emit guarded/rematerializing accessors, and ``environment_payload``
#: gained the ``shapes`` entry; v7 artifacts embed declared slot
#: indices.
#: v9: translation validation — ``environment_payload`` gained the
#: ``tv`` entry (toggle + the sorted enforcement-downgrade record), so
#: a cache hit never resurrects a body the validator refused to run in
#: the populating build; v8 artifacts carry no verdict digest.
#: v10: opt1 emits generated Python code like opt2 — its artifacts
#: share the opt2 format (source, marshalled code, pins) plus a
#: ``code_bytes`` field for both tiers; v9 opt1 entries held serialized
#: IR for the retired IR interpreter.
#: v11: OSR continuations are cached — ``compile_key`` gained the
#: ``entry_pc`` field, the key carries the environment's digest instead
#: of its rendering, the opt config renders the budget-gate flag, and
#: entry ``meta`` records ``osr_pc``.
#: v12: specialization sharing, memoization and the opt budget gate are
#: gone — ``environment_payload`` dropped its ``spec_share``/``memo``
#: entries, the opt config no longer renders the gate flag, and opt2
#: inline swaps no longer bump a memo epoch.
#: v13: hot-state pinning and constant unboxing are gone — every field
#: access indexes its linker slot, opt2 inlines the swap of every
#: single-state-field class, and ``environment_payload`` dropped its
#: ``shapes`` entry.
#: v14: every hooked state write re-evaluates (Fig. 4) — each carries
#: the manager's one instance hook, so the counting-only hook and its
#: pin kind are gone; ``environment_payload`` dropped the toggle that
#: chose between the two hooks, and its ``analysis`` entry dropped the
#: audit on/off flag (the audit always runs).
#: v15: write-behind packs — a stamp directory holds one pack file per
#: flush and program, one entry per line, named after the program
#: digest its keys commit to, instead of one file per entry under
#: two-hex-digit shard directories; and the key carries the opt
#: config's digest instead of its rendering, as it does the
#: environment's.
#: v16: ``InlineConfig.max_depth`` is gone (every depth of 1 or more
#: built the same IR), so the opt config's digest changed.
SCHEMA_VERSION = 16

_PACK_SUFFIX = ".pack"
#: A pack's name starts with this many hex digits of its program digest.
_PROGRAM_PREFIX = 16


def cache_stamp() -> str:
    """The versioned subdirectory name for entries this build can use."""
    return f"v{SCHEMA_VERSION}-{__version__}-{sys.implementation.cache_tag}"


def _environment_digest(vm: Any) -> str:
    """The digest of :func:`~repro.cache.keys.environment_payload`,
    memoised on the VM.  After construction only three of its inputs
    change: the mutation manager (online activation attaches one
    mid-run), the attach-time audit's downgraded classes, and TV's
    downgrade record (TV can downgrade mid-run).  They are the memo's
    token, so a change to any of them recomputes the digest."""
    manager = getattr(vm, "mutation_manager", None)
    token = (
        manager,
        tuple(getattr(vm, "tv_downgrades", None) or ()),
        tuple(manager.downgraded_classes) if manager is not None else (),
    )
    memo = getattr(vm, "_jxcache_env", None)
    if memo is None or memo[0] != token:
        memo = vm._jxcache_env = (
            token, stable_digest(environment_payload(vm))
        )
    return memo[1]


def read_pack(path: Path) -> list[tuple[str, str]]:
    """``(key, entry text)`` for each line of one pack file.  Bytes that
    do not decode become replacement characters, so damage to one
    entry makes only that entry fail its checks.  Raises ``OSError``
    when the file cannot be read."""
    with open(path, encoding="utf-8", errors="replace",
              newline="\n") as handle:
        pairs = []
        for line in handle:
            key, _, text = line.rstrip("\n").partition(" ")
            pairs.append((key, text))
        return pairs


def write_pack(path: Path, entries: Iterable[tuple[str, str]]) -> None:
    """Atomically write ``(key, entry text)`` pairs to ``path``: one temp
    file in its directory, then one ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for key, text in entries:
                handle.write(f"{key} {text}\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _checked_artifact(key: str, text: str) -> dict | None:
    """The artifact of one entry text, or None unless the text parses,
    names ``key`` and matches its checksum."""
    try:
        entry = json.loads(text)
    except ValueError:
        return None
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    artifact = entry.get("artifact")
    if artifact is None:
        return None
    if entry.get("artifact_sha") != stable_digest(artifact):
        return None
    return artifact


def _entries_on_disk(stamp_dir: Path) -> dict[str, str]:
    """``key -> entry text`` for every entry under one stamp directory
    (the first copy of a key wins).  Stamps before v15 kept one file
    per entry in two-hex-digit shards; those count by name, textless."""
    entries: dict[str, str] = {}
    for path in stamp_dir.glob("*" + _PACK_SUFFIX):
        try:
            pairs = read_pack(path)
        except OSError:
            continue
        for key, text in pairs:
            entries.setdefault(key, text)
    for path in stamp_dir.glob("*/*.json"):
        entries.setdefault(path.stem, "")
    return entries


class CompileCache:
    """A file-backed, cross-VM-instance compile cache.

    One instance may serve many VMs (or many instances may share one
    directory).  Persistent state lives in the stamp directory's packs;
    in memory are counters, the entries stored since the last flush,
    and the entries of the packs read so far.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.dir = self.root / cache_stamp()
        # Session counters (per CompileCache instance, not persisted).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.link_errors = 0
        self.uncacheable = 0
        #: Aggregate seconds threads spent waiting on per-key locks.
        self.lock_wait_seconds = 0.0
        self.lock_waits = 0
        # Per-key lock registry: the registry lock only guards the dict;
        # key locks are held across a whole load→compile→store sequence.
        self._registry_lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        #: key -> entry text stored since the last flush.
        self._pending: dict[str, str] = {}
        #: key -> the text of each copy of its entry in the packs read
        #: so far.
        self._index: dict[str, list[str]] = {}
        self._packs_read: set[str] = set()
        #: key -> the program-digest prefix of every key :meth:`key_for`
        #: made, which names the packs its entry is written to and read
        #: from.
        self._program_of: dict[str, str] = {}
        #: Serializes flushes and pack reads.
        self._io_lock = threading.Lock()

    # -- concurrency --------------------------------------------------------

    @contextmanager
    def key_lock(self, key: str):
        """Exclusive section for one cache key.

        Yields the seconds this thread waited to acquire the lock (0.0
        on the uncontended path).  Callers wrap load→compile→store so
        concurrent sessions never recompile the same key twice and
        never observe a torn entry; waits accumulate into
        ``lock_wait_seconds``.
        """
        with self._registry_lock:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
        waited = 0.0
        if not lock.acquire(blocking=False):
            start = time.perf_counter()
            lock.acquire()
            waited = time.perf_counter() - start
            with self._registry_lock:
                self.lock_wait_seconds += waited
                self.lock_waits += 1
        try:
            yield waited
        finally:
            lock.release()

    # -- keys ---------------------------------------------------------------

    def key_for(self, vm: Any, rm: Any, opt_level: int,
                bindings: Any, config: Any,
                entry_pc: int | None = None,
                config_dig: str | None = None) -> str:
        """:func:`~repro.cache.keys.compile_key` with its program,
        method and environment digests memoised (on the unit, the
        ``MethodInfo`` and the VM); the caller passes the opt config's
        digest it memoised (:attr:`OptCompiler.config_digest`)."""
        program = getattr(vm.unit, "_jxcache_program_digest", None)
        if program is None:
            program = program_digest(vm.unit)
            vm.unit._jxcache_program_digest = program
        info = rm.info
        method = getattr(info, "_jxcache_method_digest", None)
        if method is None:
            method = info._jxcache_method_digest = unit_method_digest(
                vm.unit, info
            )
        key = compile_key(vm, rm, opt_level, bindings, config, entry_pc,
                          program_dig=program, method_dig=method,
                          env_dig=_environment_digest(vm),
                          config_dig=config_dig)
        self._program_of[key] = program[:_PROGRAM_PREFIX]
        return key

    # -- entry I/O ----------------------------------------------------------

    def load(self, key: str) -> dict | None:
        """Return the entry's artifact dict, or None for a miss.

        Looks in the entries stored since the last flush, then in the
        packs read so far, and on a miss indexes the packs that landed
        since.  Every failure mode — absent entry, malformed JSON, wrong
        key, checksum mismatch — is a miss; a stale or corrupt entry is
        never linked.
        """
        text = self._pending.get(key)
        if text is not None:
            return _checked_artifact(key, text)
        artifact = self._load_indexed(key)
        if artifact is None and self._read_new_packs(
            self._program_of.get(key, "")
        ):
            artifact = self._load_indexed(key)
        return artifact

    def _load_indexed(self, key: str) -> dict | None:
        for text in self._index.get(key, ()):
            artifact = _checked_artifact(key, text)
            if artifact is not None:
                return artifact
        return None

    def _read_new_packs(self, program: str) -> bool:
        """Index the stamp directory's packs of ``program`` (a key's
        program-digest prefix) that this instance has not read yet;
        returns whether there were any.  I/O errors read as an empty
        directory."""
        prefix = f"{program}-"
        with self._io_lock:
            try:
                names = [
                    name for name in os.listdir(self.dir)
                    if name.startswith(prefix)
                    and name.endswith(_PACK_SUFFIX)
                    and name not in self._packs_read
                ]
            except OSError:
                return False
            for name in names:
                self._packs_read.add(name)
                try:
                    pairs = read_pack(self.dir / name)
                except OSError:
                    continue
                for key, text in pairs:
                    self._index.setdefault(key, []).append(text)
            return bool(names)

    def store(self, key: str, artifact: dict, meta: dict) -> None:
        """Serialize one entry and keep it until the next :meth:`flush`;
        :meth:`load` on this instance sees it at once."""
        self._pending[key] = json.dumps({
            "key": key,
            "meta": meta,
            "artifact_sha": stable_digest(artifact),
            "artifact": artifact,
        }, separators=(",", ":"))

    def flush(self) -> None:
        """Write every entry stored since the last flush as one pack per
        program and count them in ``stores`` (best-effort: an I/O error
        drops the entries and never fails the run).  The entries stay
        visible to :meth:`load` until their pack has landed."""
        if not self._pending:
            return
        with self._io_lock:
            batch = list(self._pending.items())
            by_program: dict[str, list[tuple[str, str]]] = {}
            for key, text in batch:
                program = self._program_of.get(key, "")
                by_program.setdefault(program, []).append((key, text))
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
                for program, entries in by_program.items():
                    name = f"{program}-{os.urandom(16).hex()}{_PACK_SUFFIX}"
                    write_pack(self.dir / name, entries)
                    self.stores += len(entries)
            except OSError:
                pass
            for key, _ in batch:
                del self._pending[key]

    # -- maintenance --------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry (all stamps, including stale ones, and the
        entries not flushed yet); returns the number of entries removed
        from disk."""
        with self._io_lock:
            self._pending.clear()
            self._index.clear()
            self._packs_read.clear()
        removed = 0
        if self.root.is_dir():
            for stamp_dir in list(self.root.iterdir()):
                if not stamp_dir.is_dir() or not stamp_dir.name.startswith("v"):
                    continue
                removed += len(_entries_on_disk(stamp_dir))
                shutil.rmtree(stamp_dir, ignore_errors=True)
        return removed

    def stats(self) -> dict:
        """Aggregate persistent + session statistics."""
        entries = 0
        packs = 0
        total_bytes = 0
        by_tier: dict[str, int] = {}
        stale_entries = 0
        if self.root.is_dir():
            for stamp_dir in self.root.iterdir():
                if not stamp_dir.is_dir():
                    continue
                on_disk = _entries_on_disk(stamp_dir)
                if stamp_dir.name != self.dir.name:
                    stale_entries += len(on_disk)
                    continue
                entries = len(on_disk)
                for path in stamp_dir.glob("*" + _PACK_SUFFIX):
                    packs += 1
                    try:
                        total_bytes += path.stat().st_size
                    except OSError:
                        continue
                for text in on_disk.values():
                    try:
                        meta = json.loads(text).get("meta", {})
                    except (ValueError, AttributeError):
                        continue
                    if meta.get("special"):
                        tier = "special"
                    elif meta.get("osr_pc") is not None:
                        tier = "osr"
                    else:
                        tier = f"opt{meta.get('opt_level', '?')}"
                    by_tier[tier] = by_tier.get(tier, 0) + 1
        lookups = self.hits + self.misses
        return {
            "dir": str(self.dir),
            "entries": entries,
            "packs": packs,
            "stale_entries": stale_entries,
            "bytes": total_bytes,
            "by_tier": by_tier,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "link_errors": self.link_errors,
                "uncacheable": self.uncacheable,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "lock_waits": self.lock_waits,
                "lock_wait_seconds": self.lock_wait_seconds,
            },
        }

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return (self.hits / lookups) if lookups else 0.0

    def __repr__(self) -> str:
        return (
            f"<CompileCache {self.dir} hits={self.hits} "
            f"misses={self.misses}>"
        )
