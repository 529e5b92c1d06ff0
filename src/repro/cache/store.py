"""The persistent compile-cache store.

Layout::

    <cache root>/
        v<schema>-<repro version>-<cpython cache tag>/   # the "stamp"
            ab/                                          # key[:2] shard
                ab3f...e1.json                           # one entry

The stamp directory bakes the cache schema version, the repro package
version, and the CPython bytecode tag into the path, so upgrading any
of them busts the whole cache without touching individual keys (stale
stamps are ignored by lookups and removed by ``clear``).

Each entry is a JSON document ``{"key", "meta", "artifact_sha",
"artifact"}``; ``artifact_sha`` is verified on load, so a truncated or
hand-poisoned file is detected and treated as a miss (the poisoning
tests assert a recompile, never a mis-link).

Writes are atomic (temp file + ``os.replace``) so concurrent VMs
sharing a cache directory can only ever observe complete entries.

Concurrency: one :class:`CompileCache` instance may be shared by many
threads (the ``repro.server`` sessions all hold the code space's
store).  Atomic writes already make *torn* entries impossible; the
per-key locks (:meth:`CompileCache.key_lock`) additionally make the
load→compile→store sequence exclusive per key, so two concurrent
compilers of the same key serialize and the second becomes a hit
instead of a duplicate compile.  Time spent waiting is accounted in
``lock_wait_seconds`` (surfaced as ``cache.lock_wait_seconds``
telemetry by the opt pipeline).
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
from typing import Any

from repro import __version__
from repro.cache.keys import (
    compile_key,
    environment_payload,
    method_digest,
    program_digest,
    stable_digest,
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
SCHEMA_VERSION = 14


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


class CompileCache:
    """A file-backed, cross-VM-instance compile cache.

    One instance may serve many VMs (or many instances may share one
    directory); all persistent state lives in the filesystem and all
    in-memory state is counters.
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
                entry_pc: int | None = None) -> str:
        """:func:`~repro.cache.keys.compile_key` with its program,
        method and environment digests memoised (on the unit, the
        ``MethodInfo`` and the VM)."""
        program = getattr(vm.unit, "_jxcache_program_digest", None)
        if program is None:
            program = program_digest(vm.unit)
            vm.unit._jxcache_program_digest = program
        info = rm.info
        method = getattr(info, "_jxcache_method_digest", None)
        if method is None:
            method = info._jxcache_method_digest = method_digest(info)
        return compile_key(vm, rm, opt_level, bindings, config, entry_pc,
                           program_dig=program, method_dig=method,
                           env_dig=_environment_digest(vm))

    def _path(self, key: str) -> Path:
        return self.dir / key[:2] / f"{key}.json"

    # -- entry I/O ----------------------------------------------------------

    def load(self, key: str) -> dict | None:
        """Return the entry's artifact dict, or None for a miss.

        Every failure mode — absent file, malformed JSON, wrong key,
        checksum mismatch — is a miss; a stale or corrupt entry is
        never linked.
        """
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        artifact = entry.get("artifact")
        if artifact is None:
            return None
        if entry.get("artifact_sha") != stable_digest(artifact):
            return None
        return artifact

    def store(self, key: str, artifact: dict, meta: dict) -> None:
        """Atomically persist one entry (best-effort: cache I/O errors
        never fail a compile)."""
        path = self._path(key)
        entry = {
            "key": key,
            "meta": meta,
            "artifact_sha": stable_digest(artifact),
            "artifact": artifact,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.stores += 1
        except OSError:
            pass

    # -- maintenance --------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry (all stamps, including stale ones);
        returns the number of entry files removed."""
        removed = 0
        if self.root.is_dir():
            for stamp_dir in list(self.root.iterdir()):
                if not stamp_dir.is_dir() or not stamp_dir.name.startswith("v"):
                    continue
                removed += sum(
                    1 for _ in stamp_dir.glob("*/*.json")
                )
                shutil.rmtree(stamp_dir, ignore_errors=True)
        return removed

    def stats(self) -> dict:
        """Aggregate persistent + session statistics."""
        entries = 0
        total_bytes = 0
        by_tier: dict[str, int] = {}
        stale_entries = 0
        if self.root.is_dir():
            for stamp_dir in self.root.iterdir():
                if not stamp_dir.is_dir():
                    continue
                current = stamp_dir.name == self.dir.name
                for path in stamp_dir.glob("*/*.json"):
                    if not current:
                        stale_entries += 1
                        continue
                    entries += 1
                    try:
                        total_bytes += path.stat().st_size
                        with open(path, encoding="utf-8") as handle:
                            meta = json.load(handle).get("meta", {})
                        if meta.get("special"):
                            tier = "special"
                        elif meta.get("osr_pc") is not None:
                            tier = "osr"
                        else:
                            tier = f"opt{meta.get('opt_level', '?')}"
                        by_tier[tier] = by_tier.get(tier, 0) + 1
                    except (OSError, ValueError):
                        continue
        lookups = self.hits + self.misses
        return {
            "dir": str(self.dir),
            "entries": entries,
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
