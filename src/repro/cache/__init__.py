"""repro.cache — the persistent specialization compile cache.

Memoizes opt1/opt2 and state-specialized (special-TIB) compilation
across VM instances: generated Python source is keyed by a stable
digest of everything that can change it (program bytecode,
method, opt tier, state-field bindings, opt-pass config, mutation
environment) and re-linked against the loading VM's JTOC/TIB world.

Usage::

    from repro import VM, compile_source
    from repro.cache import CompileCache

    cache = CompileCache("~/.jxcache")          # or VM(..., compile_cache=path)
    vm = VM(compile_source(src), compile_cache=cache)

The ``JX_CACHE_DIR`` environment variable enables the cache for every
VM that is not explicitly given one (used by the CI warm-start job).
"""

from repro.cache.artifact import UnlinkableArtifact
from repro.cache.keys import compile_key, method_digest, program_digest
from repro.cache.store import SCHEMA_VERSION, CompileCache, cache_stamp

__all__ = [
    "CompileCache",
    "SCHEMA_VERSION",
    "UnlinkableArtifact",
    "cache_stamp",
    "compile_key",
    "method_digest",
    "program_digest",
]
