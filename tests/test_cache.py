"""Compile-cache unit tests: key invalidation is correct by
construction, poisoned entries recompile (never mis-link), and the
store/stats/clear/CLI surface behaves.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import VM, compile_source
from repro.cache import CompileCache, cache_stamp, compile_key
from repro.cache.keys import method_digest, program_digest, stable_digest
from repro.harness.cli import main as cli_main
from repro.mutation import build_mutation_plan
from repro.opt.pipeline import OptConfig
from repro.opt.specialize import SpecBindings
from repro.vm.values import VMRuntimeError
from repro.workloads import get_workload
from tests.helpers import (
    AGGRESSIVE,
    INTERP_ONLY,
    OPT1_ONLY,
    cache_entries,
    rewrite_cache_entries,
)

LOOP = """
class Main {
    static int work(int n) {
        int total = 0;
        for (int i = 0; i < n; i++) { total += i * 3 - 1; }
        return total;
    }
    static void main() {
        int acc = 0;
        for (int r = 0; r < 200; r++) { acc += work(40); }
        Sys.print("" + acc);
    }
}
"""

#: Same shape, one constant changed in a callee body.
LOOP_VARIANT = LOOP.replace("i * 3 - 1", "i * 3 - 2")


def _vm(source=LOOP, **kwargs):
    kwargs.setdefault("adaptive_config", INTERP_ONLY)
    return VM(compile_source(source), **kwargs)


def _key(vm, config=None, bindings=None, opt_level=2, method="work"):
    rm = vm.classes["Main"].own_methods[method]
    return compile_key(vm, rm, opt_level, bindings, config or OptConfig())


# -- key invalidation --------------------------------------------------------

def test_identical_request_identical_key():
    assert _key(_vm()) == _key(_vm())


def test_bytecode_change_changes_key():
    """Even a change in a *callee* splits the key (opt2 inlines
    transitively, so the key commits to the whole program)."""
    assert _key(_vm()) != _key(_vm(LOOP_VARIANT))
    assert program_digest(_vm().unit) != program_digest(_vm(LOOP_VARIANT).unit)


def test_method_digest_tracks_only_that_method():
    a, b = _vm(), _vm(LOOP_VARIANT)
    assert method_digest(a.classes["Main"].own_methods["work"].info) != \
        method_digest(b.classes["Main"].own_methods["work"].info)
    assert method_digest(a.classes["Main"].own_methods["main"].info) == \
        method_digest(b.classes["Main"].own_methods["main"].info)


def test_stdlib_digests_equal_a_full_render():
    """Program and method digests reuse the stdlib renders made once per
    process, and each still equals a full fresh render of the unit, once
    linked and again after a run (with a plan on salarydb), so no compile
    key changes."""
    from repro.cache.keys import (
        _class_payload, _method_payload, unit_method_digest,
    )

    for name, scale in (("salarydb", 0.05), ("simlogic", 0.02),
                        ("csvtoxml", 0.02), ("java2xhtml", 0.01),
                        ("weka", 0.05), ("jbb2000", 0.02),
                        ("jbb2005", 0.02)):
        spec = get_workload(name)
        source = spec.source(scale)
        entry = dict(entry_class=spec.entry_class,
                     entry_method=spec.entry_method)
        plan = (build_mutation_plan(source, **entry)
                if name == "salarydb" else None)
        vm = VM(compile_source(source, **entry), mutation_plan=plan)
        unit = vm.unit
        assert {"Object", "Sys"} <= unit.stdlib_names
        for _ in range(2):
            assert program_digest(unit) == stable_digest([
                [unit.entry_class, unit.entry_method],
                sorted((_class_payload(c) for c in unit.classes.values()),
                       key=lambda row: row[0]),
            ]), name
            for cls in unit.classes.values():
                for m in cls.methods.values():
                    assert unit_method_digest(unit, m) == \
                        stable_digest(_method_payload(m)), m.qualified_name
            vm.run()


def test_opt_level_and_config_change_key():
    vm = _vm()
    assert _key(vm, opt_level=1) != _key(vm, opt_level=2)
    assert _key(vm, config=OptConfig(max_iterations=3)) != _key(vm)


def test_state_bindings_change_key():
    vm = _vm()
    b0 = SpecBindings(instance={3: 0}, label="grade=0")
    b1 = SpecBindings(instance={3: 1}, label="grade=1")
    general = _key(vm)
    assert _key(vm, bindings=b0) != general
    assert _key(vm, bindings=b0) != _key(vm, bindings=b1)
    # The label is diagnostic only — same slots+values, same key.
    assert _key(vm, bindings=SpecBindings(instance={3: 0}, label="x")) == \
        _key(vm, bindings=b0)


def test_telemetry_attachment_changes_key():
    """Telemetry selects instrumented hook closures, so its presence is
    part of the environment digest."""
    assert _key(_vm()) != _key(_vm(telemetry=True))


def test_shapes_flag_is_inert():
    """``VMConfig.shapes`` steers nothing: compile keys, output and heap
    numbers are the same with it on and off."""
    from repro import VMConfig
    from tests.test_analysis import SALARY

    plan = build_mutation_plan(SALARY)
    vms = [
        VM(compile_source(SALARY), mutation_plan=plan,
           adaptive_config=AGGRESSIVE, config=VMConfig(shapes=flag))
        for flag in (True, False)
    ]
    on, off = (
        [compile_key(vm, rm, 2, None, OptConfig())
         for rm in vm.all_runtime_methods()]
        for vm in vms
    )
    assert on == off
    assert vms[0].run().output == vms[1].run().output
    assert vms[0].heap == vms[1].heap
    assert vms[0].heap.objects_allocated > 0


def test_tv_downgrade_after_first_key_changes_later_keys(tmp_path):
    """``key_for`` memoises the environment digest on the VM; a TV
    downgrade recorded mid-run still reaches every later key."""
    from repro.analysis.tv import _record_downgrade

    vm = _vm()
    cache = CompileCache(tmp_path)
    rm = vm.classes["Main"].own_methods["work"]
    config = OptConfig()
    first = cache.key_for(vm, rm, 2, None, config)
    assert first == _key(vm)
    assert cache.key_for(vm, rm, 2, None, config) == first
    _record_downgrade(vm, "osr", "Main.work@4", "unprovable")
    later = cache.key_for(vm, rm, 2, None, config)
    assert later != first
    assert later == _key(vm)


def test_quickening_downgrade_keeps_every_compile_key(tmp_path, monkeypatch):
    """No compile reads ``quick_code``, so TV refusing a quickened body
    mid-run must not re-key any compile."""
    import repro.analysis.tv as tv_mod
    from repro import VMConfig
    from repro.analysis.findings import Finding

    vm = _vm(config=VMConfig(quicken=True, tv=True))
    cache = CompileCache(tmp_path)
    config = OptConfig()
    methods = vm.all_runtime_methods()

    def keys():
        return [cache.key_for(vm, rm, 2, None, config) for rm in methods]

    before = keys()
    direct = _key(vm)
    monkeypatch.setattr(
        tv_mod, "validate_quick_method",
        lambda rm, quick=None: [
            Finding("tv-quicken", "Main.work", 0, "Main.work", "forced")
        ],
    )
    vm.run()
    work = vm.classes["Main"].own_methods["work"]
    assert work.quick_tried and work.quick_code is None
    assert "quicken:Main.work" in vm.tv_downgrades
    assert keys() == before
    assert _key(vm) == direct


# -- store behavior ----------------------------------------------------------

def test_store_load_roundtrip_and_checksum(tmp_path):
    cache = CompileCache(tmp_path)
    artifact = {"kind": "opt2", "fn_name": "_jx", "source": "def _jx(vm, args): return 7\n", "pins": []}
    cache.store("ab" + "0" * 62, artifact, meta={"opt_level": 2})
    assert cache.load("ab" + "0" * 62) == artifact
    assert cache.load("cd" + "0" * 62) is None  # absent = miss


def test_poisoned_entry_is_a_miss_and_recompiles(tmp_path):
    """Flip bytes in a stored entry: the checksum rejects it and the VM
    recompiles from scratch with identical output."""
    cache_dir = tmp_path / "jxcache"
    out_cold = _vm(adaptive_config=AGGRESSIVE,
                   compile_cache=str(cache_dir)).run().output

    def poison(text):
        entry = json.loads(text)
        if "source" in entry["artifact"]:
            entry["artifact"]["source"] = "def _jx(vm, args): return 666\n"
        entry["artifact"]["poisoned"] = True
        return json.dumps(entry)  # sha now stale on purpose

    assert rewrite_cache_entries(cache_dir, poison)

    vm = _vm(adaptive_config=AGGRESSIVE, compile_cache=str(cache_dir))
    assert vm.run().output == out_cold
    assert vm.compile_cache.hits == 0  # every poisoned entry rejected
    assert vm.compile_cache.misses > 0


def test_truncated_entry_is_a_miss(tmp_path):
    cache_dir = tmp_path / "jxcache"
    _vm(adaptive_config=AGGRESSIVE, compile_cache=str(cache_dir)).run()
    rewrite_cache_entries(cache_dir, lambda text: text[: len(text) // 2])
    vm = _vm(adaptive_config=AGGRESSIVE, compile_cache=str(cache_dir))
    out = vm.run().output
    assert vm.compile_cache.hits == 0
    assert out == _vm(adaptive_config=AGGRESSIVE).run().output


def test_version_stamp_isolates_entries(tmp_path):
    """Entries from another VM version live in a different stamp
    directory: invisible to lookups, counted as stale, removed by
    clear()."""
    cache = CompileCache(tmp_path)
    other = tmp_path / "v0-0.0.1-cpython-000" / "ab"
    other.mkdir(parents=True)
    (other / ("ab" + "0" * 62 + ".json")).write_text("{}")
    assert cache.load("ab" + "0" * 62) is None
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["stale_entries"] == 1
    assert cache.clear() == 1
    assert not (tmp_path / "v0-0.0.1-cpython-000").exists()


def test_opt1_warm_start_links_every_method_from_cache(tmp_path):
    """opt1 shares opt2's artifact path: a warm start relinks every
    opt1 method from its cached code object."""
    cache_dir = str(tmp_path / "jxcache")
    cold = _vm(adaptive_config=OPT1_ONLY, compile_cache=cache_dir)
    out_cold = cold.run().output
    assert cold.compile_cache.stores > 0
    warm = _vm(adaptive_config=OPT1_ONLY, compile_cache=cache_dir)
    assert warm.run().output == out_cold
    assert warm.compile_cache.hit_rate == 1.0
    opt1 = [
        rm.compiled
        for rc in warm.classes.values()
        for rm in rc.own_methods.values()
        if getattr(rm.compiled, "opt_level", 0) == 1
    ]
    assert opt1 and all(getattr(cm, "from_cache", False) for cm in opt1)
    assert all(cm.source_text for cm in opt1)
    assert (warm.compile_stats.total_code_bytes
            == cold.compile_stats.total_code_bytes)


def test_schema_v9_opt1_ir_entry_is_a_miss(tmp_path):
    """Before schema v10 an opt1 entry held serialized IR.  Such an
    entry is stale by stamp, and even one planted under a current key
    is a counted link error and a recompile, never a crash."""
    assert cache_stamp().startswith("v16-")
    cache_dir = tmp_path / "jxcache"
    out_cold = _vm(adaptive_config=OPT1_ONLY,
                   compile_cache=str(cache_dir)).run().output
    ir_entry = {
        "kind": "opt1",
        "ir": {
            "name": "Main.work", "num_args": 1, "max_locals": 3,
            "returns_value": True, "entry": 0, "next_block_id": 1,
            "param_kinds": [],
            "blocks": {"0": [{"op": "ret", "dest": None,
                              "args": [{"c": 7}], "extra": {},
                              "line": 0}]},
        },
    }
    def plant(text):
        entry = json.loads(text)
        entry["artifact"] = ir_entry
        entry["artifact_sha"] = stable_digest(ir_entry)
        return json.dumps(entry)

    entries = rewrite_cache_entries(cache_dir, plant)
    assert entries
    vm = _vm(adaptive_config=OPT1_ONLY, compile_cache=str(cache_dir))
    assert vm.run().output == out_cold
    assert vm.compile_cache.hits == 0
    assert vm.compile_cache.link_errors == entries


def test_stats_counts_by_tier(tmp_path):
    cache_dir = tmp_path / "jxcache"
    plan = build_mutation_plan(LOOP)
    vm = VM(compile_source(LOOP), mutation_plan=plan,
            adaptive_config=AGGRESSIVE, compile_cache=str(cache_dir))
    vm.run()
    stats = vm.compile_cache.stats()
    assert stats["entries"] == vm.compile_cache.stores
    assert stats["bytes"] > 0
    assert sum(stats["by_tier"].values()) == stats["entries"]
    assert cache_stamp() in stats["dir"]
    # OSR continuations are stored at opt2 but reported as their own
    # tier (none exist when OSR is switched off).
    continuations = sum(
        1
        for rc in vm.classes.values()
        for rm in rc.own_methods.values()
        for entry in (rm.osr_entries or {}).values()
        if entry
    )
    assert stats["by_tier"].get("osr", 0) == continuations
    assert stats["by_tier"].get("opt2", 0) == sum(
        1
        for rc in vm.classes.values()
        for rm in rc.own_methods.values()
        if getattr(rm.compiled, "opt_level", 0) == 2
    )


def test_jx_cache_dir_env_enables_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("JX_CACHE_DIR", str(tmp_path / "envcache"))
    vm = _vm(adaptive_config=AGGRESSIVE)
    vm.run()
    assert vm.compile_cache is not None
    assert vm.compile_cache.stores > 0
    monkeypatch.delenv("JX_CACHE_DIR")
    assert _vm().compile_cache is None


# -- write-behind packs ------------------------------------------------------

def test_cold_jbb2000_run_writes_one_pack(tmp_path):
    """A cold run writes its entries as one pack: no per-entry files and
    no shard directories."""
    spec = get_workload("jbb2000")
    plan = build_mutation_plan(spec.profile_source(),
                               entry_class=spec.entry_class,
                               entry_method=spec.entry_method)
    unit = compile_source(spec.source(0.02), entry_class=spec.entry_class,
                          entry_method=spec.entry_method)
    vm = VM(unit, mutation_plan=plan, compile_cache=str(tmp_path))
    vm.run()
    (stamp,) = tmp_path.iterdir()
    assert stamp.name == cache_stamp()
    (pack,) = stamp.iterdir()
    assert pack.suffix == ".pack" and pack.is_file()
    stats = vm.compile_cache.stats()
    assert stats["packs"] == 1
    assert stats["entries"] == vm.compile_cache.stores > 0


def test_child_process_warm_starts_from_a_flushed_pack(tmp_path):
    cache_dir = tmp_path / "jxcache"
    out_cold = _vm(adaptive_config=AGGRESSIVE,
                   compile_cache=str(cache_dir)).run().output
    child = """
import json, sys
from repro import VM, AdaptiveConfig, compile_source
vm = VM(compile_source(sys.argv[1]), compile_cache=sys.argv[2],
        adaptive_config=AdaptiveConfig(opt1_ticks=16, opt2_ticks=32))
out = vm.run().output
stats, cache = vm.compile_stats, vm.compile_cache
print(json.dumps([out, stats.cached_methods, len(stats.events),
                  cache.hits, cache.misses]))
"""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("JX_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", child, LOOP, str(cache_dir)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    out, cached, events, hits, misses = json.loads(proc.stdout)
    assert out == out_cold
    assert cached == events > 0
    assert hits > 0 and misses == 0


def test_a_run_that_raises_still_flushes(tmp_path):
    crash = LOOP.replace('Sys.print("" + acc);',
                         'int[] xs = new int[2]; Sys.print("" + xs[acc]);')
    cold = _vm(crash, adaptive_config=AGGRESSIVE,
               compile_cache=str(tmp_path))
    with pytest.raises(VMRuntimeError):
        cold.run()
    assert cold.compile_cache.stores > 0
    assert len(cache_entries(tmp_path)) == cold.compile_cache.stores
    warm = _vm(crash, adaptive_config=AGGRESSIVE,
               compile_cache=str(tmp_path))
    with pytest.raises(VMRuntimeError):
        warm.run()
    assert warm.compile_cache.misses == 0
    assert warm.compile_cache.hits == cold.compile_cache.stores


def test_uncreatable_cache_dir_changes_nothing(tmp_path):
    """Cache I/O errors never fail a run: a cache root under a regular
    file can be neither listed nor created."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    expected = _vm(adaptive_config=AGGRESSIVE).run().output
    for _ in range(2):
        vm = _vm(adaptive_config=AGGRESSIVE,
                 compile_cache=str(blocker / "jxcache"))
        assert vm.run().output == expected
        cache = vm.compile_cache
        assert cache.misses > 0
        assert (cache.hits, cache.stores) == (0, 0)
        assert cache.stats()["entries"] == 0


def test_one_poisoned_entry_misses_alone(tmp_path):
    """Poisoning one entry of a pack makes only that key a miss and a
    recompile; the recompile's pack then serves the key again."""
    cold = _vm(adaptive_config=AGGRESSIVE, compile_cache=str(tmp_path))
    out_cold = cold.run().output
    stored = cold.compile_cache.stores
    assert stored >= 2
    victim = cache_entries(tmp_path)[0]["key"]

    def poison(text):
        entry = json.loads(text)
        if entry["key"] == victim:
            entry["artifact"]["source"] = "def _jx(vm, args): return 666\n"
            entry["artifact"].pop("marshal", None)
        return json.dumps(entry)  # the victim's sha is now stale

    rewrite_cache_entries(tmp_path, poison)
    warm = _vm(adaptive_config=AGGRESSIVE, compile_cache=str(tmp_path))
    assert warm.run().output == out_cold
    cache = warm.compile_cache
    assert (cache.misses, cache.hits) == (1, stored - 1)
    assert cache.stores == 1 and cache.link_errors == 0
    third = _vm(adaptive_config=AGGRESSIVE, compile_cache=str(tmp_path))
    assert third.run().output == out_cold
    assert (third.compile_cache.misses, third.compile_cache.hits) == \
        (0, stored)


def test_threads_sharing_a_cache_store_each_key_once(tmp_path):
    """More VMs than cores on one cache, with a short switch interval so
    flushes interleave with other VMs' lookups and stores: every key
    lands on disk exactly once, and a fresh instance warm-starts from
    the packs without compiling."""
    cache = CompileCache(tmp_path)
    outputs, errors = [], []

    def one_vm():
        try:
            vm = _vm(adaptive_config=AGGRESSIVE, compile_cache=cache)
            outputs.append(vm.run().output)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=one_vm) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(outputs) == 6 and len(set(outputs)) == 1
    assert cache.stats()["entries"] == cache.stores > 0
    assert len(cache_entries(tmp_path)) == cache.stores
    warm = _vm(adaptive_config=AGGRESSIVE, compile_cache=str(tmp_path))
    assert warm.run().output == outputs[0]
    assert warm.compile_cache.misses == 0
    assert warm.compile_cache.hits == cache.stores


# -- CLI ---------------------------------------------------------------------

def test_cli_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "jxcache")
    _vm(adaptive_config=AGGRESSIVE, compile_cache=cache_dir).run()
    assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "opt2" in out
    assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed" in capsys.readouterr().out
    assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries      0" in capsys.readouterr().out


def test_cli_cache_requires_directory(monkeypatch, capsys):
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    assert cli_main(["cache", "stats"]) == 2
    assert "no cache directory" in capsys.readouterr().err


def test_cli_run_uses_cache(tmp_path, capsys):
    program = tmp_path / "prog.jx"
    program.write_text(LOOP)
    cache_dir = str(tmp_path / "jxcache")
    assert cli_main(["run", str(program), "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert cli_main(["run", str(program), "--cache-dir", cache_dir]) == 0
    assert capsys.readouterr().out == first
    assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries      0" not in capsys.readouterr().out


# -- exit codes (regression: failures used to exit 0) ------------------------

def test_cli_run_missing_file_exits_nonzero(capsys):
    assert cli_main(["run", "/nonexistent/prog.jx"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_run_compile_error_exits_nonzero(tmp_path, capsys):
    program = tmp_path / "bad.jx"
    program.write_text("class Main { static void main() { this is not jx } }")
    assert cli_main(["run", str(program)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_run_runtime_failure_exits_nonzero(tmp_path, capsys):
    program = tmp_path / "crash.jx"
    program.write_text("""
class Main {
    static void main() {
        int[] xs = new int[2];
        Sys.print("" + xs[5]);
    }
}
""")
    assert cli_main(["run", str(program)]) == 1
    err = capsys.readouterr().err
    assert "error" in err
