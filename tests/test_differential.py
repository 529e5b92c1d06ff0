"""Differential test layer: every registered workload must produce
byte-identical output across every execution configuration —
interpreter, opt1, opt2, mutation/specialization, and cold/warm
compile-cache runs.  Any tier- or cache-dependent divergence is a VM
bug by definition (the paper's transformation is semantics-preserving).
"""

import pytest

from repro import VM, VMConfig, compile_source
from repro.mutation import build_mutation_plan
from repro.workloads import PAPER_ORDER, get_workload
from tests.helpers import AGGRESSIVE, INTERP_ONLY, OPT1_ONLY

SCALE = 0.03


def _run(spec, source, adaptive, plan=None, cache=None, config=None):
    unit = compile_source(source, entry_class=spec.entry_class)
    vm = VM(unit, mutation_plan=plan, adaptive_config=adaptive,
            compile_cache=cache, config=config)
    return vm.run().output, vm


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_all_configurations_byte_identical(name, tmp_path):
    spec = get_workload(name)
    source = spec.source(SCALE)
    plan = build_mutation_plan(source, entry_class=spec.entry_class)
    cache_dir = tmp_path / "jxcache"

    reference, _ = _run(spec, source, INTERP_ONLY)
    assert reference, f"{name}: interpreter produced no output"

    quick, quick_vm = _run(spec, source, INTERP_ONLY,
                           config=VMConfig(quicken=True))
    assert quick == reference, (
        f"{name}: quickened interpreter diverged"
    )
    assert quick_vm.quickener is not None
    noquick, noquick_vm = _run(spec, source, INTERP_ONLY,
                               config=VMConfig(quicken=False))
    assert noquick == reference, (
        f"{name}: quicken-off interpreter diverged"
    )
    assert noquick_vm.quickener is None

    opt1, _ = _run(spec, source, OPT1_ONLY)
    assert opt1 == reference, f"{name}: opt1 diverged from interpreter"

    opt2, _ = _run(spec, source, AGGRESSIVE)
    assert opt2 == reference, f"{name}: opt2 diverged from interpreter"

    osr, osr_vm = _run(spec, source, AGGRESSIVE,
                       config=VMConfig(osr=True))
    assert osr == reference, f"{name}: OSR-on run diverged"
    assert osr_vm.osr is not None
    noosr, noosr_vm = _run(spec, source, AGGRESSIVE,
                           config=VMConfig(osr=False))
    assert noosr == reference, f"{name}: OSR-off run diverged"
    assert noosr_vm.osr is None
    assert noosr_vm.mutation_stats.osr_enters == 0
    assert noosr_vm.mutation_stats.osr_deopts == 0

    special, special_vm = _run(spec, source, AGGRESSIVE, plan=plan)
    assert special == reference, (
        f"{name}: specialized run diverged from interpreter"
    )

    special_noquick, _ = _run(
        spec, source, AGGRESSIVE, plan=plan,
        config=VMConfig(quicken=False),
    )
    assert special_noquick == reference, (
        f"{name}: specialized quicken-off run diverged"
    )

    # Packing never models an object larger than its declared layout.
    assert (
        special_vm.heap.modeled_object_bytes()
        <= special_vm.heap.declared_object_bytes
    )

    # Specialized code with and without mid-frame deopt guards: OSR must
    # be invisible in output either way.
    special_osr, _ = _run(
        spec, source, AGGRESSIVE, plan=plan, config=VMConfig(osr=True),
    )
    assert special_osr == reference, (
        f"{name}: specialized OSR-on run diverged"
    )
    special_noosr, _ = _run(
        spec, source, AGGRESSIVE, plan=plan, config=VMConfig(osr=False),
    )
    assert special_noosr == reference, (
        f"{name}: specialized OSR-off run diverged"
    )

    cold, cold_vm = _run(spec, source, AGGRESSIVE, plan=plan,
                         cache=str(cache_dir))
    assert cold == reference, f"{name}: cache-cold run diverged"
    assert cold_vm.compile_cache.stores > 0, (
        f"{name}: cold run cached nothing"
    )

    warm, warm_vm = _run(spec, source, AGGRESSIVE, plan=plan,
                         cache=str(cache_dir))
    assert warm == reference, f"{name}: cache-warm run diverged"
    assert warm_vm.compile_cache.hits > 0, (
        f"{name}: warm run hit nothing "
        f"(misses={warm_vm.compile_cache.misses})"
    )
    assert warm_vm.compile_cache.link_errors == 0


def test_warm_start_reuses_every_entry(tmp_path, monkeypatch):
    """On an identical program + plan + config, the warm VM must link
    every compile from the cache (hit rate 100%), OSR continuations
    included: a warm start compiles nothing, and lowers and inlines no
    method either."""
    import repro.opt.pipeline as pipeline

    spec = get_workload("salarydb")
    source = spec.source(SCALE)
    plan = build_mutation_plan(source, entry_class=spec.entry_class)
    cache_dir = str(tmp_path / "jxcache")

    _, cold_vm = _run(spec, source, AGGRESSIVE, plan=plan, cache=cache_dir)
    calls = {"lower_method": 0, "inline_calls": 0}
    for fn_name in calls:
        real = getattr(pipeline, fn_name)

        def counting(*args, _real=real, _name=fn_name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, fn_name, counting)
    _, warm_vm = _run(spec, source, AGGRESSIVE, plan=plan, cache=cache_dir)
    assert calls == {"lower_method": 0, "inline_calls": 0}
    assert warm_vm.compile_cache.misses == 0
    assert warm_vm.compile_cache.hits == cold_vm.compile_cache.misses
    stats = warm_vm.compile_stats
    assert stats.cached_methods == len(stats.events)
