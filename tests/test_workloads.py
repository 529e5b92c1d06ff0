"""Workload smoke tests + full-pipeline equivalence at small scale."""

import pytest

from repro import VM, compile_source
from repro.mutation import build_mutation_plan
from repro.workloads import PAPER_ORDER, all_workloads, get_workload
from tests.helpers import AGGRESSIVE


def test_all_seven_registered():
    names = {spec.name for spec in all_workloads()}
    assert names == set(PAPER_ORDER)


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_workload_compiles_and_runs(name):
    spec = get_workload(name)
    unit = compile_source(spec.source(0.03), entry_class=spec.entry_class)
    vm = VM(unit, adaptive_config=AGGRESSIVE)
    result = vm.run()
    assert result.output  # every workload reports something
    assert vm.mutation_stats.osr_compile_failures == 0


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_workload_mutation_equivalence(name):
    spec = get_workload(name)
    scale = 0.05
    plan = build_mutation_plan(
        spec.source(scale), entry_class=spec.entry_class
    )
    outs = []
    for p in (None, plan):
        unit = compile_source(spec.source(scale),
                              entry_class=spec.entry_class)
        vm = VM(unit, mutation_plan=p, adaptive_config=AGGRESSIVE)
        outs.append(vm.run().output)
        assert vm.mutation_stats.osr_compile_failures == 0
    assert outs[0] == outs[1]


#: jxbench's smoke scales.
SMOKE_SCALES = {"salarydb": 0.05, "simlogic": 0.02, "csvtoxml": 0.02,
                "java2xhtml": 0.01, "weka": 0.05, "jbb2000": 0.02,
                "jbb2005": 0.02}


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_generated_code_has_no_block_dispatch(name, monkeypatch):
    """Every compiled body is nested ``if``/``while``: no cold run at
    smoke scale, with or without the plan, emits a ``_bb`` dispatch."""
    from repro.opt.pycodegen import PyCodegen

    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    sources: list[str] = []
    real = PyCodegen.generate

    def generate(self):
        source, executor = real(self)
        sources.append(source)
        return source, executor

    monkeypatch.setattr(PyCodegen, "generate", generate)
    spec = get_workload(name)
    source = spec.source(SMOKE_SCALES[name])
    plan = build_mutation_plan(source, entry_class=spec.entry_class)
    for p in (None, plan):
        unit = compile_source(source, entry_class=spec.entry_class)
        VM(unit, mutation_plan=p, seed=42).run()
    assert sources and not any("_bb" in text for text in sources)


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_expected_mutable_classes_found(name):
    spec = get_workload(name)
    plan = build_mutation_plan(
        spec.profile_source(), entry_class=spec.entry_class
    )
    for cls in spec.expected_mutable:
        assert cls in plan.classes, (
            f"{name}: expected {cls} mutable, got {sorted(plan.classes)}"
        )


def test_jbb_slice_entry_repeatable():
    spec = get_workload("jbb2000")
    unit = compile_source(spec.source(0.05), entry_class=spec.entry_class)
    vm = VM(unit, adaptive_config=AGGRESSIVE)
    first = vm.call_static("Main", "runSlice", [])
    second = vm.call_static("Main", "runSlice", [])
    assert first > 0 and second > 0
    assert vm.mutation_stats.osr_compile_failures == 0


def test_jbb_lifetime_constants_match_paper_fig7():
    spec = get_workload("jbb2000")
    plan = build_mutation_plan(
        spec.profile_source(), entry_class=spec.entry_class
    )
    info = plan.lifetime_constants.get("DeliveryTransaction.deliveryScreen")
    assert info is not None
    assert info.target_class == "DisplayScreen"
    assert info.field_values_by_name == {"rows": 24, "cols": 80}


def test_table1_counts_positive():
    for spec in all_workloads():
        classes, methods = spec.table1_counts()
        assert classes >= 2
        assert methods >= classes
