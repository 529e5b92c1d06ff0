"""Shared test utilities."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from repro import AdaptiveConfig, VM, compile_source
from repro.cache.store import read_pack, write_pack
from repro.mutation import MutationPlan, build_mutation_plan

#: Promote aggressively so small test programs reach opt2.
AGGRESSIVE = AdaptiveConfig(opt1_ticks=16, opt2_ticks=32)
#: Interpreter only.
INTERP_ONLY = AdaptiveConfig(enabled=False)
#: Stop at opt1 (generated code from the opt1 pass schedule).
OPT1_ONLY = AdaptiveConfig(opt1_ticks=16, max_opt_level=1)


def run_source(
    source: str,
    adaptive: AdaptiveConfig | None = None,
    plan: MutationPlan | None = None,
    entry_class: str = "Main",
    entry_method: str = "main",
    seed: int = 42,
) -> str:
    """Compile and run; returns program output."""
    unit = compile_source(
        source, entry_class=entry_class, entry_method=entry_method
    )
    vm = VM(
        unit,
        mutation_plan=plan,
        adaptive_config=adaptive or INTERP_ONLY,
        seed=seed,
    )
    return vm.run().output


def run_vm(
    source: str,
    adaptive: AdaptiveConfig | None = None,
    plan: MutationPlan | None = None,
    seed: int = 42,
) -> VM:
    """Compile, run, and return the VM for inspection."""
    unit = compile_source(source)
    vm = VM(
        unit,
        mutation_plan=plan,
        adaptive_config=adaptive or INTERP_ONLY,
        seed=seed,
    )
    vm.run()
    return vm


def assert_all_tiers_agree(source: str, seed: int = 42) -> str:
    """Run on opt0-only, opt1-capped, and aggressive-opt2 configs and
    assert identical output; returns the common output."""
    expected = run_source(source, INTERP_ONLY, seed=seed)
    opt1 = run_source(source, OPT1_ONLY, seed=seed)
    opt2 = run_source(source, AGGRESSIVE, seed=seed)
    assert opt1 == expected, f"opt1 diverged:\n{opt1!r}\nvs\n{expected!r}"
    assert opt2 == expected, f"opt2 diverged:\n{opt2!r}\nvs\n{expected!r}"
    return expected


def assert_mutation_equivalent(source: str, seed: int = 42) -> str:
    """Build a plan offline and assert mutation-on == mutation-off."""
    plan = build_mutation_plan(source, seed=seed)
    off = run_source(source, AGGRESSIVE, seed=seed)
    on = run_source(source, AGGRESSIVE, plan=plan, seed=seed)
    assert on == off, f"mutation changed output:\n{on!r}\nvs\n{off!r}"
    return on


def wrap_main(body: str, prelude: str = "") -> str:
    """Wrap statements into a minimal Main class."""
    return f"""
{prelude}
class Main {{
    static void main() {{
{body}
    }}
}}
"""


def cache_entries(cache_dir: str | Path) -> list[dict]:
    """Every compile-cache entry on disk under ``cache_dir``, parsed."""
    return [
        json.loads(text)
        for path in sorted(Path(cache_dir).glob("*/*.pack"))
        for _, text in read_pack(path)
    ]


def rewrite_cache_entries(cache_dir: str | Path,
                          rewrite: Callable[[str], str]) -> int:
    """Replace the text of every compile-cache entry on disk under
    ``cache_dir`` with ``rewrite(text)``, in place; returns how many
    entries there were."""
    count = 0
    for path in Path(cache_dir).glob("*/*.pack"):
        pairs = read_pack(path)
        write_pack(path, [(key, rewrite(text)) for key, text in pairs])
        count += len(pairs)
    return count
