"""repro.analysis — CFG/dataflow static-analysis framework.

A whole-program analysis layer over the bytecode IR:

* :mod:`.cfg` — instruction-level CFGs (pristine and quickened
  bodies);
* :mod:`.dataflow` — a generic forward/backward worklist engine with
  configurable lattices;
* :mod:`.escape` — flow-sensitive escape analysis for private reference
  fields (backs the lifetime-constant analysis);
* :mod:`.specsafety` — hook-completeness findings and the attach-time
  plan audit;
* :mod:`.liveness` — per-instruction live-local sets (the OSR
  frame-mapping compensation sets);
* :mod:`.symstate` — the symbolic lockstep machine (term-algebra
  abstract interpreter over pristine and quickened bytecode);
* :mod:`.tv` — translation validation of every transformed code
  surface (quicken/fusion, OSR) plus the
  deopt-guard safety lint; unprovable bodies are downgraded, not run;
* :mod:`.lint` — the ``jx lint`` aggregation over a built VM.
"""

from repro.analysis.cfg import InstrCFG
from repro.analysis.dataflow import solve_backward, solve_forward
from repro.analysis.escape import RefFieldFacts, analyze_ref_fields
from repro.analysis.findings import Finding
from repro.analysis.liveness import live_locals, local_effects
from repro.analysis.lint import (
    ctor_hook_findings,
    lint_source,
    lint_vm,
    lint_workload,
    quick_code_findings,
)
from repro.analysis.specsafety import (
    audit_attached_plans,
    lifetime_findings,
    site_findings,
)
from repro.analysis.symstate import (
    TVUnprovable,
    region_outcomes,
    step_outcomes,
)
from repro.analysis.tv import (
    deopt_guard_findings,
    tv_findings,
    tv_osr_findings,
    tv_quicken_findings,
    validate_quick_method,
)

__all__ = [
    "InstrCFG",
    "solve_backward",
    "solve_forward",
    "RefFieldFacts",
    "analyze_ref_fields",
    "Finding",
    "live_locals",
    "local_effects",
    "ctor_hook_findings",
    "lint_source",
    "lint_vm",
    "lint_workload",
    "quick_code_findings",
    "audit_attached_plans",
    "lifetime_findings",
    "site_findings",
    "TVUnprovable",
    "region_outcomes",
    "step_outcomes",
    "deopt_guard_findings",
    "tv_findings",
    "tv_osr_findings",
    "tv_quicken_findings",
    "validate_quick_method",
]
