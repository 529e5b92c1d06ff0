"""Quickened-dispatch benchmark: the interpreted-tier acceptance gate.

Quickening (TIB-keyed inline caches and superinstructions) must cut
interpreted-tier wall time on a call-heavy workload by at least 25%
with byte-identical output.  The workload is the classic profile inline
caches and superinstructions target: a polymorphic interface loop over
two receiver classes, accessor-style getters, a field-increment mutator,
and counted loops — every call site mono- or bi-morphic, everything
running in the baseline interpreter (``AdaptiveConfig(enabled=False)``
so no JIT tier interferes).  Both sides run the VM's one interpreter
loop: over each method's quickened body with quickening on, over its
pristine bytecode with quickening off.

Measured with ``time.process_time`` (this container's wall clock jitters
by ±10%), legs interleaved so host noise hits both sides equally, and
min-of-N per leg.  Only ``vm.call_static`` is timed; front-end
compilation and VM construction are not (construction is recorded
separately below).  Quickening is lazy, so on the quickened side the
timed call includes building each of the 12 bodies on its first call
and, with translation validation on (``JX_TV``, the default), proving
it — a few milliseconds of a call of about 0.1 s.

Results land in ``BENCH_dispatch.json`` for cross-PR tracking.
"""

import time

from conftest import write_bench_scalar

from repro import VM, VMConfig, compile_source
from repro.vm.adaptive import AdaptiveConfig

ROUNDS = 1500
REPEATS = 9
MIN_REDUCTION = 0.25

#: Interpreter only — promotions off, so the measurement is pure opt0.
INTERP_ONLY = AdaptiveConfig(enabled=False)

CALL_SOURCE = f"""
interface Task {{
    int process(int x);
}}
class Item {{
    int weight;
    int count;
    Item(int w) {{ weight = w; count = 0; }}
    public int getWeight() {{ return weight; }}
    public int getCount() {{ return count; }}
    public int score(int x) {{ return getWeight() * x + getCount(); }}
    public void bump() {{ count = count + 1; }}
}}
class OrderTask implements Task {{
    Item item;
    int total;
    OrderTask(Item it) {{ item = it; total = 0; }}
    public int process(int x) {{
        int s = item.score(x);
        item.bump();
        total = total + s;
        return s;
    }}
}}
class PaymentTask implements Task {{
    Item item;
    int total;
    PaymentTask(Item it) {{ item = it; total = 0; }}
    public int process(int x) {{
        int s = item.score(x) - 1;
        item.bump();
        total = total + s;
        return s;
    }}
}}
class Main {{
    static void main() {{
        Task[] tasks = new Task[8];
        Item[] items = new Item[8];
        for (int i = 0; i < 8; i++) {{
            items[i] = new Item(i + 1);
            if (i % 2 == 0) {{ tasks[i] = new OrderTask(items[i]); }}
            else {{ tasks[i] = new PaymentTask(items[i]); }}
        }}
        int acc = 0;
        for (int r = 0; r < {ROUNDS}; r++) {{
            for (int i = 0; i < 8; i++) {{
                acc = acc + tasks[i].process(r % 17);
            }}
        }}
        Sys.print("" + acc);
    }}
}}
"""


def _measure_once(quicken: bool) -> tuple[float, str, float]:
    unit = compile_source(CALL_SOURCE, entry_class="Main")
    build_start = time.process_time()
    vm = VM(unit, adaptive_config=INTERP_ONLY,
            config=VMConfig(quicken=quicken))
    build_seconds = time.process_time() - build_start
    start = time.process_time()
    vm.call_static("Main", "main", [])
    elapsed = time.process_time() - start
    return elapsed, "\n".join(vm.output), build_seconds


def test_quickened_dispatch_cuts_interpreted_time():
    # Warm the host (imports, allocator) off-clock.
    _measure_once(True)
    on_times, off_times = [], []
    build_on = build_off = 0.0
    out_on = out_off = ""
    for _ in range(REPEATS):
        t, out_on, b = _measure_once(True)
        on_times.append(t)
        build_on += b
        t, out_off, b = _measure_once(False)
        off_times.append(t)
        build_off += b

    # Byte-identical output is non-negotiable: quickening is a pure
    # dispatch-layer change.
    assert out_on == out_off, "quickening changed program output"

    on, off = min(on_times), min(off_times)
    reduction = (off - on) / off
    write_bench_scalar(
        "dispatch",
        rounds=ROUNDS,
        repeats=REPEATS,
        quicken_seconds=on,
        noquicken_seconds=off,
        reduction=reduction,
        min_required_reduction=MIN_REDUCTION,
        avg_vm_build_seconds_quicken=build_on / REPEATS,
        avg_vm_build_seconds_noquicken=build_off / REPEATS,
    )
    assert reduction >= MIN_REDUCTION, (
        f"quickened dispatch saved only {reduction:.1%} "
        f"(gate: {MIN_REDUCTION:.0%}; on={on:.4f}s off={off:.4f}s)"
    )
