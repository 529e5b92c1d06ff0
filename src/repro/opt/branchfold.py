"""Branch folding and CFG cleanup.

Three transforms, iterated to fixpoint by the pipeline:

* constant-condition branches become unconditional jumps (this is where
  specialization pays off: once the state field is a known constant,
  the dispatching ``if (grade == 0) ...`` chain collapses — paper §7.1
  credits SalaryDB's 31.4% mainly to branch + dead code elimination);
* unreachable blocks are deleted;
* trivial jump chains are threaded and single-predecessor blocks merged
  into their predecessor.

Each transform edits the graph through the
:class:`~repro.opt.ir.IRFunction` edit methods, so the function's cached
reverse postorder is recomputed only after a transform changed
something.  Block merging patches its own copy of the predecessor lists
as it splices instead of recomputing them after every merge.
"""

from __future__ import annotations

from repro.opt.ir import Const, Extra, IRFunction, IRInstr


def fold_branches(fn: IRFunction) -> int:
    """Rewrite constant-condition / same-target branches; returns count."""
    changed = 0
    for block in fn.block_order():
        term = block.terminator
        if term.op != "br":
            continue
        cond = term.args[0]
        if isinstance(cond, Const):
            target = term.extra.if_true if cond.value else term.extra.if_false
            fn.set_terminator(block, IRInstr(
                "jump", None, [], Extra(target=target), term.line
            ))
            changed += 1
        elif term.extra.if_true == term.extra.if_false:
            fn.set_terminator(block, IRInstr(
                "jump", None, [], Extra(target=term.extra.if_true), term.line
            ))
            changed += 1
    return changed


def remove_unreachable(fn: IRFunction) -> int:
    reachable = fn.reachable_ids()
    dead = [bid for bid in fn.blocks if bid not in reachable]
    for bid in dead:
        fn.remove_block(bid)
    return len(dead)


def thread_jumps(fn: IRFunction) -> int:
    """Retarget edges that go to a block containing only ``jump``.

    A jump-only block implies no stack-register entry copies were needed
    on that edge (lowering would have emitted movs), so threading is
    safe.
    """
    changed = 0
    trivial: dict[int, int] = {}
    for bid, block in fn.blocks.items():
        if len(block.instrs) == 1 and block.instrs[0].op == "jump":
            trivial[bid] = block.instrs[0].extra.target

    def final_target(bid: int) -> int:
        seen = set()
        while bid in trivial and bid not in seen:
            seen.add(bid)
            bid = trivial[bid]
        return bid

    for block in fn.blocks.values():
        term = block.terminator
        if term.op == "jump":
            target = final_target(term.extra.target)
            if target != term.extra.target and target != block.id:
                fn.retarget(term, "target", target)
                changed += 1
        elif term.op == "br":
            t = final_target(term.extra.if_true)
            f = final_target(term.extra.if_false)
            if t != term.extra.if_true and t != block.id:
                fn.retarget(term, "if_true", t)
                changed += 1
            if f != term.extra.if_false and f != block.id:
                fn.retarget(term, "if_false", f)
                changed += 1
    return changed


def merge_blocks(fn: IRFunction) -> int:
    """Splice single-predecessor jump targets into their predecessor.

    One reverse-postorder pass: a block keeps absorbing its jump target
    while that target has no other predecessor, and the predecessor
    lists of the absorbed block's successors are patched in a copy.
    Merging a block's only successor into it removes just that
    successor from the reverse postorder and leaves every other block's
    predecessor count unchanged, so this makes the same merges in the
    same order as restarting the scan after each one would.
    """
    preds = dict(fn.predecessors())
    changed = 0
    for block in fn.block_order():
        if block.id not in fn.blocks:
            continue
        while True:
            term = block.terminator
            if term.op != "jump":
                break
            target = term.extra.target
            if target == block.id or target == fn.entry:
                break
            if len(preds.get(target, [])) != 1:
                break
            del preds[target]
            fn.set_instrs(block, block.instrs[:-1] + fn.blocks[target].instrs)
            fn.remove_block(target)
            for s in block.successors():
                preds[s] = [
                    block.id if p == target else p for p in preds[s]
                ]
            changed += 1
    return changed


def cleanup_cfg(fn: IRFunction) -> int:
    """Run all CFG cleanups to a local fixpoint; returns total changes."""
    total = 0
    while True:
        changed = fold_branches(fn)
        changed += thread_jumps(fn)
        changed += remove_unreachable(fn)
        changed += merge_blocks(fn)
        total += changed
        if not changed:
            return total
