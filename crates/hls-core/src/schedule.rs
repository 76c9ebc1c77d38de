//! Resource-constrained list scheduling (paper Fig. 2, "Scheduling").
//!
//! Each basic block is scheduled independently into clock cycles under the
//! [`Allocation`] resource budget, honoring data, memory, anti and output
//! dependences from the block [`Dfg`]. The datapath is a classic no-chaining
//! FSMD: an operation issued in cycle `t` reads registers written before `t`
//! and writes its result at the end of cycle `t + latency - 1`.

use crate::resource::{Allocation, FuKind};
use hls_ir::{BlockId, Dfg, Function, Instr, Operand, Terminator};
use std::collections::BTreeMap;

/// Schedule of one basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSchedule {
    /// Issue cycle of each instruction (indexed like the block's `instrs`).
    pub cycle_of: Vec<u32>,
    /// Bound resource of each instruction: `(kind, instance)`.
    pub fu_of: Vec<(FuKind, u32)>,
    /// Number of controller states this block occupies (at least 1).
    pub num_cycles: u32,
}

/// Schedule of a whole function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSchedule {
    /// Per-block schedules, indexed by [`BlockId`].
    pub blocks: Vec<BlockSchedule>,
}

/// Unconstrained as-soon-as-possible issue cycles for one block (the
/// classic lower bound a list scheduler is measured against).
pub fn asap_cycles(f: &Function, b: BlockId) -> Vec<u32> {
    let blk = f.block(b);
    let n = blk.instrs.len();
    let dfg = Dfg::build(f, b);
    let kinds: Vec<FuKind> =
        blk.instrs.iter().map(|i| FuKind::of_instr(i).expect("no calls")).collect();
    let mut cycle = vec![0u32; n];
    for i in 0..n {
        for e in dfg.edges.iter().filter(|e| e.to == i) {
            let dist = e.kind.min_distance(kinds[e.from].latency());
            cycle[i] = cycle[i].max(cycle[e.from] + dist);
        }
    }
    cycle
}

/// Unconstrained as-late-as-possible issue cycles for one block, anchored
/// to the ASAP-critical-path length. `alap - asap` is each operation's
/// slack (mobility), the standard list-scheduling priority.
pub fn alap_cycles(f: &Function, b: BlockId) -> Vec<u32> {
    let blk = f.block(b);
    let n = blk.instrs.len();
    let dfg = Dfg::build(f, b);
    let kinds: Vec<FuKind> =
        blk.instrs.iter().map(|i| FuKind::of_instr(i).expect("no calls")).collect();
    let asap = asap_cycles(f, b);
    let horizon = (0..n).map(|i| asap[i] + kinds[i].latency()).max().unwrap_or(0);
    let mut cycle: Vec<u32> = (0..n).map(|i| horizon.saturating_sub(kinds[i].latency())).collect();
    for i in (0..n).rev() {
        for e in dfg.edges.iter().filter(|e| e.from == i) {
            let dist = e.kind.min_distance(kinds[i].latency());
            cycle[i] = cycle[i].min(cycle[e.to].saturating_sub(dist));
        }
    }
    cycle
}

/// Schedules every block of `f` under `alloc`.
///
/// # Panics
///
/// Panics if the function still contains calls (run inlining first).
pub fn schedule_function(f: &Function, alloc: &Allocation) -> FnSchedule {
    let blocks = f.block_ids().map(|b| schedule_block(f, b, alloc)).collect();
    FnSchedule { blocks }
}

/// Schedules one block with priority-list scheduling.
pub fn schedule_block(f: &Function, b: BlockId, alloc: &Allocation) -> BlockSchedule {
    let blk = f.block(b);
    let n = blk.instrs.len();
    for i in &blk.instrs {
        assert!(
            !matches!(i, Instr::Call { .. }),
            "calls must be inlined before scheduling (function `{}`)",
            f.name
        );
    }
    let dfg = Dfg::build(f, b);

    // Priority: longest path to any sink, weighted by latency.
    let kinds: Vec<FuKind> =
        blk.instrs.iter().map(|i| FuKind::of_instr(i).expect("no calls")).collect();
    let mut height = vec![0u32; n];
    for i in (0..n).rev() {
        let lat = kinds[i].latency();
        let mut h = lat;
        for e in dfg.edges.iter().filter(|e| e.from == i) {
            h = h.max(e.kind.min_distance(lat) + height[e.to]);
        }
        height[i] = h;
    }

    // In-degree over dependence edges.
    let mut remaining_preds = vec![0usize; n];
    for e in &dfg.edges {
        remaining_preds[e.to] += 1;
    }

    let mut cycle_of = vec![u32::MAX; n];
    let mut fu_of = vec![(FuKind::Wire, 0u32); n];
    // Earliest legal issue cycle per op, updated as predecessors schedule.
    let mut earliest = vec![0u32; n];
    // Busy-until (exclusive) per (kind, instance).
    let mut busy: BTreeMap<(FuKind, u32), u32> = BTreeMap::new();
    let mut unscheduled = n;
    let mut cycle = 0u32;
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();

    while unscheduled > 0 {
        // Keep filling this cycle until no more ops fit: scheduling an op
        // can make a zero-distance (anti-dependent) successor ready in the
        // *same* cycle.
        loop {
            let mut cands: Vec<usize> = ready
                .iter()
                .copied()
                .filter(|&i| cycle_of[i] == u32::MAX && earliest[i] <= cycle)
                .collect();
            cands.sort_by_key(|&i| std::cmp::Reverse((height[i], std::cmp::Reverse(i))));
            let mut progressed = false;
            for i in cands {
                let kind = kinds[i];
                let lat = kind.latency();
                // Find a free instance.
                let limit = alloc.count(kind);
                let mut chosen = None;
                if kind.is_unlimited() {
                    chosen = Some(0);
                } else {
                    for inst in 0..limit {
                        let free_at = busy.get(&(kind, inst)).copied().unwrap_or(0);
                        if free_at <= cycle {
                            chosen = Some(inst);
                            break;
                        }
                    }
                }
                let Some(inst) = chosen else { continue };
                cycle_of[i] = cycle;
                fu_of[i] = (kind, inst);
                if !kind.is_unlimited() {
                    busy.insert((kind, inst), cycle + lat);
                }
                unscheduled -= 1;
                progressed = true;
                // Release successors.
                for e in dfg.edges.iter().filter(|e| e.from == i) {
                    earliest[e.to] = earliest[e.to].max(cycle + e.kind.min_distance(lat));
                    remaining_preds[e.to] -= 1;
                    if remaining_preds[e.to] == 0 {
                        ready.push(e.to);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        cycle += 1;
        // Safety valve: a correct scheduler always terminates, but a bug
        // here should fail loudly rather than loop forever.
        assert!(
            cycle < 4 * (n as u32 + 4) * 8 + 64,
            "scheduler failed to converge on block {b} of `{}`",
            f.name
        );
    }

    // Cycle count: last write must complete; transition happens in the last
    // state. Ensure the branch condition (read by the transition) is stable,
    // i.e. written strictly before the final state.
    let mut num_cycles = (0..n).map(|i| cycle_of[i] + kinds[i].latency()).max().unwrap_or(1).max(1);
    if let Terminator::Branch { cond: Operand::Value(v), .. } = &blk.terminator {
        // Find the defining op of the condition inside this block, if any.
        for (i, instr) in blk.instrs.iter().enumerate() {
            if instr.def() == Some(*v) && cycle_of[i] + kinds[i].latency() >= num_cycles {
                num_cycles = cycle_of[i] + kinds[i].latency() + 1;
            }
        }
    }
    // Same for a returned value computed in the final cycle: the return
    // register is written by a Wire op in the last state, which must come
    // after the producer completes.
    if let Terminator::Return(Some(Operand::Value(v))) = &blk.terminator {
        for (i, instr) in blk.instrs.iter().enumerate() {
            if instr.def() == Some(*v) && cycle_of[i] + kinds[i].latency() >= num_cycles {
                num_cycles = cycle_of[i] + kinds[i].latency() + 1;
            }
        }
    }

    BlockSchedule { cycle_of, fu_of, num_cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{BinOp, CmpPred, Constant, Instr, Type};

    fn check_dependences(f: &Function, b: BlockId, s: &BlockSchedule) {
        let dfg = Dfg::build(f, b);
        let kinds: Vec<FuKind> =
            f.block(b).instrs.iter().map(|i| FuKind::of_instr(i).unwrap()).collect();
        for e in &dfg.edges {
            let dist = e.kind.min_distance(kinds[e.from].latency());
            assert!(
                s.cycle_of[e.to] >= s.cycle_of[e.from] + dist,
                "edge {:?} violated: {} -> {}",
                e,
                s.cycle_of[e.from],
                s.cycle_of[e.to]
            );
        }
        // Resource constraint: no two ops on the same instance overlap.
        for i in 0..s.cycle_of.len() {
            for j in 0..i {
                if s.fu_of[i] == s.fu_of[j] && !s.fu_of[i].0.is_unlimited() {
                    let (a, b2) = (s.cycle_of[i], s.cycle_of[j]);
                    let (la, lb) = (kinds[i].latency(), kinds[j].latency());
                    assert!(a + la <= b2 || b2 + lb <= a, "ops {i} and {j} overlap");
                }
            }
        }
    }

    /// Builds a block of `n` independent adds.
    fn independent_adds(n: usize) -> (Function, BlockId) {
        let mut f = Function::new("t");
        let a = f.new_value(Type::I32);
        f.params.push(a);
        let b = f.new_block("entry");
        for _ in 0..n {
            let d = f.new_value(Type::I32);
            f.block_mut(b).instrs.push(Instr::Binary {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: a.into(),
                rhs: a.into(),
                dst: d,
            });
        }
        (f, b)
    }

    #[test]
    fn resource_constraint_serializes() {
        let (f, b) = independent_adds(6);
        let alloc = Allocation { add_sub: 2, ..Allocation::default() };
        let s = schedule_block(&f, b, &alloc);
        check_dependences(&f, b, &s);
        // 6 adds on 2 adders -> 3 cycles minimum.
        assert_eq!(s.num_cycles, 3);
        let alloc1 = Allocation { add_sub: 1, ..Allocation::default() };
        let s1 = schedule_block(&f, b, &alloc1);
        assert_eq!(s1.num_cycles, 6);
    }

    #[test]
    fn chain_respects_latency() {
        // t0 = a*a (mul, lat 2); t1 = t0+a (add).
        let mut f = Function::new("t");
        let a = f.new_value(Type::I32);
        f.params.push(a);
        let t0 = f.new_value(Type::I32);
        let t1 = f.new_value(Type::I32);
        let b = f.new_block("entry");
        f.block_mut(b).instrs.extend([
            Instr::Binary { op: BinOp::Mul, ty: Type::I32, lhs: a.into(), rhs: a.into(), dst: t0 },
            Instr::Binary { op: BinOp::Add, ty: Type::I32, lhs: t0.into(), rhs: a.into(), dst: t1 },
        ]);
        let s = schedule_block(&f, b, &Allocation::default());
        check_dependences(&f, b, &s);
        assert_eq!(s.cycle_of[0], 0);
        assert!(s.cycle_of[1] >= 2);
        assert_eq!(s.num_cycles, s.cycle_of[1] + 1);
    }

    #[test]
    fn memory_port_serializes_same_array() {
        use hls_ir::{ArrayId, MemObject};
        let mut f = Function::new("t");
        let i = f.new_value(Type::I32);
        f.params.push(i);
        let arr = ArrayId(0);
        f.arrays.insert(arr, MemObject::new("m", Type::I32, 16));
        let b = f.new_block("entry");
        for k in 0..3 {
            let d = f.new_value(Type::I32);
            let _ = k;
            f.block_mut(b).instrs.push(Instr::Load {
                ty: Type::I32,
                array: arr,
                index: i.into(),
                dst: d,
            });
        }
        let s = schedule_block(&f, b, &Allocation::default());
        check_dependences(&f, b, &s);
        // One port: three loads take three cycles.
        assert_eq!(s.num_cycles, 3);
    }

    #[test]
    fn branch_condition_gets_stable_state() {
        let mut f = Function::new("t");
        let a = f.new_value(Type::I32);
        f.params.push(a);
        let c = f.new_value(Type::BOOL);
        let b0 = f.new_block("entry");
        let b1 = f.new_block("x");
        let b2 = f.new_block("y");
        let five = f.consts.intern(Constant::new(5, Type::I32));
        f.block_mut(b0).instrs.push(Instr::Cmp {
            pred: CmpPred::Lt,
            ty: Type::I32,
            lhs: a.into(),
            rhs: five.into(),
            dst: c,
        });
        f.block_mut(b0).terminator =
            Terminator::Branch { cond: c.into(), then_to: b1, else_to: b2 };
        f.block_mut(b1).terminator = Terminator::Return(None);
        f.block_mut(b2).terminator = Terminator::Return(None);
        let s = schedule_block(&f, b0, &Allocation::default());
        // The cmp completes at end of cycle 0; the transition must read it
        // in a later state, so the block needs 2 states.
        assert_eq!(s.num_cycles, 2);
    }

    #[test]
    fn empty_block_has_one_state() {
        let mut f = Function::new("t");
        let b = f.new_block("entry");
        f.block_mut(b).terminator = Terminator::Return(None);
        let s = schedule_block(&f, b, &Allocation::default());
        assert_eq!(s.num_cycles, 1);
    }

    #[test]
    fn full_function_schedule() {
        let (f, _) = independent_adds(4);
        let s = schedule_function(&f, &Allocation::default());
        assert_eq!(s.blocks.len(), 1);
        assert!(s.blocks[0].num_cycles >= 2);
    }

    #[test]
    fn asap_alap_bracket_the_list_schedule() {
        // t0 = a*a (mul); t1 = t0+a; t2 = a-a (independent).
        let mut f = Function::new("t");
        let a = f.new_value(Type::I32);
        f.params.push(a);
        let t0 = f.new_value(Type::I32);
        let t1 = f.new_value(Type::I32);
        let t2 = f.new_value(Type::I32);
        let b = f.new_block("entry");
        f.block_mut(b).instrs.extend([
            Instr::Binary { op: BinOp::Mul, ty: Type::I32, lhs: a.into(), rhs: a.into(), dst: t0 },
            Instr::Binary { op: BinOp::Add, ty: Type::I32, lhs: t0.into(), rhs: a.into(), dst: t1 },
            Instr::Binary { op: BinOp::Sub, ty: Type::I32, lhs: a.into(), rhs: a.into(), dst: t2 },
        ]);
        let asap = asap_cycles(&f, b);
        let alap = alap_cycles(&f, b);
        assert_eq!(asap, vec![0, 2, 0]);
        // Horizon = 3 (mul chain): add is critical (alap == asap); the
        // independent sub has full mobility.
        assert_eq!(alap[0], 0);
        assert_eq!(alap[1], 2);
        assert!(alap[2] > asap[2]);
        // Resource-constrained schedule can never beat ASAP.
        let s = schedule_block(&f, b, &Allocation::default());
        for (i, &asap_cycle) in asap.iter().enumerate().take(3) {
            assert!(s.cycle_of[i] >= asap_cycle, "op {i}");
        }
    }

    #[test]
    fn anti_dependence_allows_same_cycle_write_after_read() {
        // t = a + b ; a = c + c  (WAR on a): may issue in the same cycle
        // with two adders.
        let mut f = Function::new("t");
        let a = f.new_value(Type::I32);
        let b_ = f.new_value(Type::I32);
        let c = f.new_value(Type::I32);
        f.params.extend([a, b_, c]);
        let t = f.new_value(Type::I32);
        let blk = f.new_block("entry");
        f.block_mut(blk).instrs.extend([
            Instr::Binary { op: BinOp::Add, ty: Type::I32, lhs: a.into(), rhs: b_.into(), dst: t },
            Instr::Binary { op: BinOp::Add, ty: Type::I32, lhs: c.into(), rhs: c.into(), dst: a },
        ]);
        let s = schedule_block(&f, blk, &Allocation::default());
        check_dependences(&f, blk, &s);
        assert_eq!(s.num_cycles, 1);
    }
}
