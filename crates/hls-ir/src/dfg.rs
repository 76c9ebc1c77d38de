//! Per-basic-block data-flow graphs.
//!
//! A [`Dfg`] captures, for one basic block, the dependence structure the
//! scheduler must respect and that TAO's Algorithm 1 perturbs when creating
//! variants: data dependences through registers defined in the same block,
//! and memory/side-effect ordering dependences.
//!
//! Values defined in *earlier* blocks (or parameters) appear as *live-in*
//! sources: in the synthesized datapath they arrive from registers, so they
//! impose no intra-block ordering.

use crate::function::Function;
use crate::instr::Instr;
use crate::operand::{BlockId, Operand, ValueId};
use std::collections::BTreeMap;

/// Index of an instruction inside its basic block.
pub type NodeIdx = usize;

/// A dependence edge between two instructions of the same block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DepEdge {
    /// Producer instruction index.
    pub from: NodeIdx,
    /// Consumer instruction index.
    pub to: NodeIdx,
    /// Kind of dependence.
    pub kind: DepKind,
}

/// Dependence kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepKind {
    /// True data dependence through a register (read-after-write). The
    /// consumer must start at least the producer's latency later.
    Data,
    /// Ordering dependence through memory (same array) or side effects.
    Memory,
    /// Anti dependence (write-after-read of the same register). Zero
    /// latency: the write happens at the end of a cycle, the read during
    /// it, so scheduling both in the same cycle is legal.
    Anti,
    /// Output dependence (write-after-write of the same register). The
    /// second write must land in a strictly later cycle.
    Output,
}

impl DepKind {
    /// Minimum cycle distance the edge imposes between producer start and
    /// consumer start, given the producer's latency in cycles.
    pub fn min_distance(&self, producer_latency: u32) -> u32 {
        match self {
            DepKind::Data | DepKind::Memory | DepKind::Output => producer_latency.max(1),
            DepKind::Anti => 0,
        }
    }
}

/// The data-flow graph of one basic block.
#[derive(Debug, Clone)]
pub struct Dfg {
    /// The block this DFG describes.
    pub block: BlockId,
    /// Number of nodes (instructions in the block).
    pub num_nodes: usize,
    /// All dependence edges, deduplicated and sorted.
    pub edges: Vec<DepEdge>,
    /// For each node, the values it reads that are live-in to the block.
    pub live_in_uses: Vec<Vec<ValueId>>,
    /// Values defined in this block that are read by the terminator or may
    /// be read by later blocks (conservatively: every defined value).
    pub defs: Vec<Option<ValueId>>,
}

impl Dfg {
    /// Builds the DFG of block `b` in function `f`.
    pub fn build(f: &Function, b: BlockId) -> Dfg {
        let blk = f.block(b);
        let n = blk.instrs.len();
        let mut last_def: BTreeMap<ValueId, NodeIdx> = BTreeMap::new();
        let mut uses_since_def: BTreeMap<ValueId, Vec<NodeIdx>> = BTreeMap::new();
        let mut last_mem_access: BTreeMap<u32, Vec<(NodeIdx, bool)>> = BTreeMap::new(); // array -> (idx, is_store)
        let mut last_side_effect: Option<NodeIdx> = None;
        let mut edges = Vec::new();
        let mut live_in_uses = vec![Vec::new(); n];
        let mut defs = vec![None; n];

        for (i, instr) in blk.instrs.iter().enumerate() {
            // Data dependences.
            for u in instr.uses() {
                if let Operand::Value(v) = u {
                    match last_def.get(&v) {
                        Some(&p) => edges.push(DepEdge { from: p, to: i, kind: DepKind::Data }),
                        None => live_in_uses[i].push(v),
                    }
                    uses_since_def.entry(v).or_default().push(i);
                }
            }
            // Anti and output dependences on the defined register.
            if let Some(d) = instr.def() {
                if let Some(&p) = last_def.get(&d) {
                    if p != i {
                        edges.push(DepEdge { from: p, to: i, kind: DepKind::Output });
                    }
                }
                for &u in uses_since_def.get(&d).into_iter().flatten() {
                    if u != i {
                        edges.push(DepEdge { from: u, to: i, kind: DepKind::Anti });
                    }
                }
                uses_since_def.insert(d, Vec::new());
            }
            // Memory ordering: a load depends on prior stores to the same
            // array; a store depends on all prior accesses to the array.
            if let Some(arr) = instr.memory_object() {
                let is_store = matches!(instr, Instr::Store { .. });
                let hist = last_mem_access.entry(arr.0).or_default();
                for &(p, p_store) in hist.iter() {
                    if is_store || p_store {
                        edges.push(DepEdge { from: p, to: i, kind: DepKind::Memory });
                    }
                }
                hist.push((i, is_store));
            }
            // Calls are full barriers.
            if matches!(instr, Instr::Call { .. }) {
                for p in 0..i {
                    edges.push(DepEdge { from: p, to: i, kind: DepKind::Memory });
                }
                last_side_effect = Some(i);
            } else if let Some(se) = last_side_effect {
                if instr.has_side_effects() || instr.memory_object().is_some() {
                    edges.push(DepEdge { from: se, to: i, kind: DepKind::Memory });
                }
            }
            if let Some(d) = instr.def() {
                last_def.insert(d, i);
                defs[i] = Some(d);
            }
        }
        edges.sort();
        edges.dedup();
        Dfg { block: b, num_nodes: n, edges, live_in_uses, defs }
    }

    /// Predecessor (producer) node indices of `node`.
    pub fn preds(&self, node: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.edges.iter().filter(move |e| e.to == node).map(|e| e.from)
    }

    /// Successor (consumer) node indices of `node`.
    pub fn succs(&self, node: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.edges.iter().filter(move |e| e.from == node).map(|e| e.to)
    }

    /// Longest path length (in nodes) — the dependence-depth lower bound on
    /// schedule latency for single-cycle operations.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![1usize; self.num_nodes];
        for i in 0..self.num_nodes {
            for p in self.preds(i).collect::<Vec<_>>() {
                depth[i] = depth[i].max(depth[p] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Function, MemObject, Module};
    use crate::instr::{BinOp, Instr, Terminator};
    use crate::operand::{ArrayId, Constant};
    use crate::types::Type;

    /// Block computing: t0 = a + b; t1 = t0 * c; t2 = a - b (independent of t1).
    fn sample() -> (Function, BlockId) {
        let mut f = Function::new("s");
        let a = f.new_value(Type::I32);
        let b = f.new_value(Type::I32);
        let c = f.new_value(Type::I32);
        f.params.extend([a, b, c]);
        let t0 = f.new_value(Type::I32);
        let t1 = f.new_value(Type::I32);
        let t2 = f.new_value(Type::I32);
        let blk = f.new_block("entry");
        f.block_mut(blk).instrs.extend([
            Instr::Binary { op: BinOp::Add, ty: Type::I32, lhs: a.into(), rhs: b.into(), dst: t0 },
            Instr::Binary { op: BinOp::Mul, ty: Type::I32, lhs: t0.into(), rhs: c.into(), dst: t1 },
            Instr::Binary { op: BinOp::Sub, ty: Type::I32, lhs: a.into(), rhs: b.into(), dst: t2 },
        ]);
        f.block_mut(blk).terminator = Terminator::Return(Some(t1.into()));
        (f, blk)
    }

    #[test]
    fn data_edges_and_live_ins() {
        let (f, b) = sample();
        let dfg = Dfg::build(&f, b);
        assert_eq!(dfg.num_nodes, 3);
        assert_eq!(dfg.edges, vec![DepEdge { from: 0, to: 1, kind: DepKind::Data }]);
        // Node 0 reads two live-ins (a, b); node 1 reads one (c).
        assert_eq!(dfg.live_in_uses[0].len(), 2);
        assert_eq!(dfg.live_in_uses[1].len(), 1);
        assert_eq!(dfg.live_in_uses[2].len(), 2);
        assert_eq!(dfg.critical_path_len(), 2);
    }

    #[test]
    fn memory_ordering_edges() {
        let mut m = Module::new("t");
        let g = m.add_global(MemObject::new("buf", Type::I32, 8));
        let mut f = Function::new("mem");
        let i = f.new_value(Type::I32);
        f.params.push(i);
        let v0 = f.new_value(Type::I32);
        let v1 = f.new_value(Type::I32);
        let c1 = f.consts.intern(Constant::new(1, Type::I32));
        let blk = f.new_block("entry");
        f.block_mut(blk).instrs.extend([
            // load; store; load — store must be ordered between both loads.
            Instr::Load { ty: Type::I32, array: g, index: i.into(), dst: v0 },
            Instr::Store { ty: Type::I32, array: g, index: i.into(), value: c1.into() },
            Instr::Load { ty: Type::I32, array: g, index: i.into(), dst: v1 },
        ]);
        f.block_mut(blk).terminator = Terminator::Return(None);
        let dfg = Dfg::build(&f, blk);
        assert!(dfg.edges.contains(&DepEdge { from: 0, to: 1, kind: DepKind::Memory }));
        assert!(dfg.edges.contains(&DepEdge { from: 1, to: 2, kind: DepKind::Memory }));
        // Two loads with no intervening store are unordered w.r.t. each other.
        assert!(!dfg.edges.contains(&DepEdge { from: 0, to: 2, kind: DepKind::Data }));
        let _ = ArrayId(0);
    }

    #[test]
    fn independent_loads_to_different_arrays_unordered() {
        let mut m = Module::new("t");
        let g1 = m.add_global(MemObject::new("a", Type::I32, 4));
        let g2 = m.add_global(MemObject::new("b", Type::I32, 4));
        let mut f = Function::new("mem2");
        let i = f.new_value(Type::I32);
        f.params.push(i);
        let v0 = f.new_value(Type::I32);
        let c1 = f.consts.intern(Constant::new(1, Type::I32));
        let blk = f.new_block("entry");
        f.block_mut(blk).instrs.extend([
            Instr::Store { ty: Type::I32, array: g1, index: i.into(), value: c1.into() },
            Instr::Store { ty: Type::I32, array: g2, index: i.into(), value: c1.into() },
            Instr::Load { ty: Type::I32, array: g1, index: i.into(), dst: v0 },
        ]);
        f.block_mut(blk).terminator = Terminator::Return(None);
        let dfg = Dfg::build(&f, blk);
        // Stores to different arrays: no edge between 0 and 1.
        assert!(!dfg.edges.iter().any(|e| e.from == 0 && e.to == 1));
        // Load from g1 ordered after store to g1 only.
        assert!(dfg.edges.contains(&DepEdge { from: 0, to: 2, kind: DepKind::Memory }));
        assert!(!dfg.edges.iter().any(|e| e.from == 1 && e.to == 2));
    }
}
