//! Working-key apportionment (paper Sec. 3.3.1, Eq. 1).
//!
//! TAO assigns a fixed number of key bits to each protected element:
//! `C` bits per constant, one bit per control branch, and `B_i` bits per
//! basic block. The total is the working-key size
//! `W = Num_if + Num_const * C + Σ_i B_i`.

use hls_core::{Fsmd, KeyRange, NextState};
use hls_ir::BlockId;
use std::collections::BTreeMap;

/// Which techniques receive key bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Assign `C` bits to every constant.
    pub constants: bool,
    /// Assign one bit to every conditional branch.
    pub branches: bool,
    /// Assign `B_i` bits to every basic block.
    pub dfg_variants: bool,
    /// The fixed constant width `C` (32 in the paper's evaluation). A
    /// constant whose type is wider than `C` uses its type width instead.
    pub const_width: u32,
    /// Key bits per basic block `B_i` (4 in the paper's evaluation,
    /// giving up to 16 DFG variants).
    pub bits_per_block: u32,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            constants: true,
            branches: true,
            dfg_variants: true,
            const_width: 32,
            bits_per_block: 4,
        }
    }
}

impl PlanConfig {
    /// Builder-style technique selection: enables exactly the listed
    /// techniques, keeping the default widths.
    pub fn techniques(constants: bool, branches: bool, dfg_variants: bool) -> PlanConfig {
        PlanConfig { constants, branches, dfg_variants, ..PlanConfig::default() }
    }

    /// Returns `self` with the per-block key budget `B_i` replaced.
    pub fn with_bits_per_block(self, bits_per_block: u32) -> PlanConfig {
        PlanConfig { bits_per_block, ..self }
    }

    /// Short label for reports: one letter per enabled technique
    /// (`c`onstants, `b`ranches, `v`ariants), e.g. `"cbv"` or `"c--"`.
    pub fn label(&self) -> String {
        format!(
            "{}{}{}",
            if self.constants { 'c' } else { '-' },
            if self.branches { 'b' } else { '-' },
            if self.dfg_variants { 'v' } else { '-' },
        )
    }
}

/// The key-bit assignment for one design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPlan {
    /// Key range protecting each constant (indexed like `Fsmd::consts`).
    pub const_ranges: Vec<Option<KeyRange>>,
    /// Key bit of each *state* holding a conditional branch (state index →
    /// working-key bit).
    pub branch_bits: BTreeMap<usize, u32>,
    /// Key range selecting the DFG variant of each basic block.
    pub block_ranges: BTreeMap<BlockId, KeyRange>,
    /// Total working-key bits (the paper's `W`).
    pub total_bits: u32,
    /// The configuration that produced this plan.
    pub config: PlanConfig,
}

impl KeyPlan {
    /// Computes the assignment for a baseline FSMD.
    ///
    /// Bits are laid out constants-first, then branches, then blocks, in
    /// deterministic index order, so a plan is reproducible from the design
    /// alone.
    pub fn apportion(fsmd: &Fsmd, config: PlanConfig) -> KeyPlan {
        let mut next = 0u32;
        let mut const_ranges = vec![None; fsmd.consts.len()];
        if config.constants {
            for (i, c) in fsmd.consts.iter().enumerate() {
                let width = config.const_width.max(c.ty.width() as u32);
                const_ranges[i] = Some(KeyRange { lo: next, width });
                next += width;
            }
        }
        let mut branch_bits = BTreeMap::new();
        if config.branches {
            for (si, st) in fsmd.states.iter().enumerate() {
                if matches!(st.next, NextState::Branch { .. }) {
                    branch_bits.insert(si, next);
                    next += 1;
                }
            }
        }
        let mut block_ranges = BTreeMap::new();
        if config.dfg_variants {
            let mut blocks: Vec<BlockId> = fsmd.states.iter().map(|s| s.block).collect();
            blocks.sort();
            blocks.dedup();
            for b in blocks {
                block_ranges.insert(b, KeyRange { lo: next, width: config.bits_per_block });
                next += config.bits_per_block;
            }
        }
        KeyPlan { const_ranges, branch_bits, block_ranges, total_bits: next, config }
    }

    /// Evaluates Eq. 1 for reporting: `W = Num_if + Num_const*C + Σ B_i`
    /// with the *paper's* accounting (every constant counted at `C`,
    /// every block at `B_i`), regardless of which techniques are enabled.
    pub fn equation_1(
        num_cjmp: usize,
        num_const: usize,
        num_blocks: usize,
        const_width: u32,
        bits_per_block: u32,
    ) -> u64 {
        num_cjmp as u64
            + num_const as u64 * const_width as u64
            + num_blocks as u64 * bits_per_block as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::{synthesize, HlsOptions};

    fn fsmd(src: &str, top: &str) -> Fsmd {
        let m = hls_frontend::compile(src, "t").unwrap();
        synthesize(&m, top, &HlsOptions::default()).unwrap()
    }

    const KERNEL: &str = r#"
        int f(int n) {
            int s = 3;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) s += 5 * i;
                else s -= 7;
            }
            return s;
        }
    "#;

    #[test]
    fn full_plan_layout_is_disjoint_and_dense() {
        let f = fsmd(KERNEL, "f");
        let plan = KeyPlan::apportion(&f, PlanConfig::default());
        // Collect all ranges and check they tile [0, total) without overlap.
        let mut covered = vec![false; plan.total_bits as usize];
        let mut mark = |lo: u32, w: u32| {
            for i in lo..lo + w {
                assert!(!covered[i as usize], "bit {i} assigned twice");
                covered[i as usize] = true;
            }
        };
        for r in plan.const_ranges.iter().flatten() {
            mark(r.lo, r.width);
        }
        for &b in plan.branch_bits.values() {
            mark(b, 1);
        }
        for r in plan.block_ranges.values() {
            mark(r.lo, r.width);
        }
        assert!(covered.iter().all(|&c| c), "key bits left unassigned");
    }

    #[test]
    fn disabled_techniques_consume_no_bits() {
        let f = fsmd(KERNEL, "f");
        let only_branches = KeyPlan::apportion(
            &f,
            PlanConfig { constants: false, dfg_variants: false, ..PlanConfig::default() },
        );
        assert_eq!(only_branches.total_bits as usize, only_branches.branch_bits.len());
        assert!(only_branches.const_ranges.iter().all(|r| r.is_none()));
        assert!(only_branches.block_ranges.is_empty());
    }

    #[test]
    fn equation_1_reproduces_table_1() {
        // All five rows of the paper's Table 1 with C=32, B_i=4.
        for (consts, bb, cjmp, w) in [
            (4usize, 88usize, 4usize, 484u64),
            (5, 100, 5, 565),
            (2, 11, 2, 110),
            (12, 123, 11, 887),
            (117, 98, 9, 4145),
        ] {
            assert_eq!(KeyPlan::equation_1(cjmp, consts, bb, 32, 4), w);
        }
    }

    #[test]
    fn wide_constants_get_their_type_width() {
        let f = fsmd("long f(long a) { return a + 0x123456789; }", "f");
        let plan = KeyPlan::apportion(&f, PlanConfig::default());
        let wide = plan.const_ranges.iter().flatten().any(|r| r.width == 64);
        assert!(wide, "64-bit constant should receive 64 key bits");
    }

    #[test]
    fn plan_is_deterministic() {
        let f = fsmd(KERNEL, "f");
        let a = KeyPlan::apportion(&f, PlanConfig::default());
        let b = KeyPlan::apportion(&f, PlanConfig::default());
        assert_eq!(a, b);
    }
}
