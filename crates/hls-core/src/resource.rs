//! Functional-unit library and cost model.
//!
//! Mirrors the role of the technology library in the paper's flow (Synopsys
//! SAED 32 nm at a 2 ns / 500 MHz target): every datapath component has an
//! area (µm²) and a propagation delay (ns) parametrized by bit-width. The
//! absolute values are calibrated to published SAED32 synthesis results so
//! that *relative* overheads (Figure 6) are meaningful.

use hls_ir::{ArrayId, BinOp, Instr, UnOp};

/// Kinds of datapath resources the binder allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuKind {
    /// Adder/subtractor ALU (also executes negation).
    AddSub,
    /// Multiplier.
    Mul,
    /// Divider (also remainder).
    Div,
    /// Barrel shifter.
    Shift,
    /// Bitwise logic unit (and/or/xor/not).
    Logic,
    /// Comparator.
    Cmp,
    /// Memory port of one array (single-ported RAM: one access per cycle).
    MemPort(ArrayId),
    /// Pure routing (register moves and width conversions); unlimited and
    /// free of functional-unit area.
    Wire,
}

impl FuKind {
    /// The resource kind an instruction executes on, or `None` for calls
    /// (which must have been inlined before scheduling).
    pub fn of_instr(instr: &Instr) -> Option<FuKind> {
        Some(match instr {
            Instr::Binary { op, .. } => match op {
                BinOp::Add | BinOp::Sub => FuKind::AddSub,
                BinOp::Mul => FuKind::Mul,
                BinOp::Div | BinOp::Rem => FuKind::Div,
                BinOp::Shl | BinOp::Shr => FuKind::Shift,
                BinOp::And | BinOp::Or | BinOp::Xor => FuKind::Logic,
            },
            Instr::Unary { op, .. } => match op {
                UnOp::Neg => FuKind::AddSub,
                UnOp::Not => FuKind::Logic,
            },
            Instr::Cmp { .. } => FuKind::Cmp,
            Instr::Convert { .. } | Instr::Copy { .. } => FuKind::Wire,
            Instr::Load { array, .. } | Instr::Store { array, .. } => FuKind::MemPort(*array),
            Instr::Call { .. } => return None,
        })
    }

    /// Latency in clock cycles (non-pipelined occupation).
    pub fn latency(&self) -> u32 {
        match self {
            FuKind::Mul => 2,
            FuKind::Div => 4,
            _ => 1,
        }
    }

    /// Whether instances of this kind are unlimited.
    pub fn is_unlimited(&self) -> bool {
        matches!(self, FuKind::Wire)
    }
}

/// Area/delay cost model (SAED32-calibrated component estimates).
///
/// All `area_*` results are in µm², all `delay_*` results in ns.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Area of one flip-flop bit.
    pub reg_bit_area: f64,
    /// Area of one 2:1 mux bit.
    pub mux2_bit_area: f64,
    /// Area of one XOR gate (key-decrypt gates).
    pub xor_bit_area: f64,
    /// Delay of one 2:1 mux level.
    pub mux2_delay: f64,
    /// Delay of one XOR gate.
    pub xor_delay: f64,
    /// Register setup + clock-to-q.
    pub reg_overhead_delay: f64,
    /// Per-state controller decode area.
    pub fsm_state_area: f64,
    /// Per-transition controller area.
    pub fsm_transition_area: f64,
    /// Controller output-decode area per control signal per state (scaled).
    pub fsm_output_area: f64,
    /// Controller decode delay contribution per state bit.
    pub fsm_decode_delay: f64,
    /// Area per bit of hardwired constant (baseline constants are literals
    /// folded into logic).
    pub const_bit_area: f64,
    /// Area per bit of NVM storage (AES key-management scheme).
    pub nvm_bit_area: f64,
    /// Fixed area of the AES-256 decryption block (paper Sec. 3.4: "the
    /// first contribution is fixed and depends on the AES implementation").
    pub aes_block_area: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            reg_bit_area: 6.0,
            mux2_bit_area: 2.2,
            xor_bit_area: 1.6,
            mux2_delay: 0.06,
            xor_delay: 0.045,
            reg_overhead_delay: 0.18,
            fsm_state_area: 9.0,
            fsm_transition_area: 4.0,
            fsm_output_area: 0.5,
            fsm_decode_delay: 0.03,
            const_bit_area: 0.9,
            nvm_bit_area: 1.2,
            aes_block_area: 14_000.0,
        }
    }
}

impl CostModel {
    /// Area of a functional unit of `kind` at `width` bits.
    pub fn fu_area(&self, kind: FuKind, width: u8) -> f64 {
        let w = width as f64;
        match kind {
            FuKind::AddSub => 9.5 * w,
            FuKind::Mul => 3.1 * w * w,
            FuKind::Div => 4.6 * w * w,
            FuKind::Shift => 7.2 * w * (w.max(2.0)).log2(),
            FuKind::Logic => 2.6 * w,
            FuKind::Cmp => 4.2 * w,
            // Port logic only; RAM macros are counted separately.
            FuKind::MemPort(_) => 3.0 * w,
            FuKind::Wire => 0.0,
        }
    }

    /// Combinational delay of a functional unit of `kind` at `width` bits,
    /// per occupied cycle (multi-cycle units divide their total delay).
    pub fn fu_delay(&self, kind: FuKind, width: u8) -> f64 {
        let w = width as f64;
        let total = match kind {
            FuKind::AddSub => 0.28 + 0.016 * w,
            FuKind::Mul => 0.55 + 0.055 * w,
            FuKind::Div => 0.8 + 0.16 * w,
            FuKind::Shift => 0.30 + 0.065 * (w.max(2.0)).log2(),
            FuKind::Logic => 0.16,
            FuKind::Cmp => 0.22 + 0.012 * w,
            FuKind::MemPort(_) => 0.65,
            FuKind::Wire => 0.02,
        };
        total / kind.latency() as f64
    }

    /// Area of an `inputs`-way mux at `width` bits: `(inputs-1)` 2:1 muxes
    /// per bit.
    pub fn mux_area(&self, inputs: usize, width: u8) -> f64 {
        if inputs <= 1 {
            return 0.0;
        }
        (inputs - 1) as f64 * self.mux2_bit_area * width as f64
    }

    /// Delay through an `inputs`-way mux (`ceil(log2(inputs))` 2:1 levels).
    pub fn mux_delay(&self, inputs: usize) -> f64 {
        if inputs <= 1 {
            return 0.0;
        }
        (inputs as f64).log2().ceil() * self.mux2_delay
    }

    /// RAM macro area for `bits` total bits (regfile-style estimate).
    pub fn ram_area(&self, bits: u64) -> f64 {
        1.6 * bits as f64 + 80.0
    }
}

/// How many instances of each limited resource kind the flow may allocate
/// (the paper's Bambu flow does the same through its allocation step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Adder/subtractor count.
    pub add_sub: u32,
    /// Multiplier count.
    pub mul: u32,
    /// Divider count.
    pub div: u32,
    /// Shifter count.
    pub shift: u32,
    /// Logic-unit count.
    pub logic: u32,
    /// Comparator count.
    pub cmp: u32,
}

impl Default for Allocation {
    fn default() -> Self {
        Allocation { add_sub: 2, mul: 1, div: 1, shift: 1, logic: 2, cmp: 1 }
    }
}

impl Allocation {
    /// Minimal budget: one instance of every limited kind. The slowest,
    /// smallest schedules — one end of the DSE sweep.
    pub fn lean() -> Allocation {
        Allocation { add_sub: 1, mul: 1, div: 1, shift: 1, logic: 1, cmp: 1 }
    }

    /// Generous budget (4 adders / 2 multipliers): the fast, large end of
    /// the DSE sweep.
    pub fn wide() -> Allocation {
        Allocation { add_sub: 4, mul: 2, div: 1, shift: 2, logic: 4, cmp: 2 }
    }

    /// The labelled lean / default / wide ladder design-space exploration
    /// sweeps over.
    pub fn presets() -> Vec<(&'static str, Allocation)> {
        vec![
            ("lean", Allocation::lean()),
            ("default", Allocation::default()),
            ("wide", Allocation::wide()),
        ]
    }

    /// Returns `self` with the multiplier budget replaced.
    pub fn with_mul(self, mul: u32) -> Allocation {
        Allocation { mul, ..self }
    }

    /// Returns `self` with the adder/subtractor budget replaced.
    pub fn with_add_sub(self, add_sub: u32) -> Allocation {
        Allocation { add_sub, ..self }
    }

    /// Instance budget for `kind` (`u32::MAX` for unlimited kinds, 1 for
    /// memory ports — single-ported RAMs).
    pub fn count(&self, kind: FuKind) -> u32 {
        match kind {
            FuKind::AddSub => self.add_sub,
            FuKind::Mul => self.mul,
            FuKind::Div => self.div,
            FuKind::Shift => self.shift,
            FuKind::Logic => self.logic,
            FuKind::Cmp => self.cmp,
            FuKind::MemPort(_) => 1,
            FuKind::Wire => u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{Operand, Type, ValueId};

    #[test]
    fn instr_to_kind() {
        let add = Instr::Binary {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Operand::Value(ValueId(0)),
            rhs: Operand::Value(ValueId(1)),
            dst: ValueId(2),
        };
        assert_eq!(FuKind::of_instr(&add), Some(FuKind::AddSub));
        let cp = Instr::Copy { ty: Type::I32, src: Operand::Value(ValueId(0)), dst: ValueId(1) };
        assert_eq!(FuKind::of_instr(&cp), Some(FuKind::Wire));
        let ld = Instr::Load {
            ty: Type::I32,
            array: ArrayId(3),
            index: Operand::Value(ValueId(0)),
            dst: ValueId(1),
        };
        assert_eq!(FuKind::of_instr(&ld), Some(FuKind::MemPort(ArrayId(3))));
    }

    #[test]
    fn areas_grow_with_width() {
        let cm = CostModel::default();
        for kind in [FuKind::AddSub, FuKind::Mul, FuKind::Div, FuKind::Shift] {
            assert!(cm.fu_area(kind, 32) > cm.fu_area(kind, 8), "{kind:?}");
        }
        // Multiplier dominates the adder, as in any real library.
        assert!(cm.fu_area(FuKind::Mul, 32) > 10.0 * cm.fu_area(FuKind::AddSub, 32));
    }

    #[test]
    fn mux_costs() {
        let cm = CostModel::default();
        assert_eq!(cm.mux_area(1, 32), 0.0);
        assert!(cm.mux_area(4, 32) > cm.mux_area(2, 32));
        assert_eq!(cm.mux_delay(1), 0.0);
        assert!((cm.mux_delay(2) - cm.mux2_delay).abs() < 1e-9);
        assert!((cm.mux_delay(8) - 3.0 * cm.mux2_delay).abs() < 1e-9);
    }

    #[test]
    fn default_allocation_counts() {
        let a = Allocation::default();
        assert_eq!(a.count(FuKind::Wire), u32::MAX);
        assert_eq!(a.count(FuKind::MemPort(ArrayId(0))), 1);
        assert_eq!(a.count(FuKind::Mul), 1);
    }

    #[test]
    fn latencies() {
        assert_eq!(FuKind::AddSub.latency(), 1);
        assert_eq!(FuKind::Mul.latency(), 2);
        assert_eq!(FuKind::Div.latency(), 4);
    }

    #[test]
    fn fits_500mhz_target_at_32_bits() {
        // The paper targets 500 MHz (2 ns). A 32-bit add + mux + register
        // overhead must fit comfortably.
        let cm = CostModel::default();
        let path = cm.mux_delay(4) + cm.fu_delay(FuKind::AddSub, 32) + cm.reg_overhead_delay;
        assert!(path < 2.0, "32-bit add path {path} ns exceeds 2 ns");
    }
}
