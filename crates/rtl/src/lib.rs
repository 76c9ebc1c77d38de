//! # rtl — RTL-level services for the TAO reproduction
//!
//! Substitutes the commercial tools of the paper's evaluation:
//!
//! - [`sim`]: a cycle-accurate FSMD simulator with a working-key input
//!   port (the paper's Mentor ModelSim testbenches);
//! - [`mod@area`]: component-level area estimation (Synopsys Design Compiler
//!   on the SAED 32 nm library);
//! - [`mod@timing`]: critical-path / Fmax estimation (the paper's 500 MHz
//!   target);
//! - [`testbench`]: golden-model comparison and output-corruptibility
//!   (Hamming distance) measurement (Sec. 4.3).
//!
//! ## Example
//!
//! ```
//! use rtl::{simulate, SimOptions};
//! use hls_core::KeyBits;
//!
//! let m = hls_frontend::compile("int inc(int x) { return x + 1; }", "demo")?;
//! let fsmd = hls_core::synthesize(&m, "inc", &hls_core::HlsOptions::default())?;
//! let res = rtl::simulate(&fsmd, &[41], &KeyBits::zero(0), &[], &SimOptions::default())?;
//! assert_eq!(res.ret, Some(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod sim;
pub mod tape;
pub mod testbench;
pub mod timing;
pub mod vcd;

pub use area::{area, AreaReport, PortStats};
pub use sim::{simulate, SimError, SimOptions, SimResult, SimStats};
pub use tape::{CompiledFsmd, FsmdRunner, SpecFsmd};
pub use testbench::{golden_outputs, images_equal, rtl_outputs, OutputImage, TestCase};
pub use timing::{timing, TimingReport};
pub use vcd::{trace, SignalTrace, Waveform};
