//! Bind-time specialization for the Verilog op-tape backend.
//!
//! The [`crate::tape`] compiler already classifies *run-constant* wires
//! — nets whose transitive dependencies are only run-stable inputs (the
//! working key and the argument ports) — and evaluates them once per
//! run instead of once per cycle. This module carries that one step
//! further, to the same bind-time contract as `rtl::spec`: the
//! **key-only** subset of those wires (no argument-port reads) is a
//! pure function of the working key, so its values are stable across
//! *runs*, not just across cycles. [`crate::TapeRunner`] therefore
//! keeps a [`KeyConstCache`]: the first run under a key evaluates the
//! key-constant wires and harvests their values; every subsequent run
//! under the same key restores them by copy and pins their freshness
//! stamps, never touching the evaluation segments.
//!
//! For TAO-locked designs this is exactly the decrypt-constant layer —
//! every `32'hXXXX ^ working_key[hi:lo]` net and everything downstream
//! of it that doesn't read an argument port. The batch pattern the grid
//! executor runs (one key, many stimuli) then pays for key decryption
//! once per *key* instead of once per run, with bit-identical results:
//! a restored value is byte-for-byte the value re-evaluation would have
//! produced, because its inputs (the key) have not changed.

use hls_core::KeyBits;

/// Cached key-constant wire values for one working key, held by
/// [`crate::TapeRunner`] across runs. Values are parallel to the tape's
/// key-constant wire list (topological order).
#[derive(Debug, Clone)]
pub struct KeyConstCache {
    key: KeyBits,
    vals: Vec<u64>,
}

impl KeyConstCache {
    pub(crate) fn new(key: KeyBits, vals: Vec<u64>) -> KeyConstCache {
        KeyConstCache { key, vals }
    }

    /// Whether this cache was harvested under `key`.
    pub(crate) fn matches(&self, key: &KeyBits) -> bool {
        &self.key == key
    }

    /// The cached values, parallel to `VlogTape::key_const_wires`.
    pub(crate) fn vals(&self) -> &[u64] {
        &self.vals
    }
}
