//! Decode allocations are bounded by the input, for *arbitrary* inputs.
//!
//! The decoder's proportionality guard (counts validated against bytes
//! present before any buffer is sized — `docs/ARTIFACT_FORMAT.md` §2)
//! is measured here, not assumed: this binary installs the counting
//! allocator and property-tests that decoding arbitrary bytes — raw,
//! and resealed with a valid checksum so they reach past the integrity
//! gate — never panics and never requests a single allocation above
//! [`decode_alloc_budget`].
//!
//! Deliberately a single `#[test]`: the allocation tracker is
//! process-global, so this binary keeps exactly one measuring thread.

use proptest::prelude::*;
use spanner_fuzz::alloc::{decode_alloc_budget, measure, CountingAlloc};
use spanner_fuzz::mutate::fix_checksum;
use spanner_harness::corpus::decode_outcome;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The artifact magic, so framed tails reach past the magic gate.
const MAGIC: &[u8; 8] = b"VFTSPANR";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_never_panics_and_never_overallocates(
        tail in proptest::collection::vec(any::<u8>(), 0..2048),
        with_magic in any::<bool>(),
    ) {
        // Raw garbage, magic-prefixed garbage, and resealed
        // magic-prefixed garbage (which passes the checksum gate and
        // reaches the section parsers with attacker-controlled
        // lengths).
        let mut inputs: Vec<Vec<u8>> = vec![tail.clone()];
        if with_magic {
            let mut framed = MAGIC.to_vec();
            framed.extend_from_slice(&1u32.to_le_bytes());
            framed.extend_from_slice(&tail);
            let mut sealed = framed.clone();
            if fix_checksum(&mut sealed) {
                inputs.push(sealed);
            }
            inputs.push(framed);
        }
        for bytes in &inputs {
            let (outcome, peak) = measure(|| decode_outcome(bytes));
            if let Err(why) = outcome {
                return Err(TestCaseError::fail(format!(
                    "decode contract violated on {} bytes: {why}",
                    bytes.len()
                )));
            }
            let peak = peak.expect("counting allocator is installed in this binary");
            let budget = decode_alloc_budget(bytes.len());
            prop_assert!(
                peak <= budget,
                "decode of {} bytes made a {peak}-byte allocation (budget {budget})",
                bytes.len()
            );
        }
    }
}
