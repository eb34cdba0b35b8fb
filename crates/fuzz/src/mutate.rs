//! Structure-aware mutation of `VFTSPANR` containers.
//!
//! A naive byte-flipping fuzzer gets stopped at the door: the container
//! verifies its trailing checksum *before* parsing any section, so
//! random corruption almost always lands in the `artifact/bit-flip`
//! bucket and the section parsers never see a hostile byte. The
//! [`Mutator`] therefore understands the container's section table and
//! reseals most mutants with a recomputed [`fnv1a64_words`] checksum
//! ([`Mutant::checksum_fixed`]) so the mutation reaches the decode
//! logic it is aimed at.
//!
//! Each [`AttackClass`] names a *mutation strategy*, not a decoder
//! outcome: a truncation can surface as `artifact/truncation` or (when
//! it severs a whole section) `artifact/missing-section`; an inflated
//! length field as `artifact/truncation` or `artifact/malformed`. The
//! mapping from class to the set of plausible stable codes is
//! documented in `docs/ARTIFACT_FORMAT.md` §8, and the committed corpus
//! pins observed `(class, code)` pairs by filename.
//!
//! Everything here is deterministic: the same `Mutator` seed and the
//! same seed artifact produce byte-identical mutants, in-process and in
//! CI.

use rand::{rngs::StdRng, Rng, SeedableRng};
use spanner_graph::io::binary::{
    fnv1a64_words, put_u64, ContainerWriter, HEADER_LEN, SECTION_ENTRY_LEN,
};

/// Byte width of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// The mutation strategies the fuzzer applies, one per adversarial
/// capability we defend against. See the taxonomy appendix in
/// `docs/ARTIFACT_FORMAT.md` §8 for the decoder codes each class is
/// expected to surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackClass {
    /// Cut the byte stream short — mid-field, mid-section, or exactly at
    /// a structural boundary (lost trailing bytes in transfer).
    Truncation,
    /// Flip a single bit. Usually resealed with a fresh checksum so the
    /// corruption reaches the section parsers; left unsealed some of the
    /// time to keep the checksum gate itself under test.
    BitFlip,
    /// Duplicate a section: a re-lay with one tag appearing twice in the
    /// table (a replayed/spliced-in section from another copy of the
    /// file).
    SectionReplay,
    /// Transplant one section's payload into another section's frame,
    /// keeping the frame lengths self-consistent (well-formed container,
    /// hostile content).
    SectionSplice,
    /// Inflate a section's length field beyond the bytes that follow
    /// (the classic allocate-from-attacker-controlled-length probe).
    LengthInflation,
    /// Perturb a count field inside one section so it contradicts
    /// another section (e.g. meta's node count vs the table lengths).
    CrossSection,
}

impl AttackClass {
    /// Every class, in the fixed order used by reports and corpus
    /// generation.
    pub const ALL: [AttackClass; 6] = [
        AttackClass::Truncation,
        AttackClass::BitFlip,
        AttackClass::SectionReplay,
        AttackClass::SectionSplice,
        AttackClass::LengthInflation,
        AttackClass::CrossSection,
    ];

    /// Stable kebab-case name, used in corpus filenames and the
    /// `vft-spanner/fuzz-1` findings artifact.
    pub fn name(self) -> &'static str {
        match self {
            AttackClass::Truncation => "truncation",
            AttackClass::BitFlip => "bit-flip",
            AttackClass::SectionReplay => "section-replay",
            AttackClass::SectionSplice => "section-splice",
            AttackClass::LengthInflation => "length-inflation",
            AttackClass::CrossSection => "cross-section",
        }
    }

    /// Parses a [`name`](Self::name) back into the class.
    pub fn from_name(name: &str) -> Option<AttackClass> {
        AttackClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// One hostile input produced by the [`Mutator`].
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The strategy that produced these bytes. When container framing
    /// could not be recovered from the seed, strategies degrade to
    /// [`AttackClass::BitFlip`] and this field says so.
    pub class: AttackClass,
    /// Whether the trailing checksum was recomputed after mutation, so
    /// the bytes pass the integrity gate and exercise section parsing.
    pub checksum_fixed: bool,
    /// The mutated container bytes.
    pub bytes: Vec<u8>,
}

/// One section located by the lenient frame parser: byte offsets into
/// the original container. A section splits across its table entry
/// (`start`) and the padded payload region it points at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameSection {
    /// Offset of the section's table entry.
    pub(crate) start: usize,
    /// The section tag.
    pub(crate) tag: u32,
    /// Offset of the `len` u64 field inside the table entry.
    pub(crate) len_at: usize,
    /// Offset of the payload.
    pub(crate) payload: usize,
    /// Payload byte length as claimed by the len field (and verified to
    /// fit, else the parser stops).
    pub(crate) len: usize,
}

impl FrameSection {
    pub(crate) fn end(&self) -> usize {
        self.payload + self.len
    }
}

/// Lenient section-frame recovery: reads the section table (count
/// bounded by the bytes present, entries kept only while their payloads
/// fit), stopping — not failing — at the first entry that does not fit.
/// Unlike the real parser it ignores reserved fields, alignment,
/// padding, unknown tags, and duplicates: those are the parser's gates,
/// and mutants of mutants must still be mutable. Also used by
/// [`crate::seeds::directed_probes`] to aim byte surgery at a specific
/// section.
pub(crate) fn frame_sections(bytes: &[u8]) -> Vec<FrameSection> {
    let mut sections = Vec::new();
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return sections;
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    let claimed = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let fits = ((body_end - HEADER_LEN) / SECTION_ENTRY_LEN) as u64;
    for i in 0..claimed.min(fits) as usize {
        let entry = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let tag = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap());
        let (Ok(payload), Ok(len)) = (usize::try_from(offset), usize::try_from(len)) else {
            break;
        };
        if payload < HEADER_LEN || !payload.checked_add(len).is_some_and(|end| end <= body_end) {
            break;
        }
        sections.push(FrameSection {
            start: entry,
            tag,
            len_at: entry + 16,
            payload,
            len,
        });
    }
    sections
}

/// Recomputes and rewrites the trailing checksum so the mutant passes
/// the integrity gate. No-op on inputs too short to carry a container
/// header and checksum.
pub fn fix_checksum(bytes: &mut Vec<u8>) -> bool {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return false;
    }
    let body = bytes.len() - CHECKSUM_LEN;
    let sum = fnv1a64_words(&bytes[..body]);
    bytes.truncate(body);
    put_u64(bytes, sum);
    true
}

/// Re-lays a container from `(tag, payload)` parts with the seed's magic
/// and flags — canonical framing (honest table, correct padding, fresh
/// checksum) around whatever hostile content the parts carry.
pub(crate) fn rebuild(seed: &[u8], parts: Vec<(u32, Vec<u8>)>) -> Vec<u8> {
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&seed[..8]);
    let flags = u32::from_le_bytes(seed[12..16].try_into().unwrap());
    let mut w = ContainerWriter::new(magic, flags);
    for (tag, payload) in parts {
        w.section(tag, payload);
    }
    w.finish()
}

/// The seeded structure-aware mutation engine.
///
/// Deterministic by construction: mutants depend only on the seed value
/// and the sequence of calls, never on time, addresses, or iteration
/// order of anything unordered.
pub struct Mutator {
    rng: StdRng,
}

impl Mutator {
    /// Creates a mutator from a seed. Equal seeds ⇒ equal mutant
    /// streams.
    pub fn new(seed: u64) -> Self {
        Mutator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Produces one mutant of `seed_bytes`, cycling the attack class
    /// pseudo-randomly.
    pub fn mutate(&mut self, seed_bytes: &[u8]) -> Mutant {
        let class = AttackClass::ALL[self.rng.gen_range(0..AttackClass::ALL.len())];
        self.mutate_class(class, seed_bytes)
    }

    /// Produces one mutant using the given strategy. Strategies that
    /// need recoverable section framing fall back to a plain bit flip
    /// (reported as [`AttackClass::BitFlip`]) when the seed has none.
    pub fn mutate_class(&mut self, class: AttackClass, seed_bytes: &[u8]) -> Mutant {
        match class {
            AttackClass::Truncation => self.truncate(seed_bytes),
            AttackClass::BitFlip => self.bit_flip(seed_bytes),
            AttackClass::SectionReplay => self.section_replay(seed_bytes),
            AttackClass::SectionSplice => self.section_splice(seed_bytes),
            AttackClass::LengthInflation => self.length_inflation(seed_bytes),
            AttackClass::CrossSection => self.cross_section(seed_bytes),
        }
    }

    fn truncate(&mut self, seed: &[u8]) -> Mutant {
        if seed.is_empty() {
            return Mutant {
                class: AttackClass::Truncation,
                checksum_fixed: false,
                bytes: Vec::new(),
            };
        }
        // Half the time cut at a structural boundary (header edge,
        // section edge, checksum start) — those are the cuts a partial
        // transfer actually produces; otherwise cut anywhere.
        let sections = frame_sections(seed);
        let cut = if self.rng.gen_bool(0.5) && !sections.is_empty() {
            let mut boundaries = vec![HEADER_LEN.min(seed.len())];
            boundaries.extend(sections.iter().map(|s| s.end().min(seed.len())));
            boundaries.push(seed.len().saturating_sub(CHECKSUM_LEN));
            boundaries[self.rng.gen_range(0..boundaries.len())]
        } else {
            self.rng.gen_range(0..seed.len())
        };
        let mut bytes = seed[..cut].to_vec();
        // Resealing a truncated body sometimes turns "stream ended
        // early" into "a required section is absent" — both are attacks
        // worth exercising.
        let checksum_fixed = self.rng.gen_bool(0.5) && fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::Truncation,
            checksum_fixed,
            bytes,
        }
    }

    fn bit_flip(&mut self, seed: &[u8]) -> Mutant {
        let mut bytes = seed.to_vec();
        if !bytes.is_empty() {
            let at = self.rng.gen_range(0..bytes.len());
            let bit = self.rng.gen_range(0..8u32);
            bytes[at] ^= 1 << bit;
        }
        // Mostly reseal, so the flip reaches the section parsers; leave
        // a quarter unsealed to keep the checksum gate itself covered.
        let checksum_fixed = self.rng.gen_bool(0.75) && fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::BitFlip,
            checksum_fixed,
            bytes,
        }
    }

    fn section_replay(&mut self, seed: &[u8]) -> Mutant {
        let sections = frame_sections(seed);
        if sections.is_empty() {
            return self.degrade(seed);
        }
        // Sections are not contiguous records; replay the chosen one
        // through the canonical writer — honest framing carrying a
        // duplicated tag.
        let dup = self.rng.gen_range(0..sections.len());
        let mut parts = Vec::with_capacity(sections.len() + 1);
        for (i, s) in sections.iter().enumerate() {
            parts.push((s.tag, seed[s.payload..s.end()].to_vec()));
            if i == dup {
                parts.push((s.tag, seed[s.payload..s.end()].to_vec()));
            }
        }
        let mut bytes = rebuild(seed, parts);
        let checksum_fixed = fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::SectionReplay,
            checksum_fixed,
            bytes,
        }
    }

    fn section_splice(&mut self, seed: &[u8]) -> Mutant {
        let sections = frame_sections(seed);
        if sections.is_empty() {
            return self.degrade(seed);
        }
        // Rebuild the container with one section's payload transplanted
        // into another's frame (or emptied, if there is only one
        // section), keeping every length field honest: the frame stays
        // well-formed while the content lies.
        let dst = self.rng.gen_range(0..sections.len());
        let src = self.rng.gen_range(0..sections.len());
        let donor: &[u8] = if sections.len() > 1 && src != dst {
            &seed[sections[src].payload..sections[src].end()]
        } else {
            &[]
        };
        let parts = sections
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let payload = if i == dst {
                    donor
                } else {
                    &seed[s.payload..s.end()]
                };
                (s.tag, payload.to_vec())
            })
            .collect();
        let mut bytes = rebuild(seed, parts);
        let checksum_fixed = fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::SectionSplice,
            checksum_fixed,
            bytes,
        }
    }

    fn length_inflation(&mut self, seed: &[u8]) -> Mutant {
        let sections = frame_sections(seed);
        if sections.is_empty() {
            return self.degrade(seed);
        }
        let s = sections[self.rng.gen_range(0..sections.len())];
        let mut bytes = seed.to_vec();
        // Sometimes a plausible off-by-some inflation, sometimes an
        // absurd one aimed at allocation sizing.
        let inflated: u64 = if self.rng.gen_bool(0.5) {
            s.len as u64 + self.rng.gen_range(1..=4096u64)
        } else {
            self.rng.gen_range(u64::from(u32::MAX)..u64::MAX / 2)
        };
        bytes[s.len_at..s.len_at + 8].copy_from_slice(&inflated.to_le_bytes());
        let checksum_fixed = fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::LengthInflation,
            checksum_fixed,
            bytes,
        }
    }

    fn cross_section(&mut self, seed: &[u8]) -> Mutant {
        let sections = frame_sections(seed);
        // Collect every u64-sized slot inside section payloads; count
        // and length fields all live in such slots, so perturbing one
        // makes two sections (or a header and a table) disagree.
        let slots: Vec<usize> = sections
            .iter()
            .flat_map(|s| (s.payload..s.end().saturating_sub(7)).step_by(2))
            .collect();
        if slots.is_empty() {
            return self.degrade(seed);
        }
        let at = slots[self.rng.gen_range(0..slots.len())];
        let mut bytes = seed.to_vec();
        let old = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let delta = self.rng.gen_range(1..=1024u64);
        let new = if self.rng.gen_bool(0.5) {
            old.wrapping_add(delta)
        } else {
            old.wrapping_sub(delta)
        };
        bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
        let checksum_fixed = fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::CrossSection,
            checksum_fixed,
            bytes,
        }
    }

    /// Fallback when a structure-aware strategy finds no usable frame:
    /// a plain bit flip, honestly labelled as such.
    fn degrade(&mut self, seed: &[u8]) -> Mutant {
        self.bit_flip(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny well-formed container with three sections to mutate.
    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new(*b"VFTSPANR", 0);
        w.section(1, vec![7u8; 34]);
        w.section(2, 42u64.to_le_bytes().to_vec());
        w.section(3, vec![1, 2, 3, 4, 5]);
        w.finish()
    }

    #[test]
    fn framing_recovers_all_sections() {
        let bytes = sample();
        let sections = frame_sections(&bytes);
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0].len, 34);
        assert_eq!(sections[1].len, 8);
        assert_eq!(sections[2].len, 5);
        assert_eq!(
            sections[2].end(),
            bytes.len() - CHECKSUM_LEN,
            "sections must tile the body exactly"
        );
    }

    #[test]
    fn fix_checksum_reseals() {
        let mut bytes = sample();
        bytes[HEADER_LEN] ^= 0xFF;
        assert!(fix_checksum(&mut bytes));
        let body = bytes.len() - CHECKSUM_LEN;
        let stored = u64::from_le_bytes(bytes[body..].try_into().unwrap());
        assert_eq!(stored, fnv1a64_words(&bytes[..body]));
    }

    // The section-table envelope below was introduced as container
    // version 2 and is the only envelope since version 3; the `v2` in
    // these test names refers to that layout.

    #[test]
    fn framing_recovers_v2_sections_from_the_table() {
        let bytes = sample();
        let sections = frame_sections(&bytes);
        assert_eq!(
            sections.iter().map(|s| s.tag).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        // Table entries sit in the header region; payloads follow the
        // table and are 8-aligned except possibly the last (nothing
        // follows it to misalign).
        assert_eq!(sections[0].payload, HEADER_LEN + 3 * SECTION_ENTRY_LEN);
        for s in &sections[..2] {
            assert_eq!(s.payload % 8, 0, "payload at {}", s.payload);
        }
        assert_eq!(
            sections[2].end(),
            bytes.len() - CHECKSUM_LEN,
            "last payload must run to the checksum"
        );
    }

    #[test]
    fn fix_checksum_reseals_v2_with_the_word_checksum() {
        let mut bytes = sample();
        let payload = frame_sections(&bytes)[0].payload;
        let body = bytes.len() - CHECKSUM_LEN;
        let before = u64::from_le_bytes(bytes[body..].try_into().unwrap());
        bytes[payload] ^= 0xFF;
        assert!(fix_checksum(&mut bytes));
        let stored = u64::from_le_bytes(bytes[body..].try_into().unwrap());
        assert_eq!(stored, fnv1a64_words(&bytes[..body]));
        assert_ne!(stored, before, "a payload edit must change the seal");
    }

    #[test]
    fn every_class_mutates_a_well_formed_v2_container() {
        // Real encoder output rather than the hand-laid sample: every
        // seed keeps its framing under every class.
        let mut m = Mutator::new(9);
        for seed in crate::seeds::all_seeds() {
            for class in AttackClass::ALL {
                let mutant = m.mutate_class(class, &seed.bytes);
                assert_eq!(
                    mutant.class, class,
                    "{}: framing present, no degrade",
                    seed.name
                );
                assert_ne!(
                    mutant.bytes, seed.bytes,
                    "{}: mutant must differ",
                    seed.name
                );
            }
        }
    }

    #[test]
    fn equal_seeds_produce_identical_mutant_streams() {
        let seed = sample();
        let run = |s: u64| {
            let mut m = Mutator::new(s);
            (0..64).map(|_| m.mutate(&seed)).collect::<Vec<_>>()
        };
        let (a, b) = (run(11), run(11));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.checksum_fixed, y.checksum_fixed);
            assert_eq!(x.bytes, y.bytes);
        }
        // And a different seed diverges somewhere (not a fixed stream).
        let c = run(12);
        assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
    }

    #[test]
    fn every_class_mutates_a_well_formed_container() {
        let seed = sample();
        let mut m = Mutator::new(3);
        for class in AttackClass::ALL {
            let mutant = m.mutate_class(class, &seed);
            assert_eq!(mutant.class, class, "framing present, no degrade");
            assert_ne!(mutant.bytes, seed, "mutant must differ from seed");
            assert_eq!(AttackClass::from_name(class.name()), Some(class));
        }
    }

    #[test]
    fn structure_aware_classes_degrade_to_bit_flip_without_framing() {
        let mut m = Mutator::new(5);
        let garbage = vec![0xAB; 10];
        for class in [
            AttackClass::SectionReplay,
            AttackClass::SectionSplice,
            AttackClass::LengthInflation,
            AttackClass::CrossSection,
        ] {
            let mutant = m.mutate_class(class, &garbage);
            assert_eq!(mutant.class, AttackClass::BitFlip);
        }
    }

    #[test]
    fn checksum_fixed_mutants_pass_the_integrity_gate() {
        let seed = sample();
        let mut m = Mutator::new(7);
        let mut fixed_seen = 0;
        for _ in 0..128 {
            let mutant = m.mutate(&seed);
            if !mutant.checksum_fixed || mutant.bytes.len() < HEADER_LEN + CHECKSUM_LEN {
                continue;
            }
            fixed_seen += 1;
            let body = mutant.bytes.len() - CHECKSUM_LEN;
            let stored = u64::from_le_bytes(mutant.bytes[body..].try_into().unwrap());
            assert_eq!(stored, fnv1a64_words(&mutant.bytes[..body]));
        }
        assert!(fixed_seen > 32, "resealing should be the common case");
    }
}
