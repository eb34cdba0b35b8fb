//! Seed artifacts for the fuzzer: small, varied, legitimately-encoded
//! containers the [`Mutator`](crate::mutate::Mutator) corrupts.
//!
//! Structure-aware fuzzing is only as good as its seeds: a mutant of a
//! bare freeze can never exercise the witness-map cross-checks, and a
//! mutant of a vertex-model artifact never walks the edge-model decode
//! arm. So the seed set deliberately spans both container kinds
//! (`VFTSPANR` spanner artifacts, `VFTGRAPH` standalone graphs), both
//! fault models, budgets f ∈ {0, 1, 2} (witness strides of 4, 8 and 12
//! bytes), with-parent and bare freezes, and empty through
//! moderately-sized graphs — every decode arm has at least one seed
//! whose mutants reach it.
//!
//! Seeds are deterministic (fixed generator seeds, no clocks), so the
//! corpus files derived from them are stable across runs and machines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::{greedy_spanner, FtGreedy};
use spanner_faults::FaultModel;
use spanner_graph::io::binary::encode_frozen_csr;
use spanner_graph::{generators, FrozenCsr, Graph};

/// One seed: a short stable name (used in logs and corpus filenames)
/// plus the encoded container bytes.
pub struct Seed {
    /// Stable kebab-case name of the seed construction.
    pub name: &'static str,
    /// The legitimately-encoded container bytes.
    pub bytes: Vec<u8>,
}

fn ft_artifact(g: &Graph, stretch: u64, f: usize, model: FaultModel) -> Vec<u8> {
    FtGreedy::new(g, stretch)
        .faults(f)
        .model(model)
        .run()
        .freeze(g)
        .encode()
}

/// `VFTSPANR` spanner-artifact seeds: both fault models, f ∈ {0, 1, 2},
/// with-parent and bare freezes.
pub fn spanner_seeds() -> Vec<Seed> {
    let mut rng = StdRng::seed_from_u64(1009);
    let geometric = generators::random_geometric(12, 0.6, &mut rng);
    vec![
        Seed {
            name: "complete6-f1-vertex",
            bytes: ft_artifact(&generators::complete(6), 3, 1, FaultModel::Vertex),
        },
        Seed {
            name: "cycle8-f0-vertex",
            bytes: ft_artifact(&generators::cycle(8), 3, 0, FaultModel::Vertex),
        },
        Seed {
            name: "geometric12-f2-edge",
            bytes: ft_artifact(&geometric, 3, 2, FaultModel::Edge),
        },
        Seed {
            name: "grid3x3-f1-vertex",
            bytes: ft_artifact(&generators::grid(3, 3), 5, 1, FaultModel::Vertex),
        },
        Seed {
            // Bare freeze: no parent, no budget, no witnesses — the
            // optional-section decode arms.
            name: "petersen-bare",
            bytes: greedy_spanner(&generators::petersen(), 3).freeze().encode(),
        },
    ]
}

/// `VFTGRAPH` standalone frozen-graph seeds, including the empty graph
/// (zero sections of payload is itself an edge case worth mutating).
pub fn graph_seeds() -> Vec<Seed> {
    let mut rng = StdRng::seed_from_u64(2003);
    let sparse = generators::erdos_renyi(10, 0.3, &mut rng);
    vec![
        Seed {
            name: "petersen-graph",
            bytes: encode_frozen_csr(&FrozenCsr::from_view(&generators::petersen())),
        },
        Seed {
            name: "cycle5-graph",
            bytes: encode_frozen_csr(&FrozenCsr::from_view(&generators::cycle(5))),
        },
        Seed {
            name: "empty-graph",
            bytes: encode_frozen_csr(&FrozenCsr::from_view(&Graph::new(0))),
        },
        Seed {
            name: "erdos10-graph",
            bytes: encode_frozen_csr(&FrozenCsr::from_view(&sparse)),
        },
    ]
}

/// All seeds, spanner artifacts first — the order is part of the
/// determinism contract (mutant streams index into it).
pub fn all_seeds() -> Vec<Seed> {
    let mut seeds = spanner_seeds();
    seeds.extend(graph_seeds());
    seeds
}

/// One hand-aimed hostile input: a deterministic byte surgery designed
/// to surface a *specific* decoder defect.
pub struct Probe {
    /// The attack class the surgery belongs to (a
    /// [`crate::mutate::AttackClass`] name, used in the corpus file
    /// name).
    pub class: &'static str,
    /// The hostile bytes.
    pub bytes: Vec<u8>,
}

/// Directed probes: where the random mutator *samples* the attack
/// surface, these aim one input at each decoder gate the sampler may
/// miss in a small committed corpus — wrong magic, wrong version,
/// unknown tag, dropped required section, simple-graph violation, raw
/// truncation, unsealed corruption, a payload off the 8-byte grid, a
/// routing-only (witnesses-detached) artifact, and each fixed-stride
/// witness gate. `spanner-fuzz corpus` labels each with its observed
/// stable code and then *requires* the combined corpus to cover the
/// whole decode taxonomy, so a code silently becoming unreachable fails
/// corpus regeneration.
pub fn directed_probes() -> Vec<Probe> {
    use crate::mutate::{fix_checksum, frame_sections, rebuild};
    use spanner_graph::io::binary::HEADER_LEN;

    let reseal = |mut bytes: Vec<u8>| {
        fix_checksum(&mut bytes);
        bytes
    };
    let section = |bytes: &[u8], tag: u32| {
        *frame_sections(bytes)
            .iter()
            .find(|s| s.tag == tag)
            .expect("seed carries the section")
    };
    let put_u32 = |bytes: &mut [u8], at: usize, value: u32| {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    };

    // The richest seed: all five VFTSPANR sections present.
    let seed = spanner_seeds().swap_remove(0).bytes;
    let sections = frame_sections(&seed);
    let mut probes = Vec::new();

    // Raw truncation: too short to even carry a header.
    probes.push(Probe {
        class: "truncation",
        bytes: seed[..6].to_vec(),
    });

    // Unsealed corruption: one flipped payload bit, checksum left
    // stale — the integrity gate itself.
    let mut unsealed = seed.clone();
    unsealed[sections[0].payload] ^= 0x01;
    probes.push(Probe {
        class: "bit-flip",
        bytes: unsealed,
    });

    // Wrong magic.
    let mut magic = seed.clone();
    magic[0] ^= 0xFF;
    probes.push(Probe {
        class: "bit-flip",
        bytes: reseal(magic),
    });

    // A retired format version, resealed so only the version is at
    // fault.
    let mut version = seed.clone();
    version[8..12].copy_from_slice(&2u32.to_le_bytes());
    probes.push(Probe {
        class: "bit-flip",
        bytes: reseal(version),
    });

    // Unknown section tag in the first table entry.
    let mut unknown = seed.clone();
    put_u32(&mut unknown, HEADER_LEN, 0xBEEF);
    probes.push(Probe {
        class: "bit-flip",
        bytes: reseal(unknown),
    });

    // A required section dropped: re-lay the container without the
    // spanner adjacency (tag 2), every remaining length still honest.
    let dropped = sections
        .iter()
        .filter(|s| s.tag != 2)
        .map(|s| (s.tag, seed[s.payload..s.end()].to_vec()))
        .collect();
    probes.push(Probe {
        class: "section-splice",
        bytes: rebuild(&seed, dropped),
    });

    // Simple-graph violation: duplicate an edge in the parent graph.
    // (Self-loops and range violations are caught per-record as
    // `artifact/malformed`; a *parallel edge* is only detectable by the
    // graph structure itself, surfacing as `BinaryError::Graph` —
    // `artifact/graph-invariant`.) Payload layout per §2: node_count
    // u64, edge_count u64, then 16-byte (u: u32, v: u32, w: u64)
    // records.
    let parent = section(&seed, 5);
    if parent.len >= 16 + 32 {
        let mut duplicated = seed.clone();
        let edges = parent.payload + 16;
        let first: [u8; 16] = duplicated[edges..edges + 16].try_into().unwrap();
        duplicated[edges + 16..edges + 32].copy_from_slice(&first);
        probes.push(Probe {
            class: "cross-section",
            bytes: reseal(duplicated),
        });
    }

    // Misaligned payload: nudge one section offset off the 8-byte grid,
    // resealed so the alignment gate — checked before the
    // canonical-position gate — is what trips:
    // `artifact/misaligned-section`.
    let off_at = sections[1].start + 8;
    let mut misaligned = seed.clone();
    let old = u64::from_le_bytes(misaligned[off_at..off_at + 8].try_into().unwrap());
    misaligned[off_at..off_at + 8].copy_from_slice(&(old + 1).to_le_bytes());
    probes.push(Probe {
        class: "bit-flip",
        bytes: reseal(misaligned),
    });

    // Routing-only artifact: legitimately built with the witness
    // section detached. The container decodes, but serving witness
    // queries from it refuses with `artifact/witnesses-detached` — the
    // replay harness probes that accessor, and the corpus pins the
    // refusal. Classed as a splice: operationally this is a witness
    // section gone missing relative to what the consumer expected.
    let detached = spanner_core::FrozenSpanner::decode(&seed)
        .expect("own seed bytes decode")
        .detach_witnesses()
        .encode();
    probes.push(Probe {
        class: "section-splice",
        bytes: detached,
    });

    // Fixed-stride witness probes on the f = 2 edge-model seed (12-byte
    // records: a u32 length, then two u32 id slots). The budget comes
    // from META and every record is checked on read, so each gate below
    // needs exact surgery a random resealed hit would rarely produce.
    let f2 = spanner_seeds().swap_remove(2).bytes;
    let meta = section(&f2, 1).payload;
    let w = section(&f2, 4).payload;
    let edge_count = u64::from_le_bytes(f2[meta + 26..meta + 34].try_into().unwrap());
    let record = |len: u32, ids: [u32; 2]| {
        let mut bytes = f2.clone();
        let at = w + 8 + 12;
        put_u32(&mut bytes, at, len);
        put_u32(&mut bytes, at + 4, ids[0]);
        put_u32(&mut bytes, at + 8, ids[1]);
        reseal(bytes)
    };
    // META's budget at 2^62 overflows the stride arithmetic.
    let mut budget = f2.clone();
    budget[meta + 10..meta + 18].copy_from_slice(&(1u64 << 62).to_le_bytes());
    probes.push(Probe {
        class: "cross-section",
        bytes: reseal(budget),
    });
    // A record count that is neither 0 nor the edge count.
    let mut count = f2.clone();
    count[w..w + 8].copy_from_slice(&(edge_count + 1).to_le_bytes());
    probes.push(Probe {
        class: "cross-section",
        bytes: reseal(count),
    });
    for (class, bytes) in [
        // A length field above f.
        ("length-inflation", record(3, [0, 1])),
        // A nonzero unused slot.
        ("bit-flip", record(1, [0, 5])),
        // Unsorted, then duplicate ids.
        ("bit-flip", record(2, [3, 1])),
        ("bit-flip", record(2, [2, 2])),
        // An id outside the edge-id space.
        ("cross-section", record(1, [edge_count as u32, 0])),
    ] {
        probes.push(Probe { class, bytes });
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_harness::corpus::{decode_outcome, DecodeOutcome};

    #[test]
    fn every_seed_decodes_cleanly_and_deterministically() {
        let seeds = all_seeds();
        assert!(
            seeds.len() >= 9,
            "spanner and graph seeds must all be present"
        );
        for seed in &seeds {
            let outcome = decode_outcome(&seed.bytes)
                .unwrap_or_else(|why| panic!("seed {}: {why}", seed.name));
            assert_eq!(
                outcome,
                DecodeOutcome::Accepted,
                "seed {} must decode",
                seed.name
            );
        }
    }

    #[test]
    fn seeds_are_reproducible() {
        let a = all_seeds();
        let b = all_seeds();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.bytes, y.bytes, "seed {} must be deterministic", x.name);
        }
    }
}
