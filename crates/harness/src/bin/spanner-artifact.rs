//! `spanner-artifact` — build, inspect, and serve persistent
//! `FrozenSpanner` artifacts.
//!
//! Usage:
//!
//! ```text
//! spanner-artifact build [--family geometric|complete|grid|erdos-renyi]
//!                        [--n N] [--radius R] [--p P] [--rows R --cols C]
//!                        [--edges PATH] [--seed S] [--stretch K] [--f F]
//!                        [--model vertex|edge] [--v2] [--detach-witnesses]
//!                        [--shard-witnesses] [--out PATH]
//! spanner-artifact inspect PATH
//! spanner-artifact migrate PATH [--out PATH] [--shard|--unshard]
//! spanner-artifact serve PATH [--in-place] [--epochs N] [--batch B]
//!                        [--threads T] [--seed S]
//! ```
//!
//! The build-once / serve-many pipeline, end to end:
//!
//! * `build` constructs an FT spanner (FT-greedy over the chosen graph
//!   family or a text edge-list file), freezes it with full metadata
//!   (parent graph, budget, model, witnesses), and writes the versioned
//!   `VFTSPANR` binary artifact (`docs/ARTIFACT_FORMAT.md`). `--v2`
//!   emits the alignment-padded in-place layout; `--detach-witnesses`
//!   (implies `--v2`) drops the witness section for a routing-only
//!   replica artifact; `--shard-witnesses` (implies `--v2`, excludes
//!   `--detach-witnesses`) adds the per-edge witness offset index so
//!   zero-copy consumers resolve one edge's fault sets in O(|F_e|).
//! * `inspect` dumps the container header — version, flags, checksum,
//!   section table (including witness-index stats for sharded
//!   artifacts) — and the decoded artifact's stats, without serving
//!   anything.
//! * `migrate` re-lays a v1 artifact out as v2, byte-canonically: the
//!   output is exactly what `build --v2` of the same construction would
//!   have written, and migrating an already-v2 artifact is a verified
//!   no-op (idempotent, byte for byte). `--shard` / `--unshard` convert
//!   between the monolithic and sharded witness layouts, both
//!   byte-canonical; the round trip `--unshard` ∘ `--shard` is the
//!   identity. Without either flag the witness layout is preserved.
//! * `serve` is the roundtrip proof: it decodes the artifact in *this*
//!   process (built, typically, by another), re-runs the construction
//!   from the embedded parent graph, and drives an E15-style epoch/batch
//!   query workload through both artifacts — sequential and pooled —
//!   failing unless every answer is bit-identical and the rebuilt
//!   artifact re-encodes to the exact bytes on disk. `--in-place` (v2
//!   artifacts only) opens the file zero-copy — `mmap(2)` where the
//!   platform has it, an aligned heap copy otherwise — and serves
//!   straight out of the buffer through the same gates. CI runs
//!   build → inspect → migrate → serve as separate processes on every
//!   push.
//! * `replay` re-decodes every entry of one or more fuzz-corpus
//!   directories (`fuzz/corpus/`, `fuzz/crashes/`) under the decode
//!   contract — fail-closed, deterministic, canonical — and verifies
//!   each file's outcome against the expectation encoded in its name.
//!
//! `inspect`, `serve` and `replay` treat their input as **hostile**:
//! a malformed artifact never panics the process — it prints the
//! stable error code (`error[artifact/...]`, the taxonomy of
//! `docs/ARTIFACT_FORMAT.md` §8) plus a remediation hint on stderr and
//! exits non-zero, byte-identically for the same input every time
//! (the cross-process leg of the decode determinism contract,
//! pinned by `tests/artifact_cli.rs`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_core::frozen::{
    ARTIFACT_MAGIC, ARTIFACT_VERSION, ARTIFACT_VERSION_V2, FLAG_WITNESSES_DETACHED,
    FLAG_WITNESSES_SHARDED, SECTION_META, SECTION_PARENT, SECTION_PARENT_EDGES, SECTION_SPANNER,
    SECTION_WITNESSES, SECTION_WITNESS_INDEX,
};
use spanner_core::routing::{Route, RouteError};
use spanner_core::{EpochServer, FrozenSpanner, FtGreedy, FtSpanner, OracleKind};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::io::binary::{fnv1a64, fnv1a64_words, parse_container, parse_container_v2};
use spanner_graph::{generators, io, Graph, NodeId, SharedBytes};
use spanner_harness::cli::{self, Parsed};
use spanner_harness::corpus;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: spanner-artifact build [--family geometric|complete|grid|erdos-renyi]
                              [--n N] [--radius R] [--p P] [--rows R --cols C]
                              [--edges PATH] [--seed S] [--stretch K] [--f F]
                              [--model vertex|edge] [--v2] [--detach-witnesses]
                              [--shard-witnesses] [--out PATH]
       spanner-artifact inspect PATH
       spanner-artifact migrate PATH [--out PATH] [--shard|--unshard]
       spanner-artifact serve PATH [--in-place] [--epochs N] [--batch B] [--threads T] [--seed S]
       spanner-artifact replay DIR...";

/// The graph the `build` subcommand constructs over.
enum GraphSpec {
    Geometric { n: usize, radius: f64, seed: u64 },
    Complete { n: usize },
    Grid { rows: usize, cols: usize },
    ErdosRenyi { n: usize, p: f64, seed: u64 },
    EdgeList { path: PathBuf },
}

struct BuildArgs {
    spec: GraphSpec,
    stretch: u64,
    faults: usize,
    model: FaultModel,
    v2: bool,
    detach: bool,
    shard: bool,
    out: PathBuf,
}

struct ServeArgs {
    path: PathBuf,
    in_place: bool,
    epochs: usize,
    batch: usize,
    threads: usize,
    seed: u64,
}

struct MigrateArgs {
    path: PathBuf,
    out: Option<PathBuf>,
    shard: bool,
    unshard: bool,
}

enum Command {
    Build(BuildArgs),
    Inspect(PathBuf),
    Migrate(MigrateArgs),
    Serve(ServeArgs),
    Replay(Vec<PathBuf>),
}

/// Renders a decode failure of a hostile file: the stable error code
/// first (machines match on `error[...]`), then the message, then the
/// remediation hint. Deterministic for a given input — this string is
/// the cross-process half of the decode determinism contract.
fn hostile(path: &std::path::Path, code: &str, error: impl std::fmt::Display) -> String {
    format!(
        "error[{code}] {}: {error}\nremediation: {}",
        path.display(),
        spanner_graph::io::binary::remediation_for_code(code)
    )
}

fn parse_args() -> Result<Parsed<Command>, String> {
    let mut it = std::env::args().skip(1);
    let sub = match it.next() {
        None => return Err("missing subcommand (build, inspect, or serve)".into()),
        Some(s) if s == "--help" || s == "-h" => return Ok(Parsed::Help),
        Some(s) => s,
    };
    match sub.as_str() {
        "build" => parse_build(&mut it),
        "inspect" => {
            let path = positional_path(&mut it, "inspect")?;
            reject_extra(&mut it)?;
            Ok(Parsed::Run(Command::Inspect(path)))
        }
        "migrate" => parse_migrate(&mut it),
        "serve" => parse_serve(&mut it),
        "replay" => {
            let dirs: Vec<PathBuf> = it.by_ref().map(PathBuf::from).collect();
            if dirs
                .iter()
                .any(|d| d.as_os_str() == "--help" || d.as_os_str() == "-h")
            {
                return Ok(Parsed::Help);
            }
            if dirs.is_empty() {
                return Err("replay needs at least one corpus directory".into());
            }
            Ok(Parsed::Run(Command::Replay(dirs)))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn positional_path(it: &mut impl Iterator<Item = String>, sub: &str) -> Result<PathBuf, String> {
    match it.next() {
        None => Err(format!("{sub} needs an artifact path")),
        Some(s) if s == "--help" || s == "-h" => Err(format!("{sub} needs an artifact path")),
        Some(s) => Ok(PathBuf::from(s)),
    }
}

fn reject_extra(it: &mut impl Iterator<Item = String>) -> Result<(), String> {
    match it.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
    }
}

fn parse_build(it: &mut impl Iterator<Item = String>) -> Result<Parsed<Command>, String> {
    let mut family = "geometric".to_string();
    let mut n = 64usize;
    let mut radius = 0.3f64;
    let mut p = 0.15f64;
    let mut rows = 8usize;
    let mut cols = 8usize;
    let mut edges: Option<PathBuf> = None;
    let mut seed = 7u64;
    let mut stretch = 3u64;
    let mut faults = 1usize;
    let mut model = FaultModel::Vertex;
    let mut v2 = false;
    let mut detach = false;
    let mut shard = false;
    let mut out = PathBuf::from("spanner.vfts");
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--v2" => v2 = true,
            "--detach-witnesses" => detach = true,
            "--shard-witnesses" => shard = true,
            "--family" => family = cli::value_for(it, "--family")?,
            "--n" => n = cli::parsed_value(it, "--n")?,
            "--radius" => radius = cli::parsed_value(it, "--radius")?,
            "--p" => p = cli::parsed_value(it, "--p")?,
            "--rows" => rows = cli::parsed_value(it, "--rows")?,
            "--cols" => cols = cli::parsed_value(it, "--cols")?,
            "--edges" => edges = Some(PathBuf::from(cli::value_for(it, "--edges")?)),
            "--seed" => seed = cli::parsed_value(it, "--seed")?,
            "--stretch" => stretch = cli::parsed_value(it, "--stretch")?,
            "--f" => faults = cli::parsed_value(it, "--f")?,
            "--model" => model = parse_model(&cli::value_for(it, "--model")?)?,
            "--out" => out = PathBuf::from(cli::value_for(it, "--out")?),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if stretch == 0 {
        return Err("--stretch must be positive".into());
    }
    if detach && shard {
        return Err(
            "--detach-witnesses and --shard-witnesses are mutually exclusive \
             (there is no witness map left to index)"
                .into(),
        );
    }
    let spec = match edges {
        Some(path) => GraphSpec::EdgeList { path },
        None => match family.as_str() {
            "geometric" => GraphSpec::Geometric { n, radius, seed },
            "complete" => GraphSpec::Complete { n },
            "grid" => GraphSpec::Grid { rows, cols },
            "erdos-renyi" => GraphSpec::ErdosRenyi { n, p, seed },
            other => {
                return Err(format!(
                    "unknown graph family {other:?} (geometric, complete, grid, erdos-renyi)"
                ))
            }
        },
    };
    Ok(Parsed::Run(Command::Build(BuildArgs {
        spec,
        stretch,
        faults,
        model,
        v2: v2 || detach || shard, // both are v2-only layout features
        detach,
        shard,
        out,
    })))
}

fn parse_migrate(it: &mut impl Iterator<Item = String>) -> Result<Parsed<Command>, String> {
    let path = positional_path(it, "migrate")?;
    let mut out = None;
    let mut shard = false;
    let mut unshard = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(cli::value_for(it, "--out")?)),
            "--shard" => shard = true,
            "--unshard" => unshard = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if shard && unshard {
        return Err("--shard and --unshard are mutually exclusive".into());
    }
    Ok(Parsed::Run(Command::Migrate(MigrateArgs {
        path,
        out,
        shard,
        unshard,
    })))
}

fn parse_serve(it: &mut impl Iterator<Item = String>) -> Result<Parsed<Command>, String> {
    let path = positional_path(it, "serve")?;
    let mut args = ServeArgs {
        path,
        in_place: false,
        epochs: 8,
        batch: 64,
        threads: 2,
        seed: 99,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--in-place" => args.in_place = true,
            "--epochs" => args.epochs = cli::parsed_value(it, "--epochs")?,
            "--batch" => args.batch = cli::parsed_value(it, "--batch")?,
            "--threads" => args.threads = cli::parsed_value(it, "--threads")?,
            "--seed" => args.seed = cli::parsed_value(it, "--seed")?,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.epochs == 0 || args.batch == 0 || args.threads == 0 {
        return Err("--epochs, --batch and --threads must be positive".into());
    }
    Ok(Parsed::Run(Command::Serve(args)))
}

fn parse_model(raw: &str) -> Result<FaultModel, String> {
    match raw {
        "vertex" => Ok(FaultModel::Vertex),
        "edge" => Ok(FaultModel::Edge),
        other => Err(format!("bad value for --model: {other:?} (vertex or edge)")),
    }
}

fn build_graph(spec: &GraphSpec) -> Result<Graph, String> {
    Ok(match spec {
        GraphSpec::Geometric { n, radius, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            generators::random_geometric(*n, *radius, &mut rng)
        }
        GraphSpec::Complete { n } => generators::complete(*n),
        GraphSpec::Grid { rows, cols } => generators::grid(*rows, *cols),
        GraphSpec::ErdosRenyi { n, p, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            generators::erdos_renyi(*n, *p, &mut rng)
        }
        GraphSpec::EdgeList { path } => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            io::from_edge_list(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
    })
}

/// The construction `build` ships and `serve` re-runs to cross-check an
/// artifact: FT-greedy on the pooled oracle, one worker per logical CPU.
/// Its output is the sequential greedy's, bit for bit, at any width.
fn construct(g: &Graph, stretch: u64, faults: usize, model: FaultModel) -> FtSpanner {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    FtGreedy::new(g, stretch)
        .faults(faults)
        .model(model)
        .oracle(OracleKind::Parallel(threads))
        .run()
}

fn run_build(args: BuildArgs) -> Result<(), String> {
    let g = build_graph(&args.spec)?;
    if g.node_count() == 0 {
        return Err("refusing to build an artifact over an empty graph".into());
    }
    println!(
        "building: {} nodes, {} edges, stretch {}, f = {}, {} faults",
        g.node_count(),
        g.edge_count(),
        args.stretch,
        args.faults,
        args.model
    );
    let mut frozen = construct(&g, args.stretch, args.faults, args.model).freeze(&g);
    if args.detach {
        frozen = frozen.detach_witnesses();
    } else if args.shard {
        frozen = frozen.to_v2_sharded();
    } else if args.v2 {
        frozen = frozen.to_v2();
    }
    let bytes = frozen.encode();
    // Sanity: our own encoding must decode before it ships.
    FrozenSpanner::decode(&bytes)
        .map_err(|e| format!("internal error: emitted an undecodable artifact: {e}"))?;
    std::fs::write(&args.out, &bytes)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    let witness_note = match frozen.witnesses() {
        Ok(w) if frozen.witnesses_sharded() => {
            format!("{} witness sets (sharded per-edge index)", w.len())
        }
        Ok(w) => format!("{} witness sets", w.len()),
        Err(_) => "witnesses detached (routing-only)".to_string(),
    };
    println!(
        "kept {} / {} edges ({:.1}%), {witness_note}",
        frozen.edge_count(),
        g.edge_count(),
        100.0 * frozen.edge_count() as f64 / g.edge_count().max(1) as f64,
    );
    println!(
        "wrote {} (v{}, {} bytes)",
        args.out.display(),
        frozen.version(),
        bytes.len()
    );
    Ok(())
}

/// Human name of an artifact section tag (tags owned by
/// `spanner_core::frozen`, so a future renumbering shows up here as a
/// compile-time pattern overlap rather than a silently wrong label).
fn section_name(tag: u32) -> &'static str {
    match tag {
        SECTION_META => "meta",
        SECTION_SPANNER => "spanner-adjacency",
        SECTION_PARENT_EDGES => "parent-edge-table",
        SECTION_WITNESSES => "witness-map",
        SECTION_PARENT => "parent-graph",
        SECTION_WITNESS_INDEX => "witness-index",
        _ => "unknown",
    }
}

fn run_inspect(path: PathBuf) -> Result<(), String> {
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    // Dispatch on the declared version, exactly like `FrozenSpanner::decode`;
    // a lying version field fails closed inside the matching parser.
    let is_v2 = bytes.len() >= 12 && bytes[8..12] == ARTIFACT_VERSION_V2.to_le_bytes();
    println!("{}: {} bytes", path.display(), bytes.len());
    if is_v2 {
        let container = parse_container_v2(
            &bytes,
            ARTIFACT_MAGIC,
            ARTIFACT_VERSION_V2,
            FLAG_WITNESSES_DETACHED | FLAG_WITNESSES_SHARDED,
        )
        .map_err(|e| hostile(&path, e.code(), &e))?;
        let flag_note = if container.flags & FLAG_WITNESSES_DETACHED != 0 {
            " (witnesses-detached)"
        } else if container.flags & FLAG_WITNESSES_SHARDED != 0 {
            " (witnesses-sharded)"
        } else {
            ""
        };
        println!(
            "  magic    {:?}  version {}  flags {:#010x}{flag_note}",
            String::from_utf8_lossy(&ARTIFACT_MAGIC),
            container.version,
            container.flags,
        );
        println!(
            "  checksum {:#018x} (fnv1a-64 word-wise, verified)",
            fnv1a64_words(&bytes[..bytes.len() - 8])
        );
        println!("  sections (in-place layout, 8-byte aligned):");
        for section in &container.sections {
            println!(
                "    tag {}  {:<18} offset {:>9}  {:>9} bytes",
                section.tag,
                section_name(section.tag),
                section.offset,
                section.len
            );
        }
        if let Some(idx) = container
            .sections
            .iter()
            .find(|s| s.tag == SECTION_WITNESS_INDEX)
        {
            // Index payload is count + (count+1) offsets; the decode
            // below fully validates it — this is a display of the
            // declared shape.
            let records = (idx.len / 8).saturating_sub(2);
            let map = container
                .sections
                .iter()
                .find(|s| s.tag == SECTION_WITNESSES)
                .map(|s| s.len)
                .unwrap_or(0);
            println!(
                "  witness index: {records} records indexed, {} bytes of offsets \
                 over a {map}-byte sharded witness map ({:.1} bytes/record)",
                idx.len,
                map as f64 / (records.max(1)) as f64
            );
        }
    } else {
        let container = parse_container(&bytes, ARTIFACT_MAGIC, ARTIFACT_VERSION)
            .map_err(|e| hostile(&path, e.code(), &e))?;
        println!(
            "  magic    {:?}  version {}",
            String::from_utf8_lossy(&ARTIFACT_MAGIC),
            container.version
        );
        println!(
            "  checksum {:#018x} (fnv1a-64, verified)",
            fnv1a64(&bytes[..bytes.len() - 8])
        );
        println!("  sections:");
        for section in &container.sections {
            println!(
                "    tag {}  {:<18} {:>9} bytes",
                section.tag,
                section_name(section.tag),
                section.payload.len()
            );
        }
    }
    let frozen = FrozenSpanner::decode(&bytes).map_err(|e| hostile(&path, e.code(), &e))?;
    println!("  artifact:");
    println!(
        "    spanner    {} nodes, {} edges, stretch {}",
        frozen.node_count(),
        frozen.edge_count(),
        frozen.stretch()
    );
    match frozen.budget() {
        Some(f) => println!("    built for  f = {f} {} faults", frozen.model()),
        None => println!("    built for  (no construction metadata: bare freeze)"),
    }
    match frozen.parent().map_err(|e| hostile(&path, e.code(), &e))? {
        Some(p) => println!(
            "    parent     {} nodes, {} edges ({:.1}% kept)",
            p.node_count(),
            p.edge_count(),
            100.0 * frozen.edge_count() as f64 / p.edge_count().max(1) as f64
        ),
        None => println!("    parent     not embedded"),
    }
    match frozen.witnesses() {
        Ok(w) => {
            let nonempty = w.iter().filter(|s| !s.is_empty()).count();
            println!(
                "    witnesses  {} sets ({} nonempty{})",
                w.len(),
                nonempty,
                if frozen.witnesses_sharded() {
                    ", sharded per-edge index"
                } else {
                    ""
                }
            );
        }
        Err(_) => println!("    witnesses  detached (routing-only artifact)"),
    }
    Ok(())
}

fn run_migrate(args: MigrateArgs) -> Result<(), String> {
    let bytes = std::fs::read(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path.display()))?;
    let decoded = FrozenSpanner::decode(&bytes).map_err(|e| hostile(&args.path, e.code(), &e))?;
    let from_version = decoded.version();
    let was_sharded = decoded.witnesses_sharded();
    if args.shard && decoded.witnesses_detached() {
        return Err(
            "cannot --shard a witnesses-detached (routing-only) artifact: \
             there is no witness map to index"
                .into(),
        );
    }
    // Without an explicit --shard/--unshard the witness layout is
    // preserved, so plain `migrate` of any v2 artifact stays a no-op.
    let to_sharded = if args.shard {
        true
    } else if args.unshard {
        false
    } else {
        was_sharded
    };
    let migrated = if to_sharded {
        decoded.to_v2_sharded().encode()
    } else {
        decoded.to_v2().encode()
    };
    if from_version == ARTIFACT_VERSION_V2 && to_sharded == was_sharded && migrated != bytes {
        return Err(
            "internal error: migrating a v2 artifact without a layout change \
             altered its bytes — migration must be idempotent"
                .into(),
        );
    }
    // The migrated artifact must be canonical: decode and re-encode to
    // the exact same bytes (the same gate `serve` applies to rebuilds).
    let back = FrozenSpanner::decode(&migrated)
        .map_err(|e| format!("internal error: migrated artifact does not decode: {e}"))?;
    if back.encode() != migrated {
        return Err("internal error: migrated artifact is not byte-canonical".into());
    }
    let out = args.out.unwrap_or_else(|| args.path.clone());
    std::fs::write(&out, &migrated).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "migrated {} (v{from_version}, {} bytes) -> {} (v2{}, {} bytes){}",
        args.path.display(),
        bytes.len(),
        out.display(),
        if to_sharded {
            ", sharded witnesses"
        } else {
            ""
        },
        migrated.len(),
        if from_version == ARTIFACT_VERSION_V2 && to_sharded == was_sharded {
            " — already v2, byte-identical"
        } else {
            ""
        }
    );
    Ok(())
}

/// One serve-workload epoch: a failure set plus a batch of live pairs
/// (the E15 shape: clear / random-f / witness-replay, round-robin).
fn plan_epochs(frozen: &FrozenSpanner, args: &ServeArgs) -> Vec<(FaultSet, Vec<(NodeId, NodeId)>)> {
    let n = frozen.node_count();
    let f = frozen.budget().unwrap_or(0);
    // A routing-only (witnesses-detached) artifact simply has no replay
    // epochs to offer; the clear/random scenarios still run.
    let witnesses: Vec<&FaultSet> = frozen
        .witnesses()
        .map(|w| {
            w.iter()
                .filter(|s| !s.is_empty() && s.model() == FaultModel::Vertex)
                .collect()
        })
        .unwrap_or_default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    (0..args.epochs)
        .map(|epoch| {
            let failures = match epoch % 3 {
                0 => FaultSet::vertices([]),
                1 => {
                    let mut down = Vec::with_capacity(f);
                    while down.len() < f.min(n.saturating_sub(2)) {
                        let v = NodeId::new(rng.gen_range(0..n));
                        if !down.contains(&v) {
                            down.push(v);
                        }
                    }
                    FaultSet::vertices(down)
                }
                _ if !witnesses.is_empty() => witnesses[epoch % witnesses.len()].clone(),
                _ => FaultSet::vertices([]),
            };
            let live: Vec<NodeId> = (0..n)
                .map(NodeId::new)
                .filter(|v| !failures.vertex_faults().contains(v))
                .collect();
            let pairs = (0..args.batch)
                .map(|_| {
                    let i = rng.gen_range(0..live.len());
                    let mut j = rng.gen_range(0..live.len() - 1);
                    if j >= i {
                        j += 1;
                    }
                    (live[i], live[j])
                })
                .collect();
            (failures, pairs)
        })
        .collect()
}

fn run_serve(args: ServeArgs) -> Result<(), String> {
    let bytes = std::fs::read(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path.display()))?;
    let loaded = if args.in_place {
        // Zero-copy open: the serving tables stay in the file buffer —
        // mmap(2) where the platform has it, an aligned heap copy
        // otherwise (same bytes, same validation, same answers).
        let shared = if mmapio::Mmap::supported() {
            let file = std::fs::File::open(&args.path)
                .map_err(|e| format!("cannot open {}: {e}", args.path.display()))?;
            let map = mmapio::Mmap::map_file(&file)
                .map_err(|e| format!("cannot mmap {}: {e}", args.path.display()))?;
            SharedBytes::from_source(Arc::new(map))
        } else {
            SharedBytes::copy_aligned(&bytes)
        };
        let mapped = FrozenSpanner::open(shared).map_err(|e| hostile(&args.path, e.code(), &e))?;
        Arc::new(mapped.into_inner())
    } else {
        Arc::new(FrozenSpanner::decode(&bytes).map_err(|e| hostile(&args.path, e.code(), &e))?)
    };
    let parent = loaded
        .parent()
        .map_err(|e| hostile(&args.path, e.code(), &e))?
        .ok_or("artifact carries no parent graph; rebuild cross-check needs one (use `spanner-artifact build`)")?
        .clone();
    let budget = loaded
        .budget()
        .ok_or("artifact carries no fault budget; rebuild cross-check needs one")?;
    if loaded.node_count() < 3 {
        return Err("artifact too small for a serve workload (need >= 3 vertices)".into());
    }
    println!(
        "loaded {} ({}): {} nodes, {} edges, stretch {}, f = {}, {} model",
        args.path.display(),
        if args.in_place {
            if loaded.is_in_place() {
                "in place, zero-copy"
            } else {
                "in place, aligned copy"
            }
        } else {
            "eager decode"
        },
        loaded.node_count(),
        loaded.edge_count(),
        loaded.stretch(),
        budget,
        loaded.model()
    );

    // In-memory rebuild from the embedded parent: same construction, so
    // the artifact on disk must be its canonical encoding, byte for
    // byte — after re-laying the rebuild out in the on-disk artifact's
    // own version/witness layout.
    let fresh = construct(parent.as_ref(), loaded.stretch(), budget, loaded.model())
        .freeze(parent.as_ref());
    let rebuilt = Arc::new(if loaded.witnesses_detached() {
        fresh.detach_witnesses()
    } else if loaded.witnesses_sharded() {
        fresh.to_v2_sharded()
    } else if loaded.version() == ARTIFACT_VERSION_V2 {
        fresh.to_v2()
    } else {
        fresh
    });
    if rebuilt.encode() != bytes {
        return Err(
            "rebuilt construction does not re-encode to the artifact's bytes — \
             the file does not describe this parent/stretch/budget construction"
                .into(),
        );
    }
    println!("rebuild cross-check: construction re-encodes byte-identically");

    let plan = plan_epochs(&loaded, &args);
    let from_disk = EpochServer::new(Arc::clone(&loaded));
    let from_disk_pooled = EpochServer::new(Arc::clone(&loaded)).with_threads(args.threads);
    let from_memory = EpochServer::new(Arc::clone(&rebuilt));
    let mut served = 0usize;
    let mut errors = 0usize;
    for (epoch, (failures, pairs)) in plan.iter().enumerate() {
        let reference: Vec<Result<Route, RouteError>> =
            from_memory.epoch(failures).route_batch(pairs);
        if from_disk.epoch(failures).route_batch(pairs) != reference {
            return Err(format!(
                "epoch {epoch}: decoded artifact's sequential batch diverged from the in-memory rebuild"
            ));
        }
        if from_disk_pooled.epoch(failures).par_route_batch(pairs) != reference {
            return Err(format!(
                "epoch {epoch}: decoded artifact's pooled batch diverged from the in-memory rebuild"
            ));
        }
        served += reference.len();
        errors += reference.iter().filter(|a| a.is_err()).count();
        println!(
            "  epoch {epoch}: {} faults, {} queries, {} unreachable/failed — bit-identical across disk/memory/pool",
            failures.len(),
            pairs.len(),
            reference.iter().filter(|a| a.is_err()).count()
        );
    }
    println!(
        "served {served} queries over {} epochs ({errors} error answers), all bit-identical to the in-memory rebuild",
        plan.len()
    );
    Ok(())
}

fn run_replay(dirs: Vec<PathBuf>) -> Result<(), String> {
    let mut clean = true;
    for dir in &dirs {
        let report = corpus::replay_dir(dir, true)?;
        println!("{}: {} entries", dir.display(), report.files);
        for line in report.count_lines() {
            println!("  {line}");
        }
        for mismatch in &report.mismatches {
            eprintln!("MISMATCH {}: {mismatch}", dir.display());
        }
        for failure in &report.failures {
            eprintln!("CONTRACT {}: {failure}", dir.display());
        }
        clean &= report.is_clean();
    }
    if !clean {
        return Err("corpus replay found mismatches or contract violations".into());
    }
    println!("replay clean: every entry matched its expected outcome");
    Ok(())
}

fn main() -> ExitCode {
    cli::run_main(
        "spanner-artifact",
        USAGE,
        parse_args,
        |command| match command {
            Command::Build(args) => run_build(args),
            Command::Inspect(path) => run_inspect(path),
            Command::Migrate(args) => run_migrate(args),
            Command::Serve(args) => run_serve(args),
            Command::Replay(dirs) => run_replay(dirs),
        },
    )
}
