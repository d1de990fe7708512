//! Workload specs and their seeded, cached inputs.
//!
//! Inputs are built once per (seed, workload parameters, store format
//! version) by `perfbench prepare` and never timed:
//!
//! - the routing workloads route over one fixed graph per `(n, λ)`, sampled
//!   from [`GRAPH_SEED`] by the streamed sampler and written by the streamed
//!   writer (a 10⁶-vertex λ=1 sample takes tens of seconds, too long to
//!   repeat per run); `--seed` draws the connected pair list, and the
//!   reference digest of every route is computed through the plain decoded
//!   path (`GreedyRouter` + `GirgObjective` over the `load_girg` CSR);
//! - gen-200k samples from `--seed` itself, and its reference is the same
//!   sample taken in RAM and written by `write_girg_swg`, which must give a
//!   byte-identical file.
//!
//! The cache lives under `<work>/v<VERSION>/`, so a store format change
//! regenerates the inputs instead of failing to open them.

use std::fs;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld_core::{
    GirgObjective, GreedyRouter, NoopObserver, RouteRecord, RouteScratch, Router,
};
use smallworld_graph::{Components, NodeId};
use smallworld_models::girg::GirgBuilder;
use smallworld_store::GraphStore;

/// Power-law exponent of every workload's GIRG.
const BETA: f64 = 2.5;
/// Decay exponent of every workload's GIRG.
const ALPHA: f64 = 2.0;
/// Sampling seed of the routing workloads' fixed graphs.
const GRAPH_SEED: u64 = 2017;

/// Reference digests committed for the default seed at full scale, one
/// line per workload: `<workload> <seed> <store version|-> <digest> <a> <b>`,
/// where `(a, b)` is (delivered, total hops) for routing workloads and
/// (edges, vertices) for gen-200k, whose file digest depends on the
/// store format version.
const COMMITTED: &str = include_str!("../digests.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Mapped,
    Indexed,
    Gen,
}

/// One workload: its name, what it measures, and its input sizes.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Expected vertex count.
    pub n: u64,
    pub lambda: f64,
    /// Length of the routed pair list (routing workloads).
    pub pairs: usize,
    /// Whether this is the reduced self-test scale.
    pub small: bool,
}

impl Spec {
    /// The named workload, at full scale or at the self-test scale
    /// (2·10⁴ vertices, shorter pair lists).
    pub fn lookup(name: &str, small: bool) -> Option<Spec> {
        let (name, kind, n, lambda, pairs) = match name {
            "mapped-1m" => ("mapped-1m", Kind::Mapped, 1_000_000, 1.0, 1_000),
            "indexed-1m" => ("indexed-1m", Kind::Indexed, 1_000_000, 0.02, 10_000),
            "gen-200k" => ("gen-200k", Kind::Gen, 200_000, 1.0, 0),
            _ => return None,
        };
        let (n, pairs) = if small {
            (20_000, pairs / 5)
        } else {
            (n, pairs)
        };
        Some(Spec {
            name,
            kind,
            n,
            lambda,
            pairs,
            small,
        })
    }

    /// The sampler configuration of this workload's graphs.
    pub fn builder(&self) -> GirgBuilder<2> {
        GirgBuilder::<2>::new(self.n)
            .beta(BETA)
            .alpha(ALPHA)
            .lambda(self.lambda)
    }

    /// Cache directory of this workload's graph parameters under the
    /// current store format version.
    fn dir(&self, work: &Path) -> PathBuf {
        let tag = if self.kind == Kind::Gen {
            "gen"
        } else {
            "graph"
        };
        work.join(format!("v{}", smallworld_store::VERSION))
            .join(format!("{tag}-n{}-lambda{}", self.n, self.lambda))
    }

    /// The routing workloads' store file.
    pub fn graph_path(&self, work: &Path) -> PathBuf {
        self.dir(work).join("graph.swg")
    }

    fn pairs_path(&self, work: &Path, seed: u64) -> PathBuf {
        self.dir(work)
            .join(format!("pairs-{}-s{seed}.txt", self.pairs))
    }

    fn gen_ref_path(&self, work: &Path, seed: u64) -> PathBuf {
        self.dir(work).join(format!("ref-s{seed}.txt"))
    }

    /// The committed `(digest, a, b)` for this workload and seed, if one
    /// applies (full scale, and for gen-200k the current format version).
    fn committed(&self, seed: u64) -> Option<(u64, u64, u64)> {
        if self.small {
            return None;
        }
        let version = smallworld_store::VERSION.to_string();
        COMMITTED.lines().find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let applies = f.len() == 6
                && f[0] == self.name
                && f[1] == seed.to_string()
                && (f[2] == "-" || f[2] == version);
            if !applies {
                return None;
            }
            Some((
                u64::from_str_radix(f[3], 16).ok()?,
                f[4].parse().ok()?,
                f[5].parse().ok()?,
            ))
        })
    }
}

/// 64-bit FNV-1a, the digest of routes and store files.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one route: its outcome and every vertex on its path.
pub fn route_digest(record: &RouteRecord) -> u64 {
    let mut h = Fnv::new();
    h.write(&[record.outcome as u8]);
    for v in &record.path {
        h.write(&v.raw().to_le_bytes());
    }
    h.finish()
}

/// Digest of a whole file.
pub fn file_digest(path: &Path) -> Result<u64, String> {
    let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut h = Fnv::new();
    h.write(&bytes);
    Ok(h.finish())
}

/// The connected pair list of one seed with each route's reference digest.
pub struct RouteRefs {
    pub pairs: Vec<(NodeId, NodeId)>,
    pub digests: Vec<u64>,
    /// False when a committed digest applies and the references disagree
    /// with it: then no output counts as correct.
    pub committed_ok: bool,
}

/// The reference outcome of one gen-200k seed.
pub struct GenRef {
    pub nodes: u64,
    pub edges: u64,
    pub file_digest: u64,
    /// As in [`RouteRefs::committed_ok`].
    pub committed_ok: bool,
}

/// Digest over a reference list, in pair order.
fn digest_of(digests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

/// Writes `text` to `path` through a temporary file and a rename, so an
/// interrupted preparation never leaves a file that looks complete.
fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("partial");
    fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// Builds whatever of `spec`'s inputs for `seed` the cache lacks.
pub fn prepare(spec: &Spec, seed: u64, work: &Path) -> Result<(), String> {
    let dir = spec.dir(work);
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    drop_stale_versions(work);
    match spec.kind {
        Kind::Mapped | Kind::Indexed => {
            ensure_graph(spec, work)?;
            if !spec.pairs_path(work, seed).exists() {
                write_pairs(spec, seed, work)?;
            }
        }
        Kind::Gen => {
            if !spec.gen_ref_path(work, seed).exists() {
                write_gen_ref(spec, seed, work)?;
            }
        }
    }
    Ok(())
}

/// Removes caches of other store format versions.
fn drop_stale_versions(work: &Path) {
    let current = format!("v{}", smallworld_store::VERSION);
    let Ok(entries) = fs::read_dir(work) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let versioned = name.len() > 1
            && name.starts_with('v')
            && name[1..].bytes().all(|b| b.is_ascii_digit());
        if versioned && name != current {
            fs::remove_dir_all(entry.path()).ok();
        }
    }
}

/// Samples and writes the fixed routing graph unless a store that opens
/// is already cached.
fn ensure_graph(spec: &Spec, work: &Path) -> Result<(), String> {
    let path = spec.graph_path(work);
    if path.exists() && GraphStore::open(&path).is_ok() {
        return Ok(());
    }
    eprintln!(
        "perfbench: sampling the {} graph (n={}, λ={})",
        spec.name, spec.n, spec.lambda
    );
    let dir = spec.dir(work);
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    let sample = spec
        .builder()
        .sample_streamed(&mut rng, &dir)
        .map_err(|e| format!("sample: {e}"))?;
    let partial = dir.join("graph-partial.swg");
    smallworld_store::write_girg_swg_streamed(&sample, &partial)
        .map_err(|e| format!("write {}: {e}", partial.display()))?;
    fs::rename(&partial, &path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// Draws the seed's connected pair list and routes it through the plain
/// decoded path for the reference digests.
fn write_pairs(spec: &Spec, seed: u64, work: &Path) -> Result<(), String> {
    let store = GraphStore::open(spec.graph_path(work)).map_err(|e| format!("open: {e}"))?;
    let girg = store.load_girg::<2>().map_err(|e| format!("load: {e}"))?;
    drop(store);
    let graph = girg.graph();
    let comps = Components::compute(graph);
    if comps.largest_size() < 2 {
        return Err("no two vertices share a component".into());
    }
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let objective = GirgObjective::new(&girg);
    let router = GreedyRouter::new();
    let mut scratch = RouteScratch::new();
    let (mut delivered, mut hops) = (0u64, 0u64);
    let mut lines = Vec::with_capacity(spec.pairs);
    let mut digests = Vec::with_capacity(spec.pairs);
    while lines.len() < spec.pairs {
        let s = NodeId::from_index(rng.gen_range(0..n));
        let t = NodeId::from_index(rng.gen_range(0..n));
        if s == t || !comps.same_component(s, t) {
            continue;
        }
        let record = router.route_with(graph, &objective, s, t, &mut NoopObserver, &mut scratch);
        delivered += u64::from(record.is_success());
        hops += record.hops() as u64;
        let digest = route_digest(&record);
        digests.push(digest);
        lines.push(format!("{} {} {digest:016x}", s.raw(), t.raw()));
        scratch.recycle(record.path);
    }
    let head = format!(
        "count {} delivered {delivered} hops {hops} digest {:016x}",
        lines.len(),
        digest_of(&digests)
    );
    eprintln!("perfbench: {} seed {seed}: {head}", spec.name);
    write_atomic(
        &spec.pairs_path(work, seed),
        &format!("{head}\n{}\n", lines.join("\n")),
    )
}

/// Samples the seed's gen-200k graph in RAM, writes it with the in-RAM
/// writer, and records its counts and file digest.
fn write_gen_ref(spec: &Spec, seed: u64, work: &Path) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let girg = spec
        .builder()
        .sample(&mut rng)
        .map_err(|e| format!("sample: {e}"))?;
    let girg = girg.relabel(&girg.morton_permutation());
    let path = spec.dir(work).join(format!("ref-s{seed}.swg"));
    smallworld_store::write_girg_swg(&girg, &path, 1)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let digest = file_digest(&path);
    fs::remove_file(&path).ok();
    let line = format!(
        "nodes {} edges {} digest {:016x}",
        girg.node_count(),
        girg.graph().edge_count(),
        digest?
    );
    eprintln!("perfbench: {} seed {seed}: {line}", spec.name);
    write_atomic(&spec.gen_ref_path(work, seed), &format!("{line}\n"))
}

/// Reads `key value` pairs from a header line.
fn field(head: &str, key: &str) -> Result<String, String> {
    let mut words = head.split_whitespace();
    while let Some(w) = words.next() {
        if w == key {
            return words
                .next()
                .map(str::to_owned)
                .ok_or(format!("{key} has no value"));
        }
    }
    Err(format!("reference header lacks {key}"))
}

fn num(head: &str, key: &str) -> Result<u64, String> {
    field(head, key)?
        .parse()
        .map_err(|_| format!("bad {key} in reference"))
}

fn hex(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text, 16).map_err(|_| format!("bad digest {text:?} in reference"))
}

/// Loads the prepared pair list and reference digests of `seed`.
pub fn load_route_refs(spec: &Spec, seed: u64, work: &Path) -> Result<RouteRefs, String> {
    let path = spec.pairs_path(work, seed);
    let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    let head = lines.next().ok_or("empty pair list")?;
    let mut pairs = Vec::with_capacity(spec.pairs);
    let mut digests = Vec::with_capacity(spec.pairs);
    for line in lines {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [s, t, d] = f[..] else {
            return Err(format!("bad pair line {line:?}"));
        };
        let id = |x: &str| {
            x.parse::<u32>()
                .map(NodeId::new)
                .map_err(|_| format!("bad id {x:?}"))
        };
        pairs.push((id(s)?, id(t)?));
        digests.push(hex(d)?);
    }
    if pairs.len() as u64 != num(head, "count")? || pairs.is_empty() {
        return Err("pair list length disagrees with its header".into());
    }
    let (delivered, hops) = (num(head, "delivered")?, num(head, "hops")?);
    let digest = digest_of(&digests);
    let committed_ok = match spec.committed(seed) {
        Some(c) => c == (digest, delivered, hops),
        None => true,
    };
    Ok(RouteRefs {
        pairs,
        digests,
        committed_ok,
    })
}

/// Loads the prepared gen-200k reference of `seed`.
pub fn load_gen_ref(spec: &Spec, seed: u64, work: &Path) -> Result<GenRef, String> {
    let path = spec.gen_ref_path(work, seed);
    let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let (nodes, edges) = (num(&text, "nodes")?, num(&text, "edges")?);
    let file_digest = hex(&field(&text, "digest")?)?;
    let committed_ok = match spec.committed(seed) {
        Some(c) => c == (file_digest, edges, nodes),
        None => true,
    };
    Ok(GenRef {
        nodes,
        edges,
        file_digest,
        committed_ok,
    })
}
