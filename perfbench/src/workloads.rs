//! The four workloads, the engine panel they run against, and the measured
//! round loop with its output checks.
//!
//! A run measures each engine of the panel for its share of the time
//! budget. The share is spent in **rounds**: round `r` runs the workload's
//! closed-loop driver once with a fixed op count, with op sequences seeded
//! from the run seed and `r`, against parameter set `r % ANCHORS`. Rounds
//! come in cycles of [`ANCHORS`], one per parameter set; cycles continue
//! until those with little stolen host CPU time fill the share (see
//! [`STEAL_LIMIT`]). Write workloads reload the dataset before every round
//! (outside the measured region), so every round starts from the same graph
//! and its final counts can be checked.
//!
//! The dataset and the parameter sets (traversal anchors, endpoint pools)
//! are fixed; only the op sequences follow the run seed. The parameter sets
//! are **curated** the way LDBC curates substitution parameters: of
//! [`CANDIDATES`] sets drawn from the dataset seed, the [`ANCHORS`] whose
//! shortest-path search (Q34) scans the median number of edges on the
//! dataset itself. One anchor's shortest-path cost spans three orders of
//! magnitude on LDBC (9 us to 10 ms on `linked(v2)`), so uncurated anchors
//! make a handful of ops decide a run's throughput and its run-to-run
//! spread larger than any useful bound.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use gm_core::params::{ResolvedParams, Workload as Params};
use gm_datasets::Scale;
use gm_model::api::LoadOptions;
use gm_model::dataset::Adjacency;
use gm_model::{Dataset, GdbError, GdbResult, GraphDb, GraphSnapshot, QueryCtx};
use gm_mvcc::{SnapshotMode, SnapshotSource};
use gm_net::{RemoteBackend, RemoteEngine, Server, ServerHandle};
use gm_workload::{
    run_backend, run_backend_sequential, Backend, LocalBackend, MixKind, Pacing, RunReport,
    SharedEngine, SnapshotBackend, WorkloadConfig, WORKLOAD_SLOTS,
};
use graphmark::registry::EngineKind;

use crate::stats::{counter_delta, ratio};
use crate::timed::{Tally, TimedBackend};

/// The engine panel, with the short label each metric name carries.
pub const PANEL: [(EngineKind, &str); 3] = [
    (EngineKind::LinkedV2, "linked"),
    (EngineKind::Triple, "triple"),
    (EngineKind::ColumnarV10, "columnar"),
];

/// A run sets the whole panel up at least [`SETUP_MIN_REPS`] times and
/// until [`SETUP_MIN_TIME`] is spent (at most [`SETUP_MAX_REPS`] times);
/// `setup_s` is the median. Cheap set-ups get more repetitions, which keeps
/// their median steady.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 15;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// Seed of the dataset generators and of the parameter sets.
pub const DATASET_SEED: u64 = 42;

/// Parameter sets each engine cycles through, one per round.
pub const ANCHORS: u64 = 8;

/// Parameter sets the curation picks [`ANCHORS`] from.
pub const CANDIDATES: u64 = 32;

/// Per-op read deadline. Generous: no op of any workload may fail, and the
/// slowest op measured here (a columnar scan on LDBC) takes under 0.2 s.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// A cycle during which the hypervisor stole more than this share of the
/// host's CPU time is measured again: on a shared host, stolen time makes a
/// lock holder stall while others wait, and a run's tail latency followed
/// the host's neighbours more than the program.
pub const STEAL_LIMIT: f64 = 0.04;

/// An engine measures at most this multiple of its budget; when quiet
/// cycles do not fill the budget by then, the cycles with the least stolen
/// time do. Bounds a run's length on a busy host.
pub const STEAL_RETRY: f64 = 1.5;

/// Registry counters whose growth over the measured rounds is reported.
pub const COUNTERS: [&str; 8] = [
    "mvcc.cow.pins",
    "mvcc.native.pins",
    "mvcc.cow.stale_pins",
    "mvcc.native.stale_pins",
    "mvcc.cow.publishes",
    "mvcc.native.publishes",
    "shard.pins",
    "shard.seqlock_retries",
];

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only mix, locked isolation, LDBC: the engines' read primitives.
    LockedRead,
    /// Read-heavy mix, autocommit snapshot isolation, yeast: MVCC pin,
    /// clone and publish.
    SnapshotWrite,
    /// Mixed mix, snapshot transactions on a 2-shard source, yeast:
    /// composite pins, routing, and cross-shard commit.
    ShardedTxn,
    /// Read-heavy mix over loopback TCP to a locked in-process server,
    /// yeast: wire encode, decode and socket I/O.
    Remote,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LockedRead,
        Workload::SnapshotWrite,
        Workload::ShardedTxn,
        Workload::Remote,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LockedRead => "locked-read",
            Workload::SnapshotWrite => "snapshot-write",
            Workload::ShardedTxn => "sharded-txn",
            Workload::Remote => "remote",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `gm-workload` mix.
    pub fn mix(self) -> MixKind {
        match self {
            Workload::LockedRead => MixKind::ReadOnly,
            Workload::SnapshotWrite | Workload::Remote => MixKind::ReadHeavy,
            Workload::ShardedTxn => MixKind::Mixed,
        }
    }

    /// Closed-loop clients (worker threads, or connections for `remote`).
    pub fn threads(self) -> u32 {
        match self {
            Workload::Remote => 1,
            _ => 2,
        }
    }

    /// Dataset name and scale.
    pub fn dataset(self) -> (&'static str, Scale) {
        match self {
            Workload::LockedRead => ("ldbc", Scale::small()),
            _ => ("yeast", Scale::small()),
        }
    }

    /// Generate the workload's dataset.
    pub fn generate(self) -> Dataset {
        let (name, scale) = self.dataset();
        match name {
            "ldbc" => gm_datasets::ldbc::generate(scale, DATASET_SEED),
            _ => gm_datasets::yeast::generate(scale, DATASET_SEED),
        }
    }

    /// Ops each client issues per round, per panel engine: sized so a round
    /// takes about a tenth of a second on a 2-core x86 host.
    pub fn ops_per_worker(self, engine: usize) -> u64 {
        let per_engine = match self {
            Workload::LockedRead => [1_000, 600, 20],
            Workload::SnapshotWrite => [1_000, 200, 500],
            Workload::ShardedTxn => [2_000, 800, 250],
            Workload::Remote => [2_000, 1_500, 600],
        };
        per_engine[engine]
    }

    /// Share of the time budget each panel engine gets. On `locked-read`,
    /// `columnar(v10)` serves a few hundred ops per second and needs time
    /// for the thousand samples a p99 needs, and `triple`'s throughput
    /// rests on its rarer shortest-path searches; `linked(v2)` collects
    /// plenty of samples in less time. On `snapshot-write`, `triple`'s
    /// whole-engine clones make its throughput the least steady.
    pub fn budget_share(self, engine: usize) -> f64 {
        match self {
            Workload::LockedRead => [0.2, 0.35, 0.45][engine],
            Workload::SnapshotWrite => [0.25, 0.45, 0.3][engine],
            _ => 1.0 / 3.0,
        }
    }

    /// Writes per transaction commit (0: autocommit).
    pub fn txn_ops(self) -> u64 {
        match self {
            Workload::ShardedTxn => 8,
            _ => 0,
        }
    }

    /// Shards of the snapshot source (1: unsharded).
    pub fn shards(self) -> usize {
        match self {
            Workload::ShardedTxn => 2,
            _ => 1,
        }
    }

    /// How the engine is hosted, for the run record.
    pub fn hosting(self) -> &'static str {
        match self {
            Workload::LockedRead => "in process, one RwLock around the engine",
            Workload::SnapshotWrite => "in process, snapshot source (native where the engine has one, else copy-on-write), autocommit",
            Workload::ShardedTxn => "in process, 2-shard snapshot source, write transactions of 8 writes",
            Workload::Remote => "loopback TCP to an in-process server hosting the engine behind one RwLock",
        }
    }

    /// Whether rounds write, so each round reloads the dataset first.
    fn writes(self) -> bool {
        self != Workload::LockedRead
    }
}

/// Seed of round `r` (splitmix64 of the run seed and the round index).
pub fn round_seed(seed: u64, r: u64) -> u64 {
    let mut z = seed ^ r.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One engine of the panel, loaded and ready for a round.
enum Target {
    Locked(SharedEngine),
    Source(Box<dyn SnapshotSource>),
    Remote {
        server: ServerHandle,
        ctl: RemoteEngine,
    },
}

impl Target {
    /// Build the engine for `kind` the way `w` hosts it and load `data`.
    fn load(w: Workload, kind: EngineKind, data: &Dataset) -> GdbResult<Target> {
        Ok(match w {
            Workload::LockedRead => {
                let mut db = kind.make();
                db.bulk_load(data, &LoadOptions::default())?;
                db.sync()?;
                Target::Locked(RwLock::new(db))
            }
            Workload::SnapshotWrite | Workload::ShardedTxn => {
                let source: Box<dyn SnapshotSource> = if w.shards() > 1 {
                    Box::new(kind.make_sharded_source(w.shards(), SnapshotMode::Native))
                } else {
                    kind.make_snapshot_source(SnapshotMode::Native)
                };
                source.with_write(&mut |db| {
                    db.bulk_load(data, &LoadOptions::default())?;
                    db.sync()?;
                    Ok(0)
                })?;
                Target::Source(source)
            }
            Workload::Remote => {
                let server = Server::bind("127.0.0.1:0", Box::new(move || kind.make()))?.spawn()?;
                let mut ctl = RemoteEngine::connect(&server.addr().to_string())?;
                ctl.bulk_load(data, &LoadOptions::default())?;
                ctl.sync()?;
                Target::Remote { server, ctl }
            }
        })
    }

    /// Put the freshly loaded dataset back (rounds of write workloads).
    fn reload(&mut self, w: Workload, kind: EngineKind, data: &Dataset) -> GdbResult<()> {
        match self {
            Target::Remote { ctl, .. } => {
                ctl.reset()?;
                ctl.bulk_load(data, &LoadOptions::default())?;
                ctl.sync()
            }
            local => {
                *local = Target::load(w, kind, data)?;
                Ok(())
            }
        }
    }

    /// Resolve round parameters (server-side for a remote target, which
    /// then needs no local copy).
    fn resolve(&self, params: &Params) -> GdbResult<Option<ResolvedParams>> {
        match self {
            Target::Locked(lock) => {
                let db = lock.read().map_err(|_| poisoned())?;
                Ok(Some(params.resolve(db.as_ref())?))
            }
            Target::Source(source) => Ok(Some(params.resolve(source.snapshot()?.as_ref())?)),
            Target::Remote { ctl, .. } => {
                ctl.prepare(params.seed, WORKLOAD_SLOTS as u32)?;
                Ok(None)
            }
        }
    }

    /// Run `f` against a consistent read view of the whole graph.
    fn read<R>(&self, f: impl FnOnce(&dyn GraphSnapshot) -> GdbResult<R>) -> GdbResult<R> {
        match self {
            Target::Locked(lock) => f(lock.read().map_err(|_| poisoned())?.as_ref()),
            Target::Source(source) => f(source.snapshot()?.as_ref()),
            Target::Remote { ctl, .. } => f(ctl),
        }
    }

    /// `(|V|, |E|)` as the engine reports them.
    fn counts(&self) -> GdbResult<(u64, u64)> {
        let ctx = QueryCtx::unbounded();
        self.read(|g| Ok((g.vertex_count(&ctx)?, g.edge_count(&ctx)?)))
    }

    /// The newest published epoch (0 for hosts without epochs).
    fn epoch(&self) -> u64 {
        match self {
            Target::Source(source) => source.current_epoch(),
            _ => 0,
        }
    }

    fn shutdown(self) {
        if let Target::Remote { server, ctl } = self {
            drop(ctl);
            server.shutdown();
        }
    }
}

fn poisoned() -> GdbError {
    GdbError::Poisoned("engine lock poisoned by a panicking writer".into())
}

/// Timings of one panel set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Dataset generation.
    pub generate_s: f64,
    /// Load (and, for `remote`, server start plus shipping), per engine.
    pub load_s: [f64; 3],
    /// The whole set-up: generation, loads and round-0 parameter resolution.
    pub total_s: f64,
}

/// `(stolen, total)` clock ticks of the whole host so far, from the first
/// line of `/proc/stat`; zeros where the kernel does not report them.
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// What a set of measured rounds recorded.
#[derive(Default)]
pub struct Sample {
    /// Cycles of [`ANCHORS`] rounds (one round on every parameter set).
    pub cycles: u64,
    /// Measured wall time.
    pub wall_ns: u64,
    /// What the timed wrapper recorded.
    pub tally: Tally,
    /// Host CPU time the hypervisor stole while the rounds ran, and all
    /// host CPU time that passed, in clock ticks summed over CPUs.
    pub stolen_ticks: (u64, u64),
    /// Reads `gm-workload` counted as epoch skew.
    pub epoch_skew: u64,
    /// Commits lost to first-committer-wins.
    pub txn_conflicts: u64,
    /// Growth of each of [`COUNTERS`].
    deltas: BTreeMap<&'static str, u64>,
}

impl Sample {
    /// Completed ops per second of measured wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.tally.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Share of host CPU time the hypervisor stole.
    pub fn steal_share(&self) -> f64 {
        ratio(self.stolen_ticks.0 as f64, self.stolen_ticks.1 as f64)
    }

    /// Growth of registry counter `name` (one of [`COUNTERS`]).
    pub fn delta(&self, name: &str) -> u64 {
        self.deltas.get(name).copied().unwrap_or(0)
    }

    fn merge(&mut self, other: &Sample) {
        self.cycles += other.cycles;
        self.wall_ns += other.wall_ns;
        self.tally.merge(&other.tally);
        self.stolen_ticks.0 += other.stolen_ticks.0;
        self.stolen_ticks.1 += other.stolen_ticks.1;
        self.epoch_skew += other.epoch_skew;
        self.txn_conflicts += other.txn_conflicts;
        for (name, d) in &other.deltas {
            *self.deltas.entry(name).or_default() += d;
        }
    }
}

/// What one engine did over its measured rounds.
pub struct EngineRun {
    /// Panel label (`linked`, `triple`, `columnar`).
    pub label: &'static str,
    /// Engine display name.
    pub engine: String,
    /// Rounds run, kept or discarded.
    pub rounds: u64,
    /// Ops each client issued per round.
    pub ops_per_worker: u64,
    /// The cycles the metrics come from.
    pub kept: Sample,
    /// Cycles discarded because the hypervisor stole more than
    /// [`STEAL_LIMIT`] of the host's CPU time while they ran.
    pub discarded: Sample,
    /// Engine space after round 0, in bytes.
    pub space_bytes: u64,
    /// Per round: the cardinality trace of each client (`locked-read`).
    traces: Vec<Vec<Vec<u64>>>,
    /// Per round: `|V|, |E|` after the round (write workloads).
    counts: Vec<(u64, u64)>,
}

/// The outcome of measuring the whole panel once.
pub struct Pass {
    /// Set-up timings, one per repetition.
    pub setups: Vec<SetupTimes>,
    /// Dataset `(|V|, |E|)`.
    pub dataset: (usize, usize),
    /// Per panel engine.
    pub engines: Vec<EngineRun>,
    /// Peak resident memory at the end of the measured rounds, in MB.
    pub peak_rss_mb: f64,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

/// Edges an undirected breadth-first search from `from` scans before it
/// reaches `to`: the work of the unlabeled shortest-path query, measured
/// on the dataset rather than on any engine.
fn path_work(adj: &Adjacency, from: u64, to: u64) -> u64 {
    let mut seen = vec![false; adj.offsets.len() - 1];
    let mut queue = VecDeque::from([from as usize]);
    seen[from as usize] = true;
    let mut scanned = 0;
    while let Some(v) = queue.pop_front() {
        if v as u64 == to {
            break;
        }
        for &n in adj.neighbors(v) {
            scanned += 1;
            if !std::mem::replace(&mut seen[n as usize], true) {
                queue.push_back(n as usize);
            }
        }
    }
    scanned
}

/// Parameter curation: the seeds of the [`ANCHORS`] candidate parameter
/// sets whose shortest-path work is closest to the candidates' median.
pub fn curate(data: &Dataset) -> Vec<u64> {
    let adj = data.undirected_adjacency();
    let mut scored: Vec<(u64, u64)> = (0..CANDIDATES)
        .map(|c| {
            let seed = round_seed(DATASET_SEED, c);
            let p = Params::choose(data, seed, WORKLOAD_SLOTS);
            (path_work(&adj, p.vertex, p.vertex2), seed)
        })
        .collect();
    scored.sort_unstable();
    let median = scored[scored.len() / 2].0;
    scored.sort_by_key(|&(work, seed)| (work.abs_diff(median), seed));
    scored
        .iter()
        .take(ANCHORS as usize)
        .map(|&(_, seed)| seed)
        .collect()
}

/// The curated parameter sets.
fn anchors(data: &Dataset, seeds: &[u64]) -> Vec<Params> {
    seeds
        .iter()
        .map(|&seed| Params::choose(data, seed, WORKLOAD_SLOTS))
        .collect()
}

/// Everything a set-up builds.
struct Panel {
    data: Dataset,
    anchors: Vec<Params>,
    /// Per engine: the loaded target and round 0's resolved parameters.
    targets: Vec<(Target, Option<ResolvedParams>)>,
}

/// Set the panel up from scratch: generate the dataset, draw the curated
/// parameter sets, load every engine and resolve round 0's parameters.
fn setup(w: Workload, seeds: &[u64]) -> GdbResult<(Panel, SetupTimes)> {
    let start = Instant::now();
    let data = w.generate();
    let mut times = SetupTimes {
        generate_s: start.elapsed().as_secs_f64(),
        ..SetupTimes::default()
    };
    let anchors = anchors(&data, seeds);
    let mut targets = Vec::new();
    for (i, (kind, _)) in PANEL.iter().enumerate() {
        let t = Instant::now();
        let target = Target::load(w, *kind, &data)?;
        times.load_s[i] = t.elapsed().as_secs_f64();
        let resolved = target.resolve(&anchors[0])?;
        targets.push((target, resolved));
    }
    times.total_s = start.elapsed().as_secs_f64();
    Ok((
        Panel {
            data,
            anchors,
            targets,
        },
        times,
    ))
}

/// What a round needs besides its engine.
struct Rounds<'p> {
    data: &'p Dataset,
    anchors: &'p [Params],
    seed: u64,
}

impl Rounds<'_> {
    fn params(&self, r: u64) -> &Params {
        &self.anchors[(r % ANCHORS) as usize]
    }

    fn config(&self, w: Workload, r: u64, ops_per_worker: u64, record: bool) -> WorkloadConfig {
        WorkloadConfig {
            mix: w.mix(),
            threads: w.threads(),
            ops_per_worker,
            seed: round_seed(self.seed, r),
            pacing: Pacing::Closed,
            op_timeout: OP_TIMEOUT,
            record_cardinalities: record,
        }
    }
}

/// Set the panel up repeatedly (see [`SETUP_MIN_REPS`]), then measure each engine for its
/// share of `budget` and check every output.
pub fn run_pass(w: Workload, seed: u64, budget: Duration) -> GdbResult<Pass> {
    // Curation defines the workload, like a parameter file shipped with
    // it: it is not part of the measured set-up.
    let seeds = curate(&w.generate());
    let mut setups = Vec::new();
    let mut built: Option<Panel> = None;
    let started = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && started.elapsed() < SETUP_MIN_TIME)
    {
        // Drop the previous panel first: set-up memory must not stack up.
        if let Some(panel) = built.take() {
            panel.targets.into_iter().for_each(|(t, _)| t.shutdown());
        }
        let (panel, times) = setup(w, &seeds)?;
        setups.push(times);
        built = Some(panel);
    }
    let Panel {
        data,
        anchors,
        targets: panel,
    } = built.expect("set up at least once");
    let rounds = Rounds {
        data: &data,
        anchors: &anchors,
        seed,
    };
    let mut failures = Vec::new();
    let mut slots = Vec::new();
    for (i, (target, params0)) in panel.into_iter().enumerate() {
        slots.push(Slot::new(w, i, target, params0, budget)?);
    }
    // Engines take turns, one round each, so every engine's rounds spread
    // over the whole run and a slow spell of the host hits all of them
    // alike instead of one engine entirely.
    while slots.iter().any(|s| !s.done()) {
        for slot in slots.iter_mut().filter(|s| !s.done()) {
            slot.step(w, &rounds, &mut failures)?;
        }
    }
    let peak_rss_mb = crate::record::peak_rss_mb();
    let (engines, targets): (Vec<EngineRun>, Vec<Target>) =
        slots.into_iter().map(Slot::finish).unzip();
    if w == Workload::LockedRead {
        check_against_replay(w, &targets[0], &engines, &rounds, &mut failures)?;
    } else if w != Workload::ShardedTxn {
        check_counts(w, &engines, &rounds, &mut failures)?;
    }
    targets.into_iter().for_each(Target::shutdown);
    Ok(Pass {
        setups,
        dataset: (data.vertex_count(), data.edge_count()),
        engines,
        peak_rss_mb,
        failures,
    })
}

/// One panel engine being measured: its target, what it recorded so far,
/// and its share of the time budget.
struct Slot {
    index: usize,
    target: Target,
    /// Round 0's parameters, resolved during set-up.
    params0: Option<Option<ResolvedParams>>,
    budget: Duration,
    /// The cycle in progress.
    cycle: Sample,
    /// Finished cycles.
    cycles: Vec<Sample>,
    run: EngineRun,
}

impl Slot {
    fn new(
        w: Workload,
        index: usize,
        target: Target,
        params0: Option<ResolvedParams>,
        budget: Duration,
    ) -> GdbResult<Slot> {
        let (kind, label) = PANEL[index];
        let run = EngineRun {
            label,
            engine: kind.name().to_string(),
            rounds: 0,
            ops_per_worker: w.ops_per_worker(index),
            kept: Sample::default(),
            discarded: Sample::default(),
            space_bytes: target.read(|g| Ok(g.space().total()))?,
            traces: Vec::new(),
            counts: Vec::new(),
        };
        Ok(Slot {
            index,
            target,
            params0: Some(params0),
            budget: budget.mul_f64(w.budget_share(index)),
            cycle: Sample::default(),
            cycles: Vec::new(),
            run,
        })
    }

    /// Done, at a cycle boundary, once the cycles with little stolen time
    /// fill the budget, or all cycles fill it [`STEAL_RETRY`] times over.
    fn done(&self) -> bool {
        let wall = |quiet: bool| {
            let cycles = self.cycles.iter();
            let chosen = cycles.filter(|c| !quiet || c.steal_share() <= STEAL_LIMIT);
            Duration::from_nanos(chosen.map(|c| c.wall_ns).sum())
        };
        self.run.rounds.is_multiple_of(ANCHORS)
            && (wall(true) >= self.budget || wall(false) >= self.budget.mul_f64(STEAL_RETRY))
    }

    /// Keep the cycles with the least stolen time until they fill the
    /// budget; the rest are discarded.
    fn finish(mut self) -> (EngineRun, Target) {
        self.cycles
            .sort_by(|a, b| a.steal_share().total_cmp(&b.steal_share()));
        for cycle in &self.cycles {
            if Duration::from_nanos(self.run.kept.wall_ns) < self.budget {
                self.run.kept.merge(cycle);
            } else {
                self.run.discarded.merge(cycle);
            }
        }
        (self.run, self.target)
    }

    /// Run and check one round.
    fn step(
        &mut self,
        w: Workload,
        rounds: &Rounds<'_>,
        failures: &mut Vec<String>,
    ) -> GdbResult<()> {
        let (kind, label) = PANEL[self.index];
        let r = self.run.rounds;
        let opw = self.run.ops_per_worker;
        let params = match self.params0.take() {
            Some(p) => p,
            None => {
                if w.writes() {
                    self.target.reload(w, kind, rounds.data)?;
                }
                self.target.resolve(rounds.params(r))?
            }
        };
        let target = &self.target;
        let cfg = rounds.config(w, r, opw, w == Workload::LockedRead);
        let epoch_before = target.epoch();
        let before = gm_obs::global().snapshot();
        let ticks_before = cpu_ticks();
        let (report, tally) = run_round(w, target, params.as_ref(), rounds.data, &cfg)?;
        let ticks_after = cpu_ticks();
        let after = gm_obs::global().snapshot();
        let c = &mut self.cycle;
        c.wall_ns += report.wall_nanos;
        c.tally.merge(&tally);
        c.stolen_ticks.0 += ticks_after.0.saturating_sub(ticks_before.0);
        c.stolen_ticks.1 += ticks_after.1.saturating_sub(ticks_before.1);
        c.epoch_skew += report.epoch_skew();
        c.txn_conflicts += report.txn_conflicts();
        for name in COUNTERS {
            *c.deltas.entry(name).or_default() += counter_delta(&before, &after, name);
        }
        let expected = u64::from(cfg.threads) * opw;
        let mut fail = |what: String| failures.push(format!("{label} round {r}: {what}"));
        if report.ops() != expected || tally.ops != expected {
            fail(format!(
                "{} ops completed ({} timed), expected {} clients x {opw} = {expected}",
                report.ops(),
                tally.ops,
                cfg.threads
            ));
        }
        if report.errors() > 0 {
            fail(format!("{} ops failed", report.errors()));
        }
        if w == Workload::ShardedTxn {
            let epoch_after = target.epoch();
            if report.epoch_skew() > 0 || tally.epoch_regressions > 0 {
                fail(format!(
                    "epoch skew {} / {} reads served an older epoch than the previous read",
                    report.epoch_skew(),
                    tally.epoch_regressions
                ));
            }
            if epoch_after < epoch_before || epoch_after < tally.max_epoch {
                fail(format!(
                    "composite epoch went from {epoch_before} to {epoch_after}, \
                     but reads saw epoch {}",
                    tally.max_epoch
                ));
            }
        }
        if w == Workload::LockedRead {
            self.run.traces.push(
                report
                    .workers
                    .iter()
                    .map(|s| s.cardinalities.clone())
                    .collect(),
            );
        } else if w.writes() {
            self.run.counts.push(target.counts()?);
        }
        self.run.rounds += 1;
        if self.run.rounds.is_multiple_of(ANCHORS) {
            let mut cycle = std::mem::take(&mut self.cycle);
            cycle.cycles = 1;
            self.cycles.push(cycle);
        }
        Ok(())
    }
}

fn run_round(
    w: Workload,
    target: &Target,
    params: Option<&ResolvedParams>,
    data: &Dataset,
    cfg: &WorkloadConfig,
) -> GdbResult<(RunReport, Tally)> {
    let need = || GdbError::Invalid("in-process round without resolved parameters".into());
    let inner: Box<dyn Backend + '_> = match target {
        Target::Locked(lock) => {
            let engine = lock.read().map_err(|_| poisoned())?.name();
            Box::new(LocalBackend::new(
                engine,
                lock,
                params.ok_or_else(need)?,
                OP_TIMEOUT,
            ))
        }
        Target::Source(source) => Box::new(
            SnapshotBackend::new(source.as_ref(), params.ok_or_else(need)?, OP_TIMEOUT)
                .with_txn_ops(w.txn_ops()),
        ),
        Target::Remote { server, ctl } => Box::new(RemoteBackend::new(
            server.addr().to_string(),
            ctl.name(),
            OP_TIMEOUT,
        )),
    };
    let timed = TimedBackend::new(inner.as_ref(), w.txn_ops());
    let report = run_backend(&timed, &data.name, cfg)?;
    Ok((report, timed.into_tally()))
}

/// `locked-read`: every engine's per-op cardinality trace must equal a
/// sequential replay of the same round. The replay runs on the linked
/// engine (all panel engines return identical results, which the
/// comparison checks too), two rounds at a time on two threads.
fn check_against_replay(
    w: Workload,
    linked: &Target,
    engines: &[EngineRun],
    rounds: &Rounds<'_>,
    failures: &mut Vec<String>,
) -> GdbResult<()> {
    let Target::Locked(lock) = linked else {
        return Err(GdbError::Invalid(
            "locked-read replays on a locked engine".into(),
        ));
    };
    // Longest prefix any engine ran, per round.
    let mut need: BTreeMap<u64, u64> = BTreeMap::new();
    for e in engines {
        for r in 0..e.rounds {
            let opw = need.entry(r).or_default();
            *opw = (*opw).max(e.ops_per_worker);
        }
    }
    let mut jobs = Vec::new();
    for (&r, &opw) in &need {
        let params = lock_resolve(lock, rounds.params(r))?;
        jobs.push((r, opw, params));
    }
    let replays: Vec<GdbResult<(u64, Vec<Vec<u64>>)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|k| {
                let jobs = &jobs;
                s.spawn(move || {
                    jobs.iter()
                        .skip(k)
                        .step_by(2)
                        .map(|(r, opw, params)| {
                            let backend =
                                LocalBackend::new("replay".into(), lock, params, OP_TIMEOUT);
                            let cfg = rounds.config(w, *r, *opw, true);
                            let rep = run_backend_sequential(&backend, "replay", &cfg)?;
                            Ok((
                                *r,
                                rep.workers.into_iter().map(|s| s.cardinalities).collect(),
                            ))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut reference = HashMap::new();
    for replay in replays {
        let (r, traces) = replay?;
        reference.insert(r, traces);
    }
    for e in engines {
        for (r, traces) in e.traces.iter().enumerate() {
            let want = &reference[&(r as u64)];
            for (client, got) in traces.iter().enumerate() {
                if want[client][..got.len()] != got[..] {
                    let at = got
                        .iter()
                        .zip(&want[client])
                        .position(|(a, b)| a != b)
                        .unwrap_or(0);
                    failures.push(format!(
                        "{} round {r} client {client}: op {at} returned {} rows, \
                         the sequential replay {}",
                        e.label, got[at], want[client][at]
                    ));
                }
            }
        }
    }
    Ok(())
}

fn lock_resolve(lock: &SharedEngine, params: &Params) -> GdbResult<ResolvedParams> {
    params.resolve(lock.read().map_err(|_| poisoned())?.as_ref())
}

/// Write workloads: after each round the engine's `|V|` and `|E|` must
/// equal a sequential replay's. Writes are partitioned by client, so the
/// final counts do not depend on interleaving.
fn check_counts(
    w: Workload,
    engines: &[EngineRun],
    rounds: &Rounds<'_>,
    failures: &mut Vec<String>,
) -> GdbResult<()> {
    for e in engines {
        for (r, &got) in e.counts.iter().enumerate() {
            let want = replay_counts(w, rounds, r as u64, e.ops_per_worker)?;
            if got != want {
                failures.push(format!(
                    "{} round {r}: |V|, |E| = {got:?} after the round, \
                     the sequential replay has {want:?}",
                    e.label
                ));
            }
        }
    }
    Ok(())
}

/// `|V|, |E|` after a sequential replay of round `r` on a fresh load.
fn replay_counts(w: Workload, rounds: &Rounds<'_>, r: u64, opw: u64) -> GdbResult<(u64, u64)> {
    let mut db = EngineKind::LinkedV2.make();
    db.bulk_load(rounds.data, &LoadOptions::default())?;
    db.sync()?;
    let lock = RwLock::new(db);
    let params = lock_resolve(&lock, rounds.params(r))?;
    let backend = LocalBackend::new("replay".into(), &lock, &params, OP_TIMEOUT);
    run_backend_sequential(&backend, "replay", &rounds.config(w, r, opw, false))?;
    let ctx = QueryCtx::unbounded();
    let db = lock.read().map_err(|_| poisoned())?;
    Ok((db.vertex_count(&ctx)?, db.edge_count(&ctx)?))
}
