//! Figure 10 (beyond the paper): hash-partitioned sharding sweep — shards ×
//! threads × isolation, with per-shard lock-wait accounting.
//!
//! The fig8 concurrency sweep showed where a single engine-wide `RwLock`
//! stops scaling; this binary measures what per-partition locks buy.
//! For every engine under test and every workload mix it drives the same
//! deterministic workload through three concurrency regimes:
//!
//! * `locked` — the original single-`RwLock` engine (`LocalBackend`), the
//!   baseline every sharded row is read against;
//! * `sharded-locked` — a `gm-shard` composite of `N` engines, each behind
//!   its own lock: reads see one consistent cross-shard state, writes lock
//!   only the shard they land on;
//! * `snapshot-sharded-*` — one MVCC cell per shard (unless
//!   `GM_SNAPSHOT_MODE=off`): reads pin composite epochs (min over shard
//!   epochs), writers on different shards share no mutex at all.
//!
//! Every row carries the **lock-wait** column (nanoseconds ops spent
//! queueing on engine locks, measured as a `gm_obs` `lock_wait` phase span
//! at every acquisition site): the single-lock vs per-partition-lock comparison is a
//! measured number, not a claim. Rendered through the same
//! `ScalingRow`/`render_scaling`/CSV machinery as fig8/fig9.
//!
//! Environment knobs on top of the `GM_*` set (see `gm_bench::config`):
//!
//! | var | default | meaning |
//! |---|---|---|
//! | `GM_SHARDS` | `1,2,4` | shard counts to sweep |
//! | `GM_THREADS` | `2,4` | worker-thread counts to sweep |
//! | `GM_MIXES` | `write-heavy,mixed` | workload mixes |
//! | `GM_WL_OPS` | `400` | ops per worker |
//! | `GM_SNAPSHOT_MODE` | `cow` | `off` / `cow` / `native` snapshot cells |
//! | `GM_FLEET` | `0` | spawn an N-server loopback fleet and add `@fleet` rows |
//! | `GM_FLEET_ADDRS` | (none) | drive an already-running fleet instead (shard order) |
//!
//! With `GM_FLEET=N` (or `GM_FLEET_ADDRS` pointing at running `gm-server
//! --shard-id i --fleet-size N` processes) every mix × thread point gains a
//! **`@fleet` row**: the same workload driven through `gm-net`'s fleet
//! coordinator — cross-process sharding over batched, pipelined
//! connections — so single-lock, in-process-sharded and fleet-sharded
//! regimes land in one table.
//!
//! `--smoke` replaces the environment-driven sweep with a fixed tiny
//! configuration (one engine, write-heavy, 4 workers, shards 1 vs 4) and
//! **fails if the 4-shard composite does not out-run the 1-shard one** on
//! write-heavy throughput — the scaling claim of the sharding PR, enforced
//! in CI. Each side takes the best of a few attempts so scheduler noise on
//! small CI boxes doesn't fail an honest win; on a runner with fewer than
//! 4 cores the throughput gate is reported but not enforced (4-way
//! parallel speedup is not a deterministic claim there). When a fleet is
//! configured, the smoke also gates the fleet contract: per-op results
//! identical to the in-process sharded replay, zero routing errors, fewer
//! wire round trips than ops, and a monotone fleet epoch.

use gm_bench::{config, Env};
use gm_core::summary::{self, ScalingRow};
use gm_datasets::{self as datasets, DatasetId, Scale};
use gm_net::{run_fleet, run_fleet_sequential, Fleet, Server, ServerHandle};
use gm_obs::trace;
use gm_workload::{run, run_snapshot, MixKind, RunReport, WorkloadConfig};
use graphmark::model::{Dataset, GdbResult, GraphDb};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;
use graphmark::shard::{run_sharded, run_sharded_sequential};

struct Sweep {
    env: Env,
    shards: Vec<u32>,
    threads: Vec<u32>,
    mixes: Vec<MixKind>,
    ops_per_worker: u64,
    snapshot: Option<SnapshotMode>,
}

fn sweep_from_env() -> Sweep {
    Sweep {
        env: Env::from_env(),
        shards: config::var_list_u32("GM_SHARDS", "1,2,4"),
        threads: config::var_list_u32("GM_THREADS", "2,4"),
        mixes: config::var_mixes("GM_MIXES", "write-heavy,mixed"),
        ops_per_worker: config::var_u64("GM_WL_OPS", 400),
        snapshot: config::var_snapshot_mode(Some(SnapshotMode::Cow)),
    }
}

fn wl_config(mix: MixKind, threads: u32, sweep: &Sweep) -> WorkloadConfig {
    WorkloadConfig {
        mix,
        threads,
        ops_per_worker: sweep.ops_per_worker,
        seed: sweep.env.seed,
        op_timeout: sweep.env.timeout,
        ..WorkloadConfig::default()
    }
}

fn log_row(r: &RunReport) {
    eprintln!(
        "[fig10]   {:<20} {:<11} t={:<2} {:<18} {:>9.0} ops/s  lockw/op {}",
        r.engine,
        r.mix,
        r.threads,
        r.isolation,
        r.throughput(),
        gm_workload::format_nanos(r.scaling_row().lock_wait_per_op()),
    );
}

/// A fleet under test: shard servers this process spawned (empty when
/// `GM_FLEET_ADDRS` points at external ones) plus the connected
/// coordinator.
struct AttachedFleet {
    handles: Vec<ServerHandle>,
    fleet: Fleet,
}

impl AttachedFleet {
    fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

/// Resolve the fleet knobs: `GM_FLEET_ADDRS` attaches to running servers
/// (shard order must match their announced identities); otherwise
/// `GM_FLEET=N` (N ≥ 2) spawns N identity-tagged loopback servers hosting
/// `kind`. `None` means no fleet was requested; a requested fleet that
/// cannot be attached is a hard error — a misconfigured gate must not
/// silently pass by skipping itself.
fn attach_fleet(kind: EngineKind) -> Option<AttachedFleet> {
    if let Ok(spec) = std::env::var("GM_FLEET_ADDRS") {
        let addrs: Vec<String> = spec
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if !addrs.is_empty() {
            match Fleet::connect(addrs) {
                Ok(fleet) => {
                    return Some(AttachedFleet {
                        handles: Vec::new(),
                        fleet,
                    })
                }
                Err(e) => {
                    eprintln!("[fig10] GM_FLEET_ADDRS fleet attach FAILED: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let n: usize = std::env::var("GM_FLEET")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    if n < 2 {
        return None;
    }
    let mut handles = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for s in 0..n {
        let spawned = Server::bind("127.0.0.1:0", Box::new(move || kind.make()))
            .map(|srv| srv.with_shard_identity(s as u32, n as u32))
            .and_then(Server::spawn);
        match spawned {
            Ok(h) => {
                addrs.push(h.addr().to_string());
                handles.push(h);
            }
            Err(e) => {
                eprintln!("[fig10] GM_FLEET={n}: shard server {s} spawn FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    match Fleet::connect(addrs) {
        Ok(fleet) => Some(AttachedFleet { handles, fleet }),
        Err(e) => {
            eprintln!("[fig10] GM_FLEET={n} fleet attach FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    config::apply_obs_mode();
    config::apply_trace_mode();
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let sweep = sweep_from_env();
    if sweep.shards.is_empty() || sweep.threads.is_empty() || sweep.mixes.is_empty() {
        eprintln!(
            "[fig10] nothing to run: GM_SHARDS, GM_THREADS or GM_MIXES left no valid entries"
        );
        std::process::exit(2);
    }

    let data = datasets::generate(DatasetId::Yeast, sweep.env.scale, sweep.env.seed);
    eprintln!(
        "[fig10] dataset {} |V|={} |E|={}, {} engines × shards {:?} × threads {:?} × {:?}, snapshot mode {}",
        data.name,
        data.vertex_count(),
        data.edge_count(),
        sweep.env.engines.len(),
        sweep.shards,
        sweep.threads,
        sweep.mixes.iter().map(|m| m.name()).collect::<Vec<_>>(),
        sweep.snapshot.map(|m| m.name()).unwrap_or("off"),
    );

    let mut rows: Vec<ScalingRow> = Vec::new();
    for kind in &sweep.env.engines {
        for mix in &sweep.mixes {
            for &t in &sweep.threads {
                let cfg = wl_config(*mix, t, &sweep);
                // Single-lock baseline: the unsharded engine behind one
                // RwLock — what every sharded row is read against.
                let factory = move || kind.make();
                match run(&factory, &data, &cfg) {
                    Ok(r) => {
                        log_row(&r);
                        rows.push(r.scaling_row());
                    }
                    Err(e) => eprintln!(
                        "[fig10]   {} {} t={t} baseline FAILED: {e}",
                        kind.name(),
                        mix.name()
                    ),
                }
                for &n in &sweep.shards {
                    let sharded_factory = move || -> Box<dyn GraphDb> { kind.make() };
                    match run_sharded(&sharded_factory, n as usize, &data, &cfg) {
                        Ok(r) => {
                            log_row(&r);
                            rows.push(r.scaling_row());
                        }
                        Err(e) => eprintln!(
                            "[fig10]   {} {} t={t} s={n} sharded FAILED: {e}",
                            kind.name(),
                            mix.name()
                        ),
                    }
                    if let Some(mode) = sweep.snapshot {
                        let kind = *kind;
                        let src_factory = move || -> Box<dyn SnapshotSource> {
                            Box::new(kind.make_sharded_source(n as usize, mode))
                        };
                        match run_snapshot(&src_factory, &data, &cfg) {
                            Ok(r) => {
                                log_row(&r);
                                rows.push(r.scaling_row());
                            }
                            Err(e) => eprintln!(
                                "[fig10]   {} {} t={t} s={n} snapshot FAILED: {e}",
                                kind.name(),
                                mix.name()
                            ),
                        }
                    }
                }
            }
        }
    }

    // @fleet rows: the same points through the cross-process coordinator.
    // External fleets host one fixed engine, so attach once; spawned
    // fleets get one per engine under test.
    let fleet_engines: &[EngineKind] = if std::env::var("GM_FLEET_ADDRS").is_ok() {
        &sweep.env.engines[..1.min(sweep.env.engines.len())]
    } else {
        &sweep.env.engines
    };
    for kind in fleet_engines {
        let Some(att) = attach_fleet(*kind) else {
            break; // no fleet requested
        };
        for mix in &sweep.mixes {
            for &t in &sweep.threads {
                let cfg = wl_config(*mix, t, &sweep);
                match run_fleet(&att.fleet, &data, &cfg) {
                    Ok(r) => {
                        log_row(&r);
                        rows.push(r.scaling_row());
                    }
                    Err(e) => eprintln!(
                        "[fig10]   @fleet {} {} t={t} FAILED: {e}",
                        att.fleet.name(),
                        mix.name()
                    ),
                }
            }
        }
        eprintln!(
            "[fig10] @fleet {}: {} wire frames, {} batched ops, {} routing errors",
            att.fleet.name(),
            att.fleet.round_trips(),
            att.fleet.batched_ops(),
            att.fleet.routing_errors(),
        );
        att.shutdown();
    }

    println!(
        "\n=== Figure 10 — sharded locks vs one big lock (dataset {}) ===",
        data.name
    );
    print!("{}", summary::render_scaling(&rows));
    println!("\n--- csv ---");
    print!("{}", summary::scaling_to_csv(&rows));

    if trace::enabled() {
        let ring = trace::global_ring();
        let stamped = rows.iter().filter(|r| r.p99_exemplar != 0).count();
        let resolved = rows
            .iter()
            .filter(|r| r.p99_exemplar != 0 && ring.find(r.p99_exemplar).is_some())
            .count();
        eprintln!(
            "[fig10] trace: {resolved}/{stamped} p99 exemplars resolve in the flight recorder"
        );
    }
    if let Some(base) = config::trace_dump_path() {
        match trace::dump_to(&base, &trace::global_ring().snapshot()) {
            Ok(()) => eprintln!("[fig10] traces dumped to {base}.txt and {base}.json"),
            Err(e) => eprintln!("[fig10] GM_TRACE_DUMP to {base} failed: {e}"),
        }
    }
}

/// The CI gate: on a tiny fixed configuration, a 4-shard write-heavy run
/// must out-run the 1-shard run of the *same composite machinery* (so the
/// comparison isolates the lock split, not the composite overhead) on at
/// least one engine.
///
/// The candidate list leads with the triple engine: its per-statement cost
/// (three B+Trees per write) is large enough that single-lock serialization
/// dominates scheduler noise, so the structural win shows reliably even on
/// a 2-core CI box. The linked engine's sub-µs ops are run too for the log,
/// but cache-line bouncing on tiny ops can mask the lock split there, which
/// is itself a finding worth seeing next to the triple rows.
fn smoke() {
    let env = Env::from_env();
    let candidates: Vec<EngineKind> = if std::env::var("GM_ENGINES").is_ok() {
        env.engines.clone()
    } else {
        vec![EngineKind::Triple, EngineKind::LinkedV2]
    };
    let data = datasets::generate(DatasetId::Yeast, Scale::tiny(), env.seed);
    let cfg = WorkloadConfig {
        mix: MixKind::WriteHeavy,
        threads: 4,
        ops_per_worker: config::var_u64("GM_WL_OPS", 3_000),
        seed: env.seed,
        op_timeout: env.timeout,
        ..WorkloadConfig::default()
    };
    eprintln!(
        "[fig10] smoke: write-heavy, 4 workers × {} ops, shards 1 vs 4, engines {:?} [smoke]",
        cfg.ops_per_worker,
        candidates.iter().map(|k| k.name()).collect::<Vec<_>>(),
    );

    // Best of three attempts per side: the gate is about structure (lock
    // splitting), and a single descheduled run must not fail an honest win.
    let attempt = |kind: EngineKind, shards: usize| -> GdbResult<(f64, u64)> {
        let factory = move || -> Box<dyn GraphDb> { kind.make() };
        let r = run_sharded(&factory, shards, &data, &cfg)?;
        log_row(&r);
        Ok((r.throughput(), r.scaling_row().lock_wait_per_op()))
    };
    let best = |kind: EngineKind, shards: usize| -> GdbResult<(f64, u64)> {
        let mut best = (0.0f64, u64::MAX);
        for _ in 0..3 {
            let (thr, lw) = attempt(kind, shards)?;
            if thr > best.0 {
                best = (thr, lw);
            }
        }
        Ok(best)
    };

    let mut scaled = false;
    for kind in &candidates {
        let ((thr1, lw1), (thr4, lw4)) = match (best(*kind, 1), best(*kind, 4)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("[fig10] smoke: {} run FAILED: {e}", kind.name());
                std::process::exit(1);
            }
        };
        eprintln!(
            "[fig10] smoke: {:<14} 1 shard {thr1:>8.0} ops/s (lockw/op {:>7}) | \
             4 shards {thr4:>8.0} ops/s (lockw/op {:>7}) — {:.2}×",
            kind.name(),
            gm_workload::format_nanos(lw1),
            gm_workload::format_nanos(lw4),
            thr4 / thr1,
        );
        if thr4 > thr1 {
            scaled = true;
        }
    }
    if !scaled {
        // Minimum-core guard: 4 workers on fewer than 4 cores time-slice
        // one or two cores, so "4 shards out-run 1 shard" is not a
        // deterministic claim there — the gate logs instead of failing.
        // On ≥4 cores it stays a hard failure.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 {
            eprintln!(
                "[fig10] smoke: no 1→4-shard throughput win, but this is a {cores}-core \
                 runner — parallel speedup is not deterministic here, gate relaxed \
                 (the per-op lock-wait columns above still show the lock split)"
            );
        } else {
            eprintln!(
                "[fig10] smoke: no engine scaled write-heavy throughput from 1 → 4 shards — \
                 per-partition locks bought nothing"
            );
            std::process::exit(1);
        }
    } else {
        eprintln!("[fig10] smoke: per-partition locks beat the single lock (>1× on ≥1 engine)");
    }

    fleet_smoke(&env, &data);
}

/// The fleet contract gate, run when `GM_FLEET`/`GM_FLEET_ADDRS` is set: a
/// multi-process fleet must complete the write-heavy mix with per-op
/// results **identical** to the in-process sharded replay, zero routing
/// errors, fewer wire round trips than ops (batched dispatch), and a
/// monotone fleet epoch. Any violation exits non-zero.
fn fleet_smoke(env: &Env, data: &Dataset) {
    let kind = *env.engines.first().unwrap_or(&EngineKind::LinkedV2);
    let Some(att) = attach_fleet(kind) else {
        return; // no fleet requested: the plain smoke already passed
    };
    let fleet = &att.fleet;
    let shards = fleet.shard_count();
    // The local replay must drive the same engine the servers host; the
    // composite name carries it as "{engine}/f{N}".
    let inner = fleet.name().split("/f").next().unwrap_or("").to_string();
    let Some(kind) = EngineKind::parse(&inner) else {
        eprintln!("[fig10] @fleet smoke: servers host unknown engine {inner:?}");
        std::process::exit(1);
    };
    let cfg = WorkloadConfig {
        mix: MixKind::WriteHeavy,
        threads: 4,
        ops_per_worker: config::var_u64("GM_WL_OPS", 300).min(3_000),
        seed: env.seed,
        op_timeout: env.timeout,
        record_cardinalities: true,
        ..WorkloadConfig::default()
    };
    let total_ops = cfg.threads as u64 * cfg.ops_per_worker;
    eprintln!(
        "[fig10] @fleet smoke: {} — write-heavy, {} workers × {} ops, replay equality \
         vs in-process {shards}-shard composite",
        fleet.name(),
        cfg.threads,
        cfg.ops_per_worker,
    );

    let fail = |why: String| -> ! {
        eprintln!("[fig10] @fleet smoke FAILED: {why}");
        std::process::exit(1);
    };
    let epoch_before = fleet
        .epoch()
        .unwrap_or_else(|e| fail(format!("epoch probe: {e}")));
    let trips_before = fleet.round_trips();
    let remote =
        run_fleet_sequential(fleet, data, &cfg).unwrap_or_else(|e| fail(format!("fleet run: {e}")));
    let window = fleet.round_trips() - trips_before;
    log_row(&remote);

    let factory = move || -> Box<dyn GraphDb> { kind.make() };
    let local = run_sharded_sequential(&factory, shards, data, &cfg)
        .unwrap_or_else(|e| fail(format!("local sharded replay: {e}")));
    if remote.cardinality_trace() != local.cardinality_trace() {
        fail(format!(
            "per-op results diverge from the in-process sharded replay \
             ({} vs {} recorded cardinalities)",
            remote.cardinality_trace().len(),
            local.cardinality_trace().len()
        ));
    }
    if remote.errors() > 0 {
        fail(format!("{} op errors", remote.errors()));
    }
    if fleet.routing_errors() > 0 {
        fail(format!("{} routing errors", fleet.routing_errors()));
    }
    // Setup traffic is deterministic, so re-running it isolates the run's
    // own frames from the measured window.
    let before_setup = fleet.round_trips();
    fleet
        .setup(data, &cfg)
        .unwrap_or_else(|e| fail(format!("setup re-measure: {e}")));
    let run_frames = window.saturating_sub(fleet.round_trips() - before_setup);
    if run_frames >= total_ops {
        fail(format!(
            "batched dispatch spent {run_frames} wire frames on {total_ops} ops — \
             pipelining is not engaging"
        ));
    }
    let epoch_after = fleet
        .epoch()
        .unwrap_or_else(|e| fail(format!("epoch probe: {e}")));
    if epoch_after < epoch_before {
        fail(format!(
            "fleet epoch went backwards ({epoch_before} → {epoch_after})"
        ));
    }
    eprintln!(
        "[fig10] @fleet smoke: replay equality holds over {total_ops} ops; \
         {run_frames} wire frames (< {total_ops} ops), {} batched, 0 routing errors, \
         epoch {epoch_before} → {epoch_after}",
        fleet.batched_ops(),
    );
    att.shutdown();
}
