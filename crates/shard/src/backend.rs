//! Workload-driver integration: drive a [`ShardedGraph`] with per-shard
//! locks instead of the engine-wide `RwLock`.
//!
//! [`ShardedBackend`] is a [`Backend`] whose sessions execute reads through
//! the composite's scatter-gather path and writes through [`SharedWriter`]
//! — so a write locks only the shard it lands on, and the driver's
//! lock-wait column measures per-partition queueing directly against the
//! single-lock baseline (`LocalBackend` over the same engine). Note the
//! isolation level that comes with the lock split: `LocalBackend` holds
//! one read guard across a whole query, while a sharded query re-acquires
//! shard locks per primitive — multi-primitive reads racing writers may
//! observe intermediate states (see `graph`'s module docs). Read-only
//! determinism is unaffected, which is what the equivalence suite checks.
//!
//! [`run_sharded`] / [`run_sharded_sequential`] mirror the driver's
//! `run` / `run_sequential` entry points: build the composite, bulk-load,
//! resolve parameters (all outside the measured region, §4.2), then drive
//! the standard `run_backend` machinery. For snapshot-mode sharding, pass a
//! [`crate::ShardedSource`] factory to the driver's existing
//! `run_snapshot` — the composite source is a plain `SnapshotSource`.

use std::time::Duration;

use gm_core::catalog;
use gm_core::params::{ResolvedParams, Workload};
use gm_model::api::{GraphDb, GraphSnapshot, LoadOptions};
use gm_model::{Dataset, Eid, GdbResult, QueryCtx};
use gm_obs::phase::{self, Phase};
use gm_workload::{
    apply_write, run_backend, run_backend_sequential, Backend, Op, OpResult, RunReport, Session,
    WorkloadConfig, WORKLOAD_SLOTS,
};

use crate::graph::{ShardedGraph, SharedWriter};

/// Isolation label reported by sharded-locked runs.
pub const SHARDED_LOCKED: &str = "sharded-locked";

/// Per-shard-locked backend over a loaded, parameter-resolved composite.
pub struct ShardedBackend<'a, E: GraphDb + 'static> {
    graph: &'a ShardedGraph<E>,
    params: &'a ResolvedParams,
    op_timeout: Duration,
}

impl<'a, E: GraphDb + 'static> ShardedBackend<'a, E> {
    /// Wrap a loaded composite with resolved parameters.
    pub fn new(
        graph: &'a ShardedGraph<E>,
        params: &'a ResolvedParams,
        op_timeout: Duration,
    ) -> Self {
        ShardedBackend {
            graph,
            params,
            op_timeout,
        }
    }
}

impl<E: GraphDb + 'static> Backend for ShardedBackend<'_, E> {
    fn engine(&self) -> String {
        self.graph.name()
    }

    fn isolation(&self) -> String {
        SHARDED_LOCKED.into()
    }

    fn open_session(&self, _worker: usize) -> GdbResult<Box<dyn Session + '_>> {
        Ok(Box::new(ShardedSession {
            graph: self.graph,
            params: self.params,
            op_timeout: self.op_timeout,
            owned_edges: Vec::new(),
        }))
    }
}

struct ShardedSession<'a, E: GraphDb + 'static> {
    graph: &'a ShardedGraph<E>,
    params: &'a ResolvedParams,
    op_timeout: Duration,
    owned_edges: Vec<Eid>,
}

impl<E: GraphDb + 'static> Session for ShardedSession<'_, E> {
    fn execute(&mut self, op: Op, worker: usize, op_index: u64) -> GdbResult<OpResult> {
        // Every shard/meta lock acquisition on this path reports through
        // the thread-local accumulator; this worker owns its thread.
        phase::reset(Phase::LockWait);
        match op {
            Op::Read(inst) => {
                let ctx = QueryCtx::with_timeout(self.op_timeout);
                catalog::execute_read(&inst, self.graph, self.params, &ctx)
                    .map(|card| OpResult::plain(card).with_lock_wait(phase::take(Phase::LockWait)))
            }
            Op::Write(wop) => {
                let mut writer = SharedWriter::new(self.graph);
                apply_write(
                    wop,
                    &mut writer,
                    self.params,
                    worker,
                    op_index,
                    &mut self.owned_edges,
                )
                .map(|card| OpResult::plain(card).with_lock_wait(phase::take(Phase::LockWait)))
            }
        }
    }
}

/// Load `data` into a fresh `shards`-way composite of engines from
/// `factory`, then run the configured workload concurrently against it
/// under **per-shard locks**.
pub fn run_sharded(
    factory: &dyn Fn() -> Box<dyn GraphDb>,
    shards: usize,
    data: &Dataset,
    cfg: &WorkloadConfig,
) -> GdbResult<RunReport> {
    let (graph, params) = prepare_sharded(factory, shards, data, cfg)?;
    let backend = ShardedBackend::new(&graph, &params, cfg.op_timeout);
    run_backend(&backend, &data.name, cfg)
}

/// Sequential (single-threaded, closed-loop) replay of [`run_sharded`]'s
/// op sequences — the reference a concurrent read-only sharded run must
/// reproduce exactly.
pub fn run_sharded_sequential(
    factory: &dyn Fn() -> Box<dyn GraphDb>,
    shards: usize,
    data: &Dataset,
    cfg: &WorkloadConfig,
) -> GdbResult<RunReport> {
    let (graph, params) = prepare_sharded(factory, shards, data, cfg)?;
    let backend = ShardedBackend::new(&graph, &params, cfg.op_timeout);
    run_backend_sequential(&backend, &data.name, cfg)
}

/// Build a loaded, parameter-resolved composite (outside the measured
/// region, as §4.2 prescribes).
pub fn prepare_sharded(
    factory: &dyn Fn() -> Box<dyn GraphDb>,
    shards: usize,
    data: &Dataset,
    cfg: &WorkloadConfig,
) -> GdbResult<(ShardedGraph<Box<dyn GraphDb>>, ResolvedParams)> {
    let mut graph = ShardedGraph::from_factory(shards, factory);
    graph.bulk_load(data, &LoadOptions::default())?;
    graph.sync()?;
    let workload = Workload::choose(data, cfg.seed, WORKLOAD_SLOTS);
    let params = workload.resolve(&graph)?;
    Ok((graph, params))
}
