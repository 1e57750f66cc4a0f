//! Snapshot-mode sharding: one [`SnapshotSource`] cell per shard.
//!
//! [`ShardedSource`] composes `N` independent snapshot cells (one `CowCell`
//! or `FreezeCell` per shard) behind the same [`SnapshotSource`] interface
//! the driver, the fig8/fig10 harnesses, and the gm-net server already
//! host. The properties that matter:
//!
//! * **Writers to different shards do not serialize.** Every mutation —
//!   autocommit (`with_write`) or staged (`txn_commit`) — goes through one
//!   routing handle, [`RoutingWriter`], whose single-shard writes enter only
//!   the target cell's writer mutex; there is no composite-wide writer lock.
//! * **Pins are consistent.** A composite pin takes one epoch view per
//!   cell plus a copy of the routing meta, all under a seqlock
//!   ([`ShardedSource::topo`]): multi-shard topology changes (ghost
//!   creation, vertex removal, bulk load, a whole transaction commit) hold
//!   the meta writer lock and flip the seqlock odd, so a pin that raced one
//!   **retries** instead of returning a torn view (an edge pointing at a
//!   ghost the meta cannot translate) — and every topology change
//!   **publishes the cells it mutated before releasing the seqlock**, so
//!   the new meta can never be paired with a staleness-bounded view from
//!   before the change. Independent single-shard writes may land between
//!   two cells' pins — the composite then shows a state in which some of
//!   those writes happened and others not yet, which is a legal
//!   interleaving of single-shard atomic writes, never a torn multi-shard
//!   operation.
//! * **Composite epochs are monotone.** The composite epoch is the minimum
//!   over the shard epochs (the newest version every shard has published);
//!   each cell's epochs are monotone, so the minimum is too.
//!
//! Autocommit and commit differ only in **who holds the topology guard**:
//! a commit holds it for its whole validate → replay → publish sequence and
//! lends the writer the guarded meta; an autocommit write takes a guard per
//! topology change. The ghost-creation, vertex-removal, edge-removal and
//! property bodies exist once.
//!
//! Canonical-id resolution maps are purged without the seqlock on plain
//! autocommit edge removals (resolution is setup-path machinery, run before
//! the measured region); the correctness-critical ghost maps only ever
//! change under the seqlock.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockWriteGuard};
use std::time::Duration;

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, LoadStats,
    SpaceReport, VertexData,
};
use gm_model::lockorder::{self, LockRank, LockToken};
use gm_model::{Dataset, Eid, GdbError, GdbResult, Props, QueryCtx, Value, Vid};
use gm_mvcc::{KeyRecorder, SnapshotSource, TxnKey, TxnLog};
use gm_obs::phase::{self, Phase};
use gm_obs::{Counter, Gauge};

use crate::route::{
    build_meta, decode_eid, decode_vid, encode_eid, encode_vid, partition, Meta, GHOST_LABEL,
};
use crate::view::ShardedView;

fn poisoned(what: &str) -> GdbError {
    GdbError::Poisoned(format!(
        "sharded source {what} lock poisoned by a panicking writer"
    ))
}

/// How one shard cell is pinned (strict `snapshot` or `snapshot_recent`).
type PinFn<'a> = dyn Fn(&dyn SnapshotSource) -> GdbResult<Box<dyn GraphSnapshot>> + 'a;

/// Registry handles for one composite, resolved at construction and `None`
/// under `GM_OBS=off`. The per-shard op counters (`shard.{i}.ops`) count
/// writes routed to each partition — the balance figure the server's
/// periodic stats line reports; composites of the same shard count share
/// names and aggregate.
pub(crate) struct ShardMetrics {
    pub(crate) shard_ops: Vec<Counter>,
    pub(crate) pins: Counter,
    /// Composite pins that had to retry (or wait out) a topology change.
    pub(crate) seqlock_retries: Counter,
    pub(crate) ghost_creations: Counter,
    /// Depth of the deferred resolution-map purge queue (locked composite
    /// only; snapshot composites purge eagerly under their topology guard).
    pub(crate) pending_purges: Gauge,
}

impl ShardMetrics {
    pub(crate) fn new(shards: usize) -> Option<ShardMetrics> {
        if !gm_obs::counters_on() {
            return None;
        }
        let g = gm_obs::global();
        Some(ShardMetrics {
            shard_ops: (0..shards)
                .map(|i| g.counter(&format!("shard.{i}.ops")))
                .collect(),
            pins: g.counter("shard.pins"),
            seqlock_retries: g.counter("shard.seqlock_retries"),
            ghost_creations: g.counter("shard.ghost_creations"),
            pending_purges: g.gauge("shard.pending_purges"),
        })
    }

    pub(crate) fn note_op(&self, s: usize) {
        self.shard_ops[s].inc();
    }
}

/// `N` snapshot cells + routing meta behind one [`SnapshotSource`].
pub struct ShardedSource {
    name: String,
    kind: &'static str,
    cells: Vec<Box<dyn SnapshotSource>>,
    meta: RwLock<Meta>,
    /// Seqlock word: odd while a multi-shard topology change is in flight.
    /// Only the holder of the `meta` writer lock flips it, so odd/even
    /// transitions are serialized.
    topo: AtomicU64,
    /// Round-robin placement counter for dynamically added vertices.
    spread: AtomicU64,
    metrics: Option<ShardMetrics>,
    /// Commit log for txn conflict detection, in **composite** id space
    /// (the per-cell logs record shard-local ids and are unused here).
    txn_log: TxnLog,
}

impl ShardedSource {
    /// Compose `shards` fresh cells from `make`.
    ///
    /// Panics if `shards == 0`.
    pub fn from_factory(shards: usize, make: impl Fn() -> Box<dyn SnapshotSource>) -> Self {
        assert!(shards >= 1, "a sharded source needs at least one shard");
        let cells: Vec<Box<dyn SnapshotSource>> = (0..shards).map(|_| make()).collect();
        let kind = match cells[0].kind() {
            "cow" => "sharded-cow",
            "native" => "sharded-native",
            _ => "sharded",
        };
        ShardedSource {
            name: format!("{}/s{shards}", cells[0].engine()),
            kind,
            cells,
            meta: RwLock::new(Meta::new(shards)),
            topo: AtomicU64::new(0),
            spread: AtomicU64::new(0),
            metrics: ShardMetrics::new(shards),
            txn_log: TxnLog::new(),
        }
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Pin a composite view, retrying while a topology change is in flight
    /// (see the module docs for the consistency argument).
    fn pin_view(&self, pin: &PinFn<'_>) -> GdbResult<ShardedView> {
        loop {
            let before = self.topo.load(Ordering::SeqCst);
            if before % 2 == 1 {
                // A topology change is in flight; its holder owns the meta
                // writer lock, so parking on the reader side sleeps until
                // it finishes instead of burning a core (a bulk load can
                // hold the seqlock odd for seconds).
                if let Some(m) = &self.metrics {
                    m.seqlock_retries.inc();
                }
                {
                    // gm-lock: meta transient
                    let _t = lockorder::acquire(LockRank::Meta, "gm-shard/source.rs seqlock park");
                    drop(self.meta.read().map_err(|_| poisoned("meta read"))?);
                }
                std::thread::yield_now();
                continue;
            }
            let mut shards = Vec::with_capacity(self.cells.len());
            for cell in &self.cells {
                shards.push(pin(cell.as_ref())?);
            }
            let meta = {
                // gm-lock: meta
                let _t = lockorder::acquire(LockRank::Meta, "gm-shard/source.rs pin meta clone");
                phase::timed(Phase::LockWait, || self.meta.read())
                    .map_err(|_| poisoned("meta read"))?
                    .clone()
            };
            if self.topo.load(Ordering::SeqCst) == before {
                let epoch = shards.iter().map(|s| s.epoch()).min().unwrap_or(0);
                if let Some(m) = &self.metrics {
                    m.pins.inc();
                }
                return Ok(ShardedView {
                    name: self.name.clone(),
                    shards,
                    meta,
                    epoch,
                });
            }
            // A topology change landed mid-pin: re-pin against the new
            // state (each retry re-pins, so epochs only move forward).
            if let Some(m) = &self.metrics {
                m.seqlock_retries.inc();
            }
        }
    }

    /// Force-publish a cell's pending writes (a strict pin publishes; the
    /// returned view is discarded). Every topology change publishes the
    /// cells it mutated **before its guard releases the seqlock**:
    /// otherwise a later `snapshot_recent` pin could pair the new meta
    /// with a shard view from before the change (the cell write would sit
    /// unpublished for up to the staleness bound) — e.g. a ghost entry
    /// whose vertex the pinned view does not contain yet, turning a read
    /// of an existing vertex into `VertexNotFound`. Publishing inside the
    /// guard makes meta and shard state visible together.
    fn publish_cell(&self, s: usize) -> GdbResult<()> {
        self.cells[s].snapshot().map(|_| ())
    }

    /// Publish every cell in `touched` (see [`ShardedSource::publish_cell`]);
    /// callers run this while their topology guard is still held.
    fn publish_cells(&self, touched: &BTreeSet<usize>) -> GdbResult<()> {
        for &s in touched {
            self.publish_cell(s)?;
        }
        Ok(())
    }

    /// Begin a multi-shard topology change: meta writer lock + seqlock odd.
    /// The guard flips the seqlock back even on drop — panic included, so a
    /// failing topology write can never wedge every future pin.
    fn topo_write(&self) -> GdbResult<TopoGuard<'_>> {
        // gm-lock: meta
        let token = lockorder::acquire(LockRank::Meta, "gm-shard/source.rs topology write");
        let meta = phase::timed(Phase::LockWait, || self.meta.write())
            .map_err(|_| poisoned("meta write"))?;
        self.topo.fetch_add(1, Ordering::SeqCst);
        Ok(TopoGuard {
            meta,
            topo: &self.topo,
            _token: token,
        })
    }
}

/// Holder of an in-flight topology change (see [`ShardedSource::topo_write`]).
struct TopoGuard<'a> {
    meta: RwLockWriteGuard<'a, Meta>,
    topo: &'a AtomicU64,
    /// Rank-stack entry for the meta writer lock; released with the guard.
    _token: LockToken,
}

impl Drop for TopoGuard<'_> {
    fn drop(&mut self) {
        self.topo.fetch_add(1, Ordering::SeqCst);
    }
}

impl SnapshotSource for ShardedSource {
    fn engine(&self) -> String {
        self.name.clone()
    }

    fn kind(&self) -> &'static str {
        self.kind
    }

    fn current_epoch(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.current_epoch())
            .min()
            .unwrap_or(0)
    }

    fn snapshot(&self) -> GdbResult<Box<dyn GraphSnapshot>> {
        Ok(Box::new(self.pin_view(&|c| c.snapshot())?))
    }

    fn snapshot_recent(&self, max_staleness: Duration) -> GdbResult<Box<dyn GraphSnapshot>> {
        Ok(Box::new(
            self.pin_view(&|c| c.snapshot_recent(max_staleness))?,
        ))
    }

    fn with_write(&self, f: &mut gm_mvcc::WriteFn<'_>) -> GdbResult<u64> {
        // No guard and no composite-wide lock here: single-shard mutations
        // enter only the cells they touch, and each topology change takes
        // its own guard. The recorder derives composite-id write-set keys
        // for txn conflict detection, appended on success.
        let mut writer = RoutingWriter::new(self, None);
        let mut rec = KeyRecorder::new(&mut writer);
        let out = f(&mut rec);
        if out.is_ok() {
            self.txn_log.append(rec.take_keys());
        }
        out
    }

    fn txn_log(&self) -> Option<&TxnLog> {
        Some(&self.txn_log)
    }

    /// Cross-shard staged commit: the whole validate → replay → publish
    /// sequence runs under one topology guard (meta writer lock + seqlock
    /// odd), so composite pins park for its duration and the first
    /// unparked pin observes either **all** of the write set (every
    /// mutated cell is published before the seqlock flips even) or none
    /// of it (a conflict aborts before any mutation). Transaction commits
    /// serialize on the meta writer lock, so validation cannot race
    /// another commit's log append. The composite epoch bump is one
    /// event: every touched cell's epoch advances inside the guard.
    fn txn_commit(
        &self,
        start_seq: u64,
        keys: &[TxnKey],
        f: &mut gm_mvcc::WriteFn<'_>,
    ) -> GdbResult<u64> {
        let mut guard = self.topo_write()?;
        self.txn_log.validate(start_seq, keys)?;
        let mut writer = RoutingWriter::new(self, Some(&mut guard.meta));
        let out = f(&mut writer);
        // Publish every mutated cell before the guard releases the seqlock
        // (see `publish_cell`) — after a failed replay too, whose partial
        // writes stay applied: parked pins must never pair the new meta
        // with a pre-commit cell view.
        self.publish_cells(&writer.touched)?;
        let out = out?;
        self.txn_log.append(keys.to_vec());
        drop(guard);
        Ok(out)
    }
}

/// One-cell write helper: run `f` against shard `s`'s live engine and map
/// its return value out.
fn cell_write<R>(
    cell: &dyn SnapshotSource,
    f: impl FnOnce(&mut dyn GraphDb) -> GdbResult<R>,
) -> GdbResult<R> {
    let mut once = Some(f);
    let mut out = None;
    cell.with_write(&mut |db| {
        let f = once.take().expect("cell write closure runs once");
        out = Some(f(db)?);
        Ok(0)
    })?;
    Ok(out.expect("cell write closure ran"))
}

/// The one routing mutation handle of a [`ShardedSource`], behind both
/// [`SnapshotSource::with_write`] (autocommit) and
/// [`SnapshotSource::txn_commit`] (staged replay). The two entry points run
/// the same bodies and differ only in **who holds the topology guard**:
///
/// * `txn_commit` holds it for the whole replay and lends the writer its
///   `&mut Meta` (`held`). Topology changes mutate that meta directly —
///   re-entering `topo_write` would deadlock on the non-reentrant meta
///   lock — and the commit publishes every touched cell before it releases
///   the guard. Structural setup operations (`bulk_load`,
///   `create_vertex_index`) are refused there: they would bypass the
///   buffered write set.
/// * `with_write` holds none: each topology change (ghost creation, vertex
///   removal, bulk load) takes its own guard in
///   [`RoutingWriter::topology`], runs the body, and publishes the cells
///   the body touched before releasing it.
///
/// Cut edges follow one rule: **ghost first, validate only on creation**.
/// An existing ghost proves the remote endpoint exists, because ghosts are
/// created only after a strict pin of the owner cell has seen the vertex,
/// and `remove_vertex` deletes a vertex's ghosts under the same topology
/// guard that removes the vertex. So the steady-state cut edge pays one
/// meta lookup and no cross-shard pin; the first one pays one strict pin
/// of the owner cell (cell level, never `pin_view`, which would park on a
/// held guard's own odd seqlock; the pin also publishes a vertex created
/// earlier in the same commit).
///
/// The handle is also a full [`GraphSnapshot`]: reads build a strict
/// composite view per call (the write paths themselves never read, but
/// `GraphDb` requires the surface — e.g. the net server resolves
/// parameters through it).
struct RoutingWriter<'a, 'm> {
    src: &'a ShardedSource,
    /// The guarded meta of the caller's topology guard (commit), or `None`
    /// (autocommit: topology changes take their own guard).
    held: Option<&'m mut Meta>,
    /// Cells mutated under the current guard: the commit's whole replay,
    /// or one autocommit topology change (cleared when its guard is taken;
    /// autocommit writes outside a guard land here unread).
    touched: BTreeSet<usize>,
}

impl<'a, 'm> RoutingWriter<'a, 'm> {
    fn new(src: &'a ShardedSource, held: Option<&'m mut Meta>) -> Self {
        RoutingWriter {
            src,
            held,
            touched: BTreeSet::new(),
        }
    }

    fn n(&self) -> usize {
        self.src.shard_count()
    }

    /// Count a write routed to shard `s` (no-op under `GM_OBS=off`).
    fn note_op(&self, s: usize) {
        if let Some(m) = &self.src.metrics {
            m.note_op(s);
        }
    }

    /// Run `f` against shard `s`'s live engine and record `s` as touched.
    fn write<R>(
        &mut self,
        s: usize,
        f: impl FnOnce(&mut dyn GraphDb) -> GdbResult<R>,
    ) -> GdbResult<R> {
        let out = cell_write(self.src.cells[s].as_ref(), f)?;
        self.touched.insert(s);
        Ok(out)
    }

    /// Refuse a structural operation inside a staged commit.
    fn outside_commit(&self, what: &str) -> GdbResult<()> {
        match self.held {
            Some(_) => Err(GdbError::Unsupported(format!(
                "{what} inside a transaction commit"
            ))),
            None => Ok(()),
        }
    }

    /// Run a topology change under the topology guard: the held one inside
    /// a commit, else a fresh guard that publishes the cells `body` touched
    /// before it releases the seqlock (on failure too — the cell writes
    /// that landed stay applied). `body` must reach cells through
    /// [`RoutingWriter::write`] or strict cell pins and meta through its
    /// argument — never through `view`, which would park on the odd
    /// seqlock.
    fn topology<R>(
        &mut self,
        body: impl FnOnce(&mut Self, &mut Meta) -> GdbResult<R>,
    ) -> GdbResult<R> {
        if let Some(meta) = self.held.take() {
            let out = body(self, meta);
            self.held = Some(meta);
            return out;
        }
        let src = self.src;
        let mut guard = src.topo_write()?;
        self.touched.clear();
        let out = body(self, &mut guard.meta);
        src.publish_cells(&self.touched)?;
        drop(guard);
        out
    }

    /// Shard `s`'s ghost of the remote vertex `dst`, created on first use
    /// (ghost first, validate only on creation — see the type docs).
    fn ghost(&mut self, s: usize, dst: Vid) -> GdbResult<Vid> {
        if self.held.is_none() {
            // Autocommit fast path: a known ghost needs no topology guard.
            let known = {
                // gm-lock: meta
                let _t = lockorder::acquire(LockRank::Meta, "gm-shard/source.rs ghost lookup");
                let meta = phase::timed(Phase::LockWait, || self.src.meta.read())
                    .map_err(|_| poisoned("meta read"))?;
                meta.ghosts[s].get(&dst.0).copied()
            };
            if let Some(ghost) = known {
                return Ok(ghost);
            }
        }
        // Ghost creation is a topology change: the ghost vertex and its
        // meta entry must become visible atomically, or a pin could see an
        // edge it cannot translate.
        self.topology(|w, meta| {
            if let Some(ghost) = meta.ghosts[s].get(&dst.0).copied() {
                return Ok(ghost); // the commit's lookup, or a racing writer's ghost
            }
            let (local_dst, dst_shard) = decode_vid(dst, w.n());
            if w.src.cells[dst_shard]
                .snapshot()?
                .vertex(local_dst)?
                .is_none()
            {
                return Err(GdbError::VertexNotFound(dst.0));
            }
            let ghost = w.write(s, |db| db.add_vertex(GHOST_LABEL, &Vec::new()))?;
            meta.ghosts[s].insert(dst.0, ghost);
            meta.rev[s].insert(ghost.0, dst.0);
            if let Some(m) = &w.src.metrics {
                m.ghost_creations.inc();
            }
            Ok(ghost)
        })
    }

    /// A strict composite view for reads through the handle. Under a held
    /// guard it is built from strict cell pins plus a clone of the held
    /// meta — **not** [`ShardedSource::pin_view`], which would park forever
    /// on the guard's own odd seqlock.
    fn view(&self) -> GdbResult<ShardedView> {
        let Some(meta) = self.held.as_deref() else {
            return self.src.pin_view(&|c| c.snapshot());
        };
        let shards: Vec<Box<dyn GraphSnapshot>> = self
            .src
            .cells
            .iter()
            .map(|c| c.snapshot())
            .collect::<GdbResult<_>>()?;
        let epoch = shards.iter().map(|s| s.epoch()).min().unwrap_or(0);
        Ok(ShardedView {
            name: self.src.name.clone(),
            shards,
            meta: meta.clone(),
            epoch,
        })
    }
}

impl GraphSnapshot for RoutingWriter<'_, '_> {
    fn name(&self) -> String {
        self.src.name.clone()
    }

    fn epoch(&self) -> u64 {
        // Reads through the writer handle pin a fresh strict view per call,
        // so the epoch they observe is the composite's current one — not
        // the trait's "unversioned" 0 default.
        self.src.current_epoch()
    }

    fn features(&self) -> EngineFeatures {
        self.view()
            .map(|v| v.features())
            .unwrap_or_else(|_| EngineFeatures {
                name: self.src.name.clone(),
                system_type: "Sharded composite".into(),
                storage: "unavailable".into(),
                edge_traversal: "scatter-gather".into(),
                optimized_adapter: false,
                async_writes: false,
                attribute_indexes: false,
            })
    }

    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        self.view().ok()?.resolve_vertex(canonical)
    }

    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        self.view().ok()?.resolve_edge(canonical)
    }

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.view()?.vertex_count(ctx)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.view()?.edge_count(ctx)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.view()?.edge_label_set(ctx)
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        self.view()?.vertices_with_property(name, value, ctx)
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        self.view()?.edges_with_property(name, value, ctx)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        self.view()?.edges_with_label(label, ctx)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        self.view()?.vertex(v)
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        self.view()?.edge(e)
    }

    fn neighbors(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        self.view()?.neighbors(v, dir, label, ctx)
    }

    fn vertex_edges(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<EdgeRef>> {
        self.view()?.vertex_edges(v, dir, label, ctx)
    }

    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        self.view()?.vertex_degree(v, dir, ctx)
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.view()?.vertex_edge_labels(v, dir, ctx)
    }

    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        // One pinned view for the whole filter: the default decomposition
        // would pin a fresh composite view per `vertex_degree` probe.
        self.view()?.degree_scan(dir, k, ctx)
    }

    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.view()?.distinct_neighbor_scan(dir, ctx)
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        let items: Vec<_> = self.view()?.scan_vertices(ctx)?.collect();
        Ok(Box::new(items.into_iter()))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        let items: Vec<_> = self.view()?.scan_edges(ctx)?.collect();
        Ok(Box::new(items.into_iter()))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.view()?.vertex_property(v, name)
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.view()?.edge_property(e, name)
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        self.view()?.edge_endpoints(e)
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        self.view()?.edge_label(e)
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        self.view()?.vertex_label(v)
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.view()
            .map(|v| v.has_vertex_index(prop))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        self.view().map(|v| v.space()).unwrap_or_default()
    }
}

impl GraphDb for RoutingWriter<'_, '_> {
    fn bulk_load(&mut self, data: &Dataset, opts: &LoadOptions) -> GdbResult<LoadStats> {
        self.outside_commit("bulk load")?;
        let n = self.n();
        self.topology(|w, meta| {
            let parts = partition(data, n)?;
            for (s, sub) in parts.subs.iter().enumerate() {
                cell_write(w.src.cells[s].as_ref(), |db| db.bulk_load(sub, opts))?;
            }
            // Strict pins publish the freshly loaded state so the canonical
            // ids resolve; composite pins are excluded by the seqlock
            // meanwhile.
            let views: Vec<Box<dyn GraphSnapshot>> = w
                .src
                .cells
                .iter()
                .map(|c| c.snapshot())
                .collect::<GdbResult<_>>()?;
            let refs: Vec<&dyn GraphSnapshot> = views.iter().map(|v| v.as_ref()).collect();
            *meta = build_meta(&parts, &refs)?;
            Ok(LoadStats {
                vertices: data.vertex_count() as u64,
                edges: data.edge_count() as u64,
            })
        })
    }

    fn add_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let n = self.n();
        // gm-check: relaxed(round-robin placement counter: any interleaving is a valid placement)
        let s = (self.src.spread.fetch_add(1, Ordering::Relaxed) % n as u64) as usize;
        self.note_op(s);
        let local = self.write(s, |db| db.add_vertex(label, props))?;
        Ok(encode_vid(local, s, n))
    }

    fn add_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        let n = self.n();
        let (local_src, s) = decode_vid(src, n);
        self.note_op(s);
        let (local_dst_owner, dst_shard) = decode_vid(dst, n);
        let local_dst = if dst_shard == s {
            local_dst_owner
        } else {
            self.ghost(s, dst)?
        };
        let local = self.write(s, |db| db.add_edge(local_src, local_dst, label, props))?;
        Ok(encode_eid(local, s, n))
    }

    fn set_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        let (local, owner) = decode_vid(v, self.n());
        self.note_op(owner);
        self.write(owner, |db| db.set_vertex_property(local, name, value))
    }

    fn set_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        let (local, s) = decode_eid(e, self.n());
        self.note_op(s);
        self.write(s, |db| db.set_edge_property(local, name, value))
    }

    fn remove_vertex(&mut self, v: Vid) -> GdbResult<()> {
        let n = self.n();
        let (local, owner) = decode_vid(v, n);
        self.note_op(owner);
        // Whole-vertex removal spans shards: a topology change.
        self.topology(|w, meta| {
            // Incident edges (for resolution-map purging), gathered from
            // strict per-cell pins before anything is removed.
            let ctx = QueryCtx::unbounded();
            let mut dead_edges: Vec<Eid> = Vec::new();
            for s in 0..n {
                let present = if s == owner {
                    Some(local)
                } else {
                    meta.ghosts[s].get(&v.0).copied()
                };
                if let Some(lv) = present {
                    let snap = w.src.cells[s].snapshot()?;
                    if snap.vertex(lv)?.is_some() {
                        for r in snap.vertex_edges(lv, Direction::Both, None, &ctx)? {
                            dead_edges.push(encode_eid(r.eid, s, n));
                        }
                    }
                }
            }
            w.write(owner, |db| db.remove_vertex(local))?;
            for s in (0..n).filter(|&s| s != owner) {
                if let Some(ghost) = meta.ghosts[s].remove(&v.0) {
                    meta.rev[s].remove(&ghost.0);
                    w.write(s, |db| db.remove_vertex(ghost))?;
                }
            }
            for e in dead_edges {
                meta.purge_edge(e);
            }
            meta.purge_vertex(v);
            Ok(())
        })
    }

    fn remove_edge(&mut self, e: Eid) -> GdbResult<()> {
        let (local, s) = decode_eid(e, self.n());
        self.note_op(s);
        self.write(s, |db| db.remove_edge(local))?;
        match self.held.as_deref_mut() {
            Some(meta) => meta.purge_edge(e),
            None => {
                // Autocommit purges the resolution maps without the
                // seqlock: a pin may briefly keep resolving the dead
                // canonical id (and find the edge gone) — the same answer
                // an unsharded engine racing the removal gives.
                // gm-lock: meta
                let _t = lockorder::acquire(LockRank::Meta, "gm-shard/source.rs purge meta write");
                phase::timed(Phase::LockWait, || self.src.meta.write())
                    .map_err(|_| poisoned("meta write"))?
                    .purge_edge(e);
            }
        }
        Ok(())
    }

    fn remove_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let (local, owner) = decode_vid(v, self.n());
        self.note_op(owner);
        self.write(owner, |db| db.remove_vertex_property(local, name))
    }

    fn remove_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let (local, s) = decode_eid(e, self.n());
        self.note_op(s);
        self.write(s, |db| db.remove_edge_property(local, name))
    }

    fn create_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        self.outside_commit("create_vertex_index")?;
        for s in 0..self.n() {
            self.write(s, |db| db.create_vertex_index(prop))?;
        }
        Ok(())
    }

    fn sync(&mut self) -> GdbResult<()> {
        for s in 0..self.n() {
            self.write(s, |db| db.sync())?;
        }
        Ok(())
    }
}
