//! The locked-mode composite: per-shard `RwLock`s instead of one engine-wide
//! lock.
//!
//! [`ShardedGraph<E>`] implements [`GraphSnapshot`] and [`GraphDb`], so it
//! drops unchanged into `catalog::execute_read`, the sequential `Runner`,
//! the workload backends, and `gm-net` hosting. The interesting part is the
//! locking discipline — **ops lock only the shards they touch**:
//!
//! * point reads (`vertex`, properties, `out()`-direction work) take one
//!   shard's read guard; `in()`/`both()` gathers take the vertex's
//!   presence set (owner + ghosting shards, typically 1–2); whole-graph
//!   scans and counts take every read guard and therefore still observe
//!   one consistent cross-shard state;
//! * single-shard writes (add vertex/edge, property ops, edge removal)
//!   take only the owning shard's write guard — two writers landing on
//!   different shards run in parallel, which is the whole point;
//! * multi-shard writes (vertex removal, bulk load, index builds) take
//!   every write guard in ascending order.
//!
//! A multi-shard read locks its shard set *simultaneously*, so each
//! **primitive** is atomic with respect to every write; two reads touching
//! disjoint shard sets may observe independent single-shard writes in
//! either order. Isolation is therefore **per primitive**: a query
//! composed of several primitives (BFS, degree filters) re-acquires locks
//! between steps and may observe concurrent writes in between — unlike the
//! engine-wide `RwLock`, whose guard a session holds across the whole
//! query. That weakening is the standard consistency of a partitioned
//! store without a global clock, and it is part of what the fig10
//! comparison measures; read-only equivalence (no writers) is unaffected.
//!
//! Deadlock freedom: the global acquisition order is **meta, then shard
//! guards in ascending index order**; no path acquires the meta lock while
//! holding a shard guard. Every acquisition is timed as a
//! [`gm_obs::Phase::LockWait`] span, so the workload driver's lock-wait
//! column decomposes per-partition waiting against the single-lock
//! baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, LoadStats,
    SharedGraph, SpaceReport, VertexData,
};
use gm_model::lockorder::{self, LockRank, Ranked};
use gm_model::{Dataset, Eid, GdbError, GdbResult, Props, QueryCtx, Value, Vid};
use gm_obs::phase::{self, Phase};

use crate::route::{
    build_meta, decode_eid, decode_vid, encode_eid, encode_vid, partition, Meta, GHOST_LABEL,
};
use crate::source::ShardMetrics;
use crate::view::Parts;

fn poisoned(what: &str) -> GdbError {
    GdbError::Poisoned(format!(
        "sharded graph {what} lock poisoned by a panicking writer"
    ))
}

/// Purge-queue depth at which an edge removal eagerly drains instead of
/// deferring further. Removal-heavy mixes that never resolve canonicals
/// (and never create ghosts) would otherwise grow the queue without bound;
/// one meta write per `PURGE_DRAIN_THRESHOLD` removals amortizes to noise.
const PURGE_DRAIN_THRESHOLD: usize = 1024;

/// Which shard read guards an op needs.
enum ShardSel {
    One(usize),
    Some(Vec<usize>),
    All,
}

/// Hash-partitioned composite over `N` inner engines, each behind its own
/// lock. See the module docs for the locking discipline and `route` for the
/// partitioning scheme.
pub struct ShardedGraph<E: GraphDb + 'static> {
    name: String,
    shards: Vec<RwLock<E>>,
    meta: RwLock<Meta>,
    /// Round-robin placement counter for dynamically added vertices.
    spread: AtomicU64,
    /// Composite edge ids removed but not yet purged from the canonical
    /// resolution maps. Purging eagerly would take the meta **write** lock
    /// on every edge removal — a global serializer on a hot write path —
    /// so removals append here (a nanosecond push under an uncontended
    /// mutex) and the queue drains whenever the meta writer lock is held
    /// anyway, and before any canonical resolution (the setup-path reader
    /// of those maps).
    pending_purges: Mutex<Vec<Eid>>,
    metrics: Option<ShardMetrics>,
}

impl<E: GraphDb + 'static> ShardedGraph<E> {
    /// Build a composite of `shards` fresh engines from `make`.
    ///
    /// Panics if `shards == 0`.
    pub fn from_factory(shards: usize, make: impl Fn() -> E) -> Self {
        assert!(shards >= 1, "a sharded graph needs at least one shard");
        let engines: Vec<RwLock<E>> = (0..shards).map(|_| RwLock::new(make())).collect();
        let inner_name = engines[0].read().expect("fresh lock").name();
        ShardedGraph {
            name: format!("{inner_name}/s{shards}"),
            shards: engines,
            meta: RwLock::new(Meta::new(shards)),
            spread: AtomicU64::new(0),
            pending_purges: Mutex::new(Vec::new()),
            metrics: ShardMetrics::new(shards),
        }
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    // ----- lock plumbing --------------------------------------------------

    fn rlock(&self, s: usize) -> GdbResult<Ranked<RwLockReadGuard<'_, E>>> {
        if let Some(m) = &self.metrics {
            m.note_op(s);
        }
        // gm-lock: shard
        let t = lockorder::acquire(LockRank::Shard(s as u32), "gm-shard/graph.rs shard read");
        phase::timed(Phase::LockWait, || self.shards[s].read())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("shard read"))
    }

    fn wlock(&self, s: usize) -> GdbResult<Ranked<RwLockWriteGuard<'_, E>>> {
        if let Some(m) = &self.metrics {
            m.note_op(s);
        }
        // gm-lock: shard
        let t = lockorder::acquire(LockRank::Shard(s as u32), "gm-shard/graph.rs shard write");
        phase::timed(Phase::LockWait, || self.shards[s].write())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("shard write"))
    }

    fn wlock_all(&self) -> GdbResult<Vec<Ranked<RwLockWriteGuard<'_, E>>>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, l)| {
                // gm-lock: shard
                let t = lockorder::acquire(
                    LockRank::Shard(s as u32),
                    "gm-shard/graph.rs all-shards write",
                );
                phase::timed(Phase::LockWait, || l.write())
                    .map(|g| Ranked::new(g, t))
                    .map_err(|_| poisoned("shard write"))
            })
            .collect()
    }

    fn meta_read(&self) -> GdbResult<Ranked<RwLockReadGuard<'_, Meta>>> {
        // gm-lock: meta
        let t = lockorder::acquire(LockRank::Meta, "gm-shard/graph.rs meta read");
        phase::timed(Phase::LockWait, || self.meta.read())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("meta read"))
    }

    fn meta_write(&self) -> GdbResult<Ranked<RwLockWriteGuard<'_, Meta>>> {
        // gm-lock: meta
        let t = lockorder::acquire(LockRank::Meta, "gm-shard/graph.rs meta write");
        phase::timed(Phase::LockWait, || self.meta.write())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("meta write"))
    }

    /// The purge queue's mutex, rank-tracked. Innermost (leaf) rank: it is
    /// taken either with nothing else held (the deferred-push and probe
    /// paths) or inside the full meta + shard guard set (vertex removal).
    fn purge_lock(
        &self,
        site: &'static str,
    ) -> GdbResult<Ranked<std::sync::MutexGuard<'_, Vec<Eid>>>> {
        // gm-lock: leaf
        let t = lockorder::acquire(LockRank::Leaf, site);
        self.pending_purges
            .lock()
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("purge queue"))
    }

    /// Apply deferred resolution-map purges. Cheap when the queue is empty
    /// (one uncontended mutex probe); callers that already hold the meta
    /// writer guard pass it in, everyone else lets this acquire one only
    /// when there is work.
    fn drain_purges(&self, held: Option<&mut Meta>) -> GdbResult<()> {
        // gm-lock: leaf transient
        let mut pending = self.purge_lock("gm-shard/graph.rs purge queue probe")?;
        if pending.is_empty() {
            return Ok(());
        }
        match held {
            Some(meta) => {
                for e in pending.drain(..) {
                    meta.purge_edge(e);
                }
            }
            None => {
                drop(pending); // meta before the queue: re-take in order
                               // gm-lock: meta
                let mut meta = self.meta_write()?;
                // gm-lock: leaf
                let mut pending = self.purge_lock("gm-shard/graph.rs purge queue drain")?;
                for e in pending.drain(..) {
                    meta.purge_edge(e);
                }
            }
        }
        self.note_pending(0);
        Ok(())
    }

    /// Publish the purge-queue depth to the `shard.pending_purges` gauge.
    fn note_pending(&self, len: usize) {
        if let Some(m) = &self.metrics {
            m.pending_purges.set(len as i64);
        }
    }

    /// Current depth of the deferred purge queue (diagnostics and tests;
    /// the `shard.pending_purges` gauge mirrors this under `GM_OBS`).
    pub fn pending_purge_depth(&self) -> usize {
        self.purge_lock("gm-shard/graph.rs purge queue depth")
            .map(|g| g.len())
            .unwrap_or(0)
    }

    /// Run a read holding exactly the shards `select` names (meta guard
    /// first, then the selected shard read guards ascending). A multi-shard
    /// selection is held simultaneously, so the read is atomic with respect
    /// to every write touching those shards.
    fn with_locked<R>(
        &self,
        select: impl FnOnce(&Meta) -> ShardSel,
        f: impl FnOnce(&Parts<'_>) -> R,
    ) -> GdbResult<R> {
        // gm-lock: meta
        let meta = self.meta_read()?;
        let mut refs: Vec<Option<&dyn GraphSnapshot>> = vec![None; self.shards.len()];
        let mut guards: Vec<(usize, Ranked<RwLockReadGuard<'_, E>>)> = Vec::new();
        // gm-lock: shard
        match select(&meta) {
            ShardSel::One(s) => guards.push((s, self.rlock(s)?)),
            ShardSel::Some(mut which) => {
                which.sort_unstable();
                which.dedup();
                for s in which {
                    guards.push((s, self.rlock(s)?));
                }
            }
            ShardSel::All => {
                for s in 0..self.shards.len() {
                    guards.push((s, self.rlock(s)?));
                }
            }
        }
        for (s, g) in &guards {
            refs[*s] = Some(&**g as _);
        }
        Ok(f(&Parts {
            name: &self.name,
            shards: &refs,
            meta: &meta,
        }))
    }

    /// Shorthand: every shard (scans, counts, whole-graph filters).
    fn with_all<R>(&self, f: impl FnOnce(&Parts<'_>) -> R) -> GdbResult<R> {
        self.with_locked(|_| ShardSel::All, f)
    }

    /// Shorthand: the single shard a vertex- or edge-routed op touches.
    fn with_one<R>(&self, s: usize, f: impl FnOnce(&Parts<'_>) -> R) -> GdbResult<R> {
        self.with_locked(|_| ShardSel::One(s), f)
    }

    /// Shorthand: the presence set of `v` (owner + ghosting shards) — what
    /// `in()`/`both()` gathers touch.
    fn with_presence<R>(&self, v: Vid, f: impl FnOnce(&Parts<'_>) -> R) -> GdbResult<R> {
        let n = self.shard_count();
        self.with_locked(
            |meta| {
                let (_, owner) = decode_vid(v, n);
                let mut which = vec![owner];
                for (s, ghosts) in meta.ghosts.iter().enumerate() {
                    if s != owner && ghosts.contains_key(&v.0) {
                        which.push(s);
                    }
                }
                ShardSel::Some(which)
            },
            f,
        )
    }

    // ----- shared-reference write path ------------------------------------
    //
    // Every mutation is implemented against `&self` with per-shard locking;
    // the `&mut self` trait methods below delegate here, and `SharedWriter`
    // exposes the same path to concurrent writers.

    pub(crate) fn sh_add_vertex(&self, label: &str, props: &Props) -> GdbResult<Vid> {
        let n = self.shard_count();
        // gm-check: relaxed(round-robin placement counter: any interleaving is a valid placement)
        let s = (self.spread.fetch_add(1, Ordering::Relaxed) % n as u64) as usize;
        // gm-lock: shard
        let mut g = self.wlock(s)?;
        let local = g.add_vertex(label, props)?;
        Ok(encode_vid(local, s, n))
    }

    pub(crate) fn sh_add_edge(
        &self,
        src: Vid,
        dst: Vid,
        label: &str,
        props: &Props,
    ) -> GdbResult<Eid> {
        let n = self.shard_count();
        let (local_src, s) = decode_vid(src, n);
        let (local_dst_owner, dst_shard) = decode_vid(dst, n);
        if dst_shard == s {
            // Same-shard edge: one write guard, the inner engine validates
            // both endpoints itself.
            // gm-lock: shard
            let mut g = self.wlock(s)?;
            let local = g.add_edge(local_src, local_dst_owner, label, props)?;
            return Ok(encode_eid(local, s, n));
        }
        // Cut edge. Fast path first: an existing ghost proves the remote
        // endpoint existed when the ghost was created (vertex removal
        // deletes its ghosts), so the steady state pays one meta read plus
        // the source shard's write guard — no cross-shard validation lock.
        // gm-lock: meta transient
        let known_ghost = self.meta_read()?.ghosts[s].get(&dst.0).copied();
        let local_dst = match known_ghost {
            Some(ghost) => ghost,
            None => {
                // First cut edge to this destination: validate the remote
                // endpoint (a single read guard, released before anything
                // else is taken); a racing removal between check and insert
                // is the same weakening every cross-partition system
                // accepts.
                {
                    // gm-lock: shard
                    let owner = self.rlock(dst_shard)?;
                    if owner.vertex(local_dst_owner)?.is_none() {
                        return Err(GdbError::VertexNotFound(dst.0));
                    }
                }
                // First cut edge to this destination from this shard: the
                // ghost vertex and its meta entry are created while holding
                // meta.write → shard.write, so no read can observe the edge
                // before the translation exists.
                // gm-lock: meta
                let mut meta = self.meta_write()?;
                // Opportunistic purge drain: this is the only write path
                // that takes the meta writer lock under a read-dominated
                // mix, so piggyback the deferred resolution-map cleanup
                // here instead of letting the queue grow unbounded until
                // the next canonical resolution.
                self.drain_purges(Some(&mut meta))?;
                match meta.ghosts[s].get(&dst.0).copied() {
                    Some(ghost) => ghost, // raced another writer: reuse
                    None => {
                        // gm-lock: shard
                        let mut g = self.wlock(s)?;
                        let ghost = g.add_vertex(GHOST_LABEL, &Vec::new())?;
                        meta.ghosts[s].insert(dst.0, ghost);
                        meta.rev[s].insert(ghost.0, dst.0);
                        if let Some(m) = &self.metrics {
                            m.ghost_creations.inc();
                        }
                        let local = g.add_edge(local_src, ghost, label, props)?;
                        return Ok(encode_eid(local, s, n));
                    }
                }
            }
        };
        // gm-lock: shard
        let mut g = self.wlock(s)?;
        let local = g.add_edge(local_src, local_dst, label, props)?;
        Ok(encode_eid(local, s, n))
    }

    pub(crate) fn sh_set_vertex_property(&self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        let (local, owner) = decode_vid(v, self.shard_count());
        // gm-lock: shard
        self.wlock(owner)?.set_vertex_property(local, name, value)
    }

    pub(crate) fn sh_set_edge_property(&self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        let (local, s) = decode_eid(e, self.shard_count());
        // gm-lock: shard
        self.wlock(s)?.set_edge_property(local, name, value)
    }

    pub(crate) fn sh_remove_vertex(&self, v: Vid) -> GdbResult<()> {
        let n = self.shard_count();
        // gm-lock: meta
        let mut meta = self.meta_write()?;
        // gm-lock: shard
        let mut guards = self.wlock_all()?;
        let (local, owner) = decode_vid(v, n);
        // Collect the incident edges before anything is removed, so the
        // canonical edge-resolution entries can be purged with them.
        let ctx = QueryCtx::unbounded();
        let mut dead_edges: Vec<Eid> = Vec::new();
        for (s, guard) in guards.iter().enumerate() {
            let present = if s == owner {
                Some(local)
            } else {
                meta.ghosts[s].get(&v.0).copied()
            };
            if let Some(lv) = present {
                for r in guard.vertex_edges(lv, Direction::Both, None, &ctx)? {
                    dead_edges.push(encode_eid(r.eid, s, n));
                }
            }
        }
        // The owner's removal validates existence; only then touch ghosts.
        guards[owner].remove_vertex(local)?;
        for (s, guard) in guards.iter_mut().enumerate() {
            if s == owner {
                continue;
            }
            if let Some(ghost) = meta.ghosts[s].remove(&v.0) {
                meta.rev[s].remove(&ghost.0);
                guard.remove_vertex(ghost)?;
            }
        }
        for e in dead_edges {
            meta.purge_edge(e);
        }
        meta.purge_vertex(v);
        self.drain_purges(Some(&mut meta))?;
        Ok(())
    }

    pub(crate) fn sh_remove_edge(&self, e: Eid) -> GdbResult<()> {
        let (local, s) = decode_eid(e, self.shard_count());
        // gm-lock: shard transient
        self.wlock(s)?.remove_edge(local)?;
        // An orphaned ghost (its last in-edge gone) is retained: it stays
        // invisible to every read and will be reused by the next cut edge
        // to the same destination. The resolution-map purge is deferred
        // (see `pending_purges`); canonical resolution drains the queue
        // before answering, ghost creation drains it opportunistically,
        // and a depth cap below bounds it on removal-heavy mixes that
        // never hit either path.
        let depth = {
            // gm-lock: leaf
            let mut pending = self.purge_lock("gm-shard/graph.rs purge queue push")?;
            pending.push(e);
            pending.len()
        };
        self.note_pending(depth);
        if depth >= PURGE_DRAIN_THRESHOLD {
            self.drain_purges(None)?;
        }
        Ok(())
    }

    pub(crate) fn sh_remove_vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let (local, owner) = decode_vid(v, self.shard_count());
        self.wlock(owner)?.remove_vertex_property(local, name)
    }

    pub(crate) fn sh_remove_edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let (local, s) = decode_eid(e, self.shard_count());
        self.wlock(s)?.remove_edge_property(local, name)
    }

    pub(crate) fn sh_create_vertex_index(&self, prop: &str) -> GdbResult<()> {
        // Homogeneous shards: either all support indexes or none does, so a
        // first-shard failure leaves no partial state behind.
        // gm-lock: shard
        for g in self.wlock_all()?.iter_mut() {
            g.create_vertex_index(prop)?;
        }
        Ok(())
    }

    pub(crate) fn sh_sync(&self) -> GdbResult<()> {
        // gm-lock: shard
        for g in self.wlock_all()?.iter_mut() {
            g.sync()?;
        }
        Ok(())
    }

    pub(crate) fn sh_bulk_load(&self, data: &Dataset, opts: &LoadOptions) -> GdbResult<LoadStats> {
        let n = self.shard_count();
        // gm-lock: meta
        let mut meta = self.meta_write()?;
        // gm-lock: shard
        let mut guards = self.wlock_all()?;
        let parts = partition(data, n)?;
        for (s, sub) in parts.subs.iter().enumerate() {
            guards[s].bulk_load(sub, opts)?;
        }
        let views: Vec<&dyn GraphSnapshot> = guards.iter().map(|g| &**g as _).collect();
        *meta = build_meta(&parts, &views)?;
        // gm-lock: leaf
        self.purge_lock("gm-shard/graph.rs purge queue clear")?
            .clear();
        self.note_pending(0);
        Ok(LoadStats {
            vertices: data.vertex_count() as u64,
            edges: data.edge_count() as u64,
        })
    }
}

impl<E: GraphDb + 'static> GraphSnapshot for ShardedGraph<E> {
    // gm-check: allow-default(epoch: the locked composite is unversioned — reads observe whatever writes have landed, exactly like the engine-wide RwLock it replaces)

    fn name(&self) -> String {
        self.name.clone()
    }

    fn features(&self) -> EngineFeatures {
        self.with_one(0, |p| p.features())
            .unwrap_or(EngineFeatures {
                name: self.name.clone(),
                system_type: "Sharded composite".into(),
                storage: "unavailable (poisoned shard lock)".into(),
                edge_traversal: "scatter-gather".into(),
                optimized_adapter: false,
                async_writes: false,
                attribute_indexes: false,
            })
    }

    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        // Resolution lives entirely in the meta maps — no shard lock.
        // Deferred removal purges are applied first, so a deleted element
        // stops resolving exactly as it does on an unsharded engine.
        self.drain_purges(None).ok()?;
        self.meta_read()
            .ok()?
            .vertex_resolve
            .get(&canonical)
            .map(|v| Vid(*v))
    }

    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        self.drain_purges(None).ok()?;
        self.meta_read()
            .ok()?
            .edge_resolve
            .get(&canonical)
            .map(|e| Eid(*e))
    }

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.with_all(|p| p.vertex_count(ctx))?
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.with_all(|p| p.edge_count(ctx))?
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.with_all(|p| p.edge_label_set(ctx))?
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        self.with_all(|p| p.vertices_with_property(name, value, ctx))?
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        self.with_all(|p| p.edges_with_property(name, value, ctx))?
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        self.with_all(|p| p.edges_with_label(label, ctx))?
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        // Meta-free point read: the id maps through arithmetic alone.
        let (local, owner) = decode_vid(v, self.shard_count());
        Ok(self.rlock(owner)?.vertex(local)?.map(|data| VertexData {
            id: v,
            label: data.label,
            props: data.props,
        }))
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        let (_, s) = decode_eid(e, self.shard_count());
        self.with_one(s, |p| p.edge(e))?
    }

    fn neighbors(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        match dir {
            Direction::Out => {
                let (_, owner) = decode_vid(v, self.shard_count());
                self.with_one(owner, |p| p.neighbors(v, dir, label, ctx))?
            }
            Direction::In | Direction::Both => {
                self.with_presence(v, |p| p.neighbors(v, dir, label, ctx))?
            }
        }
    }

    fn vertex_edges(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<EdgeRef>> {
        match dir {
            Direction::Out => {
                let (_, owner) = decode_vid(v, self.shard_count());
                self.with_one(owner, |p| p.vertex_edges(v, dir, label, ctx))?
            }
            Direction::In | Direction::Both => {
                self.with_presence(v, |p| p.vertex_edges(v, dir, label, ctx))?
            }
        }
    }

    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        match dir {
            Direction::Out => {
                let (_, owner) = decode_vid(v, self.shard_count());
                self.with_one(owner, |p| p.vertex_degree(v, dir, ctx))?
            }
            Direction::In | Direction::Both => {
                self.with_presence(v, |p| p.vertex_degree(v, dir, ctx))?
            }
        }
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        match dir {
            Direction::Out => {
                let (_, owner) = decode_vid(v, self.shard_count());
                self.with_one(owner, |p| p.vertex_edge_labels(v, dir, ctx))?
            }
            Direction::In | Direction::Both => {
                self.with_presence(v, |p| p.vertex_edge_labels(v, dir, ctx))?
            }
        }
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        // Materialized under the guards, released before iteration — the
        // same shape as the remote client's scan.
        let items = self.with_all(|p| p.scan_vertices(ctx))??;
        Ok(Box::new(items.into_iter()))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        let items = self.with_all(|p| p.scan_edges(ctx))??;
        Ok(Box::new(items.into_iter()))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let (local, owner) = decode_vid(v, self.shard_count());
        self.rlock(owner)?.vertex_property(local, name)
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let (local, s) = decode_eid(e, self.shard_count());
        self.rlock(s)?.edge_property(local, name)
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        let (_, s) = decode_eid(e, self.shard_count());
        self.with_one(s, |p| p.edge_endpoints(e))?
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        let (local, s) = decode_eid(e, self.shard_count());
        self.rlock(s)?.edge_label(local)
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        let (local, owner) = decode_vid(v, self.shard_count());
        self.rlock(owner)?.vertex_label(local)
    }

    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        // One acquisition of every shard guard for the whole filter. The
        // trait default would re-lock per `vertex_degree` probe — thousands
        // of acquisition rounds per scan — and could interleave with
        // writers mid-filter; this is the silent-default skew the gm-check
        // delegation lint exists to catch.
        self.with_all(|p| p.degree_scan(dir, k, ctx))?
    }

    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.with_all(|p| p.distinct_neighbor_scan(dir, ctx))?
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.with_all(|p| p.has_vertex_index(prop)).unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        self.with_all(|p| p.space()).unwrap_or_default()
    }
}

impl<E: GraphDb + 'static> GraphDb for ShardedGraph<E> {
    // Exclusive access routes through the same shared-reference write path
    // concurrent writers use: a throwaway `SharedWriter` per call costs
    // nothing (it is one reference) and keeps exactly one implementation of
    // every mutation.
    gm_model::forward_graph_db!(target = |s| SharedWriter::new(s));
}

impl<E: GraphDb + 'static> SharedGraph for ShardedGraph<E> {
    fn with_write(&self, f: &mut dyn FnMut(&mut dyn GraphDb) -> GdbResult<u64>) -> GdbResult<u64> {
        let mut writer = SharedWriter { graph: self };
        f(&mut writer)
    }
}

/// A zero-cost mutation handle over a shared [`ShardedGraph`] reference:
/// implements [`GraphDb`] so the standard write paths (`apply_write`, the
/// write half of `catalog::execute`) run unchanged, but each mutation locks
/// only the shard it touches — the reason concurrent writers on different
/// shards stop serializing.
pub struct SharedWriter<'a, E: GraphDb + 'static> {
    graph: &'a ShardedGraph<E>,
}

impl<'a, E: GraphDb + 'static> SharedWriter<'a, E> {
    /// Wrap a shared composite reference.
    pub fn new(graph: &'a ShardedGraph<E>) -> Self {
        SharedWriter { graph }
    }
}

impl<E: GraphDb + 'static> GraphSnapshot for SharedWriter<'_, E> {
    // Complete by construction — including `epoch` and the bulk-scan
    // overrides, which the hand-written predecessor of this impl silently
    // dropped (reads through a writer handle fell back to the trait's
    // per-vertex default decomposition).
    gm_model::forward_graph_snapshot!(target = |s| s.graph);
}

impl<E: GraphDb + 'static> GraphDb for SharedWriter<'_, E> {
    fn bulk_load(&mut self, data: &Dataset, opts: &LoadOptions) -> GdbResult<LoadStats> {
        self.graph.sh_bulk_load(data, opts)
    }

    fn add_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        self.graph.sh_add_vertex(label, props)
    }

    fn add_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        self.graph.sh_add_edge(src, dst, label, props)
    }

    fn set_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        self.graph.sh_set_vertex_property(v, name, value)
    }

    fn set_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        self.graph.sh_set_edge_property(e, name, value)
    }

    fn remove_vertex(&mut self, v: Vid) -> GdbResult<()> {
        self.graph.sh_remove_vertex(v)
    }

    fn remove_edge(&mut self, e: Eid) -> GdbResult<()> {
        self.graph.sh_remove_edge(e)
    }

    fn remove_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.graph.sh_remove_vertex_property(v, name)
    }

    fn remove_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.graph.sh_remove_edge_property(e, name)
    }

    fn create_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        self.graph.sh_create_vertex_index(prop)
    }

    fn sync(&mut self) -> GdbResult<()> {
        self.graph.sh_sync()
    }
}
