//! A log-structured merge table with tombstones and compaction.
//!
//! Titan's default backend is Cassandra (§3.1); the columnar engine stores
//! its adjacency rows in this LSM. The structure reproduces the behaviours
//! the paper attributes to the backend:
//!
//! * writes go to a sorted **memtable** and are cheap;
//! * deletes write **tombstones** instead of removing data — the paper
//!   credits Titan's fast deletions to exactly this (§6.5: "the tombstone
//!   mechanism, that in deletions marks an item as removed instead of
//!   actually removing it");
//! * reads consult the memtable and then immutable runs newest-first, so
//!   read amplification grows with the number of runs until **compaction**
//!   folds them together.
//!
//! # Run format
//!
//! A flush or a compaction writes an immutable run in an SSTable layout:
//!
//! * all keys of the run sit back to back in one **key arena**, all values
//!   in one **value arena**; two offset arrays (`n + 1` entries each) delimit
//!   entry `i` as `arena[offs[i]..offs[i + 1]]`, and a bitset marks
//!   tombstones;
//! * an **index summary** — like Cassandra's — holds the first 8 bytes of
//!   every 16th key as a big-endian `u64`. A lookup binary-searches the
//!   summary (dense integers, no pointer chasing) and then only the
//!   16-entry blocks whose sampled heads can hold the key.
//!
//! Reads borrow from the arenas: [`LsmTable::get`] returns `&[u8]` and scans
//! yield `(&[u8], &[u8])` pairs. Opening a scan resolves its bounds to an
//! index range in every run. A scan over a range that only one source (the
//! memtable or one run) overlaps walks that source directly; otherwise a
//! k-way merge over the overlapping sources picks the smallest key and the
//! newest version of it. Neither allocates unless more than four sources
//! overlap the range.
//!
//! What stays modelled: every lookup still consults the memtable and then
//! every run newest-first, tombstones still shadow older versions until a
//! bottom-level compaction drops them, and [`LsmTable::bytes`] still reports
//! the prefix-compressed on-disk footprint of each run. What is gone is the
//! in-memory overhead of the old layout: two heap allocations per entry, a
//! cloned value per `get`, and owned copies of every scanned pair.

use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;
use std::sync::Arc;

/// Key-value entry; `None` is a tombstone.
type MemEntry = Option<Vec<u8>>;

/// A borrowed entry of one source: the key and its value (`None` is a
/// tombstone).
type Entry<'a> = (&'a [u8], Option<&'a [u8]>);

/// Keys per index-summary block.
const SUMMARY_STRIDE: usize = 16;

/// The first 8 bytes of `key` as a big-endian integer, zero-padded. The
/// map is monotone: `a <= b` implies `head(a) <= head(b)`.
fn head(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        Some(h) => u64::from_be_bytes(*h),
        None => {
            let mut h = [0u8; 8];
            h[..key.len()].copy_from_slice(key);
            u64::from_be_bytes(h)
        }
    }
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("an LSM run arena is limited to 4 GiB")
}

/// An immutable sorted run produced by a memtable flush or a compaction.
#[derive(Debug)]
struct Run {
    keys: Vec<u8>,
    key_offs: Vec<u32>,
    vals: Vec<u8>,
    val_offs: Vec<u32>,
    /// Bit `i` set: entry `i` is a tombstone.
    tombs: Vec<u64>,
    /// `head` of keys `0, 16, 32, …`.
    summary: Vec<u64>,
    tombstones: u64,
    bytes: u64,
}

impl Run {
    /// An empty run with room for `entries` entries over the given arena
    /// sizes.
    fn with_capacity(entries: usize, key_bytes: usize, val_bytes: usize) -> Run {
        let mut key_offs = Vec::with_capacity(entries + 1);
        key_offs.push(0);
        let mut val_offs = Vec::with_capacity(entries + 1);
        val_offs.push(0);
        Run {
            keys: Vec::with_capacity(key_bytes),
            key_offs,
            vals: Vec::with_capacity(val_bytes),
            val_offs,
            tombs: Vec::with_capacity(entries.div_ceil(64)),
            summary: Vec::with_capacity(entries.div_ceil(SUMMARY_STRIDE)),
            tombstones: 0,
            bytes: 0,
        }
    }

    fn len(&self) -> usize {
        self.key_offs.len() - 1
    }

    fn key(&self, i: usize) -> &[u8] {
        &self.keys[self.key_offs[i] as usize..self.key_offs[i + 1] as usize]
    }

    fn value(&self, i: usize) -> Option<&[u8]> {
        if (self.tombs[i / 64] >> (i % 64)) & 1 == 1 {
            None
        } else {
            Some(&self.vals[self.val_offs[i] as usize..self.val_offs[i + 1] as usize])
        }
    }

    /// Append an entry; keys must arrive in strictly increasing order.
    ///
    /// Also accumulates the on-disk footprint, modelling the SSTable
    /// format: sorted keys are **prefix-compressed** against their
    /// predecessor (the Cassandra/SSTable trick that, combined with the
    /// columnar engine's delta encoding, gives Titan its Figure 1 space
    /// win), plus a small per-entry header.
    fn push(&mut self, key: &[u8], value: Option<&[u8]>) {
        let i = self.len();
        let prev = if i == 0 { &[][..] } else { self.key(i - 1) };
        debug_assert!(i == 0 || prev < key, "run keys must be sorted and unique");
        let shared = prev.iter().zip(key).take_while(|(a, b)| a == b).count();
        self.bytes += (key.len() - shared) as u64 + value.map_or(1, |v| v.len() as u64) + 4;
        if i.is_multiple_of(SUMMARY_STRIDE) {
            self.summary.push(head(key));
        }
        if i.is_multiple_of(64) {
            self.tombs.push(0);
        }
        self.keys.extend_from_slice(key);
        self.key_offs.push(offset(self.keys.len()));
        match value {
            Some(v) => self.vals.extend_from_slice(v),
            None => {
                self.tombs[i / 64] |= 1 << (i % 64);
                self.tombstones += 1;
            }
        }
        self.val_offs.push(offset(self.vals.len()));
    }

    /// Release the capacity reserved for entries a merge dropped.
    fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.key_offs.shrink_to_fit();
        self.vals.shrink_to_fit();
        self.val_offs.shrink_to_fit();
        self.tombs.shrink_to_fit();
        self.summary.shrink_to_fit();
    }

    /// Index of the first key `>= key`.
    fn lower_bound(&self, key: &[u8]) -> usize {
        if key.is_empty() {
            return 0;
        }
        // A block whose sampled head is below `key`'s head starts below
        // `key`; one whose sampled head is above it starts above `key`. Equal
        // heads may straddle blocks, so the search window spans them all.
        let h = head(key);
        let below = self.summary.partition_point(|&s| s < h);
        let above = below
            + self.summary[below..]
                .iter()
                .take_while(|&&s| s == h)
                .count();
        let lo = below.saturating_sub(1) * SUMMARY_STRIDE;
        let hi = (above * SUMMARY_STRIDE).min(self.len());
        self.partition(lo, hi, |k| k < key)
    }

    /// Index of the first entry at or after `from` that `upper` excludes.
    fn end(&self, from: usize, upper: Upper<'_>) -> usize {
        match upper {
            Upper::Unbounded => self.len(),
            Upper::Below(hi) => self.lower_bound(hi).max(from),
            Upper::Prefix(p) => self.partition(from, self.len(), |k| k.starts_with(p)),
        }
    }

    /// The first index in `lo..hi` whose key fails `pred`, or `hi`; `pred`
    /// must hold on a leading part of the range and fail on the rest.
    fn partition(&self, mut lo: usize, mut hi: usize, pred: impl Fn(&[u8]) -> bool) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        let i = self.lower_bound(key);
        (i < self.len() && self.key(i) == key).then(|| self.value(i))
    }
}

/// Tuning knobs for the LSM.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush the memtable once it holds this many entries.
    pub memtable_limit: usize,
    /// Compact once this many immutable runs accumulate.
    pub max_runs: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_limit: 4096,
            max_runs: 6,
        }
    }
}

/// Counters exposed for tests and the benchmark's space accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// Completed memtable flushes.
    pub flushes: u64,
    /// Completed compactions.
    pub compactions: u64,
    /// Live tombstones across all runs.
    pub tombstones: u64,
}

/// The LSM table.
///
/// Runs are `Arc`-shared: once flushed they are immutable, so a `Clone` of
/// the whole table copies only the memtable (bounded by
/// [`LsmConfig::memtable_limit`]) and one `Arc` per run — the property the
/// columnar engine's snapshot path relies on. Compaction *replaces* the run
/// list with a freshly merged run; clones holding the old `Arc`s keep
/// reading the pre-compaction runs unchanged.
#[derive(Debug, Clone)]
pub struct LsmTable {
    mem: BTreeMap<Vec<u8>, MemEntry>,
    runs: Vec<Arc<Run>>, // oldest first
    config: LsmConfig,
    stats: LsmStats,
}

impl Default for LsmTable {
    fn default() -> Self {
        Self::new(LsmConfig::default())
    }
}

impl LsmTable {
    /// A new table with the given configuration.
    pub fn new(config: LsmConfig) -> Self {
        LsmTable {
            mem: BTreeMap::new(),
            runs: Vec::new(),
            config,
            stats: LsmStats::default(),
        }
    }

    /// Insert or overwrite a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.mem.insert(key.to_vec(), Some(value.to_vec()));
        self.maybe_flush();
    }

    /// Delete a key by writing a tombstone (cheap, like Cassandra).
    pub fn delete(&mut self, key: &[u8]) {
        self.mem.insert(key.to_vec(), None);
        self.maybe_flush();
    }

    /// Point lookup; `None` for missing or tombstoned keys.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        if let Some(entry) = self.mem.get(key) {
            return entry.as_deref();
        }
        self.runs.iter().rev().find_map(|run| run.get(key))?
    }

    /// Whether a live value exists for `key`.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Iterate live `(key, value)` pairs whose key starts with `prefix`,
    /// in key order, with newest-version-wins and tombstone suppression.
    pub fn scan_prefix<'a>(&'a self, prefix: &'a [u8]) -> Scan<'a> {
        self.scan_from(prefix, Upper::Prefix(prefix))
    }

    /// Iterate live pairs with `lo <= key < hi` (no upper bound when `hi`
    /// is `None`); `scan_range(&[], None)` is the full scan.
    pub fn scan_range<'a>(&'a self, lo: &'a [u8], hi: Option<&'a [u8]>) -> Scan<'a> {
        self.scan_from(lo, hi.map_or(Upper::Unbounded, Upper::Below))
    }

    fn scan_from<'a>(&'a self, lo: &'a [u8], upper: Upper<'a>) -> Scan<'a> {
        // Sources newest-first: the memtable, then the runs. Only sources
        // with an entry inside the range take part.
        let mem = Source::Mem {
            range: self
                .mem
                .range::<[u8], _>((Bound::Included(lo), Bound::Unbounded)),
            upper,
        };
        let runs = self.runs.iter().rev().map(|run| {
            let pos = run.lower_bound(lo);
            let end = run.end(pos, upper);
            Source::Run { run, pos, end }
        });
        Scan::new(std::iter::once(mem).chain(runs))
    }

    /// Count of live keys (scans everything; test/debug helper).
    pub fn live_len(&self) -> usize {
        self.scan_range(&[], None).count()
    }

    fn maybe_flush(&mut self) {
        if self.mem.len() >= self.config.memtable_limit {
            self.flush();
        }
    }

    /// Force the memtable into an immutable run.
    pub fn flush(&mut self) {
        if self.mem.is_empty() {
            return;
        }
        let mem = std::mem::take(&mut self.mem);
        let (key_bytes, val_bytes) = mem.iter().fold((0, 0), |(k, v), (key, val)| {
            (k + key.len(), v + val.as_ref().map_or(0, Vec::len))
        });
        let mut run = Run::with_capacity(mem.len(), key_bytes, val_bytes);
        for (k, v) in &mem {
            run.push(k, v.as_deref());
        }
        self.stats.tombstones += run.tombstones;
        self.runs.push(Arc::new(run));
        self.stats.flushes += 1;
        if self.runs.len() > self.config.max_runs {
            self.compact_tail();
        }
    }

    /// Merge all runs into one, dropping shadowed versions and tombstones.
    pub fn compact(&mut self) {
        self.merge_suffix(0);
    }

    /// Tiered overflow compaction: merge only the **newest half** of the
    /// runs into one and leave the older base runs untouched.
    ///
    /// The full [`LsmTable::compact`] rewrites the entire store — including
    /// the big bulk-loaded base run — every time the run count overflows,
    /// which at small memtable sizes makes automatic compaction O(store)
    /// per few thousand writes (and the columnar engine's snapshot path
    /// tunes the memtable small precisely to keep freezes cheap). Tiering
    /// bounds automatic compaction work to the recently flushed tail; the
    /// base is rewritten only by an explicit `compact()` call.
    pub fn compact_tail(&mut self) {
        self.merge_suffix(self.config.max_runs / 2);
    }

    /// Merge the runs from index `keep` onward into one run. Tombstones are
    /// dropped only when the merge reaches the bottom level (`keep == 0`);
    /// higher merges must retain them because they may still shadow live
    /// entries in the base runs below.
    fn merge_suffix(&mut self, keep: usize) {
        if self.runs.len() <= keep.max(1) {
            return;
        }
        // Snapshot clones may still hold the old runs' `Arc`s, so the merge
        // reads them by reference and writes a fresh run.
        let tail = self.runs.split_off(keep);
        let (entries, key_bytes, val_bytes) = tail.iter().fold((0, 0, 0), |(n, k, v), r| {
            (n + r.len(), k + r.keys.len(), v + r.vals.len())
        });
        let mut merged = Run::with_capacity(entries, key_bytes, val_bytes);
        let mut sources: Vec<_> = tail
            .iter()
            .rev()
            .map(|run| {
                let end = run.len();
                Cursor::open(Source::Run { run, pos: 0, end })
            })
            .collect();
        while let Some((k, v)) = merge_next(&mut sources) {
            if keep > 0 || v.is_some() {
                merged.push(k, v);
            }
        }
        merged.shrink_to_fit();
        self.runs.push(Arc::new(merged));
        self.stats.compactions += 1;
        self.stats.tombstones = self.runs.iter().map(|r| r.tombstones).sum();
    }

    /// Number of immutable runs currently on "disk".
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Counters for tests and reports.
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    /// Approximate footprint: memtable + all runs (including shadowed
    /// versions and tombstones — that is the point of an LSM's space story).
    pub fn bytes(&self) -> u64 {
        let mem: u64 = self
            .mem
            .iter()
            .map(|(k, v)| k.len() as u64 + v.as_ref().map_or(1, |v| v.len() as u64) + 32)
            .sum();
        mem + self.runs.iter().map(|r| r.bytes).sum::<u64>()
    }
}

/// Where a scan stops.
#[derive(Debug, Clone, Copy)]
enum Upper<'a> {
    Unbounded,
    /// Stop before this key.
    Below(&'a [u8]),
    /// Stop at the first key without this prefix.
    Prefix(&'a [u8]),
}

impl Upper<'_> {
    fn admits(self, key: &[u8]) -> bool {
        match self {
            Upper::Unbounded => true,
            Upper::Below(hi) => key < hi,
            Upper::Prefix(p) => key.starts_with(p),
        }
    }
}

/// The position of a scan in one source. A run resolves the scan's upper
/// bound to an end index when the scan opens; the memtable checks it per
/// entry.
enum Source<'a> {
    Mem {
        range: btree_map::Range<'a, Vec<u8>, MemEntry>,
        upper: Upper<'a>,
    },
    Run {
        run: &'a Run,
        pos: usize,
        end: usize,
    },
}

impl<'a> Source<'a> {
    fn next(&mut self) -> Option<Entry<'a>> {
        match self {
            Source::Mem { range, upper } => range
                .next()
                .map(|(k, v)| (k.as_slice(), v.as_deref()))
                .filter(|(k, _)| upper.admits(k)),
            Source::Run { run, pos, end } => (*pos < *end).then(|| {
                let i = *pos;
                *pos += 1;
                (run.key(i), run.value(i))
            }),
        }
    }
}

/// A source with its next in-range entry peeked.
struct Cursor<'a> {
    peek: Entry<'a>,
    source: Source<'a>,
}

impl<'a> Cursor<'a> {
    /// `None` when the source holds no entry in range.
    fn open(mut source: Source<'a>) -> Option<Cursor<'a>> {
        let peek = source.next()?;
        Some(Cursor { peek, source })
    }

    /// Move to the next in-range entry; `false` once the source is done.
    fn advance(&mut self) -> bool {
        match self.source.next() {
            Some(entry) => {
                self.peek = entry;
                true
            }
            None => false,
        }
    }
}

/// Pop the smallest key across the live cursors in `slots` (ordered newest
/// source first): the newest version wins, older versions of the key are
/// skipped, and exhausted cursors leave their slot empty.
fn merge_next<'a>(slots: &mut [Option<Cursor<'a>>]) -> Option<Entry<'a>> {
    let mut best: Option<(usize, &'a [u8])> = None;
    for (i, c) in slots.iter().enumerate() {
        if let Some(c) = c {
            if best.is_none_or(|(_, b)| c.peek.0 < b) {
                best = Some((i, c.peek.0));
            }
        }
    }
    let (at, key) = best?;
    let entry = slots[at].as_ref()?.peek;
    // Older versions sit after the winner: a newer one would have won.
    for slot in &mut slots[at..] {
        if let Some(c) = slot {
            if c.peek.0 == key && !c.advance() {
                *slot = None;
            }
        }
    }
    Some(entry)
}

/// Overlapping sources up to this count merge without a heap allocation.
const INLINE_SOURCES: usize = 4;

/// An ordered scan over live `(key, value)` pairs, borrowed from the table.
///
/// Makes no heap allocation unless more than four sources overlap the
/// scanned range.
pub struct Scan<'a> {
    /// The overlapping sources, newest first.
    inline: [Option<Cursor<'a>>; INLINE_SOURCES],
    /// All overlapping sources instead, when more than `INLINE_SOURCES`.
    heap: Vec<Option<Cursor<'a>>>,
    /// More than one source overlaps: merge. Otherwise walk `inline[0]`.
    merge: bool,
}

impl<'a> Scan<'a> {
    fn new(sources: impl Iterator<Item = Source<'a>>) -> Scan<'a> {
        let mut scan = Scan {
            inline: Default::default(),
            heap: Vec::new(),
            merge: false,
        };
        for (i, c) in sources.filter_map(Cursor::open).enumerate() {
            scan.merge = i > 0;
            if i < INLINE_SOURCES {
                scan.inline[i] = Some(c);
            } else {
                if scan.heap.is_empty() {
                    scan.heap.extend(scan.inline.iter_mut().map(Option::take));
                }
                scan.heap.push(Some(c));
            }
        }
        scan
    }
}

impl<'a> Iterator for Scan<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (key, value) = if !self.merge {
                let cursor = self.inline[0].as_mut()?;
                let entry = cursor.peek;
                if !cursor.advance() {
                    self.inline[0] = None;
                }
                entry
            } else if self.heap.is_empty() {
                merge_next(&mut self.inline)?
            } else {
                merge_next(&mut self.heap)?
            };
            // A tombstone suppresses older versions and yields nothing.
            if let Some(value) = value {
                return Some((key, value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LsmTable {
        LsmTable::new(LsmConfig {
            memtable_limit: 8,
            max_runs: 3,
        })
    }

    #[test]
    fn put_get_delete() {
        let mut t = LsmTable::default();
        t.put(b"a", b"1");
        t.put(b"b", b"2");
        assert_eq!(t.get(b"a"), Some(&b"1"[..]));
        t.delete(b"a");
        assert_eq!(t.get(b"a"), None);
        assert_eq!(t.get(b"b"), Some(&b"2"[..]));
        assert!(!t.contains(b"c"));
    }

    #[test]
    fn newest_version_wins_across_runs() {
        let mut t = small();
        for round in 0..5u8 {
            for k in 0..10u8 {
                t.put(&[k], &[round]);
            }
            t.flush();
        }
        for k in 0..10u8 {
            assert_eq!(t.get(&[k]), Some(&[4u8][..]));
        }
    }

    #[test]
    fn tombstone_survives_flush() {
        let mut t = small();
        t.put(b"x", b"1");
        t.flush();
        t.delete(b"x");
        t.flush();
        assert_eq!(t.get(b"x"), None);
        assert_eq!(t.live_len(), 0);
    }

    #[test]
    fn compaction_drops_tombstones_and_shrinks() {
        let mut t = small();
        for k in 0..100u8 {
            t.put(&[k], &[k]);
        }
        t.flush();
        for k in 0..50u8 {
            t.delete(&[k]);
        }
        t.flush();
        let before = t.bytes();
        t.compact();
        assert!(t.bytes() < before, "compaction reclaims space");
        assert_eq!(t.run_count(), 1);
        assert_eq!(t.live_len(), 50);
        assert_eq!(t.stats().tombstones, 0);
        for k in 0..100u8 {
            assert_eq!(t.get(&[k]).is_some(), k >= 50);
        }
    }

    #[test]
    fn auto_flush_and_auto_compact() {
        let mut t = small();
        for k in 0..200u32 {
            t.put(&k.to_be_bytes(), b"v");
        }
        assert!(t.stats().flushes > 0, "memtable limit triggers flushes");
        assert!(t.run_count() <= 4, "max_runs bounds the run count");
        assert!(t.stats().compactions > 0);
        assert_eq!(t.live_len(), 200);
    }

    #[test]
    fn prefix_scan_merges_sources() {
        let mut t = small();
        // Rows keyed (vertex_id BE, column) like the columnar engine.
        for v in 0..4u32 {
            for c in 0..4u8 {
                let mut key = v.to_be_bytes().to_vec();
                key.push(c);
                t.put(&key, &[c]);
            }
            t.flush();
        }
        // Overwrite one column in the memtable and delete another.
        let mut k = 2u32.to_be_bytes().to_vec();
        k.push(1);
        t.put(&k, b"new");
        let mut k2 = 2u32.to_be_bytes().to_vec();
        k2.push(2);
        t.delete(&k2);

        let row = 2u32.to_be_bytes();
        let hits: Vec<(&[u8], &[u8])> = t.scan_prefix(&row).collect();
        assert_eq!(hits.len(), 3, "one column deleted");
        assert_eq!(hits[1].1, b"new");
        // Keys come back sorted.
        let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn prefix_scan_handles_ff_and_empty_prefixes() {
        let mut t = small();
        for k in [
            &[1, 0xFE][..],
            &[1, 0xFF],
            &[1, 0xFF, 0],
            &[2],
            &[0xFF, 0xFF],
        ] {
            t.put(k, b"v");
        }
        t.flush();
        let keys = |p: &[u8]| {
            t.scan_prefix(p)
                .map(|(k, _)| k.to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&[1, 0xFF]), vec![vec![1, 0xFF], vec![1, 0xFF, 0]]);
        assert_eq!(keys(&[0xFF, 0xFF]), vec![vec![0xFF, 0xFF]]);
        assert_eq!(keys(&[]).len(), 5);
    }

    #[test]
    fn scan_range_bounds() {
        let mut t = small();
        t.put(b"a", b"1");
        t.put(b"m", b"2");
        t.flush();
        t.put(b"z", b"3");
        assert_eq!(t.scan_range(b"", None).count(), 3);
        let mid: Vec<_> = t.scan_range(b"b", Some(b"z")).collect();
        assert_eq!(mid, vec![(&b"m"[..], &b"2"[..])]);
    }

    #[test]
    fn summary_finds_keys_sharing_a_head_across_blocks() {
        // 40 keys with one 8-byte head span three summary blocks.
        let mut t = LsmTable::default();
        let key = |i: u8| [7u8, 7, 7, 7, 7, 7, 7, 7, i];
        for i in 0..40u8 {
            t.put(&key(i), &[i]);
        }
        t.put(&[7u8; 7], b"short");
        t.put(&[7u8, 7, 7, 7, 7, 7, 7, 8], b"next");
        t.flush();
        for i in 0..40u8 {
            assert_eq!(t.get(&key(i)), Some(&[i][..]));
        }
        assert_eq!(t.get(&[7u8; 7]), Some(&b"short"[..]));
        assert_eq!(t.get(&[7u8; 8]), None);
        assert_eq!(t.get(&[7u8, 7, 7, 7, 7, 7, 7, 7, 40]), None);
        assert_eq!(t.scan_prefix(&[7u8; 8]).count(), 40);
    }

    #[test]
    fn bytes_pin_the_prefix_compressed_footprint() {
        let mut t = LsmTable::new(LsmConfig {
            memtable_limit: 1_000_000,
            max_runs: 1_000_000,
        });
        t.put(b"abc", b"12");
        t.put(b"abd", b"3");
        t.put(b"b", b"");
        t.delete(b"bb");
        // Memtable entries: key + value (1 per tombstone) + 32.
        assert_eq!(
            t.bytes(),
            (3 + 2 + 32) + (3 + 1 + 32) + (1 + 32) + (2 + 1 + 32)
        );
        t.flush();
        // Run entries: unshared key suffix + value (1 per tombstone) + 4.
        assert_eq!(t.bytes(), (3 + 2 + 4) + (1 + 1 + 4) + (1 + 4) + (1 + 1 + 4));
        t.put(b"abc", b"9");
        t.flush();
        assert_eq!(t.bytes(), 26 + (3 + 1 + 4));
        t.compact();
        assert_eq!(t.bytes(), (3 + 1 + 4) + (1 + 1 + 4) + (1 + 4));
    }

    #[test]
    fn bytes_grow_until_compaction() {
        // Disable auto-compaction so the growth is observable.
        let mut t = LsmTable::new(LsmConfig {
            memtable_limit: 1_000_000,
            max_runs: 1_000_000,
        });
        for k in 0..64u32 {
            t.put(&k.to_be_bytes(), &[0u8; 32]);
        }
        t.flush();
        let b1 = t.bytes();
        // Overwrite everything: space roughly doubles until compaction.
        for k in 0..64u32 {
            t.put(&k.to_be_bytes(), &[1u8; 32]);
        }
        t.flush();
        assert!(t.bytes() > b1);
        t.compact();
        assert!(
            t.bytes() <= b1 + 64,
            "post-compaction space back to ~one copy"
        );
    }
}
