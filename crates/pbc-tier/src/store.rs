//! The tiered store: hot sharded memory over a two-level cold tier.
//!
//! Writes land in a hot [`TierStore`]; when its accounted bytes cross the
//! configured watermark, the coldest shards (by last-access epoch) are
//! drained, merged, and written to a `pbc-archive` segment, then the
//! manifest is swapped atomically. Reads go hot → tombstones → in-flight
//! spill staging → block cache → **L0** spill segments newest-first →
//! the single **L1** partition covering the key, so overwrites and
//! deletes always win over older spilled state.
//!
//! ## Levels
//!
//! The cold tier is leveled (see [`crate::planner`]): L0 holds spill
//! segments in recency order (they may overlap), L1 holds sorted,
//! pairwise non-overlapping key partitions produced by compaction jobs.
//! Worst-case cold lookups cost O(L0) + O(log L1) instead of
//! O(segments).
//!
//! ## Ownership of cold data
//!
//! The live segment set is published as an immutable snapshot
//! (`Arc<ColdTier>`): readers clone the `Arc` and walk it without holding
//! any lock, so a compaction job can retire segments mid-read — the
//! retired readers (and, on unix, their unlinked files) stay alive until
//! the last in-flight read drops its snapshot. Spills and compaction jobs
//! run concurrently, and **multiple compaction jobs run concurrently with
//! each other** when their key ranges are disjoint: instead of one global
//! compaction lock, each job reserves its key interval in a reservation
//! table for the duration of the merge. Every change to the segment set
//! still commits through one generation-stamped manifest swap under a
//! dedicated commit lock, with the set's write lock held only for the
//! final pointer swap — so readers never wait out a manifest fsync.
//!
//! ## Crash safety
//!
//! The durable state is the manifest plus the segments it names. Spills
//! write and fsync the new segment *before* the manifest swap, and the swap
//! is write-temp + rename; a crash mid-spill leaves the previous manifest
//! intact and at worst an orphaned half-segment, swept on reopen. A
//! compaction job commits "retire the inputs, add the output partitions"
//! as a single generation bump: a crash before the rename replays as the
//! old generation plus orphaned outputs, a crash after it as the new
//! generation plus orphaned inputs — reopen sweeps either. A *failed*
//! (not crashed) commit sweeps its own `MANIFEST.tmp` and output files
//! immediately. Hot (in-memory) data is acknowledged as volatile until
//! spilled — the same contract as any memory-tier cache;
//! [`TieredStore::flush_all`] spills everything for a clean shutdown.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use parking_lot::{Mutex, RwLock};
use pbc_archive::{select_codec_over_blocks, CodecSpec, Entry, SegmentReader};
use pbc_obs::{Event, MetricsRegistry, TraceEvent};
use pbc_store::TierStore;
use pbc_wal::{CheckpointSummary, RecoveryReport, ReplayOp, Wal, WalConfig, WalStats};

use crate::cache::BlockCache;
use crate::compact::{merge_segments, MergeCodec, SelectedCodec};
use crate::config::TierConfig;
use crate::error::{Result, TierError};
use crate::maintenance::{maintenance_loop, MaintSignal};
use crate::manifest::{Manifest, ManifestEntry, SegmentStatsRecord};
use crate::obs::{BackgroundErrorRecord, TierObs};
use crate::planner::{
    CompactionJob, CompactionPlanner, KeyRange, SegmentStats, LEVEL_L0, LEVEL_L1,
};

/// Marker prefix for a live cold value.
const MARKER_LIVE: u8 = 0;
/// Marker for a tombstone (the whole stored value is this single byte).
const MARKER_TOMBSTONE: u8 = 1;

/// Encode a live value for cold storage.
fn encode_live(value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.len() + 1);
    out.push(MARKER_LIVE);
    out.extend_from_slice(value);
    out
}

/// The single-byte tombstone record.
fn encode_tombstone() -> Vec<u8> {
    vec![MARKER_TOMBSTONE]
}

/// Whether a stored cold value is a tombstone.
pub(crate) fn is_tombstone(stored: &[u8]) -> bool {
    stored.first() == Some(&MARKER_TOMBSTONE)
}

/// Strip the marker: `Ok(Some(value))` for live, `Ok(None)` for tombstone.
pub(crate) fn decode_marked(stored: &[u8]) -> Result<Option<Vec<u8>>> {
    match stored.first() {
        Some(&MARKER_LIVE) => Ok(Some(stored[1..].to_vec())),
        Some(&MARKER_TOMBSTONE) => Ok(None),
        other => Err(TierError::BadValueMarker {
            found: other.copied().unwrap_or(0xff),
        }),
    }
}

/// File name for segment `id`.
fn segment_file_name(id: u64) -> String {
    format!("seg-{id:06}.seg")
}

/// One cold segment: its id, reader, on-disk name, and the stats the
/// compaction planner scores it by. Immutable once published; shared
/// between the live tier and any in-flight read/scan snapshots via `Arc`.
pub(crate) struct ColdSegment {
    pub(crate) id: u64,
    file_name: String,
    pub(crate) reader: SegmentReader,
    /// Records in the segment (live + tombstones).
    pub(crate) records: u64,
    /// Tombstones among them.
    tombstones: u64,
    /// Segment file size in bytes, as counted by the writer that produced
    /// it (or the reader footer geometry on a stats-less reload) — never
    /// a best-effort re-stat that could silently record 0.
    bytes: u64,
    pub(crate) min_key: Vec<u8>,
    pub(crate) max_key: Vec<u8>,
}

impl ColdSegment {
    fn stats(&self, level: u8) -> SegmentStats {
        SegmentStats {
            id: self.id,
            level,
            records: self.records,
            tombstones: self.tombstones,
            bytes: self.bytes,
            min_key: self.min_key.clone(),
            max_key: self.max_key.clone(),
        }
    }

    fn manifest_entry(&self, level: u8) -> ManifestEntry {
        ManifestEntry {
            id: self.id,
            file_name: self.file_name.clone(),
            level,
            stats: Some(SegmentStatsRecord {
                records: self.records,
                tombstones: self.tombstones,
                bytes: self.bytes,
                min_key: self.min_key.clone(),
                max_key: self.max_key.clone(),
            }),
        }
    }

    /// This segment's key interval (`None` for an empty segment).
    fn range(&self) -> Option<KeyRange> {
        if self.records == 0 {
            None
        } else {
            Some(KeyRange::bounded(
                self.min_key.clone(),
                self.max_key.clone(),
            ))
        }
    }
}

/// The immutable two-level cold tier snapshot readers and scans walk.
pub(crate) struct ColdTier {
    /// Recency-ordered spill segments, newest first; may overlap.
    pub(crate) l0: Vec<Arc<ColdSegment>>,
    /// Sorted, pairwise non-overlapping partitions, ascending by key.
    pub(crate) l1: Vec<Arc<ColdSegment>>,
}

impl ColdTier {
    fn empty() -> Self {
        ColdTier {
            l0: Vec::new(),
            l1: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.l0.len() + self.l1.len()
    }

    fn is_empty(&self) -> bool {
        self.l0.is_empty() && self.l1.is_empty()
    }

    /// Every segment, L0 first (newest first), then L1 ascending.
    fn iter(&self) -> impl Iterator<Item = &Arc<ColdSegment>> {
        self.l0.iter().chain(self.l1.iter())
    }

    /// The manifest naming this tier, under `generation`.
    fn manifest(&self, generation: u64) -> Manifest {
        Manifest {
            generation,
            segments: self
                .l0
                .iter()
                .map(|s| s.manifest_entry(LEVEL_L0))
                .chain(self.l1.iter().map(|s| s.manifest_entry(LEVEL_L1)))
                .collect(),
        }
    }

    /// L1 must stay sorted and pairwise non-overlapping — the invariant
    /// the binary-searched read path and range-selected jobs rely on.
    fn check_l1_invariant(&self) -> std::result::Result<(), String> {
        for pair in self.l1.windows(2) {
            if pair[0].max_key >= pair[1].min_key {
                return Err(format!(
                    "L1 partitions {} and {} overlap or are out of order",
                    pair[0].id, pair[1].id
                ));
            }
        }
        Ok(())
    }
}

/// An immutable snapshot of the live cold tier.
pub(crate) type ColdList = Arc<ColdTier>;

/// In-flight compaction key-range reservations. A job reserves the union
/// interval of its inputs (and therefore of its outputs) before merging;
/// jobs with disjoint intervals touch disjoint segments, so they run and
/// commit concurrently. Built on `std::sync` because releases must wake
/// blocked full-compaction waiters through a condvar.
///
/// A blocking waiter registers its claim as **pending** before it waits:
/// pending claims conflict with new `try_reserve` calls (so a stream of
/// background jobs cannot starve a full compaction forever) but a waiter
/// itself only waits on active reservations and on pending claims with
/// an *older* ticket — ticket order makes two blocking waiters queue
/// instead of deadlocking on each other's claims.
struct ReservationTable {
    inner: StdMutex<ReservedSet>,
    released: Condvar,
}

#[derive(Default)]
struct ReservedSet {
    next_ticket: u64,
    /// Ranges held by running jobs.
    active: Vec<(u64, KeyRange)>,
    /// Claims of blocked `reserve_blocking` callers, awaiting their turn.
    pending: Vec<(u64, KeyRange)>,
}

impl ReservedSet {
    /// Whether `range` conflicts as seen by a *new* claim: active
    /// reservations and every pending claim block it.
    fn conflicts_any(&self, range: &KeyRange) -> bool {
        self.active.iter().any(|(_, r)| r.overlaps(range))
            || self.pending.iter().any(|(_, r)| r.overlaps(range))
    }

    /// Whether the pending claim `ticket` must keep waiting: active
    /// reservations, plus pending claims queued before it.
    fn blocks_pending(&self, ticket: u64, range: &KeyRange) -> bool {
        self.active.iter().any(|(_, r)| r.overlaps(range))
            || self
                .pending
                .iter()
                .any(|(t, r)| *t < ticket && r.overlaps(range))
    }

    fn claim_ticket(&mut self) -> u64 {
        self.next_ticket += 1;
        self.next_ticket
    }
}

/// RAII release for one reserved range.
struct ReservationGuard<'a> {
    table: &'a ReservationTable,
    ticket: u64,
}

impl Drop for ReservationGuard<'_> {
    fn drop(&mut self) {
        // pbc-allow(panic): reservation mutex poisoning only follows a panic elsewhere
        let mut set = self.table.inner.lock().expect("reservation table poisoned");
        set.active.retain(|(ticket, _)| *ticket != self.ticket);
        drop(set);
        self.table.released.notify_all();
    }
}

impl ReservationTable {
    fn new() -> Self {
        ReservationTable {
            inner: StdMutex::new(ReservedSet::default()),
            released: Condvar::new(),
        }
    }

    /// Reserve `range` if it conflicts with no in-flight reservation and
    /// no waiting claim (waiters would starve otherwise).
    fn try_reserve(&self, range: KeyRange) -> Option<ReservationGuard<'_>> {
        // pbc-allow(panic): reservation mutex poisoning only follows a panic elsewhere
        let mut set = self.inner.lock().expect("reservation table poisoned");
        if set.conflicts_any(&range) {
            return None;
        }
        let ticket = set.claim_ticket();
        set.active.push((ticket, range));
        Some(ReservationGuard {
            table: self,
            ticket,
        })
    }

    /// Reserve `range`, waiting for conflicting reservations to release
    /// (used by the full [`TieredStore::compact`], which needs the whole
    /// key space). The claim is registered immediately, so new
    /// `try_reserve` calls over the range fail while this caller waits.
    fn reserve_blocking(&self, range: KeyRange) -> ReservationGuard<'_> {
        // pbc-allow(panic): reservation mutex poisoning only follows a panic elsewhere
        let mut set = self.inner.lock().expect("reservation table poisoned");
        let ticket = set.claim_ticket();
        set.pending.push((ticket, range.clone()));
        while set.blocks_pending(ticket, &range) {
            // pbc-allow(panic): reservation mutex poisoning only follows a panic elsewhere
            set = self.released.wait(set).expect("reservation table poisoned");
        }
        set.pending.retain(|(t, _)| *t != ticket);
        set.active.push((ticket, range));
        ReservationGuard {
            table: self,
            ticket,
        }
    }

    /// Every claimed range, active and pending alike (what the planner
    /// must avoid proposing jobs over).
    fn snapshot(&self) -> Vec<KeyRange> {
        // pbc-allow(panic): reservation mutex poisoning only follows a panic elsewhere
        let set = self.inner.lock().expect("reservation table poisoned");
        set.active
            .iter()
            .chain(set.pending.iter())
            .map(|(_, r)| r.clone())
            .collect()
    }
}

/// What one cold lookup did at the segment and block level.
#[derive(Default)]
struct BlockProbes {
    /// Segments whose footer indexes were consulted.
    segments: usize,
    /// Blocks consulted (cache lookups attempted).
    probed: usize,
    /// Whether any consulted block had to be read from disk.
    missed: bool,
}

/// A snapshot of the store's counters and cold-tier gauges.
///
/// The cache-accounting invariant: every cold lookup that consulted at
/// least one block is classified as exactly one of `cold_cache_hits`
/// (every block it touched was cached) or `cold_cache_misses`, so
/// `cold_cache_hits + cold_cache_misses == cold_gets` always holds.
/// Lookups the footer indexes answered without touching any block are
/// counted separately in `cold_index_only`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Gets answered by the hot tier.
    pub hot_hits: u64,
    /// Gets answered `None` by a hot tombstone.
    pub tombstone_negatives: u64,
    /// Gets answered by the in-flight spill staging area.
    pub staging_hits: u64,
    /// Lookups that reached the cold tier and consulted at least one
    /// block.
    pub cold_gets: u64,
    /// Cold lookups the per-block key ranges answered with no block
    /// fetch at all (absent keys outside every block's range).
    pub cold_index_only: u64,
    /// Cold lookups fully served from cached blocks.
    pub cold_cache_hits: u64,
    /// Cold lookups that had to read at least one block from disk.
    pub cold_cache_misses: u64,
    /// Segments whose footer indexes were consulted across all cold
    /// lookups — the read-amplification gauge leveling shrinks: an L1
    /// lookup consults at most one partition, an L0-only layout consults
    /// every segment until it finds the key.
    pub cold_segments_scanned: u64,
    /// Range scans created ([`TieredStore::range_scan`] calls).
    pub range_scans: u64,
    /// Cold segments whose footer indexes were consulted by range scans —
    /// every intersecting L0 segment plus each covering L1 partition the
    /// scan actually reached.
    pub scan_segments_opened: u64,
    /// Blocks range scans had to read and decode from disk (cache hits
    /// are not decodes and are excluded).
    pub scan_blocks_decoded: u64,
    /// Decoded bytes those scan block reads produced — with the rows a
    /// scan yielded, this gauges bytes-decoded-per-row, the scan
    /// efficiency measure the `scans` repro experiment reports.
    pub scan_bytes_decoded: u64,
    /// Spill passes completed.
    pub spills: u64,
    /// Records (entries + tombstones) written by spills.
    pub spilled_entries: u64,
    /// Compaction jobs completed (bounded background/planned jobs and
    /// full [`TieredStore::compact`] calls alike).
    pub compactions: u64,
    /// Segments retired by compaction over the store's lifetime.
    pub segments_retired: u64,
    /// Background maintenance passes that surfaced an error (the thread
    /// keeps running; the next tick retries).
    pub background_errors: u64,
    /// Gauge: records currently stored across cold segments (live +
    /// tombstones), from the per-segment stats recorded at spill time.
    pub cold_records: u64,
    /// Gauge: tombstones currently stored across cold segments (they only
    /// ever live in L0 — every job drops them on the way into L1).
    pub cold_tombstones: u64,
    /// Gauge: live L0 spill segments.
    pub l0_segments: u64,
    /// Gauge: live L1 partitions.
    pub l1_partitions: u64,
    /// Gauge: the manifest generation the current segment set was
    /// committed under.
    pub generation: u64,
}

impl TierStats {
    /// Cold tombstones as a fraction of cold records — the observable
    /// dead-entry ratio the compaction planner triggers on (shadowed
    /// duplicates across segments come on top of this lower bound).
    pub fn cold_dead_ratio(&self) -> f64 {
        if self.cold_records == 0 {
            0.0
        } else {
            self.cold_tombstones as f64 / self.cold_records as f64
        }
    }
}

/// A lock-free snapshot of the signals a serving front end's admission
/// control reads on every write ([`TieredStore::write_pressure`]).
///
/// Everything here comes from atomics — the hot tier's byte counters, a
/// mirror of the committed L0 segment count refreshed at every manifest
/// commit, and the spill-in-progress flag — so sampling it on the hot
/// write path never touches the `cold` read lock and never contends
/// with a commit's pointer swap.
#[derive(Debug, Clone, Copy)]
pub struct WritePressure {
    /// Hot-tier bytes the watermark governs (keys + values + tombstones).
    pub memory_bytes: u64,
    /// The configured spill watermark ([`TierConfig::with_watermark`]).
    pub watermark_bytes: u64,
    /// Committed L0 spill segments — the compaction backlog a planner
    /// has not yet promoted into L1. Grows when spills outpace
    /// compaction; the canonical "cold tier is falling behind" signal.
    pub l0_segments: u64,
    /// Whether a spill pass (watermark drain, explicit spill, or flush)
    /// is running right now.
    pub spill_active: bool,
}

impl WritePressure {
    /// Hot memory as a multiple of the watermark (`1.0` = exactly at the
    /// spill threshold; `0.0` when the watermark is unbounded).
    pub fn memory_ratio(&self) -> f64 {
        if self.watermark_bytes == 0 || self.watermark_bytes == u64::MAX {
            0.0
        } else {
            self.memory_bytes as f64 / self.watermark_bytes as f64
        }
    }
}

/// What a compaction (full [`TieredStore::compact`] or one planned job)
/// reports.
#[derive(Debug, Clone)]
pub struct CompactionSummary {
    /// Segments merged away (L0 inputs + L1 inputs).
    pub merged_segments: usize,
    /// L1 partitions the job produced.
    pub output_partitions: usize,
    /// Live entries surviving into the output partitions.
    pub live_entries: u64,
    /// Entries dropped because a newer segment shadowed them.
    pub shadowed_dropped: u64,
    /// Tombstones dropped (leveled jobs include everything at or below
    /// their key range, so this is every input tombstone).
    pub tombstones_dropped: u64,
    /// Tombstones carried into the output (always 0 for leveled jobs;
    /// kept for the generic merge path).
    pub tombstones_kept: u64,
}

impl CompactionSummary {
    fn empty() -> Self {
        CompactionSummary {
            merged_segments: 0,
            output_partitions: 0,
            live_entries: 0,
            shadowed_dropped: 0,
            tombstones_dropped: 0,
            tombstones_kept: 0,
        }
    }
}

/// RAII setter for [`TierInner::spill_active`]: armed right after the
/// `spill_lock` is taken, cleared on every exit path (including spill
/// errors). Spill entry points are serialized by that lock, so arming is
/// never nested.
struct SpillActiveGuard<'a>(&'a AtomicBool);

impl<'a> SpillActiveGuard<'a> {
    fn arm(flag: &'a AtomicBool) -> Self {
        flag.store(true, Ordering::Relaxed);
        SpillActiveGuard(flag)
    }
}

impl Drop for SpillActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// The shared state behind a [`TieredStore`]: everything except the
/// maintenance thread handle, so the thread and the handle-owning store
/// can both hold it through an `Arc`.
pub(crate) struct TierInner {
    config: TierConfig,
    hot: TierStore,
    cache: BlockCache,
    /// The live cold tier, published as an immutable snapshot (see the
    /// [module docs](self)).
    cold: RwLock<ColdList>,
    /// Entries mid-spill: drained from hot, not yet durable in a manifest
    /// segment. `None` marks a tombstone. Reads consult this between the
    /// hot tier and the segments, so a spill in progress is never a window
    /// where acknowledged data is unreadable. Sorted so the spill writer
    /// can stream it straight into a segment without a second copy.
    staging: RwLock<BTreeMap<Vec<u8>, Option<Vec<u8>>>>,
    /// Serializes spills and flushes (staging is a single shared area).
    /// Deliberately not shared with the compaction machinery: a running
    /// compaction job must never stall a watermark spill.
    spill_lock: Mutex<()>,
    /// In-flight compaction key-range reservations — the replacement for
    /// the old single `compact_lock`: jobs over disjoint key ranges run
    /// and commit concurrently; only overlapping work excludes itself.
    reservations: ReservationTable,
    /// Serializes segment-set commits (spill and job alike): successor
    /// tier construction, the manifest swap (fsync + rename — the slow
    /// part), and the generation bump all happen under this lock, so the
    /// `cold` write lock is only ever held for the final pointer swap and
    /// readers never wait out a manifest fsync. Lock order:
    /// `commit_lock` before `cold`; nothing takes `commit_lock` while
    /// holding `cold`.
    // lock-order: store.spill_lock < store.staging < store.commit_lock < store.cold
    commit_lock: Mutex<()>,
    /// The shared trained codec spills reuse (when
    /// [`TierConfig::reuse_spill_codec`] is on): selected on the first
    /// spill, refreshed by every majority-rewrite compaction job. Its
    /// sample blocks let a compaction whose samples are the very blocks it
    /// was selected on skip the repeat selection.
    spill_codec: Mutex<Option<SelectedCodec>>,
    next_segment_id: AtomicU64,
    /// Generation of the currently committed manifest; every segment-set
    /// commit writes `generation + 1`.
    generation: AtomicU64,
    planner: CompactionPlanner,
    maint: MaintSignal,
    /// Write-ahead log ([`TierConfig::wal`]); `None` keeps the pre-WAL
    /// volatile-hot-tier contract. Writes append *after* their hot-tier
    /// mutation lands, which is what makes checkpoint marks safe: every
    /// record at or below a captured mark is already in the hot tier, so
    /// flushing the hot tier covers it (see `checkpoint_wal`).
    wal: Option<Wal>,
    /// What WAL recovery replayed when this store opened (`None` without
    /// a WAL).
    wal_recovery: Option<RecoveryReport>,
    /// Metric handles, trace ring, and background-error ring (see
    /// [`crate::obs`]). Counters here are the source of truth for
    /// [`TieredStore::stats`].
    obs: TierObs,
    /// Lock-free mirror of the committed L0 segment count, refreshed by
    /// [`TierInner::publish_gauges`] at every manifest commit. Exists so
    /// [`TieredStore::write_pressure`] — an admission-control hook called
    /// on every front-end write — never touches the `cold` read lock and
    /// so never contends with a commit's pointer swap.
    l0_count_hint: AtomicU64,
    /// Whether a spill pass (watermark drain, explicit spill, or flush)
    /// is currently running. Advisory, for backpressure: admission
    /// control can distinguish "over the watermark and draining" from
    /// "over the watermark and stuck behind a cold backlog".
    spill_active: AtomicBool,
    /// Advisory exclusive lock on the store directory, held for the
    /// store's lifetime (released by the OS on drop or process death).
    /// Without it, a second open would sweep the first handle's in-flight
    /// segments as "orphans" and the two would overwrite each other's
    /// manifest swaps.
    _dir_lock: std::fs::File,
}

/// A tiered hot/cold key-value store. See the [module docs](self).
///
/// Cloning is deliberately not offered; share a store across threads with
/// `Arc<TieredStore>`. Dropping the store shuts down and joins the
/// background maintenance thread (if one was configured).
pub struct TieredStore {
    inner: Arc<TierInner>,
    maintenance: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("dir", &self.inner.config.dir)
            .field("hot_len", &self.inner.hot.len())
            .field("memory_usage_bytes", &self.memory_usage_bytes())
            .field("watermark", &self.inner.config.memory_watermark_bytes)
            .field("l0_segments", &self.l0_segment_count())
            .field("l1_partitions", &self.l1_partition_count())
            .field("generation", &self.generation())
            .field("background", &self.maintenance.is_some())
            .finish()
    }
}

impl Drop for TieredStore {
    fn drop(&mut self) {
        if let Some(handle) = self.maintenance.take() {
            self.inner.maint.request_shutdown();
            let _ = handle.join();
        }
        // Best-effort clean-shutdown fsync: under `Durability::None` /
        // `Periodic` the tail of the log may only be in the page cache;
        // one sync here upgrades a clean drop to power-loss durability.
        if let Some(wal) = &self.inner.wal {
            let _ = wal.sync();
        }
    }
}

impl TieredStore {
    /// Open (or create) a tiered store in `config.dir`. Reloads the
    /// manifest if one exists, reopening every live segment and sweeping
    /// crash debris (a stale `MANIFEST.tmp`, orphaned segment files from
    /// interrupted spills or half-committed compaction jobs). v1/v2
    /// manifests load with every segment on L0. Spawns the background
    /// maintenance thread when [`TierConfig::background_compaction`] is
    /// set.
    pub fn open(config: TierConfig) -> Result<TieredStore> {
        std::fs::create_dir_all(&config.dir)?;
        // Exclusive advisory lock before reading anything: a second opener
        // must not sweep this handle's in-flight segments or race its
        // manifest swaps. The lock dies with the process, so a crash never
        // wedges the directory.
        let dir_lock = std::fs::File::create(config.dir.join("LOCK"))?;
        if let Err(e) = dir_lock.try_lock() {
            return Err(match e {
                std::fs::TryLockError::WouldBlock => TierError::DirectoryLocked {
                    dir: config.dir.clone(),
                },
                std::fs::TryLockError::Error(e) => e.into(),
            });
        }
        let manifest = Manifest::load(&config.dir)?.unwrap_or_default();
        // Build the observability bundle before any reader opens, so every
        // segment reader the store ever creates records into it.
        let obs = TierObs::new(&config);
        let mut tier = ColdTier::empty();
        let mut max_id = 0u64;
        for entry in &manifest.segments {
            let path = config.dir.join(&entry.file_name);
            let mut reader = SegmentReader::open_with(&path, config.segment.read_mode)?;
            reader.set_obs(obs.reader.clone());
            max_id = max_id.max(entry.id);
            // v2+ manifests carry the stats; a v1 manifest (or a line
            // whose stats got lost) is backfilled from the segment footer:
            // real key bounds from the per-block index, the byte size the
            // reader measured at open — never a best-effort re-stat whose
            // transient failure would record a 0-byte segment and corrupt
            // the planner's size math. v1 *segments* predate flagged
            // counts, so their tombstone count reads as 0 — the planner
            // undercounts dead entries for them until a compaction
            // rewrites the segment.
            let stats = match entry.stats.clone() {
                Some(stats) => stats,
                None => SegmentStatsRecord {
                    records: reader.record_count(),
                    tombstones: reader.flagged_count(),
                    bytes: reader.file_len(),
                    min_key: reader.min_key().unwrap_or_default().to_vec(),
                    max_key: reader.max_key().unwrap_or_default().to_vec(),
                },
            };
            let segment = Arc::new(ColdSegment {
                id: entry.id,
                file_name: entry.file_name.clone(),
                reader,
                records: stats.records,
                tombstones: stats.tombstones,
                bytes: stats.bytes,
                min_key: stats.min_key,
                max_key: stats.max_key,
            });
            if entry.level == LEVEL_L1 {
                tier.l1.push(segment);
            } else {
                tier.l0.push(segment);
            }
        }
        if let Err(context) = tier.check_l1_invariant() {
            return Err(TierError::ManifestCorrupt { context });
        }
        // Orphaned segments: files from a spill or compaction that died
        // before (or after) its manifest swap — the output of an
        // uncommitted job, or the retired inputs of a committed one.
        // Unreferenced by the loaded generation, so unreachable — sweep
        // them. Their ids still advance the counter so a new segment never
        // reuses a swept name.
        for dir_entry in std::fs::read_dir(&config.dir)? {
            let dir_entry = dir_entry?;
            let name = dir_entry.file_name().to_string_lossy().into_owned();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".seg"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                if !manifest.segments.iter().any(|s| s.file_name == name) {
                    max_id = max_id.max(id);
                    std::fs::remove_file(dir_entry.path())?;
                }
            }
        }
        let hot = TierStore::new(config.hot_codec.clone());
        // Recover the WAL (if configured) straight into the fresh hot
        // tier, before any reads or writes exist. Only records past the
        // last checkpoint whose manifest generation we just loaded are
        // replayed — everything older is already in the segments above.
        let (wal, wal_recovery) = match &config.wal {
            Some(options) => {
                let wal_config = WalConfig::new(config.dir.join("wal"))
                    .with_shards(options.shards)
                    .with_segment_bytes(options.segment_bytes)
                    .with_durability(options.durability);
                let (wal, report) = Wal::open(
                    wal_config,
                    obs.wal_obs(),
                    manifest.generation,
                    |op| match op {
                        ReplayOp::Put { key, value } => {
                            hot.apply_replay_put(key, value);
                        }
                        ReplayOp::Delete { key } => hot.apply_replay_delete(key),
                    },
                )?;
                (Some(wal), Some(report))
            }
            None => (None, None),
        };
        let cache = BlockCache::with_policy(
            config.cache_capacity_bytes,
            config.cache_policy,
            obs.cache_counters(),
        );
        let planner = CompactionPlanner::new(config.planner.clone());
        let background = config.background_compaction;
        let inner = Arc::new(TierInner {
            hot,
            cache,
            cold: RwLock::new(Arc::new(tier)),
            staging: RwLock::new(BTreeMap::new()),
            spill_lock: Mutex::new(()),
            reservations: ReservationTable::new(),
            commit_lock: Mutex::new(()),
            spill_codec: Mutex::new(None),
            next_segment_id: AtomicU64::new(max_id + 1),
            generation: AtomicU64::new(manifest.generation),
            planner,
            maint: MaintSignal::new(),
            wal,
            wal_recovery,
            obs,
            l0_count_hint: AtomicU64::new(0),
            spill_active: AtomicBool::new(false),
            _dir_lock: dir_lock,
            config,
        });
        inner.publish_gauges(&inner.cold_snapshot(), manifest.generation);
        // A large replay can overshoot the watermark before the first
        // write ever runs; spill it down now so reopen converges to the
        // same memory budget a running store honors.
        inner.maybe_spill()?;
        let maintenance = if background {
            let thread_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("pbc-tier-maintenance".into())
                    .spawn(move || maintenance_loop(thread_inner))
                    .map_err(TierError::Io)?,
            )
        } else {
            None
        };
        Ok(TieredStore { inner, maintenance })
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &TierConfig {
        &self.inner.config
    }

    /// The read-through block cache (counters, capacity).
    pub fn cache(&self) -> &BlockCache {
        &self.inner.cache
    }

    /// Hot-tier bytes the watermark governs: stored keys + values +
    /// tombstones.
    pub fn memory_usage_bytes(&self) -> u64 {
        self.inner.memory_usage_bytes()
    }

    /// The lock-free backpressure signals a serving front end samples on
    /// every write (see [`WritePressure`]). Reads only atomics — safe to
    /// call at full admission-control frequency without adding contention
    /// on the store's locks. The L0 count is a mirror refreshed at each
    /// manifest commit, so it can trail the live tier by one in-flight
    /// commit; admission thresholds are coarse by nature, so a
    /// one-commit-stale read is fine.
    pub fn write_pressure(&self) -> WritePressure {
        let inner = &self.inner;
        WritePressure {
            memory_bytes: inner.memory_usage_bytes(),
            watermark_bytes: inner.config.memory_watermark_bytes,
            l0_segments: inner.l0_count_hint.load(Ordering::Relaxed),
            spill_active: inner.spill_active.load(Ordering::Relaxed),
        }
    }

    /// Keys resident in the hot tier.
    pub fn hot_len(&self) -> usize {
        self.inner.hot.len()
    }

    /// Live cold segments across both levels.
    pub fn segment_count(&self) -> usize {
        self.inner.cold.read().len()
    }

    /// Live L0 spill segments.
    pub fn l0_segment_count(&self) -> usize {
        self.inner.cold.read().l0.len()
    }

    /// Live L1 partitions.
    pub fn l1_partition_count(&self) -> usize {
        self.inner.cold.read().l1.len()
    }

    /// The manifest generation the current segment set was committed
    /// under.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Per-segment statistics, L0 newest-first then L1 ascending — what
    /// the compaction planner scores.
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        let (mut l0, mut l1) = self.inner.leveled_stats();
        l0.append(&mut l1);
        l0
    }

    /// Per-level statistics: `(L0 newest first, L1 ascending by key)`.
    /// L1 is always sorted and pairwise non-overlapping.
    pub fn leveled_stats(&self) -> (Vec<SegmentStats>, Vec<SegmentStats>) {
        self.inner.leveled_stats()
    }

    /// A snapshot of the store's counters and cold-tier gauges.
    ///
    /// The five cold-tier gauges and the generation are captured from one
    /// pinned segment-set snapshot (the `Arc` swap that commits publish),
    /// so `l0_segments`/`l1_partitions`/`cold_records`/`cold_tombstones`
    /// and `generation` always describe the *same* committed segment set,
    /// never a half-applied commit — while the O(segments) sums run after
    /// the read lock is released. Counters are
    /// typed views over the metrics registry (all zero when
    /// [`TierConfig::with_metrics`] disabled collection); the gauges are
    /// derived exactly from the live tier either way.
    pub fn stats(&self) -> TierStats {
        let inner = &self.inner;
        let o = &inner.obs;
        // Pin the segment-set snapshot and read the matching generation
        // under the read lock, but do the O(segments) record/tombstone
        // sums *after* dropping it — the snapshot is immutable, so the
        // sums stay exact while writers no longer wait out a stats call
        // proportional to the segment count.
        let (cold, generation) = {
            let guard = inner.cold.read();
            (Arc::clone(&guard), inner.generation.load(Ordering::Relaxed))
        };
        let (cold_records, cold_tombstones, l0_segments, l1_partitions) = (
            cold.iter().map(|seg| seg.records).sum(),
            cold.iter().map(|seg| seg.tombstones).sum(),
            cold.l0.len() as u64,
            cold.l1.len() as u64,
        );
        TierStats {
            hot_hits: o.hot_hits.value(),
            tombstone_negatives: o.tombstone_negatives.value(),
            staging_hits: o.staging_hits.value(),
            cold_gets: o.cold_gets.value(),
            cold_index_only: o.cold_index_only.value(),
            cold_cache_hits: o.cold_cache_hits.value(),
            cold_cache_misses: o.cold_cache_misses.value(),
            cold_segments_scanned: o.cold_segments_scanned.value(),
            range_scans: o.range_scans.value(),
            scan_segments_opened: o.scan_segments_opened.value(),
            scan_blocks_decoded: o.scan_blocks_decoded.value(),
            scan_bytes_decoded: o.scan_bytes_decoded.value(),
            spills: o.spills.value(),
            spilled_entries: o.spilled_entries.value(),
            compactions: o.compactions.value(),
            segments_retired: o.segments_retired.value(),
            background_errors: o.background_errors.value(),
            cold_records,
            cold_tombstones,
            l0_segments,
            l1_partitions,
            generation,
        }
    }

    /// The metrics registry every store counter, gauge, and latency
    /// histogram lives in. Snapshot it and render with
    /// `Snapshot::to_prometheus` / `Snapshot::to_json`:
    ///
    /// ```
    /// # let dir = std::env::temp_dir().join(format!("pbc-tier-metrics-doc-{}", std::process::id()));
    /// # let store = pbc_tier::TieredStore::open(pbc_tier::TierConfig::new(&dir)).unwrap();
    /// store.set(b"k", b"v").unwrap();
    /// store.get(b"k").unwrap();
    /// let snap = store.metrics().snapshot();
    /// assert_eq!(snap.counters["pbc_tier_hot_hits_total"], 1);
    /// assert!(snap.to_prometheus().contains("pbc_tier_put_latency_ns_count 1"));
    /// # drop(store);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn metrics(&self) -> &MetricsRegistry {
        self.inner.obs.registry()
    }

    /// The retained structured trace events (spill, compaction, manifest,
    /// and scan lifecycle; background errors), oldest first. Bounded by
    /// [`TierConfig::with_trace_capacity`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.obs.trace_snapshot()
    }

    /// The last few background-maintenance failures (actual error string,
    /// job description, monotonic timestamp), oldest first — the detail
    /// behind the `background_errors` counter, which on its own only says
    /// *that* something failed. Bounded by
    /// [`TierConfig::with_error_log_capacity`].
    pub fn recent_background_errors(&self) -> Vec<BackgroundErrorRecord> {
        self.inner.obs.background_error_snapshot()
    }

    /// Store a value. Returns the hot-tier stored (encoded) size. May spill
    /// cold shards if the write pushes memory over the watermark.
    pub fn set(&self, key: &[u8], value: &[u8]) -> Result<usize> {
        self.inner.set(key, value)
    }

    /// Fetch a value, reading through hot memory, the spill staging area,
    /// the block cache, L0 segments (newest first), and finally the one
    /// L1 partition covering the key.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    /// Delete a key everywhere. Returns whether it existed (hot, staged, or
    /// cold and not already deleted).
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        self.inner.delete(key)
    }

    /// Stream every live key in `range`, in ascending order, each exactly
    /// once — a k-way merge across the hot tier, the spill staging area,
    /// every intersecting L0 segment (newest first), and the covering L1
    /// partitions, with overwrites and tombstones resolved by tier/recency
    /// precedence. See the [`crate::scan`] module docs for the full
    /// semantics.
    ///
    /// The scan is **snapshot-consistent under concurrent compaction**:
    /// it pins the cold-tier snapshot (and its manifest generation,
    /// [`crate::RangeScan::generation`]) at creation, so jobs can retire
    /// and unlink segments mid-scan without invalidating it. Writes
    /// issued after this call returns are never seen; writes concurrent
    /// with it may or may not be. Cold data is decoded one
    /// footer-selected block at a time through the block cache, never a
    /// whole segment.
    ///
    /// # Examples
    ///
    /// ```
    /// use pbc_tier::{TierConfig, TieredStore};
    ///
    /// let dir = std::env::temp_dir().join(format!("pbc-tier-scan-doc-{}", std::process::id()));
    /// let store = TieredStore::open(
    ///     TierConfig::new(&dir).with_watermark(8 * 1024), // tiny: spills happen mid-loop
    /// ).unwrap();
    /// for i in 0..400u32 {
    ///     store.set(format!("k:{i:05}").as_bytes(), format!("v-{i}").as_bytes()).unwrap();
    /// }
    /// store.delete(b"k:00102").unwrap();
    /// store.set(b"k:00103", b"v-overwritten").unwrap();
    ///
    /// // Keys stream back in order across all tiers; the newest version
    /// // wins and deleted keys are invisible.
    /// let rows: Vec<(Vec<u8>, Vec<u8>)> = store
    ///     .range_scan(&b"k:00100"[..]..=&b"k:00104"[..])
    ///     .unwrap()
    ///     .map(|row| row.unwrap())
    ///     .collect();
    /// let keys: Vec<&[u8]> = rows.iter().map(|(k, _)| k.as_slice()).collect();
    /// assert_eq!(
    ///     keys,
    ///     [b"k:00100".as_slice(), b"k:00101".as_slice(), b"k:00103".as_slice(), b"k:00104".as_slice()],
    /// );
    /// assert_eq!(rows[2].1, b"v-overwritten".to_vec());
    ///
    /// // Unbounded and half-open ranges work too.
    /// assert_eq!(store.range_scan(&b"k:00395"[..]..).unwrap().count(), 5);
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn range_scan<K, R>(&self, range: R) -> Result<crate::scan::RangeScan<'_>>
    where
        K: AsRef<[u8]>,
        R: RangeBounds<K>,
    {
        // Normalize the lower bound to an inclusive key: for byte-string
        // keys the successor of `k` is `k ++ 0x00`, so an excluded start
        // is exact, not approximate.
        let start = match range.start_bound() {
            Bound::Included(k) => k.as_ref().to_vec(),
            Bound::Excluded(k) => {
                let mut successor = k.as_ref().to_vec();
                successor.push(0);
                successor
            }
            Bound::Unbounded => Vec::new(),
        };
        let end = match range.end_bound() {
            Bound::Included(k) => Bound::Included(k.as_ref().to_vec()),
            Bound::Excluded(k) => Bound::Excluded(k.as_ref().to_vec()),
            Bound::Unbounded => Bound::Unbounded,
        };
        self.inner.range_scan(start, end)
    }

    /// Spill the `n` coldest non-empty shards right now, watermark or not.
    /// A no-op when the hot tier is empty.
    pub fn spill_coldest(&self, n: usize) -> Result<()> {
        self.inner.spill_coldest(n)
    }

    /// Spill every hot entry and tombstone, making the whole store durable
    /// (clean-shutdown flush).
    pub fn flush_all(&self) -> Result<()> {
        self.inner.flush_all()
    }

    /// Checkpoint the write-ahead log now: flush the hot tier, write
    /// durable checkpoint markers, and delete every fully-covered log
    /// segment. The synchronous twin of the maintenance thread's
    /// size-triggered checkpoint. `Ok(None)` when the store runs without
    /// a WAL.
    pub fn checkpoint_wal(&self) -> Result<Option<CheckpointSummary>> {
        self.inner.checkpoint_wal()
    }

    /// Current write-ahead-log size and progress (`None` without a WAL).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.inner.wal.as_ref().map(|w| w.stats())
    }

    /// What WAL recovery replayed when this store opened (`None` without
    /// a WAL).
    pub fn wal_recovery(&self) -> Option<RecoveryReport> {
        self.inner.wal_recovery
    }

    /// Run planner-selected compaction jobs until no trigger threshold is
    /// crossed. Returns the number of jobs run. This is the synchronous
    /// twin of the background maintenance thread — useful with background
    /// compaction off, and for deterministic tests. Safe to call from
    /// several threads at once: each caller reserves its job's key range,
    /// so disjoint jobs run and commit concurrently while conflicting
    /// plans fall to whichever caller reserved first.
    pub fn run_pending_compactions(&self) -> Result<usize> {
        self.inner.run_pending_compactions()
    }

    /// Stop the background thread from *starting* new compaction jobs (an
    /// in-flight job still finishes). Pairs with
    /// [`TieredStore::resume_compaction`]; calls nest.
    pub fn pause_compaction(&self) {
        self.inner.maint.pause();
    }

    /// Undo one [`TieredStore::pause_compaction`], waking the maintenance
    /// thread if this was the outermost pause.
    pub fn resume_compaction(&self) {
        self.inner.maint.resume();
    }

    /// Merge **every** cold segment into fresh L1 partitions, dropping
    /// shadowed versions and tombstones and retraining the block codec on
    /// the merged corpus. Reserves the whole key space, waiting for any
    /// in-flight jobs to finish. Still the right call for offline
    /// reorganizations (benchmarks, clean shutdown into a minimal layout).
    pub fn compact(&self) -> Result<CompactionSummary> {
        self.inner.compact()
    }
}

impl TierInner {
    pub(crate) fn config(&self) -> &TierConfig {
        &self.config
    }

    pub(crate) fn maint_signal(&self) -> &MaintSignal {
        &self.maint
    }

    fn memory_usage_bytes(&self) -> u64 {
        self.hot.memory_usage_bytes() + self.hot.tombstone_bytes()
    }

    /// Snapshot the live cold tier (one `Arc` clone; no lock held
    /// afterwards).
    fn cold_snapshot(&self) -> ColdList {
        Arc::clone(&self.cold.read())
    }

    fn leveled_stats(&self) -> (Vec<SegmentStats>, Vec<SegmentStats>) {
        let cold = self.cold_snapshot();
        (
            cold.l0.iter().map(|s| s.stats(LEVEL_L0)).collect(),
            cold.l1.iter().map(|s| s.stats(LEVEL_L1)).collect(),
        )
    }

    fn set(&self, key: &[u8], value: &[u8]) -> Result<usize> {
        // Put latency includes any watermark spill the write triggers —
        // that stall is the write's real cost, so it belongs in the tail.
        let _timer = self.obs.put_ns.start_timer();
        // Insert and tombstone-clear must be one atomic step: done as two,
        // a concurrent delete's tombstone can land in between and be
        // wrongly erased, leaving an older cold value resurrected.
        //
        // With a WAL, the hot-tier mutation runs inside the append's
        // critical section (under the key's WAL shard lock), so same-key
        // operations apply to the hot tier in exactly their LSN order —
        // without that, a concurrent set/delete pair could apply in one
        // order but log in the other, and replay would contradict the
        // acknowledged pre-crash state. The mutation still precedes the
        // LSN assignment inside that section, which keeps checkpoint
        // marks safe: every record at or below a captured mark is
        // already in the hot tier. A crash between the two loses only a
        // write that was never acknowledged.
        let stored = match &self.wal {
            Some(wal) => {
                wal.append_put_with(key, value, || self.hot.set_and_clear_tombstone(key, value))?
                    .0
            }
            None => self.hot.set_and_clear_tombstone(key, value),
        };
        self.maybe_spill()?;
        Ok(stored)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _timer = self.obs.get_ns.start_timer();
        if let Some(value) = self.hot.get(key)? {
            self.obs.hot_hits.inc();
            return Ok(Some(value));
        }
        if self.hot.has_tombstone(key) {
            self.obs.tombstone_negatives.inc();
            return Ok(None);
        }
        if let Some(staged) = self.staging.read().get(key) {
            self.obs.staging_hits.inc();
            return Ok(staged.clone());
        }
        // A failed spill moves staged entries *up*, back into the hot tier
        // — against the read direction. Re-check hot (and its tombstones)
        // after the staging miss, or a racing reader could fall through to
        // cold and see an older version (or a stale None).
        if let Some(value) = self.hot.get(key)? {
            self.obs.hot_hits.inc();
            return Ok(Some(value));
        }
        if self.hot.has_tombstone(key) {
            self.obs.tombstone_negatives.inc();
            return Ok(None);
        }
        self.cold_get(key)
    }

    fn delete(&self, key: &[u8]) -> Result<bool> {
        let _timer = self.obs.delete_ns.start_timer();
        // Probe below the hot tier first: the staging read and the cold
        // lookup can do I/O and must not run under the WAL shard lock
        // held for the mutation step below.
        let mut existed_hot = self.hot.delete(key);
        let existed_below = if self.hot.has_tombstone(key) {
            false // already deleted below the hot map
        } else if let Some(staged) = self.staging.read().get(key) {
            staged.is_some()
        } else {
            // A failed spill can move staged entries back up into the hot
            // tier between our first delete and the staging miss — delete
            // again so the restored copy cannot survive, then consult cold
            // (which may still hold an older, now-shadowable version).
            existed_hot = self.hot.delete(key) || existed_hot;
            self.cold_get(key)?.is_some()
        };
        // The hot-tier mutation and the WAL append run as one atomic
        // step under the key's WAL shard lock (same reasoning as `set`:
        // application order must equal LSN order for same-key ops, and
        // the mutation preceding the LSN assignment keeps checkpoint
        // marks safe). Only deletes that removed something are logged.
        let existed = match &self.wal {
            Some(wal) => {
                wal.append_delete_with(key, || {
                    let existed =
                        self.delete_from_hot(key, existed_below) || existed_hot || existed_below;
                    (existed, existed)
                })?
                .0
            }
            None => self.delete_from_hot(key, existed_below) || existed_hot || existed_below,
        };
        if existed_below {
            // Tombstones count toward the watermark, so a delete-heavy
            // workload must be able to spill them too.
            self.maybe_spill()?;
        }
        Ok(existed)
    }

    /// The hot-tier mutation half of [`TierInner::delete`]: remove the
    /// live copy and, when something below the hot tier holds the key,
    /// shadow it with a tombstone. Returns whether anything was removed
    /// from the hot tier here.
    fn delete_from_hot(&self, key: &[u8], existed_below: bool) -> bool {
        let mut existed_hot = self.hot.delete(key);
        if existed_below {
            // Shadow the cold copy until a spill makes the delete durable.
            self.hot.record_tombstone(key);
            // A failed-spill restore racing this delete can re-insert the
            // drained copy after our staging check but before the
            // tombstone landed. The tombstone now blocks further
            // conditional re-inserts, so one tombstone-guarded delete
            // leaves the key dead — and, unlike a blind delete, spares a
            // value a concurrent newer SET stored (its atomic
            // tombstone-clear makes the guard fail).
            existed_hot = self.hot.delete_if_tombstoned(key) || existed_hot;
        }
        existed_hot
    }

    /// Cold lookup through the block cache over a lock-free snapshot of
    /// the cold tier (concurrent compaction may retire segments out from
    /// under us; our snapshot keeps their readers alive and answers
    /// identically, since a merged output is observationally equal to its
    /// inputs).
    fn cold_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let cold = self.cold_snapshot();
        if cold.is_empty() {
            return Ok(None);
        }
        let mut probes = BlockProbes::default();
        let outcome = self.cold_lookup(&cold, key, &mut probes);
        self.obs.cold_segments_scanned.add(probes.segments as u64);
        if probes.probed == 0 {
            // Answered by the footer indexes alone (key outside every
            // block's range) — the cache was never consulted, so this is
            // neither a cache hit nor a miss.
            self.obs.cold_index_only.inc();
        } else {
            self.obs.cold_gets.inc();
            if probes.missed {
                self.obs.cold_cache_misses.inc();
            } else {
                self.obs.cold_cache_hits.inc();
            }
        }
        outcome
    }

    /// Walk L0 newest-first, then binary-search the one L1 partition whose
    /// range covers the key — O(L0) + O(log L1), not O(segments).
    fn cold_lookup(
        &self,
        cold: &ColdTier,
        key: &[u8],
        probes: &mut BlockProbes,
    ) -> Result<Option<Vec<u8>>> {
        for segment in &cold.l0 {
            probes.segments += 1;
            // Duplicate keys may straddle block borders; newest-wins means
            // scanning candidates back to front.
            for block in segment.reader.candidate_blocks_for_key(key)?.rev() {
                let entries = self.cached_block(segment, block, probes)?;
                if let Some(stored) = find_last(&entries, key) {
                    return decode_marked(stored);
                }
            }
        }
        let idx = cold.l1.partition_point(|p| p.max_key.as_slice() < key);
        if let Some(partition) = cold.l1.get(idx) {
            if partition.min_key.as_slice() <= key {
                probes.segments += 1;
                for block in partition.reader.candidate_blocks_for_key(key)?.rev() {
                    let entries = self.cached_block(partition, block, probes)?;
                    if let Some(stored) = find_last(&entries, key) {
                        return decode_marked(stored);
                    }
                }
            }
        }
        Ok(None)
    }

    /// Build a [`crate::scan::RangeScan`] over `[start, end]` (`start` is
    /// already an inclusive key; `end` carries its exact bound).
    ///
    /// Snapshot order is what makes the scan lose nothing to concurrent
    /// tier movement:
    ///
    /// 1. **Hot and staging are snapshotted under one staging read
    ///    guard.** A spill drain (hot → staging) and a failed-spill
    ///    restore (staging → hot) both hold the staging *write* lock for
    ///    the whole move, so under our read guard no entry can cross the
    ///    hot↔staging boundary between the two snapshots.
    /// 2. **Cold is snapshotted after staging.** Data leaves staging only
    ///    *after* its segment is published in the cold tier (spill step 5
    ///    clears staging after steps 3–4 commit), so an entry missing
    ///    from our staging snapshot is already in the cold snapshot we
    ///    take next. The duplicate case (published cold while still
    ///    staged) is harmless: staging outranks cold in the merge and
    ///    both copies are identical.
    pub(crate) fn range_scan(
        &self,
        start: Vec<u8>,
        end: Bound<Vec<u8>>,
    ) -> Result<crate::scan::RangeScan<'_>> {
        self.obs.range_scans.inc();
        // A provably empty interval: nothing to snapshot (and BTreeMap's
        // range would reject the inverted bounds).
        let empty = match &end {
            Bound::Included(e) => start.as_slice() > e.as_slice(),
            Bound::Excluded(e) => start.as_slice() >= e.as_slice(),
            Bound::Unbounded => false,
        };
        if empty {
            return Ok(crate::scan::RangeScan::empty(
                self.generation.load(Ordering::Relaxed),
            ));
        }
        let end_superset: Option<&[u8]> = match &end {
            Bound::Included(e) | Bound::Excluded(e) => Some(e.as_slice()),
            Bound::Unbounded => None,
        };
        let (hot_encoded, staged) = {
            let staging = self.staging.read();
            // Encoded clones only: hot values are decoded lazily by the
            // scan's hot source, after the staging guard (and every shard
            // lock) is released — a wide scan never stalls spill drains
            // or writers for the length of a decompression pass, and an
            // early-terminated scan decodes only what it yields.
            let hot_encoded = self.hot.range_snapshot_encoded(&start, end_superset);
            let staged: Vec<(Vec<u8>, Option<Vec<u8>>)> = staging
                .range::<[u8], _>((
                    Bound::Included(start.as_slice()),
                    match end_superset {
                        Some(e) => Bound::Included(e),
                        None => Bound::Unbounded,
                    },
                ))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            (hot_encoded, staged)
        };
        // Pin the cold tier and its generation together (same pairing as
        // `stats()`): the snapshot outlives any concurrent retirement.
        let (pinned, generation) = {
            let cold = self.cold.read();
            (Arc::clone(&cold), self.generation.load(Ordering::Relaxed))
        };
        crate::scan::RangeScan::new(self, start, end, hot_encoded, staged, pinned, generation)
    }

    /// Count one segment footer consulted by a range scan.
    pub(crate) fn note_scan_segment_opened(&self) {
        self.obs.scan_segments_opened.inc();
    }

    /// Trace a scan opening over `segments` intersecting cold segments,
    /// and start its open-to-close latency timer.
    pub(crate) fn note_scan_opened(&self, segments: usize) -> pbc_obs::Timer {
        self.obs.trace(Event::ScanOpened { segments });
        self.obs.scan_ns.start_timer()
    }

    /// Trace a scan being dropped, with what it did.
    pub(crate) fn note_scan_closed(&self, rows: u64, blocks_decoded: u64) {
        self.obs.trace(Event::ScanClosed {
            rows,
            blocks_decoded,
        });
    }

    /// Decode one hot-tier stored value (the scan's hot source decodes
    /// lazily, long after the snapshot's locks were released).
    pub(crate) fn decode_hot(&self, stored: &[u8]) -> Result<Vec<u8>> {
        self.hot.codec().decode(stored).map_err(Into::into)
    }

    /// The one cache read-through path: look the block up, decode it from
    /// disk on a miss, and publish it to the cache when `publish` is set.
    /// Returns the entries and whether a disk decode happened.
    fn lookup_or_decode_block(
        &self,
        segment: &ColdSegment,
        block: usize,
        publish: bool,
    ) -> Result<(Arc<Vec<Entry>>, bool)> {
        let cache_key = (segment.id, block);
        if let Some(entries) = self.cache.get(cache_key) {
            return Ok((entries, false));
        }
        // Fetch latency is miss-path only: a hit costs one map lookup and
        // timing it would drown the histogram in nanosecond noise.
        let entries = {
            let _timer = self.obs.cache_fetch_ns.start_timer();
            Arc::new(segment.reader.read_block(block)?)
        };
        if publish {
            self.cache.insert(cache_key, Arc::clone(&entries));
        }
        Ok((entries, true))
    }

    /// Fetch one decoded block for a range scan pinned at
    /// `pinned_generation`, consulting the cache first and counting disk
    /// decodes toward the scan gauges; returns the entries and whether a
    /// disk decode happened (so the scan can count its own decodes for
    /// its close event). Decoded blocks are published to the cache only
    /// while the pinned snapshot is still the live one: once a commit
    /// supersedes it, the scan's segments may already be retired, and
    /// caching blocks under retired ids would spend the bytes-bounded
    /// budget on entries no future lookup can hit.
    pub(crate) fn scan_block(
        &self,
        segment: &ColdSegment,
        block: usize,
        pinned_generation: u64,
    ) -> Result<(Arc<Vec<Entry>>, bool)> {
        let live = self.generation.load(Ordering::Relaxed) == pinned_generation;
        let (entries, decoded) = self.lookup_or_decode_block(segment, block, live)?;
        if decoded {
            self.obs.scan_blocks_decoded.inc();
            self.obs
                .scan_bytes_decoded
                .add(crate::cache::entries_bytes(&entries) as u64);
        }
        Ok((entries, decoded))
    }

    /// Fetch one decoded block for a point lookup, consulting the cache
    /// first.
    fn cached_block(
        &self,
        segment: &ColdSegment,
        block: usize,
        probes: &mut BlockProbes,
    ) -> Result<Arc<Vec<Entry>>> {
        probes.probed += 1;
        let (entries, decoded) = self.lookup_or_decode_block(segment, block, true)?;
        if decoded {
            probes.missed = true;
        }
        Ok(entries)
    }

    /// Spill if the hot tier crossed the watermark: evict the coldest
    /// shards (by last-access epoch) into a segment until usage is back at
    /// the spill target.
    fn maybe_spill(&self) -> Result<()> {
        if self.memory_usage_bytes() <= self.config.memory_watermark_bytes {
            return Ok(());
        }
        let _guard = self.spill_lock.lock();
        let _active = SpillActiveGuard::arm(&self.spill_active);
        // Re-check: another thread may have spilled while we waited.
        while self.memory_usage_bytes() > self.config.memory_watermark_bytes {
            let victims = self.pick_victims(self.config.spill_target_bytes());
            if victims.is_empty() {
                break;
            }
            self.spill_shards(&victims)?;
        }
        Ok(())
    }

    fn spill_coldest(&self, n: usize) -> Result<()> {
        let _guard = self.spill_lock.lock();
        let _active = SpillActiveGuard::arm(&self.spill_active);
        let mut victims = self.shards_coldest_first();
        victims.truncate(n);
        if victims.is_empty() {
            return Ok(());
        }
        self.spill_shards(&victims)
    }

    fn flush_all(&self) -> Result<()> {
        let _guard = self.spill_lock.lock();
        let _active = SpillActiveGuard::arm(&self.spill_active);
        let victims = self.shards_coldest_first();
        if victims.is_empty() {
            return Ok(());
        }
        self.spill_shards(&victims)
    }

    /// Checkpoint the WAL: capture per-shard marks, spill everything the
    /// marks cover (every record at or below a mark is already in the hot
    /// tier — writes mutate hot before they append), then write durable
    /// markers stamped with the manifest generation that made the spill
    /// visible and delete the sealed segments the marks fully cover.
    /// `Ok(None)` when the store runs without a WAL.
    pub(crate) fn checkpoint_wal(&self) -> Result<Option<CheckpointSummary>> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        let marks = wal.capture_marks();
        self.flush_all()?;
        // Read the generation *after* the flush: it is the generation
        // whose manifest references every spilled record, so recovery
        // trusts the marker exactly when that data is visible.
        let generation = self.generation.load(Ordering::SeqCst);
        Ok(Some(wal.checkpoint(&marks, generation)?))
    }

    /// WAL maintenance: the periodic-durability fsync tick, plus an
    /// automatic checkpoint once the log crosses its configured size
    /// threshold. Returns `false` when something failed (counted and
    /// retained like any background error).
    fn wal_pass(&self) -> bool {
        let Some(wal) = &self.wal else {
            return true;
        };
        if let Err(e) = wal.tick() {
            self.obs.background_errors.inc();
            self.obs
                .record_background_error("wal periodic sync".into(), e.to_string());
            return false;
        }
        let threshold = self
            .config
            .wal
            .as_ref()
            .map_or(u64::MAX, |w| w.checkpoint_bytes);
        if wal.stats().bytes >= threshold {
            if let Err(e) = self.checkpoint_wal() {
                self.obs.background_errors.inc();
                self.obs
                    .record_background_error("wal checkpoint".into(), e.to_string());
                return false;
            }
        }
        true
    }

    /// Non-empty shards ordered coldest (smallest access epoch) first.
    fn shards_coldest_first(&self) -> Vec<usize> {
        let mut shards: Vec<(u64, usize)> = (0..self.hot.shard_count())
            .filter(|&idx| {
                self.hot.shard_memory_bytes(idx) + self.hot.shard_tombstone_bytes(idx) > 0
            })
            .map(|idx| (self.hot.shard_access_epoch(idx), idx))
            .collect();
        shards.sort_unstable();
        shards.into_iter().map(|(_, idx)| idx).collect()
    }

    /// Coldest shards whose eviction brings usage down to `target_bytes`.
    fn pick_victims(&self, target_bytes: u64) -> Vec<usize> {
        let mut victims = Vec::new();
        let mut projected = self.memory_usage_bytes();
        for idx in self.shards_coldest_first() {
            if projected <= target_bytes && !victims.is_empty() {
                break;
            }
            projected = projected.saturating_sub(
                self.hot.shard_memory_bytes(idx) + self.hot.shard_tombstone_bytes(idx),
            );
            victims.push(idx);
        }
        victims
    }

    /// Drain `victims` into one new L0 segment and commit it.
    ///
    /// Ordering is what makes this crash-safe: (1) drained entries become
    /// readable via staging before the shard locks release, (2) the segment
    /// is written and fsynced, (3) the manifest swaps atomically under the
    /// next generation, (4) the reader is published, (5) staging clears. A
    /// failure after (1) puts the drained data back into the hot tier.
    fn spill_shards(&self, victims: &[usize]) -> Result<()> {
        let timer = self.obs.spill_ns.start_timer();
        self.obs.trace(Event::SpillStarted {
            shards: victims.len(),
        });
        // (1) Drain *into* staging under its write lock: a concurrent
        // reader that missed the hot tier blocks on staging until the
        // drain finishes. Staging (a sorted map) is the one and only copy
        // of the drained data — the segment writer streams straight from
        // it, so a spill never doubles the memory it is trying to free.
        let drain_result = {
            let mut staging = self.staging.write();
            debug_assert!(staging.is_empty(), "spills are serialized");
            let mut failure = None;
            // Tombstones are counted as the drains hand them over (this
            // is the spill's per-segment metadata); shards partition the
            // keyspace and a key is never both stored and tombstoned, so
            // the sum matches what staging ends up holding.
            let mut tombstones = 0u64;
            for &idx in victims {
                match self.hot.take_shard(idx) {
                    Ok(drain) => {
                        tombstones += drain.tombstone_count() as u64;
                        for key in drain.tombstones {
                            staging.insert(key, None);
                        }
                        for (key, value) in drain.entries {
                            staging.insert(key, Some(value));
                        }
                    }
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            debug_assert_eq!(
                tombstones,
                staging.values().filter(|v| v.is_none()).count() as u64,
                "drain counts agree with staged contents"
            );
            match failure {
                Some(e) => Err(e),
                None => Ok((staging.len(), tombstones)),
            }
        };
        let (staged_count, tombstones) = match drain_result {
            Ok(counts) => counts,
            Err(e) => {
                self.restore_staging_to_hot();
                return Err(e.into());
            }
        };
        if staged_count == 0 {
            timer.cancel();
            return Ok(());
        }

        // (2) Write and fsync the segment, streaming from staging under a
        // read guard (concurrent gets still read staging freely). The
        // spill's key range is read off the sorted map's ends; staging is
        // non-empty here, so the bounds are real keys.
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let file_name = segment_file_name(id);
        let path = self.config.dir.join(&file_name);
        let (written, min_key, max_key) = {
            let staging = self.staging.read();
            // pbc-allow(panic): spill_shards only runs on a non-empty staging shard
            let min_key = staging.keys().next().cloned().expect("staging non-empty");
            let max_key = staging
                .keys()
                .next_back()
                .cloned()
                // pbc-allow(panic): spill_shards only runs on a non-empty staging shard
                .expect("staging non-empty");
            (self.write_spill_segment(&path, &staging), min_key, max_key)
        };
        // The written-byte count comes from the writer itself (it just
        // fsynced the file) — never from a re-stat whose transient failure
        // would silently record a 0-byte segment.
        let segment = match written.and_then(|summary| {
            SegmentReader::open_with(&path, self.config.segment.read_mode)
                .map(|mut r| {
                    r.set_obs(self.obs.reader.clone());
                    (summary, r)
                })
                .map_err(Into::into)
        }) {
            Ok((summary, reader)) => Arc::new(ColdSegment {
                id,
                file_name,
                reader,
                records: staged_count as u64,
                tombstones,
                bytes: summary.file_bytes,
                min_key,
                max_key,
            }),
            Err(e) => {
                // Put the data back; the half-written file is debris.
                self.restore_staging_to_hot();
                // pbc-allow(drop-result): failed-spill cleanup; the half-written segment is unreachable debris
                let _ = std::fs::remove_file(&path);
                return Err(e);
            }
        };

        // (3) + (4) Swap the manifest under the next generation, then
        // publish the new tier. The commit lock (not the cold write lock)
        // covers the slow manifest fsync; the successor tier cannot go
        // stale in between because every segment-set mutation commits
        // under this same lock.
        {
            let _commit = self.commit_lock.lock();
            let current = self.cold_snapshot();
            let mut l0: Vec<Arc<ColdSegment>> = Vec::with_capacity(current.l0.len() + 1);
            l0.push(Arc::clone(&segment));
            l0.extend(current.l0.iter().cloned());
            let tier = Arc::new(ColdTier {
                l0,
                l1: current.l1.clone(),
            });
            let generation = match self.commit_tier(&tier) {
                Ok(generation) => generation,
                Err(e) => {
                    self.restore_staging_to_hot();
                    // pbc-allow(drop-result): failed-commit cleanup; the old manifest is still live and does not name this file
                    let _ = std::fs::remove_file(self.config.dir.join(&segment.file_name));
                    return Err(e);
                }
            };
            {
                let mut cold = self.cold.write();
                *cold = Arc::clone(&tier);
                self.generation.store(generation, Ordering::Relaxed);
            }
            self.publish_gauges(&tier, generation);
            self.obs.trace(Event::ManifestGeneration { generation });
        }

        // (5) The data is durable and readable from cold; staging retires.
        self.staging.write().clear();
        self.obs.spills.inc();
        self.obs.spilled_entries.add(staged_count as u64);
        self.obs.trace(Event::SpillFinished {
            segment_id: id,
            records: staged_count as u64 - tombstones,
            tombstones,
            bytes: segment.bytes,
        });
        timer.observe();
        // A new segment may have crossed a planner threshold — let the
        // maintenance thread check without waiting for its tick.
        self.maint.notify();
        Ok(())
    }

    /// Publish the cold-tier gauges for a just-committed segment set.
    /// Called outside the `cold` write lock — the gauges are advisory
    /// (exported snapshots), while [`TieredStore::stats`] derives its
    /// gauges from the live tier under the read lock and stays exact.
    fn publish_gauges(&self, tier: &ColdTier, generation: u64) {
        self.obs
            .cold_records
            .set(tier.iter().map(|s| s.records).sum());
        self.obs
            .cold_tombstones
            .set(tier.iter().map(|s| s.tombstones).sum());
        self.obs.l0_segments.set(tier.l0.len() as u64);
        self.obs.l1_partitions.set(tier.l1.len() as u64);
        self.obs.generation.set(generation);
        // The registry gauge above can be a no-op (metrics disabled), so
        // the write-pressure hook keeps its own mirror.
        self.l0_count_hint
            .store(tier.l0.len() as u64, Ordering::Relaxed);
    }

    /// Write the manifest for `tier` under the next generation and return
    /// that generation. Callers must hold `commit_lock` (it serializes
    /// generation bumps and successor-tier construction) and store the
    /// returned generation into `self.generation` **under the `cold`
    /// write lock, together with the tier swap** — so any reader holding
    /// `cold.read()` sees a generation that matches the segment set it is
    /// looking at.
    fn commit_tier(&self, tier: &ColdTier) -> Result<u64> {
        debug_assert!(tier.check_l1_invariant().is_ok());
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        tier.manifest(generation).store_checked(&self.config.dir)?;
        Ok(generation)
    }

    /// The codec spill segments are written with. With codec reuse on,
    /// select once over sample blocks of the first spill's (marker-encoded)
    /// data and pin it; otherwise defer to the configured `SegmentConfig`.
    fn spill_codec_spec(&self, merged: &BTreeMap<Vec<u8>, Option<Vec<u8>>>) -> CodecSpec {
        if !self.config.reuse_spill_codec {
            return self.config.segment.codec.clone();
        }
        let mut cached = self.spill_codec.lock();
        if let Some(shared) = cached.as_ref() {
            return CodecSpec::Pretrained(shared.codec.clone());
        }
        // Pass 1: the block boundaries the writer will produce, computed
        // with the writer's own rule (entry_size_estimate + block_is_full)
        // so sampling stays aligned with real blocks — the +1 is the
        // tombstone-marker byte prepended to every stored value.
        let mut block_starts = vec![0usize];
        let mut current_bytes = 0usize;
        let mut current_records = 0usize;
        for (n, (key, value)) in merged.iter().enumerate() {
            let stored_len = 1 + value.as_ref().map_or(0, |v| v.len());
            current_bytes += pbc_archive::entry_size_estimate(key.len(), stored_len);
            current_records += 1;
            if self
                .config
                .segment
                .block_is_full(current_records, current_bytes)
            {
                block_starts.push(n + 1);
                current_bytes = 0;
                current_records = 0;
            }
        }
        // pbc-allow(panic): block_starts is seeded with one entry before the loop
        if block_starts.len() > 1 && *block_starts.last().expect("non-empty") == merged.len() {
            block_starts.pop();
        }
        // Pass 2: materialize only the sampled blocks, in one walk over
        // the map (sampled indices are sorted, so each entry belongs to at
        // most the "current" sampled range).
        let sampled = pbc_archive::spread_sample_indices(
            block_starts.len(),
            self.config.segment.auto_sample_blocks.max(1),
        );
        let ranges: Vec<(usize, usize)> = sampled
            .iter()
            .map(|&b| {
                (
                    block_starts[b],
                    block_starts.get(b + 1).copied().unwrap_or(merged.len()),
                )
            })
            .collect();
        let mut sample_blocks: Vec<Vec<Entry>> = ranges.iter().map(|_| Vec::new()).collect();
        let mut range_idx = 0usize;
        for (n, (key, value)) in merged.iter().enumerate() {
            while range_idx < ranges.len() && n >= ranges[range_idx].1 {
                range_idx += 1;
            }
            let Some(&(start, _)) = ranges.get(range_idx) else {
                break;
            };
            if n >= start {
                let stored = match value {
                    Some(value) => encode_live(value),
                    None => encode_tombstone(),
                };
                sample_blocks[range_idx].push((key.clone(), stored));
            }
        }
        let selected = self.select_codec(sample_blocks, None);
        let spec = CodecSpec::Pretrained(selected.codec.clone());
        *cached = Some(selected);
        spec
    }

    /// Trial-select a codec over `samples` — unless they equal the blocks
    /// `known` was selected on, in which case selection (deterministic)
    /// would return `known` again and is skipped.
    fn select_codec(
        &self,
        samples: Vec<Vec<Entry>>,
        known: Option<&SelectedCodec>,
    ) -> SelectedCodec {
        if let Some(known) = known.filter(|known| known.samples == samples) {
            self.obs.codec_selections_reused.inc();
            return known.clone();
        }
        let timer = self.obs.codec_selection_ns.start_timer();
        let refs: Vec<&[Entry]> = samples.iter().map(|b| b.as_slice()).collect();
        let codec = select_codec_over_blocks(&refs);
        timer.observe();
        self.obs.codec_selections.inc();
        SelectedCodec { codec, samples }
    }

    fn write_spill_segment(
        &self,
        path: &std::path::Path,
        merged: &BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    ) -> Result<pbc_archive::SegmentSummary> {
        let config = pbc_archive::SegmentConfig {
            codec: self.spill_codec_spec(merged),
            ..self.config.segment.clone()
        };
        let mut writer =
            pbc_archive::SegmentWriter::create_with_obs(path, config, self.obs.writer.clone())?;
        for (key, value) in merged {
            match value {
                Some(value) => writer.append(key, &encode_live(value))?,
                // Flagged, so the footer (and from it the planner) can
                // count this segment's dead entries without decoding.
                None => writer.append_flagged(key, &encode_tombstone())?,
            }
        }
        Ok(writer.finish()?)
    }

    /// Undo a failed spill: move staged entries and tombstones back into
    /// the hot tier. Conditional inserts only — a write or delete
    /// acknowledged *while* the spill ran is newer than the drained copy
    /// and must not be clobbered or resurrected.
    fn restore_staging_to_hot(&self) {
        let mut staging = self.staging.write();
        for (key, value) in std::mem::take(&mut *staging) {
            match value {
                Some(value) => {
                    self.hot.set_if_absent(&key, &value);
                }
                None => {
                    self.hot.record_tombstone_if_absent(&key);
                }
            }
        }
    }

    /// Plan the best job against current stats and reservations.
    fn plan_next(&self) -> Option<CompactionJob> {
        let (l0, l1) = self.leveled_stats();
        let reserved = self.reservations.snapshot();
        self.planner.plan(&l0, &l1, &reserved)
    }

    /// One background maintenance pass: WAL upkeep (periodic fsync,
    /// threshold checkpoint), then planned compaction jobs until no
    /// trigger remains or shutdown/pause intervenes. Returns `false` when
    /// anything errored (counted; the maintenance loop backs off before
    /// retrying).
    pub(crate) fn background_pass(&self) -> bool {
        if !self.wal_pass() {
            return false;
        }
        while !self.maint.is_shutdown() && !self.maint.is_paused() {
            let Some(job) = self.plan_next() else {
                return true;
            };
            match self.run_job(&job) {
                // On a lost reservation race (`Ok(None)`), replan right
                // away: the planner sees the now-claimed range and either
                // proposes disjoint work or returns `None`, so this never
                // spins against the winning compactor.
                Ok(Some(_)) | Ok(None) => continue,
                Err(e) => {
                    self.obs.background_errors.inc();
                    // Keep the actual error, not just the count: the ring
                    // retains what failed and why for later inspection.
                    self.obs
                        .record_background_error(describe_job(&job), e.to_string());
                    return false;
                }
            }
        }
        true
    }

    fn run_pending_compactions(&self) -> Result<usize> {
        let mut jobs = 0usize;
        let mut lost_races = 0usize;
        // Every job shrinks the segment count or drains tombstones, so
        // planning converges; the caps are backstops against planner
        // bugs, not tuning knobs.
        while jobs < 1_000 && lost_races < 1_000 {
            let Some(job) = self.plan_next() else {
                break;
            };
            if self.run_job(&job)?.is_none() {
                // Another compactor reserved this range or retired these
                // inputs between our plan and our reservation. Replan:
                // the next pass sees the claimed range (and the updated
                // tier), so it finds disjoint work or cleanly runs out —
                // the documented contract is to drain every crossed
                // trigger, not to stop at the first lost race.
                lost_races += 1;
                continue;
            }
            jobs += 1;
        }
        Ok(jobs)
    }

    /// Run one planned job under a key-range reservation. Returns
    /// `Ok(None)` when the job went stale — its range is reserved by a
    /// concurrent job, or its inputs no longer match the live tier —
    /// which is not an error: the caller simply replans against current
    /// state.
    fn run_job(&self, job: &CompactionJob) -> Result<Option<CompactionSummary>> {
        let Some(_reservation) = self.reservations.try_reserve(job.range.clone()) else {
            self.obs.trace(Event::CompactionAborted {
                reason: "key range reserved by a concurrent job".into(),
            });
            return Ok(None);
        };
        self.run_job_reserved(job)
    }

    /// The reserved body of [`TierInner::run_job`]: validate the plan
    /// against the live tier, merge, and commit "retire inputs, add
    /// output partitions" as one generation bump. Caller holds the job's
    /// key-range reservation, which is what licenses every unsynchronized
    /// step here: no concurrent job can touch segments inside the range.
    fn run_job_reserved(&self, job: &CompactionJob) -> Result<Option<CompactionSummary>> {
        let snapshot = self.cold_snapshot();
        let Some((l0_run, l1_run)) = validate_job(&snapshot, job) else {
            self.obs.trace(Event::CompactionAborted {
                reason: "plan went stale: inputs no longer contiguous in the live tier".into(),
            });
            return Ok(None);
        };
        self.obs.trace(Event::CompactionPlanned {
            l0_inputs: job.l0_inputs.len(),
            l1_inputs: job.l1_inputs.len(),
            min_key: job.range.min.clone(),
            max_key: job.range.max.clone(),
        });
        let run_segments: Vec<Arc<ColdSegment>> = snapshot.l0[l0_run.clone()]
            .iter()
            .chain(snapshot.l1[l1_run.clone()].iter())
            .cloned()
            .collect();
        // Newest-first merge rank: the L0 run in recency order, then the
        // L1 partitions (their versions are older than any L0 version of
        // the same key — the leveling invariant).
        let readers: Vec<&SegmentReader> = run_segments.iter().map(|s| &s.reader).collect();
        // Retraining policy (the LeCo flow: retrain lightweight codecs on
        // stable, merged runs): full candidate selection costs seconds of
        // CPU, so only jobs rewriting the majority of cold records — big,
        // stable runs that are representative of the corpus — retrain and
        // refresh the shared spill codec. Small incremental jobs reuse the
        // shared codec; their per-block raw fallback bounds any drift
        // until the next big merge retrains.
        let run_records: u64 = run_segments.iter().map(|s| s.records).sum();
        let total_records: u64 = snapshot.iter().map(|s| s.records).sum();
        // A retraining job whose samples are exactly the blocks the shared
        // codec was selected on reuses it instead (`select_codec`).
        let shared = self.spill_codec.lock().clone();
        let select = |samples| self.select_codec(samples, shared.as_ref());
        let codec = match &shared {
            Some(shared) if self.config.reuse_spill_codec && run_records * 2 < total_records => {
                MergeCodec::Use(CodecSpec::Pretrained(shared.codec.clone()))
            }
            _ => MergeCodec::Select(&select),
        };
        // Only committed jobs land in the histogram — aborted and failed
        // ones would skew it with durations of work that produced nothing.
        let timer = self.obs.compaction_ns.start_timer();
        let result = self.merge_and_commit(job, &readers, codec);
        match &result {
            Ok(Some(_)) => timer.observe(),
            _ => timer.cancel(),
        }
        result
    }

    /// Merge `readers` into split L1 partitions and commit the swap.
    fn merge_and_commit(
        &self,
        job: &CompactionJob,
        readers: &[&SegmentReader],
        codec: MergeCodec<'_>,
    ) -> Result<Option<CompactionSummary>> {
        let dir = self.config.dir.clone();
        let next_id = &self.next_segment_id;
        let mut next_output = || {
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            let name = segment_file_name(id);
            let path = dir.join(&name);
            (id, name, path)
        };
        // Consolidation jobs must merge to exactly one partition (their
        // qualifying threshold is compressed bytes; re-splitting on the
        // raw-byte boundary could re-create the small partitions the
        // planner just targeted, and it would re-plan them forever).
        let split_bytes = job
            .split_outputs
            .then(|| self.config.planner.target_partition_bytes.max(1));
        let outcome = merge_segments(
            readers,
            &self.config.segment,
            job.drop_tombstones,
            codec,
            split_bytes,
            &self.obs.writer,
            &mut next_output,
        )?;

        // Open a reader per output partition; on failure, no manifest
        // names any of them yet, so remove them all.
        let mut replacements: Vec<Arc<ColdSegment>> = Vec::with_capacity(outcome.outputs.len());
        for output in &outcome.outputs {
            let mut reader =
                match SegmentReader::open_with(&output.path, self.config.segment.read_mode) {
                    Ok(reader) => reader,
                    Err(e) => {
                        for output in &outcome.outputs {
                            // pbc-allow(drop-result): failed-open cleanup; the outputs are unreachable debris
                            let _ = std::fs::remove_file(&output.path);
                        }
                        return Err(e.into());
                    }
                };
            reader.set_obs(self.obs.reader.clone());
            replacements.push(Arc::new(ColdSegment {
                id: output.id,
                file_name: output.file_name.clone(),
                records: output.summary.record_count,
                tombstones: output.tombstones_kept,
                bytes: output.summary.file_bytes,
                min_key: reader.min_key().unwrap_or_default().to_vec(),
                max_key: reader.max_key().unwrap_or_default().to_vec(),
                reader,
            }));
        }

        // Commit: rebuild the tier with the inputs replaced by the output
        // partitions. Concurrent spills may have prepended L0 segments and
        // disjoint jobs may have rewritten other ranges since our snapshot
        // — relocate the inputs in the *current* tier (inside our reserved
        // range nothing can have touched them; if they are gone anyway,
        // the plan was stale before we reserved). The commit lock covers
        // the slow manifest fsync; the cold write lock is held only for
        // the pointer swap, so readers never wait on the fsync.
        let remove_outputs = |outputs: &[crate::compact::MergeOutput]| {
            for output in outputs {
                // pbc-allow(drop-result): failed-open cleanup; the outputs are unreachable debris
                let _ = std::fs::remove_file(&output.path);
            }
        };
        let (retired, generation): (Vec<Arc<ColdSegment>>, u64) = {
            let _commit = self.commit_lock.lock();
            let current = self.cold_snapshot();
            let Some((l0_run, l1_run)) = validate_job(&current, job) else {
                self.obs.trace(Event::CompactionAborted {
                    reason: "plan went stale at commit: inputs already retired".into(),
                });
                remove_outputs(&outcome.outputs);
                return Ok(None);
            };
            let mut l0: Vec<Arc<ColdSegment>> = Vec::with_capacity(current.l0.len() - l0_run.len());
            l0.extend(current.l0[..l0_run.start].iter().cloned());
            l0.extend(current.l0[l0_run.end..].iter().cloned());
            let mut l1: Vec<Arc<ColdSegment>> =
                Vec::with_capacity(current.l1.len() - l1_run.len() + replacements.len());
            l1.extend(current.l1[..l1_run.start].iter().cloned());
            l1.extend(current.l1[l1_run.end..].iter().cloned());
            // The merge emits keys in ascending order, so `replacements`
            // is ascending and disjoint; splice it in at its sorted
            // position.
            if let Some(first) = replacements.first() {
                let at = l1.partition_point(|p| p.max_key < first.min_key);
                l1.splice(at..at, replacements.iter().cloned());
            }
            let tier = Arc::new(ColdTier { l0, l1 });
            if let Err(context) = tier.check_l1_invariant() {
                remove_outputs(&outcome.outputs);
                return Err(TierError::ManifestCorrupt { context });
            }
            let generation = match self.commit_tier(&tier) {
                Ok(generation) => generation,
                Err(e) => {
                    remove_outputs(&outcome.outputs);
                    return Err(e);
                }
            };
            let retired: Vec<Arc<ColdSegment>> = current.l0[l0_run.clone()]
                .iter()
                .chain(current.l1[l1_run.clone()].iter())
                .cloned()
                .collect();
            {
                let mut cold = self.cold.write();
                *cold = Arc::clone(&tier);
                self.generation.store(generation, Ordering::Relaxed);
            }
            self.publish_gauges(&tier, generation);
            self.obs.trace(Event::ManifestGeneration { generation });
            (retired, generation)
        };

        // The inputs are retired: invalidate their cached blocks and
        // unlink their files. In-flight reads over older snapshots still
        // hold the readers (open fds), so they finish correctly; retired
        // segment ids are never reused, so a late cache insert under a
        // retired id can serve no future lookup and simply ages out by
        // LRU.
        self.cache
            .evict_segments(retired.iter().map(|s| s.id).collect::<Vec<_>>().as_slice());
        for segment in &retired {
            // pbc-allow(drop-result): retired segments are removed best-effort after the commit; recovery sweeps leftovers
            let _ = std::fs::remove_file(self.config.dir.join(&segment.file_name));
        }
        self.obs.segments_retired.add(retired.len() as u64);
        // This job retrained on its merged run: future spills reuse the
        // fresher codec (per job, not per full rewrite).
        if let Some(codec) = outcome.codec {
            *self.spill_codec.lock() = Some(codec);
        }
        self.obs.compactions.inc();
        self.obs.trace(Event::CompactionCommitted {
            generation,
            inputs: retired.len(),
            outputs: outcome.outputs.len(),
            input_bytes: retired.iter().map(|s| s.bytes).sum(),
            output_bytes: outcome.outputs.iter().map(|o| o.summary.file_bytes).sum(),
            live_entries: outcome.live_entries,
        });
        Ok(Some(CompactionSummary {
            merged_segments: retired.len(),
            output_partitions: outcome.outputs.len(),
            live_entries: outcome.live_entries,
            shadowed_dropped: outcome.shadowed_dropped,
            tombstones_dropped: outcome.tombstones_dropped,
            tombstones_kept: outcome.tombstones_kept,
        }))
    }

    /// Full merge: every segment on both levels into fresh L1 partitions,
    /// under a whole-key-space reservation (waits for in-flight jobs).
    fn compact(&self) -> Result<CompactionSummary> {
        let _reservation = self.reservations.reserve_blocking(KeyRange::everything());
        let snapshot = self.cold_snapshot();
        if snapshot.is_empty() {
            return Ok(CompactionSummary::empty());
        }
        let job = CompactionJob {
            l0_inputs: snapshot.l0.iter().map(|s| s.id).collect(),
            l1_inputs: snapshot.l1.iter().map(|s| s.id).collect(),
            range: KeyRange::everything(),
            drop_tombstones: true,
            split_outputs: true,
            score: f64::INFINITY,
        };
        Ok(self
            .run_job_reserved(&job)?
            .unwrap_or_else(CompactionSummary::empty))
    }
}

/// Human-readable job description for the background-error ring: what the
/// failing pass was merging and over which key range.
fn describe_job(job: &CompactionJob) -> String {
    format!(
        "compaction of {} L0 + {} L1 segments over [{}, {}]",
        job.l0_inputs.len(),
        job.l1_inputs.len(),
        String::from_utf8_lossy(&job.range.min),
        job.range
            .max
            .as_deref()
            .map_or("+inf".into(), String::from_utf8_lossy),
    )
}

/// Locate a job's inputs in the live tier: the L0 inputs as a contiguous
/// newest-first run, the L1 inputs as a contiguous ascending run, and the
/// leveling soundness conditions still holding. `None` means the plan went
/// stale (another compactor got there first) — not an error.
fn validate_job(
    tier: &ColdTier,
    job: &CompactionJob,
) -> Option<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    let l0_run = locate_run(&tier.l0, &job.l0_inputs)?;
    let l1_run = locate_run(&tier.l1, &job.l1_inputs)?;
    // Soundness rule 1: no L0 segment older than the run may overlap the
    // run's own interval (the output lands in L1, below every remaining
    // L0 segment). Checked against the run interval exactly — not the
    // job's wider reservation — so a legal plan never re-fails here.
    let run_range = tier.l0[l0_run.clone()]
        .iter()
        .filter_map(|s| s.range())
        .reduce(|mut acc, r| {
            acc.merge(&r);
            acc
        });
    if let Some(run_range) = &run_range {
        if tier.l0[l0_run.end..]
            .iter()
            .any(|older| older.range().is_some_and(|r| r.overlaps(run_range)))
        {
            return None;
        }
        // Soundness rule 2: every L1 partition intersecting the run's
        // interval must be an input — otherwise tombstone drops and the
        // output's position could resurrect or shadow versions in a
        // partition the merge never saw.
        let selected: Vec<u64> = tier
            .l1
            .iter()
            .filter(|p| p.range().is_some_and(|r| r.overlaps(run_range)))
            .map(|p| p.id)
            .collect();
        if selected.iter().any(|id| !job.l1_inputs.contains(id)) {
            return None;
        }
    }
    Some((l0_run, l1_run))
}

/// Find `inputs` as a contiguous run of `list` (by id); `None` when any
/// input is missing or out of order. Empty inputs locate as the empty run
/// at the front.
fn locate_run(list: &[Arc<ColdSegment>], inputs: &[u64]) -> Option<std::ops::Range<usize>> {
    if inputs.is_empty() {
        return Some(0..0);
    }
    let start = list.iter().position(|s| s.id == inputs[0])?;
    let end = start + inputs.len();
    if end > list.len() {
        return None;
    }
    list[start..end]
        .iter()
        .zip(inputs)
        .all(|(s, &id)| s.id == id)
        .then_some(start..end)
}

/// Find the value of the **last** entry with `key` in a sorted block.
fn find_last<'a>(entries: &'a [Entry], key: &[u8]) -> Option<&'a [u8]> {
    let start = entries.partition_point(|(k, _)| k.as_slice() < key);
    let mut hit = None;
    for (k, v) in &entries[start..] {
        if k.as_slice() == key {
            hit = Some(v.as_slice());
        } else {
            break;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(min: &[u8], max: &[u8]) -> KeyRange {
        KeyRange::bounded(min.to_vec(), max.to_vec())
    }

    #[test]
    fn disjoint_reservations_coexist_and_overlapping_ones_exclude() {
        let table = ReservationTable::new();
        let a = table.try_reserve(range(b"a", b"f")).expect("first");
        let b = table.try_reserve(range(b"g", b"k")).expect("disjoint");
        assert!(
            table.try_reserve(range(b"e", b"h")).is_none(),
            "overlaps both in-flight ranges"
        );
        assert_eq!(table.snapshot().len(), 2);
        drop(a);
        let c = table
            .try_reserve(range(b"e", b"f"))
            .expect("released range is free again");
        drop(b);
        drop(c);
        assert!(table.snapshot().is_empty());
    }

    #[test]
    fn blocking_reservation_waits_for_conflicts_to_release() {
        let table = Arc::new(ReservationTable::new());
        let guard = table.try_reserve(KeyRange::everything()).expect("free");
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let _all = table.reserve_blocking(KeyRange::everything());
                // Reserved only after the conflicting guard dropped.
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "waiter must block while reserved");
        drop(guard);
        waiter.join().expect("waiter completes after release");
    }

    #[test]
    fn a_waiting_claim_blocks_new_try_reserves_so_it_cannot_starve() {
        let table = Arc::new(ReservationTable::new());
        let job = table.try_reserve(range(b"a", b"f")).expect("free");
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let _all = table.reserve_blocking(KeyRange::everything());
            })
        };
        // Wait until the whole-key-space claim is registered as pending.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while table.snapshot().len() < 2 {
            assert!(std::time::Instant::now() < deadline, "claim registered");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // A stream of new jobs can no longer slip past the waiter — even
        // over ranges disjoint from every *active* reservation.
        assert!(
            table.try_reserve(range(b"x", b"z")).is_none(),
            "pending whole-key-space claim blocks new reservations"
        );
        drop(job);
        waiter
            .join()
            .expect("waiter acquires once active work drains");
        let after = table.try_reserve(range(b"x", b"z"));
        assert!(after.is_some(), "released claim frees the range again");
    }
}
