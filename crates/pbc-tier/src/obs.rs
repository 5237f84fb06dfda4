//! The store's observability bundle: every metric handle, the trace
//! ring, and the background-error ring, built once at open.
//!
//! All metric names live here so the README's "Observability" table has a
//! single source of truth. Handles are created eagerly from the
//! [`MetricsRegistry`] — hot paths clone-free record through them and
//! never look anything up by name. With [`crate::TierConfig::metrics`]
//! off, the registry is disabled and every handle is a no-op (including
//! timer clock reads); the trace rings are controlled independently by
//! their capacities.

use std::sync::Arc;

use pbc_archive::{ReaderObs, WriterObs};
use pbc_obs::{Counter, Event, Gauge, Histogram, MetricsRegistry, TraceEvent, TraceRing};

use crate::cache::CacheCounters;
use crate::config::TierConfig;

/// One retained background-maintenance failure; see
/// [`crate::TieredStore::recent_background_errors`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackgroundErrorRecord {
    /// Monotonic microseconds since the store opened.
    pub micros: u64,
    /// What the failing pass was doing (job shape and key range).
    pub job: String,
    /// The actual error string, verbatim.
    pub message: String,
}

impl std::fmt::Display for BackgroundErrorRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>10}us] {}: {}", self.micros, self.job, self.message)
    }
}

/// Every handle the tiered store records through. Built by
/// [`TierObs::new`]; owned by `TierInner`.
pub(crate) struct TierObs {
    registry: Arc<MetricsRegistry>,
    /// All structured events (spills, compaction lifecycle, scans, ...).
    /// Shared (`Arc`) with the WAL's [`pbc_wal::WalObs`] so rotation,
    /// checkpoint, and recovery events land in the same ring.
    trace: Arc<TraceRing>,
    /// Background errors only — a failure is never pushed out of
    /// observability by a burst of routine spill events.
    errors: TraceRing,

    // Counters mirrored into `TierStats`.
    pub(crate) hot_hits: Counter,
    pub(crate) tombstone_negatives: Counter,
    pub(crate) staging_hits: Counter,
    pub(crate) cold_gets: Counter,
    pub(crate) cold_index_only: Counter,
    pub(crate) cold_cache_hits: Counter,
    pub(crate) cold_cache_misses: Counter,
    pub(crate) cold_segments_scanned: Counter,
    pub(crate) range_scans: Counter,
    pub(crate) scan_segments_opened: Counter,
    pub(crate) scan_blocks_decoded: Counter,
    pub(crate) scan_bytes_decoded: Counter,
    pub(crate) spills: Counter,
    pub(crate) spilled_entries: Counter,
    pub(crate) compactions: Counter,
    pub(crate) segments_retired: Counter,
    pub(crate) codec_selections: Counter,
    pub(crate) codec_selections_reused: Counter,
    pub(crate) background_errors: Counter,

    // Cold-tier gauges, published at every segment-set commit.
    pub(crate) cold_records: Gauge,
    pub(crate) cold_tombstones: Gauge,
    pub(crate) l0_segments: Gauge,
    pub(crate) l1_partitions: Gauge,
    pub(crate) generation: Gauge,

    // Latency histograms (nanoseconds).
    pub(crate) get_ns: Histogram,
    pub(crate) put_ns: Histogram,
    pub(crate) delete_ns: Histogram,
    pub(crate) scan_ns: Histogram,
    pub(crate) spill_ns: Histogram,
    pub(crate) compaction_ns: Histogram,
    pub(crate) cache_fetch_ns: Histogram,
    pub(crate) codec_selection_ns: Histogram,

    // Archive-layer hooks, cloned into every reader/writer the store
    // creates.
    pub(crate) reader: ReaderObs,
    pub(crate) writer: WriterObs,
}

impl TierObs {
    /// Build the bundle for `config`: an enabled registry unless
    /// [`TierConfig::metrics`] is off, plus the two event rings sized by
    /// [`TierConfig::trace_capacity`] / [`TierConfig::error_log_capacity`].
    pub(crate) fn new(config: &TierConfig) -> TierObs {
        let registry = Arc::new(if config.metrics {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        });
        let r = &registry;
        let counter = |name: &str| r.counter(name);
        let gauge = |name: &str| r.gauge(name);
        let histogram = |name: &str| r.histogram(name);
        TierObs {
            trace: Arc::new(TraceRing::new(config.trace_capacity)),
            errors: TraceRing::new(config.error_log_capacity),
            hot_hits: counter("pbc_tier_hot_hits_total"),
            tombstone_negatives: counter("pbc_tier_tombstone_negatives_total"),
            staging_hits: counter("pbc_tier_staging_hits_total"),
            cold_gets: counter("pbc_tier_cold_gets_total"),
            cold_index_only: counter("pbc_tier_cold_index_only_total"),
            cold_cache_hits: counter("pbc_tier_cold_cache_hits_total"),
            cold_cache_misses: counter("pbc_tier_cold_cache_misses_total"),
            cold_segments_scanned: counter("pbc_tier_cold_segments_scanned_total"),
            range_scans: counter("pbc_tier_range_scans_total"),
            scan_segments_opened: counter("pbc_tier_scan_segments_opened_total"),
            scan_blocks_decoded: counter("pbc_tier_scan_blocks_decoded_total"),
            scan_bytes_decoded: counter("pbc_tier_scan_bytes_decoded_total"),
            spills: counter("pbc_tier_spills_total"),
            spilled_entries: counter("pbc_tier_spilled_entries_total"),
            compactions: counter("pbc_tier_compactions_total"),
            segments_retired: counter("pbc_tier_segments_retired_total"),
            codec_selections: counter("pbc_tier_codec_selections_total"),
            codec_selections_reused: counter("pbc_tier_codec_selections_reused_total"),
            background_errors: counter("pbc_tier_background_errors_total"),
            cold_records: gauge("pbc_tier_cold_records"),
            cold_tombstones: gauge("pbc_tier_cold_tombstones"),
            l0_segments: gauge("pbc_tier_l0_segments"),
            l1_partitions: gauge("pbc_tier_l1_partitions"),
            generation: gauge("pbc_tier_generation"),
            get_ns: histogram("pbc_tier_get_latency_ns"),
            put_ns: histogram("pbc_tier_put_latency_ns"),
            delete_ns: histogram("pbc_tier_delete_latency_ns"),
            scan_ns: histogram("pbc_tier_scan_latency_ns"),
            spill_ns: histogram("pbc_tier_spill_ns"),
            compaction_ns: histogram("pbc_tier_compaction_ns"),
            cache_fetch_ns: histogram("pbc_tier_cache_fetch_ns"),
            codec_selection_ns: histogram("pbc_tier_codec_selection_ns"),
            reader: ReaderObs {
                blocks_decoded: counter("pbc_archive_blocks_decoded_total"),
                decode_ns: histogram("pbc_archive_block_decode_ns"),
                bytes_copied: counter("pbc_archive_bytes_copied_total"),
            },
            writer: WriterObs {
                blocks_encoded: counter("pbc_archive_blocks_encoded_total"),
                encode_ns: histogram("pbc_archive_block_encode_ns"),
            },
            registry,
        }
    }

    /// The registry behind every handle.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Build the WAL's observability bundle against this store's registry
    /// and trace ring, so `pbc_wal_*` metrics export alongside the tier's
    /// and WAL lifecycle events interleave with spills and compactions.
    pub(crate) fn wal_obs(&self) -> pbc_wal::WalObs {
        pbc_wal::WalObs::new(&self.registry, Some(Arc::clone(&self.trace)))
    }

    /// Registry-backed handles for the block cache's counters.
    pub(crate) fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.registry.counter("pbc_tier_cache_hits_total"),
            misses: self.registry.counter("pbc_tier_cache_misses_total"),
            evictions: self.registry.counter("pbc_tier_cache_evictions_total"),
            invalidations: self.registry.counter("pbc_tier_cache_invalidations_total"),
            admissions: self.registry.counter("pbc_tier_cache_admissions_total"),
            promotions: self.registry.counter("pbc_tier_cache_promotions_total"),
            probation_evictions: self
                .registry
                .counter("pbc_tier_cache_probation_evictions_total"),
        }
    }

    /// Record a structured trace event.
    pub(crate) fn trace(&self, event: Event) {
        self.trace.record(event);
    }

    /// The retained trace events, oldest first.
    pub(crate) fn trace_snapshot(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    /// Record a background failure into the error ring **and** the main
    /// trace, so it shows up both in the dedicated error log and in
    /// context between the events around it.
    pub(crate) fn record_background_error(&self, job: String, message: String) {
        let event = Event::BackgroundError { job, message };
        self.errors.record(event.clone());
        self.trace.record(event);
    }

    /// The retained background errors, oldest first.
    pub(crate) fn background_error_snapshot(&self) -> Vec<BackgroundErrorRecord> {
        self.errors
            .snapshot()
            .into_iter()
            .filter_map(|e| match e.event {
                Event::BackgroundError { job, message } => Some(BackgroundErrorRecord {
                    micros: e.micros,
                    job,
                    message,
                }),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Debug for TierObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierObs")
            .field("registry", &self.registry)
            .field("trace", &self.trace)
            .field("errors", &self.errors)
            .finish()
    }
}
