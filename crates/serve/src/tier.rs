//! The serving tier facade: cache → batcher → server, in that order.
//!
//! [`ServeTier`] wraps an [`Arc<DanaServer>`] and gives point
//! predictions the short path they need:
//!
//! 1. **cache probe** — if the row was scored under the *current*
//!    model generation, answer from memory (no admission, no dispatch);
//! 2. **coalesced dispatch** — otherwise ride the [`Batcher`]: rows
//!    for the same UDF that arrive within the window share one
//!    `QueryRequest::PredictPoint` call through the server's full
//!    admission/lease/deadline machinery, on the leader's session. The
//!    batcher is work-conserving: when the UDF has nothing in flight
//!    and its last windowed batch found no company, the leader skips
//!    the window and dispatches at once, so a lone client pays
//!    scoring and dispatch, not the window;
//! 3. **stamp-stable insert** — the result is cached only if the model
//!    generation observed *before* the dispatch is still the live one
//!    afterwards. A retrain that lands mid-flight simply skips the
//!    insert, so the cache can never hold a prediction whose provenance
//!    is ambiguous.
//!
//! Serving counters (hits, misses, invalidations, occupancy, latency,
//! coalesced dispatches and window skips) land in the core
//! [`MetricsRegistry`](dana_obs::MetricsRegistry) and surface through `SHOW STATS ('serving')`.

use std::sync::Arc;
use std::time::Instant;

use dana_server::{DanaServer, QueryRequest, SessionId};

use crate::batcher::{Batcher, BatcherConfig};
use crate::cache::{CacheConfig, CacheLookup, PredictionCache};
use crate::error::ServeResult;

/// Tier-wide knobs: cache sizing plus coalescing window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    pub cache: CacheConfig,
    pub batcher: BatcherConfig,
}

/// One point prediction's answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointReply {
    pub prediction: f32,
    /// Served from the prediction cache (no dispatch at all).
    pub cached: bool,
    /// How many rows shared the dispatch that produced this value
    /// (1 = uncoalesced; cache hits report 1).
    pub batch_rows: usize,
}

/// The online serving tier over an unchanged [`DanaServer`].
pub struct ServeTier {
    server: Arc<DanaServer>,
    cache: PredictionCache,
    batcher: Batcher,
}

impl ServeTier {
    pub fn new(server: Arc<DanaServer>, config: ServeConfig) -> ServeTier {
        let skips = Arc::clone(&server);
        ServeTier {
            cache: PredictionCache::new(config.cache),
            batcher: Batcher::new(config.batcher)
                .on_window_skip(move || skips.core().metrics().window_skips.inc()),
            server,
        }
    }

    pub fn with_defaults(server: Arc<DanaServer>) -> ServeTier {
        ServeTier::new(server, ServeConfig::default())
    }

    /// The wrapped server, for table/deploy/train administration.
    pub fn server(&self) -> &Arc<DanaServer> {
        &self.server
    }

    /// Predicts one row through the fast path: cache probe, then a
    /// (possibly coalesced) point dispatch on `session`.
    ///
    /// Coalesced rows ride the *leader's* session and admission ticket;
    /// followers only wait on the reply, so per-session accounting
    /// attributes the dispatch to whichever request opened the batch.
    pub fn predict_point(
        &self,
        session: SessionId,
        udf: &str,
        row: &[f32],
    ) -> ServeResult<PointReply> {
        let metrics = self.server.core().metrics();
        let start = Instant::now();

        // The generation witness read *before* dispatch; the insert
        // below requires it unchanged.
        let generation = self.server.core().trained_generation(udf);
        match &generation {
            Some(gen) => match self.cache.get(udf, row, gen) {
                CacheLookup::Hit(prediction) => {
                    metrics.prediction_cache_hits.inc();
                    metrics.point_queries.inc();
                    metrics.point_latency.record(start.elapsed().as_secs_f64());
                    return Ok(PointReply {
                        prediction,
                        cached: true,
                        batch_rows: 1,
                    });
                }
                CacheLookup::Stale => {
                    metrics.prediction_cache_invalidations.inc();
                    metrics.prediction_cache_misses.inc();
                }
                CacheLookup::Miss => {
                    metrics.prediction_cache_misses.inc();
                }
            },
            // Untrained/stale/unknown: let the dispatch surface the
            // typed refusal rather than guessing here.
            None => {
                metrics.prediction_cache_misses.inc();
            }
        }

        let (prediction, batch_rows) = self.batcher.submit(udf, row.to_vec(), |rows| {
            metrics.batch_occupancy.record(rows.len() as f64);
            if rows.len() > 1 {
                metrics.coalesced_dispatches.inc();
            }
            let reply = self.server.call(
                session,
                QueryRequest::PredictPoint {
                    udf: udf.to_string(),
                    rows: rows.to_vec(),
                },
            )?;
            Ok(reply.try_point_report()?.predictions.clone())
        })?;

        // Stamp-stable insert: cache only if the pre-dispatch
        // generation is still the live one (a retrain that landed
        // mid-flight makes the value's provenance ambiguous — skip).
        if let Some(gen) = generation {
            let still_live = self
                .server
                .core()
                .trained_generation(udf)
                .map(|now| Arc::ptr_eq(&now, &gen))
                .unwrap_or(false);
            if still_live {
                self.cache.insert(udf, row, gen, prediction);
            }
        }

        Ok(PointReply {
            prediction,
            cached: false,
            batch_rows,
        })
    }

    /// Dispatches a micro-batch of rows directly (no cache, no
    /// coalescing) and returns the per-row predictions in order.
    pub fn predict_rows(
        &self,
        session: SessionId,
        udf: &str,
        rows: Vec<Vec<f32>>,
    ) -> ServeResult<Vec<f32>> {
        let reply = self.server.call(
            session,
            QueryRequest::PredictPoint {
                udf: udf.to_string(),
                rows,
            },
        )?;
        Ok(reply.try_point_report()?.predictions.clone())
    }

    /// Proactively flushes every cached prediction for one UDF (e.g.
    /// alongside an explicit redeploy); returns how many entries were
    /// dropped. The generation stamp already guarantees stale entries
    /// are never *served* — this just reclaims their space eagerly.
    pub fn flush_udf(&self, udf: &str) -> usize {
        let flushed = self.cache.invalidate_udf(udf);
        self.server
            .core()
            .metrics()
            .prediction_cache_invalidations
            .add(flushed as u64);
        flushed
    }

    /// Live prediction-cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}
