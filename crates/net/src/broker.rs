//! `audit serve`'s broker: a one-campaign dispatch [`Pool`] behind a
//! [`FrontDoor`].
//!
//! The broker is an [`EvalDispatcher`], so the GA engine drives it
//! exactly as it drives the in-process thread pool: hand over the slots
//! to score, get back `(slot, objectives)` pairs. [`Broker::bind`]
//! starts a pool, registers the run as its only campaign, and opens the
//! listening socket; every defense — content-addressed jobs,
//! deterministic assignment, in-flight windows, dispatch leases,
//! retry/quarantine, cross-validation with eviction, the write-ahead
//! log, chaos injection, idle parking — and the `audit_*` metrics
//! scrape live in the dispatch core ([`crate::pool`]), shared with
//! `audit fleet serve`. This module only maps [`BrokerConfig`] onto it.
//!
//! A worker joining a broker receives `Setup` right after a valid
//! `Hello`: the pool binds every joining worker to its first registered
//! campaign, and a broker has exactly one.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use audit_core::ga::{EvalDispatcher, Gene, Objectives};
use audit_core::ResilienceReport;
use audit_error::AuditError;

use crate::chaos::NetFaultPlan;
use crate::door::FrontDoor;
use crate::metrics::{ScrapeFamily, ServeMetrics};
use crate::pool::{CampaignDispatcher, CampaignSpec, FleetConfig, Pool};
use crate::proto::EvalContext;

/// Broker tuning knobs: the pool's [`FleetConfig`] plus the seed of
/// its one campaign. Results are invariant to every one of them; they
/// shape scheduling, liveness detection, and failure handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// Seed folded into the worker-assignment and cross-validation
    /// hashes (use the GA seed so a rerun schedules identically).
    pub seed: u64,
    /// See [`FleetConfig::window`].
    pub window: usize,
    /// See [`FleetConfig::heartbeat`].
    pub heartbeat: Duration,
    /// See [`FleetConfig::dead_after`].
    pub dead_after: Duration,
    /// See [`FleetConfig::retries`].
    pub retries: u32,
    /// See [`FleetConfig::quarantine_fitness`].
    pub quarantine_fitness: f64,
    /// See [`FleetConfig::verify_fraction`].
    pub verify_fraction: f64,
    /// See [`FleetConfig::chaos`].
    pub chaos: NetFaultPlan,
}

impl Default for BrokerConfig {
    /// Seed 0 and the pool's defaults ([`FleetConfig::default`]).
    fn default() -> Self {
        let pool = FleetConfig::default();
        BrokerConfig {
            seed: 0,
            window: pool.window,
            heartbeat: pool.heartbeat,
            dead_after: pool.dead_after,
            retries: pool.retries,
            quarantine_fitness: pool.quarantine_fitness,
            verify_fraction: pool.verify_fraction,
            chaos: pool.chaos,
        }
    }
}

impl BrokerConfig {
    /// The pool knobs: everything but the seed, which belongs to the
    /// broker's one campaign.
    fn pool(&self) -> FleetConfig {
        FleetConfig {
            window: self.window,
            heartbeat: self.heartbeat,
            dead_after: self.dead_after,
            retries: self.retries,
            quarantine_fitness: self.quarantine_fitness,
            verify_fraction: self.verify_fraction,
            chaos: self.chaos,
        }
    }
}

/// The broker side of distributed evaluation. See the module docs.
pub struct Broker {
    door: FrontDoor,
    campaign: u64,
    dispatcher: CampaignDispatcher,
}

impl Broker {
    /// Binds `addr` (`host:port` or `unix:/path`) and starts accepting
    /// workers; each accepted worker is handshaken (`Hello` →
    /// `Setup { ctx }`) and then streams results.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the address cannot be bound.
    pub fn bind(addr: &str, ctx: &EvalContext, cfg: BrokerConfig) -> Result<Broker, AuditError> {
        let pool = Pool::start(cfg.pool(), ScrapeFamily::SERVE);
        let handle = pool.handle();
        // Registered before the door opens, so every worker that joins
        // is set up with this campaign at its handshake.
        let campaign = handle.register(CampaignSpec {
            name: "serve".into(),
            ctx: ctx.clone(),
            seed: cfg.seed,
            weight: 1,
            wal: None,
        })?;
        let door = FrontDoor::open(addr, pool, None)?;
        Ok(Broker {
            door,
            campaign,
            dispatcher: handle.dispatcher(campaign),
        })
    }

    /// The broker's scrape counters (shared with the pool thread that
    /// updates them and the connection threads that answer
    /// [`crate::Msg::MetricsReq`]).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        self.door.handle().metrics()
    }

    /// The bound address in connectable form (`:0` resolved).
    pub fn addr(&self) -> &str {
        self.door.addr()
    }

    /// Attaches (and replays) the dispatch write-ahead log at `path`.
    /// Results already logged there — by a previous broker killed
    /// mid-generation — are served from the log instead of being
    /// re-dispatched. The file is created if absent and appended
    /// otherwise; a torn final line (broker killed mid-write) is
    /// tolerated, mirroring the journal's torn-tail rule.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the file cannot be read or opened
    /// for append, and [`AuditError::Journal`] if a non-final line is
    /// corrupt.
    pub fn attach_wal(&mut self, path: &Path) -> Result<(), AuditError> {
        self.door.handle().attach_wal(self.campaign, path.to_path_buf())
    }

    /// Blocks until at least `n` workers have completed the handshake.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread has died.
    pub fn wait_for_workers(&mut self, n: usize) -> Result<(), AuditError> {
        self.door.handle().wait_for_workers(n)
    }

    /// Sends `Shutdown` to every connected worker and stops accepting.
    /// Called automatically on drop; call it explicitly to release
    /// workers before the broker goes out of scope.
    pub fn shutdown(&mut self) {
        self.door.close();
    }

    /// Deletes the attached WAL file (call after the run completes —
    /// its contents are now redundant with the journal).
    pub fn discard_wal(&mut self) {
        self.door.handle().discard_wal(self.campaign);
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl EvalDispatcher for Broker {
    fn evaluate(
        &mut self,
        population: &[Vec<Gene>],
        jobs: &[usize],
    ) -> Result<Vec<(usize, Objectives)>, AuditError> {
        self.dispatcher.evaluate(population, jobs)
    }

    fn workers(&self) -> usize {
        self.dispatcher.workers()
    }

    fn resilience(&self) -> ResilienceReport {
        self.dispatcher.resilience()
    }
}
