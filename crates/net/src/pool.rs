//! The dispatch core: one event-loop thread, one or many campaigns.
//!
//! Every distributed fitness evaluation in AUDIT runs through this
//! module. `audit serve`'s [`Broker`](crate::broker::Broker) is a pool
//! with one campaign registered at bind; `audit fleet serve` registers
//! one per tenant. The pool thread owns every worker connection and
//! every campaign's round state; callers talk to it through
//! [`PoolHandle`], and each campaign's GA engine gets a
//! [`CampaignDispatcher`] (an [`EvalDispatcher`]) that ships a round to
//! the pool and blocks until every slot is scored.
//!
//! Scheduling stays inside this module and provably cannot reach any
//! campaign's results:
//!
//! * **Content-addressed work.** Jobs are keyed by [`genome_key`] and
//!   workers compute [`audit_core::FitnessSpec::evaluate_objectives`],
//!   deterministic per genome: *which* worker runs a job, or how often
//!   it is re-run, cannot change the answer.
//! * **Deterministic assignment.** FNV over the campaign's `(seed, key,
//!   attempt, copy)` indexes the sorted live-worker list, probing for
//!   window slack ([`FleetConfig::window`] per `(worker, campaign)`, so
//!   one tenant never consumes another's window).
//! * **Loss, leases, quarantine.** A lost worker's copies, and copies
//!   whose lease ([`FleetConfig::dead_after`]) lapses, are re-dispatched
//!   at the next attempt; a late answer finds its request id retired.
//!   Past [`FleetConfig::retries`] a job is quarantined, mirroring
//!   [`audit_core::MeasurePolicy`]. Copies still out when their round
//!   settles are moot and release their window slots with the round.
//! * **Cross-validation.** A pure-hash-selected fraction of jobs
//!   ([`FleetConfig::verify_fraction`]) settles only when two answers
//!   agree bit-for-bit; a disagreeing worker is evicted and logged.
//!   Exactly one resilience delta is merged per job, so the
//!   [`ResilienceReport`] equals a plain in-process run's.
//! * **Write-ahead logs.** A campaign's WAL logs each dispatch before
//!   the frame goes out and each verdict after it settles; a resumed
//!   campaign is served from it before anything is dispatched.
//! * **Chaos.** [`FleetConfig::chaos`] injects a deterministic
//!   [`NetFaultPlan`] on `eval`/`result` frames at the pool's wire
//!   boundary (see [`crate::chaos`]); `Setup` is always written clean.
//! * **Fair share.** The [`FairShare`] arbiter picks which campaign
//!   dispatches next, a pure function of registration order, weights
//!   and runnability.
//!
//! **Setup.** A joining worker is set up with the *first registered*
//! campaign's context right after its handshake, so a one-campaign
//! pool's workers hold `Setup` before the first dispatch. After that
//! `Setup` is re-sent lazily, when a worker's next dispatch belongs to
//! a campaign whose context differs from the one it holds.
//!
//! **Idle parking.** When every campaign is between rounds, or no
//! worker is connected (so nothing is in flight), there is nobody to
//! ping and no lease to expire: the thread blocks on its channel
//! instead of ticking the heartbeat, and refreshes liveness clocks on
//! wake so a long park cannot read as mass worker death.
//!
//! **Metrics.** One counter set ([`ServeMetrics`]) and one renderer
//! serve both front doors, named by the pool's [`ScrapeFamily`]
//! (`audit_*` or `audit_fleet_*`). Counters never feed back into
//! scheduling.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use audit_core::ga::{EvalDispatcher, Gene, Objectives};
use audit_core::resilient::{genome_key, QUARANTINE_FITNESS};
use audit_core::ResilienceReport;
use audit_error::AuditError;
use audit_measure::fault::{mix, uniform, KeyHasher};

use crate::chaos::{self, Direction, FrameFate, NetFaultPlan};
use crate::frame::{write_corrupted_frame, write_frame};
use crate::metrics::{ScrapeFamily, ServeMetrics};
use crate::proto::{EvalContext, Msg};
use crate::scheduler::FairShare;
use crate::transport::Conn;
use crate::wal::{Prefill, Wal};

/// Stream discriminator for the cross-validation selection hash.
const STREAM_VERIFY: u64 = 0x5645_5246; // "VERF"

/// True when a job is cross-validated on two workers: a pure hash of
/// the campaign's `(seed, key)` — independent of attempt, copy, and
/// scheduling, so the same jobs verify on every rerun and resume, solo
/// or shared.
fn verifies(seed: u64, fraction: f64, key: u64) -> bool {
    fraction > 0.0 && uniform(mix(mix(seed, STREAM_VERIFY), key)) < fraction
}

/// Pool tuning knobs; [`crate::BrokerConfig`] is these plus the one
/// campaign's seed. Results are invariant to every one of them: they
/// shape scheduling, liveness detection, and failure handling. A job
/// that exhausts its re-dispatch budget is scored
/// [`QUARANTINE_FITNESS`], as a quarantined local evaluation is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Maximum in-flight evaluations per `(worker, campaign)` pair
    /// (0 counts as 1).
    pub window: usize,
    /// Idle interval between liveness pings while rounds are active.
    pub heartbeat: Duration,
    /// A worker silent for this long is declared lost and its in-flight
    /// jobs are re-dispatched; doubles as the dispatch lease — a job
    /// unanswered for this long is presumed lost on the wire and
    /// re-dispatched at the next attempt.
    pub dead_after: Duration,
    /// Worker-loss re-dispatches allowed per job before quarantine.
    pub retries: u32,
    /// Fraction of each campaign's jobs cross-validated on two workers,
    /// selected by a pure hash of the campaign's `(seed, key)`. `0.0`
    /// disables cross-validation; `1.0` verifies every job. Byzantine
    /// (lying) workers are only caught on verified jobs.
    pub verify_fraction: f64,
    /// Deterministic network fault injection at the pool's wire
    /// boundary (Eval/Result frames only; Setup is always clean).
    pub chaos: NetFaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            window: 2,
            heartbeat: Duration::from_millis(1000),
            dead_after: Duration::from_millis(10_000),
            retries: 4,
            verify_fraction: 0.0,
            chaos: NetFaultPlan::disabled(),
        }
    }
}

/// Everything the pool needs to run one campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Display name (used in status and metric labels).
    pub name: String,
    /// The evaluation context workers are set up with.
    pub ctx: EvalContext,
    /// The campaign's GA seed — feeds its worker-assignment and
    /// cross-validation hashes, exactly as in its solo run.
    pub seed: u64,
    /// Fair-share weight (≥ 1).
    pub weight: u32,
    /// Dispatch WAL path (`<checkpoint>.wal`); `None` disables
    /// write-ahead logging for this campaign.
    pub wal: Option<PathBuf>,
}

/// What one settled round hands back to the campaign's dispatcher.
pub(crate) struct RoundReply {
    scores: Vec<(usize, Objectives)>,
    report: ResilienceReport,
}

/// Messages into the pool thread, from worker connection threads (via
/// [`crate::door`]) and from campaign owners.
pub(crate) enum PoolMsg {
    /// A worker finished its handshake; the pool owns its writer half.
    Joined { worker: u64, writer: Conn },
    /// A worker sent a result, a pong, or an unsolicited ping.
    Heard { worker: u64, msg: Msg },
    /// A worker's connection ended.
    Lost { worker: u64 },
    /// Register a campaign; replies with its id.
    Register {
        spec: Box<CampaignSpec>,
        reply: Sender<Result<u64, AuditError>>,
    },
    /// Score one round (generation) for a campaign.
    Evaluate {
        campaign: u64,
        population: Vec<Vec<Gene>>,
        jobs: Vec<usize>,
        reply: Sender<Result<RoundReply, AuditError>>,
    },
    /// Tear down a finished campaign; replies once it is gone.
    Finish {
        campaign: u64,
        discard_wal: bool,
        reply: Sender<ResilienceReport>,
    },
    /// Attach (and replay) the WAL at `path` to a registered campaign,
    /// or with `None` delete the campaign's WAL file.
    Wal {
        campaign: u64,
        path: Option<PathBuf>,
        reply: Sender<Result<(), AuditError>>,
    },
    /// Block the caller until `n` workers are connected.
    WaitWorkers { n: usize, reply: Sender<()> },
    /// Render the metrics scrape text.
    MetricsText { reply: Sender<String> },
    /// Render the status report text.
    StatusText { reply: Sender<String> },
    /// Exit the pool thread.
    Shutdown,
}

/// A clonable sender into the pool thread.
#[derive(Clone)]
pub struct PoolHandle {
    tx: Sender<PoolMsg>,
    metrics: Arc<ServeMetrics>,
}

impl PoolHandle {
    fn dead() -> AuditError {
        AuditError::io(
            "dispatch pool",
            &std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pool thread terminated"),
        )
    }

    pub(crate) fn send(&self, msg: PoolMsg) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Sends a request built around a fresh reply channel and waits
    /// for the answer.
    fn ask<T>(&self, msg: impl FnOnce(Sender<T>) -> PoolMsg) -> Result<T, AuditError> {
        let (reply, rx) = channel();
        self.tx.send(msg(reply)).map_err(|_| Self::dead())?;
        rx.recv().map_err(|_| Self::dead())
    }

    /// The pool's scrape counters. Gauges (`workers`, `campaigns`,
    /// `queue_depth`) are current as of the pool's last event.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Registers a campaign and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread is gone, or the
    /// campaign's WAL cannot be opened.
    pub fn register(&self, spec: CampaignSpec) -> Result<u64, AuditError> {
        self.ask(|reply| PoolMsg::Register {
            spec: Box::new(spec),
            reply,
        })?
    }

    /// Builds the [`EvalDispatcher`] for a registered campaign.
    pub fn dispatcher(&self, campaign: u64) -> CampaignDispatcher {
        CampaignDispatcher {
            pool: self.clone(),
            campaign,
            report: ResilienceReport::default(),
        }
    }

    /// Tears down a finished campaign, returning its final resilience
    /// report. With `discard_wal` the campaign's WAL file is deleted
    /// (the run completed; the journal supersedes it) — otherwise it is
    /// kept for a future resume.
    pub fn finish(&self, campaign: u64, discard_wal: bool) -> ResilienceReport {
        self.ask(|reply| PoolMsg::Finish {
            campaign,
            discard_wal,
            reply,
        })
        .unwrap_or_default()
    }

    /// Attaches (and replays) the WAL at `path` to a registered
    /// campaign: results logged there are served before dispatch.
    pub(crate) fn attach_wal(&self, campaign: u64, path: PathBuf) -> Result<(), AuditError> {
        self.ask(|reply| PoolMsg::Wal {
            campaign,
            path: Some(path),
            reply,
        })?
    }

    /// Deletes a campaign's WAL file, if it has one.
    pub(crate) fn discard_wal(&self, campaign: u64) {
        self.ask(|reply| PoolMsg::Wal {
            campaign,
            path: None,
            reply,
        })
        .ok();
    }

    /// Blocks until at least `n` workers are connected.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread is gone.
    pub fn wait_for_workers(&self, n: usize) -> Result<(), AuditError> {
        self.ask(|reply| PoolMsg::WaitWorkers { n, reply })
    }

    /// The plain-text metrics scrape.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread is gone.
    pub fn metrics_text(&self) -> Result<String, AuditError> {
        self.ask(|reply| PoolMsg::MetricsText { reply })
    }

    /// The plain-text status report (per-campaign progress).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread is gone.
    pub fn status_text(&self) -> Result<String, AuditError> {
        self.ask(|reply| PoolMsg::StatusText { reply })
    }
}

/// The pool thread's owner handle: spawns on [`Pool::start`], releases
/// workers and joins on [`Pool::shutdown`] (or drop).
pub struct Pool {
    handle: PoolHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns the pool event-loop thread; `family` names its scrape.
    pub fn start(cfg: FleetConfig, family: ScrapeFamily) -> Pool {
        let (tx, rx) = channel();
        let metrics = Arc::new(ServeMetrics::new());
        let state = PoolState::new(cfg, family, rx, Arc::clone(&metrics));
        let thread = std::thread::Builder::new()
            .name("audit-pool".into())
            .spawn(move || state.run())
            .expect("spawn the pool thread");
        Pool {
            handle: PoolHandle { tx, metrics },
            thread: Some(thread),
        }
    }

    /// A clonable sender into the pool thread.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Stops and joins the pool thread; a round still open fails. The
    /// front door that admitted the workers releases them. Idempotent;
    /// also called on drop.
    pub fn shutdown(&mut self) {
        self.handle.send(PoolMsg::Shutdown);
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-campaign [`EvalDispatcher`] handed to the GA engine: ships
/// each round to the pool thread and blocks until it settles.
pub struct CampaignDispatcher {
    pool: PoolHandle,
    campaign: u64,
    report: ResilienceReport,
}

impl EvalDispatcher for CampaignDispatcher {
    fn evaluate(
        &mut self,
        population: &[Vec<Gene>],
        jobs: &[usize],
    ) -> Result<Vec<(usize, Objectives)>, AuditError> {
        let settled = self.pool.ask(|reply| PoolMsg::Evaluate {
            campaign: self.campaign,
            population: population.to_vec(),
            jobs: jobs.to_vec(),
            reply,
        })??;
        self.report = settled.report;
        Ok(settled.scores)
    }

    fn workers(&self) -> usize {
        (self.pool.metrics.workers.load(Ordering::Relaxed) as usize).max(1)
    }

    fn resilience(&self) -> ResilienceReport {
        self.report
    }
}

/// One connected worker, pool-side.
struct PWorker {
    writer: Conn,
    last_seen: Instant,
    /// In-flight evaluations per campaign (the per-tenant window).
    in_flight: HashMap<u64, usize>,
    /// The campaign context the worker is currently set up with
    /// (interned id), if any.
    ctx: Option<u64>,
    /// Results served (throughput metric).
    results: u64,
}

impl PWorker {
    fn in_flight_total(&self) -> usize {
        self.in_flight.values().sum()
    }

    /// Frees one of `campaign`'s window slots on this worker.
    fn release(&mut self, campaign: u64) {
        if let Some(used) = self.in_flight.get_mut(&campaign) {
            *used = used.saturating_sub(1);
        }
    }
}

/// One queued dispatch: a copy of a job awaiting a worker.
#[derive(Debug, Clone, Copy)]
struct Pending {
    slot: usize,
    key: u64,
    attempt: u32,
    copy: u32,
}

/// One dispatched copy awaiting its answer.
struct InFlight {
    job: Pending,
    worker: u64,
    sent_at: Instant,
}

/// One answer received for a job, pending settlement.
struct Vote {
    id: u64,
    worker: u64,
    objectives: Objectives,
    resilience: ResilienceReport,
}

/// Per-job settlement state: how many bit-identical votes are needed
/// (1 normally, 2 under cross-validation) and the votes so far.
struct KeyState {
    slot: usize,
    needed: usize,
    /// Copies issued so far (primary, verification, tiebreaks) — the
    /// next copy index, so chaos draws stay distinct per dispatch.
    dispatched: u32,
    votes: Vec<Vote>,
}

/// One campaign's open round.
struct ActiveRound {
    population: Vec<Vec<Gene>>,
    target: usize,
    scores: Vec<(usize, Objectives)>,
    pending: VecDeque<Pending>,
    in_flight: HashMap<u64, InFlight>,
    /// Jobs still open. A key leaves when its score is final; anything
    /// arriving for it after that is a stale duplicate and is ignored.
    keys: HashMap<u64, KeyState>,
    reply: Sender<Result<RoundReply, AuditError>>,
}

impl ActiveRound {
    fn outstanding(&self, key: u64) -> bool {
        self.pending.iter().any(|p| p.key == key)
            || self.in_flight.values().any(|f| f.job.key == key)
    }
}

/// One registered campaign.
struct Campaign {
    name: String,
    ctx: EvalContext,
    ctx_id: u64,
    seed: u64,
    wal: Option<Wal>,
    prefill: Prefill,
    report: ResilienceReport,
    round: Option<ActiveRound>,
    rounds_done: u64,
    quarantined: u64,
}

fn objective_bits(objectives: &Objectives) -> Vec<u64> {
    objectives.0.iter().map(|x| x.to_bits()).collect()
}

/// The pool thread's state. Single-threaded by construction: every
/// mutation happens on the event loop, so no map needs a lock.
struct PoolState {
    cfg: FleetConfig,
    family: ScrapeFamily,
    rx: Receiver<PoolMsg>,
    workers: HashMap<u64, PWorker>,
    campaigns: HashMap<u64, Campaign>,
    scheduler: FairShare,
    next_req: u64,
    next_campaign: u64,
    ctx_intern: HashMap<String, u64>,
    waiters: Vec<(usize, Sender<()>)>,
    metrics: Arc<ServeMetrics>,
}

impl PoolState {
    fn new(
        cfg: FleetConfig,
        family: ScrapeFamily,
        rx: Receiver<PoolMsg>,
        metrics: Arc<ServeMetrics>,
    ) -> PoolState {
        PoolState {
            cfg,
            family,
            rx,
            workers: HashMap::new(),
            campaigns: HashMap::new(),
            scheduler: FairShare::new(),
            next_req: 0,
            next_campaign: 0,
            ctx_intern: HashMap::new(),
            waiters: Vec::new(),
            metrics,
        }
    }

    fn run(mut self) {
        loop {
            self.pump();
            let parked = self.idle();
            let next = if parked {
                self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            } else {
                self.rx.recv_timeout(self.cfg.heartbeat)
            };
            let msg = match next {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => {
                    self.heartbeat_tick();
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            };
            if parked {
                // Waking from a possibly-long park: the liveness clocks
                // are stale, not the workers. Refresh before anything
                // can read the staleness as mass death.
                let now = Instant::now();
                for w in self.workers.values_mut() {
                    w.last_seen = now;
                }
            }
            if !self.handle(msg) {
                return;
            }
        }
    }

    /// The park rule (see the module docs): every campaign between
    /// rounds, or nobody connected — and then nothing is in flight
    /// either, because a lost worker's copies are requeued.
    fn idle(&self) -> bool {
        self.workers.is_empty() || self.campaigns.values().all(|c| c.round.is_none())
    }

    /// Folds one message in; false means shutdown.
    fn handle(&mut self, msg: PoolMsg) -> bool {
        match msg {
            PoolMsg::Joined { worker, writer } => self.join(worker, writer),
            PoolMsg::Heard { worker, msg } => match msg {
                Msg::Result {
                    id,
                    objectives,
                    resilience,
                    cached,
                } => self.admit_result(worker, id, objectives, resilience, cached),
                _ => self.touch(worker),
            },
            PoolMsg::Lost { worker } => self.lose_worker(worker),
            PoolMsg::Register { spec, reply } => {
                let result = self.register(*spec);
                reply.send(result).ok();
            }
            PoolMsg::Evaluate {
                campaign,
                population,
                jobs,
                reply,
            } => self.start_round(campaign, population, jobs, reply),
            PoolMsg::Finish {
                campaign,
                discard_wal,
                reply,
            } => {
                self.fail_round(
                    campaign,
                    AuditError::journal(0, "campaign finished with a round open"),
                );
                self.scheduler.unregister(campaign);
                let report = match self.campaigns.remove(&campaign) {
                    Some(mut c) => {
                        if discard_wal {
                            if let Some(wal) = c.wal.take() {
                                wal.discard();
                            }
                        }
                        c.report
                    }
                    None => ResilienceReport::default(),
                };
                ServeMetrics::set(&self.metrics.campaigns, self.campaigns.len() as u64);
                reply.send(report).ok();
            }
            PoolMsg::Wal {
                campaign,
                path,
                reply,
            } => {
                let result = match (self.campaigns.get_mut(&campaign), path) {
                    (Some(c), Some(path)) => Wal::open(&path).map(|(wal, prefill)| {
                        c.wal = Some(wal);
                        c.prefill = prefill;
                    }),
                    (Some(c), None) => {
                        if let Some(wal) = c.wal.take() {
                            wal.discard();
                        }
                        Ok(())
                    }
                    (None, _) => Err(AuditError::journal(0, "WAL for unknown campaign")),
                };
                reply.send(result).ok();
            }
            PoolMsg::WaitWorkers { n, reply } => {
                if self.workers.len() >= n {
                    reply.send(()).ok();
                } else {
                    self.waiters.push((n, reply));
                }
            }
            PoolMsg::MetricsText { reply } => {
                reply.send(self.render_metrics()).ok();
            }
            PoolMsg::StatusText { reply } => {
                reply.send(self.render_status()).ok();
            }
            // Dropping the state fails any open round's reply channel.
            PoolMsg::Shutdown => return false,
        }
        true
    }

    /// Records a sign of life from `worker`.
    fn touch(&mut self, worker: u64) {
        if let Some(w) = self.workers.get_mut(&worker) {
            w.last_seen = Instant::now();
        }
    }

    /// Admits a handshaken worker, binding it to the first registered
    /// campaign's context at once (see the module docs).
    fn join(&mut self, worker: u64, mut writer: Conn) {
        let mut ctx = None;
        if let Some(c) = self.campaigns.keys().min().map(|id| &self.campaigns[id]) {
            if write_frame(&mut writer, &Msg::Setup { ctx: c.ctx.clone() }.to_json()).is_err() {
                writer.shutdown();
                return;
            }
            ctx = Some(c.ctx_id);
        }
        self.workers.insert(
            worker,
            PWorker {
                writer,
                last_seen: Instant::now(),
                in_flight: HashMap::new(),
                ctx,
                results: 0,
            },
        );
        let live = self.workers.len();
        ServeMetrics::set(&self.metrics.workers, live as u64);
        self.waiters.retain(|(n, reply)| {
            if live >= *n {
                reply.send(()).ok();
                false
            } else {
                true
            }
        });
    }

    fn register(&mut self, spec: CampaignSpec) -> Result<u64, AuditError> {
        let encoded = spec.ctx.to_json().encode();
        let next_ctx = self.ctx_intern.len() as u64;
        let ctx_id = *self.ctx_intern.entry(encoded).or_insert(next_ctx);
        let (wal, prefill) = match &spec.wal {
            Some(path) => {
                let (wal, prefill) = Wal::open(path)?;
                (Some(wal), prefill)
            }
            None => (None, HashMap::new()),
        };
        let id = self.next_campaign;
        self.next_campaign += 1;
        self.scheduler.register(id, spec.weight);
        self.campaigns.insert(
            id,
            Campaign {
                name: spec.name,
                ctx: spec.ctx,
                ctx_id,
                seed: spec.seed,
                wal,
                prefill,
                report: ResilienceReport::default(),
                round: None,
                rounds_done: 0,
                quarantined: 0,
            },
        );
        ServeMetrics::set(&self.metrics.campaigns, self.campaigns.len() as u64);
        Ok(id)
    }

    /// Opens a round: prefill is served immediately; the rest queues
    /// for fair-share dispatch. An all-prefilled round settles without
    /// touching a worker.
    fn start_round(
        &mut self,
        campaign: u64,
        population: Vec<Vec<Gene>>,
        jobs: Vec<usize>,
        reply: Sender<Result<RoundReply, AuditError>>,
    ) {
        let Some(c) = self.campaigns.get_mut(&campaign) else {
            reply
                .send(Err(AuditError::journal(0, "evaluate for unknown campaign")))
                .ok();
            return;
        };
        if c.round.is_some() {
            reply
                .send(Err(AuditError::journal(
                    0,
                    "campaign already has a round open",
                )))
                .ok();
            return;
        }
        let mut round = ActiveRound {
            target: jobs.len(),
            scores: Vec::with_capacity(jobs.len()),
            pending: VecDeque::new(),
            in_flight: HashMap::new(),
            keys: HashMap::new(),
            reply,
            population,
        };
        for &slot in &jobs {
            let key = genome_key(&round.population[slot]);
            // A result logged by a previous (killed) run is final:
            // serve it from the WAL instead of re-measuring.
            if let Some((objectives, delta)) = c.prefill.remove(&key) {
                c.report.merge(&delta);
                round.scores.push((slot, objectives));
                continue;
            }
            let needed = if verifies(c.seed, self.cfg.verify_fraction, key) {
                2
            } else {
                1
            };
            round.keys.insert(
                key,
                KeyState {
                    slot,
                    needed,
                    dispatched: needed as u32,
                    votes: Vec::new(),
                },
            );
            for copy in 0..needed as u32 {
                round.pending.push_back(Pending {
                    slot,
                    key,
                    attempt: 0,
                    copy,
                });
            }
        }
        c.round = Some(round);
        self.maybe_complete(campaign);
    }

    /// Takes a campaign's round out of the pool. Copies still in flight
    /// are moot once their round closes (a sibling copy settled their
    /// key, or the round failed): their window slots are released here,
    /// since a late answer finds its request id retired and frees
    /// nothing — left alone, the workers' windows would fill for good.
    fn take_round(&mut self, campaign: u64) -> Option<ActiveRound> {
        let round = self.campaigns.get_mut(&campaign)?.round.take()?;
        for f in round.in_flight.values() {
            if let Some(w) = self.workers.get_mut(&f.worker) {
                w.release(campaign);
            }
        }
        Some(round)
    }

    /// Settles a finished round: hands the scores (and the campaign's
    /// running resilience report) back to its dispatcher.
    fn maybe_complete(&mut self, campaign: u64) {
        let done = self
            .campaigns
            .get(&campaign)
            .and_then(|c| c.round.as_ref())
            .is_some_and(|r| r.scores.len() >= r.target);
        if !done {
            return;
        }
        let round = self.take_round(campaign).expect("checked above");
        let c = self.campaigns.get_mut(&campaign).expect("checked above");
        c.rounds_done += 1;
        round
            .reply
            .send(Ok(RoundReply {
                scores: round.scores,
                report: c.report,
            }))
            .ok();
    }

    /// Fails a campaign's open round (WAL write error and the like).
    fn fail_round(&mut self, campaign: u64, err: AuditError) {
        if let Some(round) = self.take_round(campaign) {
            round.reply.send(Err(err)).ok();
        }
    }

    /// Deterministic per-campaign worker choice: FNV over the
    /// campaign's `(seed, key, attempt, copy)` indexes the sorted
    /// live-worker list, probing linearly for a worker with window
    /// slack *for this campaign*. Folding in the copy index steers the
    /// two copies of a cross-validated job toward different workers.
    fn pick_worker(&self, campaign: u64, seed: u64, job: &Pending) -> Option<u64> {
        let mut ids: Vec<u64> = self.workers.keys().copied().collect();
        ids.sort_unstable();
        if ids.is_empty() {
            return None;
        }
        let mut h = KeyHasher::new();
        h.write_u64(seed)
            .write_u64(job.key)
            .write_u64(u64::from(job.attempt))
            .write_u64(u64::from(job.copy));
        let start = (h.finish() % ids.len() as u64) as usize;
        (0..ids.len())
            .map(|probe| ids[(start + probe) % ids.len()])
            .find(|id| {
                let used = self.workers[id]
                    .in_flight
                    .get(&campaign)
                    .copied()
                    .unwrap_or(0);
                used < self.cfg.window.max(1)
            })
    }

    /// What `campaign` can usefully do with a dispatch grant right now:
    /// its front pending copy, and the worker to send it to — `None`
    /// when the copy's retry budget is spent and the job is quarantined.
    fn next_step(&self, campaign: u64) -> Option<(Pending, Option<u64>)> {
        let c = self.campaigns.get(&campaign)?;
        let job = *c.round.as_ref()?.pending.front()?;
        if job.attempt > self.cfg.retries {
            return Some((job, None));
        }
        Some((job, Some(self.pick_worker(campaign, c.seed, &job)?)))
    }

    /// The fair-share dispatch loop: grant one dispatch at a time to
    /// the arbiter's pick until nothing is runnable, then publish the
    /// queue-depth gauge.
    fn pump(&mut self) {
        loop {
            let runnable: HashSet<u64> = self
                .campaigns
                .keys()
                .copied()
                .filter(|&cid| self.next_step(cid).is_some())
                .collect();
            if runnable.is_empty() {
                break;
            }
            let Some(cid) = self.scheduler.next(|id| runnable.contains(&id)) else {
                break;
            };
            if let Err(e) = self.dispatch_one(cid) {
                self.fail_round(cid, e);
            }
        }
        let depth: usize = self
            .campaigns
            .values()
            .filter_map(|c| c.round.as_ref())
            .map(|r| r.pending.len())
            .sum();
        ServeMetrics::set(&self.metrics.queue_depth, depth as u64);
    }

    /// Dispatches (or quarantines) one pending copy for `campaign`.
    fn dispatch_one(&mut self, campaign: u64) -> Result<(), AuditError> {
        let Some((job, worker)) = self.next_step(campaign) else {
            return Ok(());
        };
        let c = self.campaigns.get_mut(&campaign).expect("stepped above");
        let Some(worker) = worker else {
            c.round.as_mut().expect("stepped above").pending.pop_front();
            return self.quarantine_key(campaign, job.slot, job.key);
        };
        let ctx_id = c.ctx_id;
        // Lazy setup: bind the worker to this campaign's context if it
        // holds a different one. Setup frames are never chaos-injected;
        // a failed write is a worker loss (nothing dispatched yet).
        if self.workers[&worker].ctx != Some(ctx_id) {
            let ctx = self.campaigns[&campaign].ctx.clone();
            let w = self.workers.get_mut(&worker).expect("picked worker live");
            if write_frame(&mut w.writer, &Msg::Setup { ctx }.to_json()).is_err() {
                self.lose_worker(worker);
                return Ok(());
            }
            w.ctx = Some(ctx_id);
        }
        // Commit: pop the job, log, send.
        let genome = {
            let c = self.campaigns.get_mut(&campaign).expect("campaign live");
            let round = c.round.as_mut().expect("round open");
            round.pending.pop_front();
            if let Some(wal) = &mut c.wal {
                wal.log_dispatch(job.key, job.slot, job.attempt)?;
            }
            round.population[job.slot].clone()
        };
        let id = self.next_req;
        self.next_req += 1;
        ServeMetrics::add(&self.metrics.dispatches, 1);
        let (key, attempt, copy) = (job.key, job.attempt, job.copy);
        let fate = chaos::frame_fate(&self.cfg.chaos, Direction::Outbound, key, attempt, copy);
        let flip = chaos::corrupt_bit(&self.cfg.chaos, Direction::Outbound, key, attempt, copy);
        let write = if fate == FrameFate::Drop {
            // The network ate the frame. The pool believes it is out,
            // so accounting proceeds; the dispatch lease recovers it.
            Ok(())
        } else {
            let frame = Msg::Eval { id, genome }.to_json();
            let w = self.workers.get_mut(&worker).expect("picked worker live");
            match fate {
                FrameFate::Corrupt => write_corrupted_frame(&mut w.writer, &frame, flip),
                FrameFate::Duplicate => write_frame(&mut w.writer, &frame)
                    .and_then(|()| write_frame(&mut w.writer, &frame)),
                _ => write_frame(&mut w.writer, &frame),
            }
        };
        let round = self
            .campaigns
            .get_mut(&campaign)
            .and_then(|c| c.round.as_mut())
            .expect("round open");
        match write {
            Ok(()) => {
                round.in_flight.insert(
                    id,
                    InFlight {
                        job,
                        worker,
                        sent_at: Instant::now(),
                    },
                );
                let w = self.workers.get_mut(&worker).expect("live");
                *w.in_flight.entry(campaign).or_insert(0) += 1;
            }
            Err(_) => {
                // The write failing IS the loss signal; this job was
                // never sent, so requeue it at the same attempt.
                round.pending.push_front(job);
                self.lose_worker(worker);
            }
        }
        Ok(())
    }

    /// Admits one result frame: chaos at the inbound boundary, then
    /// vote accounting for the owning campaign.
    fn admit_result(
        &mut self,
        worker: u64,
        id: u64,
        objectives: Objectives,
        resilience: ResilienceReport,
        cached: bool,
    ) {
        if cached {
            // Observability only: counts what workers actually served,
            // never fed back into vote accounting.
            ServeMetrics::add(&self.metrics.cache_hits, 1);
        }
        let live = self
            .campaigns
            .iter()
            .find_map(|(&campaign, c)| Some((campaign, c.round.as_ref()?.in_flight.get(&id)?.job)));
        let Some((campaign, job)) = live else {
            // A retired request id: a replay, or the original answer of
            // a dispatch superseded by lease expiry, worker loss, or
            // settlement — the authoritative copy is (or was) elsewhere.
            // Ignore the payload; keep the liveness signal.
            self.touch(worker);
            return;
        };
        let (key, attempt, copy) = (job.key, job.attempt, job.copy);
        // Chaos: the worker stalls *instead of* answering — the result
        // never existed and the worker goes silent until declared dead.
        if chaos::stalls(&self.cfg.chaos, key, attempt, copy) {
            self.lose_worker(worker);
            return;
        }
        // Chaos: the result frame is lost or damaged on the wire (the
        // CRC32 trailer rejects a damaged frame at this boundary); the
        // dispatch lease recovers the job.
        let fate = chaos::frame_fate(&self.cfg.chaos, Direction::Inbound, key, attempt, copy);
        if matches!(fate, FrameFate::Drop | FrameFate::Corrupt) {
            return;
        }
        self.touch(worker);
        if let Some(w) = self.workers.get_mut(&worker) {
            w.results += 1;
            w.release(campaign);
        }
        let f = self
            .campaigns
            .get_mut(&campaign)
            .and_then(|c| c.round.as_mut())
            .and_then(|r| r.in_flight.remove(&id))
            .expect("checked above");
        ServeMetrics::add(&self.metrics.results, 1);
        // Chaos: a byzantine worker lies — its answer is perturbed in
        // the low mantissa bits, plausible but wrong. Only detectable
        // on cross-validated jobs.
        let mut objectives = objectives;
        let mask = chaos::lie_mask(&self.cfg.chaos, key, attempt, copy);
        if mask != 0 {
            if let Some(primary) = objectives.0.first_mut() {
                *primary = f64::from_bits(primary.to_bits() ^ mask);
            }
        }
        // A duplicated frame arrives twice: the replay must be rejected
        // by the vote accounting with no double count.
        let arrivals = if fate == FrameFate::Duplicate { 2 } else { 1 };
        for _ in 0..arrivals {
            if let Err(e) = self.register_vote(campaign, &f, id, objectives.clone(), resilience) {
                self.fail_round(campaign, e);
                return;
            }
        }
        self.maybe_complete(campaign);
    }

    /// Folds one answer into its job's vote set; settles the job when
    /// enough bit-identical votes agree, evicting any disagreeing
    /// (byzantine) voters.
    fn register_vote(
        &mut self,
        campaign: u64,
        f: &InFlight,
        id: u64,
        objectives: Objectives,
        resilience: ResilienceReport,
    ) -> Result<(), AuditError> {
        let key = f.job.key;
        let Some(c) = self.campaigns.get_mut(&campaign) else {
            return Ok(());
        };
        let Some(round) = c.round.as_mut() else {
            return Ok(());
        };
        let Some(state) = round.keys.get_mut(&key) else {
            // A duplicate or stale answer for a job whose score is
            // final: ignored, accounting unchanged.
            return Ok(());
        };
        if state.votes.iter().any(|v| v.id == id) {
            // A replayed frame for a dispatch that already voted.
            return Ok(());
        }
        state.votes.push(Vote {
            id,
            worker: f.worker,
            objectives,
            resilience,
        });
        let needed = state.needed;
        let winner = state.votes.iter().position(|v| {
            let bits = objective_bits(&v.objectives);
            state
                .votes
                .iter()
                .filter(|o| objective_bits(&o.objectives) == bits)
                .count()
                >= needed
        });
        let Some(idx) = winner else {
            // No agreement yet. If every copy has answered and they
            // still disagree, break the tie with a fresh dispatch — its
            // vote sides with the honest majority.
            if !round.outstanding(key) {
                let state = round.keys.get_mut(&key).expect("no winner, still open");
                let copy = state.dispatched;
                state.dispatched += 1;
                round.pending.push_front(Pending { copy, ..f.job });
            }
            return Ok(());
        };
        let state = round.keys.remove(&key).expect("voted above");
        let win = &state.votes[idx];
        let win_bits = objective_bits(&win.objectives);
        let mut evicted: Vec<u64> = state
            .votes
            .iter()
            .filter(|v| objective_bits(&v.objectives) != win_bits)
            .map(|v| v.worker)
            .collect();
        evicted.sort_unstable();
        evicted.dedup();
        // Exactly one resilience delta per job — all agreeing votes
        // carry the identical delta (deterministic evaluation), so the
        // merged report matches the plain in-process run.
        self.settle(
            campaign,
            key,
            state.slot,
            win.objectives.clone(),
            win.resilience,
        )?;
        for loser in evicted {
            self.evict_worker(campaign, loser, key)?;
        }
        Ok(())
    }

    /// Evicts a worker caught lying on `key`: logs a `worker_evicted`
    /// record in the catching campaign's WAL (how many of its in-flight
    /// jobs, across every campaign, are requeued) and severs it like a
    /// lost worker.
    fn evict_worker(&mut self, campaign: u64, worker: u64, key: u64) -> Result<(), AuditError> {
        let quarantined = self
            .campaigns
            .values()
            .filter_map(|c| c.round.as_ref())
            .flat_map(|r| r.in_flight.values())
            .filter(|f| f.worker == worker)
            .count() as u64;
        if let Some(wal) = self
            .campaigns
            .get_mut(&campaign)
            .and_then(|c| c.wal.as_mut())
        {
            wal.log_worker_evicted(worker, key, quarantined)?;
        }
        ServeMetrics::add(&self.metrics.evictions, 1);
        self.lose_worker(worker);
        Ok(())
    }

    /// Gives up on a job whose workers keep dying: scores it like a
    /// quarantined candidate and logs the verdict so a resume does not
    /// retry it either.
    fn quarantine_key(&mut self, campaign: u64, slot: usize, key: u64) -> Result<(), AuditError> {
        let Some(c) = self.campaigns.get_mut(&campaign) else {
            return Ok(());
        };
        let Some(round) = c.round.as_mut() else {
            return Ok(());
        };
        if !round.keys.contains_key(&key) {
            // Another copy already settled the job; this straggler
            // copy simply dies.
            return Ok(());
        }
        round.pending.retain(|p| p.key != key);
        c.quarantined += 1;
        ServeMetrics::add(&self.metrics.quarantined, 1);
        // The verdict splats the fallback fitness across as many axes
        // as every worker reports.
        let axes = c.ctx.spec.objectives.len().max(1);
        let verdict = Objectives(vec![QUARANTINE_FITNESS; axes]);
        let delta = ResilienceReport {
            evaluations: 1,
            retries: 0,
            quarantined: 1,
            backoff_cycles: 0,
        };
        self.settle(campaign, key, slot, verdict, delta)?;
        self.maybe_complete(campaign);
        Ok(())
    }

    /// Makes `key`'s score final: anything else arriving for it is a
    /// stale duplicate from now on. Logs the verdict and merges the
    /// job's one resilience delta.
    fn settle(
        &mut self,
        campaign: u64,
        key: u64,
        slot: usize,
        verdict: Objectives,
        delta: ResilienceReport,
    ) -> Result<(), AuditError> {
        let c = self
            .campaigns
            .get_mut(&campaign)
            .expect("settling a live campaign");
        let round = c.round.as_mut().expect("settling an open round");
        round.keys.remove(&key);
        if let Some(wal) = &mut c.wal {
            wal.log_result(key, &verdict, &delta)?;
        }
        c.report.merge(&delta);
        round.scores.push((slot, verdict));
        Ok(())
    }

    /// Removes a worker and requeues its in-flight jobs — in every
    /// campaign — at the next attempt.
    fn lose_worker(&mut self, worker: u64) {
        if let Some(w) = self.workers.remove(&worker) {
            w.writer.shutdown();
        }
        ServeMetrics::set(&self.metrics.workers, self.workers.len() as u64);
        self.requeue(|f| f.worker == worker);
    }

    /// Requeues every in-flight copy `lapsed` selects at its next
    /// attempt, oldest work first, releasing its window slot; an answer
    /// that straggles in later finds its request id retired.
    fn requeue(&mut self, lapsed: impl Fn(&InFlight) -> bool) {
        for (&cid, c) in self.campaigns.iter_mut() {
            let Some(round) = c.round.as_mut() else {
                continue;
            };
            let ids: Vec<u64> = round
                .in_flight
                .iter()
                .filter(|(_, f)| lapsed(f))
                .map(|(&id, _)| id)
                .collect();
            for id in ids {
                let f = round.in_flight.remove(&id).expect("listed above");
                if let Some(w) = self.workers.get_mut(&f.worker) {
                    w.release(cid);
                }
                round.pending.push_front(Pending {
                    attempt: f.job.attempt + 1,
                    ..f.job
                });
            }
        }
    }

    /// Idle-timeout housekeeping: expire dispatch leases, ping
    /// everyone, declare silent workers lost.
    fn heartbeat_tick(&mut self) {
        // A job outstanding past its lease is presumed lost on the wire
        // (dropped or CRC-rejected frame, wedged worker) — or its worker
        // is alive but slow, and its window must not leak.
        let lease = self.cfg.dead_after;
        self.requeue(|f| f.sent_at.elapsed() >= lease);
        let ping = Msg::Ping.to_json();
        let mut lost: Vec<u64> = Vec::new();
        for (&id, w) in self.workers.iter_mut() {
            if w.last_seen.elapsed() >= self.cfg.dead_after
                || write_frame(&mut w.writer, &ping).is_err()
            {
                lost.push(id);
            }
        }
        for id in lost {
            self.lose_worker(id);
        }
    }

    /// The scrape: the shared totals, then one row per worker and per
    /// campaign, all named under the pool's family.
    fn render_metrics(&self) -> String {
        let mut s = self.metrics.scrape(&self.family);
        let name = |suffix: &str| format!("{}_{suffix}", self.family.prefix);
        let mut worker_ids: Vec<u64> = self.workers.keys().copied().collect();
        worker_ids.sort_unstable();
        for id in worker_ids {
            let w = &self.workers[&id];
            let label = id.to_string();
            let labels = [("worker", label.as_str())];
            s.labelled(&name("worker_results_total"), &labels, w.results);
            s.labelled(
                &name("worker_in_flight"),
                &labels,
                w.in_flight_total() as u64,
            );
        }
        let mut campaign_ids: Vec<u64> = self.campaigns.keys().copied().collect();
        campaign_ids.sort_unstable();
        for id in campaign_ids {
            let c = &self.campaigns[&id];
            let labels = [("campaign", c.name.as_str())];
            let queued = c.round.as_ref().map_or(0, |r| r.pending.len() as u64);
            s.labelled(&name("campaign_rounds_total"), &labels, c.rounds_done);
            s.labelled(&name("campaign_queue_depth"), &labels, queued);
            s.labelled(&name("campaign_quarantined_total"), &labels, c.quarantined);
        }
        s.render()
    }

    fn render_status(&self) -> String {
        let mut out = format!(
            "fleet: {} worker(s), {} campaign(s)\n",
            self.workers.len(),
            self.campaigns.len()
        );
        let mut ids: Vec<u64> = self.campaigns.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let c = &self.campaigns[&id];
            let state = match &c.round {
                Some(r) => format!(
                    "round open ({}/{} scored, {} pending, {} in flight)",
                    r.scores.len(),
                    r.target,
                    r.pending.len(),
                    r.in_flight.len()
                ),
                None => "between rounds".to_string(),
            };
            out.push_str(&format!(
                "campaign {id} `{name}`: {rounds} round(s) done, {state}, ctx {fp:016x}\n",
                name = c.name,
                rounds = c.rounds_done,
                fp = c.ctx.fingerprint(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_core::ga::{CostFunction, ObjectiveSet};
    use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec};
    use audit_cpu::isa::Opcode;

    #[test]
    fn verify_selection_is_a_pure_fraction_of_keys() {
        let n = 20_000u64;
        let picked = (0..n).filter(|&k| verifies(7, 0.25, k)).count();
        let rate = picked as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "verify rate {rate}");
        // Pure: same answer on re-query.
        for k in 0..64 {
            assert_eq!(verifies(7, 0.25, k), verifies(7, 0.25, k));
        }
        // A different campaign seed selects a different set.
        assert!((0..64).any(|k| verifies(7, 0.25, k) != verifies(8, 0.25, k)));
        // Off means off; 1.0 means every job.
        assert!((0..64).all(|k| !verifies(7, 0.0, k)));
        assert!((0..64).all(|k| verifies(7, 1.0, k)));
    }

    #[cfg(unix)]
    #[test]
    fn settled_round_releases_the_window_slots_of_moot_copies() {
        use std::os::unix::net::UnixStream;

        // Every job cross-validated (two copies), and no retry budget:
        // one lapsed lease quarantines the key while its sibling copy
        // is still out on a worker.
        let cfg = FleetConfig {
            verify_fraction: 1.0,
            retries: 0,
            dead_after: Duration::from_secs(30),
            ..FleetConfig::default()
        };
        let (_tx, rx) = channel();
        let mut pool = PoolState::new(cfg, ScrapeFamily::SERVE, rx, Arc::default());
        let mut peers = Vec::new();
        for worker in 0..2 {
            let (ours, theirs) = UnixStream::pair().unwrap();
            // Held open, never read: the frames queue in the socket.
            peers.push(theirs);
            pool.handle(PoolMsg::Joined {
                worker,
                writer: Conn::Unix(ours),
            });
        }
        let ctx = EvalContext {
            chip: "bulldozer".into(),
            volts: None,
            throttle: None,
            spec: FitnessSpec {
                threads: 1,
                sub_blocks: 2,
                lp_slots: 2,
                cost: CostFunction::MaxDroop,
                spec: MeasureSpec::ga_eval(),
                policy: MeasurePolicy::disabled(),
                objectives: ObjectiveSet::default(),
            },
            fast_tier_budget: 0,
        };
        let campaign = pool
            .register(CampaignSpec {
                name: "leak".into(),
                ctx,
                seed: 3,
                weight: 1,
                wal: None,
            })
            .unwrap();
        let genome = vec![
            Gene {
                opcode: Opcode::SimdFma,
                dst: 0,
                src1: 1,
                src2: 2,
                miss: false,
            };
            8
        ];
        let (reply, settled) = channel();
        pool.start_round(campaign, vec![genome], vec![0], reply);
        pool.pump();

        // Age one copy's lease past `dead_after`; its sibling stays
        // fresh and in flight.
        let round = pool
            .campaigns
            .get_mut(&campaign)
            .unwrap()
            .round
            .as_mut()
            .unwrap();
        assert_eq!(round.in_flight.len(), 2, "both copies dispatched");
        let (&lapsed, f) = round
            .in_flight
            .iter_mut()
            .min_by_key(|(id, _)| **id)
            .unwrap();
        f.sent_at = Instant::now().checked_sub(Duration::from_secs(60)).unwrap();
        let sibling = *round.in_flight.keys().find(|&&id| id != lapsed).unwrap();
        let sibling_worker = round.in_flight[&sibling].worker;
        pool.heartbeat_tick();
        // The lapsed copy is requeued past the retry budget: the key is
        // quarantined and the one-job round settles.
        pool.pump();
        let scores = settled.try_recv().expect("round settled").unwrap().scores;
        assert_eq!(scores, vec![(0, Objectives(vec![0.0]))]);

        for (id, w) in &pool.workers {
            assert_eq!(
                w.in_flight_total(),
                0,
                "worker {id} still holds a window slot"
            );
        }
        // The moot copy's late answer is a retired id: ignored.
        pool.admit_result(
            sibling_worker,
            sibling,
            Objectives(vec![1.0]),
            ResilienceReport::default(),
            false,
        );
        assert!(pool.workers.values().all(|w| w.results == 0));
        assert_eq!(pool.campaigns[&campaign].rounds_done, 1);
    }
}
