//! Distributed fitness evaluation for AUDIT: `audit serve`,
//! `audit work`, and the dispatch core under `audit fleet serve`.
//!
//! The GA's closed loop (run candidate → measure droop → evolve) is
//! embarrassingly parallel across the population, so this crate scales
//! fitness evaluation across worker *processes* while leaving every bit
//! of the search result unchanged:
//!
//! * [`pool`] — the one dispatch core: an event-loop thread owning
//!   every worker connection and every campaign's rounds, with the
//!   whole defense stack (windows, leases, retry/quarantine,
//!   cross-validation, write-ahead logs, chaos injection); each
//!   campaign gets an [`audit_core::ga::EvalDispatcher`],
//! * [`scheduler`] — the fair-share arbiter ([`FairShare`]) picking
//!   which campaign dispatches next,
//! * [`door`] — the one front door ([`FrontDoor`]): a listening socket
//!   whose sessions sort peers by first frame (worker, scrape, or a
//!   caller's tenant protocol),
//! * [`broker`] — `audit serve`'s [`Broker`]: a pool with one campaign
//!   registered at bind, behind a front door,
//! * [`worker`] — the worker loop: connect with bounded, jittered
//!   backoff, handshake, evaluate, report fitness plus
//!   resilience-counter deltas, optionally rejoin after a sever,
//! * [`proto`], [`frame`], [`transport`] — the messages (including the
//!   [`proto::EvalContext`] that rebuilds the exact fitness function,
//!   [`audit_core::FitnessSpec::evaluate_objectives`]), CRC-checked
//!   length-prefixed frames, and TCP / Unix-domain streams behind one
//!   address syntax (`host:port` or `unix:/path`),
//! * [`chaos`] — deterministic network-fault injection
//!   ([`chaos::NetFaultPlan`]), every decision a pure hash so a chaos
//!   campaign replays exactly,
//! * [`wal`] — the dispatch write-ahead log ([`wal::Wal`]), one per
//!   campaign,
//! * [`metrics`] — the pool's scrape counters ([`metrics::ServeMetrics`])
//!   and the plain-text snapshot builder ([`metrics::Scrape`]).
//!
//! `audit-fleet` adds campaign submission and status on top; it has no
//! dispatch logic of its own.
//!
//! # Determinism contract
//!
//! Scheduling never reaches the results: workers compute
//! [`audit_core::FitnessSpec::evaluate_objectives`] (deterministic per
//! genome, fault schedule content-addressed by `(seed, key, attempt)`),
//! and the engine sorts returned `(slot, objectives)` pairs into slot
//! order before any cache insert. `GaRun` results, `evaluations`
//! counts, cache state, and journal bytes are identical for any worker
//! count, including workers joining or dying mid-generation. See
//! `docs/DISTRIBUTED.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod chaos;
pub mod door;
pub mod frame;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod scheduler;
pub mod transport;
pub mod wal;
pub mod worker;

pub use broker::{Broker, BrokerConfig};
pub use chaos::{Direction, FrameFate, NetFaultPlan, NetFaultRates};
pub use door::{FrontDoor, TenantHandler};
pub use frame::{crc32, read_frame, write_frame, FrameOutcome};
pub use metrics::{Scrape, ScrapeFamily, ServeMetrics};
pub use pool::{CampaignDispatcher, CampaignSpec, FleetConfig, Pool, PoolHandle};
pub use proto::{EvalContext, Msg, PROTOCOL_VERSION};
pub use scheduler::FairShare;
pub use transport::{connect, Conn, Listener};
pub use wal::{Prefill, Wal};
pub use worker::{run_worker, WorkerOptions, WorkerStats};
