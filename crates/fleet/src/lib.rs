//! Multi-tenant campaign service for AUDIT (`audit fleet`).
//!
//! `audit serve` runs exactly one GA campaign per process. This crate
//! turns that into a long-lived **campaign manager**: many concurrent
//! GA campaigns share one worker fleet, scheduled by a deterministic
//! weighted-round-robin arbiter, with worker-side eval caches that
//! survive across campaigns and a scrapeable metrics endpoint.
//!
//! * [`proto`] — the fleet control frames ([`FleetMsg`]): campaign
//!   submission, acceptance, completion, and status, riding the same
//!   CRC-checked frame layer as the worker protocol.
//! * [`service`] — the front door ([`Fleet`]): `audit_net`'s shared
//!   listener and worker session, plus the tenant protocol for every
//!   first frame that is not worker protocol (`submit`, `status`).
//!
//! The dispatch core itself — the worker pool ([`Pool`]), its
//! per-campaign defense stack (content addressing, in-flight windows,
//! dispatch leases, retry/quarantine, cross-validation and eviction,
//! per-campaign write-ahead logs, deterministic chaos injection) and
//! the fair-share arbiter ([`FairShare`]) — lives in
//! [`audit_net::pool`] and [`audit_net::scheduler`], where it also
//! serves `audit serve` as a one-campaign pool. It is re-exported here
//! so fleet callers need one import.
//!
//! # Multi-tenant determinism contract
//!
//! Each campaign's results — `GaRun`, journal bytes, resilience
//! counters — are **byte-identical to its solo in-process run** no
//! matter how many other campaigns share the fleet, how the arbiter
//! interleaves them, how many workers serve them, or which
//! worker-side cache entries happen to hit. The argument is the same
//! as for `audit serve`, per campaign: jobs are
//! content-addressed, evaluation is deterministic per genome, the
//! engine sorts scores into slot order, and resilience deltas merge
//! order-insensitively — so scheduling (now including co-tenant
//! scheduling) provably cannot reach the results. Cross-campaign
//! cache entries are keyed worker-side by the *full* setup encoding
//! (interned byte-for-byte, never a hash), so tenants with differing
//! contexts can never share an entry, and tenants with identical
//! contexts share only values both would have computed identically.
//! See `docs/FLEET.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod service;

pub use audit_net::pool::{CampaignDispatcher, CampaignSpec, FleetConfig, Pool, PoolHandle};
pub use audit_net::scheduler::FairShare;
pub use proto::FleetMsg;
pub use service::{scrape, status, submit, Fleet, Submission};
