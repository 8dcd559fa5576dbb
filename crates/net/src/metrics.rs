//! Scrapeable serving metrics for the dispatch pool behind `audit serve`
//! and `audit fleet serve`.
//!
//! Any peer may connect to a serving address and send one
//! [`crate::proto::Msg::MetricsReq`] frame as its *first* frame; the
//! server answers with a [`crate::proto::Msg::Metrics`] frame carrying
//! a plain-text snapshot and closes the connection. The text is the
//! conventional line-oriented scrape format (`name{label="x"} value`,
//! one sample per line, `#`-prefixed comments), so standard collectors
//! can ingest it with a trivial exporter — and `audit fleet metrics
//! --connect` prints it verbatim, from either front door.
//!
//! Metrics are observability only: no counter here ever feeds back into
//! scheduling or results, so scraping (or not) cannot perturb a run.

use std::sync::atomic::{AtomicU64, Ordering};

/// Builder for one scrape snapshot: renders samples in insertion order.
#[derive(Debug, Default)]
pub struct Scrape {
    text: String,
}

impl Scrape {
    /// An empty snapshot.
    pub fn new() -> Scrape {
        Scrape::default()
    }

    /// Appends a `# comment` line.
    pub fn comment(&mut self, text: &str) -> &mut Self {
        self.text.push_str("# ");
        self.text.push_str(text);
        self.text.push('\n');
        self
    }

    /// Appends one unlabelled sample.
    pub fn sample(&mut self, name: &str, value: u64) -> &mut Self {
        self.text.push_str(name);
        self.text.push(' ');
        self.text.push_str(&value.to_string());
        self.text.push('\n');
        self
    }

    /// Appends one labelled sample (`name{k="v",…} value`).
    pub fn labelled(&mut self, name: &str, labels: &[(&str, &str)], value: u64) -> &mut Self {
        self.text.push_str(name);
        self.text.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                self.text.push(',');
            }
            self.text.push_str(k);
            self.text.push_str("=\"");
            self.text.push_str(v);
            self.text.push('"');
        }
        self.text.push_str("} ");
        self.text.push_str(&value.to_string());
        self.text.push('\n');
        self
    }

    /// The rendered scrape text.
    pub fn render(&self) -> String {
        self.text.clone()
    }
}

/// The names one front door's scrape is published under: its header
/// comment and the prefix of every sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrapeFamily {
    /// The `# …` header line's text.
    pub title: &'static str,
    /// Prefix of every sample name (`{prefix}_dispatches_total`, …).
    pub prefix: &'static str,
}

impl ScrapeFamily {
    /// `audit serve`: a one-campaign pool, scraped as `audit_*`.
    pub const SERVE: ScrapeFamily = ScrapeFamily {
        title: "audit serve metrics",
        prefix: "audit",
    };
    /// `audit fleet serve`: the multi-tenant pool, scraped as
    /// `audit_fleet_*`.
    pub const FLEET: ScrapeFamily = ScrapeFamily {
        title: "audit fleet metrics",
        prefix: "audit_fleet",
    };
}

/// The dispatch pool's shared atomic counters. The pool thread
/// updates them; the scrape renders them, and a pool's owner may read
/// them directly (see [`crate::PoolHandle::metrics`]).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Workers currently connected (post-handshake).
    pub workers: AtomicU64,
    /// Campaigns currently registered.
    pub campaigns: AtomicU64,
    /// `Eval` frames dispatched (including re-dispatches).
    pub dispatches: AtomicU64,
    /// Result frames admitted for a live dispatch (a cross-validated
    /// job admits one per copy).
    pub results: AtomicU64,
    /// Results a worker answered from its cross-campaign cache.
    pub cache_hits: AtomicU64,
    /// Jobs that exhausted their retry budget and were quarantined.
    pub quarantined: AtomicU64,
    /// Workers evicted by cross-validation.
    pub evictions: AtomicU64,
    /// Jobs queued but not yet dispatched, across every campaign.
    pub queue_depth: AtomicU64,
}

impl ServeMetrics {
    /// A zeroed counter set.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Relaxed add: metrics never synchronize anything.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed gauge store.
    pub fn set(counter: &AtomicU64, n: u64) {
        counter.store(n, Ordering::Relaxed);
    }

    /// Starts a scrape snapshot under `family`: the header line and
    /// every total, ready for the pool's per-worker and per-campaign
    /// rows.
    pub fn scrape(&self, family: &ScrapeFamily) -> Scrape {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut s = Scrape::new();
        s.comment(family.title);
        for (name, counter) in [
            ("workers", &self.workers),
            ("campaigns", &self.campaigns),
            ("dispatches_total", &self.dispatches),
            ("results_total", &self.results),
            ("cache_hits_total", &self.cache_hits),
            ("quarantined_total", &self.quarantined),
            ("worker_evictions_total", &self.evictions),
            ("queue_depth", &self.queue_depth),
        ] {
            s.sample(&format!("{}_{name}", family.prefix), get(counter));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_renders_samples_in_order() {
        let mut s = Scrape::new();
        s.comment("test");
        s.sample("plain", 3);
        s.labelled("with_labels", &[("worker", "2"), ("campaign", "c0")], 7);
        assert_eq!(
            s.render(),
            "# test\nplain 3\nwith_labels{worker=\"2\",campaign=\"c0\"} 7\n"
        );
    }

    #[test]
    fn serve_metrics_snapshot_contains_every_counter() {
        let m = ServeMetrics::new();
        ServeMetrics::add(&m.dispatches, 5);
        ServeMetrics::add(&m.results, 4);
        ServeMetrics::set(&m.queue_depth, 2);
        let text = m.scrape(&ScrapeFamily::SERVE).render();
        assert!(text.starts_with("# audit serve metrics\n"));
        assert!(text.contains("audit_dispatches_total 5"));
        assert!(text.contains("audit_results_total 4"));
        assert!(text.contains("audit_queue_depth 2"));
        assert!(text.contains("audit_workers 0"));
        assert!(text.contains("audit_cache_hits_total 0"));
        assert!(text.contains("audit_quarantined_total 0"));
        assert!(text.contains("audit_worker_evictions_total 0"));
        assert!(text.contains("audit_campaigns 0"));
        // The fleet family renders the same counters under its prefix.
        let fleet = m.scrape(&ScrapeFamily::FLEET).render();
        assert!(fleet.starts_with("# audit fleet metrics\n"));
        assert!(fleet.contains("audit_fleet_dispatches_total 5"));
        assert!(fleet.contains("audit_fleet_queue_depth 2"));
    }
}
