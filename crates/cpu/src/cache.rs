//! Set-associative cache hierarchy.
//!
//! The behavioural memory model (`MemBehavior::L2MissEvery` /
//! `MemMissEvery`) is enough for the synthetic benchmark profiles, but a
//! stressmark generator that controls load *addresses* — as the real
//! AUDIT does, and as Joseph et al.'s hand-made memory virus did — needs
//! real caches: a strided walk either fits in a level or thrashes it.
//! [`MemBehavior::Strided`](crate::inst::MemBehavior) loads are resolved
//! against this model; the behavioural variants bypass it.
//!
//! The hierarchy is per-core L1-D and L2 (Bulldozer: 16 KB/4-way and a
//! dedicated 2 MB/16-way per module, modelled per core); a miss in both
//! goes to memory. The shared L3 is folded into the memory latency, a
//! simplification documented in DESIGN.md.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` and `line_bytes` are powers of two and
    /// `ways` is positive.
    pub fn new(sets: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        CacheConfig {
            sets,
            ways,
            line_bytes,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes as u64
    }

    /// Bulldozer-class L1-D: 16 KB, 4-way, 64 B lines.
    pub const fn l1d_bulldozer() -> Self {
        CacheConfig {
            sets: 64,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Bulldozer-class L2 slice: 2 MB, 16-way, 64 B lines.
    pub const fn l2_bulldozer() -> Self {
        CacheConfig {
            sets: 2048,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Phenom-class L1-D: 64 KB, 2-way.
    pub const fn l1d_phenom() -> Self {
        CacheConfig {
            sets: 512,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// Phenom-class L2: 512 KB, 16-way.
    pub const fn l2_phenom() -> Self {
        CacheConfig {
            sets: 512,
            ways: 16,
            line_bytes: 64,
        }
    }
}

/// One cache level with true-LRU replacement.
///
/// The tag array is allocated on the first [`Cache::access`]: only
/// strided loads reach the caches, so most cores never pay for (or
/// clone) their megabyte of tags.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * ways + way]`, most-recent at way 0; empty until the
    /// first access.
    tags: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            cfg,
            tags: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Looks up `addr`, filling on miss. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes as u64;
        let set = (line % self.cfg.sets as u64) as usize;
        let tag = line / self.cfg.sets as u64;
        let ways = self.cfg.ways as usize;
        if self.tags.is_empty() {
            self.tags = vec![None; (self.cfg.sets * self.cfg.ways) as usize];
        }
        let base = set * ways;
        let slots = &mut self.tags[base..base + ways];

        if let Some(pos) = slots.iter().position(|t| *t == Some(tag)) {
            // Move to MRU.
            slots[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // Evict LRU (last way), insert at MRU.
            slots.rotate_right(1);
            slots[0] = Some(tag);
            self.misses += 1;
            false
        }
    }

    /// Hits recorded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Appends the tag array in LRU order (way 0 most recent) — all a
    /// cache carries into its future; the hit/miss statistics are not.
    pub(crate) fn encode_tags(&self, out: &mut Vec<u64>) {
        out.push(self.tags.len() as u64);
        out.extend(self.tags.iter().map(|t| t.map_or(0, |t| t + 1)));
    }

    /// Miss ratio (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Where a memory access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both cache levels.
    Memory,
}

/// A per-core L1 + L2 hierarchy.
///
/// # Example
///
/// ```
/// use audit_cpu::cache::{CacheConfig, Hierarchy, MemLevel};
///
/// let mut h = Hierarchy::new(CacheConfig::l1d_bulldozer(), CacheConfig::l2_bulldozer());
/// assert_eq!(h.access(0x1000), MemLevel::Memory); // cold
/// assert_eq!(h.access(0x1000), MemLevel::L1);     // warm
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
}

impl Hierarchy {
    /// Builds a hierarchy from level geometries.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Hierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
        }
    }

    /// Accesses `addr` through both levels (inclusive fill).
    pub fn access(&mut self, addr: u64) -> MemLevel {
        if self.l1.access(addr) {
            MemLevel::L1
        } else if self.l2.access(addr) {
            MemLevel::L2
        } else {
            MemLevel::Memory
        }
    }

    /// The L1 level (stats).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 level (stats).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_arithmetic() {
        assert_eq!(CacheConfig::l1d_bulldozer().capacity_bytes(), 16 * 1024);
        assert_eq!(
            CacheConfig::l2_bulldozer().capacity_bytes(),
            2 * 1024 * 1024
        );
    }

    #[test]
    fn repeated_access_hits_after_first_touch() {
        let mut c = Cache::new(CacheConfig::new(4, 2, 64));
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set × 2 ways: A, B fill; touching A then inserting C evicts B.
        let mut c = Cache::new(CacheConfig::new(1, 2, 64));
        c.access(0x000); // A miss
        c.access(0x040); // B miss
        c.access(0x000); // A hit → MRU
        c.access(0x080); // C miss → evicts B
        assert!(c.access(0x000), "A must survive");
        assert!(!c.access(0x040), "B must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_has_no_steady_state_misses() {
        let cfg = CacheConfig::new(64, 4, 64); // 16 KB
        let mut c = Cache::new(cfg);
        let lines = (cfg.capacity_bytes() / 64) / 2; // half capacity
        for pass in 0..4 {
            for i in 0..lines {
                let hit = c.access(i * 64);
                if pass > 0 {
                    assert!(hit, "steady-state miss at line {i}");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let cfg = CacheConfig::new(64, 4, 64); // 16 KB
        let mut c = Cache::new(cfg);
        let lines = (cfg.capacity_bytes() / 64) * 2; // 2× capacity
        for _ in 0..4 {
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        // Cyclic sweep over 2× capacity with LRU misses every access.
        assert!(c.miss_ratio() > 0.9, "miss ratio {}", c.miss_ratio());
    }

    #[test]
    fn hierarchy_classifies_levels() {
        let mut h = Hierarchy::new(CacheConfig::new(2, 2, 64), CacheConfig::new(64, 4, 64));
        assert_eq!(h.access(0x0), MemLevel::Memory);
        assert_eq!(h.access(0x0), MemLevel::L1);
        // Blow out the tiny L1 (4 lines) but stay inside L2.
        for i in 1..=8u64 {
            h.access(i * 64);
        }
        assert_eq!(h.access(0x0), MemLevel::L2);
    }

    #[test]
    fn clone_of_untouched_hierarchy_behaves_like_the_original() {
        // Tags are allocated on first access; a clone taken before then
        // (as the harness's mean-current probe does) must fill its own.
        let mut original =
            Hierarchy::new(CacheConfig::l1d_bulldozer(), CacheConfig::l2_bulldozer());
        let mut copy = original.clone();
        // Two passes of a 32 B stride over 1 MB: cold lines come from
        // memory, the second half of each line from L1, and the second
        // pass finds every line in L2 only.
        let walk = |h: &mut Hierarchy| -> Vec<MemLevel> {
            (0..2 * 32_768u64)
                .map(|i| h.access((i * 32) % (1 << 20)))
                .collect()
        };
        let levels = walk(&mut original);
        assert_eq!(levels, walk(&mut copy));
        for level in [MemLevel::L1, MemLevel::L2, MemLevel::Memory] {
            assert!(levels.contains(&level), "walk never reached {level:?}");
        }
        for (a, b) in [(original.l1(), copy.l1()), (original.l2(), copy.l2())] {
            assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheConfig::new(3, 2, 64);
    }
}
