//! Deterministic fault injection for resilience testing.
//!
//! Real GPU runs fail in ways the paper's experiments silently retried
//! around: single-event upsets in shared-memory tiles, torn reads of the
//! Merge Path partition array, truncated dataset files. This module
//! simulates those failures *reproducibly*: every fault decision is a
//! pure function of the injector's seed and the coordinates of the work
//! unit (`round`, `block`, `attempt`), so a failing run replays
//! bit-identically under the same seed — the property that makes fault
//! bugs debuggable at all.
//!
//! The injector is stateless (all methods take `&self`); recovery
//! bookkeeping lives in [`crate::counters::FaultCounters`], maintained by
//! whoever drives the injector (the resilient sort driver in
//! `wcms-mergesort`).
//!
//! Keying faults by `attempt` is what makes *retry* a meaningful
//! recovery strategy: a fault that fires at attempt 0 usually does not
//! fire at attempt 1, exactly like a transient hardware upset. Setting a
//! rate to `1.0` models a *hard* fault that retries cannot clear — the
//! path that exercises CPU degradation.

use crate::key::GpuKey;

/// SplitMix64's finalizer: a high-quality 64-bit mixing permutation
/// (public-domain reference constants). All fault decisions and the
/// workspace's order-independent fingerprints are built on it.
#[must_use]
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The three places a simulated fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultSite {
    /// Bit-flips in the keys a block loads into its shared-memory tile.
    SharedTile,
    /// Corruption of a block's Merge Path co-rank pair (a faulty
    /// partition kernel, or a torn read of the partition array).
    Corank,
    /// Truncation of an on-disk dataset (a torn write / partial copy).
    Dataset,
}

impl FaultSite {
    /// Domain-separation salt so the same coordinates never correlate
    /// across sites.
    fn salt(self) -> u64 {
        match self {
            FaultSite::SharedTile => 0x7411_E000,
            FaultSite::Corank => 0xC0_4A4C,
            FaultSite::Dataset => 0xDA_7A5E,
        }
    }
}

/// Fault rates and the seed that makes them reproducible.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per
/// (site, round, block, attempt); `0.0` disables a site entirely and
/// `1.0` makes it fire on every attempt (a hard fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault stream. Two injectors with the same config make
    /// identical decisions everywhere.
    pub seed: u64,
    /// Probability that a block's tile load suffers bit-flips.
    pub tile_bitflip_rate: f64,
    /// Probability that a block's co-rank pair is corrupted.
    pub corank_rate: f64,
    /// Probability that a dataset read sees a truncated file.
    pub truncate_rate: f64,
    /// Bits flipped per fired tile fault (≥ 1; default 1, the classic
    /// single-event upset).
    pub flips_per_fault: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            tile_bitflip_rate: 0.0,
            corank_rate: 0.0,
            truncate_rate: 0.0,
            flips_per_fault: 1,
        }
    }
}

/// A seeded, stateless fault oracle.
///
/// ```
/// use wcms_gpu_sim::fault::{FaultConfig, FaultInjector};
///
/// let inj = FaultInjector::new(FaultConfig {
///     seed: 42,
///     tile_bitflip_rate: 0.5,
///     ..FaultConfig::default()
/// });
/// // Decisions are reproducible:
/// assert_eq!(inj.tile_fault_at(1, 3, 0), inj.tile_fault_at(1, 3, 0));
/// // A disabled injector never fires:
/// assert!(!FaultInjector::disabled().tile_fault_at(1, 3, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// An injector with the given rates and seed.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg }
    }

    /// The no-fault injector: every rate zero, nothing ever fires.
    /// Driving the resilient sort with it is bit-identical to the plain
    /// driver (the acceptance property of the fault subsystem).
    #[must_use]
    pub fn disabled() -> Self {
        FaultInjector { cfg: FaultConfig::default() }
    }

    /// The configuration this injector was built with.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True if any site has a non-zero rate.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cfg.tile_bitflip_rate > 0.0
            || self.cfg.corank_rate > 0.0
            || self.cfg.truncate_rate > 0.0
    }

    /// The deterministic word stream for one work unit: `lane` indexes
    /// independent draws within the same (site, round, block, attempt).
    fn word(&self, site: FaultSite, round: usize, block: usize, attempt: usize, lane: u64) -> u64 {
        let mut h = splitmix64(self.cfg.seed ^ site.salt());
        h = splitmix64(h ^ round as u64);
        h = splitmix64(h ^ block as u64);
        h = splitmix64(h ^ attempt as u64);
        splitmix64(h ^ lane)
    }

    /// Bernoulli draw at `rate` from lane 0 of the unit's word stream.
    fn fires(
        &self,
        rate: f64,
        site: FaultSite,
        round: usize,
        block: usize,
        attempt: usize,
    ) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        // 53 uniform mantissa bits → a double in [0, 1).
        let u = (self.word(site, round, block, attempt, 0) >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Does this (round, block, attempt) suffer a tile bit-flip fault?
    /// Round 0 is the base-case kernel, rounds ≥ 1 the global merges.
    #[must_use]
    pub fn tile_fault_at(&self, round: usize, block: usize, attempt: usize) -> bool {
        self.fires(self.cfg.tile_bitflip_rate, FaultSite::SharedTile, round, block, attempt)
    }

    /// Does this (round, block, attempt) suffer co-rank corruption?
    #[must_use]
    pub fn corank_fault_at(&self, round: usize, block: usize, attempt: usize) -> bool {
        self.fires(self.cfg.corank_rate, FaultSite::Corank, round, block, attempt)
    }

    /// Flip `flips_per_fault` deterministic bits in `keys` (positions and
    /// bit indices drawn from the unit's word stream). Call only after
    /// [`FaultInjector::tile_fault_at`] said the fault fires; returns the
    /// number of bits flipped (0 for an empty slice).
    pub fn flip_tile_bits<K: GpuKey>(
        &self,
        keys: &mut [K],
        round: usize,
        block: usize,
        attempt: usize,
    ) -> usize {
        if keys.is_empty() {
            return 0;
        }
        let flips = self.cfg.flips_per_fault.max(1);
        let key_bits = (8 * K::WORD_BYTES) as u64;
        for f in 0..flips {
            let idx = self.word(FaultSite::SharedTile, round, block, attempt, 1 + 2 * f as u64)
                as usize
                % keys.len();
            let bit = self.word(FaultSite::SharedTile, round, block, attempt, 2 + 2 * f as u64)
                % key_bits;
            keys[idx] = K::from_bits(keys[idx].to_bits() ^ (1 << bit));
        }
        flips
    }

    /// Deterministically perturb a correct co-rank pair. The perturbation
    /// is small (±1..=4 on one endpoint) so it sometimes survives the
    /// kernel's structural validation and must be caught by the
    /// round-level sortedness/permutation checks instead — the harder
    /// detection path.
    #[must_use]
    pub fn corrupt_corank(
        &self,
        corank: (usize, usize),
        round: usize,
        block: usize,
        attempt: usize,
    ) -> (usize, usize) {
        let w = self.word(FaultSite::Corank, round, block, attempt, 1);
        let delta = 1 + (w & 3) as usize;
        let (start, end) = corank;
        match (w >> 2) & 3 {
            0 => (start.saturating_sub(delta), end),
            1 => (start + delta, end),
            2 => (start, end.saturating_sub(delta)),
            _ => (start, end + delta),
        }
    }

    /// If the dataset fault fires for `tag` (e.g. a hash of the file
    /// name), return the byte length the reader will actually see — a
    /// uniformly chosen truncation point in `[0, len)`. `None` means the
    /// read goes through intact.
    #[must_use]
    pub fn truncate_dataset(&self, len: usize, tag: u64) -> Option<usize> {
        if len == 0 || !self.fires(self.cfg.truncate_rate, FaultSite::Dataset, 0, 0, tag as usize) {
            return None;
        }
        Some(self.word(FaultSite::Dataset, 0, 0, tag as usize, 1) as usize % len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(seed: u64, tile: f64, corank: f64, trunc: f64) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            seed,
            tile_bitflip_rate: tile,
            corank_rate: corank,
            truncate_rate: trunc,
            flips_per_fault: 1,
        })
    }

    #[test]
    fn disabled_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        for round in 0..4 {
            for block in 0..64 {
                assert!(!inj.tile_fault_at(round, block, 0));
                assert!(!inj.corank_fault_at(round, block, 0));
            }
        }
        assert_eq!(inj.truncate_dataset(1024, 7), None);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = injector(1, 0.5, 0.5, 0.5);
        let b = injector(1, 0.5, 0.5, 0.5);
        let c = injector(2, 0.5, 0.5, 0.5);
        let mut diverged = false;
        for block in 0..256 {
            assert_eq!(a.tile_fault_at(1, block, 0), b.tile_fault_at(1, block, 0));
            diverged |= a.tile_fault_at(1, block, 0) != c.tile_fault_at(1, block, 0);
        }
        assert!(diverged, "different seeds must give different fault patterns");
    }

    #[test]
    fn rate_one_is_a_hard_fault_and_rates_are_roughly_honoured() {
        let hard = injector(9, 1.0, 0.0, 0.0);
        for attempt in 0..8 {
            assert!(hard.tile_fault_at(1, 0, attempt));
        }
        let soft = injector(9, 0.25, 0.0, 0.0);
        let fired = (0..4000).filter(|&b| soft.tile_fault_at(1, b, 0)).count();
        assert!((800..1200).contains(&fired), "~25% of 4000 expected, got {fired}");
    }

    #[test]
    fn attempts_decorrelate_faults() {
        // At rate 0.5 some block that faults at attempt 0 must clear at
        // attempt 1 — the property that makes retry a recovery strategy.
        let inj = injector(3, 0.5, 0.0, 0.0);
        let cleared =
            (0..64).any(|block| inj.tile_fault_at(1, block, 0) && !inj.tile_fault_at(1, block, 1));
        assert!(cleared);
    }

    #[test]
    fn flip_changes_exactly_the_configured_bits() {
        let inj = injector(11, 1.0, 0.0, 0.0);
        let orig: Vec<u32> = (0..48).collect();
        let mut keys = orig.clone();
        let flipped = inj.flip_tile_bits(&mut keys, 0, 0, 0);
        assert_eq!(flipped, 1);
        let differing: Vec<usize> = (0..48).filter(|&i| keys[i] != orig[i]).collect();
        assert_eq!(differing.len(), 1);
        let i = differing[0];
        assert_eq!((keys[i] ^ orig[i]).count_ones(), 1);
        // Replay is bit-identical.
        let mut again = orig.clone();
        inj.flip_tile_bits(&mut again, 0, 0, 0);
        assert_eq!(again, keys);
    }

    #[test]
    fn corank_perturbation_changes_the_pair() {
        let inj = injector(5, 0.0, 1.0, 0.0);
        let mut changed = 0;
        for block in 0..32 {
            let c = inj.corrupt_corank((100, 120), 2, block, 0);
            assert_ne!(c, (100, 120));
            assert_eq!(c, inj.corrupt_corank((100, 120), 2, block, 0));
            changed += 1;
        }
        assert_eq!(changed, 32);
        // Saturation keeps the pair in usize range at the origin.
        let _ = inj.corrupt_corank((0, 0), 2, 0, 0);
    }

    #[test]
    fn truncation_point_is_in_range() {
        let inj = injector(7, 0.0, 0.0, 1.0);
        for tag in 0..32u64 {
            let cut = inj.truncate_dataset(1000, tag).expect("rate 1.0 always fires");
            assert!(cut < 1000);
        }
        assert_eq!(inj.truncate_dataset(0, 1), None, "empty files cannot be truncated");
    }
}
