//! Placement policies for tiered mounts: *where* should each closed file
//! live? The [`PlacementPolicy`] trait decides the tier-migration targets
//! the sweep ([`NvCache::rebalance`](crate::NvCache::rebalance), the
//! background worker) and the recovery misplacement judgement
//! ([`Mount::RecoverRepair`](crate::Mount),
//! [`RecoveryReport::files_misplaced`](crate::RecoveryReport)) work
//! toward. The policy only decides *where* a file belongs — the journaled
//! copy → stamp → unlink protocol of `migrate.rs` remains the only way a
//! file actually moves, and open-time placement of *new* files stays with
//! the [`Router`].
//!
//! Two policies ship:
//!
//! * [`RouterPlacement`] (the default) — a file belongs wherever the
//!   router's static rules put its path. This reproduces the pre-policy
//!   migrator exactly: the default configuration is byte- and
//!   virtual-time-identical to a build without this module.
//! * [`HeatPolicy`] — temperature-driven: files whose exponentially
//!   decayed access heat crosses `promote_threshold` belong on the
//!   `fast_tier` regardless of what the router says; files that cool below
//!   `demote_threshold` fall back to the router's baseline. The gap
//!   between the two thresholds is a **hysteresis band** (a file inside it
//!   stays put), and an optional fast-tier byte budget demotes the coldest
//!   residents when the hot set outgrows the fast tier.
//!
//! # Temperature
//!
//! Every intercepted read and write touches the file's temperature: the
//! stored heat is first decayed to the touching call's **virtual** clock
//! (`heat ← heat · 2^(−Δt / half_life)`, no wall clock anywhere), then
//! incremented by one. Temperature survives close → reopen through the
//! migrator catalog, exactly like the raw read/write counters. The catalog
//! is volatile, but each open file's tiered fd slot carries a quantized
//! summary ([`quantize_heat`]/[`dequantize_heat`]) that recovery feeds back
//! into the catalog, so promotions re-earn themselves from the persisted
//! heat instead of from scratch; a file recovered without a hot summary is
//! judged by [`PlacementPolicy::place_cold`].

use simclock::SimTime;

use crate::router::Router;

/// A decaying access-heat accumulator: `heat` as of virtual instant
/// `stamp`. Decay is applied lazily — readers fold `2^(−Δt / half_life)`
/// in at observation time — so an untouched file costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Temperature {
    /// Accumulated heat, valid as of `stamp`.
    pub heat: f64,
    /// Virtual instant of the last touch (per-actor clocks: a touch from a
    /// clock behind `stamp` neither decays nor rewinds).
    pub stamp: SimTime,
}

impl Temperature {
    /// The heat decayed to `now`. `half_life = None` disables decay (the
    /// accumulator then equals the lifetime touch count).
    pub fn decayed(&self, now: SimTime, half_life: Option<SimTime>) -> f64 {
        let Some(hl) = half_life else { return self.heat };
        let dt = now.saturating_sub(self.stamp);
        if dt == SimTime::ZERO || self.heat == 0.0 {
            self.heat
        } else {
            self.heat * f64::exp2(-(dt.as_nanos() as f64 / hl.as_nanos().max(1) as f64))
        }
    }

    /// One access at `now`: decay, then add one unit of heat.
    pub fn touch(&mut self, now: SimTime, half_life: Option<SimTime>) {
        self.heat = self.decayed(now, half_life) + 1.0;
        self.stamp = self.stamp.max(now);
    }
}

/// Quantizes a decayed heat value into the 16-bit summary persisted in an
/// fd slot's heat bytes: `min(65535, round(256 · log2(1 + heat)))`. The
/// log keeps the full dynamic range (heat ~10^74 still fits) at a relative
/// precision of ~0.3 %, and the mapping is monotone nondecreasing — a
/// hotter file never persists a colder summary.
pub(crate) fn quantize_heat(heat: f64) -> u16 {
    if heat.is_nan() || heat <= 0.0 {
        // Negative and NaN inputs cannot occur (heat is a sum of decayed
        // positive touches) but must still map to "cold", not wrap.
        return 0;
    }
    let q = (256.0 * (1.0 + heat).log2()).round();
    if q >= u16::MAX as f64 {
        u16::MAX
    } else {
        q as u16
    }
}

/// Inverse of [`quantize_heat`], up to quantization error:
/// `2^(q / 256) − 1`. Monotone nondecreasing in `q`, and `0` maps back to
/// exactly `0.0` — a zeroed (pre-heat-format) slot reads as stone cold.
pub(crate) fn dequantize_heat(q: u16) -> f64 {
    if q == 0 {
        0.0
    } else {
        f64::exp2(q as f64 / 256.0) - 1.0
    }
}

/// The placement policy's view of one catalogued (closed) file — the input
/// of [`PlacementPolicy::assign`].
#[derive(Debug, Clone, PartialEq)]
pub struct FileTemperature {
    /// Normalized absolute path.
    pub path: String,
    /// Backend index currently holding the file.
    pub backend: usize,
    /// Payload bytes at last close (`0` when only recovery has seen the
    /// file — its size is unknown until it is reopened or migrated).
    pub bytes: u64,
    /// Exponentially decayed access heat, decayed to the sweep instant
    /// with the policy's own [`half_life`](PlacementPolicy::half_life).
    pub heat: f64,
    /// Lifetime intercepted reads (undecayed).
    pub reads: u64,
    /// Lifetime intercepted writes (undecayed).
    pub writes: u64,
}

/// Decides where each closed file of a tiered mount belongs. Installed via
/// [`Tiering::placement`](crate::Tiering::placement);
/// the default is [`RouterPlacement`].
///
/// The policy is consulted by the rebalance sweep (all catalogued files at
/// once, so cross-file constraints like a capacity budget can hold) and by
/// recovery (per file, with no temperature — the catalog is volatile). It
/// never changes *how* a file moves: every move still goes through the
/// crash-safe migration protocol, and open-time placement of new files
/// stays with the [`Router`].
///
/// # Example
///
/// ```
/// use nvcache::{FileTemperature, HeatPolicy, PlacementPolicy, SingleBackend};
/// use simclock::SimTime;
///
/// let policy = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60));
/// let hot = FileTemperature {
///     path: "/cold/but-busy".into(),
///     backend: 0,
///     bytes: 4096,
///     heat: 9.5,
///     reads: 9,
///     writes: 1,
/// };
/// // The router would keep the file on tier 0; its heat promotes it.
/// assert_eq!(policy.assign(&[hot], &SingleBackend, 2), vec![1]);
/// ```
pub trait PlacementPolicy: Send + Sync + std::fmt::Debug {
    /// The target backend for each file in `files` (parallel vector, same
    /// order). A file whose target equals its current backend is left in
    /// place. `router` provides the static baseline placement and
    /// `backends` the mount's backend count; every returned index must be
    /// `< backends`.
    fn assign(&self, files: &[FileTemperature], router: &dyn Router, backends: usize)
        -> Vec<usize>;

    /// Where a file with **no accumulated temperature** belongs — the
    /// recovery-time judgement (`files_misplaced`,
    /// [`Mount::RecoverRepair`](crate::Mount) re-homing), where the
    /// volatile heat catalog is empty. `current` is the backend holding
    /// the file's bytes.
    fn place_cold(&self, path: &str, current: usize, router: &dyn Router) -> usize;

    /// Half-life of the exponential heat decay. `None` (the default)
    /// accumulates heat without decay — the raw touch count.
    fn half_life(&self) -> Option<SimTime> {
        None
    }

    /// Whether this policy reads [`FileTemperature::heat`] at all. The
    /// default derives it from the decay and fast-tier hooks; override to
    /// return `true` if your policy consumes heat without declaring
    /// either. When `false` the mount skips the per-I/O temperature
    /// bookkeeping entirely — [`RouterPlacement`] routes by path alone, so
    /// the default tiered mount pays nothing on the read/write path.
    fn uses_temperature(&self) -> bool {
        self.half_life().is_some() || self.fast_tier().is_some()
    }

    /// Decayed heat at or above which a catalogued entry must **never** be
    /// evicted from a capacity-bounded migrator catalog
    /// ([`Tiering::catalog_capacity`](crate::Tiering::catalog_capacity)):
    /// such an entry is promotion work the next sweep still owes, and
    /// dropping it would silently cancel the promotion. `None` (the
    /// default) pins nothing by heat — entries are then only pinned while
    /// misplaced.
    fn retain_heat_threshold(&self) -> Option<f64> {
        None
    }

    /// The backend this policy promotes hot files onto, if any. Drives the
    /// [`files_promoted`](crate::NvCacheStats::files_promoted) /
    /// [`files_demoted`](crate::NvCacheStats::files_demoted) /
    /// [`fast_tier_bytes`](crate::NvCacheStats::fast_tier_bytes) counters;
    /// `None` (the default) leaves them at zero.
    fn fast_tier(&self) -> Option<usize> {
        None
    }

    /// Short human-readable name (mount banners, bench output).
    fn name(&self) -> &str {
        "placement"
    }
}

/// The default policy: a file belongs exactly where the [`Router`] puts
/// its path. Reproduces the pre-policy migrator byte for byte and
/// nanosecond for nanosecond — the sweep targets, the sweep order and the
/// recovery misplacement judgement are unchanged (pinned by the oracle
/// test in `heat_tests.rs`).
///
/// ```
/// use nvcache::{PathPrefixRouter, PlacementPolicy, RouterPlacement};
/// let router = PathPrefixRouter::new(vec![("/hot".into(), 1)], 0);
/// assert_eq!(RouterPlacement.place_cold("/hot/wal", 0, &router), 1);
/// assert_eq!(RouterPlacement.place_cold("/bulk/seg", 1, &router), 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterPlacement;

impl PlacementPolicy for RouterPlacement {
    fn assign(
        &self,
        files: &[FileTemperature],
        router: &dyn Router,
        _backends: usize,
    ) -> Vec<usize> {
        files.iter().map(|f| router.route(&f.path)).collect()
    }

    fn place_cold(&self, path: &str, _current: usize, router: &dyn Router) -> usize {
        router.route(path)
    }

    fn name(&self) -> &str {
        "router"
    }
}

/// Temperature-driven placement: promote hot files onto one designated
/// fast tier, demote cold ones back to the router's baseline, with
/// hysteresis and an optional fast-tier capacity budget.
///
/// The per-file rule, judged on heat decayed to the sweep instant:
///
/// * `heat ≥ promote_threshold` → the file belongs on `fast_tier`, **no
///   matter where the router routes its path** (that is the whole point:
///   a hot file under a cold-routed prefix still converges onto the fast
///   medium).
/// * `heat ≤ demote_threshold` → the file belongs on the router's
///   baseline placement for its path (which may itself be the fast tier —
///   explicit routing rules keep working).
/// * in between (the **hysteresis band**) → the file stays where it is. A
///   file can therefore only change tier when its heat traverses the
///   whole band, which bounds oscillation to one move per threshold
///   crossing (the proptest in this module pins that down).
///
/// After the per-file pass, the optional **budget** pass sums the bytes
/// assigned to the fast tier and, while the sum exceeds
/// [`with_budget`](HeatPolicy::with_budget), demotes the coldest
/// fast-tier residents to their baseline (or to the lowest-indexed other
/// tier when the baseline *is* the fast tier) — so the hot set can never
/// outgrow the fast medium, at the price of evicting its coldest members
/// even inside the hysteresis band. Note that the hysteresis band does
/// **not** extend to the budget boundary: two near-equal-heat files
/// contending for the last budgeted seat can swap places on consecutive
/// sweeps whenever their decayed-heat order flips. Size the budget with
/// headroom over the expected hot set (or widen the thresholds) if that
/// churn matters for your workload.
#[derive(Debug, Clone)]
pub struct HeatPolicy {
    fast_tier: usize,
    promote_threshold: f64,
    demote_threshold: f64,
    half_life: SimTime,
    fast_tier_budget: u64,
}

impl HeatPolicy {
    /// A policy promoting files hotter than `promote_threshold` onto
    /// backend `fast_tier` and demoting files colder than
    /// `demote_threshold` back to the router baseline, with heat halving
    /// every `half_life` of virtual time. No budget (see
    /// [`with_budget`](HeatPolicy::with_budget)).
    ///
    /// # Panics
    ///
    /// Panics unless `promote_threshold > demote_threshold ≥ 0` (the
    /// hysteresis band must have positive width, or a file at the shared
    /// threshold would ping-pong) or if `half_life` is zero.
    pub fn new(
        fast_tier: usize,
        promote_threshold: f64,
        demote_threshold: f64,
        half_life: SimTime,
    ) -> HeatPolicy {
        assert!(
            promote_threshold > demote_threshold && demote_threshold >= 0.0,
            "hysteresis band must have positive width: promote {promote_threshold} \
             must exceed demote {demote_threshold} >= 0"
        );
        assert!(half_life > SimTime::ZERO, "heat half-life must be positive");
        HeatPolicy {
            fast_tier,
            promote_threshold,
            demote_threshold,
            half_life,
            fast_tier_budget: u64::MAX,
        }
    }

    /// Caps the payload bytes the policy will assign to the fast tier;
    /// when exceeded, the coldest fast-tier residents are demoted first.
    pub fn with_budget(mut self, bytes: u64) -> HeatPolicy {
        self.fast_tier_budget = bytes;
        self
    }

    /// The designated fast tier.
    pub fn fast_tier_index(&self) -> usize {
        self.fast_tier
    }

    /// Where a demoted file goes: its router baseline, unless the baseline
    /// *is* the fast tier — then the lowest-indexed other backend.
    fn spill_tier(&self, baseline: usize, backends: usize) -> usize {
        if baseline != self.fast_tier {
            baseline
        } else {
            (0..backends).find(|&b| b != self.fast_tier).unwrap_or(self.fast_tier)
        }
    }
}

impl PlacementPolicy for HeatPolicy {
    fn assign(
        &self,
        files: &[FileTemperature],
        router: &dyn Router,
        backends: usize,
    ) -> Vec<usize> {
        let mut targets: Vec<usize> = files
            .iter()
            .map(|f| {
                if f.heat >= self.promote_threshold {
                    self.fast_tier
                } else if f.heat <= self.demote_threshold {
                    router.route(&f.path)
                } else {
                    f.backend // hysteresis band: no move
                }
            })
            .collect();
        if self.fast_tier_budget < u64::MAX {
            let mut residents: Vec<usize> = (0..files.len())
                .filter(|&i| targets[i] == self.fast_tier && files[i].bytes > 0)
                .collect();
            let mut occupied: u64 = residents.iter().map(|&i| files[i].bytes).sum();
            // Coldest first; bigger files first within equal heat (frees
            // the budget with the fewest evictions), path as the final
            // deterministic tie-break.
            residents.sort_by(|&a, &b| {
                files[a]
                    .heat
                    .total_cmp(&files[b].heat)
                    .then(files[b].bytes.cmp(&files[a].bytes))
                    .then(files[a].path.cmp(&files[b].path))
            });
            for i in residents {
                if occupied <= self.fast_tier_budget {
                    break;
                }
                targets[i] = self.spill_tier(router.route(&files[i].path), backends);
                occupied -= files[i].bytes;
            }
        }
        targets
    }

    fn place_cold(&self, path: &str, _current: usize, router: &dyn Router) -> usize {
        // No temperature (fresh recovery): the router baseline. Files the
        // policy had promoted before the crash are therefore judged
        // misplaced after it — temperature is volatile by design, and the
        // file re-earns its promotion as heat accumulates.
        router.route(path)
    }

    fn half_life(&self) -> Option<SimTime> {
        Some(self.half_life)
    }

    fn retain_heat_threshold(&self) -> Option<f64> {
        // An entry at or above the promote threshold is a promotion the
        // sweep has not executed yet — a bounded catalog must keep it.
        Some(self.promote_threshold)
    }

    fn fast_tier(&self) -> Option<usize> {
        Some(self.fast_tier)
    }

    fn name(&self) -> &str {
        "heat"
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::router::{PathPrefixRouter, SingleBackend};

    fn file(path: &str, backend: usize, bytes: u64, heat: f64) -> FileTemperature {
        FileTemperature { path: path.into(), backend, bytes, heat, reads: 0, writes: 0 }
    }

    #[test]
    fn temperature_decays_with_the_virtual_clock() {
        let mut t = Temperature::default();
        let hl = Some(SimTime::from_secs(10));
        t.touch(SimTime::ZERO, hl);
        t.touch(SimTime::ZERO, hl);
        assert_eq!(t.decayed(SimTime::ZERO, hl), 2.0);
        // One half-life: exactly half the heat is left.
        assert_eq!(t.decayed(SimTime::from_secs(10), hl), 1.0);
        assert_eq!(t.decayed(SimTime::from_secs(20), hl), 0.5);
        // Touch after a half-life: decayed + 1.
        t.touch(SimTime::from_secs(10), hl);
        assert_eq!(t.decayed(SimTime::from_secs(10), hl), 2.0);
        // Reading without a half-life returns the stored (already decayed
        // at touch time) accumulator as-is.
        assert_eq!(t.decayed(SimTime::from_secs(10), None), 2.0);
    }

    #[test]
    fn temperature_never_rewinds_on_an_older_clock() {
        let mut t = Temperature::default();
        let hl = Some(SimTime::from_secs(1));
        t.touch(SimTime::from_secs(100), hl);
        // A touch from an actor whose clock lags must neither decay (the
        // saturating Δt is zero) nor move the stamp backwards.
        t.touch(SimTime::from_secs(50), hl);
        assert_eq!(t.stamp, SimTime::from_secs(100));
        assert_eq!(t.decayed(SimTime::from_secs(100), hl), 2.0);
    }

    #[test]
    fn router_placement_mirrors_the_router() {
        let router = PathPrefixRouter::new(vec![("/hot".into(), 1)], 0);
        let files = vec![file("/hot/a", 0, 10, 100.0), file("/bulk/b", 1, 10, 100.0)];
        assert_eq!(RouterPlacement.assign(&files, &router, 2), vec![1, 0]);
        assert_eq!(RouterPlacement.place_cold("/hot/a", 0, &router), 1);
        assert_eq!(RouterPlacement.half_life(), None);
        assert_eq!(RouterPlacement.fast_tier(), None);
    }

    #[test]
    fn heat_policy_promotes_demotes_and_holds_the_band() {
        let p = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60));
        let router = SingleBackend; // baseline: everything on tier 0
        let files = vec![
            file("/a", 0, 10, 5.0), // hot on slow tier → promote
            file("/b", 1, 10, 0.5), // cold on fast tier → demote to baseline
            file("/c", 0, 10, 2.0), // band, on slow → stay
            file("/d", 1, 10, 2.0), // band, on fast → stay
            file("/e", 1, 10, 4.0), // exactly at promote → fast
            file("/f", 0, 10, 1.0), // exactly at demote → baseline
        ];
        assert_eq!(p.assign(&files, &router, 2), vec![1, 0, 0, 1, 1, 0]);
        assert_eq!(p.fast_tier(), Some(1));
        assert_eq!(p.half_life(), Some(SimTime::from_secs(60)));
    }

    #[test]
    fn heat_policy_respects_explicit_router_rules_for_cold_files() {
        // A cold file whose *router baseline* is the fast tier stays there:
        // explicit placement rules outrank the temperature default.
        let p = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60));
        let router = PathPrefixRouter::new(vec![("/wal".into(), 1)], 0);
        let files = vec![file("/wal/0001", 1, 10, 0.0)];
        assert_eq!(p.assign(&files, &router, 2), vec![1]);
    }

    #[test]
    fn budget_demotes_the_coldest_residents_first() {
        let p = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60)).with_budget(25);
        let router = SingleBackend;
        let files = vec![
            file("/hottest", 0, 10, 9.0),
            file("/warm", 1, 10, 5.0),
            file("/coolest", 1, 10, 4.5),
            file("/band", 1, 10, 2.0), // band resident also counts toward the budget
        ];
        // 40 bytes want the fast tier, budget is 25: the two coldest
        // residents (/band at 2.0, /coolest at 4.5) are demoted.
        assert_eq!(p.assign(&files, &router, 2), vec![1, 1, 0, 0]);
    }

    #[test]
    fn budget_spills_to_another_tier_when_the_baseline_is_fast() {
        let p = HeatPolicy::new(0, 4.0, 1.0, SimTime::from_secs(60)).with_budget(10);
        // Everything baselines to tier 0 — which *is* the fast tier — so
        // the spill must pick the lowest-indexed other backend; the
        // hotter file keeps its seat under the 10-byte budget.
        let files = vec![file("/a", 0, 10, 9.0), file("/b", 0, 10, 8.0)];
        assert_eq!(p.assign(&files, &SingleBackend, 3), vec![0, 1]);
    }

    #[test]
    fn zero_byte_files_never_soak_up_budget_evictions() {
        let p = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60)).with_budget(5);
        // The recovery-seeded entry (unknown size, bytes = 0) occupies no
        // budget; evicting it would free nothing, so it must stay.
        let files = vec![file("/seeded", 1, 0, 2.0), file("/big", 1, 10, 9.0)];
        assert_eq!(p.assign(&files, &SingleBackend, 2), vec![1, 0]);
    }

    #[test]
    fn heat_quantization_is_monotone_and_cold_preserving() {
        assert_eq!(quantize_heat(0.0), 0);
        assert_eq!(quantize_heat(-1.0), 0);
        assert_eq!(quantize_heat(f64::NAN), 0);
        assert_eq!(dequantize_heat(0), 0.0);
        // Saturates instead of wrapping at the top of the range.
        assert_eq!(quantize_heat(f64::INFINITY), u16::MAX);
        assert_eq!(quantize_heat(1e300), u16::MAX);
        // Round trip stays within the ~0.3 % relative quantization error.
        for &h in &[0.5, 1.0, 4.0, 123.456, 1e6, 1e12] {
            let rt = dequantize_heat(quantize_heat(h));
            assert!((rt - h).abs() / h < 0.01, "heat {h} round-tripped to {rt}");
        }
        // Dequantization is strictly monotone over the whole code space.
        for q in 0..u16::MAX {
            assert!(dequantize_heat(q) < dequantize_heat(q + 1));
        }
    }

    #[test]
    fn retain_threshold_follows_the_promote_threshold() {
        assert_eq!(RouterPlacement.retain_heat_threshold(), None);
        let p = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60));
        assert_eq!(p.retain_heat_threshold(), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn inverted_thresholds_panic() {
        HeatPolicy::new(1, 1.0, 4.0, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn zero_width_band_panics() {
        HeatPolicy::new(1, 2.0, 2.0, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "half-life must be positive")]
    fn zero_half_life_panics() {
        HeatPolicy::new(1, 4.0, 1.0, SimTime::ZERO);
    }

    /// Band state of a heat value: above the promote threshold, below the
    /// demote threshold, or inside the hysteresis band.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Band {
        Hot,
        Cold,
        Within,
    }

    fn band(heat: f64, p: &HeatPolicy) -> Band {
        if heat >= p.promote_threshold {
            Band::Hot
        } else if heat <= p.demote_threshold {
            Band::Cold
        } else {
            Band::Within
        }
    }

    proptest! {
        /// Persisted-heat contract: hotter in ⇒ not-colder out, for any
        /// pair of heats the accumulator can produce.
        #[test]
        fn quantization_is_monotone(a in 0.0f64..1e9, b in 0.0f64..1e9) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(quantize_heat(lo) <= quantize_heat(hi));
            prop_assert!(
                dequantize_heat(quantize_heat(lo)) <= dequantize_heat(quantize_heat(hi))
            );
        }

        /// The hysteresis contract: under ANY access sequence, a file
        /// changes tier at most once per threshold crossing — every
        /// promotion happens at a step whose decayed heat is above the
        /// promote threshold, every demotion at a step below the demote
        /// threshold, and two consecutive moves always have a full band
        /// traversal between them (no ping-pong inside the band).
        #[test]
        fn no_oscillation_without_a_threshold_crossing(
            steps in proptest::collection::vec(
                // (touch the file this step?, virtual-time gap in ms)
                (any::<bool>(), 0u64..5_000),
                1..120,
            ),
            promote in 2.0f64..8.0,
            width in 0.5f64..1.9,
            half_life_ms in 100u64..2_000,
        ) {
            let p = HeatPolicy::new(
                1,
                promote,
                promote - width,
                SimTime::from_millis(half_life_ms),
            );
            let router = SingleBackend; // baseline: tier 0
            let mut temp = Temperature::default();
            let mut now = SimTime::ZERO;
            let mut tier = 0usize;
            let mut moves = 0usize;
            let mut crossings = 0usize;
            let mut last_extreme = Band::Cold; // files start cold
            for (touch, gap_ms) in steps {
                now += SimTime::from_millis(gap_ms);
                if touch {
                    temp.touch(now, p.half_life());
                }
                let heat = temp.decayed(now, p.half_life());
                // Count full band traversals of the heat signal itself.
                match band(heat, &p) {
                    Band::Hot if last_extreme == Band::Cold => {
                        crossings += 1;
                        last_extreme = Band::Hot;
                    }
                    Band::Cold if last_extreme == Band::Hot => {
                        crossings += 1;
                        last_extreme = Band::Cold;
                    }
                    _ => {}
                }
                let f = FileTemperature {
                    path: "/f".into(),
                    backend: tier,
                    bytes: 10,
                    heat,
                    reads: 0,
                    writes: 0,
                };
                let target = p.assign(std::slice::from_ref(&f), &router, 2)[0];
                if target != tier {
                    // Each move must be justified by the heat at this step.
                    if target == 1 {
                        prop_assert!(heat >= p.promote_threshold,
                            "promotion below the promote threshold (heat {heat})");
                    } else {
                        prop_assert!(heat <= p.demote_threshold,
                            "demotion above the demote threshold (heat {heat})");
                    }
                    tier = target;
                    moves += 1;
                }
            }
            prop_assert!(
                moves <= crossings,
                "{moves} tier moves but only {crossings} threshold crossings"
            );
        }
    }
}
