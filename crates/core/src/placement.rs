//! Heat-driven placement for tiered mounts: *where* should each closed file
//! live? A file belongs where the mount's [`Router`] puts its path, unless
//! the mount has a [`HeatPolicy`]
//! ([`Tiering::heat`](crate::Tiering::heat)) — then files whose
//! exponentially decayed access heat crosses `promote_threshold` belong on
//! the `fast_tier` regardless of what the router says, and files that cool
//! below `demote_threshold` fall back to the router's baseline. The gap
//! between the two thresholds is a **hysteresis band** (a file inside it
//! stays put), and an optional fast-tier byte budget demotes the coldest
//! residents when the hot set outgrows the fast tier.
//!
//! That judgement is what the sweep ([`NvCache::rebalance`](crate::NvCache::rebalance))
//! works toward. It only decides *where* a file
//! belongs — the journaled copy → stamp → unlink protocol of `migrate.rs`
//! remains the only way a file actually moves, and open-time placement of
//! *new* files stays with the router.
//!
//! # Temperature
//!
//! On a mount with a heat policy that may migrate, every intercepted read
//! and write touches the file's temperature: the stored heat is first
//! decayed to the touching call's **virtual** clock
//! (`heat ← heat · 2^(−Δt / half_life)`, no wall clock anywhere), then
//! incremented by one. Temperature survives close → reopen through the
//! migrator catalog, exactly like the raw read/write counters. The catalog
//! is volatile, but each open file's tiered fd slot carries a quantized
//! summary ([`quantize_heat`]/[`dequantize_heat`]) that recovery feeds back
//! into the catalog, so promotions re-earn themselves from the persisted
//! heat instead of from scratch; recovery judges a file whose summary does
//! not clear the promote threshold by its router
//! ([`RecoveryReport::files_misplaced`](crate::RecoveryReport)).

use simclock::SimTime;

use crate::migrate::FileHeat;
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
    /// The heat decayed to `now`, halving every `half_life`.
    pub fn decayed(&self, now: SimTime, half_life: SimTime) -> f64 {
        let dt = now.saturating_sub(self.stamp);
        if dt == SimTime::ZERO || self.heat == 0.0 {
            self.heat
        } else {
            self.heat * f64::exp2(-(dt.as_nanos() as f64 / half_life.as_nanos().max(1) as f64))
        }
    }

    /// One access at `now`: decay, then add one unit of heat.
    pub fn touch(&mut self, now: SimTime, half_life: SimTime) {
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
    pub(crate) fast_tier: usize,
    /// Also the persisted heat at or above which recovery does not count
    /// a file off its routed tier as misplaced.
    pub(crate) promote_threshold: f64,
    demote_threshold: f64,
    pub(crate) half_life: SimTime,
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

    /// Where a demoted file goes: its router baseline, unless the baseline
    /// *is* the fast tier — then the lowest-indexed other backend.
    fn spill_tier(&self, baseline: usize, backends: usize) -> usize {
        if baseline != self.fast_tier {
            baseline
        } else {
            (0..backends).find(|&b| b != self.fast_tier).unwrap_or(self.fast_tier)
        }
    }

    /// The target backend of each catalogued `(path, heat)` entry, in the
    /// same order, judged on its heat decayed to `now`. An entry whose
    /// target is its current backend stays in place; `backends` is the
    /// mount's tier count, where the budget pass spills to.
    pub(crate) fn assign(
        &self,
        files: &[(String, FileHeat)],
        now: SimTime,
        router: &dyn Router,
        backends: usize,
    ) -> Vec<usize> {
        let heat: Vec<f64> =
            files.iter().map(|(_, h)| h.temp.decayed(now, self.half_life)).collect();
        let mut targets: Vec<usize> = files
            .iter()
            .zip(&heat)
            .map(|((path, h), &heat)| {
                if heat >= self.promote_threshold {
                    self.fast_tier
                } else if heat <= self.demote_threshold {
                    router.route(path)
                } else {
                    h.backend as usize // hysteresis band: no move
                }
            })
            .collect();
        if self.fast_tier_budget < u64::MAX {
            let bytes = |i: usize| files[i].1.bytes;
            let mut residents: Vec<usize> = (0..files.len())
                .filter(|&i| targets[i] == self.fast_tier && bytes(i) > 0)
                .collect();
            let mut occupied: u64 = residents.iter().map(|&i| bytes(i)).sum();
            // Coldest first; bigger files first within equal heat (frees
            // the budget with the fewest evictions), path as the final
            // deterministic tie-break.
            residents.sort_by(|&a, &b| {
                heat[a]
                    .total_cmp(&heat[b])
                    .then(bytes(b).cmp(&bytes(a)))
                    .then(files[a].0.cmp(&files[b].0))
            });
            for i in residents {
                if occupied <= self.fast_tier_budget {
                    break;
                }
                targets[i] = self.spill_tier(router.route(&files[i].0), backends);
                occupied -= bytes(i);
            }
        }
        targets
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::router::{PathPrefixRouter, SingleBackend};

    /// A catalog entry on `backend` whose heat is `heat` at virtual time 0.
    fn file(path: &str, backend: u32, bytes: u64, heat: f64) -> (String, FileHeat) {
        let temp = Temperature { heat, stamp: SimTime::ZERO };
        (path.into(), FileHeat { backend, bytes, temp })
    }

    #[test]
    fn temperature_decays_with_the_virtual_clock() {
        let mut t = Temperature::default();
        let hl = SimTime::from_secs(10);
        t.touch(SimTime::ZERO, hl);
        t.touch(SimTime::ZERO, hl);
        assert_eq!(t.decayed(SimTime::ZERO, hl), 2.0);
        // One half-life: exactly half the heat is left.
        assert_eq!(t.decayed(SimTime::from_secs(10), hl), 1.0);
        assert_eq!(t.decayed(SimTime::from_secs(20), hl), 0.5);
        // Touch after a half-life: decayed + 1.
        t.touch(SimTime::from_secs(10), hl);
        assert_eq!(t.decayed(SimTime::from_secs(10), hl), 2.0);
    }

    #[test]
    fn temperature_never_rewinds_on_an_older_clock() {
        let mut t = Temperature::default();
        let hl = SimTime::from_secs(1);
        t.touch(SimTime::from_secs(100), hl);
        // A touch from an actor whose clock lags must neither decay (the
        // saturating Δt is zero) nor move the stamp backwards.
        t.touch(SimTime::from_secs(50), hl);
        assert_eq!(t.stamp, SimTime::from_secs(100));
        assert_eq!(t.decayed(SimTime::from_secs(100), hl), 2.0);
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
        assert_eq!(p.assign(&files, SimTime::ZERO, &router, 2), vec![1, 0, 0, 1, 1, 0]);
    }

    #[test]
    fn heat_policy_respects_explicit_router_rules_for_cold_files() {
        // A cold file whose *router baseline* is the fast tier stays there:
        // explicit placement rules outrank the temperature default.
        let p = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60));
        let router = PathPrefixRouter::new(vec![("/wal".into(), 1)], 0);
        let files = vec![file("/wal/0001", 1, 10, 0.0)];
        assert_eq!(p.assign(&files, SimTime::ZERO, &router, 2), vec![1]);
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
        assert_eq!(p.assign(&files, SimTime::ZERO, &router, 2), vec![1, 1, 0, 0]);
    }

    #[test]
    fn budget_spills_to_another_tier_when_the_baseline_is_fast() {
        let p = HeatPolicy::new(0, 4.0, 1.0, SimTime::from_secs(60)).with_budget(10);
        // Everything baselines to tier 0 — which *is* the fast tier — so
        // the spill must pick the lowest-indexed other backend; the
        // hotter file keeps its seat under the 10-byte budget.
        let files = vec![file("/a", 0, 10, 9.0), file("/b", 0, 10, 8.0)];
        assert_eq!(p.assign(&files, SimTime::ZERO, &SingleBackend, 3), vec![0, 1]);
    }

    #[test]
    fn zero_byte_files_never_soak_up_budget_evictions() {
        let p = HeatPolicy::new(1, 4.0, 1.0, SimTime::from_secs(60)).with_budget(5);
        // The recovery-seeded entry (unknown size, bytes = 0) occupies no
        // budget; evicting it would free nothing, so it must stay.
        let files = vec![file("/seeded", 1, 0, 2.0), file("/big", 1, 10, 9.0)];
        assert_eq!(p.assign(&files, SimTime::ZERO, &SingleBackend, 2), vec![1, 0]);
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
                    temp.touch(now, p.half_life);
                }
                let heat = temp.decayed(now, p.half_life);
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
                let f = ("/f".to_string(), FileHeat { backend: tier as u32, bytes: 10, temp });
                let target = p.assign(&[f], now, &router, 2)[0];
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
