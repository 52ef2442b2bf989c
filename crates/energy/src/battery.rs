//! Bounded battery store with a Ni-MH-style charging model.
//!
//! The paper models recharge time after the Panasonic Ni-MH handbook [15]:
//! charging proceeds at a roughly constant rate over most of the capacity
//! and tapers as the cell approaches full charge. [`ChargeModel`] captures
//! that shape with a piecewise-linear acceptance curve so that recharge
//! *duration* as a function of the energy deficit behaves like the handbook
//! curves without modeling cell chemistry.

use crate::units;
use serde::{Deserialize, Serialize};

/// Charging-rate model: the fraction of the charger's nominal power a
/// battery accepts as a function of its state of charge.
///
/// Below `taper_start` (fraction of capacity) the battery accepts the full
/// nominal power; from there acceptance falls linearly to `min_accept` at
/// 100 % charge. `ChargeModel::ideal()` disables the taper (constant power),
/// which is useful in unit tests and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargeModel {
    /// State-of-charge fraction where the taper begins (e.g. 0.9).
    pub taper_start: f64,
    /// Acceptance fraction at 100 % state of charge (e.g. 0.2).
    pub min_accept: f64,
}

impl ChargeModel {
    /// Ni-MH-style default: full-rate charging until 90 % state of charge,
    /// tapering to 20 % acceptance at full.
    pub const fn nimh() -> Self {
        Self {
            taper_start: 0.9,
            min_accept: 0.2,
        }
    }

    /// Constant-power charging with no taper.
    pub const fn ideal() -> Self {
        Self {
            taper_start: 1.0,
            min_accept: 1.0,
        }
    }

    /// Acceptance fraction (0..=1) at state-of-charge `soc` (0..=1).
    pub fn acceptance(&self, soc: f64) -> f64 {
        let soc = soc.clamp(0.0, 1.0);
        if soc <= self.taper_start || self.taper_start >= 1.0 {
            1.0
        } else {
            let t = (soc - self.taper_start) / (1.0 - self.taper_start);
            1.0 + t * (self.min_accept - 1.0)
        }
    }
}

impl Default for ChargeModel {
    fn default() -> Self {
        Self::nimh()
    }
}

/// An energy store bounded to `[0, capacity]` Joules.
///
/// All mutation goes through [`Battery::draw`] and [`Battery::charge_for`] /
/// [`Battery::recharge`], which enforce the bounds and report the energy
/// actually moved, so callers can do exact bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity: f64,
    level: f64,
    model: ChargeModel,
}

impl Battery {
    /// New battery at full charge.
    ///
    /// # Panics
    /// Panics unless `capacity` is strictly positive and finite.
    pub fn full(capacity: f64) -> Self {
        Self::with_level(capacity, capacity)
    }

    /// New battery with an explicit initial level (clamped to capacity).
    ///
    /// # Panics
    /// Panics unless `capacity` is strictly positive and finite and `level`
    /// is non-negative and finite.
    pub fn with_level(capacity: f64, level: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive, got {capacity}"
        );
        assert!(
            level.is_finite() && level >= 0.0,
            "level must be non-negative, got {level}"
        );
        Self {
            capacity,
            level: level.min(capacity),
            model: ChargeModel::nimh(),
        }
    }

    /// The paper's sensor battery: two AAA Panasonic Ni-MH cells providing a
    /// 3 V supply at ≈1000 mAh → 10.8 kJ.
    pub fn two_aaa_nimh() -> Self {
        Self::full(units::battery_energy_j(1000.0, 3.0))
    }

    /// Replaces the charge model (builder style).
    pub fn with_charge_model(mut self, model: ChargeModel) -> Self {
        self.model = model;
        self
    }

    /// Capacity in Joules.
    #[inline]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The charging model in effect (simulation-snapshot access; pair with
    /// [`Battery::with_level`] + [`Battery::with_charge_model`] to rebuild
    /// the exact battery).
    #[inline]
    pub fn charge_model(&self) -> ChargeModel {
        self.model
    }

    /// Current level in Joules.
    #[inline]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// State of charge as a fraction of capacity (0..=1).
    #[inline]
    pub fn soc(&self) -> f64 {
        self.level / self.capacity
    }

    /// Energy demand `d_i` of §IV-A: capacity minus current level.
    #[inline]
    pub fn deficit(&self) -> f64 {
        self.capacity - self.level
    }

    /// True when no energy remains (the sensor is nonfunctional).
    #[inline]
    pub fn is_depleted(&self) -> bool {
        self.level <= 0.0
    }

    /// True when full (within floating-point slack).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.level >= self.capacity - 1e-9
    }

    /// Draws up to `joules` and returns the energy actually delivered (less
    /// than `joules` when the battery empties).
    ///
    /// # Panics
    /// Panics on negative or non-finite `joules`.
    pub fn draw(&mut self, joules: f64) -> f64 {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "draw must be non-negative, got {joules}"
        );
        let delivered = joules.min(self.level);
        self.level -= delivered;
        delivered
    }

    /// Deposits up to `joules` ignoring the charge-rate model (used when the
    /// delivered amount was already rate-limited by the charger). Returns
    /// the energy actually stored.
    ///
    /// # Panics
    /// Panics on negative or non-finite `joules`.
    pub fn recharge(&mut self, joules: f64) -> f64 {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "recharge must be non-negative, got {joules}"
        );
        let stored = joules.min(self.deficit());
        self.level += stored;
        stored
    }

    /// Charges from a source of nominal power `power_w` for `duration_s`
    /// seconds, honoring the charge model's acceptance taper. Returns the
    /// energy stored.
    ///
    /// Integration is stepwise (1 % of capacity per step) which is exact for
    /// the flat region and a close approximation through the taper.
    pub fn charge_for(&mut self, power_w: f64, duration_s: f64) -> f64 {
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "power must be non-negative"
        );
        assert!(
            duration_s.is_finite() && duration_s >= 0.0,
            "duration must be non-negative"
        );
        let mut remaining = duration_s;
        let mut stored = 0.0;
        let step_energy = self.capacity * 0.01;
        while remaining > 0.0 && !self.is_full() {
            let p = power_w * self.model.acceptance(self.soc());
            if p <= 0.0 {
                break;
            }
            let chunk = step_energy.min(self.deficit());
            let dt = chunk / p;
            if dt >= remaining {
                stored += self.recharge(p * remaining);
                break;
            }
            stored += self.recharge(chunk);
            remaining -= dt;
        }
        stored
    }

    /// Time (s) to charge the battery from its current level back to full
    /// from a source of nominal power `power_w`, honoring the taper.
    ///
    /// Returns `f64::INFINITY` for zero power with a non-zero deficit.
    pub fn time_to_full(&self, power_w: f64) -> f64 {
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "power must be non-negative"
        );
        if self.is_full() {
            return 0.0;
        }
        if power_w <= 0.0 {
            return f64::INFINITY;
        }
        let mut probe = *self;
        let mut time = 0.0;
        let step_energy = self.capacity * 0.01;
        while !probe.is_full() {
            let p = power_w * probe.model.acceptance(probe.soc());
            let chunk = step_energy.min(probe.deficit());
            time += chunk / p;
            probe.recharge(chunk);
        }
        time
    }

    /// [`Battery::time_to_full`], or `None` when that time provably
    /// exceeds `horizon_s + 1e-9`, decided in O(1) without walking the
    /// taper.
    ///
    /// `Some(t)` is always `time_to_full(power_w)`, bit for bit. `None`
    /// guarantees both `time_to_full(power_w) > horizon_s + 1e-9` and
    /// `time_to_full(power_w) - 1e-9 > horizon_s` as evaluated in `f64`,
    /// so a caller that finishes a charge when `horizon_s >= t - 1e-9`
    /// reaches the same decision either way.
    ///
    /// # Why the bound holds
    ///
    /// Let `u = 2⁻⁵³` (unit roundoff), `d` the computed deficit and `N`
    /// the walk's step count. The bound is only tried when `min_accept ∈
    /// [0, 1]`, `taper_start` is finite, `power_w > 0` and `horizon_s ∈
    /// [0, ∞)`; anything else walks.
    ///
    /// 1. *Each step is at least `chunk / power_w`.* `acceptance` is `1`
    ///    or `1 + t·(min_accept − 1)` with `t ∈ [0, 1]`, which lies in `[0,
    ///    1]` when `min_accept` does (each rounding is monotone), so the
    ///    step's power is at most `power_w` and `fl(chunk / p) ≥ fl(chunk /
    ///    power_w)` (`p = 0` gives `∞`).
    /// 2. *The chunks add up to the deficit less the fullness slack.* The
    ///    walk stops at the first level `≥ fl(capacity − 1e-9)`. Every full
    ///    step adds `fl(capacity·0.01)`; once the deficit is below that, the
    ///    level is above half the capacity, so `capacity − level` is exact
    ///    and the next step lands on `capacity`. Hence `N ≤ 102`. Each level
    ///    update rounds by at most `2u·capacity`, so the chunks' exact sum is
    ///    at least `d − 1e-9 − 206u·capacity`.
    /// 3. *Summing loses little.* A recursive sum of `N` non-negative
    ///    quotients is at least `(1 − u)^(N+1)` of their exact sum, i.e.
    ///    within `2⁻⁴⁶` relatively. Underflowed quotients lose at most
    ///    `2⁻¹⁰⁷⁴` each, far below the `1e-9` a skip must clear.
    ///
    /// So `E = d − 2e-9 − capacity·2⁻⁴⁰` (the `2⁻⁴⁰` term also absorbs the
    /// rounding of computing `E`) is at most the chunks' sum, and
    /// `lower = fl(E / power_w)·(1 − 2⁻⁴⁰)` is at most the walk's result.
    /// The walk is skipped when `lower > horizon_s + 2e-9 +
    /// horizon_s·2⁻³⁰`, a threshold that after its own rounding still
    /// exceeds `horizon_s·(1 + 2⁻³¹) + 1.99e-9`, which puts the walk's
    /// result past both `fl(horizon_s + 1e-9)` and, less `1e-9`, past
    /// `horizon_s`. A non-finite `lower` (a subnormal `power_w`) walks.
    pub fn time_to_full_within(&self, power_w: f64, horizon_s: f64) -> Option<f64> {
        const TWO_POW_M40: f64 = 1.0 / (1u64 << 40) as f64;
        const TWO_POW_M30: f64 = 1.0 / (1u64 << 30) as f64;
        let m = self.model;
        let bounded = (0.0..=1.0).contains(&m.min_accept)
            && m.taper_start.is_finite()
            && power_w > 0.0
            && (0.0..f64::INFINITY).contains(&horizon_s);
        if bounded {
            let energy = self.deficit() - 2e-9 - self.capacity * TWO_POW_M40;
            let lower = energy / power_w * (1.0 - TWO_POW_M40);
            if lower.is_finite() && lower > horizon_s + 2e-9 + horizon_s * TWO_POW_M30 {
                return None;
            }
        }
        Some(self.time_to_full(power_w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_battery_capacity() {
        let b = Battery::two_aaa_nimh();
        assert!((b.capacity() - 10_800.0).abs() < 1e-9);
        assert!(b.is_full());
    }

    #[test]
    fn draw_reports_delivered_and_floors_at_zero() {
        let mut b = Battery::full(100.0);
        assert_eq!(b.draw(60.0), 60.0);
        assert_eq!(b.draw(60.0), 40.0);
        assert!(b.is_depleted());
        assert_eq!(b.draw(10.0), 0.0);
    }

    #[test]
    fn recharge_caps_at_capacity() {
        let mut b = Battery::with_level(100.0, 90.0);
        assert_eq!(b.recharge(25.0), 10.0);
        assert!(b.is_full());
    }

    #[test]
    fn deficit_is_paper_demand() {
        let mut b = Battery::full(100.0);
        b.draw(37.5);
        assert!((b.deficit() - 37.5).abs() < 1e-12);
    }

    #[test]
    fn ideal_charge_time_is_linear() {
        let mut b = Battery::with_level(100.0, 0.0).with_charge_model(ChargeModel::ideal());
        assert!((b.time_to_full(10.0) - 10.0).abs() < 1e-9);
        let stored = b.charge_for(10.0, 4.0);
        assert!((stored - 40.0).abs() < 1e-9);
        assert!((b.level() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn nimh_taper_slows_the_tail() {
        let empty = Battery::with_level(100.0, 0.0);
        let nearly = Battery::with_level(100.0, 90.0);
        let t_all = empty.time_to_full(10.0);
        let t_tail = nearly.time_to_full(10.0);
        // Flat region: 90 J at 10 W = 9 s; tail takes longer than the 1 s an
        // ideal charger would need.
        assert!(t_tail > 1.0, "taper should slow the last 10%: {t_tail}");
        assert!((t_all - (9.0 + t_tail)).abs() < 1e-6);
    }

    #[test]
    fn charge_for_agrees_with_time_to_full() {
        let b = Battery::with_level(100.0, 35.0);
        let t = b.time_to_full(7.0);
        let mut c = b;
        let stored = c.charge_for(7.0, t + 1e-6);
        assert!((stored - 65.0).abs() < 1e-6);
        assert!(c.is_full());
    }

    #[test]
    fn acceptance_curve_shape() {
        let m = ChargeModel::nimh();
        assert_eq!(m.acceptance(0.0), 1.0);
        assert_eq!(m.acceptance(0.9), 1.0);
        assert!((m.acceptance(1.0) - 0.2).abs() < 1e-12);
        let mid = m.acceptance(0.95);
        assert!(mid < 1.0 && mid > 0.2);
        // Ideal never tapers.
        assert_eq!(ChargeModel::ideal().acceptance(1.0), 1.0);
    }

    #[test]
    fn time_to_full_edge_cases() {
        let full = Battery::full(50.0);
        assert_eq!(full.time_to_full(5.0), 0.0);
        let empty = Battery::with_level(50.0, 0.0);
        assert_eq!(empty.time_to_full(0.0), f64::INFINITY);
    }

    /// Checks `time_to_full_within`'s contract for one input: `None` only
    /// when the walk's time is past the horizon plus the 1e-9 finish slack
    /// (also as the fleet tests it, `t - 1e-9 > horizon`), else the walk's
    /// time bit for bit.
    fn assert_within_contract(b: &Battery, power: f64, horizon: f64) {
        let t = b.time_to_full(power);
        match b.time_to_full_within(power, horizon) {
            None => assert!(
                t > horizon + 1e-9 && t - 1e-9 > horizon,
                "skipped a walk of {t} s within horizon {horizon} s: {b:?} at {power} W"
            ),
            Some(got) => assert_eq!(
                got.to_bits(),
                t.to_bits(),
                "{b:?} at {power} W, horizon {horizon} s"
            ),
        }
    }

    #[test]
    fn time_to_full_within_edge_cases() {
        let empty = Battery::with_level(10_800.0, 0.0);
        // No power: the walk's infinity is returned, never skipped.
        assert_eq!(empty.time_to_full_within(0.0, 60.0), Some(f64::INFINITY));
        // A far-off finish is skipped; a reachable one is walked.
        assert_eq!(empty.time_to_full_within(3.0, 60.0), None);
        let t = empty.time_to_full(3.0);
        assert_eq!(empty.time_to_full_within(3.0, t), Some(t));
        for horizon in [
            0.0,
            1e-9,
            60.0,
            t * (1.0 - 1e-12),
            t,
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_within_contract(&empty, 3.0, horizon);
        }
        // The bound is tight on a flat charge: a horizon a millionth short
        // of an ideal charge's time is already skipped.
        let ideal = empty.with_charge_model(ChargeModel::ideal());
        let t = ideal.time_to_full(3.0);
        assert_eq!(ideal.time_to_full_within(3.0, t * (1.0 - 1e-6)), None);
        // Full, or within the 1e-9 slack of full: zero time, never skipped.
        for level in [10_800.0, 10_800.0 - 5e-10, 10_800.0 - 1e-9] {
            let b = Battery::with_level(10_800.0, level);
            assert_eq!(b.time_to_full_within(3.0, 0.0), Some(0.0));
        }
        // Just past the slack: a tiny time, walked at horizon 0.
        let b = Battery::with_level(10_800.0, 10_800.0 - 4e-9);
        assert_within_contract(&b, 3.0, 0.0);
        assert!(b.time_to_full_within(3.0, 0.0).is_some());
        // Models outside `min_accept ∈ [0, 1]` always walk.
        for min_accept in [-0.5, 1.5, f64::NAN] {
            let b = empty.with_charge_model(ChargeModel {
                taper_start: 0.5,
                min_accept,
            });
            assert!(b.time_to_full_within(3.0, 0.0).is_some());
        }
        // Extreme powers stay within the contract (a subnormal one walks).
        for power in [5e-324, 1e-300, 1e-9, 1e9, 1e300, f64::MAX] {
            for horizon in [0.0, 60.0, 1e300] {
                assert_within_contract(&empty, power, horizon);
            }
        }
    }

    /// Horizons around a walk of `t` seconds: absolute ones from 0 to
    /// ~10⁷ s and relative ones within `10⁻ᵏ` of `t`, where a loose bound
    /// would skip a finish.
    fn horizon(t: f64, kind: u8, x: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => 10f64.powf(x * 7.0) - 1.0,
            _ if !t.is_finite() => x * 1e6,
            2 => t * (1.0 - 10f64.powf(-x * 16.0)),
            3 => t * (1.0 + 10f64.powf(-x * 16.0)),
            4 => (t - 1e-9 * x * 4.0).max(0.0),
            _ => t * x * 2.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn prop_time_to_full_within_matches_the_walk(
            cap_exp in 0.0f64..6.0,
            fill in prop_oneof![0.0f64..1.0, 0.999f64..1.0, 0.0f64..1e-12, 0.999_999_999_999f64..1.0],
            model in (0u8..3, -0.5f64..1.5, -0.5f64..1.5),
            power_exp in prop_oneof![-3.0f64..4.0, -3.0f64..4.0, -310.0f64..308.0],
            horizon_kind in 0u8..6,
            horizon_x in 0.0f64..1.0,
        ) {
            let cap = 10f64.powf(cap_exp);
            let model = match model {
                (0, ..) => ChargeModel::nimh(),
                (1, ..) => ChargeModel::ideal(),
                (_, taper_start, min_accept) => ChargeModel { taper_start, min_accept },
            };
            let b = Battery::with_level(cap, cap * fill).with_charge_model(model);
            let power = 10f64.powf(power_exp);
            let t = b.time_to_full(power);
            assert_within_contract(&b, power, horizon(t, horizon_kind, horizon_x));
            // Within the slack of full.
            let near = Battery::with_level(cap, cap - 1e-9 * horizon_x * 2.0).with_charge_model(model);
            assert_within_contract(&near, power, horizon(t, horizon_kind, horizon_x));
        }

        #[test]
        fn prop_level_always_bounded(
            cap in 1.0f64..10_000.0,
            ops in proptest::collection::vec((0.0f64..5_000.0, proptest::bool::ANY), 0..60),
        ) {
            let mut b = Battery::with_level(cap, cap / 2.0);
            for (amount, is_draw) in ops {
                if is_draw { b.draw(amount); } else { b.recharge(amount); }
                prop_assert!(b.level() >= 0.0);
                prop_assert!(b.level() <= b.capacity() + 1e-9);
            }
        }

        #[test]
        fn prop_charge_conserves_energy(
            cap in 10.0f64..1_000.0,
            start_frac in 0.0f64..1.0,
            power in 0.1f64..50.0,
            dur in 0.0f64..500.0,
        ) {
            let mut b = Battery::with_level(cap, cap * start_frac);
            let before = b.level();
            let stored = b.charge_for(power, dur);
            prop_assert!((b.level() - before - stored).abs() < 1e-6);
            // Never stores more than the source could possibly deliver.
            prop_assert!(stored <= power * dur + 1e-6);
        }

        #[test]
        fn prop_draw_conserves_energy(
            cap in 10.0f64..1_000.0,
            start_frac in 0.0f64..1.0,
            amount in 0.0f64..2_000.0,
        ) {
            let mut b = Battery::with_level(cap, cap * start_frac);
            let before = b.level();
            let got = b.draw(amount);
            prop_assert!((before - b.level() - got).abs() < 1e-9);
            prop_assert!(got <= amount + 1e-12);
        }
    }
}
