//! Energy accounting.
//!
//! [`EnergyMeter`] integrates per-component power over simulation time,
//! producing the joule totals the experiment tables report. Power is fed
//! in milliwatts (matching Table 1) and accumulated in joules.

use crate::component::ComponentId;
use simcore::json::{Json, ToJson};
use simcore::time::SimDuration;

/// A power draw in milliwatts, checked finite and non-negative when it
/// is made, so [`EnergyMeter::add_draw`] can integrate it on every
/// simulated event without checking it again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDraw(f64);

impl PowerDraw {
    /// Wraps `mw` milliwatts.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is negative or not finite.
    #[must_use]
    pub fn new(mw: f64) -> Self {
        assert!(
            mw.is_finite() && mw >= 0.0,
            "power must be finite and non-negative, got {mw}"
        );
        PowerDraw(mw)
    }

    /// The draw in milliwatts.
    #[must_use]
    pub fn mw(self) -> f64 {
        self.0
    }
}

/// Integrates component power draws over time.
///
/// # Example
///
/// ```
/// use hardware::component::ComponentId;
/// use hardware::energy::EnergyMeter;
/// use simcore::time::SimDuration;
///
/// let mut meter = EnergyMeter::new();
/// meter.accumulate(ComponentId::Cpu, 400.0, SimDuration::from_secs(10));
/// meter.accumulate(ComponentId::Display, 1000.0, SimDuration::from_secs(10));
/// assert!((meter.component_joules(ComponentId::Cpu) - 4.0).abs() < 1e-9);
/// assert!((meter.total_joules() - 14.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    /// Joule totals indexed by [`ComponentId`] discriminant. A fixed
    /// array keeps the per-interval accumulation the simulator does on
    /// every event O(1) with no tree traversal; `touched` distinguishes
    /// "never attributed" from "attributed zero" so reports only list
    /// components that actually drew power, exactly as the previous
    /// map-backed meter did.
    joules: [f64; ComponentId::ALL.len()],
    touched: [bool; ComponentId::ALL.len()],
    elapsed_secs: f64,
}

impl EnergyMeter {
    /// Creates a meter with all totals at zero.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Adds `power_mw` milliwatts drawn by `id` for duration `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `power_mw` is negative or not finite.
    #[inline]
    pub fn accumulate(&mut self, id: ComponentId, power_mw: f64, dt: SimDuration) {
        self.add_draw(id, PowerDraw::new(power_mw), dt);
    }

    /// Adds `draw`, drawn by `id` for duration `dt`; the power was
    /// checked when the [`PowerDraw`] was made.
    #[inline]
    pub fn add_draw(&mut self, id: ComponentId, draw: PowerDraw, dt: SimDuration) {
        let i = id.index();
        self.touched[i] = true;
        self.joules[i] += draw.0 * 1e-3 * dt.as_secs_f64();
    }

    /// Records wall-clock progress without attributing energy; used so the
    /// meter can report average power over the full run.
    ///
    /// The simulator drives this from the *same* accounting intervals
    /// that feed its metrics registry, so the meter's clock is a
    /// float-accumulated view of that single source of truth (the
    /// registry keeps integer nanoseconds); the simulator cross-checks
    /// the two at the end of every run.
    #[inline]
    pub fn advance_time(&mut self, dt: SimDuration) {
        self.elapsed_secs += dt.as_secs_f64();
    }

    /// Joules attributed to `id` so far.
    #[must_use]
    pub fn component_joules(&self, id: ComponentId) -> f64 {
        self.joules[id.index()]
    }

    /// Total joules across all components.
    #[must_use]
    pub fn total_joules(&self) -> f64 {
        // Untouched slots hold exactly 0.0, and adding 0.0 to a
        // non-negative running sum is exact, so summing every slot in
        // id order matches summing only the touched ones bit for bit.
        self.joules.iter().sum()
    }

    /// Total energy in kilojoules, the unit the paper's tables use.
    #[must_use]
    pub fn total_kilojoules(&self) -> f64 {
        self.total_joules() * 1e-3
    }

    /// Seconds of simulated time recorded via [`advance_time`].
    ///
    /// [`advance_time`]: EnergyMeter::advance_time
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_secs
    }

    /// Average total power in milliwatts over the recorded elapsed time;
    /// `0.0` if no time has elapsed.
    #[must_use]
    pub fn average_power_mw(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.total_joules() / self.elapsed_secs * 1e3
        }
    }

    /// Per-component totals in joules, in [`ComponentId`] order,
    /// listing only components that have been attributed energy.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(ComponentId, f64)> {
        ComponentId::ALL
            .iter()
            .filter(|id| self.touched[id.index()])
            .map(|&id| (id, self.joules[id.index()]))
            .collect()
    }

    /// Merges another meter's totals into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        for id in ComponentId::ALL {
            let i = id.index();
            if other.touched[i] {
                self.touched[i] = true;
                self.joules[i] += other.joules[i];
            }
        }
        self.elapsed_secs += other.elapsed_secs;
    }
}

impl ToJson for EnergyMeter {
    fn to_json(&self) -> Json {
        let joules = Json::obj(
            self.breakdown()
                .into_iter()
                .map(|(id, j)| (id.to_string(), j.to_json()))
                .collect(),
        );
        Json::obj(vec![
            ("joules".to_string(), joules),
            ("elapsed_secs".to_string(), self.elapsed_secs.to_json()),
            ("total_joules".to_string(), self.total_joules().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_component() {
        let mut m = EnergyMeter::new();
        m.accumulate(ComponentId::Cpu, 100.0, SimDuration::from_secs(2));
        m.accumulate(ComponentId::Cpu, 200.0, SimDuration::from_secs(1));
        assert!((m.component_joules(ComponentId::Cpu) - 0.4).abs() < 1e-12);
        assert_eq!(m.component_joules(ComponentId::Dram), 0.0);
    }

    #[test]
    fn totals_and_units() {
        let mut m = EnergyMeter::new();
        m.accumulate(ComponentId::Display, 1000.0, SimDuration::from_secs(3600));
        assert!((m.total_joules() - 3600.0).abs() < 1e-9);
        assert!((m.total_kilojoules() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn average_power() {
        let mut m = EnergyMeter::new();
        assert_eq!(m.average_power_mw(), 0.0);
        m.accumulate(ComponentId::Cpu, 400.0, SimDuration::from_secs(5));
        m.accumulate(ComponentId::Cpu, 0.0, SimDuration::from_secs(5));
        m.advance_time(SimDuration::from_secs(10));
        assert!((m.average_power_mw() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums() {
        let mut a = EnergyMeter::new();
        a.accumulate(ComponentId::Sram, 115.0, SimDuration::from_secs(1));
        a.advance_time(SimDuration::from_secs(1));
        let mut b = EnergyMeter::new();
        b.accumulate(ComponentId::Sram, 115.0, SimDuration::from_secs(2));
        b.accumulate(ComponentId::Flash, 75.0, SimDuration::from_secs(2));
        b.advance_time(SimDuration::from_secs(2));
        a.merge(&b);
        assert!((a.component_joules(ComponentId::Sram) - 0.345).abs() < 1e-12);
        assert!((a.component_joules(ComponentId::Flash) - 0.15).abs() < 1e-12);
        assert!((a.elapsed_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_is_ordered() {
        let mut m = EnergyMeter::new();
        m.accumulate(ComponentId::Dram, 1.0, SimDuration::from_secs(1));
        m.accumulate(ComponentId::Display, 1.0, SimDuration::from_secs(1));
        let ids: Vec<ComponentId> = m.breakdown().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![ComponentId::Display, ComponentId::Dram]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_power_panics() {
        EnergyMeter::new().accumulate(ComponentId::Cpu, -1.0, SimDuration::from_secs(1));
    }
}
