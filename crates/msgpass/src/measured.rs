//! Online measured α–β–γ calibration ([`CostSource::Measured`]).
//!
//! The fixed [`CostModel::cluster_2006`] constants model the *paper's*
//! network so that recorded figures stay comparable across PRs — but the
//! schedule *selectors* (`AllreduceAlgorithm::select`,
//! `ScanAlgorithm::select`) want the α–β profile of the **actual host**,
//! or their crossovers are a guess and the runtime can systematically
//! pick the wrong schedule. This module closes that loop:
//!
//! * [`Comm::calibrate_cost_model`](crate::comm::Comm::calibrate_cost_model)
//!   runs lightweight timestamped probe exchanges (reduction-shaped
//!   ping-pongs: the echoing side folds over the payload bytes before
//!   replying, because on a reduction's critical path every shipped byte
//!   is also combined) and a black-boxed scalar loop, yielding wall-clock
//!   samples of per-message latency (α), per-byte hop cost (β), and
//!   per-operation compute cost (γ);
//! * samples land in a shared [`Calibration`] as one link estimate —
//!   every message crosses a lane the same way, so one (α, β) pair
//!   prices them all;
//! * estimates are **EWMA-smoothed with a warmup gate**: until every
//!   parameter has [`Calibration::warmup`] samples,
//!   [`Calibration::model`] returns `None` and selection falls back
//!   to the fixed model, so early noise can never flip a crossover.
//!
//! ## Cross-rank determinism
//!
//! Schedule selection must agree on every rank of a collective call, or
//! ranks would run different schedules against each other and deadlock.
//! The published estimates therefore only move inside
//! `calibrate_cost_model`'s barrier-bracketed publish window: probes
//! record into a *pending* accumulator, and a single rank copies pending
//! → active between two barriers. Outside calibration the active
//! estimates are immutable, so every rank prices a given collective from
//! the same model. (This is also why the recording harnesses keep the
//! default [`CostSource::Fixed`]: measured estimates are host-dependent
//! wall-clock quantities and would make the pinned figures unstable.)

use std::sync::Mutex;

use crate::cost::CostModel;

/// Default number of samples each parameter needs before the measured
/// model is trusted (see [`Calibration::model`]).
pub const DEFAULT_WARMUP: u64 = 2;

/// Where schedule selection gets its cost model.
///
/// This is a *selection* knob only: the virtual clock always advances by
/// the communicator's fixed clock model, so `Measured` changes which
/// schedule runs, never how a given schedule is priced in the recordings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostSource {
    /// Price schedules from this fixed model. The default is the
    /// communicator's clock model (`cluster_2006` unless overridden), so
    /// recordings made before this knob existed are bit-identical.
    Fixed(CostModel),
    /// Price schedules from the online measured calibration, falling
    /// back to the clock model until the warmup gate opens.
    Measured,
}

impl Default for CostSource {
    fn default() -> Self {
        CostSource::Fixed(CostModel::cluster_2006())
    }
}

/// Exponentially weighted moving average with a sample count.
///
/// The first sample initializes the mean; later samples fold in with
/// weight `LAMBDA`, so a stale estimate converges to a shifted regime in
/// a handful of rounds while one noisy probe moves it only fractionally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Ewma {
    mean: f64,
    samples: u64,
}

impl Ewma {
    /// Smoothing factor: weight of each new sample after the first.
    const LAMBDA: f64 = 0.25;

    fn record(&mut self, x: f64) {
        self.samples += 1;
        if self.samples == 1 {
            self.mean = x;
        } else {
            self.mean += Self::LAMBDA * (x - self.mean);
        }
    }
}

/// The full estimate set: the link's α and β, and γ.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Estimates {
    alpha: Ewma,
    beta: Ewma,
    gamma: Ewma,
}

/// Shared online calibration state (one per runtime, like `Stats`).
///
/// Probes record into `pending`; [`Calibration::publish`] copies pending
/// into `active` inside the calibrate collective's barrier-bracketed
/// window (see the module docs for why), and [`Calibration::model`]
/// reads only `active`.
#[derive(Debug, Default)]
pub struct Calibration {
    warmup: u64,
    pending: Mutex<Estimates>,
    active: Mutex<Estimates>,
}

impl Calibration {
    /// Creates an empty calibration requiring `warmup` samples per
    /// parameter before [`model`](Self::model) trusts the estimates.
    pub fn new(warmup: u64) -> Self {
        Calibration {
            warmup,
            pending: Mutex::new(Estimates::default()),
            active: Mutex::new(Estimates::default()),
        }
    }

    /// The configured warmup gate, in samples per parameter.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Records one (α, β) probe sample into the pending accumulator. Not
    /// visible to [`model`](Self::model) until the next
    /// [`publish`](Self::publish).
    pub fn record_link(&self, alpha: f64, beta: f64) {
        let mut pending = lock(&self.pending);
        pending.alpha.record(alpha.max(1.0e-9));
        pending.beta.record(beta.max(1.0e-13));
    }

    /// Records one γ probe sample (seconds per abstract operation).
    pub fn record_gamma(&self, gamma: f64) {
        lock(&self.pending).gamma.record(gamma.max(1.0e-12));
    }

    /// Publishes the pending estimates. Must only be called while every
    /// rank of the runtime is quiescent between two barriers (exactly
    /// what `Comm::calibrate_cost_model` arranges) — see the module docs.
    pub fn publish(&self) {
        *lock(&self.active) = *lock(&self.pending);
    }

    /// The measured model, or `None` while any parameter is still inside
    /// the warmup gate.
    pub fn model(&self) -> Option<CostModel> {
        let active = lock(&self.active);
        let samples = active.alpha.samples.min(active.beta.samples).min(active.gamma.samples);
        (samples >= self.warmup).then(|| CostModel {
            alpha: active.alpha.mean,
            beta: active.beta.mean,
            gamma: active.gamma.mean,
        })
    }

    /// A point-in-time copy of the published estimates, for display.
    pub fn snapshot(&self) -> CalibrationSnapshot {
        let active = lock(&self.active);
        CalibrationSnapshot {
            warmup: self.warmup,
            alpha: active.alpha.mean,
            beta: active.beta.mean,
            link_samples: active.alpha.samples.min(active.beta.samples),
            gamma: active.gamma.mean,
            gamma_samples: active.gamma.samples,
        }
    }
}

fn lock(estimates: &Mutex<Estimates>) -> std::sync::MutexGuard<'_, Estimates> {
    estimates.lock().unwrap_or_else(|e| e.into_inner())
}

/// A point-in-time copy of the published [`Calibration`] estimates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CalibrationSnapshot {
    /// The warmup gate in effect, in samples per parameter.
    pub warmup: u64,
    /// Measured per-message latency in seconds.
    pub alpha: f64,
    /// Measured per-byte hop cost in seconds.
    pub beta: f64,
    /// Samples behind the weaker of the α and β estimates.
    pub link_samples: u64,
    /// Measured per-operation compute cost in seconds.
    pub gamma: f64,
    /// Samples behind the γ estimate.
    pub gamma_samples: u64,
}

impl CalibrationSnapshot {
    /// Whether every parameter cleared the warmup gate at snapshot time.
    pub fn is_warm(&self) -> bool {
        self.link_samples.min(self.gamma_samples) >= self.warmup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_gate_blocks_until_enough_samples() {
        let cal = Calibration::new(2);
        assert_eq!(cal.model(), None, "empty calibration");
        cal.record_link(1.0e-6, 1.0e-10);
        cal.record_gamma(1.0e-9);
        cal.publish();
        assert_eq!(cal.model(), None, "one sample is below warmup");
        assert!(!cal.snapshot().is_warm());
        cal.record_link(3.0e-6, 3.0e-10);
        cal.publish();
        assert_eq!(cal.model(), None, "γ is still one sample short");
        cal.record_gamma(1.0e-9);
        cal.publish();
        let model = cal.model().expect("every parameter is warm");
        // EWMA: 1.0 + 0.25·(3.0 − 1.0) = 1.5 µs.
        assert!((model.alpha - 1.5e-6).abs() < 1e-12, "alpha={}", model.alpha);
        assert!(cal.snapshot().is_warm());
    }

    #[test]
    fn pending_samples_are_invisible_until_publish() {
        let cal = Calibration::new(1);
        cal.record_link(1.0e-6, 1.0e-10);
        cal.record_gamma(1.0e-9);
        assert_eq!(cal.model(), None, "not yet published");
        cal.publish();
        assert!(cal.model().is_some());
        // New pending samples do not move the active estimate...
        cal.record_link(9.0e-6, 9.0e-10);
        let before = cal.snapshot().alpha;
        assert!((before - 1.0e-6).abs() < 1e-15);
        // ...until the next publish.
        cal.publish();
        assert!(cal.snapshot().alpha > before);
    }

    #[test]
    fn samples_are_clamped_to_positive_values() {
        let cal = Calibration::new(1);
        // Negative β can fall out of differencing two noisy probes; the
        // model must stay physically sensible.
        cal.record_link(-1.0, -1.0);
        cal.record_gamma(-1.0);
        cal.publish();
        let snap = cal.snapshot();
        assert!(snap.alpha > 0.0);
        assert!(snap.beta > 0.0);
        assert!(snap.gamma > 0.0);
    }

    #[test]
    fn default_cost_source_is_the_fixed_paper_model() {
        assert_eq!(
            CostSource::default(),
            CostSource::Fixed(CostModel::cluster_2006())
        );
    }
}
