//! `tomo-fault` — deterministic fault injection for tomography
//! experiments.
//!
//! Real tomography deployments lose probes, receive corrupted or stale
//! readings, watch links fail mid-experiment, and occasionally hit solver
//! breakdowns. This crate models all of that as a *deterministic,
//! seed-derived* process so chaos experiments stay byte-identical across
//! thread counts and reruns:
//!
//! * [`FaultSpec`] — per-kind fault rates, parsed from the
//!   `loss=0.05,corrupt=0.01,...` grammar of `tomo-sim run chaos --faults`.
//! * [`FaultPlan`] — a seeded plan handing out one independent ChaCha8
//!   stream per trial via `tomo_par::derive_seed`, exactly the discipline
//!   the Monte-Carlo engine uses for trial randomness. Fault draws never
//!   touch the trial's own RNG stream, so enabling a fault kind at rate 0
//!   perturbs nothing.
//! * [`TrialFaults`] — one trial's fault decisions: solver faults,
//!   mid-experiment link failures, and measurement-vector injection
//!   (probe loss, NaN/Inf/outlier corruption, stale readings).
//! * [`FaultReport`] — the per-run ledger with the accounting invariant
//!   `injected == handled + quarantined` ([`FaultReport::is_balanced`]).
//!
//! The crate is deliberately decoupled from the solver stack: solver
//! faults are described by [`SolverFaultKind`] and *armed* by the caller
//! through `tomo_lp::chaos`, and measurement injection works on plain
//! `&mut [f64]` slices. Observability flows through `fault.*` counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod report;
mod spec;

pub use plan::{
    FaultPlan, FrameFaultKind, MeasurementFaults, SolverFaultKind, TrialFaults,
    LINK_FAILURE_DELAY_MS,
};
pub use report::{FaultKindCounts, FaultReport};
pub use spec::{FaultSpec, FaultSpecError};

/// `false` when the `TOMO_FAULT` environment variable disables the fault
/// layer outright (`0`, `false`, or `off`, case-insensitive).
///
/// With the layer disabled a chaos run skips plan construction and every
/// per-trial fault draw — the hook the `chaos-overhead` workload of
/// `tomo-bench` uses to measure the machinery's overhead at fault rate 0 (the
/// artifacts must stay byte-identical either way, since zero-rate draws
/// never fire and never touch the trial streams).
#[must_use]
pub fn fault_layer_enabled() -> bool {
    match std::env::var("TOMO_FAULT") {
        Ok(v) => !matches!(v.to_ascii_lowercase().as_str(), "0" | "false" | "off"),
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fault_layer_enabled_by_default() {
        // TOMO_FAULT is not set under `cargo test`.
        assert!(super::fault_layer_enabled());
    }
}
