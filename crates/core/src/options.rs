//! Tunable knobs of the co-synthesis algorithm.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crusade_obs::{ObserverHandle, SynthesisObserver};

use crate::policy::SynthesisPolicy;

/// Configuration of a [`crate::CoSynthesis`] run.
///
/// The defaults reproduce the paper's settings: dynamic reconfiguration
/// enabled, ERUF = 0.70, EPUF = 0.80, restricted preemption on, clusters
/// capped at eight tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CosynOptions {
    /// Whether the dynamic-reconfiguration generation phase runs (Table 2
    /// compares architectures with this off and on).
    pub reconfiguration: bool,
    /// Effective resource utilisation factor: the fraction of a
    /// programmable device's PFUs the allocator may fill (delay
    /// management, Section 4.5).
    pub eruf: f64,
    /// Effective pin utilisation factor: the fraction of a hardware PE's
    /// pins the allocator may bond.
    pub epuf: f64,
    /// Whether the scheduler may preempt lower-priority software tasks
    /// when an urgent task would otherwise miss its deadline.
    pub preemption: bool,
    /// Maximum number of tasks merged into one cluster.
    pub cluster_size_cap: usize,
    /// Maximum modes a single programmable device may accumulate through
    /// merging.
    pub max_modes_per_device: usize,
    /// Whether a graph-part may be replicated into every configuration
    /// image of a partially reconfigurable device during merging (the
    /// mechanism that keeps the paper's always-on T1 alive across modes).
    /// Disable for ablation studies.
    pub image_sharing: bool,
    /// Whether the independent architecture auditor (from
    /// `crusade-verify`, installed via
    /// [`crate::install_audit_hook`]) re-derives and re-checks every
    /// claimed invariant as a post-pass; violations turn into
    /// [`crate::SynthesisError::AuditFailed`].
    pub audit: bool,
    /// Whether the `crusade-lint` static analyzer runs as a pre-pass;
    /// Error-level lints (proved infeasibilities) abort synthesis with
    /// [`crate::SynthesisError::LintRejected`] before any allocation work.
    pub lint: bool,
    /// The portfolio policy of this run: deterministic perturbations and
    /// knob overrides a multi-start exploration varies between otherwise
    /// identical runs. The default ([`SynthesisPolicy::baseline`]) is the
    /// identity and reproduces the paper's single sequential pass.
    pub policy: SynthesisPolicy,
    /// The observability hook: disabled by default (events are not even
    /// constructed), installed with [`CosynOptions::with_observer`].
    /// Serializes as `null` — an observer is a runtime attachment, never
    /// part of a persisted options artifact.
    pub observer: ObserverHandle,
}

impl Default for CosynOptions {
    fn default() -> Self {
        CosynOptions {
            reconfiguration: true,
            eruf: 0.70,
            epuf: 0.80,
            preemption: true,
            cluster_size_cap: 8,
            max_modes_per_device: 8,
            image_sharing: true,
            audit: false,
            lint: false,
            policy: SynthesisPolicy::baseline(),
            observer: ObserverHandle::none(),
        }
    }
}

impl CosynOptions {
    /// The paper's baseline configuration *without* dynamic
    /// reconfiguration (each programmable device keeps a single mode) —
    /// the left half of Tables 2 and 3.
    pub fn without_reconfiguration() -> Self {
        CosynOptions {
            reconfiguration: false,
            ..CosynOptions::default()
        }
    }

    /// Enables the independent post-synthesis audit.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Enables the static-analysis pre-pass that rejects provably
    /// infeasible specifications before allocation starts.
    pub fn with_lint(mut self) -> Self {
        self.lint = true;
        self
    }

    /// Installs a portfolio policy (builder style).
    pub fn with_policy(mut self, policy: SynthesisPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a structured-event observer (builder style). The
    /// observer sees every synthesis decision — cluster formation,
    /// candidate accept/reject with reason, per-attempt placements,
    /// reconfiguration merges — as [`crusade_obs::Event`]s; sinks such as
    /// [`crusade_obs::Metrics`] and [`crusade_obs::TraceSink`] aggregate
    /// them. Without this call the hooks cost one untaken branch.
    pub fn with_observer(mut self, observer: Arc<dyn SynthesisObserver>) -> Self {
        self.observer = ObserverHandle::new(observer);
        self
    }

    /// Resolves the policy's knob overrides into plain option fields, so
    /// the synthesis internals keep reading `cluster_size_cap` &c. without
    /// knowing about policies. The perturbation seeds stay on `policy`.
    pub fn effective(&self) -> Self {
        let mut o = self.clone();
        if let Some(cap) = self.policy.cluster_size_cap {
            o.cluster_size_cap = cap;
        }
        if let Some(modes) = self.policy.max_modes_per_device {
            o.max_modes_per_device = modes;
        }
        if let Some(sharing) = self.policy.image_sharing {
            o.image_sharing = sharing;
        }
        o
    }

    /// The subset of these options the `crusade-lint` analyses share;
    /// the capacity caps must match or feasible-PE sets would diverge.
    pub fn lint_options(&self) -> crusade_lint::LintOptions {
        crusade_lint::LintOptions {
            eruf: self.eruf,
            epuf: self.epuf,
        }
    }
}

/// Scales an integer capacity by a utilisation factor (ERUF/EPUF).
///
/// Factors are fractions in `[0, 1]`, so the floored product stays within
/// the original capacity.
pub(crate) fn derate(cap: u32, factor: f64) -> u32 {
    #[allow(clippy::cast_possible_truncation)]
    {
        (f64::from(cap) * factor) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = CosynOptions::default();
        assert!(o.reconfiguration);
        assert!((o.eruf - 0.70).abs() < 1e-9);
        assert!((o.epuf - 0.80).abs() < 1e-9);
    }

    #[test]
    fn baseline_disables_reconfiguration_only() {
        let o = CosynOptions::without_reconfiguration();
        assert!(!o.reconfiguration);
        assert_eq!(o.cluster_size_cap, CosynOptions::default().cluster_size_cap);
    }
}
