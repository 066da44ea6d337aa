//! Co-synthesis failure modes.

use std::fmt;

use crusade_model::ValidateSpecError;

use crate::cluster::ClusterId;

/// Why co-synthesis could not produce an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The input specification failed validation.
    InvalidSpec(ValidateSpecError),
    /// No allocation in the allocation array let this cluster meet its
    /// deadlines — the specification is infeasible against the given
    /// resource library (or the heuristic could not find a feasible
    /// allocation; being heuristic, CRUSADE can never guarantee
    /// optimality, nor completeness).
    Unallocatable {
        /// The cluster that could not be placed.
        cluster: ClusterId,
        /// Name of the first task in the cluster, for diagnostics.
        task_name: String,
    },
    /// A multi-mode device was produced but no reconfiguration-controller
    /// interface meets the system boot-time requirement.
    NoFeasibleInterface,
    /// The post-synthesis architecture audit was requested
    /// ([`crate::CosynOptions::audit`]) and the independent auditor found
    /// violations in the produced architecture.
    AuditFailed {
        /// Human-readable description of every violation found.
        violations: Vec<String>,
    },
    /// The static-analysis pre-pass ([`crate::CosynOptions::lint`]) proved
    /// the specification infeasible before allocation started.
    LintRejected {
        /// Human-readable description of every Error-level lint.
        lints: Vec<String>,
    },
    /// The run was cancelled cooperatively through the flag installed by
    /// [`crate::CoSynthesis::with_cancel`] before it finished.
    Cancelled,
    /// An internal invariant of the synthesis engine was broken — a bug,
    /// not a property of the specification. Reported instead of panicking
    /// so long campaigns degrade gracefully.
    Internal(String),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InvalidSpec(e) => write!(f, "invalid specification: {e}"),
            SynthesisError::Unallocatable { cluster, task_name } => write!(
                f,
                "no feasible allocation for cluster {cluster} (first task {task_name})"
            ),
            SynthesisError::NoFeasibleInterface => {
                write!(
                    f,
                    "no programming interface meets the boot-time requirement"
                )
            }
            SynthesisError::AuditFailed { violations } => {
                write!(
                    f,
                    "architecture audit found {} violation(s)",
                    violations.len()
                )?;
                for v in violations.iter().take(5) {
                    write!(f, "; {v}")?;
                }
                if violations.len() > 5 {
                    write!(f, "; …")?;
                }
                Ok(())
            }
            SynthesisError::LintRejected { lints } => {
                write!(
                    f,
                    "static analysis proved the specification infeasible ({} error(s))",
                    lints.len()
                )?;
                for l in lints.iter().take(5) {
                    write!(f, "; {l}")?;
                }
                if lints.len() > 5 {
                    write!(f, "; …")?;
                }
                Ok(())
            }
            SynthesisError::Cancelled => write!(f, "synthesis run cancelled"),
            SynthesisError::Internal(msg) => write!(f, "internal synthesis error: {msg}"),
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::InvalidSpec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateSpecError> for SynthesisError {
    fn from(e: ValidateSpecError) -> Self {
        SynthesisError::InvalidSpec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cluster() {
        let e = SynthesisError::Unallocatable {
            cluster: ClusterId::new(3),
            task_name: "atm-parse".into(),
        };
        let s = e.to_string();
        assert!(s.contains("c3"));
        assert!(s.contains("atm-parse"));
    }

    #[test]
    fn wraps_spec_errors() {
        let e: SynthesisError = ValidateSpecError::Cyclic.into();
        assert!(matches!(e, SynthesisError::InvalidSpec(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
