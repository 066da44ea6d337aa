//! The member-invariant preamble of a co-synthesis run (Figure 5's
//! pre-processing): validation, clustering and the allocator's bounds.
//!
//! Clustering reads only the specification, the library, the cluster-size
//! cap and the ERUF/EPUF caps, and the allocator's bounds read only the
//! specification, the library and the clustering. Runs that agree on
//! those inputs — portfolio members differing in cluster order,
//! tie-breaks or reconfiguration knobs — can therefore share one
//! [`Preamble`] read-only instead of each rebuilding it.

use std::fmt;
use std::sync::Arc;

use crusade_model::{ResourceLibrary, SystemSpec};

use crate::alloc::AllocBounds;
use crate::cluster::{cluster_tasks_with, Clustering};
use crate::error::SynthesisError;
use crate::options::CosynOptions;

/// The options a [`Preamble`] depends on: the effective cluster-size cap
/// and the ERUF/EPUF caps. Two option sets with equal keys cluster a
/// specification identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreambleKey {
    cluster_size_cap: usize,
    /// Bit patterns, so every option set equals itself (NaN included).
    eruf_bits: u64,
    epuf_bits: u64,
}

impl PreambleKey {
    /// The key of `options`, with the policy's cluster-cap override
    /// resolved.
    pub fn of(options: &CosynOptions) -> Self {
        let options = options.effective();
        PreambleKey {
            cluster_size_cap: options.cluster_size_cap,
            eruf_bits: options.eruf.to_bits(),
            epuf_bits: options.epuf.to_bits(),
        }
    }
}

impl fmt::Display for PreambleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster cap {}, ERUF {}, EPUF {}",
            self.cluster_size_cap,
            f64::from_bits(self.eruf_bits),
            f64::from_bits(self.epuf_bits)
        )
    }
}

/// A validated specification's clustering and allocator bounds, built
/// once and shared read-only by every run with the same spec, library and
/// [`PreambleKey`] (see [`crate::CoSynthesis::with_prepared`]).
///
/// # Examples
///
/// ```
/// use crusade_core::{CoSynthesis, CosynOptions, Preamble, SynthesisPolicy};
/// use crusade_workloads::{paper_library, random_example};
///
/// # fn main() -> Result<(), crusade_core::SynthesisError> {
/// let lib = paper_library();
/// let spec = random_example(7).build(&lib);
/// let preamble = Preamble::new(&spec, &lib.lib, &CosynOptions::default())?;
/// // A member that only reorders clusters shares the baseline's preamble.
/// let policy = SynthesisPolicy { id: 1, ordering_seed: 7, ..SynthesisPolicy::baseline() };
/// let result = CoSynthesis::new(&spec, &lib.lib)
///     .with_options(CosynOptions::default().with_policy(policy))
///     .with_prepared(&preamble)
///     .run()?;
/// assert_eq!(result.report.cluster_count, preamble.clustering().cluster_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Preamble<'a> {
    spec: &'a SystemSpec,
    lib: &'a ResourceLibrary,
    key: PreambleKey,
    clustering: Arc<Clustering>,
    bounds: AllocBounds,
}

impl<'a> Preamble<'a> {
    /// Validates `spec`, clusters it under `options.effective()` and
    /// builds the allocator's bounds.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::InvalidSpec`] when the specification fails
    /// validation, [`SynthesisError::Internal`] when clustering
    /// desynchronises.
    pub fn new(
        spec: &'a SystemSpec,
        lib: &'a ResourceLibrary,
        options: &CosynOptions,
    ) -> Result<Self, SynthesisError> {
        spec.validate()?;
        let options = options.effective();
        let clustering = cluster_tasks_with(spec, lib, &options)?;
        let bounds = AllocBounds::new(spec, lib, &clustering);
        Ok(Preamble {
            spec,
            lib,
            key: PreambleKey::of(&options),
            clustering: Arc::new(clustering),
            bounds,
        })
    }

    /// The options this preamble was built under.
    pub(crate) fn key(&self) -> PreambleKey {
        self.key
    }

    /// The clustering, in allocation order.
    pub fn clustering(&self) -> &Arc<Clustering> {
        &self.clustering
    }

    /// The allocator's bounds under [`Self::clustering`].
    pub(crate) fn bounds(&self) -> &AllocBounds {
        &self.bounds
    }

    /// Whether this preamble was built from exactly these inputs: the
    /// same specification and library (by identity) and an equal key.
    pub(crate) fn serves(
        &self,
        spec: &SystemSpec,
        lib: &ResourceLibrary,
        options: &CosynOptions,
    ) -> bool {
        std::ptr::eq(self.spec, spec)
            && std::ptr::eq(self.lib, lib)
            && self.key == PreambleKey::of(options)
    }
}
