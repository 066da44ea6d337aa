//! Seeded workload inputs.
//!
//! Every input the benchmark feeds the program derives from the
//! `--seed` argument through this module, so one seed always gives the
//! same specifications and delta streams, and a claim can be re-checked
//! on a held-out seed.

use crusade_core::splitmix64;
use crusade_gen::{generate, GenConfig};
use crusade_model::{GraphId, Nanos, SpecDelta, SystemSpec, TaskGraph};
use crusade_workloads::PaperLibrary;

/// Specifications per explore-gen batch.
pub const EXPLORE_GEN_SPECS: usize = 128;

/// Specifications each serve-mix client owns: enough that, with the
/// near-edge families that get no architecture (up to 12%), more than 100
/// cold submits succeed and their p90 has at least ten samples beyond it.
pub const SERVE_SPECS_PER_CLIENT: usize = 64;

/// Closed-loop serve-mix clients (`crusade client` callers block on the
/// reply, so each client has at most one request in flight).
pub const SERVE_CLIENTS: usize = 2;

/// Seed domains: the top byte of every generated family seed names the
/// workload that drew it, so the workloads' seed ranges are disjoint.
const DOMAIN_EXPLORE: u64 = 0x01;
const DOMAIN_SERVE: u64 = 0x02;
const DOMAIN_SERVE_ADDED: u64 = 0x03;

/// A generated-family seed in `domain`, keyed by the benchmark seed and
/// an index inside the workload.
pub fn family_seed(domain: u64, seed: u64, index: u64) -> u64 {
    let mixed = splitmix64(splitmix64(seed) ^ splitmix64(index.wrapping_add(domain << 32)));
    (domain << 56) | (mixed >> 8)
}

/// The workload that drew a family seed (its top byte).
pub fn seed_domain(family_seed: u64) -> u64 {
    family_seed >> 56
}

/// The family shape shared by explore-gen and serve-mix: 32 graphs of
/// 7–14 tasks at utilization 0.3 per graph, tightness 0.6 and hardware
/// share 0.4 — near the schedulability edge, ~330 tasks per spec.
pub fn family_config(seed: u64, graphs: usize) -> GenConfig {
    GenConfig {
        seed,
        graphs,
        min_tasks: 7,
        max_tasks: 14,
        utilization: 0.3 * graphs as f64,
        tightness: 0.6,
        hw_share: 0.4,
        ..GenConfig::default()
    }
}

/// The family seeds of the explore-gen batch for `seed`.
pub fn explore_gen_seeds(seed: u64) -> Vec<u64> {
    (0..EXPLORE_GEN_SPECS as u64)
        .map(|i| family_seed(DOMAIN_EXPLORE, seed, i))
        .collect()
}

/// The explore-gen batch for `seed`.
pub fn explore_gen_specs(lib: &PaperLibrary, seed: u64) -> Vec<SystemSpec> {
    explore_gen_seeds(seed)
        .into_iter()
        .map(|s| generate(lib, &family_config(s, 32)).spec)
        .collect()
}

/// One serve-mix specification with the graph its delta stream adds.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// The family seed the spec was generated from.
    pub family_seed: u64,
    /// The specification submitted to the daemon.
    pub spec: SystemSpec,
    /// The generated graph the resyn stream's `AddTaskGraph` appends.
    pub added: TaskGraph,
}

/// The specifications each serve-mix client owns for `seed` (one list
/// per client). Every round sends the same requests to a fresh daemon,
/// so every cold submit is a cache miss and each request is repeated
/// once per round.
pub fn serve_specs(lib: &PaperLibrary, seed: u64) -> Vec<Vec<ServeSpec>> {
    (0..SERVE_CLIENTS)
        .map(|client| {
            (0..SERVE_SPECS_PER_CLIENT)
                .map(|i| {
                    let index = (client * SERVE_SPECS_PER_CLIENT + i) as u64;
                    let spec_seed = family_seed(DOMAIN_SERVE, seed, index);
                    let added_seed = family_seed(DOMAIN_SERVE_ADDED, seed, index);
                    ServeSpec {
                        family_seed: spec_seed,
                        spec: generate(lib, &family_config(spec_seed, 32)).spec,
                        added: generate(lib, &family_config(added_seed, 1))
                            .spec
                            .graphs()
                            .map(|(_, g)| g.clone())
                            .next()
                            .expect("a one-graph family has one graph"),
                    }
                })
                .collect()
        })
        .collect()
}

/// Duplicate submissions per serve-mix spec after its cold submit.
pub const HITS_PER_SPEC: usize = 2;

/// Resyn requests each serve-mix spec receives, each with its own delta
/// stream against the cached incumbent.
pub const RESYN_PER_SPEC: usize = 2;

impl ServeSpec {
    /// Delta stream `variant` against this spec's incumbent of `pes` PE
    /// instances: tighten one graph's deadline by 5%, fail a PE, add the
    /// generated graph, restore the PE. Variants pick different graphs
    /// and PEs.
    pub fn deltas(&self, pes: usize, variant: usize) -> Vec<SpecDelta> {
        let key = splitmix64(self.family_seed ^ variant as u64);
        let graph = GraphId::new((key % self.spec.graph_count().max(1) as u64) as usize);
        let deadline = self.spec.graph(graph).deadline().as_nanos();
        let pe = ((key >> 20) % pes.max(1) as u64) as u32;
        vec![
            SpecDelta::TightenDeadline {
                graph,
                deadline: Nanos::from_nanos(deadline - deadline / 20),
            },
            SpecDelta::FailPe { pe },
            SpecDelta::AddTaskGraph {
                graph: self.added.clone(),
            },
            SpecDelta::RestorePe { pe },
        ]
    }
}
