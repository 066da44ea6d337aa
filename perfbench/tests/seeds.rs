//! The benchmark's inputs are a pure function of its seed.

use std::collections::BTreeSet;

use crusade_explore::{explore, ExploreConfig};
use crusade_perfbench::inputs::{explore_gen_seeds, explore_gen_specs, seed_domain, serve_specs};
use crusade_perfbench::PORTFOLIO;
use crusade_workloads::paper_library;

#[test]
fn one_seed_gives_identical_specs_twice() {
    let lib = paper_library();
    for seed in [0, 7] {
        assert_eq!(explore_gen_specs(&lib, seed), explore_gen_specs(&lib, seed));
        assert_eq!(serve_specs(&lib, seed), serve_specs(&lib, seed));
    }
}

#[test]
fn another_seed_gives_different_specs_that_pass_the_gate() {
    let lib = paper_library();
    let explore_specs = explore_gen_specs(&lib, 8);
    let serve = serve_specs(&lib, 8);
    assert_ne!(explore_gen_specs(&lib, 7), explore_specs);
    assert_ne!(serve_specs(&lib, 7), serve);
    // Near-edge families may have no architecture; those that do must
    // audit clean.
    let firsts = explore_specs.iter().take(3);
    let specs = firsts.chain(serve[0].iter().map(|s| &s.spec).take(3));
    let mut clean = 0;
    for spec in specs {
        if let Ok(outcome) = explore(spec, &lib.lib, &ExploreConfig::new(PORTFOLIO, 1)) {
            let violations =
                crusade_verify::audit(spec, &lib.lib, &Default::default(), &outcome.winner);
            assert!(violations.is_empty(), "{violations:?}");
            clean += 1;
        }
    }
    assert!(clean > 0, "no spec of seed 8 got an architecture");
}

#[test]
fn explore_gen_and_serve_mix_draw_disjoint_seed_ranges() {
    let lib = paper_library();
    for seed in 0..4 {
        let explore: BTreeSet<u64> = explore_gen_seeds(seed).into_iter().collect();
        let serve: BTreeSet<u64> = serve_specs(&lib, seed)
            .into_iter()
            .flatten()
            .map(|s| s.family_seed)
            .collect();
        assert!(explore.iter().all(|s| seed_domain(*s) == 1));
        assert!(serve.iter().all(|s| seed_domain(*s) == 2));
        assert!(explore.is_disjoint(&serve));
    }
}
