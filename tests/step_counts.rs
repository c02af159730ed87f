//! Step-count pins for the governed hot paths.
//!
//! A metered governor charges one step per cache-miss recursion step of
//! every BDD operator. The benchmark's per-layer counters (`reach.steps`,
//! `flow.steps`, …) are these charges, so moving a checkpoint — adding one
//! to a cache hit, dropping one from a recursion, or charging a fork twice
//! — changes them even when every output stays byte-identical. These
//! tests pin the exact totals of one reachability analysis and one
//! synthesis run so such a move fails here first.

use symbi::bdd::ResourceGovernor;
use symbi::circuits::iscas_like;
use symbi::reach::{Reachability, ReachabilityOptions};
use symbi::synth::flow::{optimize_governed, SynthesisOptions};

/// Counts every step without ever tripping: `u64::MAX` itself would
/// read as "unlimited" and skip the accounting.
fn metered() -> ResourceGovernor {
    ResourceGovernor::unlimited().with_step_limit(u64::MAX - 1)
}

#[test]
fn reachability_step_count_is_pinned() {
    let n = iscas_like::by_name("s344").expect("known circuit");
    let gov = metered();
    let reach = Reachability::analyze_governed(&n, ReachabilityOptions::default(), &gov);
    assert!(reach.num_partitions() > 0);
    assert_eq!(gov.steps_used(), REACH_STEPS);
}

#[test]
fn synthesis_step_count_is_pinned() {
    let n = iscas_like::by_name("s344").expect("known circuit");
    let gov = metered();
    let (_, report) = optimize_governed(&n, &SynthesisOptions::default(), &gov);
    assert!(report.decomposed > 0);
    assert_eq!(gov.steps_used(), FLOW_STEPS);
}

const REACH_STEPS: u64 = 72_464;
const FLOW_STEPS: u64 = 449_498;
