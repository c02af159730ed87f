//! The benchmark's own checks: every workload is deterministic at one
//! seed, tracing does not change what the flow emits, and the held-out
//! seed keeps each workload's layer profile.
//!
//! Run with `cargo test --release --manifest-path symbench/Cargo.toml`
//! (a debug build of the `decomp` workload takes many minutes).

use std::collections::BTreeMap;
use symbench::trace::traced_run;
use symbench::workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};
use symbench::{measure, quartiles, Outcome};

fn metric(t: &Outcome, name: &str) -> f64 {
    t.metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

/// Two traced runs and one untraced run at one seed: the untraced
/// run's deterministic values (quality ratios, rates, output bytes)
/// match the traced runs', and the traced runs agree on every
/// per-layer count.
fn deterministic_at_one_seed(workload: Workload) {
    let (a, _) = traced_run(workload, DEFAULT_SEED);
    let (b, _) = traced_run(workload, DEFAULT_SEED);
    assert!(a.correct, "{}: {:?}", workload.name(), a.problems);
    assert!(b.correct, "{}: {:?}", workload.name(), b.problems);
    assert_eq!(
        a.record,
        b.record,
        "{}: traced runs differ",
        workload.name()
    );
    let m = measure(workload, DEFAULT_SEED, 1e-3);
    assert!(m.correct, "{}: {:?}", workload.name(), m.problems);
    let shared: BTreeMap<&String, &String> = m
        .record
        .iter()
        .filter(|(k, _)| a.record.contains_key(*k))
        .collect();
    assert_eq!(
        shared.len(),
        m.record.len(),
        "untraced record keys missing from traced"
    );
    for (k, v) in shared {
        assert_eq!(
            v,
            &a.record[k],
            "{}: {k} differs between untraced and traced",
            workload.name()
        );
    }
    assert_eq!(
        metric(&m, "sec_pass_rate"),
        1.0,
        "{}: an output was not proved equivalent",
        workload.name()
    );
}

#[test]
fn decomp_is_deterministic() {
    deterministic_at_one_seed(Workload::Decomp);
}

#[test]
fn reach_is_deterministic() {
    deterministic_at_one_seed(Workload::Reach);
}

#[test]
fn sat_verify_is_deterministic() {
    deterministic_at_one_seed(Workload::SatVerify);
}

/// The held-out seed keeps the profile each workload was chosen for,
/// and the known sweep defect stays measured on `sat_verify`.
#[test]
fn held_out_seed_keeps_layer_profiles() {
    let (reach, _) = traced_run(Workload::Reach, HELD_OUT_SEED);
    assert!(
        metric(&reach, "reach.s") > 0.5 * metric(&reach, "flow.s"),
        "reach share"
    );

    let (decomp, _) = traced_run(Workload::Decomp, HELD_OUT_SEED);
    let flow = metric(&decomp, "flow.s");
    assert!(
        metric(&decomp, "flow.self_s") > 0.5 * flow,
        "flow self share"
    );
    assert!(
        metric(&decomp, "reach.s") < 0.05 * flow,
        "reach negligible on decomp"
    );

    let (sat, _) = traced_run(Workload::SatVerify, HELD_OUT_SEED);
    let validate_and_sweep = metric(&sat, "validate.s") + metric(&sat, "sweep.s");
    assert!(
        validate_and_sweep > 0.5 * metric(&sat, "flow.s"),
        "validation + sweep share"
    );
    assert!(
        metric(&sat, "sweep.failed") > 0.0,
        "sweep panics are counted"
    );
    let untraced = measure(Workload::SatVerify, HELD_OUT_SEED, 1e-3);
    assert!(
        metric(&untraced, "op_ok_rate") < 1.0,
        "failed governed operations are counted"
    );
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
    assert_eq!(quartiles(&[10.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 7.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
}
