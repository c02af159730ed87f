//! The traced run: spans recorded from the benchmark's own calls into
//! each layer's public functions, and the per-layer metrics built from
//! them. Nothing inside the program is instrumented.
//!
//! The run makes one untraced pass (the baseline of
//! `trace.overhead_ratio`), then one traced pass with a metered governor
//! per circuit, then replays each layer on every circuit with the inputs
//! and options the flow gives it. A replay of a layer the flow runs must
//! reproduce the flow's report exactly; a layer the flow does not run on
//! this workload is still called, with the options a flow enabling it
//! would pass, so that every per-layer metric is measured on every
//! workload.

use crate::host::HostSample;
use crate::{
    check, outputs_hash, quality_metrics, setup, synthesize, Check, Outcome, Synth, Workload,
};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use symbi::bdd::{Manager, ResourceGovernor, VarId};
use symbi::core::{recursive, Interval};
use symbi::netlist::clean::clean;
use symbi::netlist::cone::ConeExtractor;
use symbi::netlist::sweep::{try_sweep, SweepOptions};
use symbi::netlist::{stats, Netlist, NodeKind, SignalId};
use symbi::reach::Reachability;
use symbi::synth::flow::SynthesisOptions;

/// One timed interval of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the circuit in its workload.
    pub circuit: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    pub end_s: f64,
}

/// Records spans in memory; a tracer that is off records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    circuit: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            circuit: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Spans opened from now on belong to circuit `circuit`.
    pub fn set_circuit(&mut self, circuit: usize) {
        self.circuit = circuit;
    }

    /// Opens a span; pass the returned id to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.origin.elapsed().as_secs_f64();
        let circuit = self.circuit;
        self.spans.push(Span {
            name,
            circuit,
            parent,
            start_s: now,
            end_s: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end_s = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"circuit\": {}, \"parent\": {parent}, \"start_s\": {:?}, \"end_s\": {:?}}}",
                    s.name, s.circuit, s.start_s, s.end_s
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// A governor that never trips but counts every step exactly.
fn metered() -> ResourceGovernor {
    ResourceGovernor::unlimited().with_step_limit(u64::MAX - 1)
}

/// Counters accumulated over the traced pass and the replays.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, name: &'static str, v: impl Into<f64>) {
        *self.0.entry(name).or_default() += v.into();
    }
    fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.0.entry(name).or_default();
        *slot = slot.max(v);
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs the traced pass and the layer replays of `workload`; returns
/// the per-layer metrics and the recorded spans.
pub fn traced_run(workload: Workload, seed: u64) -> (Outcome, Tracer) {
    let host = HostSample::now();
    let options = workload.options();
    let (su, _) = setup(workload, seed);
    let mut problems = Vec::new();

    let mut off = Tracer::off();
    let mut untraced_s = 0.0;
    let mut untraced = Vec::new();
    for input in &su.circuits {
        let t = Instant::now();
        let s = synthesize(
            input,
            &options,
            &su.library,
            &options.budget.governor(),
            &mut off,
            None,
        );
        untraced_s += t.elapsed().as_secs_f64();
        untraced.push(s.fingerprint());
    }

    let mut tr = Tracer::on();
    let mut c = Counts::default();
    let mut results: Vec<Synth> = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    for (i, input) in su.circuits.iter().enumerate() {
        tr.set_circuit(i);
        let gov = metered();
        let root = tr.open("pipeline", None);
        let s = synthesize(input, &options, &su.library, &gov, &mut tr, Some(root));
        tr.close(root);
        if s.fingerprint() != untraced[i] {
            problems.push(format!(
                "circuit {}: traced output differs from untraced",
                input.name()
            ));
        }
        let r = &s.report;
        c.add("flow.steps", gov.steps_used() as f64);
        c.add("flow.decomposed", r.decomposed as f64);
        c.add("flow.skipped", r.candidates_skipped as f64);
        c.add("flow.sharing_hits", r.sharing_hits as f64);
        c.add(
            "clean.ands_removed",
            stats::stats(input)
                .aig_ands
                .saturating_sub(stats::stats(&s.pre).aig_ands) as f64,
        );

        let replay = tr.open("replay", None);
        let swept = replay_sweep(input, &s, &options, &mut tr, replay, &mut c, &mut problems);
        let flow_input = if options.sweep {
            swept.as_ref().unwrap_or(input)
        } else {
            input
        };
        let (cleaned, _) = clean(flow_input);
        let mut reach = replay_reach(
            &cleaned,
            &s,
            &options,
            &mut tr,
            replay,
            &mut c,
            &mut problems,
        );
        replay_decompose(&cleaned, &mut reach, &options, &mut tr, replay, &mut c);
        let ck = check(input, &s.out, seed, &mut tr, Some(replay));
        tr.close(replay);
        c.add("sat.conflicts", ck.solver.conflicts as f64);
        c.add("sat.decisions", ck.solver.decisions as f64);
        c.add("sat.propagations", ck.solver.propagations as f64);
        c.add("sat.learnt_clauses", ck.solver.learnt_clauses as f64);
        if options.validate_frames.is_some() {
            let flow = r.sat_validation.map(|v| (v.equivalent, v.solver.conflicts));
            if flow != Some((ck.sat, ck.solver.conflicts)) {
                problems.push(format!(
                    "circuit {}: validation replay differs from flow",
                    input.name()
                ));
            }
        }
        if !ck.passed() {
            problems.push(format!(
                "circuit {}: output not proved equivalent",
                input.name()
            ));
        }
        results.push(s);
        checks.push(ck);
    }

    let total = |name: &str| tr.total(name);
    let flow_s = total("flow");
    let mut flow_self_s = flow_s - total("clean");
    let mut flow_self_steps = c.get("flow.steps");
    if options.sweep {
        flow_self_s -= total("sweep");
        flow_self_steps -= c.get("sweep.steps");
    }
    if options.reach.is_some() {
        flow_self_s -= total("reach");
        flow_self_steps -= c.get("reach.steps");
    }
    if options.validate_frames.is_some() {
        flow_self_s -= total("validate");
    }
    let traced_s = total("pipeline");
    let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hit_rate = |p: &str| {
        let hits = c.get(&format!("{p}.cache_hits"));
        rate(hits, hits + c.get(&format!("{p}.cache_misses")))
    };
    let metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("clean.s", total("clean"), "s"),
        ("clean.ands_removed", c.get("clean.ands_removed"), "count"),
        ("sweep.s", total("sweep"), "s"),
        ("sweep.sat_calls", c.get("sweep.sat_calls"), "count"),
        ("sweep.merges", c.get("sweep.merges"), "count"),
        (
            "sweep.merge_rate",
            rate(c.get("sweep.merges"), c.get("sweep.sat_calls")),
            "ratio",
        ),
        ("sweep.undecided", c.get("sweep.undecided"), "count"),
        ("sweep.failed", c.get("sweep.failed"), "count"),
        ("reach.s", total("reach"), "s"),
        ("reach.steps", c.get("reach.steps"), "count"),
        ("reach.iterations", c.get("reach.iterations"), "count"),
        ("reach.partitions", c.get("reach.partitions"), "count"),
        ("reach.bailed_out", c.get("reach.bailed_out"), "count"),
        (
            "reach.peak_live_nodes",
            c.get("reach.peak_live_nodes"),
            "count",
        ),
        ("reach.cache_hit_rate", hit_rate("reach"), "ratio"),
        ("reach.gc_runs", c.get("reach.gc_runs"), "count"),
        ("decompose.s", total("decompose"), "s"),
        ("decompose.steps", c.get("decompose.steps"), "count"),
        ("decompose.calls", c.get("decompose.calls"), "count"),
        ("decompose.bi_steps", c.get("decompose.bi_steps"), "count"),
        (
            "decompose.shannon_steps",
            c.get("decompose.shannon_steps"),
            "count",
        ),
        ("decompose.fallbacks", c.get("decompose.fallbacks"), "count"),
        (
            "decompose.rescued_checks",
            c.get("decompose.rescued_checks"),
            "count",
        ),
        ("decompose.cache_hit_rate", hit_rate("decompose"), "ratio"),
        ("flow.s", flow_s, "s"),
        ("flow.steps", c.get("flow.steps"), "count"),
        ("flow.self_s", flow_self_s, "s"),
        ("flow.self_steps", flow_self_steps, "count"),
        ("flow.decomposed", c.get("flow.decomposed"), "count"),
        ("flow.skipped", c.get("flow.skipped"), "count"),
        ("flow.sharing_hits", c.get("flow.sharing_hits"), "count"),
        ("map.s", total("map"), "s"),
        ("validate.s", total("validate"), "s"),
        ("sat.conflicts", c.get("sat.conflicts"), "count"),
        ("sat.decisions", c.get("sat.decisions"), "count"),
        ("sat.propagations", c.get("sat.propagations"), "count"),
        ("sat.learnt_clauses", c.get("sat.learnt_clauses"), "count"),
        ("trace.overhead_ratio", rate(traced_s, untraced_s), "ratio"),
        ("host.runq_wait_s", host.since().runq_wait_s, "s"),
    ];
    eprintln!(
        "profile: reach.s/flow.s {:.3}, flow.self_s/flow.s {:.3}, (validate.s+sweep.s)/flow.s {:.3}",
        rate(total("reach"), flow_s),
        rate(flow_self_s, flow_s),
        rate(total("validate") + total("sweep"), flow_s),
    );

    let mut record: BTreeMap<String, String> = metrics
        .iter()
        .filter(|(name, _, unit)| *unit != "s" && *name != "trace.overhead_ratio")
        .map(|(name, v, _)| (name.to_string(), format!("{v:?}")))
        .collect();
    for (k, v) in quality_metrics(&results, &checks, &options) {
        record.insert(k.to_string(), format!("{v:?}"));
    }
    record.insert("outputs".into(), outputs_hash(&results));
    let outcome = Outcome {
        correct: problems.is_empty(),
        attempted: 2 * su.circuits.len(),
        failed: problems.len(),
        metrics,
        record,
        problems,
    };
    (outcome, tr)
}

/// Replays the SAT sweep on `input` with the options the flow passes
/// it. A panic or a governor trip counts in `sweep.failed`. When the
/// flow sweeps, the replay must match the flow's sweep counters.
fn replay_sweep(
    input: &Netlist,
    s: &Synth,
    options: &SynthesisOptions,
    tr: &mut Tracer,
    parent: usize,
    c: &mut Counts,
    problems: &mut Vec<String>,
) -> Option<Netlist> {
    let sweep_options = SweepOptions {
        rounds: options.sweep_rounds,
        conflict_budget: options.sweep_conflicts,
        ..SweepOptions::default()
    };
    let gov = metered();
    let span = tr.open("sweep", Some(parent));
    let attempt = catch_unwind(AssertUnwindSafe(|| try_sweep(input, &sweep_options, &gov)));
    tr.close(span);
    c.add("sweep.steps", gov.steps_used() as f64);
    let flow = &s.report.sweep;
    match attempt {
        Ok(Ok((swept, r))) => {
            c.add("sweep.sat_calls", r.sat_calls as f64);
            c.add("sweep.merges", r.merges as f64);
            c.add("sweep.undecided", r.undecided as f64);
            let same = !flow.degraded
                && (
                    flow.classes,
                    flow.merges,
                    flow.sat_calls,
                    flow.cex_patterns,
                    flow.undecided,
                ) == (
                    r.classes,
                    r.merges,
                    r.sat_calls,
                    r.cex_patterns,
                    r.undecided,
                );
            if options.sweep && !same {
                problems.push(format!(
                    "circuit {}: sweep replay differs from flow",
                    input.name()
                ));
            }
            Some(swept)
        }
        Ok(Err(_)) | Err(_) => {
            c.add("sweep.failed", 1.0);
            if options.sweep && !flow.degraded {
                problems.push(format!(
                    "circuit {}: sweep replay failed, flow's did not",
                    input.name()
                ));
            }
            None
        }
    }
}

/// Replays partitioned reachability on the flow's cleaned input. When
/// the flow runs reachability, the replay must reach the same
/// `log2_states`, and its result feeds the decomposition replay;
/// otherwise the replay uses default options and the decomposition
/// replay gets no state information, as the flow does.
fn replay_reach(
    cleaned: &Netlist,
    s: &Synth,
    options: &SynthesisOptions,
    tr: &mut Tracer,
    parent: usize,
    c: &mut Counts,
    problems: &mut Vec<String>,
) -> Reachability {
    let gov = metered();
    let span = tr.open("reach", Some(parent));
    let reach = Reachability::analyze_governed(cleaned, options.reach.unwrap_or_default(), &gov);
    tr.close(span);
    let st = reach.stats();
    c.add("reach.steps", gov.steps_used() as f64);
    c.add("reach.iterations", st.iterations as f64);
    c.add("reach.partitions", st.partitions as f64);
    c.add("reach.bailed_out", st.bailed_out as f64);
    c.max("reach.peak_live_nodes", st.peak_live_nodes as f64);
    c.add("reach.cache_hits", st.cache_hits as f64);
    c.add("reach.cache_misses", st.cache_misses as f64);
    c.add("reach.gc_runs", st.gc_runs as f64);
    if options.reach.is_none() {
        return Reachability::trivial(cleaned);
    }
    if reach.log2_states() != s.report.log2_states {
        problems.push(format!(
            "circuit {}: reach replay differs from flow",
            cleaned.name()
        ));
    }
    reach
}

/// Replays recursive bi-decomposition on every root function (latch
/// next-state functions and outputs) whose support is between 2 and the
/// flow's collapse limit, built as the Table 3.1 experiment builds it:
/// cone BDD, unreachable-state don't cares, interval. Only the
/// `try_decompose` calls are timed.
fn replay_decompose(
    cleaned: &Netlist,
    reach: &mut Reachability,
    options: &SynthesisOptions,
    tr: &mut Tracer,
    parent: usize,
    c: &mut Counts,
) {
    let gov = metered();
    let mut m = Manager::with_kernel_config(options.kernel);
    let mut ext = ConeExtractor::with_dfs_layout(cleaned, &mut m);
    let var_of_latch: HashMap<SignalId, VarId> = cleaned
        .latches()
        .iter()
        .map(|&l| (l, ext.var_of(l).expect("layout covers latches")))
        .collect();
    let mut roots: Vec<SignalId> = cleaned
        .latches()
        .iter()
        .map(|&l| cleaned.latch_next(l).expect("validated"))
        .collect();
    roots.extend(cleaned.outputs().iter().map(|&(_, s)| s));
    roots.sort_unstable();
    roots.dedup();
    for root in roots {
        let support = cleaned.support(root);
        if support.len() < 2 || support.len() > options.max_cone_support {
            continue;
        }
        let f = ext.bdd(&mut m, root);
        let ps: Vec<SignalId> = support
            .into_iter()
            .filter(|&s| matches!(cleaned.kind(s), NodeKind::Latch { .. }))
            .collect();
        let care = reach.care_set(&ps, &mut m, &var_of_latch);
        let unreachable = m.not(care);
        let interval = Interval::with_dontcare(&mut m, f, unreachable);
        let before = m.stats();
        let span = tr.open("decompose", Some(parent));
        let result = recursive::try_decompose(
            &mut m,
            &interval,
            &options.decompose,
            &gov.fork_steps(options.budget.candidate_steps),
        );
        tr.close(span);
        let after = m.stats();
        c.add("decompose.calls", 1.0);
        c.add(
            "decompose.cache_hits",
            (after.cache_hits - before.cache_hits) as f64,
        );
        c.add(
            "decompose.cache_misses",
            (after.cache_misses - before.cache_misses) as f64,
        );
        if let Ok((_, st)) = result {
            c.add(
                "decompose.bi_steps",
                (st.or_steps + st.and_steps + st.xor_steps) as f64,
            );
            c.add("decompose.shannon_steps", st.shannon_steps as f64);
            c.add("decompose.fallbacks", st.fallbacks_taken as f64);
            c.add("decompose.rescued_checks", st.rescued_checks as f64);
        }
    }
    c.add("decompose.steps", gov.steps_used() as f64);
}
