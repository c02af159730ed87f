//! End-to-end and per-layer benchmark of the symbi synthesis flow.
//!
//! One run synthesizes every circuit of a workload the way
//! `symbi optimize` does (clean and pre-map, Algorithm 1, post-map),
//! checks each output against its input with checks that do not use the
//! BDD engine that produced it, and reports either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced). See
//! `README.md` in this directory for the metric → layer → workload map.

pub mod host;
pub mod record;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::time::Instant;
use symbi::bdd::ResourceGovernor;
use symbi::netlist::{bench, clean::clean, sec, sim, stats, Netlist};
use symbi::synth::flow::{optimize_governed, SynthesisOptions, SynthesisReport};
use symbi::synth::genlib::Library;
use symbi::synth::map::{map, MapMode};
use trace::Tracer;
use workload::Workload;

/// Least number of set-up repetitions per run; `setup_s` is their
/// median.
const MIN_SETUP_REPS: usize = 5;

/// One timing sample of a circuit faster than this repeats the circuit
/// until the repetitions add up to it and reports their mean, so that
/// sub-millisecond circuits are not timed by a single call.
const SAMPLE_FLOOR_S: f64 = 0.01;

/// Cap on those repetitions.
const MAX_REPS: usize = 64;

/// Co-simulation cycles (64 random input patterns each) in the check.
const CO_SIM_STEPS: usize = 128;

/// The inputs of one run.
pub struct Setup {
    /// The workload's circuits, written to `.bench` text and parsed back
    /// as `symbi optimize` would load them from files.
    pub circuits: Vec<Netlist>,
    /// The cell library both maps use.
    pub library: Library,
}

/// Generates the workload's inputs, writes and parses them, and builds
/// the cell library. Returns the inputs and the seconds it took.
pub fn setup(workload: Workload, seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let circuits: Vec<Netlist> = workload
        .circuits(seed)
        .iter()
        .map(|n| bench::parse(&bench::write(n)).expect("written netlist parses back"))
        .collect();
    let library = Library::mcnc_like();
    (Setup { circuits, library }, t.elapsed().as_secs_f64())
}

/// What one run of the pipeline produced on one circuit.
pub struct Synth {
    /// The cleaned input (what the pre-map maps).
    pub pre: Netlist,
    /// The optimized netlist.
    pub out: Netlist,
    /// The flow's report.
    pub report: SynthesisReport,
    /// Mapped (area, delay) of the cleaned input.
    pub pre_mapped: (f64, f64),
    /// Mapped (area, delay) of the optimized netlist.
    pub post_mapped: (f64, f64),
}

/// Runs what `symbi optimize` runs on one circuit: clean and map the
/// input, optimize it, map the result. Each step is a span of `tr`
/// under `parent`.
pub fn synthesize(
    input: &Netlist,
    options: &SynthesisOptions,
    library: &Library,
    gov: &ResourceGovernor,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> Synth {
    let s = tr.open("clean", parent);
    let (pre, _) = clean(input);
    tr.close(s);
    let s = tr.open("map", parent);
    let pre_mapped = map(&pre, library, MapMode::Area);
    tr.close(s);
    let s = tr.open("flow", parent);
    let (out, report) = optimize_governed(input, options, gov);
    tr.close(s);
    let s = tr.open("map", parent);
    let post_mapped = map(&out, library, MapMode::Area);
    tr.close(s);
    Synth {
        pre,
        out,
        report,
        pre_mapped: (pre_mapped.area, pre_mapped.delay),
        post_mapped: (post_mapped.area, post_mapped.delay),
    }
}

impl Synth {
    /// Every deterministic fact about this result: the output netlist's
    /// bytes (hashed), its size and mapped cost, and the report's
    /// counters. Two runs of the same code on the same input must agree.
    pub fn fingerprint(&self) -> String {
        let r = &self.report;
        format!(
            "{:016x} {} {} {:?} {:?} {} {} {} {} {} {:?} {:?} {:?}",
            fnv(bench::write(&self.out).as_bytes()),
            stats::stats(&self.pre).aig_ands,
            stats::stats(&self.out).aig_ands,
            self.pre_mapped,
            self.post_mapped,
            r.eligible,
            r.decomposed,
            r.candidates_skipped,
            r.sharing_hits,
            r.log2_states,
            r.sweep,
            r.sat_validation.map(|v| (v.equivalent, v.solver.conflicts)),
            r.validation_interrupted,
        )
    }

    /// Governed operations the flow attempted and those that failed:
    /// candidate decompositions (a budget skip or panic fails), the
    /// sweep (a degraded sweep fails) and the validation (an
    /// interrupted one fails).
    pub fn governed_ops(&self, options: &SynthesisOptions) -> (usize, usize) {
        let r = &self.report;
        let mut attempted = r.eligible;
        let mut failed = r.candidates_skipped;
        if options.sweep {
            attempted += 1;
            failed += usize::from(r.sweep.degraded);
        }
        if options.validate_frames.is_some() {
            attempted += 1;
            failed += usize::from(r.validation_interrupted.is_some());
        }
        (attempted, failed)
    }
}

/// Outcome of checking one output against its input.
pub struct Check {
    /// Co-simulation from reset agreed on every cycle.
    pub co_sim: bool,
    /// The bounded SAT check proved the outputs equal for
    /// [`workload::CHECK_FRAMES`] frames.
    pub sat: bool,
    /// The SAT check's solver effort.
    pub solver: symbi::sat::SolverStats,
}

impl Check {
    /// Whether the output is proved equivalent by both checks.
    pub fn passed(&self) -> bool {
        self.co_sim && self.sat
    }
}

/// Checks `output` against `input` by seeded random co-simulation from
/// reset and by bounded SAT sequential equivalence. Neither uses the
/// BDD engine. The SAT check is a span named `validate` of `tr`.
pub fn check(
    input: &Netlist,
    output: &Netlist,
    seed: u64,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> Check {
    let co_sim = sim::random_co_simulation(input, output, CO_SIM_STEPS, seed);
    let s = tr.open("validate", parent);
    let verdict = sec::try_bounded_check_sat(
        input,
        output,
        workload::CHECK_FRAMES,
        &ResourceGovernor::unlimited(),
    );
    tr.close(s);
    let (sat, solver) = match verdict {
        Ok((result, solver)) => (result.is_equivalent(), solver),
        Err(_) => (false, Default::default()),
    };
    Check {
        co_sim,
        sat,
        solver,
    }
}

/// The deterministic end-to-end metrics of a set of first results and
/// their checks: `and_ratio`, `area_ratio`, `delay_ratio`,
/// `sec_pass_rate`, `op_ok_rate`.
pub fn quality_metrics(
    results: &[Synth],
    checks: &[Check],
    options: &SynthesisOptions,
) -> Vec<(&'static str, f64)> {
    let ratio = |after: f64, before: f64| {
        if before > 0.0 {
            after / before
        } else if after > 0.0 {
            after
        } else {
            1.0
        }
    };
    let and_ratio = geomean(results.iter().map(|s| {
        ratio(
            stats::stats(&s.out).aig_ands as f64,
            stats::stats(&s.pre).aig_ands as f64,
        )
    }));
    let area_ratio = geomean(
        results
            .iter()
            .map(|s| ratio(s.post_mapped.0, s.pre_mapped.0)),
    );
    let delay_ratio = geomean(
        results
            .iter()
            .map(|s| ratio(s.post_mapped.1, s.pre_mapped.1)),
    );
    let passed = checks.iter().filter(|c| c.passed()).count();
    let (attempted, failed) = results
        .iter()
        .map(|s| s.governed_ops(options))
        .fold((0, 0), |(a, f), (da, df)| (a + da, f + df));
    vec![
        ("and_ratio", and_ratio),
        ("area_ratio", area_ratio),
        ("delay_ratio", delay_ratio),
        ("sec_pass_rate", passed as f64 / checks.len().max(1) as f64),
        (
            "op_ok_rate",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
    ]
}

/// What one run measured and whether its outputs were right.
pub struct Outcome {
    /// Every output passed its check and every deterministic value
    /// repeated; otherwise `problems` says what went wrong.
    pub correct: bool,
    /// Pipeline calls attempted.
    pub attempted: usize,
    /// Problems found: outputs not proved equivalent, repetitions that
    /// differed from a circuit's first output, replays that disagreed
    /// with the flow.
    pub failed: usize,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic values for the cross-run record.
    pub record: BTreeMap<String, String>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

/// An untraced run. Round 0 synthesizes every circuit once; later
/// rounds re-run every circuit whose last sample still fits in the time
/// left of `seconds`, so the samples of short circuits are spread over
/// the whole run instead of one burst. The set-up is repeated before
/// every round. A circuit's time is the median of its samples; the
/// first output of every circuit is checked, and every later output
/// must repeat it exactly.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let options = workload.options();
    let start = Instant::now();
    let (su, first_setup) = setup(workload, seed);
    let mut setup_s = vec![first_setup];
    let n = su.circuits.len();
    let mut off = Tracer::off();
    let mut first: Vec<Option<(Synth, String)>> = (0..n).map(|_| None).collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut attempted = 0usize;
    let mut problems = Vec::new();
    let mut peak_rss_mb = 0.0;
    for round in 0.. {
        let mut ran = false;
        for (i, input) in su.circuits.iter().enumerate() {
            let left = seconds - start.elapsed().as_secs_f64();
            if round > 0 && samples[i].last().is_some_and(|&last| last > left) {
                continue;
            }
            let (mut busy, mut reps) = (0.0, 0usize);
            while reps == 0 || (busy < SAMPLE_FLOOR_S && reps < MAX_REPS) {
                let gov = options.budget.governor();
                let t = Instant::now();
                let s = synthesize(input, &options, &su.library, &gov, &mut off, None);
                busy += t.elapsed().as_secs_f64();
                reps += 1;
                let fp = s.fingerprint();
                match &first[i] {
                    None => first[i] = Some((s, fp)),
                    Some((_, f)) if *f != fp => {
                        problems.push(format!("circuit {}: a repetition differs", input.name()))
                    }
                    Some(_) => {}
                }
            }
            attempted += reps;
            samples[i].push(busy / reps as f64);
            ran = true;
        }
        if round == 0 {
            // Later rounds only repeat round 0's allocations, but the
            // allocator's reuse of freed memory varies between them.
            peak_rss_mb = host::peak_rss_mb();
        }
        if !ran || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        setup_s.push(setup(workload, seed).1);
    }
    while setup_s.len() < MIN_SETUP_REPS {
        setup_s.push(setup(workload, seed).1);
    }
    let results: Vec<Synth> = first
        .into_iter()
        .map(|f| f.expect("every circuit ran").0)
        .collect();
    let checks: Vec<Check> = su
        .circuits
        .iter()
        .zip(&results)
        .map(|(input, s)| check(input, &s.out, seed, &mut off, None))
        .collect();
    for (input, c) in su.circuits.iter().zip(&checks) {
        if !c.passed() {
            problems.push(format!(
                "circuit {}: output not proved equivalent",
                input.name()
            ));
        }
    }

    for (input, v) in su.circuits.iter().zip(&samples) {
        let (q1, q2, q3) = quartiles(v);
        eprintln!(
            "circuit {:10} ms median {:.4} q1 {:.4} q3 {:.4} n {}",
            input.name(),
            q2 * 1e3,
            q1 * 1e3,
            q3 * 1e3,
            v.len()
        );
    }
    let (q1, q2, q3) = quartiles(&setup_s);
    eprintln!(
        "setup_s median {q2:.6} q1 {q1:.6} q3 {q3:.6} n {}",
        setup_s.len()
    );
    let ms: Vec<f64> = samples.iter().map(|v| median(v) * 1e3).collect();
    let quality = quality_metrics(&results, &checks, &options);
    let mut record: BTreeMap<String, String> = quality
        .iter()
        .map(|(k, v)| (k.to_string(), format!("{v:?}")))
        .collect();
    record.insert("outputs".into(), outputs_hash(&results));
    let mut metrics = vec![
        ("synth_s", ms.iter().sum::<f64>() / 1e3, "s"),
        ("synth_geomean_ms", geomean(ms.iter().copied()), "ms"),
    ];
    metrics.extend(quality.iter().map(|&(k, v)| (k, v, "ratio")));
    metrics.push(("peak_rss_mb", peak_rss_mb, "MiB"));
    metrics.push(("setup_s", median(&setup_s), "s"));
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: problems.len(),
        metrics,
        record,
        problems,
    }
}

/// Hash of every output netlist's bytes, in circuit order.
pub fn outputs_hash(results: &[Synth]) -> String {
    let mut all = String::new();
    for s in results {
        all.push_str(&bench::write(&s.out));
    }
    format!("{:016x}", fnv(all.as_bytes()))
}

/// FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Geometric mean (1 for an empty sequence).
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.max(1e-12).ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (falling back to the values
/// themselves for fewer than two samples).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let n = n as i64;
            let at = |i: i64| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (v[j as usize - 1], v[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
