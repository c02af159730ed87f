//! The three workloads: which circuits each runs and with which flow
//! options. `README.md` in this directory records why each was chosen.

use symbi::circuits::{adder, industrial, iscas_like, mux};
use symbi::core::recursive::DecBackend;
use symbi::netlist::{GateKind, Netlist, SignalId};
use symbi::synth::flow::SynthesisOptions;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 20_091;

/// Frames of the bounded SAT equivalence check. The same unrolling is
/// the flow's own validation on `sat_verify`, so the traced run's
/// check there is an exact replay of the flow's validation layer.
pub const CHECK_FRAMES: usize = 8;

/// Per-candidate step budget on `sat_verify`: small enough that some
/// candidates trip it, so the SAT rescue rung and the degradation
/// ladder both run.
pub const SAT_CANDIDATE_STEPS: u64 = 20_000;

/// Paper stand-ins of Table 3.1 small enough to run on every pass.
const TABLE31_SMALL: [&str; 6] = ["s344", "s526", "s713", "s838", "s953", "s1269"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Collapse, decomposition and emission; reachability is cheap.
    Decomp,
    /// Partitioned reachability dominates.
    Reach,
    /// SAT sweeping, SAT rescue under a step budget, and SAT validation.
    SatVerify,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Decomp, Workload::Reach, Workload::SatVerify];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Decomp => "decomp",
            Workload::Reach => "reach",
            Workload::SatVerify => "sat_verify",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The options `symbi optimize` would be given for this workload:
    /// one thread and no shared-kernel workers everywhere.
    pub fn options(self) -> SynthesisOptions {
        let mut options = SynthesisOptions {
            jobs: 1,
            ..SynthesisOptions::default()
        };
        options.kernel.shared_workers = 0;
        if self == Workload::SatVerify {
            options.reach = None;
            options.sweep = true;
            options.decompose.backend = DecBackend::Sat;
            options.budget.candidate_steps = SAT_CANDIDATE_STEPS;
            options.validate_frames = Some(CHECK_FRAMES);
        }
        options
    }

    /// The workload's circuits. Named paper stand-ins are fixed members;
    /// `seed` picks the generated ones.
    pub fn circuits(self, seed: u64) -> Vec<Netlist> {
        let named = |names: &[&str]| -> Vec<Netlist> {
            names
                .iter()
                .map(|&name| {
                    iscas_like::by_name(name)
                        .or_else(|| industrial::by_name(name))
                        .expect("named stand-in exists")
                })
                .collect()
        };
        let mut rng = Rng::new(seed);
        match self {
            Workload::Decomp => {
                let mut out: Vec<Netlist> = [2, 3, 4, 5].into_iter().map(mux::mux).collect();
                // One adder width from each band, so the seed changes the
                // members but hardly the workload's total size.
                for (lo, hi) in [(4, 7), (8, 11), (12, 16)] {
                    out.push(adder::ripple_carry(lo + rng.below(hi - lo + 1)));
                }
                out.extend(named(&TABLE31_SMALL));
                out.extend(named(&["seq6"]));
                out
            }
            Workload::Reach => named(&["seq5", "seq8"]),
            Workload::SatVerify => {
                let mut out = named(&TABLE31_SMALL);
                out.extend(named(&["s9234", "seq5", "seq6", "seq8"]));
                for i in 0..4 {
                    let gates = 150 + 40 * i + rng.below(20);
                    let latches = 2 + i % 3;
                    out.push(duplicated_netlist(
                        &format!("dup{i}"),
                        rng.next(),
                        6,
                        latches,
                        gates,
                    ));
                }
                out
            }
        }
    }
}

/// xorshift64*, the generator the repository's benchmarks use.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A seeded sequential netlist in which every other gate also appears
/// as a structurally different twin (De Morgan or XNOR-NOT form)
/// kept observable through its own output, so SAT sweeping has
/// duplicates to prove and merge that structural hashing cannot see.
fn duplicated_netlist(
    name: &str,
    seed: u64,
    inputs: usize,
    latches: usize,
    gates: usize,
) -> Netlist {
    let mut rng = Rng::new(seed);
    let mut n = Netlist::new(name);
    let mut pool: Vec<SignalId> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
    let qs: Vec<SignalId> = (0..latches)
        .map(|i| n.add_latch(format!("q{i}"), rng.below(2) == 0))
        .collect();
    pool.extend(&qs);
    let mut twins = Vec::new();
    for g in 0..gates {
        let x = pool[rng.below(pool.len())];
        let y = pool[rng.below(pool.len())];
        let kind = [GateKind::And, GateKind::Or, GateKind::Xor][rng.below(3)];
        pool.push(n.add_gate(format!("g{g}"), kind, vec![x, y]));
        if g % 2 == 0 {
            let twin = match kind {
                GateKind::And | GateKind::Or => {
                    let nx = n.add_gate(format!("t{g}nx"), GateKind::Not, vec![x]);
                    let ny = n.add_gate(format!("t{g}ny"), GateKind::Not, vec![y]);
                    let dual = if kind == GateKind::And {
                        GateKind::Nor
                    } else {
                        GateKind::Nand
                    };
                    n.add_gate(format!("t{g}"), dual, vec![nx, ny])
                }
                _ => {
                    let eq = n.add_gate(format!("t{g}eq"), GateKind::Xnor, vec![x, y]);
                    n.add_gate(format!("t{g}"), GateKind::Not, vec![eq])
                }
            };
            twins.push(twin);
        }
    }
    for &q in &qs {
        n.set_latch_next(q, pool[rng.below(pool.len())]);
    }
    n.add_output("o0", pool[pool.len() - 1]);
    n.add_output("o1", pool[pool.len() / 2]);
    for (k, &t) in twins.iter().enumerate() {
        n.add_output(format!("ot{k}"), t);
    }
    n
}
