//! The CDCL solver core.

use crate::heap::OrderHeap;
use std::fmt;
use std::ops::Not;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable with a phase. Encoded as `var << 1 | sign`
/// (sign 1 = negated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Literal of `v` with the given phase (`true` = positive).
    pub fn with_phase(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Is this literal negated?
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

/// Outcome of [`Solver::solve`] / [`Solver::solve_with_assumptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (read it with [`Solver::value`]).
    Sat,
    /// Unsatisfiable; under assumptions, `core` lists a subset of the
    /// assumption literals sufficient for the refutation.
    Unsat {
        /// Subset of the assumptions used to derive the contradiction
        /// (empty when the formula is unsatisfiable outright).
        core: Vec<Lit>,
    },
}

impl SolveResult {
    /// Is this the satisfiable outcome?
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat)
    }
}

/// Outcome of [`Solver::solve_budgeted`] /
/// [`Solver::solve_budgeted_with_assumptions`]: a [`SolveResult`] plus
/// the `Unknown` verdict of a solver that ran out of conflict budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetedSolveResult {
    /// A satisfying assignment was found (read it with [`Solver::value`]).
    Sat,
    /// Unsatisfiable; under assumptions, `core` lists a subset of the
    /// assumption literals sufficient for the refutation.
    Unsat {
        /// Subset of the assumptions used to derive the contradiction.
        core: Vec<Lit>,
    },
    /// The conflict budget ran out before a verdict. The solver has
    /// backtracked to level 0 and remains usable — learnt clauses are
    /// kept, so a retry with a larger budget resumes smarter.
    Unknown,
}

impl BudgetedSolveResult {
    /// Is this the satisfiable outcome?
    pub fn is_sat(&self) -> bool {
        matches!(self, BudgetedSolveResult::Sat)
    }

    /// Did the budget run out before a verdict?
    pub fn is_unknown(&self) -> bool {
        matches!(self, BudgetedSolveResult::Unknown)
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    /// Glue (literal-block-distance) recorded when the clause was learnt:
    /// the number of distinct decision levels among its literals. Lower
    /// glue predicts higher usefulness (Audemard & Simon); clauses with
    /// `lbd <= GLUE_LBD` are never deleted.
    lbd: u32,
    /// Bump-and-decay usefulness score; ties inside an LBD class are
    /// broken towards recently used clauses during database reduction.
    activity: f64,
    learnt: bool,
}

type ClauseRef = u32;

/// Learnt clauses at or below this glue level are kept forever.
const GLUE_LBD: u32 = 2;
/// Base unit (in conflicts) of the Luby restart sequence.
const RESTART_BASE: u64 = 100;

/// Where an interrupt hook is consulted during [`Solver::search`].
///
/// These are the CDCL engine's two fault-injection/cancellation safe
/// points: the top of the search loop (before unit propagation) and
/// immediately before a learnt-database reduction. At either point the
/// solver state is consistent and a bounded bail-out (backtrack to
/// level 0, return `Unknown`) keeps it reusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SatCheckPoint {
    /// Top of the CDCL loop, before `propagate`.
    Propagate,
    /// Immediately before `reduce_db`.
    ReduceDb,
}

/// A caller-supplied interruption callback; returning `true` aborts the
/// running (budgeted) search with [`BudgetedSolveResult::Unknown`].
///
/// The crate is dependency-free, so resource governance lives upstream:
/// callers that own a governor install a hook that polls it (and any
/// fault plan) at each [`SatCheckPoint`]. A hook that panics unwinds
/// through `search`; the solver must then be discarded.
pub struct InterruptHook(pub Box<dyn FnMut(SatCheckPoint) -> bool + Send>);

impl std::fmt::Debug for InterruptHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InterruptHook(..)")
    }
}

/// RAII scope for an installed interrupt hook: created by
/// [`Solver::with_interrupt`], dereferences to the solver, and clears
/// the hook when dropped.
///
/// A hook that outlives its governed check is a latent panic — the next
/// *unbudgeted* `solve()` on the same solver would trip the
/// interrupted-complete-search guard. Routing every governed path
/// through this guard makes "hook cleared on all exits" a structural
/// property instead of a per-call-site obligation.
#[derive(Debug)]
pub struct InterruptGuard<'a> {
    solver: &'a mut Solver,
}

impl std::ops::Deref for InterruptGuard<'_> {
    type Target = Solver;

    fn deref(&self) -> &Solver {
        self.solver
    }
}

impl std::ops::DerefMut for InterruptGuard<'_> {
    fn deref_mut(&mut self) -> &mut Solver {
        self.solver
    }
}

impl Drop for InterruptGuard<'_> {
    fn drop(&mut self) {
        self.solver.clear_interrupt();
    }
}

/// A CDCL SAT solver (see the crate docs for the feature list).
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// watches[lit.code()] = clauses currently watching `lit`.
    watches: Vec<Vec<ClauseRef>>,
    assigns: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    /// Branching order: an indexed max-heap over `activity`, so each
    /// decision costs O(log n) instead of a full-vector scan.
    order: OrderHeap,
    /// Saved phases for phase-saving heuristic (recorded at backtrack).
    polarity: Vec<bool>,
    ok: bool,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Literals whose `seen` bit is set during the current analysis
    /// (including extras marked by recursive minimization).
    to_clear: Vec<Lit>,
    /// Live learnt clauses (attached, not yet deleted).
    live_learnt: usize,
    reduce_enabled: bool,
    reduce_inc: usize,
    /// Live-learnt threshold that triggers the next database reduction.
    next_reduce: usize,
    /// Statistics: conflicts, decisions, propagations, clause traffic.
    pub stats: SolverStats,
    /// Optional interruption callback, polled at every [`SatCheckPoint`].
    interrupt: Option<InterruptHook>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

/// Search statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated (reason-driven enqueues only — decisions and
    /// assumption enqueues are not propagations).
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt from conflicts.
    pub learnt_clauses: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Database reductions performed.
    pub db_reductions: u64,
    /// Highest glue (LBD) of any learnt clause.
    pub max_lbd: u32,
    /// Peak number of simultaneously live learnt clauses.
    pub max_live_learnt: u64,
    /// Literals removed from learnt clauses by recursive minimization.
    pub minimized_literals: u64,
    /// Budgeted solves that returned `Unknown` and were retried once at
    /// half budget on the warm clause database
    /// ([`Solver::solve_budgeted_with_retry`]).
    pub retries: u64,
}

impl SolverStats {
    /// Accumulates `other` into `self`: counters add, high-water marks max.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.deleted_clauses += other.deleted_clauses;
        self.db_reductions += other.db_reductions;
        self.max_lbd = self.max_lbd.max(other.max_lbd);
        self.max_live_learnt = self.max_live_learnt.max(other.max_live_learnt);
        self.minimized_literals += other.minimized_literals;
        self.retries += other.retries;
    }

    /// Per-call effort: the counter increments since `baseline` (a copy
    /// of [`Solver::stats`] taken before the call). High-water marks
    /// (`max_lbd`, `max_live_learnt`) carry the current values, since a
    /// maximum has no meaningful difference. Incremental users — the
    /// netlist SAT sweep, the bounded equivalence checker — use this to
    /// attribute effort to individual `solve_with_assumptions` calls on
    /// one persistent solver.
    pub fn delta_since(&self, baseline: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts - baseline.conflicts,
            decisions: self.decisions - baseline.decisions,
            propagations: self.propagations - baseline.propagations,
            restarts: self.restarts - baseline.restarts,
            learnt_clauses: self.learnt_clauses - baseline.learnt_clauses,
            deleted_clauses: self.deleted_clauses - baseline.deleted_clauses,
            db_reductions: self.db_reductions - baseline.db_reductions,
            max_lbd: self.max_lbd,
            max_live_learnt: self.max_live_learnt,
            minimized_literals: self.minimized_literals - baseline.minimized_literals,
            retries: self.retries - baseline.retries,
        }
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: OrderHeap::default(),
            polarity: Vec::new(),
            ok: true,
            seen: Vec::new(),
            to_clear: Vec::new(),
            live_learnt: 0,
            reduce_enabled: true,
            reduce_inc: 300,
            next_reduce: 2000,
            stats: SolverStats::default(),
            interrupt: None,
        }
    }

    /// Installs an interruption callback consulted at every
    /// [`SatCheckPoint`]; returning `true` makes the running budgeted
    /// search bail out with [`BudgetedSolveResult::Unknown`] (the
    /// solver backtracks to level 0 and stays reusable). Unbudgeted
    /// [`Solver::solve`]/[`Solver::solve_with_assumptions`] must not be
    /// used with a hook installed — an interrupted complete search has
    /// no honest `SolveResult` and panics instead.
    pub fn set_interrupt(&mut self, hook: impl FnMut(SatCheckPoint) -> bool + Send + 'static) {
        self.interrupt = Some(InterruptHook(Box::new(hook)));
    }

    /// Removes the interruption callback.
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// Installs an interruption callback for the lifetime of the
    /// returned guard. The guard dereferences to the solver, so governed
    /// code drives its budgeted solves through it; when the guard drops
    /// — on *every* exit path, including early `?` returns and panics —
    /// the hook is removed again and plain [`Solver::solve`] /
    /// [`Solver::solve_with_assumptions`] become safe once more. Every
    /// governed call path should prefer this over a bare
    /// [`Solver::set_interrupt`], which is easy to leave installed.
    pub fn with_interrupt(
        &mut self,
        hook: impl FnMut(SatCheckPoint) -> bool + Send + 'static,
    ) -> InterruptGuard<'_> {
        self.set_interrupt(hook);
        InterruptGuard { solver: self }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of attached clauses (problem + live learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of live learnt clauses.
    pub fn num_learnt(&self) -> usize {
        self.live_learnt
    }

    /// Enables or disables learnt-clause database reduction (on by
    /// default). With reduction off the learnt database grows without
    /// bound, exactly like the pre-LBD solver.
    pub fn set_reduce_db(&mut self, enabled: bool) {
        self.reduce_enabled = enabled;
    }

    /// Sets the reduction schedule: the first reduction fires when
    /// `first` learnt clauses are live, and the threshold grows by `inc`
    /// after each reduction (defaults: 2000 / 300).
    pub fn set_reduce_policy(&mut self, first: usize, inc: usize) {
        self.next_reduce = first;
        self.reduce_inc = inc;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_var();
        self.order.insert(v.0, &self.activity);
        v
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assigns[l.var().index()].map(|b| b ^ l.is_neg())
    }

    /// Model value of `v` after a SAT answer (`None` if unassigned — the
    /// variable was irrelevant).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assigns[v.index()]
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable.
    ///
    /// Duplicate literals are removed and tautological clauses (both `l`
    /// and `¬l` present) are dropped before anything is attached, so a
    /// degenerate input never costs watch-list traversals later.
    ///
    /// # Panics
    ///
    /// Panics if decisions are on the trail, or if a literal mentions an
    /// undeclared variable. A solve that ends `Sat` returns with its model
    /// still on the trail (above decision level 0), so adding a clause
    /// right after a `Sat` verdict panics; `Unsat` and `Unknown` verdicts
    /// backtrack to level 0 before returning.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        assert!(self.trail_lim.is_empty(), "clauses must be added at decision level 0");
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for &l in &lits {
            assert!(l.var().index() < self.num_vars(), "undeclared variable {l}");
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology: after sort+dedup the two phases of a variable are
        // adjacent, so one linear sweep finds `l` next to `¬l`.
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true; // always satisfied, never attach
        }
        // Level-0 simplification against the current assignment.
        let mut simplified = Vec::with_capacity(lits.len());
        for &l in &lits {
            match self.lit_value(l) {
                Some(true) => return true, // already satisfied
                Some(false) => {}          // drop falsified literal
                None => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach(simplified, false, 0);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        let cref = self.clauses.len() as ClauseRef;
        self.watches[(!lits[0]).code()].push(cref);
        self.watches[(!lits[1]).code()].push(cref);
        self.clauses.push(Clause { lits, lbd, activity: 0.0, learnt });
        cref
    }

    fn enqueue(&mut self, l: Lit, from: Option<ClauseRef>) -> bool {
        match self.lit_value(l) {
            Some(b) => b,
            None => {
                let v = l.var().index();
                self.assigns[v] = Some(!l.is_neg());
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = from;
                self.trail.push(l);
                if from.is_some() {
                    self.stats.propagations += 1;
                }
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause if any.
    ///
    /// Maintains the reason invariant downstream analysis relies on: a
    /// propagated clause has its implied literal at position 0.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Clauses watching ¬p must find a new watch or propagate.
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            while i < watchers.len() {
                let cref = watchers[i];
                {
                    let lits = &mut self.clauses[cref as usize].lits;
                    // Normalize: watched literals are lits[0], lits[1];
                    // the falsified one goes to position 1.
                    if lits[0] == !p {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], !p);
                }
                let first = self.clauses[cref as usize].lits[0];
                if self.lit_value(first) == Some(true) {
                    i += 1;
                    continue; // clause satisfied, keep watching
                }
                // Look for a new literal to watch.
                let mut new_watch = None;
                {
                    let lits = &self.clauses[cref as usize].lits;
                    for (k, &l) in lits.iter().enumerate().skip(2) {
                        if self.lit_value(l) != Some(false) {
                            new_watch = Some(k);
                            break;
                        }
                    }
                }
                if let Some(k) = new_watch {
                    let lits = &mut self.clauses[cref as usize].lits;
                    lits.swap(1, k);
                    let w = !lits[1];
                    self.watches[w.code()].push(cref);
                    watchers.swap_remove(i);
                    continue; // do not advance i: swapped a new element in
                }
                // No new watch: clause is unit or conflicting.
                if !self.enqueue(first, Some(cref)) {
                    // Conflict: restore remaining watchers and bail.
                    self.watches[p.code()].append(&mut watchers);
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                i += 1;
            }
            // Non-removed watchers keep watching ¬p.
            let existing = std::mem::take(&mut self.watches[p.code()]);
            watchers.extend(existing);
            self.watches[p.code()] = watchers;
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for &l in &self.trail[lim..] {
            let v = l.var().index();
            // Phase saving: remember the assignment being undone so the
            // next decision on this variable retries it.
            self.polarity[v] = self.assigns[v].expect("trail literals are assigned");
            self.assigns[v] = None;
            self.reason[v] = None;
            self.order.insert(l.var().0, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            // Rescaling multiplies every score by the same constant, so
            // the relative order — and hence the heap — is unaffected.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v.0, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.clauses[cref as usize].learnt {
            return;
        }
        self.clauses[cref as usize].activity += self.cla_inc;
        if self.clauses[cref as usize].activity > 1e20 {
            for c in self.clauses.iter_mut().filter(|c| c.learnt) {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Glue of a clause: distinct decision levels among its literals.
    fn lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> =
            lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// First-UIP conflict analysis: returns the learnt clause (asserting
    /// literal first, recursively minimized), the backjump level, and the
    /// clause's glue (LBD).
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        debug_assert!(self.to_clear.is_empty());
        loop {
            self.bump_clause(cref);
            // Reason clauses carry their implied literal (= the resolved
            // pivot `p`) at position 0; skip it.
            let skip = usize::from(p.is_some());
            debug_assert!(p.is_none() || self.clauses[cref as usize].lits[0] == p.unwrap());
            for k in skip..self.clauses[cref as usize].lits.len() {
                let q = self.clauses[cref as usize].lits[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.to_clear.push(q);
                    self.bump(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next trail literal at the current level to resolve.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            cref = self.reason[lit.var().index()].expect("non-decision has a reason");
            p = Some(lit);
        }

        // Recursive minimization (MiniSat's `litRedundant`): drop every
        // literal whose falsification is already implied by the rest of
        // the clause through the reason graph. `seen` is still set for
        // the kept literals, which is exactly the mark the check needs.
        let mut abstract_levels = 0u64;
        for &l in &learnt[1..] {
            abstract_levels |= 1u64 << (self.level[l.var().index()] & 63);
        }
        let mut kept = 1usize;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let redundant = self.reason[l.var().index()].is_some()
                && self.lit_redundant(l, abstract_levels);
            if !redundant {
                learnt[kept] = l;
                kept += 1;
            }
        }
        self.stats.minimized_literals += (learnt.len() - kept) as u64;
        learnt.truncate(kept);

        let lbd = self.lbd(&learnt);
        // Backjump level = highest level among the non-UIP literals.
        let mut bt = 0u32;
        let mut second = 1usize;
        for (i, &l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > bt {
                bt = lv;
                second = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, second);
        }
        for l in self.to_clear.drain(..) {
            self.seen[l.var().index()] = false;
        }
        (learnt, bt, lbd)
    }

    /// Is `p` implied by the other literals of the clause being learnt?
    /// Walks `p`'s reason graph; every antecedent must itself be seen (a
    /// clause literal or already proven redundant) or recursively
    /// redundant, and must stay within the decision levels of the clause
    /// (`abstract_levels` — a cheap 64-bit level-set approximation).
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u64) -> bool {
        let mut stack = vec![p];
        let top = self.to_clear.len();
        while let Some(q) = stack.pop() {
            let cref = self.reason[q.var().index()].expect("only propagated literals");
            for k in 1..self.clauses[cref as usize].lits.len() {
                let l = self.clauses[cref as usize].lits[k];
                let v = l.var().index();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v].is_some()
                    && (1u64 << (self.level[v] & 63)) & abstract_levels != 0
                {
                    // Plausibly redundant too: recurse, and mark so a
                    // second visit is free.
                    self.seen[v] = true;
                    self.to_clear.push(l);
                    stack.push(l);
                } else {
                    // A decision or an out-of-clause level: not redundant.
                    // Unwind the marks this check added.
                    for &x in &self.to_clear[top..] {
                        self.seen[x.var().index()] = false;
                    }
                    self.to_clear.truncate(top);
                    return false;
                }
            }
        }
        true
    }

    /// Collects the assumption literals underlying the falsification of
    /// `lit` (MiniSat's `analyzeFinal`): walks the reason graph down to
    /// decision literals, which during assumption handling are exactly
    /// the assumptions.
    fn analyze_final(&mut self, lit: Lit, assumptions: &[Lit]) -> Vec<Lit> {
        let mut core = Vec::new();
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[lit.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let t = self.trail[i];
            let v = t.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                None => {
                    // A decision — under assumption handling, an assumption.
                    if let Some(&a) = assumptions.iter().find(|&&a| a.var() == v) {
                        core.push(a);
                    }
                }
                Some(cref) => {
                    let lits = self.clauses[cref as usize].lits.clone();
                    for q in lits {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[lit.var().index()] = false;
        for s in &mut self.seen {
            *s = false;
        }
        core
    }

    /// Next branching decision: the unassigned variable with the highest
    /// VSIDS activity, popped off the order heap in O(log n). Variables
    /// that were assigned by propagation since their insertion are
    /// discarded lazily; [`Solver::backtrack_to`] reinserts everything it
    /// unassigns, so every unassigned variable is always in the heap.
    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v as usize].is_none() {
                return Some(Lit::with_phase(Var(v), self.polarity[v as usize]));
            }
        }
        None
    }

    /// Is this clause the reason of its first literal's assignment?
    /// Locked clauses must survive database reduction.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.clauses[cref as usize].lits[0];
        self.lit_value(first) == Some(true)
            && self.reason[first.var().index()] == Some(cref)
    }

    /// Deletes the less useful half of the deletable learnt clauses and
    /// compacts the clause arena.
    ///
    /// Protected from deletion: problem clauses, binary clauses, glue
    /// clauses (`lbd <= GLUE_LBD`), and locked clauses (currently the
    /// reason of an assignment). The rest are ranked worst-first by
    /// (higher LBD, lower activity) and the worst half is dropped.
    /// Compaction rebuilds the watch lists from the surviving clauses'
    /// first two literals — exactly the positions `propagate` maintains —
    /// and remaps the `reason` table, so it is safe at any decision level.
    fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        let mut deletable: Vec<ClauseRef> = (0..self.clauses.len() as ClauseRef)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && c.lbd > GLUE_LBD && c.lits.len() > 2 && !self.is_locked(i)
            })
            .collect();
        deletable.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            cb.lbd.cmp(&ca.lbd).then(ca.activity.total_cmp(&cb.activity))
        });
        let mut delete = vec![false; self.clauses.len()];
        for &c in &deletable[..deletable.len() / 2] {
            delete[c as usize] = true;
        }
        let mut remap: Vec<ClauseRef> = vec![ClauseRef::MAX; self.clauses.len()];
        let old = std::mem::take(&mut self.clauses);
        for (i, c) in old.into_iter().enumerate() {
            if delete[i] {
                self.stats.deleted_clauses += 1;
                self.live_learnt -= 1;
            } else {
                remap[i] = self.clauses.len() as ClauseRef;
                self.clauses.push(c);
            }
        }
        for w in &mut self.watches {
            w.clear();
        }
        for i in 0..self.clauses.len() {
            let (w0, w1) = {
                let lits = &self.clauses[i].lits;
                (!lits[0], !lits[1])
            };
            self.watches[w0.code()].push(i as ClauseRef);
            self.watches[w1.code()].push(i as ClauseRef);
        }
        for r in self.reason.iter_mut().flatten() {
            debug_assert_ne!(remap[*r as usize], ClauseRef::MAX, "reason clause deleted");
            *r = remap[*r as usize];
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions are enqueued like decisions, so the solver backtracks
    /// to level 0 afterwards and **every clause learnt during the call
    /// persists into the next one** — learnt clauses are implied by the
    /// problem clauses alone, never by the assumptions. Incremental
    /// users (the netlist SAT sweep, the bounded equivalence checker)
    /// rely on this: successive queries over one solver get
    /// monotonically cheaper as the learnt database warms up. Compare
    /// [`Solver::num_learnt`] across calls, or snapshot
    /// [`Solver::stats`] and use [`SolverStats::delta_since`] for
    /// per-call effort.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        match self.search(assumptions, None) {
            BudgetedSolveResult::Sat => SolveResult::Sat,
            BudgetedSolveResult::Unsat { core } => SolveResult::Unsat { core },
            BudgetedSolveResult::Unknown => {
                // Reachable only when an interrupt hook fired mid-search;
                // a complete solve has no honest verdict to give then.
                panic!("unbudgeted solve interrupted: use solve_budgeted* with an interrupt hook")
            }
        }
    }

    /// Solves with at most `max_conflicts` conflicts; returns
    /// [`BudgetedSolveResult::Unknown`] if the budget runs out first.
    /// The solver stays usable after an `Unknown` — clauses learnt
    /// during the bounded run are kept for the next attempt.
    pub fn solve_budgeted(&mut self, max_conflicts: u64) -> BudgetedSolveResult {
        self.search(&[], Some(max_conflicts))
    }

    /// Budgeted solving under assumption literals; see
    /// [`Solver::solve_budgeted`].
    pub fn solve_budgeted_with_assumptions(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> BudgetedSolveResult {
        self.search(assumptions, Some(max_conflicts))
    }

    /// [`Solver::solve_budgeted`] with the ladder's retry rung: an
    /// `Unknown` gets exactly one more attempt at *half* the conflict
    /// budget. The clause database is warm from the first attempt —
    /// everything learnt is kept — so the cheaper retry regularly
    /// finishes problems the cold run could not; `stats.retries` counts
    /// the retries taken.
    pub fn solve_budgeted_with_retry(&mut self, max_conflicts: u64) -> BudgetedSolveResult {
        self.solve_budgeted_with_assumptions_retry(&[], max_conflicts)
    }

    /// Assumption-literal variant of [`Solver::solve_budgeted_with_retry`].
    pub fn solve_budgeted_with_assumptions_retry(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> BudgetedSolveResult {
        match self.solve_budgeted_with_assumptions(assumptions, max_conflicts) {
            BudgetedSolveResult::Unknown => {
                self.stats.retries += 1;
                self.solve_budgeted_with_assumptions(assumptions, (max_conflicts / 2).max(1))
            }
            verdict => verdict,
        }
    }

    /// Consults the interrupt hook (if any) at a safe point.
    fn interrupt_fired(&mut self, point: SatCheckPoint) -> bool {
        match self.interrupt.as_mut() {
            Some(hook) => (hook.0)(point),
            None => false,
        }
    }

    fn search(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
    ) -> BudgetedSolveResult {
        self.backtrack_to(0);
        if !self.ok {
            return BudgetedSolveResult::Unsat { core: Vec::new() };
        }
        if let Some(_c) = self.propagate() {
            self.ok = false;
            return BudgetedSolveResult::Unsat { core: Vec::new() };
        }
        // Enqueue assumptions, each on its own decision level.
        for &a in assumptions {
            match self.lit_value(a) {
                Some(true) => {
                    self.new_decision_level();
                }
                Some(false) => {
                    let core = self.analyze_final(!a, assumptions);
                    let mut core = core;
                    core.push(a);
                    core.sort_unstable();
                    core.dedup();
                    self.backtrack_to(0);
                    return BudgetedSolveResult::Unsat { core };
                }
                None => {
                    self.new_decision_level();
                    self.enqueue(a, None);
                    if let Some(conflict) = self.propagate() {
                        // Conflict directly under assumptions.
                        let lits = self.clauses[conflict as usize].lits.clone();
                        let mut core = Vec::new();
                        for l in lits {
                            core.extend(self.analyze_final(!l, assumptions));
                        }
                        for &x in assumptions {
                            if x.var() == a.var() {
                                core.push(x);
                            }
                        }
                        core.sort_unstable();
                        core.dedup();
                        self.backtrack_to(0);
                        return BudgetedSolveResult::Unsat { core };
                    }
                }
            }
        }
        let assumption_level = self.decision_level();

        // Main CDCL loop with Luby restarts.
        let mut restart_num = 0u64;
        let mut restart_limit = (luby(2.0, 0) * RESTART_BASE as f64) as u64;
        let mut conflicts_since_restart = 0u64;
        let mut remaining = max_conflicts;
        loop {
            if self.interrupt_fired(SatCheckPoint::Propagate) {
                self.backtrack_to(0);
                return BudgetedSolveResult::Unknown;
            }
            if let Some(conflict) = self.propagate() {
                if self.decision_level() <= assumption_level {
                    // Refuted under the assumptions — the verdict is
                    // complete, so it is never charged to the budget.
                    self.stats.conflicts += 1;
                    let lits = self.clauses[conflict as usize].lits.clone();
                    let mut core = Vec::new();
                    for l in lits {
                        core.extend(self.analyze_final(!l, assumptions));
                    }
                    core.sort_unstable();
                    core.dedup();
                    self.backtrack_to(0);
                    if assumptions.is_empty() {
                        self.ok = false;
                    }
                    return BudgetedSolveResult::Unsat { core };
                }
                if let Some(r) = remaining.as_mut() {
                    if *r == 0 {
                        // Budget spent: no verdict. Keep learnt clauses,
                        // drop decisions, stay reusable. The budget check
                        // precedes the conflict count, so `solve_budgeted(n)`
                        // admits exactly `n` analyzed conflicts.
                        self.backtrack_to(0);
                        return BudgetedSolveResult::Unknown;
                    }
                    *r -= 1;
                }
                self.stats.conflicts += 1;
                let (learnt, bt_level, lbd) = self.analyze(conflict);
                let bt = bt_level.max(assumption_level);
                self.backtrack_to(bt);
                let assert_lit = learnt[0];
                self.stats.learnt_clauses += 1;
                self.stats.max_lbd = self.stats.max_lbd.max(lbd);
                if learnt.len() >= 2 {
                    let cref = self.attach(learnt, true, lbd);
                    self.live_learnt += 1;
                    self.stats.max_live_learnt =
                        self.stats.max_live_learnt.max(self.live_learnt as u64);
                    self.enqueue(assert_lit, Some(cref));
                } else {
                    self.enqueue(assert_lit, None);
                }
                self.var_inc *= 1.0 / 0.95; // VSIDS decay
                self.cla_inc *= 1.0 / 0.999; // clause-activity decay
                if self.reduce_enabled && self.live_learnt >= self.next_reduce {
                    if self.interrupt_fired(SatCheckPoint::ReduceDb) {
                        self.backtrack_to(0);
                        return BudgetedSolveResult::Unknown;
                    }
                    self.reduce_db();
                    self.next_reduce += self.reduce_inc;
                }
                conflicts_since_restart += 1;
                if conflicts_since_restart >= restart_limit {
                    // Restart: keep learnt clauses, drop decisions. Phases
                    // are saved at backtrack, so search resumes in the
                    // same region of the space.
                    self.stats.restarts += 1;
                    restart_num += 1;
                    restart_limit = (luby(2.0, restart_num) * RESTART_BASE as f64) as u64;
                    conflicts_since_restart = 0;
                    self.backtrack_to(assumption_level);
                }
            } else {
                match self.pick_branch() {
                    None => return BudgetedSolveResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …) scaled by `y^k`:
/// `luby(2, i)` is the i-th restart length in units of [`RESTART_BASE`].
fn luby(y: f64, mut x: u64) -> f64 {
    let mut size = 1u64;
    let mut seq = 0i32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    y.powi(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(spec: &[i32], vars: &[Var]) -> Vec<Lit> {
        spec.iter()
            .map(|&i| {
                let v = vars[(i.unsigned_abs() - 1) as usize];
                if i > 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect()
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(lits(&[1], &vars));
        s.add_clause(lits(&[-1, 2], &vars));
        s.add_clause(lits(&[-2, 3], &vars));
        s.add_clause(lits(&[-3, 4], &vars));
        assert!(s.solve().is_sat());
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v)]);
        assert!(!s.add_clause([Lit::neg(v)]));
        assert!(!s.solve().is_sat());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i,j index a 2-D pigeon/hole grid
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j. Each pigeon somewhere; no two
        // pigeons share a hole.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> =
            (0..3).map(|_| (0..2).map(|_| s.new_var()).collect()).collect();
        for row in &p {
            s.add_clause([Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn learnt_clauses_persist_across_assumption_solves() {
        // A pigeonhole core (4 pigeons, 3 holes) reachable only under an
        // enabling assumption: the formula itself stays satisfiable, so
        // everything learnt while refuting the assumption is implied by
        // the problem clauses and must survive into later calls.
        let mut s = Solver::new();
        let en = s.new_var();
        let p: Vec<Vec<Var>> =
            (0..4).map(|_| (0..3).map(|_| s.new_var()).collect()).collect();
        for row in &p {
            let mut c = vec![Lit::neg(en)];
            c.extend(row.iter().map(|&v| Lit::pos(v)));
            s.add_clause(c);
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in p.iter().skip(i1 + 1) {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause([Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
        let before_first = s.stats;
        assert!(matches!(
            s.solve_with_assumptions(&[Lit::pos(en)]),
            SolveResult::Unsat { .. }
        ));
        let first = s.stats.delta_since(&before_first);
        assert!(first.conflicts > 0, "refutation must take real work: {first:?}");
        assert!(
            s.num_learnt() > 0,
            "learnt clauses must persist after backtracking to level 0"
        );
        let learnt_after_first = s.num_learnt();

        // Same query on the warm database: the persisted clauses prune
        // the search, so the per-call delta shrinks strictly.
        let before_second = s.stats;
        assert!(matches!(
            s.solve_with_assumptions(&[Lit::pos(en)]),
            SolveResult::Unsat { .. }
        ));
        let second = s.stats.delta_since(&before_second);
        assert!(
            second.conflicts < first.conflicts,
            "warm re-solve must be cheaper: {} vs {} conflicts",
            second.conflicts,
            first.conflicts
        );
        assert!(
            s.num_learnt() >= learnt_after_first,
            "the warm database is never discarded between calls"
        );

        // The assumption was never added as a clause: without it the
        // formula is satisfiable, learnt clauses and all.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn stats_delta_since_subtracts_counters_and_keeps_high_water_marks() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(lits(&[1, 2], &vars));
        s.add_clause(lits(&[-1, -2], &vars));
        s.add_clause(lits(&[2, 3], &vars));
        let baseline = s.stats;
        assert!(s.solve().is_sat());
        let delta = s.stats.delta_since(&baseline);
        assert_eq!(delta.conflicts, s.stats.conflicts - baseline.conflicts);
        assert_eq!(delta.max_lbd, s.stats.max_lbd, "marks carry, not subtract");
        let zero = s.stats.delta_since(&s.stats.clone());
        assert_eq!(zero.conflicts, 0);
        assert_eq!(zero.propagations, 0);
    }

    #[test]
    fn xor_chain_sat_with_model() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 = 1 → x2 = 0, x3 = 1.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        // x1 ⊕ x2: (x1∨x2)(¬x1∨¬x2)
        s.add_clause(lits(&[1, 2], &vars));
        s.add_clause(lits(&[-1, -2], &vars));
        s.add_clause(lits(&[2, 3], &vars));
        s.add_clause(lits(&[-2, -3], &vars));
        s.add_clause(lits(&[1], &vars));
        assert!(s.solve().is_sat());
        assert_eq!(s.value(vars[0]), Some(true));
        assert_eq!(s.value(vars[1]), Some(false));
        assert_eq!(s.value(vars[2]), Some(true));
    }

    #[test]
    fn assumptions_and_core() {
        // (a ∨ b), (¬a ∨ c), (¬b ∨ c): assuming ¬c forces ¬a, ¬b → conflict.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        s.add_clause([Lit::neg(a), Lit::pos(c)]);
        s.add_clause([Lit::neg(b), Lit::pos(c)]);
        // Satisfiable outright.
        assert!(s.solve().is_sat());
        // Unsat under ¬c, and the core mentions ¬c.
        match s.solve_with_assumptions(&[Lit::neg(c)]) {
            SolveResult::Unsat { core } => {
                assert!(core.contains(&Lit::neg(c)), "core {core:?}");
            }
            SolveResult::Sat => panic!("must be unsat under ¬c"),
        }
        // Solver remains usable and satisfiable afterwards.
        assert!(s.solve().is_sat());
        assert!(s.solve_with_assumptions(&[Lit::pos(c)]).is_sat());
    }

    #[test]
    fn core_is_subset_of_assumptions() {
        // Independent constraint islands: only the island actually
        // falsified shows in the core.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        s.add_clause([Lit::pos(x)]);
        match s.solve_with_assumptions(&[Lit::pos(y), Lit::neg(x), Lit::pos(z)]) {
            SolveResult::Unsat { core } => {
                assert!(core.contains(&Lit::neg(x)));
                assert!(!core.contains(&Lit::pos(y)), "y is irrelevant: {core:?}");
                assert!(!core.contains(&Lit::pos(z)), "z is irrelevant: {core:?}");
            }
            SolveResult::Sat => panic!("must be unsat"),
        }
    }

    #[test]
    fn tautologies_ignored() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([Lit::pos(v), Lit::neg(v)]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn tautologies_and_duplicates_never_attach() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let before = s.num_clauses();
        // Tautology hidden between other literals: must not attach.
        assert!(s.add_clause([Lit::pos(a), Lit::pos(b), Lit::neg(a), Lit::pos(c)]));
        assert_eq!(s.num_clauses(), before, "tautology was attached");
        // Duplicates collapse: (b ∨ b ∨ c) attaches as the 2-literal
        // clause, whose watches cover every literal.
        assert!(s.add_clause([Lit::pos(b), Lit::pos(b), Lit::pos(c)]));
        assert_eq!(s.num_clauses(), before + 1);
        // Degenerate duplicate unit: (c ∨ c) must behave as the unit c.
        assert!(s.add_clause([Lit::pos(c), Lit::pos(c)]));
        assert_eq!(s.value(c), Some(true), "duplicate unit must propagate");
        assert!(s.solve().is_sat());
    }

    /// Pigeonhole instance `n+1` pigeons into `n` holes — unsatisfiable
    /// and exponentially hard for resolution, so a small conflict
    /// budget is guaranteed to run out on a large enough `n`.
    #[allow(clippy::needless_range_loop)] // i,j index a 2-D pigeon/hole grid
    fn pigeonhole(n: usize) -> Solver {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> =
            (0..n + 1).map(|_| (0..n).map(|_| s.new_var()).collect()).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in p.iter().skip(i1 + 1) {
                for (&v1, &v2) in row1.iter().zip(row2.iter()) {
                    s.add_clause([Lit::neg(v1), Lit::neg(v2)]);
                }
            }
        }
        s
    }

    #[test]
    fn budgeted_solve_returns_unknown_then_finishes() {
        let mut s = pigeonhole(7);
        let before = s.stats.conflicts;
        assert!(s.solve_budgeted(10).is_unknown());
        assert!(s.stats.conflicts > before, "the bounded run did search");
        // The solver is still usable: the unlimited run finishes the job.
        assert!(!s.solve().is_sat());
        // And a budgeted run on an already-refuted formula is immediate.
        assert_eq!(s.solve_budgeted(0), BudgetedSolveResult::Unsat { core: Vec::new() });
    }

    #[test]
    fn conflict_budget_admits_exactly_n_conflicts() {
        // Regression for the historical off-by-one where `solve_budgeted(n)`
        // analyzed n+1 conflicts and over-reported by one.
        let mut s = pigeonhole(7);
        assert!(s.solve_budgeted(10).is_unknown());
        assert_eq!(s.stats.conflicts, 10, "budget must admit exactly n conflicts");
        // The next bounded attempt resumes cleanly and stays exact.
        assert!(s.solve_budgeted(7).is_unknown());
        assert_eq!(s.stats.conflicts, 17);
    }

    #[test]
    fn decisions_are_not_counted_as_propagations() {
        // Regression: a formula whose solve makes decisions but can never
        // propagate (no clauses relate the variables).
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause([Lit::pos(vars[0]), Lit::pos(vars[1])]);
        s.add_clause([Lit::pos(vars[2]), Lit::pos(vars[3])]);
        assert!(s.solve().is_sat());
        assert!(
            s.stats.propagations <= 2,
            "at most one propagation per clause is possible, got {}",
            s.stats.propagations
        );
        assert!(s.stats.decisions >= 2, "two islands need two decisions");
    }

    #[test]
    fn budgeted_solve_agrees_on_easy_instances() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(lits(&[1, 2], &vars));
        s.add_clause(lits(&[-1, 3], &vars));
        assert!(s.solve_budgeted(1_000).is_sat());
    }

    #[test]
    fn budgeted_assumptions_keep_core_contract() {
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause([Lit::pos(x)]);
        match s.solve_budgeted_with_assumptions(&[Lit::neg(x), Lit::pos(y)], 1_000) {
            BudgetedSolveResult::Unsat { core } => {
                assert!(core.contains(&Lit::neg(x)));
                assert!(!core.contains(&Lit::pos(y)));
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn reduce_db_bounds_live_learnt_clauses() {
        // A hard instance learns thousands of clauses; with a tight
        // reduction schedule the *live* database must stay bounded while
        // the verdict stays correct.
        let mut unbounded = pigeonhole(7);
        unbounded.set_reduce_db(false);
        assert!(!unbounded.solve().is_sat());

        let mut bounded = pigeonhole(7);
        bounded.set_reduce_policy(150, 0);
        assert!(!bounded.solve().is_sat());

        assert!(bounded.stats.deleted_clauses > 0, "reduction never fired");
        assert!(bounded.stats.db_reductions > 0);
        // Without reduction the whole learnt history stays live; with a
        // pinned threshold (inc = 0) the live set must stay a small
        // fraction of that. The cap has headroom for protected clauses
        // (glue ≤ 2, binary, locked), which reduction never deletes.
        assert!(
            unbounded.stats.max_live_learnt > 1_000,
            "php(7) should learn thousands of clauses: {}",
            unbounded.stats.max_live_learnt
        );
        assert!(
            bounded.stats.max_live_learnt <= 400,
            "live learnt DB exceeded the cap: {} (unbounded peak {})",
            bounded.stats.max_live_learnt,
            unbounded.stats.max_live_learnt
        );
        assert!(bounded.num_learnt() <= 400);
    }

    #[test]
    fn budgeted_solve_stays_reusable_across_db_reductions() {
        // PR-1 contract: `solve_budgeted` remains usable after `Unknown`,
        // including when reductions rewrote the clause arena mid-search.
        let mut s = pigeonhole(7);
        s.set_reduce_policy(100, 50);
        let mut attempts = 0;
        loop {
            attempts += 1;
            match s.solve_budgeted(1_000) {
                BudgetedSolveResult::Unsat { .. } => break,
                BudgetedSolveResult::Unknown => assert!(attempts < 100),
                BudgetedSolveResult::Sat => panic!("pigeonhole is unsat"),
            }
        }
        assert!(s.stats.db_reductions > 0, "reductions should have fired");
        assert!(attempts > 1, "php(7) must exceed a 1000-conflict budget");
    }

    #[test]
    fn learnt_clause_minimization_shrinks_clauses() {
        let mut s = pigeonhole(6);
        assert!(!s.solve().is_sat());
        assert!(
            s.stats.minimized_literals > 0,
            "recursive minimization never removed a literal"
        );
        assert!(s.stats.max_lbd >= 2);
    }

    #[test]
    fn incremental_solving_survives_reduction_and_restarts() {
        // Pigeonhole relaxed by a literal `r` added to every
        // pigeon-placement clause: under ¬r the instance is the hard
        // php(7) refutation (forcing restarts + reductions); under r it
        // is trivially satisfiable. The same solver must answer both.
        let n = 7usize;
        let mut s = Solver::new();
        let r = s.new_var();
        let p: Vec<Vec<Var>> =
            (0..n + 1).map(|_| (0..n).map(|_| s.new_var()).collect()).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)).chain([Lit::pos(r)]));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in p.iter().skip(i1 + 1) {
                for (&v1, &v2) in row1.iter().zip(row2.iter()) {
                    s.add_clause([Lit::neg(v1), Lit::neg(v2)]);
                }
            }
        }
        s.set_reduce_policy(100, 50);
        match s.solve_with_assumptions(&[Lit::neg(r)]) {
            SolveResult::Unsat { core } => {
                assert_eq!(core, vec![Lit::neg(r)], "refutation hinges on ¬r");
            }
            SolveResult::Sat => panic!("php(7) under ¬r must be unsat"),
        }
        assert!(s.stats.restarts > 0, "php(7) needs more than one restart unit");
        assert!(s.stats.db_reductions > 0, "reductions should have fired");
        // Same solver, opposite assumption: trivially satisfiable.
        assert!(s.solve_with_assumptions(&[Lit::pos(r)]).is_sat());
        assert_eq!(s.value(r), Some(true));
        // And unconstrained: still satisfiable (r is free).
        assert!(s.solve().is_sat());
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(|i| luby(2.0, i) as u64).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn interrupt_hook_bails_out_and_solver_stays_usable() {
        let mut s = pigeonhole(7);
        // Fire on the 5th propagate checkpoint.
        let mut crossings = 0u64;
        s.set_interrupt(move |point| {
            if point == SatCheckPoint::Propagate {
                crossings += 1;
                crossings == 5
            } else {
                false
            }
        });
        assert!(s.solve_budgeted(u64::MAX).is_unknown());
        // Hook removed: the same solver finishes the job, reusing
        // whatever it learnt before the interruption.
        s.clear_interrupt();
        assert!(!s.solve_budgeted(u64::MAX).is_unknown());
    }

    #[test]
    fn interrupt_hook_fires_at_reduce_db_checkpoint() {
        let mut s = pigeonhole(7);
        s.set_reduce_policy(50, 25);
        s.set_interrupt(|point| point == SatCheckPoint::ReduceDb);
        assert!(s.solve_budgeted(u64::MAX).is_unknown());
        assert_eq!(s.stats.db_reductions, 0, "the bail-out preempts the reduction");
    }

    #[test]
    fn budgeted_retry_counts_and_runs_warm() {
        let mut s = pigeonhole(6);
        // A 1-conflict budget cannot refute php(6); the retry (at half
        // budget, floored to 1) is also hopeless — but both attempts are
        // counted and the solver survives.
        assert!(s.solve_budgeted_with_retry(1).is_unknown());
        assert_eq!(s.stats.retries, 1);
        // Generous budget: verdict on the first attempt, no new retry.
        assert!(!s.solve_budgeted_with_retry(u64::MAX).is_unknown());
        assert_eq!(s.stats.retries, 1);
    }

    #[test]
    #[should_panic(expected = "unbudgeted solve interrupted")]
    fn unbudgeted_solve_rejects_interruption() {
        let mut s = pigeonhole(5);
        s.set_interrupt(|_| true);
        let _ = s.solve();
    }

    #[test]
    fn stats_absorb_accumulates_retries() {
        let mut a = SolverStats { retries: 2, ..SolverStats::default() };
        let b = SolverStats { retries: 3, ..SolverStats::default() };
        a.absorb(&b);
        assert_eq!(a.retries, 5);
    }

    #[test]
    fn interrupt_guard_clears_hook_after_interrupted_check() {
        // Regression: a governed check installs a hook, gets interrupted,
        // and returns early. Before the RAII guard the hook survived into
        // the next plain `solve()` and tripped the complete-search panic.
        let mut s = pigeonhole(5);
        {
            let mut guarded = s.with_interrupt(|_| true);
            assert!(guarded.solve_budgeted(u64::MAX).is_unknown());
        } // guard drops here, clearing the hook
        assert!(!s.solve().is_sat(), "plain solve after a governed check must not panic");
    }

    #[test]
    fn interrupt_guard_clears_hook_on_early_exit() {
        // The guard must clear the hook even when the governed scope
        // bails before any solve happens (the `?`-return shape).
        fn governed_scope(s: &mut Solver) -> Result<(), ()> {
            let _guarded = s.with_interrupt(|_| true);
            Err(()) // governor tripped before the solve
        }
        let mut s = pigeonhole(4);
        assert!(governed_scope(&mut s).is_err());
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn duplicate_assumptions_are_harmless_and_core_is_deduped() {
        // (x), assume [¬x, ¬x]: the first copy conflicts; the core must
        // name ¬x exactly once. The satisfiable side: assume [y, y] on a
        // free variable must answer Sat with y assigned.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause([Lit::pos(x)]);
        match s.solve_with_assumptions(&[Lit::neg(x), Lit::neg(x)]) {
            SolveResult::Unsat { core } => {
                assert_eq!(core, vec![Lit::neg(x)], "deduplicated, minimal core");
            }
            other => panic!("expected unsat, got {other:?}"),
        }
        assert!(s.solve_with_assumptions(&[Lit::pos(y), Lit::pos(y)]).is_sat());
        assert_eq!(s.value(y), Some(true));
    }

    #[test]
    fn contradictory_assumptions_yield_the_two_literal_core() {
        // Assume [y, ¬y] on a variable the formula does not constrain:
        // the contradiction lives entirely in the assumptions, and the
        // core must be exactly {y, ¬y} — not the whole assumption list.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        s.add_clause([Lit::pos(x), Lit::pos(z)]);
        match s.solve_with_assumptions(&[Lit::pos(z), Lit::pos(y), Lit::neg(y)]) {
            SolveResult::Unsat { core } => {
                let mut want = vec![Lit::pos(y), Lit::neg(y)];
                want.sort_unstable();
                assert_eq!(core, want, "z is irrelevant to the contradiction");
            }
            other => panic!("expected unsat, got {other:?}"),
        }
        // Order must not matter: contradiction first, then the rest.
        match s.solve_with_assumptions(&[Lit::neg(y), Lit::pos(y), Lit::pos(z)]) {
            SolveResult::Unsat { core } => {
                let mut want = vec![Lit::pos(y), Lit::neg(y)];
                want.sort_unstable();
                assert_eq!(core, want);
            }
            other => panic!("expected unsat, got {other:?}"),
        }
        // And the solver is reusable afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn contradiction_through_propagation_keeps_core_relevant() {
        // (¬a ∨ b), assume [a, ¬b, c]: a propagates b, ¬b contradicts.
        // Core = {a, ¬b}; the free assumption c must stay out.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([Lit::neg(a), Lit::pos(b)]);
        match s.solve_with_assumptions(&[Lit::pos(a), Lit::neg(b), Lit::pos(c)]) {
            SolveResult::Unsat { core } => {
                assert!(core.contains(&Lit::pos(a)));
                assert!(core.contains(&Lit::neg(b)));
                assert!(!core.contains(&Lit::pos(c)), "c is not part of the refutation");
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }
}
