//! Checkpoint policies and the budgeted entry points of the recursive
//! `Manager` operations.
//!
//! Every recursive operator — `not`, `and`/`or`/`xor`, `ite`,
//! quantification, `and_exists`, `compose`, `vector_compose`, `restrict`,
//! `constrain` and the `*_many` reductions — has exactly one recursion,
//! generic over a [`Policy`]. The policy is consulted at every
//! *cache-miss* recursion step — the points where new work (and new
//! nodes) can be created — and at each public entry point, where it may
//! hand a large operation to the shared-memory kernel. Two policies
//! exist:
//!
//! - [`Unbounded`], a zero-sized policy whose error type is
//!   [`Infallible`]: it never stops and never dispatches, so the
//!   unbudgeted methods (`Manager::and`, `not`, `exists`, …) compile to
//!   the plain recursion;
//! - [`ResourceGovernor`], which charges one step per cache-miss step,
//!   unwinds with [`ResourceExhausted`] the moment a limit trips, and
//!   dispatches to the concurrent kernel at `shared_workers >= 2`. The
//!   `try_*` methods below run under it.
//!
//! Cache hits and terminal shortcuts are free: an operation whose result
//! still sits in the computed table succeeds even under a zero budget,
//! which is exactly the CUDD `*Limit` contract. The computed table is
//! lossy (direct-mapped, bounded), so "still sits" means "not yet
//! overwritten by a colliding entry" — the most recent top-level result
//! for a key always survives, older ones may have to be recomputed under
//! budget.
//!
//! Both policies share the one recursion and therefore the computed
//! table and its keys, so:
//!
//! - by BDD canonicity, a successful `try_*` returns the *identical*
//!   [`NodeId`] the unbudgeted operation would return, and
//! - work done before an exhaustion is kept — a retry or fallback
//!   starts from the warm cache rather than from scratch.
//!
//! Partial results of an exhausted operation are ordinary nodes and
//! cache entries; they are sound (every cached entry is a fully
//! computed sub-result) and simply become reusable warm-up.

use std::convert::Infallible;

use crate::compose::SubstitutionId;
use crate::governor::{ResourceExhausted, ResourceGovernor};
use crate::manager::Op;
use crate::shared::{self, SharedOp};
use crate::{Manager, NodeId, VarId};

/// What a recursive operator consults while it runs.
pub(crate) trait Policy {
    /// Why an operation stopped early.
    type Error;
    /// Called once per cache-miss recursion step with the manager's
    /// live-node count.
    fn checkpoint(&self, live_nodes: usize) -> Result<(), Self::Error>;
    /// Called once at the entry of a dispatchable operation: `Some`
    /// when the shared kernel computed the result.
    fn dispatch(&self, m: &mut Manager, op: SharedOp) -> Result<Option<NodeId>, Self::Error>;
}

/// The policy of the unbudgeted methods: never stops, never dispatches.
pub(crate) struct Unbounded;

impl Policy for Unbounded {
    type Error = Infallible;

    #[inline(always)]
    fn checkpoint(&self, _live_nodes: usize) -> Result<(), Infallible> {
        Ok(())
    }

    #[inline(always)]
    fn dispatch(&self, _m: &mut Manager, _op: SharedOp) -> Result<Option<NodeId>, Infallible> {
        Ok(None)
    }
}

impl Policy for ResourceGovernor {
    type Error = ResourceExhausted;

    #[inline]
    fn checkpoint(&self, live_nodes: usize) -> Result<(), ResourceExhausted> {
        ResourceGovernor::checkpoint(self, live_nodes)
    }

    /// With [`crate::KernelConfig::shared_workers`] at `2+`, large calls
    /// run on the work-stealing concurrent kernel; the result is the
    /// same canonical node either way. Only entry points consult this —
    /// inner recursion never re-probes the size gate at every step.
    #[inline]
    fn dispatch(&self, m: &mut Manager, op: SharedOp) -> Result<Option<NodeId>, ResourceExhausted> {
        if m.kernel_config().shared_workers >= 2 {
            shared::dispatch(m, op, self)
        } else {
            Ok(None)
        }
    }
}

/// The value of an [`Unbounded`] run, whose error type has no values.
#[inline(always)]
pub(crate) fn unbounded<T>(r: Result<T, Infallible>) -> T {
    let Ok(v) = r;
    v
}

impl Manager {
    /// One dispatchable operation under `p`: the shared kernel if the
    /// policy hands it there, the sequential recursion otherwise.
    #[inline]
    pub(crate) fn apply<P: Policy>(&mut self, op: SharedOp, p: &P) -> Result<NodeId, P::Error> {
        if let Some(r) = p.dispatch(self, op)? {
            return Ok(r);
        }
        match op {
            SharedOp::Not(f) => self.not_rec(f, p),
            SharedOp::And(f, g) => self.and_rec(f, g, p),
            SharedOp::Or(f, g) => self.or_rec(f, g, p),
            SharedOp::Xor(f, g) => self.xor_rec(f, g, p),
            SharedOp::Ite(f, g, h) => self.ite_rec(f, g, h, p),
            SharedOp::Exists(f, cube) => self.quant_rec(f, cube, Op::Exists, p),
            SharedOp::Forall(f, cube) => self.quant_rec(f, cube, Op::Forall, p),
            SharedOp::AndExists(f, g, cube) => self.and_exists_rec(f, g, cube, p),
        }
    }

    /// Budgeted [`Manager::not`].
    pub fn try_not(
        &mut self,
        f: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.apply(SharedOp::Not(f), gov)
    }

    /// Budgeted [`Manager::and`]. With [`crate::KernelConfig::shared_workers`]
    /// at `2+`, large calls run on the work-stealing concurrent kernel;
    /// the result is the same canonical node either way.
    pub fn try_and(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.apply(SharedOp::And(f, g), gov)
    }

    /// Budgeted [`Manager::or`]; concurrent at `shared_workers >= 2`
    /// like [`Manager::try_and`].
    pub fn try_or(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.apply(SharedOp::Or(f, g), gov)
    }

    /// Budgeted [`Manager::xor`]; concurrent at `shared_workers >= 2`
    /// like [`Manager::try_and`].
    pub fn try_xor(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.apply(SharedOp::Xor(f, g), gov)
    }

    /// Budgeted [`Manager::ite`]; concurrent at `shared_workers >= 2`
    /// like [`Manager::try_and`].
    pub fn try_ite(
        &mut self,
        f: NodeId,
        g: NodeId,
        h: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.apply(SharedOp::Ite(f, g, h), gov)
    }

    /// Budgeted [`Manager::xnor`].
    pub fn try_xnor(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let x = self.try_xor(f, g, gov)?;
        self.try_not(x, gov)
    }

    /// Budgeted [`Manager::implies`].
    pub fn try_implies(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let nf = self.try_not(f, gov)?;
        self.try_or(nf, g, gov)
    }

    /// Budgeted [`Manager::diff`].
    pub fn try_diff(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let ng = self.try_not(g, gov)?;
        self.try_and(f, ng, gov)
    }

    /// Budgeted [`Manager::leq`].
    pub fn try_leq(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<bool, ResourceExhausted> {
        Ok(self.try_diff(f, g, gov)?.is_false())
    }

    /// Budgeted [`Manager::and_many`].
    pub fn try_and_many<I: IntoIterator<Item = NodeId>>(
        &mut self,
        fs: I,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.reduce_many(fs.into_iter().collect(), SharedOp::And, NodeId::TRUE, gov)
    }

    /// Budgeted [`Manager::or_many`].
    pub fn try_or_many<I: IntoIterator<Item = NodeId>>(
        &mut self,
        fs: I,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.reduce_many(fs.into_iter().collect(), SharedOp::Or, NodeId::FALSE, gov)
    }

    /// Budgeted [`Manager::xor_many`].
    pub fn try_xor_many<I: IntoIterator<Item = NodeId>>(
        &mut self,
        fs: I,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.reduce_many(fs.into_iter().collect(), SharedOp::Xor, NodeId::FALSE, gov)
    }

    /// Budgeted [`Manager::exists`].
    pub fn try_exists(
        &mut self,
        f: NodeId,
        vars: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let cube = self.cube(vars);
        self.try_exists_cube(f, cube, gov)
    }

    /// Budgeted [`Manager::forall`].
    pub fn try_forall(
        &mut self,
        f: NodeId,
        vars: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let cube = self.cube(vars);
        self.try_forall_cube(f, cube, gov)
    }

    /// Budgeted [`Manager::exists_cube`]; concurrent at
    /// `shared_workers >= 2` like [`Manager::try_and`].
    pub fn try_exists_cube(
        &mut self,
        f: NodeId,
        cube: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.apply(SharedOp::Exists(f, cube), gov)
    }

    /// Budgeted [`Manager::forall_cube`]; concurrent at
    /// `shared_workers >= 2` like [`Manager::try_and`].
    pub fn try_forall_cube(
        &mut self,
        f: NodeId,
        cube: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.apply(SharedOp::Forall(f, cube), gov)
    }

    /// Budgeted [`Manager::and_exists`] — the relational product at the
    /// heart of image computation, where mid-operation blow-up is most
    /// dangerous. Concurrent at `shared_workers >= 2` like
    /// [`Manager::try_and`].
    pub fn try_and_exists(
        &mut self,
        f: NodeId,
        g: NodeId,
        cube: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.apply(SharedOp::AndExists(f, g, cube), gov)
    }

    /// Budgeted [`Manager::compose`].
    pub fn try_compose(
        &mut self,
        f: NodeId,
        v: VarId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.compose_rec(f, v, g, gov)
    }

    /// Budgeted [`Manager::cofactor`].
    pub fn try_cofactor(
        &mut self,
        f: NodeId,
        v: VarId,
        value: bool,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let constant = if value { NodeId::TRUE } else { NodeId::FALSE };
        self.try_compose(f, v, constant, gov)
    }

    /// Budgeted [`Manager::vector_compose`].
    pub fn try_vector_compose(
        &mut self,
        f: NodeId,
        subst: SubstitutionId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.vector_compose_rec(f, subst, gov)
    }

    /// Budgeted [`Manager::restrict`].
    pub fn try_restrict(
        &mut self,
        f: NodeId,
        care: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.restrict_with(f, care, gov)
    }

    /// Budgeted [`Manager::constrain`].
    pub fn try_constrain(
        &mut self,
        f: NodeId,
        care: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.constrain_with(f, care, gov)
    }

    /// Budgeted [`Manager::rename`].
    pub fn try_rename(
        &mut self,
        f: NodeId,
        pairs: &[(VarId, VarId)],
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let subst: Vec<(VarId, NodeId)> = pairs.iter().map(|&(v, w)| (v, self.var(w))).collect();
        let id = self.register_substitution(&subst);
        self.try_vector_compose(f, id, gov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::ResourceGovernor;

    fn ripple_xor_and(m: &mut Manager, vars: &[NodeId]) -> NodeId {
        let mut f = vars[0];
        for w in vars.windows(2) {
            let t = m.and(w[0], w[1]);
            f = m.xor(f, t);
        }
        f
    }

    #[test]
    fn budgeted_matches_unbudgeted_when_unlimited() {
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let vars = m.new_vars(10);
        let f = ripple_xor_and(&mut m, &vars[..5]);
        let g = ripple_xor_and(&mut m, &vars[5..]);
        let budgeted = m.try_and(f, g, &gov).unwrap();
        assert_eq!(budgeted, m.and(f, g));
        let budgeted = m.try_ite(f, g, vars[0], &gov).unwrap();
        assert_eq!(budgeted, m.ite(f, g, vars[0]));
        let qs = [VarId(0), VarId(3), VarId(7)];
        let budgeted = m.try_exists(f, &qs, &gov).unwrap();
        assert_eq!(budgeted, m.exists(f, &qs));
        let cube = m.cube(&qs);
        let budgeted = m.try_and_exists(f, g, cube, &gov).unwrap();
        assert_eq!(budgeted, m.and_exists(f, g, cube));
    }

    #[test]
    fn zero_budget_fails_on_cache_miss_but_not_on_hit() {
        let starved = ResourceGovernor::unlimited().with_step_limit(0);
        let mut m = Manager::new();
        let vars = m.new_vars(8);
        let f = ripple_xor_and(&mut m, &vars[..4]);
        let g = ripple_xor_and(&mut m, &vars[4..]);
        assert_eq!(m.try_and(f, g, &starved), Err(ResourceExhausted::Steps));
        // Compute unbudgeted, then the warm cache answers for free.
        let expect = m.and(f, g);
        assert_eq!(m.try_and(f, g, &starved), Ok(expect));
    }

    #[test]
    fn partial_work_is_kept_and_retry_completes() {
        let mut m = Manager::new();
        let vars = m.new_vars(12);
        let f = ripple_xor_and(&mut m, &vars[..6]);
        let g = ripple_xor_and(&mut m, &vars[6..]);
        let expect = {
            let mut fresh = Manager::new();
            let vars2 = fresh.new_vars(12);
            let f2 = ripple_xor_and(&mut fresh, &vars2[..6]);
            let g2 = ripple_xor_and(&mut fresh, &vars2[6..]);
            let r = fresh.xor(f2, g2);
            fresh.size(r)
        };
        // Grow the budget until the op completes; every failure leaves
        // only sound cache entries behind.
        let mut budget = 1u64;
        let r = loop {
            let gov = ResourceGovernor::unlimited().with_step_limit(budget);
            match m.try_xor(f, g, &gov) {
                Ok(r) => break r,
                Err(ResourceExhausted::Steps) => budget += 1,
                Err(other) => panic!("unexpected exhaustion: {other}"),
            }
        };
        assert_eq!(m.xor(f, g), r);
        assert_eq!(m.size(r), expect);
    }

    #[test]
    fn node_ceiling_trips_mid_operation() {
        let mut m = Manager::new();
        let vars = m.new_vars(20);
        let f = ripple_xor_and(&mut m, &vars[..10]);
        let g = ripple_xor_and(&mut m, &vars[10..]);
        let ceiling = m.stats().nodes; // already at the ceiling: any growth trips
        let gov = ResourceGovernor::unlimited().with_node_limit(ceiling);
        assert_eq!(m.try_xor(f, g, &gov), Err(ResourceExhausted::Nodes));
    }

    #[test]
    fn restrict_and_constrain_twins_agree() {
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let vars = m.new_vars(8);
        let f = ripple_xor_and(&mut m, &vars[..5]);
        let care = ripple_xor_and(&mut m, &vars[3..]);
        let budgeted = m.try_restrict(f, care, &gov).unwrap();
        assert_eq!(budgeted, m.restrict(f, care));
        let budgeted = m.try_constrain(f, care, &gov).unwrap();
        assert_eq!(budgeted, m.constrain(f, care));
    }

    #[test]
    fn starved_constrain_fails_then_warm_cache_answers() {
        let starved = ResourceGovernor::unlimited().with_step_limit(0);
        let mut m = Manager::new();
        let vars = m.new_vars(8);
        let f = ripple_xor_and(&mut m, &vars[..5]);
        let care = ripple_xor_and(&mut m, &vars[3..]);
        assert_eq!(m.try_constrain(f, care, &starved), Err(ResourceExhausted::Steps));
        let expect = m.constrain(f, care);
        assert_eq!(m.try_constrain(f, care, &starved), Ok(expect));
    }

    #[test]
    fn expired_deadline_observed_within_bounded_expansions() {
        use crate::governor::MAX_DEADLINE_OVERSHOOT_STEPS;
        use std::time::Duration;
        // A deep recursive apply whose deadline has already passed must
        // unwind within the amortization window: the deadline is re-read
        // every DEADLINE_CHECK_PERIOD steps, so no more than
        // MAX_DEADLINE_OVERSHOOT_STEPS cache-miss expansions may happen
        // after expiry. This pins the degradation ladder's worst-case
        // reaction latency for warm-cache-free workloads.
        let mut m = Manager::new();
        let vars = m.new_vars(24);
        let f = ripple_xor_and(&mut m, &vars[..12]);
        let g = ripple_xor_and(&mut m, &vars[12..]);
        let gov = ResourceGovernor::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(m.try_xor(f, g, &gov), Err(ResourceExhausted::Deadline));
        assert!(
            gov.steps_used() <= MAX_DEADLINE_OVERSHOOT_STEPS,
            "deadline observed after {} steps, bound is {}",
            gov.steps_used(),
            MAX_DEADLINE_OVERSHOOT_STEPS
        );
        // Same workload, same governor shape, deep ITE recursion.
        let ite_gov = ResourceGovernor::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(m.try_ite(f, g, vars[0], &ite_gov), Err(ResourceExhausted::Deadline));
        assert!(ite_gov.steps_used() <= MAX_DEADLINE_OVERSHOOT_STEPS);
    }

    #[test]
    fn pre_raised_cancel_trips_on_the_first_checkpoint() {
        let mut m = Manager::new();
        let vars = m.new_vars(24);
        let f = ripple_xor_and(&mut m, &vars[..12]);
        let g = ripple_xor_and(&mut m, &vars[12..]);
        let gov = ResourceGovernor::unlimited();
        gov.cancel_handle().cancel();
        let before = m.live_node_count();
        assert_eq!(m.try_xor(f, g, &gov), Err(ResourceExhausted::Cancelled));
        // Cancellation is checked before any charge or expansion: the
        // very first cache-miss checkpoint unwinds with zero new work.
        assert_eq!(gov.steps_used(), 0, "cancel must precede step charging");
        assert_eq!(m.live_node_count(), before, "no nodes created after cancel");
    }

    #[test]
    fn compose_and_rename_twins_agree() {
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let vars = m.new_vars(8);
        let f = ripple_xor_and(&mut m, &vars[..4]);
        let g = m.or(vars[5], vars[6]);
        let budgeted = m.try_compose(f, VarId(2), g, &gov).unwrap();
        assert_eq!(budgeted, m.compose(f, VarId(2), g));
        let pairs = [(VarId(0), VarId(4)), (VarId(1), VarId(5))];
        let budgeted = m.try_rename(f, &pairs, &gov).unwrap();
        assert_eq!(budgeted, m.rename(f, &pairs));
    }
}
