//! Existential and universal quantification over variable cubes.

use crate::budgeted::{unbounded, Policy, Unbounded};
use crate::manager::Op;
use crate::{Manager, NodeId, VarId};

impl Manager {
    /// Existential quantification `∃vars f`.
    pub fn exists(&mut self, f: NodeId, vars: &[VarId]) -> NodeId {
        let cube = self.cube(vars);
        self.exists_cube(f, cube)
    }

    /// Universal quantification `∀vars f`.
    pub fn forall(&mut self, f: NodeId, vars: &[VarId]) -> NodeId {
        let cube = self.cube(vars);
        self.forall_cube(f, cube)
    }

    /// Existential quantification of a single variable.
    pub fn exists_var(&mut self, f: NodeId, v: VarId) -> NodeId {
        self.exists(f, &[v])
    }

    /// Universal quantification of a single variable.
    pub fn forall_var(&mut self, f: NodeId, v: VarId) -> NodeId {
        self.forall(f, &[v])
    }

    /// `∃cube f` where `cube` is a positive cube built with
    /// [`Manager::cube`].
    pub fn exists_cube(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        unbounded(self.quant_rec(f, cube, Op::Exists, &Unbounded))
    }

    /// `∀cube f` where `cube` is a positive cube.
    pub fn forall_cube(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        unbounded(self.quant_rec(f, cube, Op::Forall, &Unbounded))
    }

    /// Quantifies `cube` out of `f`; `op` is [`Op::Exists`] or
    /// [`Op::Forall`].
    pub(crate) fn quant_rec<P: Policy>(
        &mut self,
        f: NodeId,
        cube: NodeId,
        op: Op,
        p: &P,
    ) -> Result<NodeId, P::Error> {
        if f.is_terminal() || cube.is_true() {
            return Ok(f);
        }
        debug_assert!(!cube.is_false(), "quantification cube must be a positive cube");
        // Skip cube variables above f's top variable: they do not occur in f.
        let mut cube = cube;
        let f_level = self.level(f);
        while !cube.is_true() && self.level(cube) < f_level {
            cube = self.branches(cube).1;
        }
        if cube.is_true() {
            return Ok(f);
        }
        let key = (op, f.0, cube.0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        p.checkpoint(self.live_node_count())?;
        let (f0, f1) = self.branches(f);
        let fvar = self.node(f).var;
        let r = if self.level(cube) == f_level {
            let rest = self.branches(cube).1;
            let lo = self.quant_rec(f0, rest, op, p)?;
            let hi = self.quant_rec(f1, rest, op, p)?;
            match op {
                Op::Exists => self.or_rec(lo, hi, p)?,
                Op::Forall => self.and_rec(lo, hi, p)?,
                _ => unreachable!(),
            }
        } else {
            let lo = self.quant_rec(f0, cube, op, p)?;
            let hi = self.quant_rec(f1, cube, op, p)?;
            self.mk(fvar, lo, hi)
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Relational product `∃cube (f · g)` computed without materializing
    /// the full conjunction — the workhorse of image computation.
    pub fn and_exists(&mut self, f: NodeId, g: NodeId, cube: NodeId) -> NodeId {
        unbounded(self.and_exists_rec(f, g, cube, &Unbounded))
    }

    pub(crate) fn and_exists_rec<P: Policy>(
        &mut self,
        f: NodeId,
        g: NodeId,
        cube: NodeId,
        p: &P,
    ) -> Result<NodeId, P::Error> {
        if f.is_false() || g.is_false() {
            return Ok(NodeId::FALSE);
        }
        if f.is_true() && g.is_true() {
            return Ok(NodeId::TRUE);
        }
        if cube.is_true() {
            return self.and_rec(f, g, p);
        }
        if f.is_true() {
            return self.quant_rec(g, cube, Op::Exists, p);
        }
        if g.is_true() {
            return self.quant_rec(f, cube, Op::Exists, p);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::Exists, a.0, b.0, cube.0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        p.checkpoint(self.live_node_count())?;
        let top = self.level(a).min(self.level(b));
        // Skip cube variables above the top of both operands.
        let mut cube_here = cube;
        while !cube_here.is_true() && self.level(cube_here) < top {
            cube_here = self.branches(cube_here).1;
        }
        let (a0, a1) = if self.level(a) == top { self.branches(a) } else { (a, a) };
        let (b0, b1) = if self.level(b) == top { self.branches(b) } else { (b, b) };
        let r = if !cube_here.is_true() && self.level(cube_here) == top {
            let rest = self.branches(cube_here).1;
            let lo = self.and_exists_rec(a0, b0, rest, p)?;
            if lo.is_true() {
                NodeId::TRUE
            } else {
                let hi = self.and_exists_rec(a1, b1, rest, p)?;
                self.or_rec(lo, hi, p)?
            }
        } else {
            let lo = self.and_exists_rec(a0, b0, cube_here, p)?;
            let hi = self.and_exists_rec(a1, b1, cube_here, p)?;
            let var = self.var_at_level(top);
            self.mk(var, lo, hi)
        };
        self.cache.insert(key, r);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exists_or_of_cofactors() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let f = m.and(a, b);
        // ∃a (a·b) = b
        assert_eq!(m.exists_var(f, VarId(0)), b);
        // ∀a (a·b) = 0
        assert!(m.forall_var(f, VarId(0)).is_false());
    }

    #[test]
    fn quantifier_duality() {
        let mut m = Manager::new();
        let vars = m.new_vars(4);
        let x = m.xor(vars[0], vars[2]);
        let y = m.and(vars[1], vars[3]);
        let f = m.or(x, y);
        let q = [VarId(1), VarId(2)];
        let fa = m.forall(f, &q);
        let nf = m.not(f);
        let ex = m.exists(nf, &q);
        let dual = m.not(ex);
        assert_eq!(fa, dual);
    }

    #[test]
    fn quantifying_absent_variable_is_identity() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let _c = m.new_var();
        let f = m.or(a, b);
        assert_eq!(m.exists_var(f, VarId(2)), f);
        assert_eq!(m.forall_var(f, VarId(2)), f);
    }

    #[test]
    fn multi_var_equals_iterated() {
        let mut m = Manager::new();
        let vs = m.new_vars(5);
        let t1 = m.and(vs[0], vs[3]);
        let t2 = m.xor(vs[1], vs[4]);
        let t3 = m.and(vs[2], t2);
        let f = m.or(t1, t3);
        let together = m.exists(f, &[VarId(0), VarId(2), VarId(4)]);
        let step1 = m.exists_var(f, VarId(4));
        let step2 = m.exists_var(step1, VarId(2));
        let step3 = m.exists_var(step2, VarId(0));
        assert_eq!(together, step3);
    }

    #[test]
    fn and_exists_matches_naive() {
        let mut m = Manager::new();
        let vs = m.new_vars(6);
        let f = {
            let t = m.xor(vs[0], vs[1]);
            m.and(t, vs[2])
        };
        let g = {
            let t = m.or(vs[3], vs[4]);
            m.xor(t, vs[5])
        };
        let cube = m.cube(&[VarId(1), VarId(3), VarId(5)]);
        let fast = m.and_exists(f, g, cube);
        let conj = m.and(f, g);
        let slow = m.exists_cube(conj, cube);
        assert_eq!(fast, slow);
    }

    #[test]
    fn example_3_2_abstraction_of_interval() {
        // Paper Example 3.2: abstracting x from [x̄y, x+y] yields [y, y];
        // abstracting y yields the empty interval [x, x̄]... i.e. ∃y(x̄y)=x̄
        // and ∀y(x+y)=x, and x̄ ≤ x fails.
        let mut m = Manager::new();
        let x = m.new_var();
        let y = m.new_var();
        let nx = m.not(x);
        let lower = m.and(nx, y);
        let upper = m.or(x, y);
        let l_abs = m.exists_var(lower, VarId(0));
        let u_abs = m.forall_var(upper, VarId(0));
        assert_eq!(l_abs, y);
        assert_eq!(u_abs, y);
        // Abstraction of y.
        let l_abs_y = m.exists_var(lower, VarId(1));
        let u_abs_y = m.forall_var(upper, VarId(1));
        assert_eq!(l_abs_y, nx);
        assert_eq!(u_abs_y, x);
        assert!(!m.leq(l_abs_y, u_abs_y));
    }
}
