//! Dense two-phase simplex solver for small/medium linear programs.
//!
//! The Q-DPM paper singles out linear-programming policy optimization as the
//! expensive core of model-based DPM ("even on Pentium III 800MHz PC, the
//! widely applied linear programming policy optimization runs extremely
//! slow"). To reproduce that claim faithfully we implement the classic dense
//! tableau simplex in-repo — the same family of solver a 2005 DPM stack
//! would have embedded — and benchmark it against value/policy iteration and
//! a single Q-learning step (bench T1).
//!
//! The solver minimizes `c'x` subject to mixed `=`, `<=`, `>=` constraints
//! and `x >= 0`, using Dantzig pricing with an automatic switch to Bland's
//! rule to guarantee termination on degenerate problems.

use crate::MdpError;

/// Relation of one linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// Left-hand side equals the right-hand side.
    Eq,
    /// Left-hand side is at most the right-hand side.
    Le,
    /// Left-hand side is at least the right-hand side.
    Ge,
}

/// One linear constraint `coeffs . x (op) rhs`.
#[derive(Debug, Clone, PartialEq)]
struct LpConstraint {
    coeffs: Vec<f64>,
    op: ConstraintOp,
    rhs: f64,
}

/// A linear program in decision variables `x >= 0`, minimized.
///
/// # Example
///
/// ```
/// use qdpm_mdp::simplex::{ConstraintOp, LinearProgram};
///
/// # fn main() -> Result<(), qdpm_mdp::MdpError> {
/// // maximize x + y  s.t.  x + 2y <= 4, 3x + 2y <= 6  (min of the negation)
/// let mut lp = LinearProgram::new(2);
/// lp.set_objective(vec![-1.0, -1.0]);
/// lp.add_constraint(vec![1.0, 2.0], ConstraintOp::Le, 4.0);
/// lp.add_constraint(vec![3.0, 2.0], ConstraintOp::Le, 6.0);
/// let sol = lp.solve()?;
/// assert!((sol.objective + 2.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    n_vars: usize,
    objective: Vec<f64>,
    rows: Vec<LpConstraint>,
}

/// An optimal solution returned by [`LinearProgram::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal values of the decision variables.
    pub x: Vec<f64>,
    /// Optimal objective value (of the minimization).
    pub objective: f64,
    /// Total simplex pivots across both phases.
    pub iterations: usize,
}

const TOL: f64 = 1e-9;

impl LinearProgram {
    /// Creates a program with `n_vars` non-negative variables and a zero
    /// objective.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars == 0`.
    #[must_use]
    pub fn new(n_vars: usize) -> Self {
        assert!(n_vars > 0, "lp needs at least one variable");
        LinearProgram {
            n_vars,
            objective: vec![0.0; n_vars],
            rows: Vec::new(),
        }
    }

    /// Number of decision variables.
    #[must_use]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Sets the minimization objective `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != n_vars`.
    pub fn set_objective(&mut self, c: Vec<f64>) {
        assert_eq!(c.len(), self.n_vars, "objective length mismatch");
        self.objective = c;
    }

    /// Adds the constraint `coeffs . x (op) rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n_vars`.
    pub fn add_constraint(&mut self, coeffs: Vec<f64>, op: ConstraintOp, rhs: f64) {
        assert_eq!(coeffs.len(), self.n_vars, "constraint length mismatch");
        self.rows.push(LpConstraint { coeffs, op, rhs });
    }

    /// Solves the program with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// * [`MdpError::LpInfeasible`] — no point satisfies the constraints;
    /// * [`MdpError::LpUnbounded`] — the objective decreases without bound;
    /// * [`MdpError::NoConvergence`] — pivot cap exhausted (should not occur
    ///   thanks to the Bland's-rule fallback; kept as a hard safety net).
    pub fn solve(&self) -> Result<LpSolution, MdpError> {
        Tableau::build(self).solve()
    }
}

/// Dense simplex tableau in canonical form.
struct Tableau {
    /// Constraint matrix rows, each of length `total + 1` (last = rhs).
    rows: Vec<Vec<f64>>,
    /// Objective (reduced-cost) row of length `total + 1`.
    obj: Vec<f64>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Structural variable count (the caller's `x`).
    n_struct: usize,
    /// First artificial column.
    art_start: usize,
    /// Total variable count (struct + slack + artificial).
    total: usize,
    /// Pivot counter across phases.
    pivots: usize,
    /// The caller's objective over structural variables (used in phase 2).
    struct_cost: Vec<f64>,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Tableau {
        let m = lp.rows.len();
        let n = lp.n_vars;
        let n_slack = lp.rows.iter().filter(|r| r.op != ConstraintOp::Eq).count();
        let art_start = n + n_slack;
        let total = art_start + m;

        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut slack_idx = n;
        for (i, c) in lp.rows.iter().enumerate() {
            let mut row = vec![0.0; total + 1];
            let flip = c.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            for (j, &v) in c.coeffs.iter().enumerate() {
                row[j] = sign * v;
            }
            row[total] = sign * c.rhs;
            // Slack (+1 for Le, -1 for Ge), with the sign flip applied.
            match c.op {
                ConstraintOp::Eq => {}
                ConstraintOp::Le => {
                    row[slack_idx] = sign;
                    slack_idx += 1;
                }
                ConstraintOp::Ge => {
                    row[slack_idx] = -sign;
                    slack_idx += 1;
                }
            }
            // One artificial per row gives a trivial starting basis.
            row[art_start + i] = 1.0;
            basis.push(art_start + i);
            rows.push(row);
        }

        Tableau {
            rows,
            obj: vec![0.0; total + 1],
            basis,
            n_struct: n,
            art_start,
            total,
            pivots: 0,
            struct_cost: lp.objective.clone(),
        }
    }

    /// Re-derives the objective row for cost vector `c` (length `total`),
    /// canonicalized against the current basis.
    fn load_objective(&mut self, c: &[f64]) {
        self.obj = c.to_vec();
        self.obj.push(0.0);
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = c[b];
            if cb != 0.0 {
                let row = self.rows[i].clone();
                for (o, r) in self.obj.iter_mut().zip(&row) {
                    *o -= cb * r;
                }
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let inv = 1.0 / self.rows[row][col];
        for v in self.rows[row].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.rows[row].clone();
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i != row && r[col].abs() > 0.0 {
                let f = r[col];
                for (rv, pv) in r.iter_mut().zip(&pivot_row) {
                    *rv -= f * pv;
                }
                r[col] = 0.0;
            }
        }
        let f = self.obj[col];
        if f != 0.0 {
            for (ov, pv) in self.obj.iter_mut().zip(&pivot_row) {
                *ov -= f * pv;
            }
            self.obj[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Runs simplex iterations until optimality over the allowed columns.
    ///
    /// `allow_artificial` permits artificial columns to enter (phase 1 only).
    fn iterate(&mut self, allow_artificial: bool) -> Result<(), MdpError> {
        let m = self.rows.len();
        let dantzig_cap = 50 * (m + self.total) + 200;
        let bland_cap = 400 * (m + self.total) + 2_000;
        let mut local = 0usize;
        loop {
            local += 1;
            let use_bland = local > dantzig_cap;
            if local > dantzig_cap + bland_cap {
                return Err(MdpError::NoConvergence {
                    solver: "simplex",
                    iterations: local,
                });
            }
            let col_limit = if allow_artificial {
                self.total
            } else {
                self.art_start
            };
            // Entering column.
            let mut enter: Option<usize> = None;
            if use_bland {
                for j in 0..col_limit {
                    if self.obj[j] < -TOL {
                        enter = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -TOL;
                for j in 0..col_limit {
                    if self.obj[j] < best {
                        best = self.obj[j];
                        enter = Some(j);
                    }
                }
            }
            let Some(col) = enter else {
                return Ok(()); // optimal
            };
            // Ratio test; ties by smallest basis index (lexicographic-ish).
            let mut leave: Option<(usize, f64)> = None;
            for (i, r) in self.rows.iter().enumerate() {
                if r[col] > TOL {
                    let ratio = r[self.total] / r[col];
                    match leave {
                        None => leave = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < lr - TOL
                                || (ratio < lr + TOL && self.basis[i] < self.basis[li])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leave else {
                return Err(MdpError::LpUnbounded);
            };
            self.pivot(row, col);
        }
    }

    fn solve(mut self) -> Result<LpSolution, MdpError> {
        let m = self.rows.len();
        if m > 0 {
            // Phase 1: minimize the sum of artificials.
            let mut phase1 = vec![0.0; self.total];
            phase1[self.art_start..self.total].fill(1.0);
            self.load_objective(&phase1);
            self.iterate(true)?;
            let infeas = -self.obj[self.total]; // objective value = -obj[rhs]
            if infeas > 1e-7 {
                return Err(MdpError::LpInfeasible);
            }
            // Drive lingering zero-level artificials out of the basis.
            for i in 0..m {
                if self.basis[i] >= self.art_start {
                    let col = (0..self.art_start).find(|&j| self.rows[i][j].abs() > TOL);
                    if let Some(col) = col {
                        self.pivot(i, col);
                    }
                    // A fully zero row is redundant; the artificial stays
                    // basic at level 0 and is excluded from entering later.
                }
            }
        }
        // Phase 2 with the true objective (artificials barred from entering).
        let mut obj = vec![0.0; self.total];
        obj[..self.n_struct].copy_from_slice(&self.struct_cost.clone());
        self.load_objective(&obj);
        self.iterate(false)?;

        let mut x = vec![0.0; self.n_struct];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                x[b] = self.rows[i][self.total];
            }
        }
        let objective = -self.obj[self.total];
        Ok(LpSolution {
            x,
            objective,
            iterations: self.pivots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(lp: &LinearProgram) -> Result<LpSolution, MdpError> {
        lp.solve()
    }

    #[test]
    fn maximization_via_negation() {
        // max x + y s.t. x + 2y <= 4, 3x + 2y <= 6 -> optimum 2.5 at (1, 1.5).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![-1.0, -1.0]);
        lp.add_constraint(vec![1.0, 2.0], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![3.0, 2.0], ConstraintOp::Le, 6.0);
        let s = solve(&lp).unwrap();
        assert!(
            (s.objective + 2.5).abs() < 1e-9,
            "objective {}",
            s.objective
        );
        assert!((s.x[0] - 1.0).abs() < 1e-9);
        assert!((s.x[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2 -> x = 6, y = 4, obj 24.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![2.0, 3.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 10.0);
        lp.add_constraint(vec![1.0, -1.0], ConstraintOp::Eq, 2.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective - 24.0).abs() < 1e-9);
        assert!((s.x[0] - 6.0).abs() < 1e-9);
        assert!((s.x[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ge_constraints_and_negative_rhs() {
        // min x s.t. x >= 3 (written two ways).
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![1.0], ConstraintOp::Ge, 3.0);
        assert!((solve(&lp).unwrap().x[0] - 3.0).abs() < 1e-9);

        let mut lp2 = LinearProgram::new(1);
        lp2.set_objective(vec![1.0]);
        lp2.add_constraint(vec![-1.0], ConstraintOp::Le, -3.0);
        assert!((solve(&lp2).unwrap().x[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![1.0], ConstraintOp::Le, -1.0);
        assert_eq!(solve(&lp).unwrap_err(), MdpError::LpInfeasible);
    }

    #[test]
    fn detects_contradictory_equalities() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 1.0);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 2.0);
        assert_eq!(solve(&lp).unwrap_err(), MdpError::LpInfeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![-1.0]);
        lp.add_constraint(vec![1.0], ConstraintOp::Ge, 1.0);
        assert_eq!(solve(&lp).unwrap_err(), MdpError::LpUnbounded);
    }

    #[test]
    fn no_constraints_means_origin() {
        let mut lp = LinearProgram::new(3);
        lp.set_objective(vec![1.0, 2.0, 3.0]);
        let s = solve(&lp).unwrap();
        assert_eq!(s.x, vec![0.0, 0.0, 0.0]);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn redundant_constraint_is_harmless() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![-1.0, 0.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 2.0);
        lp.add_constraint(vec![2.0, 2.0], ConstraintOp::Eq, 4.0); // redundant
        let s = solve(&lp).unwrap();
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.objective + 2.0).abs() < 1e-9);
    }

    #[test]
    fn beale_degenerate_cycle_terminates() {
        // Beale's classic cycling example for Dantzig pricing; Bland
        // fallback must terminate at optimum -0.05.
        let mut lp = LinearProgram::new(4);
        lp.set_objective(vec![-0.75, 150.0, -0.02, 6.0]);
        lp.add_constraint(vec![0.25, -60.0, -1.0 / 25.0, 9.0], ConstraintOp::Le, 0.0);
        lp.add_constraint(vec![0.5, -90.0, -1.0 / 50.0, 3.0], ConstraintOp::Le, 0.0);
        lp.add_constraint(vec![0.0, 0.0, 1.0, 0.0], ConstraintOp::Le, 1.0);
        let s = solve(&lp).unwrap();
        assert!(
            (s.objective + 0.05).abs() < 1e-9,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn transportation_style_problem() {
        // 2 supplies (10, 20), 2 demands (15, 15); costs [[1,3],[2,1]].
        // x11 + x12 = 10; x21 + x22 = 20; x11 + x21 = 15; x12 + x22 = 15.
        // Optimal: x11=10, x21=5, x22=15 -> 10*1 + 5*2 + 15*1 = 35.
        let mut lp = LinearProgram::new(4); // x11 x12 x21 x22
        lp.set_objective(vec![1.0, 3.0, 2.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0, 0.0, 0.0], ConstraintOp::Eq, 10.0);
        lp.add_constraint(vec![0.0, 0.0, 1.0, 1.0], ConstraintOp::Eq, 20.0);
        lp.add_constraint(vec![1.0, 0.0, 1.0, 0.0], ConstraintOp::Eq, 15.0);
        lp.add_constraint(vec![0.0, 1.0, 0.0, 1.0], ConstraintOp::Eq, 15.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective - 35.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_constraint_types() {
        // min x + y s.t. x + y >= 2, x <= 1.5, y = 1 -> x = 1, y = 1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Ge, 2.0);
        lp.add_constraint(vec![1.0, 0.0], ConstraintOp::Le, 1.5);
        lp.add_constraint(vec![0.0, 1.0], ConstraintOp::Eq, 1.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 1.0).abs() < 1e-9);
    }
}
