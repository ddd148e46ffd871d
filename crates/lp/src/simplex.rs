//! Dense two-phase primal simplex.
//!
//! Works on the standard form `min cᵀx, Ax = b, x ≥ 0` obtained from the
//! user model by shifting lower bounds, adding upper-bound rows, and adding
//! slack/surplus/artificial columns. Pricing is Dantzig (most negative
//! reduced cost) with an automatic switch to Bland's rule after a fixed
//! number of iterations, which guarantees termination under degeneracy.

use tomo_obs::{LazyCounter, LazyHistogram};

use crate::model::{LpProblem, Objective, Relation};
use crate::solution::{LpSolution, LpStatus};
use crate::warm::WarmStart;
use crate::{LpError, LP_TOL};

pub(crate) static SOLVES: LazyCounter = LazyCounter::new("lp.simplex.solves");
pub(crate) static PIVOTS: LazyCounter = LazyCounter::new("lp.simplex.pivots");
pub(crate) static ITERATIONS: LazyCounter = LazyCounter::new("lp.simplex.iterations");
pub(crate) static OPTIMAL: LazyCounter = LazyCounter::new("lp.simplex.optimal");
pub(crate) static INFEASIBLE: LazyCounter = LazyCounter::new("lp.simplex.infeasible");
pub(crate) static UNBOUNDED: LazyCounter = LazyCounter::new("lp.simplex.unbounded");
pub(crate) static PHASE1_SECONDS: LazyHistogram = LazyHistogram::new("lp.simplex.phase1_seconds");
pub(crate) static PHASE2_SECONDS: LazyHistogram = LazyHistogram::new("lp.simplex.phase2_seconds");
pub(crate) static WARM_HITS: LazyCounter = LazyCounter::new("lp.simplex.warm.hits");
pub(crate) static WARM_MISSES: LazyCounter = LazyCounter::new("lp.simplex.warm.misses");
pub(crate) static WARM_CRASH_OPS: LazyCounter = LazyCounter::new("lp.simplex.warm.crash_ops");
pub(crate) static WARM_PIVOTS: LazyHistogram = LazyHistogram::new("lp.simplex.warm.pivots");
pub(crate) static COLD_PIVOTS: LazyHistogram = LazyHistogram::new("lp.simplex.cold.pivots");
static WARM_SKIPPED_SMALL: LazyCounter = LazyCounter::new("lp.simplex.warm.skipped_small");

thread_local! {
    /// Warm-start outcome of this thread's most recent solve: `None` for
    /// a cold solve (no cache offered), `Some(hit)` when a [`WarmStart`]
    /// was consulted. Read via [`take_last_warm_outcome`] by provenance
    /// recording; thread-local so parallel trials never see each other's
    /// solves.
    static LAST_WARM: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Takes (and clears) the calling thread's last solve's warm-start
/// outcome: `Some(true)` cache hit, `Some(false)` miss, `None` when the
/// last solve ran cold or no solve has happened since the last take.
pub fn take_last_warm_outcome() -> Option<bool> {
    LAST_WARM.with(|w| w.take())
}

/// Records a warm-start outcome for the current thread's solve (shared
/// with the revised-simplex backend so both report through the same
/// [`take_last_warm_outcome`] channel).
pub(crate) fn set_last_warm(outcome: Option<bool>) {
    LAST_WARM.with(|w| w.set(outcome));
}

/// Hard safety bound on simplex iterations per phase.
pub(crate) const MAX_ITER_BASE: usize = 20_000;
/// After this many iterations in a phase, switch from Dantzig to Bland.
pub(crate) const BLAND_SWITCH: usize = 2_000;

/// Which simplex backend a solve should use.
///
/// Both backends implement the same two-phase primal simplex — same
/// pricing rules, ratio-test tie-breaking, phase-1 infeasibility test
/// and warm-start protocol — so they are *decision-equivalent*: equal
/// [`LpStatus`](crate::LpStatus) and equal objective up to solver
/// tolerance. Vertices (and thus low-order solution bits) may differ
/// when the optimum is not unique, exactly like warm vs cold solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Pick by standard-form size: the dense tableau below
    /// [`AUTO_REVISED_MIN_CELLS`] cells (`m·ncols`), the revised simplex
    /// at or above it. The `TOMO_LP_MODE` environment variable
    /// (`dense` / `revised`, case-insensitive, read per solve) overrides
    /// the size heuristic but not an explicit mode choice in code.
    #[default]
    Auto,
    /// Dense tableau pivots: fastest on small instances, O(m·ncols)
    /// memory traffic per pivot.
    Dense,
    /// Revised simplex over sparse columns with a sparse-LU basis
    /// factorization and product-form eta updates: the only viable
    /// backend at Rocketfuel scale.
    Revised,
}

/// `Auto` switches to the revised backend when the standard form holds
/// at least this many tableau cells (`m·ncols`). Below it the dense
/// tableau's contiguous row arithmetic wins; above it the tableau's
/// per-pivot O(m·ncols) traffic (and its memory footprint) loses to
/// sparse FTRAN/BTRAN solves.
pub(crate) const AUTO_REVISED_MIN_CELLS: usize = 1 << 20;

/// Warm-start bases are only worth their crash cost on instances with
/// at least this many standard-form cells; below it the cache is
/// skipped (recorded in `lp.simplex.warm.skipped_small`) unless
/// `TOMO_LP_WARM` forces it (`1` / `force` / `always`).
pub(crate) const WARM_MIN_CELLS: usize = 1 << 18;

/// `true` when `TOMO_LP_WARM` explicitly forces warm-starting even on
/// instances below [`WARM_MIN_CELLS`] — the hook the `lp-warm`
/// workload of `tomo-bench` uses to compare cold vs warm pivot counts
/// on the (small) fig7 workload.
fn warm_forced() -> bool {
    match std::env::var("TOMO_LP_WARM") {
        Ok(v) => matches!(v.to_ascii_lowercase().as_str(), "1" | "force" | "always"),
        Err(_) => false,
    }
}

/// Standard-form dimensions `(m, ncols)` the assembly in `solve_inner`
/// (and its sparse mirror in [`crate::revised`]) will produce, computed
/// without allocating the tableau: rows are the user constraints plus
/// one row per finite upper bound; columns are structural + one slack
/// per inequality + one artificial per row that is `Ge`/`Eq` *after*
/// rhs-sign normalization (which flips `Le` rows with negative shifted
/// rhs into `Ge` and vice versa).
pub(crate) fn standard_dims(problem: &LpProblem) -> (usize, usize) {
    let n_struct = problem.variables.len();
    let mut m = 0usize;
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for c in &problem.constraints {
        let mut shift = 0.0;
        for &(j, a) in &c.terms {
            shift += a * problem.variables[j].lower;
        }
        let rhs = c.rhs - shift;
        let relation = if rhs < 0.0 {
            match c.relation {
                Relation::Le => Relation::Ge,
                Relation::Eq => Relation::Eq,
                Relation::Ge => Relation::Le,
            }
        } else {
            c.relation
        };
        m += 1;
        if relation != Relation::Eq {
            n_slack += 1;
        }
        if relation != Relation::Le {
            n_art += 1;
        }
    }
    // Upper-bound rows x'_j ≤ upper − lower always have rhs ≥ 0
    // (bounds are validated at add_variable), so they are always `Le`.
    let n_upper = problem
        .variables
        .iter()
        .filter(|v| v.upper.is_some())
        .count();
    m += n_upper;
    n_slack += n_upper;
    (m, n_struct + n_slack + n_art)
}

/// Resolves the backend for one solve: explicit choice > `TOMO_LP_MODE`
/// environment override > size heuristic.
fn resolve_mode(requested: SolverMode, m: usize, ncols: usize) -> SolverMode {
    match requested {
        SolverMode::Dense | SolverMode::Revised => requested,
        SolverMode::Auto => {
            if let Ok(v) = std::env::var("TOMO_LP_MODE") {
                match v.to_ascii_lowercase().as_str() {
                    "dense" | "tableau" => return SolverMode::Dense,
                    "revised" | "sparse" => return SolverMode::Revised,
                    _ => {}
                }
            }
            if m.saturating_mul(ncols) >= AUTO_REVISED_MIN_CELLS {
                SolverMode::Revised
            } else {
                SolverMode::Dense
            }
        }
    }
}

/// Outcome of crashing a remembered basis into a fresh tableau.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Crash {
    /// Basic feasible solution with zero artificial mass: skip phase 1.
    Phase2Ready,
    /// Primal feasible but artificials still carry weight: re-enter
    /// phase 1 from this basis instead of the all-artificial start.
    Phase1Ready,
    /// Singular or primal-infeasible under the new data: solve cold.
    Failed,
}

struct Tableau {
    /// (m+1) × (ncols+1); last row = reduced costs, last col = rhs.
    t: Vec<Vec<f64>>,
    /// Basis: for each of the m rows, the column index of its basic variable.
    basis: Vec<usize>,
    m: usize,
    ncols: usize,
    /// Columns that may never enter the basis (artificials in phase 2).
    banned: Vec<bool>,
    /// Priced simplex pivots performed during this solve (crash
    /// eliminations excluded) — feeds the warm/cold pivot histograms.
    solve_pivots: u64,
}

impl Tableau {
    fn rhs(&self, i: usize) -> f64 {
        self.t[i][self.ncols]
    }

    /// Gauss-Jordan elimination making column `col` the unit vector of
    /// row `row`: the shared kernel of [`Self::pivot`] and
    /// [`Self::crash_basis`]. Splits the row storage instead of cloning
    /// the pivot row, so no allocation happens per elimination.
    fn eliminate(&mut self, row: usize, col: usize) {
        let pivot = self.t[row][col];
        debug_assert!(pivot.abs() > LP_TOL, "pivot too small: {pivot}");
        let inv = 1.0 / pivot;
        for v in self.t[row].iter_mut() {
            *v *= inv;
        }
        let (head, rest) = self.t.split_at_mut(row);
        let (pivot_row, tail) = rest.split_first_mut().expect("row < m+1");
        for r in head.iter_mut().chain(tail.iter_mut()) {
            let factor = r[col];
            if factor == 0.0 {
                continue;
            }
            for (a, &p) in r.iter_mut().zip(pivot_row.iter()) {
                *a -= factor * p;
            }
            // Kill residual round-off in the pivot column.
            r[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// One priced pivot: column `col` enters, row `row`'s basic variable
    /// leaves.
    fn pivot(&mut self, row: usize, col: usize) {
        PIVOTS.inc();
        self.solve_pivots += 1;
        self.eliminate(row, col);
    }

    /// Installs a remembered basis into a freshly assembled tableau by
    /// eliminating each hinted column in row order ("crash" start).
    ///
    /// [`Crash::Phase2Ready`] means every hinted pivot element was
    /// usable, the resulting basic solution is primal feasible, and no
    /// artificial column (index ≥ `first_artificial`) carries weight —
    /// exactly the state a successful phase 1 would have produced, so
    /// phase 2 can start immediately. [`Crash::Phase1Ready`] means the
    /// basis is primal feasible but artificials still carry weight
    /// (the remembered solve ended infeasible); phase 1 can re-enter
    /// from here instead of the all-artificial start. On
    /// [`Crash::Failed`] the tableau is left partially eliminated and
    /// must be rebuilt by the caller.
    fn crash_basis(&mut self, hint: &[usize], first_artificial: usize) -> Crash {
        if hint.len() != self.m {
            return Crash::Failed;
        }
        // The hint is a *set* of basis columns: install each by
        // Gauss-Jordan elimination, choosing among still-unassigned rows
        // the one with the largest pivot magnitude (partial pivoting).
        // A fixed row order would spuriously reject nonsingular bases
        // whenever an early row happens to have a zero in its hinted
        // column.
        let mut assigned = vec![false; self.m];
        for &col in hint {
            if col >= self.ncols {
                return Crash::Failed;
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, &done) in assigned.iter().enumerate() {
                if done {
                    continue;
                }
                let a = self.t[i][col].abs();
                if a > LP_TOL && best.is_none_or(|(_, b)| a > b) {
                    best = Some((i, a));
                }
            }
            let Some((row, _)) = best else {
                return Crash::Failed;
            };
            assigned[row] = true;
            WARM_CRASH_OPS.inc();
            self.eliminate(row, col);
        }
        if (0..self.m).any(|i| self.rhs(i) < -LP_TOL) {
            return Crash::Failed;
        }
        let artificials_off =
            (0..self.m).all(|i| self.basis[i] < first_artificial || self.rhs(i) <= LP_TOL);
        if artificials_off {
            Crash::Phase2Ready
        } else {
            Crash::Phase1Ready
        }
    }

    /// Chooses the entering column, or `None` if optimal.
    fn entering(&self, iter: usize) -> Option<usize> {
        let costs = &self.t[self.m];
        if iter >= BLAND_SWITCH {
            // Bland: first improving column.
            (0..self.ncols).find(|&j| !self.banned[j] && costs[j] < -LP_TOL)
        } else {
            // Dantzig: most improving column.
            let mut best: Option<(usize, f64)> = None;
            for (j, &c) in costs.iter().take(self.ncols).enumerate() {
                if self.banned[j] {
                    continue;
                }
                if c < -LP_TOL && best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((j, c));
                }
            }
            best.map(|(j, _)| j)
        }
    }

    /// Ratio test: row whose basic variable leaves, or `None` if the
    /// column is unbounded.
    fn leaving(&self, col: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            let a = self.t[i][col];
            if a > LP_TOL {
                let ratio = self.rhs(i).max(0.0) / a;
                let better = match best {
                    None => true,
                    Some((bi, br)) => {
                        ratio < br - LP_TOL
                            || (ratio < br + LP_TOL && self.basis[i] < self.basis[bi])
                    }
                };
                if better {
                    best = Some((i, ratio));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Runs simplex iterations until optimal/unbounded/iteration limit.
    fn optimize(&mut self) -> Result<bool, LpError> {
        let limit = MAX_ITER_BASE + 100 * (self.m + self.ncols);
        for iter in 0..limit {
            ITERATIONS.inc();
            let Some(col) = self.entering(iter) else {
                return Ok(true); // optimal
            };
            let Some(row) = self.leaving(col) else {
                return Ok(false); // unbounded
            };
            self.pivot(row, col);
        }
        Err(LpError::IterationLimit { limit })
    }

    /// Installs a cost row and eliminates basic-variable costs.
    fn install_costs(&mut self, costs: &[f64]) {
        let n = self.ncols;
        let (body, cost) = self.t.split_at_mut(self.m);
        let cost_row = &mut cost[0];
        cost_row[..n].copy_from_slice(&costs[..n]);
        cost_row[n] = 0.0;
        for (i, row_i) in body.iter().enumerate() {
            let b = self.basis[i];
            let cb = cost_row[b];
            if cb != 0.0 {
                for (c, &a) in cost_row.iter_mut().zip(row_i.iter()) {
                    *c -= cb * a;
                }
                cost_row[b] = 0.0;
            }
        }
    }
}

/// Solves the model; see [`LpProblem::solve`].
pub(crate) fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    solve_with(problem, None, SolverMode::Auto)
}

/// Solves the model with basis reuse; see [`LpProblem::solve_warm`].
pub(crate) fn solve_warm(problem: &LpProblem, warm: &WarmStart) -> Result<LpSolution, LpError> {
    solve_with(problem, Some(warm), SolverMode::Auto)
}

/// Mode-dispatching entry point shared by every public solve call:
/// sizes the standard form, applies the warm-start size gate, resolves
/// the backend and hands off to the dense tableau or the revised
/// simplex.
pub(crate) fn solve_with(
    problem: &LpProblem,
    warm: Option<&WarmStart>,
    mode: SolverMode,
) -> Result<LpSolution, LpError> {
    let (m, ncols) = standard_dims(problem);
    let warm = match warm {
        Some(_) if m.saturating_mul(ncols) < WARM_MIN_CELLS && !warm_forced() => {
            // At toy scale the crash + pristine-tableau bookkeeping costs
            // more wall time than the pivots it saves, so the cache is
            // bypassed (the solve runs cold and reports no warm outcome).
            WARM_SKIPPED_SMALL.inc();
            None
        }
        other => other,
    };
    match resolve_mode(mode, m, ncols) {
        SolverMode::Revised => crate::revised::solve_revised(problem, warm),
        _ => solve_inner(problem, warm),
    }
}

fn solve_inner(problem: &LpProblem, warm: Option<&WarmStart>) -> Result<LpSolution, LpError> {
    SOLVES.inc();
    LAST_WARM.with(|w| w.set(None));
    let n_struct = problem.variables.len();

    // Assemble rows in (dense coeffs, relation, rhs) form over the shifted
    // structural variables x' = x − lower ≥ 0.
    struct Row {
        coeffs: Vec<f64>,
        relation: Relation,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(problem.constraints.len() + n_struct);

    for c in &problem.constraints {
        let mut coeffs = vec![0.0; n_struct];
        let mut shift = 0.0;
        for &(j, a) in &c.terms {
            coeffs[j] += a;
            shift += a * problem.variables[j].lower;
        }
        rows.push(Row {
            coeffs,
            relation: c.relation,
            rhs: c.rhs - shift,
        });
    }
    // Upper bounds become explicit rows: x'_j ≤ upper_j − lower_j.
    for (j, v) in problem.variables.iter().enumerate() {
        if let Some(u) = v.upper {
            let mut coeffs = vec![0.0; n_struct];
            coeffs[j] = 1.0;
            rows.push(Row {
                coeffs,
                relation: Relation::Le,
                rhs: u - v.lower,
            });
        }
    }

    let m = rows.len();

    // Normalize to rhs ≥ 0.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            for a in r.coeffs.iter_mut() {
                *a = -*a;
            }
            r.rhs = -r.rhs;
            r.relation = match r.relation {
                Relation::Le => Relation::Ge,
                Relation::Eq => Relation::Eq,
                Relation::Ge => Relation::Le,
            };
        }
    }

    // Column layout: [structural | slacks/surplus | artificials].
    let n_slack = rows.iter().filter(|r| r.relation != Relation::Eq).count();
    let n_art = rows.iter().filter(|r| r.relation != Relation::Le).count();
    let ncols = n_struct + n_slack + n_art;

    let mut t = vec![vec![0.0; ncols + 1]; m + 1];
    let mut basis = vec![usize::MAX; m];
    let mut slack_idx = n_struct;
    let mut art_idx = n_struct + n_slack;
    let mut artificial_cols: Vec<usize> = Vec::with_capacity(n_art);

    for (i, r) in rows.iter().enumerate() {
        t[i][..n_struct].copy_from_slice(&r.coeffs);
        t[i][ncols] = r.rhs;
        match r.relation {
            Relation::Le => {
                t[i][slack_idx] = 1.0;
                basis[i] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                t[i][slack_idx] = -1.0;
                slack_idx += 1;
                t[i][art_idx] = 1.0;
                basis[i] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
            Relation::Eq => {
                t[i][art_idx] = 1.0;
                basis[i] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
        }
    }

    let mut tab = Tableau {
        t,
        basis,
        m,
        ncols,
        banned: vec![false; ncols],
        solve_pivots: 0,
    };
    let first_artificial = n_struct + n_slack;

    // Chaos seam: an armed fault (see `crate::chaos`) turns this solve
    // into the corresponding typed failure before any pivoting happens,
    // so downstream degradation paths can be exercised deterministically.
    match crate::chaos::take() {
        Some(crate::chaos::SolveFault::IterationExhaustion) => {
            return Err(LpError::IterationLimit { limit: 0 });
        }
        Some(crate::chaos::SolveFault::SingularWarmBasis) => {
            // Drive the crash procedure with an all-duplicate basis hint —
            // structurally singular for m ≥ 2 — then report it as
            // unrepairable, exercising the same restore path a corrupt
            // remembered basis would.
            let pristine_t = tab.t.clone();
            let pristine_basis = tab.basis.clone();
            if tab.crash_basis(&vec![0usize; m], first_artificial) == Crash::Failed {
                tab.t = pristine_t;
                tab.basis = pristine_basis;
            }
            return Err(LpError::SingularBasis { rows: m });
        }
        None => {}
    }

    // Warm start: try to crash a remembered basis for this constraint
    // skeleton into the fresh tableau. `Phase2Ready` means we already
    // hold a basic feasible solution with zero artificial mass —
    // exactly what phase 1 exists to find — so phase 1 is skipped
    // entirely. `Phase1Ready` (the remembered solve ended infeasible)
    // means phase 1 re-enters from the crashed near-terminal basis
    // instead of the all-artificial start, re-certifying in a handful
    // of pivots.
    let skeleton = warm.map(|w| (w, problem.skeleton_hash()));
    let mut crash = Crash::Failed;
    if let Some((w, key)) = skeleton {
        let candidates = w.candidates(key, m, ncols);
        if !candidates.is_empty() {
            let pristine_t = tab.t.clone();
            let pristine_basis = tab.basis.clone();
            for hint in &candidates {
                match tab.crash_basis(hint, first_artificial) {
                    Crash::Failed => {
                        tab.t.clone_from(&pristine_t);
                        tab.basis.clone_from(&pristine_basis);
                    }
                    state => {
                        crash = state;
                        break;
                    }
                }
            }
        }
        if crash == Crash::Failed {
            WARM_MISSES.inc();
        } else {
            WARM_HITS.inc();
        }
        LAST_WARM.with(|w| w.set(Some(crash != Crash::Failed)));
    }
    let warm_hit = crash != Crash::Failed;

    // Phase 1: minimize the sum of artificials (skipped when the crash
    // already produced an artificial-free feasible basis; started from
    // the crashed basis — rather than the all-artificial one — on a
    // `Phase1Ready` crash, since `install_costs` re-prices against
    // whatever basis the tableau currently holds).
    if !artificial_cols.is_empty() && crash != Crash::Phase2Ready {
        let _phase1_timer = PHASE1_SECONDS.start_timer();
        let mut phase1_costs = vec![0.0; ncols];
        for &j in &artificial_cols {
            phase1_costs[j] = 1.0;
        }
        tab.install_costs(&phase1_costs);
        let optimal = tab.optimize()?;
        debug_assert!(optimal, "phase-1 LP is bounded below by 0");
        // Objective value = −cost-row rhs.
        let phase1_obj = -tab.t[tab.m][ncols];
        if phase1_obj > LP_TOL * (1.0 + phase1_obj.abs()) {
            INFEASIBLE.inc();
            if warm_hit {
                WARM_PIVOTS.record(tab.solve_pivots as f64);
            } else {
                COLD_PIVOTS.record(tab.solve_pivots as f64);
            }
            // Remember the phase-1 terminal basis even though the LP is
            // infeasible: the next solve of this skeleton re-certifies
            // infeasibility from it in a handful of pivots.
            if let Some((w, key)) = skeleton {
                w.store(key, m, ncols, Some(tab.basis.clone()), None);
            }
            tomo_obs::debug!(
                "lp.simplex",
                "infeasible: phase-1 objective {phase1_obj:.3e}"
            );
            return Ok(LpSolution::new(
                LpStatus::Infeasible,
                0.0,
                vec![0.0; n_struct],
            ));
        }
        // Pivot zero-valued artificials out of the basis where possible.
        let is_artificial = |j: usize| j >= first_artificial;
        for i in 0..tab.m {
            if is_artificial(tab.basis[i]) {
                if let Some(j) = (0..first_artificial).find(|&j| tab.t[i][j].abs() > LP_TOL) {
                    tab.pivot(i, j);
                }
                // Otherwise the row is redundant; the artificial stays
                // basic at value 0 and (being banned below) can never grow.
            }
        }
    }
    for &j in &artificial_cols {
        tab.banned[j] = true;
    }
    // The feasible basis phase 1 (or the crash) ended with: worth
    // remembering even if phase 2 wanders far from it.
    let phase1_basis = skeleton.map(|_| tab.basis.clone());

    // Phase 2: real objective (converted to minimization over x').
    let sign = match problem.objective() {
        Objective::Maximize => -1.0,
        Objective::Minimize => 1.0,
    };
    let mut phase2_costs = vec![0.0; ncols];
    for (j, v) in problem.variables.iter().enumerate() {
        phase2_costs[j] = sign * v.objective;
    }
    let optimal = PHASE2_SECONDS.time(|| {
        tab.install_costs(&phase2_costs);
        tab.optimize()
    })?;
    if warm_hit {
        WARM_PIVOTS.record(tab.solve_pivots as f64);
    } else {
        COLD_PIVOTS.record(tab.solve_pivots as f64);
    }
    if !optimal {
        UNBOUNDED.inc();
        if let Some((w, key)) = skeleton {
            w.store(key, m, ncols, phase1_basis, None);
        }
        tomo_obs::warn!("lp.simplex", "unbounded objective");
        return Ok(LpSolution::new(
            LpStatus::Unbounded,
            0.0,
            vec![0.0; n_struct],
        ));
    }
    if let Some((w, key)) = skeleton {
        w.store(key, m, ncols, phase1_basis, Some(tab.basis.clone()));
    }

    // Extract structural values (undo the lower-bound shift).
    let mut values = vec![0.0; n_struct];
    for i in 0..tab.m {
        let b = tab.basis[i];
        if b < n_struct {
            values[b] = tab.rhs(i).max(0.0);
        }
    }
    for (j, v) in problem.variables.iter().enumerate() {
        values[j] += v.lower;
    }
    let objective: f64 = problem
        .variables
        .iter()
        .enumerate()
        .map(|(j, v)| v.objective * values[j])
        .sum();

    OPTIMAL.inc();
    tomo_obs::debug!("lp.simplex", "optimal: objective {objective:.6e}");
    Ok(LpSolution::new(LpStatus::Optimal, objective, values))
}

#[cfg(test)]
mod tests {
    use crate::{LpProblem, LpStatus, Objective, Relation, VarId, WarmStart};
    use std::sync::Mutex;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Serializes tests that manipulate `TOMO_LP_WARM` — process-global
    /// environment, so concurrent test threads would race otherwise.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` with the warm-start size gate forced open (the test
    /// problems here are all far below [`super::WARM_MIN_CELLS`]),
    /// restoring the prior environment afterwards.
    fn with_warm_forced(f: impl FnOnce()) {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prior = std::env::var("TOMO_LP_WARM").ok();
        std::env::set_var("TOMO_LP_WARM", "force");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        match prior {
            Some(v) => std::env::set_var("TOMO_LP_WARM", v),
            None => std::env::remove_var("TOMO_LP_WARM"),
        }
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }

    /// A small Ge/Eq-laden problem family parameterized by rhs, so warm
    /// solves exercise the phase-1 skip across rhs changes.
    fn family_instance(demand: f64) -> (LpProblem, VarId, VarId) {
        // min 2x + 3y s.t. x + y ≥ demand, x − y = demand/4, x,y ∈ [0, 100].
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, Some(100.0)).unwrap();
        let y = lp.add_variable("y", 0.0, Some(100.0)).unwrap();
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, demand)
            .unwrap();
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, demand / 4.0)
            .unwrap();
        (lp, x, y)
    }

    #[test]
    fn armed_faults_surface_as_typed_errors_then_clear() {
        let (lp, _, _) = family_instance(10.0);

        crate::chaos::arm(crate::chaos::SolveFault::IterationExhaustion);
        match lp.solve() {
            Err(crate::LpError::IterationLimit { .. }) => {}
            other => panic!("expected IterationLimit, got {other:?}"),
        }

        crate::chaos::arm(crate::chaos::SolveFault::SingularWarmBasis);
        match lp.solve() {
            Err(crate::LpError::SingularBasis { rows }) => assert!(rows >= 2),
            other => panic!("expected SingularBasis, got {other:?}"),
        }

        // The fault is consumed: the very next solve is healthy, and a
        // warm solve after a faulted one still matches cold.
        let cold = lp.solve().unwrap();
        assert!(cold.is_optimal());
        let warm = WarmStart::new();
        crate::chaos::arm(crate::chaos::SolveFault::SingularWarmBasis);
        assert!(lp.solve_warm(&warm).is_err());
        let hot = lp.solve_warm(&warm).unwrap();
        assert_close(hot.objective_value(), cold.objective_value());
    }

    #[test]
    fn warm_solve_matches_cold_across_rhs_sweep() {
        with_warm_forced(|| {
            let warm = WarmStart::new();
            for step in 0..20 {
                let demand = 4.0 + f64::from(step) * 1.7;
                let (lp, x, y) = family_instance(demand);
                let cold = lp.solve().unwrap();
                let hot = lp.solve_warm(&warm).unwrap();
                assert_eq!(cold.status(), hot.status(), "demand {demand}");
                assert!(
                    (cold.objective_value() - hot.objective_value()).abs()
                        <= 1e-9 * (1.0 + cold.objective_value().abs()),
                    "demand {demand}: cold {} warm {}",
                    cold.objective_value(),
                    hot.objective_value()
                );
                for v in [x, y] {
                    assert!((cold.value(v) - hot.value(v)).abs() <= 1e-7);
                }
            }
            // The sweep shares one skeleton.
            assert_eq!(warm.len(), 1);
        });
    }

    #[test]
    fn warm_falls_back_cold_when_basis_goes_infeasible() {
        with_warm_forced(|| {
            let warm = WarmStart::new();
            // Seed the cache at a comfortably feasible instance…
            let (lp, _, _) = family_instance(10.0);
            assert!(lp.solve_warm(&warm).unwrap().is_optimal());
            // …then jump to an infeasible instance of the same skeleton
            // (demand above both upper bounds combined).
            let (hard, _, _) = family_instance(500.0);
            let sol = hard.solve_warm(&warm).unwrap();
            assert_eq!(sol.status(), LpStatus::Infeasible);
            // And back: the cache must still warm the feasible region.
            let (back, x, y) = family_instance(12.0);
            let sol = back.solve_warm(&warm).unwrap();
            assert!(sol.is_optimal());
            let cold = back.solve().unwrap();
            assert_close(sol.objective_value(), cold.objective_value());
            assert_close(sol.value(x), cold.value(x));
            assert_close(sol.value(y), cold.value(y));
        });
    }

    #[test]
    fn warm_reenters_phase1_on_repeated_infeasible_skeleton() {
        with_warm_forced(|| {
            let warm = WarmStart::new();
            // The first infeasible solve must cache its phase-1 terminal
            // basis (before this existed, infeasible solves stored nothing
            // and streams of infeasible instances never warmed up).
            let (a, _, _) = family_instance(500.0);
            assert_eq!(a.solve_warm(&warm).unwrap().status(), LpStatus::Infeasible);
            assert_eq!(warm.len(), 1, "infeasible solve must seed the cache");
            // A second infeasible instance of the same skeleton crashes the
            // cached basis and re-certifies infeasibility from it.
            let (b, _, _) = family_instance(480.0);
            assert_eq!(b.solve_warm(&warm).unwrap().status(), LpStatus::Infeasible);
            assert_eq!(b.solve().unwrap().status(), LpStatus::Infeasible);
            // And a feasible instance afterwards still solves correctly.
            let (c, x, y) = family_instance(12.0);
            let hot = c.solve_warm(&warm).unwrap();
            let cold = c.solve().unwrap();
            assert!(hot.is_optimal());
            assert_close(hot.objective_value(), cold.objective_value());
            assert_close(hot.value(x), cold.value(x));
            assert_close(hot.value(y), cold.value(y));
        });
    }

    #[test]
    fn warm_handles_unbounded_and_all_le_problems() {
        with_warm_forced(|| {
            let warm = WarmStart::new();
            // All-Le problem: no artificials, warm path must still work.
            let mut lp = LpProblem::new(Objective::Maximize);
            let x = lp.add_variable("x", 0.0, Some(7.0)).unwrap();
            lp.set_objective_coefficient(x, 1.0);
            lp.add_constraint(&[(x, 1.0)], Relation::Le, 5.0).unwrap();
            assert_close(lp.solve_warm(&warm).unwrap().value(x), 5.0);
            assert_close(lp.solve_warm(&warm).unwrap().value(x), 5.0);

            // Unbounded problem solved warm twice.
            let mut ub = LpProblem::new(Objective::Maximize);
            let z = ub.add_variable("z", 0.0, None).unwrap();
            ub.set_objective_coefficient(z, 1.0);
            ub.add_constraint(&[(z, -1.0)], Relation::Le, 3.0).unwrap();
            assert_eq!(ub.solve_warm(&warm).unwrap().status(), LpStatus::Unbounded);
            assert_eq!(ub.solve_warm(&warm).unwrap().status(), LpStatus::Unbounded);
        });
    }

    #[test]
    fn skeleton_hash_separates_structure_not_data() {
        let (a, _, _) = family_instance(10.0);
        let (b, _, _) = family_instance(99.0);
        // Same structure, different rhs: same skeleton.
        assert_eq!(a.skeleton_hash(), b.skeleton_hash());
        // Different relation: different skeleton.
        let mut c = LpProblem::new(Objective::Minimize);
        let x = c.add_variable("x", 0.0, Some(100.0)).unwrap();
        let y = c.add_variable("y", 0.0, Some(100.0)).unwrap();
        c.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 10.0)
            .unwrap();
        c.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 2.5)
            .unwrap();
        assert_ne!(a.skeleton_hash(), c.skeleton_hash());
    }

    #[test]
    fn warm_cache_skipped_below_size_gate() {
        // With TOMO_LP_WARM unset, toy problems (far below
        // WARM_MIN_CELLS) must bypass the cache entirely: no slots
        // stored, no hit/miss outcome recorded.
        let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prior = std::env::var("TOMO_LP_WARM").ok();
        std::env::remove_var("TOMO_LP_WARM");
        let result = std::panic::catch_unwind(|| {
            let warm = WarmStart::new();
            let (lp, _, _) = family_instance(10.0);
            let hot = lp.solve_warm(&warm).unwrap();
            let cold = lp.solve().unwrap();
            assert!(hot.is_optimal());
            assert_close(hot.objective_value(), cold.objective_value());
            assert!(warm.is_empty(), "gated solve must not touch the cache");
            assert_eq!(
                crate::take_last_warm_outcome(),
                None,
                "gated solve records no warm outcome"
            );
        });
        match prior {
            Some(v) => std::env::set_var("TOMO_LP_WARM", v),
            None => std::env::remove_var("TOMO_LP_WARM"),
        }
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn standard_dims_counts_rows_and_columns() {
        // family_instance: Ge + Eq rows plus two upper-bound rows →
        // m = 4; slacks: Ge surplus + 2 upper-bound slacks = 3;
        // artificials: Ge + Eq = 2; ncols = 2 structural + 3 + 2.
        let (lp, _, _) = family_instance(10.0);
        assert_eq!(super::standard_dims(&lp), (4, 7));

        // A negative-rhs Le row flips to Ge and gains an artificial.
        let mut neg = LpProblem::new(Objective::Minimize);
        let x = neg.add_variable("x", 0.0, None).unwrap();
        neg.set_objective_coefficient(x, 1.0);
        neg.add_constraint(&[(x, -1.0)], Relation::Le, -3.0)
            .unwrap();
        // m = 1; slack (surplus after the flip) = 1; artificial = 1.
        assert_eq!(super::standard_dims(&neg), (1, 3));

        // Lower-bound shifts change the effective rhs sign: x ≥ 5 with
        // rhs 2 becomes x' ≥ -3, normalized to a Le row (slack, no
        // artificial).
        let mut shifted = LpProblem::new(Objective::Minimize);
        let x = shifted.add_variable("x", 5.0, None).unwrap();
        shifted.set_objective_coefficient(x, 1.0);
        shifted
            .add_constraint(&[(x, 1.0)], Relation::Ge, 2.0)
            .unwrap();
        assert_eq!(super::standard_dims(&shifted), (1, 2));
    }

    #[test]
    fn mode_resolution_precedence() {
        use super::{resolve_mode, SolverMode, AUTO_REVISED_MIN_CELLS};
        let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prior = std::env::var("TOMO_LP_MODE").ok();
        std::env::remove_var("TOMO_LP_MODE");
        let result = std::panic::catch_unwind(|| {
            // Explicit modes pass through untouched.
            assert_eq!(
                resolve_mode(SolverMode::Dense, 1 << 20, 1 << 20),
                SolverMode::Dense
            );
            assert_eq!(resolve_mode(SolverMode::Revised, 2, 2), SolverMode::Revised);
            // Auto picks by cell count.
            assert_eq!(resolve_mode(SolverMode::Auto, 10, 20), SolverMode::Dense);
            assert_eq!(
                resolve_mode(SolverMode::Auto, AUTO_REVISED_MIN_CELLS, 1),
                SolverMode::Revised
            );
            // The env override steers Auto only.
            std::env::set_var("TOMO_LP_MODE", "revised");
            assert_eq!(resolve_mode(SolverMode::Auto, 2, 2), SolverMode::Revised);
            assert_eq!(resolve_mode(SolverMode::Dense, 2, 2), SolverMode::Dense);
            std::env::set_var("TOMO_LP_MODE", "dense");
            assert_eq!(
                resolve_mode(SolverMode::Auto, AUTO_REVISED_MIN_CELLS, 2),
                SolverMode::Dense
            );
            assert_eq!(resolve_mode(SolverMode::Revised, 2, 2), SolverMode::Revised);
        });
        match prior {
            Some(v) => std::env::set_var("TOMO_LP_MODE", v),
            None => std::env::remove_var("TOMO_LP_MODE"),
        }
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), z = 36.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0).unwrap();
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints_needs_phase1() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2 → (10 − y)... optimum (10, 0)?
        // 2·10 = 20 vs using y: y costs more per unit, so x = 10, y = 0, z = 20.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 20.0);
        assert_close(sol.value(x), 10.0);
        assert_close(sol.value(y), 0.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, 3x + 2y = 8 → x = 2, y = 1, z = 3.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0)
            .unwrap();
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Eq, 8.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
        assert_close(sol.objective_value(), 3.0);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2 simultaneously.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status(), LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, -1.0)], Relation::Le, 5.0).unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status(), LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, Some(3.5)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 3.5);
    }

    #[test]
    fn nonzero_lower_bounds_shifted_correctly() {
        // min x + y, x ≥ 2, y ∈ [1, 5], x + y ≥ 6 → x = 5? No:
        // cheapest is any combination summing to 6 with x ≥ 2, y ≥ 1;
        // objective is symmetric, optimum value 6.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 2.0, None).unwrap();
        let y = lp.add_variable("y", 1.0, Some(5.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 6.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 6.0);
        assert!(sol.value(x) >= 2.0 - 1e-9);
        assert!(sol.value(y) >= 1.0 - 1e-9);
        assert!(sol.value(y) <= 5.0 + 1e-9);
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // x − y ≤ −2 with x,y ≥ 0: feasible (e.g. y ≥ 2).
        // max x s.t. x − y ≤ −2, y ≤ 10 → x = 8.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, Some(10.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -2.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 8.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(y, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, 2.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 1.0);
    }

    #[test]
    fn redundant_equalities_handled() {
        // The same equality twice: phase 1 leaves a redundant artificial.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, Some(9.0)).unwrap();
        let y = lp.add_variable("y", 0.0, Some(9.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0)
            .unwrap();
        lp.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 10.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.value(y), 5.0);
        assert_close(sol.value(x), 0.0);
        assert_close(sol.objective_value(), 10.0);
    }

    #[test]
    fn empty_objective_still_finds_feasible_point() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 3.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert!(sol.value(x) >= 3.0 - 1e-9);
    }

    #[test]
    fn no_constraints_bounded_by_upper_bounds() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 1.0, Some(2.0)).unwrap();
        lp.set_objective_coefficient(x, 4.0);
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 8.0);
    }

    #[test]
    fn infeasible_through_bounds_and_constraint() {
        // x ∈ [0, 1] but x ≥ 2 required.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, Some(1.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(lp.solve().unwrap().status(), LpStatus::Infeasible);
    }

    #[test]
    fn many_variable_chain() {
        // max Σ xᵢ with chain constraints xᵢ + xᵢ₊₁ ≤ 1: optimum is
        // ⌈n/2⌉ (alternating 1,0,1,0,…).
        let n = 21;
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_variable(format!("x{i}"), 0.0, Some(1.0)).unwrap())
            .collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, 1.0);
        }
        for w in vars.windows(2) {
            lp.add_constraint(&[(w[0], 1.0), (w[1], 1.0)], Relation::Le, 1.0)
                .unwrap();
        }
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 11.0);
    }
}
