//! The exact settlement-probability dynamic program of paper Section 6.6.
//!
//! Under the `(ε, p_h)`-Bernoulli condition the pair `(ρ(xy), µ_x(y))`
//! evolves as a Markov chain (Theorem 5). Propagating its joint law for
//! `k` steps and summing the mass with `µ ≥ 0` yields the **exact**
//! probability that slot `|x| + 1` suffers a `k`-settlement violation —
//! the numbers published in Table 1 of the paper.
//!
//! The initial law of `ρ(x)`:
//!
//! * for `|x| → ∞`, the paper uses the dominating stationary law
//!   `X_∞(r) = (1 − β) β^r` with `β = (1 − ε)/(1 + ε)` (Equation (9));
//! * for finite `|x| = m`, the birth–death recurrence of Equation (13)
//!   propagated `m` steps from `ρ(ε) = 0`.
//!
//! ## Exact truncation
//!
//! A naive implementation needs `O(T)` reach values and `O(T)` margin
//! values per step (`O(T³)` total, as in the paper). We sharpen this with
//! two *lossless* truncations for a fixed horizon `k`:
//!
//! * margins below `−(k + 1)` can never return to `0` within the horizon —
//!   an absorbing "dead" floor;
//! * reaches (and margins) above `C = k + 2` stay positive throughout the
//!   horizon, so `C` acts as an absorbing ceiling whose exact value never
//!   influences the `µ ≥ 0` statistics below it.
//!
//! Both arguments rely on `|ρ' − ρ| ≤ 1` and `|µ' − µ| ≤ 1` per step, which
//! Theorem 5's recurrence guarantees.
//!
//! ## Banded double-buffer kernel
//!
//! Within the truncated rectangle the occupied set is much smaller than
//! `O(k²)` for most of the run, and the kernel exploits that:
//!
//! * **Live band bounds, per row.** All mass starts on the diagonal
//!   `µ = ρ` and every transition moves `ρ` and `µ` by at most one cell,
//!   so target row `t` is written only from source rows `t − 1`, `t` and
//!   `t + 1`. The lattice keeps one live interval `lo[r]..=hi[r]` per row
//!   (plus the live row range `r_lo..=r_hi`). Each step scans every
//!   source row's interval down to its first and last non-zero cell,
//!   derives each target row's writable interval as the hull of its three
//!   source rows' tight intervals widened by one and clipped to
//!   `[floor, min(t, cap)]`, zeroes only that, and scatters only the tight
//!   source intervals. The skew of row `r` is thereby capped near
//!   `step − r` row by row instead of by one global bound, and regions
//!   whose mass underflows to exact zero (e.g. the geometric reach tail
//!   for small `α`) are never touched again. This is lossless: a cell
//!   outside its row's interval provably holds zero mass.
//! * **Ping-pong buffers.** `step` scatters into a pre-allocated second
//!   buffer (zeroing only the writable intervals) and swaps it, and the
//!   interval vectors, in — no heap allocation after construction.
//! * **Checkpoint-only accounting.** The `Pr[µ ≥ 0]` Kahan sweep runs only
//!   at requested checkpoints; `violation_by_horizon` instead fuses the
//!   absorption of violating mass into the step itself (an incremental
//!   accumulator), so no per-step full sweep remains anywhere.
//!
//! Per source cell the kernel performs the same floating-point additions
//! in the same order as the straightforward full-rectangle scan, so its
//! output is bit-for-bit identical to the reference kernel (kept under
//! `#[cfg(test)]` and compared exhaustively).

use multihonest_chars::BernoulliCondition;

/// Exact `k`-settlement violation probabilities under a Bernoulli
/// condition (paper Section 6.6; regenerates Table 1).
///
/// # Examples
///
/// ```
/// use multihonest_chars::BernoulliCondition;
/// use multihonest_margin::ExactSettlement;
///
/// // α = Pr[A] = 0.30, all honest slots uniquely honest.
/// let cond = BernoulliCondition::from_probabilities(0.70, 0.0, 0.30)?;
/// let exact = ExactSettlement::new(cond);
/// let p = exact.violation_probability(100);
/// // Table 1 row (Pr[h]/(1−α) = 1.0, k = 100, α = 0.30): 8.00E-04.
/// assert!((p / 8.00e-4 - 1.0).abs() < 0.05, "p = {p:e}");
/// # Ok::<(), multihonest_chars::DistributionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExactSettlement {
    cond: BernoulliCondition,
}

/// The joint law of `(ρ, µ)` over the truncated lattice, plus absorbed
/// mass buckets.
///
/// Invariant: every cell holding non-zero mass lies in a live row
/// `r ∈ r_lo..=r_hi` and inside that row's live interval
/// `m ∈ lo[r]..=hi[r]` (a row with `lo[r] > hi[r]` is empty), which in turn
/// lies inside the structural `floor ≤ m ≤ min(r, cap)`. Cells outside
/// the intervals may hold stale values from two steps ago and must never
/// be read; intervals of rows outside `r_lo..=r_hi` are stale too. All
/// sweeps below are interval-restricted.
#[derive(Debug, Clone)]
struct Lattice {
    /// Horizon this lattice was sized for.
    cap: i64,
    /// Margin floor (absorbing dead state), `= −(k + 1)`.
    floor: i64,
    /// `mass[idx(r, m)]`, `r ∈ 0..=cap`, `m ∈ floor..=cap`, `m ≤ r`.
    mass: Vec<f64>,
    /// Ping-pong partner of `mass`; holds the previous step outside the
    /// current intervals.
    next: Vec<f64>,
    /// Mass absorbed at "margin ≥ cap forever" (always a violation).
    always: f64,
    /// Mass retired below the dynamic dead floor: cells whose margin can
    /// no longer return to `0` within the remaining steps of the run.
    /// Never read by any violation statistic (its margin is negative at
    /// every remaining checkpoint); kept only so total mass is conserved.
    dead: f64,
    width: usize,
    /// Live rows: lowest/highest row that may hold mass (empty if
    /// `r_lo > r_hi`).
    r_lo: i64,
    r_hi: i64,
    /// Live interval `lo[r]..=hi[r]` of each row of `mass`.
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Ping-pong partners of `lo` / `hi`: the intervals of `next`.
    next_lo: Vec<i64>,
    next_hi: Vec<i64>,
}

impl Lattice {
    fn new(k: usize) -> Lattice {
        let cap = k as i64 + 2;
        let floor = -(k as i64 + 1);
        let width = (cap - floor + 1) as usize;
        let rows = cap as usize + 1;
        let cells = rows * width;
        Lattice {
            cap,
            floor,
            mass: vec![0.0; cells],
            next: vec![0.0; cells],
            always: 0.0,
            dead: 0.0,
            width,
            r_lo: 0,
            r_hi: -1,
            lo: vec![0; rows],
            hi: vec![-1; rows],
            next_lo: vec![0; rows],
            next_hi: vec![-1; rows],
        }
    }

    #[inline]
    fn idx(&self, r: i64, m: i64) -> usize {
        debug_assert!((0..=self.cap).contains(&r));
        debug_assert!((self.floor..=self.cap).contains(&m));
        r as usize * self.width + (m - self.floor) as usize
    }

    /// The live margin interval of row `r` (empty if `lo > hi`, and for
    /// every row outside `r_lo..=r_hi`).
    #[inline]
    fn row_cols(&self, r: i64) -> (i64, i64) {
        if r < self.r_lo || r > self.r_hi {
            return (0, -1);
        }
        (self.lo[r as usize], self.hi[r as usize])
    }

    /// Seeds the diagonal `µ = ρ = r` with the given reach distribution;
    /// `tail` is the lumped mass `Pr[ρ ≥ cap]` (always a violation within
    /// the horizon). Must be called once, on a fresh lattice.
    fn seed(&mut self, reach_law: &[f64], tail: f64) {
        debug_assert_eq!(reach_law.len() as i64, self.cap);
        debug_assert!(self.r_lo > self.r_hi, "seeding a non-empty lattice");
        for (r, &p) in reach_law.iter().enumerate() {
            let i = self.idx(r as i64, r as i64);
            self.mass[i] += p;
            if p != 0.0 {
                (self.lo[r], self.hi[r]) = (r as i64, r as i64);
                if self.r_lo > self.r_hi {
                    self.r_lo = r as i64;
                }
                self.r_hi = r as i64;
            }
        }
        self.always += tail;
    }

    /// One step of the Theorem-5 Markov chain.
    ///
    /// `remaining` is the number of steps that will follow this one before
    /// the run's final checkpoint; cells whose margin falls below
    /// `−remaining` can never climb back to `0` in time (margins move by
    /// at most one per step), so the step retires them into the `dead`
    /// bucket. This leaves every violation statistic of the run bit-for-bit
    /// unchanged while shrinking the live intervals from below. Pass a
    /// `remaining` at least as large as the true number of steps left if
    /// the horizon is unknown (e.g. `i64::MAX >> 1` disables the trim).
    fn step(&mut self, p_h: f64, p_hh: f64, p_a: f64, remaining: i64) {
        self.step_impl::<false>(p_h, p_hh, p_a, remaining);
    }

    /// One step that immediately diverts any mass landing on `µ ≥ 0` into
    /// the `always` bucket — equivalent to `step` followed by
    /// [`Self::absorb_violations`], without the extra sweep.
    fn step_absorbing(&mut self, p_h: f64, p_hh: f64, p_a: f64, remaining: i64) {
        self.step_impl::<true>(p_h, p_hh, p_a, remaining);
    }

    fn step_impl<const ABSORB: bool>(&mut self, p_h: f64, p_hh: f64, p_a: f64, remaining: i64) {
        let (cap, floor, width) = (self.cap, self.floor, self.width);
        // 1. Tighten every source row's interval to its first/last non-zero
        // cell. A dedicated scan keeps the hot transition loop branch-free.
        let (mut s_r_lo, mut s_r_hi) = (i64::MAX, i64::MIN);
        for r in self.r_lo..=self.r_hi {
            let ri = r as usize;
            let (lo, hi) = (self.lo[ri], self.hi[ri]);
            if lo > hi {
                continue;
            }
            let base = ri * width;
            let row = &self.mass[base + (lo - floor) as usize..=base + (hi - floor) as usize];
            let Some(first) = row.iter().position(|&p| p != 0.0) else {
                (self.lo[ri], self.hi[ri]) = (0, -1);
                continue;
            };
            let last = row.iter().rposition(|&p| p != 0.0).expect("first exists");
            (self.lo[ri], self.hi[ri]) = (lo + first as i64, lo + last as i64);
            s_r_lo = s_r_lo.min(r);
            s_r_hi = r;
        }
        if s_r_lo == i64::MAX {
            // All mass was previously absorbed or retired.
            (self.r_lo, self.r_hi) = (0, -1);
            return;
        }
        // 2. Every transition moves µ by at most one and ρ by at most one
        // (or keeps it), so target row t is written only from source rows
        // t − 1, t and t + 1, within one cell of their tight intervals.
        // Zero exactly that writable interval of the scratch buffer.
        let (t_lo, t_hi) = ((s_r_lo - 1).max(0), (s_r_hi + 1).min(cap));
        for t in t_lo..=t_hi {
            let (mut a, mut b) = (i64::MAX, i64::MIN);
            for s in (t - 1).max(s_r_lo)..=(t + 1).min(s_r_hi) {
                let si = s as usize;
                if self.lo[si] <= self.hi[si] {
                    a = a.min(self.lo[si]);
                    b = b.max(self.hi[si]);
                }
            }
            let a = a.saturating_sub(1).max(floor);
            // Absorbing mode diverts every landing on µ ≥ 0.
            let top = if ABSORB { t.min(-1) } else { t };
            let b = b.saturating_add(1).min(top);
            let ti = t as usize;
            (self.next_lo[ti], self.next_hi[ti]) = (a, b);
            if a <= b {
                let base = ti * width;
                self.next[base + (a - floor) as usize..=base + (b - floor) as usize].fill(0.0);
            }
        }
        // 3. Scatter each source row's tight interval.
        // Kahan-compensated absorption accumulator (ABSORB mode only).
        let (mut abs_acc, mut abs_c) = (0.0f64, 0.0f64);
        let kahan_absorb = |x: f64, acc: &mut f64, c: &mut f64| {
            let y = x - *c;
            let t = *acc + y;
            *c = (t - *acc) - y;
            *acc = t;
        };
        let mass = &self.mass;
        let next = &mut self.next;
        for r in s_r_lo..=s_r_hi {
            let (m_from, m_to) = (self.lo[r as usize], self.hi[r as usize]);
            if m_from > m_to {
                continue;
            }
            let src_base = r as usize * width;
            // Row bases of the three possible target rows.
            let r_up = (r + 1).min(cap);
            let up_base = r_up as usize * width;
            let r_dn = if r == cap { cap } else { (r - 1).max(0) };
            let dn_base = r_dn as usize * width;
            let positive_reach = r > 0;
            if !ABSORB && r > 0 && r < cap {
                // Fast path for interior rows: away from the edge cells
                // (`m ∈ {floor, 0}`; `m = cap` needs `r = cap`) every source
                // performs the same three scatter adds at fixed offsets
                //   A: (r+1, m+1)   h: (r−1, m−1)   H: (r−1, m−1)
                // so the row splits into contiguous segments processed over
                // equal-length slices — no per-cell branch, no recomputed
                // indices. Adding a zero source's `+0.0` products is a
                // bitwise no-op (all masses are non-negative), so zero
                // cells inside the interval need no skip.
                let mut seg_lo = m_from;
                if seg_lo == floor {
                    // Dead floor: absorbing in place.
                    let i = src_base + (seg_lo - floor) as usize;
                    next[i] += mass[i];
                    seg_lo += 1;
                }
                let (low, high) = next.split_at_mut(src_base);
                let bulk = |a: i64, b: i64, low: &mut [f64], high: &mut [f64]| {
                    if a > b {
                        return;
                    }
                    let len = (b - a + 1) as usize;
                    let s0 = src_base + (a - floor) as usize;
                    let src = &mass[s0..s0 + len];
                    let d0 = dn_base + (a - 1 - floor) as usize;
                    let dn = &mut low[d0..d0 + len];
                    let u0 = (up_base - src_base) + (a + 1 - floor) as usize;
                    let up = &mut high[u0..u0 + len];
                    for ((&p, d), u) in src.iter().zip(dn.iter_mut()).zip(up.iter_mut()) {
                        *u += p * p_a;
                        *d += p * p_h;
                        *d += p * p_hh;
                    }
                };
                if seg_lo <= 0 && 0 <= m_to {
                    bulk(seg_lo, -1, low, high);
                    // m = 0 with positive reach: h and H both keep µ at 0.
                    let p = mass[src_base + (-floor) as usize];
                    let d0 = dn_base + (-floor) as usize;
                    low[d0] += p * p_h;
                    low[d0] += p * p_hh;
                    let u0 = (up_base - src_base) + (1 - floor) as usize;
                    high[u0] += p * p_a;
                    bulk(1, m_to, low, high);
                } else {
                    // Row interval entirely below or above µ = 0.
                    bulk(seg_lo, m_to, low, high);
                }
                continue;
            }
            // General path: edge rows (`r ∈ {0, cap}`) and absorbing mode.
            for m in m_from..=m_to {
                let p = mass[src_base + (m - floor) as usize];
                if p == 0.0 {
                    continue;
                }
                // Dead floor: absorbing (margin can never recover in time).
                if m == floor {
                    next[src_base + (m - floor) as usize] += p;
                    continue;
                }
                // Ceiling: absorbing (µ stays ≥ 0 through the horizon).
                if m == cap {
                    if ABSORB {
                        kahan_absorb(p, &mut abs_acc, &mut abs_c);
                    } else {
                        next[src_base + (m - floor) as usize] += p;
                    }
                    continue;
                }
                // Adversarial symbol: both up (capped).
                {
                    let m2 = (m + 1).min(r_up);
                    if ABSORB && m2 >= 0 {
                        kahan_absorb(p * p_a, &mut abs_acc, &mut abs_c);
                    } else {
                        next[up_base + (m2 - floor) as usize] += p * p_a;
                    }
                }
                // Honest symbols: ρ decreases (absorbing at cap), µ per (14).
                // b = h:
                {
                    let m2 = if m == 0 && positive_reach { 0 } else { m - 1 };
                    let m2 = m2.max(floor);
                    if ABSORB && m2 >= 0 {
                        kahan_absorb(p * p_h, &mut abs_acc, &mut abs_c);
                    } else {
                        next[dn_base + (m2 - floor) as usize] += p * p_h;
                    }
                }
                // b = H:
                {
                    let m2 = if m == 0 { 0 } else { m - 1 };
                    let m2 = m2.max(floor);
                    if ABSORB && m2 >= 0 {
                        kahan_absorb(p * p_hh, &mut abs_acc, &mut abs_c);
                    } else {
                        next[dn_base + (m2 - floor) as usize] += p * p_hh;
                    }
                }
            }
        }
        if ABSORB {
            self.always += abs_acc;
        }
        std::mem::swap(&mut self.mass, &mut self.next);
        std::mem::swap(&mut self.lo, &mut self.next_lo);
        std::mem::swap(&mut self.hi, &mut self.next_hi);
        (self.r_lo, self.r_hi) = (t_lo, t_hi);
        // 4. Dynamic dead floor: a margin below `−remaining` cannot return
        // to `0` before the run ends, so such cells never contribute to any
        // later violation statistic (nor do their descendants, which stay
        // below the moving floor). Retire them and lift each row's lower
        // edge — this turns the dead lower triangle of the lattice into a
        // scalar bucket.
        let eff_floor = floor.max(-remaining - 1).min(cap);
        for r in t_lo..=t_hi {
            let ri = r as usize;
            if self.lo[ri] > eff_floor {
                continue;
            }
            let base = ri * width;
            for m in self.lo[ri]..=self.hi[ri].min(eff_floor) {
                self.dead += self.mass[base + (m - floor) as usize];
            }
            self.lo[ri] = eff_floor + 1;
        }
    }

    /// `Pr[µ ≥ 0]` right now (including the always-violated bucket).
    fn violation_mass(&self) -> f64 {
        let mut acc = self.always;
        let mut compensation = 0.0;
        for r in self.r_lo..=self.r_hi {
            let (m_from, m_to) = self.row_cols(r);
            let base = r as usize * self.width;
            for m in m_from.max(0)..=m_to {
                // Kahan summation: the masses span ~300 orders of magnitude.
                let y = self.mass[base + (m - self.floor) as usize] - compensation;
                let t = acc + y;
                compensation = (t - acc) - y;
                acc = t;
            }
        }
        acc
    }

    /// Moves all mass with `µ ≥ 0` into the `always` bucket (used by the
    /// absorbing "violated by horizon" variant).
    fn absorb_violations(&mut self) {
        for r in self.r_lo..=self.r_hi {
            let (m_from, m_to) = self.row_cols(r);
            let base = r as usize * self.width;
            for m in m_from.max(0)..=m_to {
                self.always += self.mass[base + (m - self.floor) as usize];
            }
            // Every row is now empty above µ = −1; tighten so subsequent
            // steps skip it. (Mass at negative margins is untouched.)
            self.hi[r as usize] = m_to.min(-1);
        }
    }

    /// The mass currently stored for cell `(r, m)`; zero outside the live
    /// intervals (the raw buffer may hold stale values there).
    #[cfg(test)]
    fn cell(&self, r: i64, m: i64) -> f64 {
        let (m_from, m_to) = self.row_cols(r);
        if m < m_from || m > m_to {
            return 0.0;
        }
        self.mass[self.idx(r, m)]
    }

    #[cfg(test)]
    fn total_mass(&self) -> f64 {
        let mut acc = self.always + self.dead;
        for r in self.r_lo..=self.r_hi {
            let (m_from, m_to) = self.row_cols(r);
            for m in m_from..=m_to {
                acc += self.mass[self.idx(r, m)];
            }
        }
        acc
    }
}

impl ExactSettlement {
    /// Creates the calculator for the given Bernoulli condition.
    pub fn new(cond: BernoulliCondition) -> ExactSettlement {
        ExactSettlement { cond }
    }

    /// The condition in force.
    pub fn condition(&self) -> BernoulliCondition {
        self.cond
    }

    /// The stationary dominating reach law `X_∞` truncated to `0..cap`,
    /// plus the lumped tail mass (Equation (9)).
    fn reach_law_stationary(&self, cap: usize) -> (Vec<f64>, f64) {
        let eps = self.cond.epsilon();
        let beta = (1.0 - eps) / (1.0 + eps);
        let mut law = Vec::with_capacity(cap);
        let mut acc = 0.0;
        for r in 0..cap {
            let p = (1.0 - beta) * beta.powi(r as i32);
            law.push(p);
            acc += p;
        }
        (law, (1.0 - acc).max(0.0))
    }

    /// The law of `ρ(x)` for `|x| = m`, truncated to `0..cap` with lumped
    /// tail, via the birth–death recurrence of Equation (13).
    ///
    /// The walk is run over an extended lattice `0..R` so that excursions
    /// above `cap` that later return are tracked exactly; only mass beyond
    /// `R` — at most `m·β^R < 1e-300` by stochastic dominance under `X_∞`
    /// — is conservatively lumped into the tail. Mass ending in `[cap, R)`
    /// is folded into the tail as well, which is *exact* for the settlement
    /// DP: an initial reach `≥ cap = k + 2` forces `µ ≥ 2` at every
    /// checkpoint within the horizon.
    fn reach_law_finite(&self, m: usize, cap: usize) -> (Vec<f64>, f64) {
        let p_a = self.cond.p_adversarial();
        let p_honest = 1.0 - p_a;
        let eps = self.cond.epsilon();
        let beta = (1.0 - eps) / (1.0 + eps);
        // Extra headroom so that the chance of ever crossing R within m
        // steps is below ~1e-300 (union bound over steps, each dominated
        // by the stationary tail β^R).
        let extra = if beta <= 0.0 {
            0
        } else {
            let need = (1e-300f64 / (m as f64 + 1.0)).ln() / beta.ln();
            (need.ceil().max(0.0) as usize).min(m)
        };
        let r_max = cap + extra;
        let mut law = vec![0.0; r_max];
        let mut escaped = 0.0;
        law[0] = 1.0;
        for _ in 0..m {
            let mut next = vec![0.0; r_max];
            for (r, &p) in law.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                if r + 1 < r_max {
                    next[r + 1] += p * p_a;
                } else {
                    escaped += p * p_a;
                }
                next[r.saturating_sub(1)] += p * p_honest;
            }
            law = next;
        }
        let mut tail = escaped;
        for &p in &law[cap..] {
            tail += p;
        }
        law.truncate(cap);
        (law, tail)
    }

    /// The exact probability that slot `|x| + 1` suffers a `k`-settlement
    /// violation — `Pr[µ_x(y) ≥ 0]` at `|y| = k` — in the limit
    /// `|x| → ∞` (Table 1's setting).
    pub fn violation_probability(&self, k: usize) -> f64 {
        *self
            .violation_probabilities(&[k])
            .first()
            .expect("one checkpoint requested")
    }

    /// [`Self::violation_probability`] at several checkpoints, sharing one
    /// DP pass sized for the largest. The full `Pr[µ ≥ 0]` sweep runs only
    /// at the requested checkpoints, never at intermediate steps.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty.
    pub fn violation_probabilities(&self, checkpoints: &[usize]) -> Vec<f64> {
        assert!(!checkpoints.is_empty(), "need at least one checkpoint");
        let k_max = *checkpoints.iter().max().expect("non-empty");
        let mut lat = Lattice::new(k_max);
        let (law, tail) = self.reach_law_stationary(lat.cap as usize);
        lat.seed(&law, tail);
        self.run(&mut lat, checkpoints, k_max)
    }

    /// Violation probabilities with a finite prefix `|x| = m` instead of
    /// the stationary law.
    pub fn violation_probabilities_finite_prefix(
        &self,
        m: usize,
        checkpoints: &[usize],
    ) -> Vec<f64> {
        assert!(!checkpoints.is_empty(), "need at least one checkpoint");
        let k_max = *checkpoints.iter().max().expect("non-empty");
        let mut lat = Lattice::new(k_max);
        let (law, tail) = self.reach_law_finite(m, lat.cap as usize);
        lat.seed(&law, tail);
        self.run(&mut lat, checkpoints, k_max)
    }

    fn run(&self, lat: &mut Lattice, checkpoints: &[usize], k_max: usize) -> Vec<f64> {
        let p_h = self.cond.p_unique_honest();
        let p_hh = self.cond.p_multi_honest();
        let p_a = self.cond.p_adversarial();
        let mut needed = vec![false; k_max + 1];
        for &k in checkpoints {
            needed[k] = true;
        }
        let mut at = vec![f64::NAN; k_max + 1];
        if needed[0] {
            at[0] = lat.violation_mass();
        }
        for step in 1..=k_max {
            lat.step(p_h, p_hh, p_a, (k_max - step) as i64);
            if needed[step] {
                at[step] = lat.violation_mass();
            }
        }
        checkpoints.iter().map(|&k| at[k].min(1.0)).collect()
    }

    /// The probability that a violation occurs **at any horizon in
    /// `k..=horizon`** (the conservative reading of Definition 3, where
    /// the adversary may strike at any time once `k` slots have passed):
    /// `Pr[∃ L ∈ [k, horizon] : µ_x(y_L) ≥ 0]`, `|x| → ∞`.
    ///
    /// Violating mass is absorbed incrementally inside the step kernel
    /// (no per-step sweep): after the one sweep at step `k`, every later
    /// transition landing on `µ ≥ 0` is diverted straight into the
    /// absorbed bucket with Kahan compensation.
    ///
    /// # Panics
    ///
    /// Panics if `horizon < k`.
    pub fn violation_by_horizon(&self, k: usize, horizon: usize) -> f64 {
        assert!(horizon >= k, "horizon {horizon} below checkpoint {k}");
        let mut lat = Lattice::new(horizon);
        let (law, tail) = self.reach_law_stationary(lat.cap as usize);
        lat.seed(&law, tail);
        let p_h = self.cond.p_unique_honest();
        let p_hh = self.cond.p_multi_honest();
        let p_a = self.cond.p_adversarial();
        for step in 1..=k {
            lat.step(p_h, p_hh, p_a, (horizon - step) as i64);
        }
        lat.absorb_violations();
        for step in k + 1..=horizon {
            lat.step_absorbing(p_h, p_hh, p_a, (horizon - step) as i64);
        }
        lat.always.min(1.0)
    }
}

#[cfg(test)]
mod reference {
    //! The pre-banding kernel, kept verbatim as the equivalence oracle:
    //! full-rectangle scan, fresh allocation per step, sweep-based
    //! absorption. The banded kernel must reproduce it bit-for-bit (modulo
    //! the documented Kahan compensation in fused absorption).

    pub(super) struct NaiveLattice {
        pub(super) cap: i64,
        floor: i64,
        mass: Vec<f64>,
        pub(super) always: f64,
        width: usize,
    }

    impl NaiveLattice {
        pub(super) fn new(k: usize) -> NaiveLattice {
            let cap = k as i64 + 2;
            let floor = -(k as i64 + 1);
            let width = (cap - floor + 1) as usize;
            NaiveLattice {
                cap,
                floor,
                mass: vec![0.0; (cap as usize + 1) * width],
                always: 0.0,
                width,
            }
        }

        fn idx(&self, r: i64, m: i64) -> usize {
            r as usize * self.width + (m - self.floor) as usize
        }

        pub(super) fn cell(&self, r: i64, m: i64) -> f64 {
            self.mass[self.idx(r, m)]
        }

        pub(super) fn seed(&mut self, reach_law: &[f64], tail: f64) {
            for (r, &p) in reach_law.iter().enumerate() {
                let i = self.idx(r as i64, r as i64);
                self.mass[i] += p;
            }
            self.always += tail;
        }

        pub(super) fn step(&mut self, p_h: f64, p_hh: f64, p_a: f64) {
            let mut next = vec![0.0; self.mass.len()];
            for r in 0..=self.cap {
                for m in self.floor..=r.min(self.cap) {
                    let p = self.mass[self.idx(r, m)];
                    if p == 0.0 {
                        continue;
                    }
                    if m == self.floor || m == self.cap {
                        next[self.idx(r, m)] += p;
                        continue;
                    }
                    {
                        let r2 = (r + 1).min(self.cap);
                        let m2 = (m + 1).min(r2);
                        next[self.idx(r2, m2)] += p * p_a;
                    }
                    let r2 = if r == self.cap {
                        self.cap
                    } else {
                        (r - 1).max(0)
                    };
                    let positive_reach = r > 0;
                    {
                        let m2 = if m == 0 && positive_reach { 0 } else { m - 1 };
                        next[self.idx(r2, m2.max(self.floor))] += p * p_h;
                    }
                    {
                        let m2 = if m == 0 { 0 } else { m - 1 };
                        next[self.idx(r2, m2.max(self.floor))] += p * p_hh;
                    }
                }
            }
            self.mass = next;
        }

        pub(super) fn violation_mass(&self) -> f64 {
            let mut acc = self.always;
            let mut compensation = 0.0;
            for r in 0..=self.cap {
                for m in 0..=r.min(self.cap) {
                    let y = self.mass[self.idx(r, m)] - compensation;
                    let t = acc + y;
                    compensation = (t - acc) - y;
                    acc = t;
                }
            }
            acc
        }

        pub(super) fn absorb_violations(&mut self) {
            for r in 0..=self.cap {
                for m in 0..=r.min(self.cap) {
                    let i = self.idx(r, m);
                    self.always += self.mass[i];
                    self.mass[i] = 0.0;
                }
            }
        }

        pub(super) fn total_mass(&self) -> f64 {
            self.always + self.mass.iter().sum::<f64>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_chars::CharString;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cond(alpha: f64, ph_ratio: f64) -> BernoulliCondition {
        let p_h = ph_ratio * (1.0 - alpha);
        BernoulliCondition::from_probabilities(p_h, 1.0 - alpha - p_h, alpha).unwrap()
    }

    #[test]
    fn mass_is_conserved() {
        let e = ExactSettlement::new(cond(0.3, 0.8));
        let mut lat = Lattice::new(40);
        let (law, tail) = e.reach_law_stationary(lat.cap as usize);
        lat.seed(&law, tail);
        assert!((lat.total_mass() - 1.0).abs() < 1e-12);
        for step in 0..40 {
            lat.step(0.35, 0.35, 0.3, 39 - step);
            assert!((lat.total_mass() - 1.0).abs() < 1e-9);
        }
    }

    /// Steps the banded lattice and the naive oracle in lockstep for `k`
    /// steps from the same seed `(law, tail)` and asserts, before every
    /// step, that every cell outside the banded row intervals is zero in
    /// the oracle and every cell inside agrees bit-for-bit — i.e. full
    /// cellwise bit identity above the dynamic dead floor. With
    /// `absorb_from = Some(j)` both sides absorb the `µ ≥ 0` mass after
    /// step `j`, and every later step compares the fused `step_absorbing`
    /// against naive `step` + `absorb_violations`.
    fn assert_lockstep_cellwise(
        e: &ExactSettlement,
        (law, tail): (Vec<f64>, f64),
        k: usize,
        absorb_from: Option<usize>,
    ) {
        let (p_h, p_hh, p_a) = (
            e.cond.p_unique_honest(),
            e.cond.p_multi_honest(),
            e.cond.p_adversarial(),
        );
        let ctx = format!("k={k}, absorb_from={absorb_from:?}, {:?}", e.cond);
        let mut banded = Lattice::new(k);
        let mut naive = reference::NaiveLattice::new(k);
        banded.seed(&law, tail);
        naive.seed(&law, tail);
        for step in 0..=k {
            if absorb_from == Some(step) {
                banded.absorb_violations();
                naive.absorb_violations();
            }
            // The banded kernel retires cells below the dynamic dead floor
            // −(k − step) − 1; above it (every cell that can still
            // influence a checkpoint) agreement is bit-for-bit.
            let alive_floor = (-((k - step) as i64)).max(banded.floor);
            for r in 0..=banded.cap {
                let (lo, hi) = banded.row_cols(r);
                if lo <= hi {
                    assert!(
                        banded.floor <= lo && hi <= r.min(banded.cap),
                        "row {r} interval [{lo}, {hi}] outside the lattice at step {step}, {ctx}"
                    );
                }
                for m in alive_floor..=r.min(banded.cap) {
                    let n = naive.cell(r, m);
                    if m < lo || m > hi {
                        assert_eq!(
                            n.to_bits(),
                            0,
                            "oracle mass {n:e} at ({r}, {m}) outside the row interval \
                             [{lo}, {hi}] at step {step}, {ctx}"
                        );
                        continue;
                    }
                    let b = banded.cell(r, m);
                    assert_eq!(
                        b.to_bits(),
                        n.to_bits(),
                        "cell ({r}, {m}) diverged at step {step}: {b:e} vs {n:e}, {ctx}"
                    );
                }
            }
            if absorb_from.is_some_and(|a| step >= a) {
                // Fused absorption is Kahan-compensated; the oracle's
                // sweep is a plain sum.
                let (b, n) = (banded.always, naive.always);
                assert!(
                    b == n || (b / n - 1.0).abs() < 1e-12,
                    "absorbed mass diverged at step {step}: {b:e} vs {n:e}, {ctx}"
                );
            } else {
                // The interval-restricted Kahan sweep may differ from the
                // full-rectangle sweep by an ulp (zero cells interact with
                // the compensation term), hence relative compare.
                let (bv, nv) = (banded.violation_mass(), naive.violation_mass());
                assert!(
                    bv == nv || (bv / nv - 1.0).abs() < 1e-14,
                    "violation mass diverged at step {step}: {bv:e} vs {nv:e}, {ctx}"
                );
            }
            if step == k {
                break;
            }
            let remaining = (k - step - 1) as i64;
            if absorb_from.is_some_and(|a| step >= a) {
                banded.step_absorbing(p_h, p_hh, p_a, remaining);
                naive.step(p_h, p_hh, p_a);
                naive.absorb_violations();
            } else {
                banded.step(p_h, p_hh, p_a, remaining);
                naive.step(p_h, p_hh, p_a);
            }
        }
    }

    #[test]
    fn banded_kernel_matches_naive_reference_cellwise() {
        // Exhaustive small-k agreement: every cell of the truncated
        // rectangle, every step, a sweep of conditions — the banded kernel
        // must be bit-for-bit the naive full-rectangle scan, and no oracle
        // mass may escape the banded row intervals.
        for alpha in [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49] {
            for ratio in [1.0, 0.8, 0.5, 0.25, 0.0] {
                let e = ExactSettlement::new(cond(alpha, ratio));
                for k in [1usize, 2, 3, 5, 8, 9, 16] {
                    assert_lockstep_cellwise(&e, e.reach_law_stationary(k + 2), k, None);
                }
            }
        }
    }

    #[test]
    fn fused_absorption_matches_naive_reference_cellwise() {
        // step_absorbing ≡ step + absorb_violations cell by cell, with the
        // switch at the seed, mid-run and at the last step.
        for (alpha, ratio) in [(0.3, 0.8), (0.45, 0.25), (0.2, 0.0), (0.1, 1.0)] {
            let e = ExactSettlement::new(cond(alpha, ratio));
            for (k, absorb_from) in [(6, 0), (12, 4), (20, 9), (9, 9)] {
                assert_lockstep_cellwise(&e, e.reach_law_stationary(k + 2), k, Some(absorb_from));
            }
        }
    }

    #[test]
    fn ragged_seeds_match_naive_reference_cellwise() {
        // Finite-prefix laws leave rows above the prefix length empty, and
        // a hand-made seed with runs of zero rows inside the occupied row
        // range exercises empty and single-cell row intervals, and target
        // rows fed only from the row above, from step one.
        for (alpha, ratio) in [(0.3, 0.5), (0.45, 1.0), (0.2, 0.0)] {
            let e = ExactSettlement::new(cond(alpha, ratio));
            for (m, k) in [(0, 10), (1, 14), (3, 18), (7, 12), (40, 16)] {
                assert_lockstep_cellwise(&e, e.reach_law_finite(m, k + 2), k, None);
                assert_lockstep_cellwise(&e, e.reach_law_finite(m, k + 2), k, Some(k / 2));
            }
            for k in [6usize, 11, 17] {
                // Single and double gaps: rows 1, 3–4, 6, 8–9, …
                let law: Vec<f64> = (0..k + 2)
                    .map(|r| match r % 5 {
                        1 | 3 | 4 => 0.0,
                        _ => 0.5f64.powi(r as i32 + 1),
                    })
                    .collect();
                let tail = 1.0 - law.iter().sum::<f64>();
                assert_lockstep_cellwise(&e, (law.clone(), tail), k, None);
                assert_lockstep_cellwise(&e, (law, tail), k, Some(2));
            }
        }
    }

    #[test]
    fn underflowing_reach_tail_matches_naive_reference_cellwise() {
        // At α = 0.01 the stationary reach law β^r (β ≈ 0.0101) underflows
        // to exact zero near r ≈ 160, so the seeded rows end well below
        // the ceiling and the mass underflows cell by cell as it spreads.
        let e = ExactSettlement::new(cond(0.01, 1.0));
        let k = 180;
        let (law, tail) = e.reach_law_stationary(k + 2);
        assert_eq!(
            law[k + 1],
            0.0,
            "the reach tail must underflow inside the lattice"
        );
        assert!(law[100] > 0.0);
        assert_lockstep_cellwise(&e, (law.clone(), tail), k, None);
        assert_lockstep_cellwise(&e, (law, tail), k, Some(60));
    }

    #[test]
    fn banded_kernel_matches_naive_reference_deep() {
        // Deeper horizons: compare the end-of-run statistics only.
        for (alpha, ratio, k) in [(0.3, 0.8, 60), (0.1, 1.0, 80), (0.4, 0.5, 50)] {
            let e = ExactSettlement::new(cond(alpha, ratio));
            let p_h = e.cond.p_unique_honest();
            let p_hh = e.cond.p_multi_honest();
            let p_a = e.cond.p_adversarial();
            let mut banded = Lattice::new(k);
            let mut naive = reference::NaiveLattice::new(k);
            let (law, tail) = e.reach_law_stationary(banded.cap as usize);
            banded.seed(&law, tail);
            naive.seed(&law, tail);
            for step in 1..=k {
                banded.step(p_h, p_hh, p_a, (k - step) as i64);
                naive.step(p_h, p_hh, p_a);
            }
            let (bv, nv) = (banded.violation_mass(), naive.violation_mass());
            assert!(
                bv == nv || (bv / nv - 1.0).abs() < 1e-14,
                "violation mass diverged: {bv:e} vs {nv:e}"
            );
            assert!((banded.total_mass() - naive.total_mass()).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_absorption_matches_sweep_absorption() {
        // step_absorbing ≡ step + absorb_violations, to Kahan accuracy.
        for (alpha, ratio, k, horizon) in [(0.3, 0.8, 10, 30), (0.2, 0.5, 8, 40)] {
            let e = ExactSettlement::new(cond(alpha, ratio));
            let p_h = e.cond.p_unique_honest();
            let p_hh = e.cond.p_multi_honest();
            let p_a = e.cond.p_adversarial();
            let fused = e.violation_by_horizon(k, horizon);
            let mut naive = reference::NaiveLattice::new(horizon);
            let (law, tail) = e.reach_law_stationary(naive.cap as usize);
            naive.seed(&law, tail);
            for _ in 0..k {
                naive.step(p_h, p_hh, p_a);
            }
            naive.absorb_violations();
            for _ in k..horizon {
                naive.step(p_h, p_hh, p_a);
                naive.absorb_violations();
            }
            let swept = naive.always.min(1.0);
            assert!(
                (fused / swept - 1.0).abs() < 1e-12,
                "fused {fused:e} vs swept {swept:e}"
            );
        }
    }

    #[test]
    fn checkpoint_only_accounting_matches_per_step() {
        // Sparse checkpoints must equal the same horizons read off a dense
        // (every-step) pass.
        let e = ExactSettlement::new(cond(0.25, 0.7));
        let sparse = e.violation_probabilities(&[7, 19, 40]);
        let dense = e.violation_probabilities(&(0..=40).collect::<Vec<_>>());
        assert_eq!(sparse[0], dense[7]);
        assert_eq!(sparse[1], dense[19]);
        assert_eq!(sparse[2], dense[40]);
        // Checkpoint order is preserved even when unsorted or duplicated.
        let shuffled = e.violation_probabilities(&[40, 7, 19, 7]);
        assert_eq!(shuffled, vec![sparse[2], sparse[0], sparse[1], sparse[0]]);
    }

    #[test]
    fn violation_probability_decreases_in_k() {
        let e = ExactSettlement::new(cond(0.2, 0.5));
        let ps = e.violation_probabilities(&[5, 10, 20, 40, 80]);
        for pair in ps.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-15, "not decreasing: {ps:?}");
        }
        assert!(ps[4] > 0.0, "strictly positive violation probability");
        assert!(ps[0] < 1.0);
    }

    #[test]
    fn more_adversarial_stake_is_worse() {
        let ks = [10, 30];
        let lo = ExactSettlement::new(cond(0.1, 0.8)).violation_probabilities(&ks);
        let hi = ExactSettlement::new(cond(0.4, 0.8)).violation_probabilities(&ks);
        for (a, b) in lo.iter().zip(&hi) {
            assert!(a < b, "α=0.1 should beat α=0.4: {a} vs {b}");
        }
    }

    #[test]
    fn multi_honest_slots_hurt_but_mildly() {
        // For fixed α, converting h-mass into H-mass weakly increases the
        // violation probability (H slots can tie) — yet consistency still
        // holds; this is the paper's central quantitative claim.
        let ks = [20, 60];
        let all_h = ExactSettlement::new(cond(0.25, 1.0)).violation_probabilities(&ks);
        let half = ExactSettlement::new(cond(0.25, 0.5)).violation_probabilities(&ks);
        let none = ExactSettlement::new(cond(0.25, 0.01)).violation_probabilities(&ks);
        for i in 0..ks.len() {
            assert!(all_h[i] <= half[i] + 1e-15);
            assert!(half[i] <= none[i] + 1e-15);
        }
        // Error still decays with k even when h-slots are very rare.
        assert!(none[1] < none[0]);
    }

    #[test]
    fn finite_prefix_converges_to_stationary() {
        let e = ExactSettlement::new(cond(0.3, 0.7));
        let ks = [15];
        let stationary = e.violation_probabilities(&ks)[0];
        let short = e.violation_probabilities_finite_prefix(0, &ks)[0];
        let long = e.violation_probabilities_finite_prefix(400, &ks)[0];
        // |x| = 0 (genesis split) is easier for the honest side.
        assert!(short <= stationary + 1e-12);
        // A long prefix approaches the stationary dominating law from below.
        assert!(long <= stationary + 1e-12);
        assert!(
            (long - stationary).abs() < 1e-3,
            "long = {long}, stat = {stationary}"
        );
        assert!(
            (short - stationary).abs() > 1e-6,
            "prefix length must matter"
        );
    }

    /// Definition ≡ DP, exhaustively: for every `(m, k)` with
    /// `m + k ≤ 12`, the finite-prefix DP equals the exact sum of
    /// `Pr[xy]·1[µ_x(y) ≥ 0]` over all `3^(m+k)` strings, enumerated by
    /// a prefix-sharing DFS over the Theorem-5 recurrences. This checks
    /// the DP's reach-law truncation and live-band arguments against the
    /// definition rather than against a second copy of the kernel.
    #[test]
    fn finite_prefix_matches_exhaustive_enumeration() {
        use crate::recurrence::{MarginState, ReachState};
        use multihonest_chars::Symbol;

        const N: usize = 12;

        /// Adds `p·1[µ ≥ 0]` of every extension `y` (`|y| ≤ N − m`) of the
        /// split state into `sums[|y|]`.
        fn walk_y(st: MarginState, p: f64, k: usize, sym: &[(Symbol, f64)], sums: &mut [f64]) {
            if st.mu() >= 0 {
                sums[k] += p;
            }
            if k + 1 < sums.len() {
                for &(s, q) in sym {
                    let mut next = st;
                    next.step(s);
                    walk_y(next, p * q, k + 1, sym, sums);
                }
            }
        }

        /// Enumerates every prefix `x` of length `m`, then its suffixes.
        fn walk_x(st: ReachState, p: f64, left: usize, sym: &[(Symbol, f64)], sums: &mut [f64]) {
            if left == 0 {
                walk_y(MarginState::at_split(st.rho()), p, 0, sym, sums);
                return;
            }
            for &(s, q) in sym {
                let mut next = st;
                next.step(s);
                walk_x(next, p * q, left - 1, sym, sums);
            }
        }

        let mut cells = 0;
        for (alpha, ratio) in [
            (0.10, 1.0),
            (0.20, 0.9),
            (0.30, 0.5),
            (0.40, 0.25),
            (0.49, 0.01),
        ] {
            let c = cond(alpha, ratio);
            let e = ExactSettlement::new(c);
            let sym = [
                (Symbol::UniqueHonest, c.p_unique_honest()),
                (Symbol::MultiHonest, c.p_multi_honest()),
                (Symbol::Adversarial, c.p_adversarial()),
            ];
            for m in 0..=N {
                let ks: Vec<usize> = (0..=N - m).collect();
                let mut sums = vec![0.0; ks.len()];
                walk_x(ReachState::new(), 1.0, m, &sym, &mut sums);
                let dp = e.violation_probabilities_finite_prefix(m, &ks);
                for (k, (&want, &got)) in sums.iter().zip(&dp).enumerate() {
                    let rel = (got - want).abs() / want;
                    assert!(
                        rel < 1e-9,
                        "α = {alpha}, ratio = {ratio}, m = {m}, k = {k}: \
                         DP {got:e} vs enumeration {want:e}"
                    );
                    cells += 1;
                }
            }
        }
        assert_eq!(cells, 5 * 91, "every (condition, m, k) with m + k ≤ 12");
    }

    #[test]
    fn horizon_variant_dominates_pointwise() {
        let e = ExactSettlement::new(cond(0.25, 0.6));
        let point = e.violation_probability(12);
        let by_horizon = e.violation_by_horizon(12, 40);
        assert!(by_horizon >= point - 1e-15);
        assert!(by_horizon <= 1.0);
        // Extending the horizon only adds violation mass.
        assert!(e.violation_by_horizon(12, 60) >= by_horizon - 1e-15);
    }

    #[test]
    fn matches_monte_carlo_with_long_prefix() {
        // Sample strings xy with |x| = 300, |y| = 8 and compare the margin
        // recurrence frequency of µ_x(y) ≥ 0 against the finite-prefix DP.
        let c = cond(0.3, 0.6);
        let e = ExactSettlement::new(c);
        let k = 8;
        let m = 300;
        let expected = e.violation_probabilities_finite_prefix(m, &[k])[0];
        let mut rng = StdRng::seed_from_u64(2024);
        let trials = 40_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            let w: CharString = c.sample(&mut rng, m + k);
            if crate::recurrence::margin_trace(&w, m)[k] >= 0 {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        let sigma = (expected * (1.0 - expected) / trials as f64).sqrt();
        assert!(
            (freq - expected).abs() < 5.0 * sigma + 1e-4,
            "freq = {freq}, expected = {expected}, sigma = {sigma}"
        );
    }

    #[test]
    fn table1_spot_checks() {
        // Table 1 (page 26), α columns at k = 100. Generated by the same
        // recurrence as the authors' published C++ code; we allow 5%
        // relative slack for their floating-point/truncation choices.
        let cases = [
            // (alpha, ph_ratio, k, expected)
            (0.30, 1.0, 100, 8.00e-4),
            (0.40, 1.0, 100, 1.37e-1),
            (0.30, 0.5, 100, 2.80e-3),
            (0.40, 0.25, 100, 3.17e-1),
            (0.20, 0.8, 100, 5.10e-8),
        ];
        for (alpha, ratio, k, expected) in cases {
            let p = ExactSettlement::new(cond(alpha, ratio)).violation_probability(k);
            assert!(
                (p / expected - 1.0).abs() < 0.05,
                "α={alpha} ratio={ratio} k={k}: got {p:e}, want {expected:e}"
            );
        }
    }
}
