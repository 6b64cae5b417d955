//! Gap, reserve, reach and (relative) margin computed **by definition** on
//! closed forks (paper Definitions 13, 14, 16, 17).
//!
//! These quantities drive the optimal-adversary analysis of Section 6:
//!
//! * `gap(t)` — how far the tine `t` trails the longest tine;
//! * `reserve(t)` — how many adversarial slots remain after `t`'s tip;
//! * `reach(t) = reserve(t) − gap(t)` — the adversary's budget for
//!   extending `t` into a maximum-length competitor;
//! * `ρ(F) = max_t reach(t)`;
//! * `µ_x(F)` — the *relative margin*: the best second reach among pairs of
//!   tines that are disjoint over the suffix `y` of `w = xy`.
//!
//! The computations here are deliberately naive (quadratic pair scans):
//! they transcribe the definitions and serve as ground truth for the O(n)
//! recurrences in `multihonest-margin` (paper Theorem 5).

use std::ops::ControlFlow;

use multihonest_core::pool;

use crate::fork::{Fork, VertexId};

/// Reach/margin analysis of a **closed** fork.
///
/// # Examples
///
/// ```
/// use multihonest_fork::{Fork, ReachAnalysis, VertexId};
///
/// // w = hA: one honest vertex; the adversarial slot contributes reserve.
/// let mut f = Fork::new("hA".parse()?);
/// let a = f.push_vertex(VertexId::ROOT, 1);
/// let r = ReachAnalysis::new(&f);
/// // Tine at `a`: gap 0 (it is longest), reserve 1 (slot 2 is A) → reach 1.
/// assert_eq!(r.reach(a), 1);
/// // The root tine: gap 1, reserve 1 → reach 0.
/// assert_eq!(r.reach(VertexId::ROOT), 0);
/// assert_eq!(r.rho(), 1);
/// # Ok::<(), multihonest_chars::ParseCharStringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReachAnalysis<'a> {
    fork: &'a Fork,
    height: usize,
    /// `suffix_adversarial[t]` = #A among slots `t+1 ..= n`.
    suffix_adversarial: Vec<i64>,
    reach: Vec<i64>,
}

impl<'a> ReachAnalysis<'a> {
    /// Analyses a closed fork.
    ///
    /// # Panics
    ///
    /// Panics if the fork is not closed (paper Definition 13 defines gap —
    /// hence reach — only for closed forks).
    pub fn new(fork: &'a Fork) -> ReachAnalysis<'a> {
        assert!(fork.is_closed(), "reach analysis requires a closed fork");
        let n = fork.string().len();
        let mut suffix_adversarial = vec![0i64; n + 2];
        for t in (1..=n).rev() {
            suffix_adversarial[t] =
                suffix_adversarial[t + 1] + i64::from(fork.string().get(t).is_adversarial());
        }
        let height = fork.height();
        let reach = fork
            .vertices()
            .map(|v| {
                let gap = (height - fork.depth(v)) as i64;
                let reserve = suffix_adversarial[fork.label(v) + 1];
                reserve - gap
            })
            .collect();
        ReachAnalysis {
            fork,
            height,
            suffix_adversarial,
            reach,
        }
    }

    /// The fork under analysis.
    pub fn fork(&self) -> &Fork {
        self.fork
    }

    /// `gap(t)` for the tine ending at `v`.
    pub fn gap(&self, v: VertexId) -> i64 {
        (self.height - self.fork.depth(v)) as i64
    }

    /// `reserve(t)` for the tine ending at `v`.
    pub fn reserve(&self, v: VertexId) -> i64 {
        self.suffix_adversarial[self.fork.label(v) + 1]
    }

    /// `reach(t) = reserve(t) − gap(t)` for the tine ending at `v`.
    pub fn reach(&self, v: VertexId) -> i64 {
        self.reach[v.index()]
    }

    /// `ρ(F) = max_t reach(t)` (paper Definition 14). Never negative: the
    /// longest tine has gap 0 and non-negative reserve.
    pub fn rho(&self) -> i64 {
        *self.reach.iter().max().expect("fork has at least the root")
    }

    /// All tines (vertex ids) achieving reach exactly `r`.
    pub fn tines_with_reach(&self, r: i64) -> Vec<VertexId> {
        self.fork
            .vertices()
            .filter(|v| self.reach(*v) == r)
            .collect()
    }

    /// The relative margin `µ_x(F)` where `x` is the length-`cut` prefix of
    /// the fork's string (paper Definition 17): the maximum over pairs of
    /// tines `t1 ≁_x t2` of `min(reach(t1), reach(t2))`.
    ///
    /// Two tines are `∼_x`-related iff they share an edge terminating at a
    /// vertex labelled in `y` — for tree paths, iff their last common
    /// vertex has label `> cut`. A tine pairs with *itself* iff it has no
    /// edge into `y`, i.e. its own label is `≤ cut`.
    ///
    /// # Panics
    ///
    /// Panics if `cut > |w|`.
    pub fn relative_margin(&self, cut: usize) -> i64 {
        self.relative_margins()[cut]
    }

    /// `µ(F) = µ_ε(F)`: the plain margin (maximum second reach among
    /// edge-disjoint tine pairs).
    pub fn margin(&self) -> i64 {
        self.relative_margin(0)
    }

    /// The relative margin for **every** cut `0..=|w|` in one pass,
    /// as a vector indexed by `cut`.
    ///
    /// A pair with last common vertex labelled `L` is disjoint over the
    /// suffix for every cut `≥ L`, so `µ_cut` is the prefix maximum over
    /// `L ≤ cut` of the best pair with that meeting label.
    ///
    /// This is the serial, definitional `O(V²)` pair scan — retained as
    /// the oracle for [`ReachAnalysis::relative_margins_threads`], which
    /// parallelises the scan for the long canonical forks where verifying
    /// `µ` is the bottleneck.
    pub fn relative_margins(&self) -> Vec<i64> {
        let n = self.fork.string().len();
        let mut best_at_label = vec![i64::MIN; n + 1];
        let ids: Vec<VertexId> = self.fork.vertices().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i..] {
                let lca = self.fork.last_common_vertex(a, b);
                // (a, a) pairs: lca = a; it self-pairs over suffixes that
                // exclude all its edges, i.e. cuts ≥ ℓ(a). Distinct pairs:
                // disjoint over cuts ≥ ℓ(lca).
                let l = self.fork.label(lca);
                let m = self.reach(a).min(self.reach(b));
                if m > best_at_label[l] {
                    best_at_label[l] = m;
                }
            }
        }
        Self::prefix_max(&best_at_label, n)
    }

    /// [`ReachAnalysis::relative_margins`] with the `O(V²)` pair scan
    /// fanned out over up to `threads` workers of
    /// [`multihonest_core::pool`]. Workers claim row blocks (rows shrink
    /// with `i`, so dynamic claiming load-balances the triangle) and fold
    /// private `best_at_label` tables that are merged by `max` — an exact
    /// integer reduction, so the result is **identical to the serial
    /// oracle for every thread count**.
    pub fn relative_margins_threads(&self, threads: usize) -> Vec<i64> {
        let n = self.fork.string().len();
        let ids: Vec<VertexId> = self.fork.vertices().collect();
        let v = ids.len();
        // Enough rows per claim to amortise the atomic, few enough that
        // the shrinking triangle still balances.
        let block = (v / (threads.max(1) * 8)).max(1);
        let locals = pool::claim(
            v.div_ceil(block),
            threads,
            |_| vec![i64::MIN; n + 1],
            |local, blk| {
                for i in blk * block..((blk + 1) * block).min(v) {
                    let a = ids[i];
                    let ra = self.reach(a);
                    for &b in &ids[i..] {
                        let lca = self.fork.last_common_vertex(a, b);
                        let l = self.fork.label(lca);
                        let m = ra.min(self.reach(b));
                        if m > local[l] {
                            local[l] = m;
                        }
                    }
                }
                ControlFlow::Continue(())
            },
        );
        let best_at_label = locals
            .into_iter()
            .reduce(|mut best, local| {
                for (b, l) in best.iter_mut().zip(local) {
                    *b = (*b).max(l);
                }
                best
            })
            .expect("the pool runs at least one worker");
        Self::prefix_max(&best_at_label, n)
    }

    /// [`ReachAnalysis::relative_margins_threads`] at the machine's full
    /// parallelism ([`pool::default_threads`]) — with a serial cutoff:
    /// below a few thousand vertices the whole `O(V²)` scan costs less
    /// than spawning a thread team, so small forks (the
    /// exhaustive/proptest grids, the golden pins) take the serial path
    /// unchanged.
    pub fn relative_margins_parallel(&self) -> Vec<i64> {
        const SERIAL_CUTOFF_VERTICES: usize = 4_096;
        if self.fork.vertex_count() < SERIAL_CUTOFF_VERTICES {
            return self.relative_margins();
        }
        self.relative_margins_threads(pool::default_threads())
    }

    /// Folds a per-meeting-label best table into the cut-indexed margins.
    fn prefix_max(best_at_label: &[i64], n: usize) -> Vec<i64> {
        let mut out = Vec::with_capacity(n + 1);
        let mut acc = i64::MIN;
        for &best in best_at_label.iter().take(n + 1) {
            acc = acc.max(best);
            out.push(acc);
        }
        out
    }

    /// A witness pair for `µ_x(F)` at the given cut: two tine endpoints,
    /// disjoint over the suffix, whose min-reach equals the relative
    /// margin. Returns `None` when the cut is empty — `cut > |w|`, where
    /// no relative margin (and hence no witness pair) is defined.
    pub fn margin_witness(&self, cut: usize) -> Option<(VertexId, VertexId)> {
        let target = *self.relative_margins().get(cut)?;
        let ids: Vec<VertexId> = self.fork.vertices().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i..] {
                let lca = self.fork.last_common_vertex(a, b);
                if self.fork.label(lca) <= cut && self.reach(a).min(self.reach(b)) == target {
                    return Some((a, b));
                }
            }
        }
        // Defensively unreachable for in-range cuts: the margin value is by
        // definition attained by some qualifying pair.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_chars::CharString;

    fn w(s: &str) -> CharString {
        s.parse().unwrap()
    }

    #[test]
    #[should_panic(expected = "closed fork")]
    fn rejects_open_fork() {
        let mut f = Fork::new(w("hA"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        let _adv = f.push_vertex(a, 2); // adversarial leaf → not closed
        let _ = ReachAnalysis::new(&f);
    }

    #[test]
    fn trivial_fork_reach() {
        let f = Fork::new(w("A"));
        let r = ReachAnalysis::new(&f);
        assert_eq!(r.reach(VertexId::ROOT), 1); // reserve 1, gap 0
        assert_eq!(r.rho(), 1);
        // margin: the root pairs with itself (no edges at all).
        assert_eq!(r.margin(), 1);
    }

    #[test]
    fn empty_string_reach_is_zero() {
        let f = Fork::trivial();
        let r = ReachAnalysis::new(&f);
        assert_eq!(r.rho(), 0);
        assert_eq!(r.margin(), 0); // µ_ε(ε) = ρ(ε) = 0
    }

    #[test]
    fn gap_reserve_reach_by_hand() {
        // w = hhA; chain root -> 1 -> 2, slot 3 adversarial unused.
        let mut f = Fork::new(w("hhA"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        let b = f.push_vertex(a, 2);
        let r = ReachAnalysis::new(&f);
        assert_eq!(r.gap(b), 0);
        assert_eq!(r.reserve(b), 1);
        assert_eq!(r.reach(b), 1);
        assert_eq!(r.gap(a), 1);
        assert_eq!(r.reserve(a), 1);
        assert_eq!(r.reach(a), 0);
        assert_eq!(r.gap(VertexId::ROOT), 2);
        assert_eq!(r.reserve(VertexId::ROOT), 1);
        assert_eq!(r.reach(VertexId::ROOT), -1);
        assert_eq!(r.rho(), 1);
    }

    #[test]
    fn margin_distinguishes_disjoint_pairs() {
        // Balanced structure on w = hAhA... the two-branch fork:
        // root -> a(1) -> c(3) and root -> b(2,A) -> d(4,A)? Keep closed:
        // use root -> a(1) -> c(3), root -> b(3)?? slot 3 is h (unique) —
        // cannot duplicate. Use w = hAHA and two honest branches.
        let mut f = Fork::new(w("hAHA"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        let c = f.push_vertex(a, 3); // honest H vertex
        let c2 = f.push_vertex(a, 3); // concurrent honest H vertex
        let r = ReachAnalysis::new(&f);
        // heights: a=1, c=c2=2; reserves: ℓ=3 → 1 A after (slot 4).
        assert_eq!(r.reach(c), 1);
        assert_eq!(r.reach(c2), 1);
        // c and c2 share the edge root->a (label 1). For cut 0 they are NOT
        // disjoint... wait, their last common vertex is a (label 1), so for
        // cut ≥ 1 they are disjoint. For cut 0, disjoint pairs must meet at
        // the root.
        assert_eq!(r.relative_margin(1), 1);
        // At cut 0 the best root-meeting pair involves the root tine itself
        // (reach = reserve(root) − gap = 2 − 2 = 0).
        assert_eq!(r.relative_margin(0), 0);
        let (p, q) = r.margin_witness(1).expect("in-range cut has a witness");
        assert_eq!(r.reach(p).min(r.reach(q)), 1);
    }

    #[test]
    fn margin_witness_on_empty_cut_is_none() {
        // Regression: cuts beyond |w| used to take an `unreachable!` panic
        // path (via an out-of-bounds margin lookup); they are simply
        // witness-free.
        let mut f = Fork::new(w("hA"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        let _ = f.push_vertex(a, 2);
        let f = crate::generate::close(&f);
        let r = ReachAnalysis::new(&f);
        for cut in 0..=f.string().len() {
            let (p, q) = r.margin_witness(cut).expect("in-range cut");
            let lca = f.last_common_vertex(p, q);
            assert!(f.label(lca) <= cut);
            assert_eq!(r.reach(p).min(r.reach(q)), r.relative_margin(cut));
        }
        assert_eq!(r.margin_witness(f.string().len() + 1), None);
        assert_eq!(r.margin_witness(usize::MAX), None);
    }

    #[test]
    fn parallel_margins_match_the_serial_oracle() {
        use crate::generate::{close, random_fork, GenerateConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Hand-built and random closed forks, several sizes: the
        // thread-parallel pair scan must reproduce the serial oracle
        // exactly, for every thread count.
        let mut forks = vec![
            crate::generate::close(&crate::figures::figure1()),
            Fork::trivial(),
            Fork::new(w("A")),
        ];
        let mut rng = StdRng::seed_from_u64(42);
        let cond = multihonest_chars::BernoulliCondition::new(0.25, 0.35).unwrap();
        for len in [30usize, 90, 240] {
            let s = cond.sample(&mut rng, len);
            forks.push(close(&random_fork(&s, &mut rng, GenerateConfig::default())));
        }
        for fork in &forks {
            let r = ReachAnalysis::new(fork);
            let oracle = r.relative_margins();
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    r.relative_margins_threads(threads),
                    oracle,
                    "thread count {threads} changed the margins"
                );
            }
            assert_eq!(r.relative_margins_parallel(), oracle);
        }
    }

    #[test]
    fn relative_margins_are_monotone_in_cut() {
        let f = crate::generate::close(&crate::figures::figure1());
        let r = ReachAnalysis::new(&f);
        let ms = r.relative_margins();
        for c in 1..ms.len() {
            assert!(ms[c] >= ms[c - 1], "margin must be monotone in cut");
        }
        assert_eq!(*ms.last().unwrap(), r.rho(), "µ_w(ε) = ρ(w)");
    }

    #[test]
    fn adversarial_children_never_gain_reach() {
        // Section 6.1's consequence: the reach of an adversarial tine is at
        // most the reach of its last honest vertex. Along an edge to an
        // adversarial child, gap shrinks by 1 but reserve shrinks by at
        // least 1 (the child's own slot), so reach cannot increase.
        let f = crate::generate::close(&crate::figures::figure1());
        let r = ReachAnalysis::new(&f);
        for v in f.vertices() {
            if let Some(p) = f.parent(v) {
                if !f.is_honest(v) {
                    assert!(
                        r.reach(v) <= r.reach(p),
                        "adversarial child gained reach: {p:?} -> {v:?}"
                    );
                }
            }
        }
        // And consequently every adversarial tine is bounded by its last
        // honest ancestor's reach.
        for v in f.vertices() {
            if !f.is_honest(v) {
                let mut u = v;
                while !f.is_honest(u) {
                    u = f.parent(u).expect("root is honest");
                }
                assert!(r.reach(v) <= r.reach(u));
            }
        }
    }
}
