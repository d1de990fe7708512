//! Per-hop forwarding policies.
//!
//! A [`HopPolicy`] is the protocol a node runs when a packet reaches it:
//! given only the local [`HopView`] (the node, the packet's target, and
//! the *currently live* neighbors) it forwards or drops. Policies carry
//! per-packet state of type [`HopPolicy::State`] — the simulator creates
//! one fresh `State` per packet, so policies stay shareable across the
//! whole run and across threads.
//!
//! Scoring goes through the [`HopScore`] trait: `(candidate, target)` to a
//! comparable score (larger = closer), plus a per-target prepared form the
//! policies invoke once per hop. Any plain closure
//! `Fn(NodeId, NodeId) -> f64` is a `HopScore` via the blanket impl, so the
//! crate does not depend on any particular objective type; callers pass
//! e.g. `|v, t| objective.score(v, t)` from `smallworld-core`, or that
//! crate's kernel-backed `PreparedObjective` adapter for the fast path.

use smallworld_graph::view::first_best_by_blocks;
use smallworld_graph::NodeId;

use crate::event::Time;

/// A routing score over `(candidate, target)` pairs, with a per-target
/// prepared form.
///
/// Policies call [`HopScore::prepare`] once per hop and score every
/// candidate through the returned closure, so implementations backed by a
/// per-target kernel (hoisted target position, packed neighborhoods, …)
/// pay their preparation once instead of per candidate. The prepared
/// closure must return values **bitwise-identical** to
/// [`HopScore::score`]`(v, target)` — simulations must be unable to tell
/// the two paths apart.
///
/// Every `Fn(NodeId, NodeId) -> f64` closure is a `HopScore` whose
/// prepared form simply captures the target.
pub trait HopScore {
    /// Score of `candidate` when routing towards `target`; larger is
    /// closer.
    fn score(&self, candidate: NodeId, target: NodeId) -> f64;

    /// The single-target view used inside one hop's candidate scan.
    fn prepare(&self, target: NodeId) -> impl Fn(NodeId) -> f64 + '_;

    /// Scores a block of candidates against one target:
    /// `out[j] = self.score(candidates[j], target)` for every
    /// `j < candidates.len()`, **bitwise-identical** to the scalar calls.
    ///
    /// The default prepares once and loops. Implementations backed by a
    /// batched kernel (e.g. `smallworld-core`'s `PreparedObjective`)
    /// forward to their `ScoreKernel::score_block`, so policies scanning
    /// candidates in blocks inherit the vectorized scoring loops. `out`
    /// must be at least as long as `candidates`.
    #[inline]
    fn score_block(&self, target: NodeId, candidates: &[NodeId], out: &mut [f64]) {
        debug_assert!(out.len() >= candidates.len());
        let score = self.prepare(target);
        for (o, &v) in out.iter_mut().zip(candidates) {
            *o = score(v);
        }
    }
}

impl<S: Fn(NodeId, NodeId) -> f64> HopScore for S {
    #[inline]
    fn score(&self, candidate: NodeId, target: NodeId) -> f64 {
        self(candidate, target)
    }

    #[inline]
    fn prepare(&self, target: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
        move |v| self(v, target)
    }
}

/// Everything a node is allowed to see when forwarding a packet: itself,
/// the packet's target, its live neighbors, the virtual clock, and the
/// hop count so far. Deliberately *no* graph handle — locality is
/// structural, as in `smallworld-core`'s `LocalView`.
#[derive(Clone, Copy, Debug)]
pub struct HopView<'a> {
    /// The node holding the packet.
    pub current: NodeId,
    /// The packet's destination.
    pub target: NodeId,
    /// Neighbors of `current` whose node and connecting link are up at
    /// `now`, in graph adjacency order.
    pub candidates: &'a [NodeId],
    /// The virtual clock.
    pub now: Time,
    /// Hops the packet has taken so far.
    pub hops: u32,
}

/// A policy's verdict for one hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopChoice {
    /// Forward to this neighbor (must be one of the view's candidates).
    Forward(NodeId),
    /// Give up; the simulator records a dead end.
    Drop,
}

/// A per-hop forwarding protocol. Implementations must choose using only
/// the [`HopView`] and their own per-packet `State`; the simulator
/// asserts the chosen next hop is a listed candidate ("locality
/// violation" otherwise).
pub trait HopPolicy {
    /// Per-packet scratch state, default-initialized at injection.
    type State: Default;

    /// Short stable name for artifacts and metrics labels.
    fn name(&self) -> &'static str;

    /// Decides the next hop for one packet at one node.
    fn next_hop(&self, view: &HopView<'_>, state: &mut Self::State) -> HopChoice;
}

impl<P: HopPolicy + ?Sized> HopPolicy for &P {
    type State = P::State;

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_hop(&self, view: &HopView<'_>, state: &mut Self::State) -> HopChoice {
        (**self).next_hop(view, state)
    }
}

/// Plain greedy forwarding: send to the first-best candidate strictly
/// closer to the target than the current node, else drop. Matches
/// `smallworld-core`'s `GreedyRouter` tie-breaking (first best in
/// adjacency order, strict improvement required).
pub struct GreedyPolicy<S> {
    score: S,
}

impl<S> std::fmt::Debug for GreedyPolicy<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GreedyPolicy").finish_non_exhaustive()
    }
}

impl<S: HopScore> GreedyPolicy<S> {
    /// A greedy policy under `score(candidate, target)`; larger is closer.
    pub fn new(score: S) -> Self {
        GreedyPolicy { score }
    }
}

impl<S: HopScore> HopPolicy for GreedyPolicy<S> {
    type State = ();

    fn name(&self) -> &'static str {
        "greedy"
    }

    fn next_hop(&self, view: &HopView<'_>, _state: &mut ()) -> HopChoice {
        // deliberately no special case for a candidate equal to the
        // target: like `GreedyRouter`, we rely on the score function
        // ranking the target itself maximally, so the two stay hop-for-hop
        // identical under the same objective
        //
        // candidates are scanned in blocks through HopScore::score_block so
        // kernel-backed scores batch their gathers and divides; the fold
        // stays first-best-in-adjacency-order, matching the scalar scan
        // bitwise
        let best = first_best_by_blocks(view.candidates, |chunk, out| {
            self.score.score_block(view.target, chunk, out)
        });
        let here = self.score.score(view.current, view.target);
        match best {
            Some((s, v)) if s > here => HopChoice::Forward(v),
            _ => HopChoice::Drop,
        }
    }
}

/// Per-packet state of a [`PatchingPolicy`]: the set of nodes the packet
/// has visited and the trail it followed, enabling depth-first
/// backtracking around failed regions.
#[derive(Clone, Debug, Default)]
pub struct PatchState {
    visited: Vec<NodeId>,
    trail: Vec<NodeId>,
}

impl PatchState {
    fn visited(&self, v: NodeId) -> bool {
        self.visited.contains(&v)
    }

    /// Nodes visited so far (diagnostics).
    pub fn visited_count(&self) -> usize {
        self.visited.len()
    }
}

/// Greedy forwarding with Algorithm-2-style patching *at simulation
/// time*: prefer the best strictly-improving unvisited neighbor; when
/// greedy is stuck (all improving neighbors dead, visited, or absent),
/// detour to the best unvisited neighbor even if it does not improve;
/// when the node is fully explored, backtrack along the packet's own
/// trail. Only drops when the trail is exhausted or the backtrack link is
/// itself down.
pub struct PatchingPolicy<S> {
    score: S,
}

impl<S> std::fmt::Debug for PatchingPolicy<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchingPolicy").finish_non_exhaustive()
    }
}

impl<S: HopScore> PatchingPolicy<S> {
    /// A patching policy under `score(candidate, target)`; larger is
    /// closer.
    pub fn new(score: S) -> Self {
        PatchingPolicy { score }
    }
}

impl<S: HopScore> HopPolicy for PatchingPolicy<S> {
    type State = PatchState;

    fn name(&self) -> &'static str {
        "patching"
    }

    fn next_hop(&self, view: &HopView<'_>, state: &mut PatchState) -> HopChoice {
        let u = view.current;
        if state.trail.last() != Some(&u) {
            // first visit (or re-entry after the trail was cut): extend
            if !state.visited(u) {
                state.visited.push(u);
            }
            state.trail.push(u);
        }
        let score = self.score.prepare(view.target);
        let mut best: Option<(f64, NodeId)> = None;
        for &v in view.candidates {
            if v == view.target {
                return HopChoice::Forward(v);
            }
            if state.visited(v) {
                continue;
            }
            let s = score(v);
            if best.is_none_or(|(b, _)| s > b) {
                best = Some((s, v));
            }
        }
        if let Some((_, v)) = best {
            // best unvisited candidate — improving if possible, else the
            // detour that stays closest to the target
            return HopChoice::Forward(v);
        }
        // fully explored: backtrack along the trail
        state.trail.pop();
        match state.trail.last() {
            Some(&prev) if view.candidates.contains(&prev) => HopChoice::Forward(prev),
            _ => HopChoice::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(current: u32, target: u32, candidates: &'a [NodeId]) -> HopView<'a> {
        HopView {
            current: NodeId::new(current),
            target: NodeId::new(target),
            candidates,
            now: 0,
            hops: 0,
        }
    }

    /// Score: closer node ids are closer to the target.
    fn id_score(v: NodeId, t: NodeId) -> f64 {
        -((v.raw() as f64) - (t.raw() as f64)).abs()
    }

    #[test]
    fn greedy_forwards_to_strict_improvement() {
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(3), NodeId::new(7)];
        // current 2, target 10: 7 is the improvement
        assert_eq!(
            p.next_hop(&view(2, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(7))
        );
    }

    #[test]
    fn greedy_drops_without_improvement() {
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(0), NodeId::new(1)];
        // current 5, target 10: both candidates are farther
        assert_eq!(p.next_hop(&view(5, 10, &cands), &mut ()), HopChoice::Drop);
    }

    #[test]
    fn greedy_delivers_to_adjacent_target() {
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(0), NodeId::new(10)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(10))
        );
    }

    #[test]
    fn greedy_breaks_ties_first_best() {
        // candidates 8 and 12 score equally for target 10: first wins
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(8), NodeId::new(12)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(8))
        );
        let cands = [NodeId::new(12), NodeId::new(8)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(12))
        );
    }

    #[test]
    fn patching_detours_when_greedy_is_stuck() {
        let p = PatchingPolicy::new(id_score);
        let mut st = PatchState::default();
        // current 5, target 10, only candidate is 4 (worse): greedy would
        // drop, patching detours
        let cands = [NodeId::new(4)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut st),
            HopChoice::Forward(NodeId::new(4))
        );
    }

    #[test]
    fn patching_never_revisits_and_backtracks() {
        let p = PatchingPolicy::new(id_score);
        let mut st = PatchState::default();
        // hop 1: at 5, forward to 4 (only option)
        let c5 = [NodeId::new(4)];
        assert_eq!(
            p.next_hop(&view(5, 10, &c5), &mut st),
            HopChoice::Forward(NodeId::new(4))
        );
        // hop 2: at 4, neighbors are 5 (visited) and 3
        let c4 = [NodeId::new(5), NodeId::new(3)];
        assert_eq!(
            p.next_hop(&view(4, 10, &c4), &mut st),
            HopChoice::Forward(NodeId::new(3))
        );
        // hop 3: at 3, only neighbor is 4 (visited) => backtrack to 4
        let c3 = [NodeId::new(4)];
        assert_eq!(
            p.next_hop(&view(3, 10, &c3), &mut st),
            HopChoice::Forward(NodeId::new(4))
        );
        // hop 4: back at 4, everything visited, backtrack to 5
        assert_eq!(
            p.next_hop(&view(4, 10, &c4), &mut st),
            HopChoice::Forward(NodeId::new(5))
        );
        // hop 5: back at 5, everything visited, trail exhausted => drop
        assert_eq!(p.next_hop(&view(5, 10, &c5), &mut st), HopChoice::Drop);
    }

    /// A hand-rolled `HopScore` with a cheap prepared form must be
    /// indistinguishable from the equivalent closure.
    #[test]
    fn manual_hop_score_matches_closure() {
        struct IdScore;
        impl HopScore for IdScore {
            fn score(&self, v: NodeId, t: NodeId) -> f64 {
                id_score(v, t)
            }
            fn prepare(&self, target: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
                move |v| id_score(v, target)
            }
        }
        let manual = GreedyPolicy::new(IdScore);
        let closure = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(3), NodeId::new(7), NodeId::new(12)];
        for target in 0..15u32 {
            let v = view(2, target, &cands);
            assert_eq!(manual.next_hop(&v, &mut ()), closure.next_hop(&v, &mut ()));
        }
        let manual = PatchingPolicy::new(IdScore);
        let closure = PatchingPolicy::new(id_score);
        let mut st_m = PatchState::default();
        let mut st_c = PatchState::default();
        let v = view(5, 10, &cands);
        assert_eq!(manual.next_hop(&v, &mut st_m), closure.next_hop(&v, &mut st_c));
    }

    #[test]
    fn policy_is_usable_by_reference() {
        fn takes_policy<P: HopPolicy>(p: P, v: &HopView<'_>) -> HopChoice {
            let mut st = P::State::default();
            p.next_hop(v, &mut st)
        }
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(10)];
        let v = view(5, 10, &cands);
        assert_eq!(takes_policy(&p, &v), HopChoice::Forward(NodeId::new(10)));
        assert_eq!(p.name(), "greedy");
        let by_ref: &GreedyPolicy<_> = &p;
        assert_eq!(HopPolicy::name(&by_ref), "greedy");
    }
}
