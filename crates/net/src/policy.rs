//! Per-hop forwarding policies.
//!
//! A [`HopPolicy`] is the protocol a node runs when a packet reaches it:
//! given only the local [`HopView`] (the node, the packet's target, and
//! the *currently live* neighbors) it forwards or drops. Policies carry
//! per-packet state of type [`HopPolicy::State`] — the simulator creates
//! one fresh `State` per packet, so policies stay shareable across the
//! whole run and across threads.
//!
//! Both policies score through `smallworld-graph`'s [`Objective`]: at each
//! hop they prepare the objective's [`ScoreKernel`] for the packet's target
//! once and score every candidate through it — the same kernels
//! `smallworld-core`'s routers use, so an objective written once serves
//! routing and forwarding alike. Callers pass e.g. `&objective` for any
//! `smallworld-core` objective, or a
//! [`FnObjective`](smallworld_graph::FnObjective) wrapping a plain function.

use smallworld_graph::{NodeId, Objective, ScoreKernel};

use crate::event::Time;

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
    /// `now`, in graph adjacency order, which is ascending id order (a
    /// pruning [`ScoreKernel::best_above`] relies on it).
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
pub struct GreedyPolicy<O> {
    objective: O,
}

impl<O> std::fmt::Debug for GreedyPolicy<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GreedyPolicy").finish_non_exhaustive()
    }
}

impl<O: Objective> GreedyPolicy<O> {
    /// A greedy policy under `objective`; larger scores are closer.
    pub fn new(objective: O) -> Self {
        GreedyPolicy { objective }
    }
}

impl<O: Objective> HopPolicy for GreedyPolicy<O> {
    type State = ();

    fn name(&self) -> &'static str {
        "greedy"
    }

    fn next_hop(&self, view: &HopView<'_>, _state: &mut ()) -> HopChoice {
        // deliberately no special case for a candidate equal to the
        // target: like `GreedyRouter`, we rely on the score function
        // ranking the target itself maximally, so the two stay hop-for-hop
        // identical under the same objective. `best_above` returns the
        // first-best candidate whenever it beats `here`, which is the only
        // case that forwards.
        debug_assert!(view.candidates.is_sorted());
        let kernel = self.objective.prepare(view.target);
        let here = kernel.score(view.current);
        match kernel.best_above(view.candidates, here) {
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
pub struct PatchingPolicy<O> {
    objective: O,
}

impl<O> std::fmt::Debug for PatchingPolicy<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchingPolicy").finish_non_exhaustive()
    }
}

impl<O: Objective> PatchingPolicy<O> {
    /// A patching policy under `objective`; larger scores are closer.
    pub fn new(objective: O) -> Self {
        PatchingPolicy { objective }
    }
}

impl<O: Objective> HopPolicy for PatchingPolicy<O> {
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
        let kernel = self.objective.prepare(view.target);
        let mut best: Option<(f64, NodeId)> = None;
        for &v in view.candidates {
            if v == view.target {
                return HopChoice::Forward(v);
            }
            if state.visited(v) {
                continue;
            }
            let s = kernel.score(v);
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
    use smallworld_graph::FnObjective;

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

    const ID_SCORE: FnObjective<fn(NodeId, NodeId) -> f64> = FnObjective(id_score);

    #[test]
    fn greedy_forwards_to_strict_improvement() {
        let p = GreedyPolicy::new(ID_SCORE);
        let cands = [NodeId::new(3), NodeId::new(7)];
        // current 2, target 10: 7 is the improvement
        assert_eq!(
            p.next_hop(&view(2, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(7))
        );
    }

    #[test]
    fn greedy_drops_without_improvement() {
        let p = GreedyPolicy::new(ID_SCORE);
        let cands = [NodeId::new(0), NodeId::new(1)];
        // current 5, target 10: both candidates are farther
        assert_eq!(p.next_hop(&view(5, 10, &cands), &mut ()), HopChoice::Drop);
    }

    #[test]
    fn greedy_delivers_to_adjacent_target() {
        let p = GreedyPolicy::new(ID_SCORE);
        let cands = [NodeId::new(0), NodeId::new(10)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(10))
        );
    }

    #[test]
    fn greedy_breaks_ties_first_best() {
        // candidates 8 and 12 score equally for target 10: the first in
        // (ascending) candidate order wins
        let p = GreedyPolicy::new(ID_SCORE);
        let cands = [NodeId::new(6), NodeId::new(8), NodeId::new(12)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(8))
        );
    }

    #[test]
    fn patching_detours_when_greedy_is_stuck() {
        let p = PatchingPolicy::new(ID_SCORE);
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
        let p = PatchingPolicy::new(ID_SCORE);
        let mut st = PatchState::default();
        // hop 1: at 5, forward to 4 (only option)
        let c5 = [NodeId::new(4)];
        assert_eq!(
            p.next_hop(&view(5, 10, &c5), &mut st),
            HopChoice::Forward(NodeId::new(4))
        );
        // hop 2: at 4, neighbors are 5 (visited) and 3
        let c4 = [NodeId::new(3), NodeId::new(5)];
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

    #[test]
    fn policy_is_usable_by_reference() {
        fn takes_policy<P: HopPolicy>(p: P, v: &HopView<'_>) -> HopChoice {
            let mut st = P::State::default();
            p.next_hop(v, &mut st)
        }
        let p = GreedyPolicy::new(ID_SCORE);
        let cands = [NodeId::new(10)];
        let v = view(5, 10, &cands);
        assert_eq!(takes_policy(&p, &v), HopChoice::Forward(NodeId::new(10)));
        assert_eq!(p.name(), "greedy");
        let by_ref: &GreedyPolicy<_> = &p;
        assert_eq!(HopPolicy::name(&by_ref), "greedy");
    }
}
