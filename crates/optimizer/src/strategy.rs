//! Search strategies over capacity splits.
//!
//! Strategies are deliberately thin: they see the search space, a scored
//! starting point, a budget, and a batch-scoring callback, and return the
//! best candidate they found. The driver ([`DeploymentOptimizer`]) owns
//! evaluation, objective scoring and the audit trail, so every strategy
//! gets caching, parallel batch evaluation and full reporting for free.
//!
//! Both built-in strategies are deterministic: [`GreedyDescent`] draws no
//! randomness at all, and [`LocalSearch`] drives every draw from one
//! `StdRng` seed — same seed, same space, same
//! objective ⇒ the identical sequence of batches, and therefore an
//! identical [`OptimizerReport`](crate::report::OptimizerReport).
//!
//! [`DeploymentOptimizer`]: crate::DeploymentOptimizer

use crate::space::{CandidateSplit, SearchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use wattroute::objective::ObjectiveTerms;

/// A candidate split together with its objective breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The capacity split.
    pub split: CandidateSplit,
    /// Its objective terms.
    pub terms: ObjectiveTerms,
}

impl ScoredCandidate {
    /// The scalar being minimized.
    pub fn total(&self) -> f64 {
        self.terms.total()
    }
}

/// Early-termination knobs shared by all strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchBudget {
    /// Hard cap on candidate evaluations (batches are truncated to fit).
    pub max_evaluations: usize,
    /// Cap on search iterations (neighbourhood batches).
    pub max_iterations: usize,
    /// A move must improve the objective by at least this many dollars to
    /// be accepted (guards against chasing float noise forever).
    pub min_improvement_dollars: f64,
    /// Local search stops after this many consecutive non-improving
    /// rounds (greedy descent stops on the first).
    pub patience: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            max_evaluations: 2000,
            max_iterations: 64,
            min_improvement_dollars: 1e-6,
            patience: 3,
        }
    }
}

impl SearchBudget {
    /// A tiny budget for smoke tests and CI goldens.
    pub fn smoke() -> Self {
        Self { max_evaluations: 60, max_iterations: 8, min_improvement_dollars: 1e-6, patience: 2 }
    }
}

/// Scores a batch of splits, returning one [`ScoredCandidate`] per split
/// in order (provided by the driver; also records the audit trail).
pub type BatchScorer<'x> = dyn FnMut(&[CandidateSplit]) -> Vec<ScoredCandidate> + 'x;

/// A deterministic, seeded search procedure over capacity splits.
pub trait OptimizerStrategy {
    /// Short name recorded in the report (`greedy-descent`, ...).
    fn name(&self) -> &'static str;

    /// Search from `start`, scoring candidate batches through `score`,
    /// and return the best candidate found (which is `start` itself if
    /// nothing beats it).
    fn search(
        &mut self,
        space: &SearchSpace,
        start: ScoredCandidate,
        budget: &SearchBudget,
        score: &mut BatchScorer<'_>,
    ) -> ScoredCandidate;
}

/// The strictly better of two candidates, preferring `a` on ties so that
/// earlier (deterministically ordered) candidates win.
fn better(a: ScoredCandidate, b: ScoredCandidate) -> ScoredCandidate {
    if b.total() < a.total() {
        b
    } else {
        a
    }
}

/// Pick the best of a batch (first wins ties). `None` on an empty batch.
fn best_of(batch: Vec<ScoredCandidate>) -> Option<ScoredCandidate> {
    batch.into_iter().reduce(better)
}

/// Greedy coordinate descent: evaluate every single-quantum shift around
/// the incumbent, take the steepest improvement, repeat until no move
/// improves (or the budget runs out). Deterministic — no randomness, ties
/// broken by (from, to) order.
#[derive(Debug, Clone)]
pub struct GreedyDescent {
    /// Quanta moved per step (1 = finest neighbourhood).
    pub step_units: u32,
}

impl Default for GreedyDescent {
    fn default() -> Self {
        Self { step_units: 1 }
    }
}

impl OptimizerStrategy for GreedyDescent {
    fn name(&self) -> &'static str {
        "greedy-descent"
    }

    fn search(
        &mut self,
        space: &SearchSpace,
        start: ScoredCandidate,
        budget: &SearchBudget,
        score: &mut BatchScorer<'_>,
    ) -> ScoredCandidate {
        let mut incumbent = start;
        let mut evaluations = 0usize;
        // Every split scored so far. The incumbent is always the minimum
        // over scored splits, so re-scoring a seen split can never change
        // the outcome — skip it and spend the budget on new ground.
        let mut seen: BTreeSet<CandidateSplit> = BTreeSet::new();
        seen.insert(incumbent.split.clone());
        for _ in 0..budget.max_iterations {
            if evaluations >= budget.max_evaluations {
                break;
            }
            let mut neighbors: Vec<CandidateSplit> = space
                .shift_neighbors(&incumbent.split, self.step_units)
                .into_iter()
                .filter(|s| seen.insert(s.clone()))
                .collect();
            neighbors.truncate(budget.max_evaluations - evaluations);
            if neighbors.is_empty() {
                break;
            }
            evaluations += neighbors.len();
            let Some(best) = best_of(score(&neighbors)) else { break };
            if best.total() < incumbent.total() - budget.min_improvement_dollars {
                incumbent = best;
            } else {
                break;
            }
        }
        incumbent
    }
}

/// Seeded local search: each round proposes a batch of random moves
/// around the incumbent — mostly capacity shifts of 1..=`max_shift_units`
/// quanta between random hubs, sometimes a full hub swap (drain one
/// active hub onto an inactive one) — and accepts the best proposal if it
/// improves. Stops after [`SearchBudget::patience`] non-improving rounds.
#[derive(Debug, Clone)]
pub struct LocalSearch {
    /// RNG seed; same seed, same search.
    pub seed: u64,
    /// Proposals per round.
    pub moves_per_round: usize,
    /// Largest capacity shift proposed, in units.
    pub max_shift_units: u32,
}

impl LocalSearch {
    /// A local search with the workspace-default round size.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, moves_per_round: 12, max_shift_units: 4 }
    }
}

impl OptimizerStrategy for LocalSearch {
    fn name(&self) -> &'static str {
        "local-search"
    }

    fn search(
        &mut self,
        space: &SearchSpace,
        start: ScoredCandidate,
        budget: &SearchBudget,
        score: &mut BatchScorer<'_>,
    ) -> ScoredCandidate {
        assert!(self.moves_per_round >= 1, "local search needs at least one proposal per round");
        assert!(self.max_shift_units >= 1, "capacity shifts must move at least one unit");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut incumbent = start;
        let mut evaluations = 0usize;
        let mut stale_rounds = 0usize;
        let n = space.num_hubs();
        if n < 2 {
            // A one-hub space has a single legal split; nothing to search.
            return incumbent;
        }
        // Every split scored so far (see GreedyDescent::search): skipping
        // duplicate and reverse-move proposals cannot change the outcome,
        // only save their full simulations.
        let mut seen: BTreeSet<CandidateSplit> = BTreeSet::new();
        seen.insert(incumbent.split.clone());

        for _ in 0..budget.max_iterations {
            if stale_rounds >= budget.patience || evaluations >= budget.max_evaluations {
                break;
            }
            let mut batch: Vec<CandidateSplit> = Vec::with_capacity(self.moves_per_round);
            for _ in 0..self.moves_per_round {
                let active: Vec<usize> = (0..n).filter(|&i| incumbent.split[i] > 0).collect();
                let inactive: Vec<usize> = (0..n).filter(|&i| incumbent.split[i] == 0).collect();
                let from = active[rng.gen_range(0..active.len())];
                // A quarter of proposals are hub swaps when one is
                // possible; the rest shift a small number of quanta.
                let swap = !inactive.is_empty() && active.len() > 1 && rng.gen_bool(0.25);
                let (to, units) = if swap {
                    (inactive[rng.gen_range(0..inactive.len())], incumbent.split[from])
                } else {
                    // Any destination but `from` (may activate a hub).
                    let mut to = rng.gen_range(0..n - 1);
                    if to >= from {
                        to += 1;
                    }
                    (to, rng.gen_range(1..=self.max_shift_units))
                };
                if let Some(split) = space.shifted(&incumbent.split, from, to, units) {
                    if seen.insert(split.clone()) {
                        batch.push(split);
                    }
                }
            }
            batch.truncate(budget.max_evaluations - evaluations);
            if batch.is_empty() {
                stale_rounds += 1;
                continue;
            }
            evaluations += batch.len();
            let Some(best) = best_of(score(&batch)) else { break };
            if best.total() < incumbent.total() - budget.min_improvement_dollars {
                incumbent = best;
                stale_rounds = 0;
            } else {
                stale_rounds += 1;
            }
        }
        incumbent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::CandidateHub;
    use wattroute_geo::HubId;

    fn space() -> SearchSpace {
        SearchSpace::new(
            vec![
                CandidateHub::new("A", HubId::NewYorkNy),
                CandidateHub::new("B", HubId::ChicagoIl),
                CandidateHub::new("C", HubId::DallasTx),
            ],
            6,
            100,
        )
    }

    /// A synthetic separable objective with its minimum at "everything on
    /// hub C": total = Σ units × weight(hub).
    fn toy_scorer(weights: [f64; 3]) -> impl FnMut(&[CandidateSplit]) -> Vec<ScoredCandidate> {
        move |splits: &[CandidateSplit]| {
            splits
                .iter()
                .map(|s| ScoredCandidate {
                    split: s.clone(),
                    terms: ObjectiveTerms {
                        energy_cost_dollars: s
                            .iter()
                            .zip(weights)
                            .map(|(&u, w)| u as f64 * w)
                            .sum(),
                        sla_penalty_dollars: 0.0,
                        distance_penalty_dollars: 0.0,
                        bandwidth_cost_dollars: 0.0,
                    },
                })
                .collect()
        }
    }

    fn scored(space: &SearchSpace, split: CandidateSplit, weights: [f64; 3]) -> ScoredCandidate {
        let _ = space;
        toy_scorer(weights)(&[split]).pop().unwrap()
    }

    #[test]
    fn greedy_descent_walks_to_the_separable_optimum() {
        let space = space();
        let weights = [3.0, 2.0, 1.0];
        let mut score = toy_scorer(weights);
        let start = scored(&space, space.even_split(), weights);
        let best =
            GreedyDescent::default().search(&space, start, &SearchBudget::default(), &mut score);
        assert_eq!(best.split, vec![0, 0, 6], "all capacity should end on the cheapest hub");
        assert_eq!(best.total(), 6.0);
    }

    #[test]
    fn no_split_is_ever_scored_twice() {
        let space = space();
        let weights = [3.0, 2.0, 1.0];
        let mut counts: std::collections::BTreeMap<CandidateSplit, usize> = Default::default();
        let mut inner = toy_scorer(weights);
        let mut score = |splits: &[CandidateSplit]| {
            for s in splits {
                *counts.entry(s.clone()).or_insert(0) += 1;
            }
            inner(splits)
        };
        let start = scored(&space, space.even_split(), weights);
        let _ = GreedyDescent::default().search(
            &space,
            start.clone(),
            &SearchBudget::default(),
            &mut score,
        );
        assert!(counts.values().all(|&c| c == 1), "greedy re-scored a split: {counts:?}");
        assert!(!counts.contains_key(&start.split), "the start is already scored by the driver");

        counts.clear();
        let mut inner = toy_scorer(weights);
        let mut score = |splits: &[CandidateSplit]| {
            for s in splits {
                *counts.entry(s.clone()).or_insert(0) += 1;
            }
            inner(splits)
        };
        let _ = LocalSearch::seeded(3).search(&space, start, &SearchBudget::default(), &mut score);
        assert!(counts.values().all(|&c| c == 1), "local search re-scored a split: {counts:?}");
    }

    #[test]
    fn single_hub_space_returns_the_start_without_scoring() {
        let space = SearchSpace::new(vec![CandidateHub::new("A", HubId::NewYorkNy)], 4, 100);
        let start = ScoredCandidate {
            split: vec![4],
            terms: ObjectiveTerms {
                energy_cost_dollars: 1.0,
                sla_penalty_dollars: 0.0,
                distance_penalty_dollars: 0.0,
                bandwidth_cost_dollars: 0.0,
            },
        };
        let mut score = |_: &[CandidateSplit]| -> Vec<ScoredCandidate> {
            panic!("a one-hub space has no neighbours to score")
        };
        let budget = SearchBudget::default();
        let greedy = GreedyDescent::default().search(&space, start.clone(), &budget, &mut score);
        assert_eq!(greedy, start);
        let local = LocalSearch::seeded(1).search(&space, start.clone(), &budget, &mut score);
        assert_eq!(local, start);
    }

    #[test]
    fn greedy_descent_respects_the_evaluation_cap() {
        let space = space();
        let weights = [3.0, 2.0, 1.0];
        let mut evaluated = 0usize;
        let mut inner = toy_scorer(weights);
        let mut score = |splits: &[CandidateSplit]| {
            evaluated += splits.len();
            inner(splits)
        };
        let budget = SearchBudget { max_evaluations: 7, ..SearchBudget::default() };
        let start = scored(&space, space.even_split(), weights);
        let _ = GreedyDescent::default().search(&space, start, &budget, &mut score);
        assert!(evaluated <= 7, "evaluated {evaluated} > cap 7");
    }

    #[test]
    fn local_search_is_deterministic_and_never_worse_than_start() {
        let space = space();
        let weights = [5.0, 1.0, 4.0];
        let start = scored(&space, space.even_split(), weights);
        let run = |seed: u64| {
            LocalSearch::seeded(seed).search(
                &space,
                start.clone(),
                &SearchBudget::default(),
                &mut toy_scorer(weights),
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the same result");
        assert!(a.total() <= start.total());
        let c = run(8);
        // A different seed is allowed to find a different path; both must
        // still never regress below the starting point.
        assert!(c.total() <= start.total());
    }
}
