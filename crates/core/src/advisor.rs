//! "Which policy for which application?" — the paper's question, as code.
//!
//! The paper's thesis is that no single model/policy fits all light-grid
//! workloads: divisible loads want steady-state distribution, moldable
//! batches want MRT-style shelves, multi-user queues want bi-criteria or
//! backfilling, campaigns want best-effort hole filling. [`advise`] encodes
//! that decision matrix with the rationale attached, and the
//! `models_compare` experiment (TAB-P) validates it quantitatively.

use serde::{Deserialize, Serialize};

/// What the application looks like (§2's classification).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Application {
    /// Independent sequential jobs (no internal parallelism).
    SequentialBag,
    /// Rigid parallel tasks — processor counts fixed a priori.
    RigidParallel,
    /// Moldable parallel tasks — the scheduler picks the allotment.
    Moldable,
    /// Malleable parallel tasks — the allotment may change mid-run (§2.2:
    /// "requires advanced capabilities from the runtime environment").
    MalleableCapable,
    /// Multi-parametric campaign / arbitrarily splittable fine-grain work.
    DivisibleLoad,
}

/// What the owner cares about (§3's criteria).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Finish the whole set as early as possible (single-user view).
    Makespan,
    /// Average (weighted) completion — multi-user responsiveness.
    WeightedCompletion,
    /// Both of the above at once.
    BiCriteria,
    /// Sustained rate of task completions (campaigns, steady state).
    Throughput,
    /// Don't disturb local users while sharing (the light-grid constraint).
    GridFairness,
}

/// The policy families implemented in this workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyChoice {
    /// [`crate::mrt`] off-line, or wrapped in [`crate::batch`] on-line.
    MrtBatch,
    /// [`crate::smart`].
    SmartShelves,
    /// [`crate::bicriteria`].
    BiCriteriaBatches,
    /// [`crate::backfill`] (EASY or conservative).
    Backfilling,
    /// Single-machine Smith rule spread over processors
    /// ([`crate::list`] with [`crate::list::JobOrder::WeightDensity`]).
    WsptList,
    /// [`crate::malleable`] dynamic equipartition.
    DynamicEquipartition,
    /// `lsps-dlt` steady-state / multi-round distribution.
    DivisibleSteadyState,
    /// `lsps-grid` CiGri-style best-effort hole filling.
    BestEffortGrid,
}

impl PolicyChoice {
    /// Instantiate this choice as a runnable [`crate::policy::Policy`].
    ///
    /// Returns `None` for the two choices that are not Parallel-Task
    /// rectangle policies: [`PolicyChoice::DivisibleSteadyState`] lives in
    /// `lsps-dlt` (divisible loads have no per-job rectangles) and
    /// [`PolicyChoice::BestEffortGrid`] is the event-driven `lsps-grid`
    /// layer. Everything else round-trips into the registry instance the
    /// campaign executor uses.
    pub fn instantiate(self) -> Option<Box<dyn crate::policy::Policy>> {
        use crate::policy::{
            Backfilling, BatchedMrt, BiCriteriaDoubling, DeqEquipartition, ListScheduling,
            SmartShelves,
        };
        match self {
            PolicyChoice::MrtBatch => Some(Box::new(BatchedMrt)),
            PolicyChoice::SmartShelves => Some(Box::new(SmartShelves::weighted())),
            PolicyChoice::BiCriteriaBatches => Some(Box::new(BiCriteriaDoubling)),
            PolicyChoice::Backfilling => Some(Box::new(Backfilling::easy())),
            PolicyChoice::WsptList => Some(Box::new(ListScheduling::new(
                crate::list::JobOrder::WeightDensity,
            ))),
            PolicyChoice::DynamicEquipartition => Some(Box::new(DeqEquipartition)),
            PolicyChoice::DivisibleSteadyState | PolicyChoice::BestEffortGrid => None,
        }
    }
}

/// A recommendation with its justification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The policy to use.
    pub policy: PolicyChoice,
    /// Proven performance ratio, when one exists for this pairing.
    pub guarantee: Option<f64>,
    /// Why — in the paper's terms.
    pub rationale: String,
}

/// The decision matrix. `on_line` says whether jobs keep arriving (release
/// dates unknown in advance).
pub fn advise(app: Application, objective: Objective, on_line: bool) -> Recommendation {
    use Application as A;
    use Objective as O;
    use PolicyChoice as P;
    match (app, objective) {
        // Divisible / campaign work: the DLT model is the whole point.
        (A::DivisibleLoad, O::Throughput) | (A::DivisibleLoad, O::Makespan) => Recommendation {
            policy: P::DivisibleSteadyState,
            guarantee: Some(1.0),
            rationale: "fine-grain independent units: steady-state divisible-load \
                        distribution is asymptotically optimal in polynomial time (§5.2)"
                .into(),
        },
        (A::DivisibleLoad, O::GridFairness) => Recommendation {
            policy: P::BestEffortGrid,
            guarantee: None,
            rationale: "campaign runs are small and killable: submit them best-effort \
                        into the holes of local schedules; locals are never delayed (§5.2)"
                .into(),
        },
        (A::DivisibleLoad, _) => Recommendation {
            policy: P::DivisibleSteadyState,
            guarantee: None,
            rationale: "divisible work has no per-task completion semantics beyond \
                        throughput; distribute for steady state (§2.1)"
                .into(),
        },

        // Sequential bags.
        (A::SequentialBag, O::WeightedCompletion) => Recommendation {
            policy: P::WsptList,
            guarantee: None,
            rationale: "sequential jobs: Smith's rule is optimal per machine (§4.3); \
                        list it across processors"
                .into(),
        },
        (A::SequentialBag, O::BiCriteria) => Recommendation {
            policy: P::BiCriteriaBatches,
            guarantee: Some(8.0),
            rationale: "doubling batches give 4ρ on both Cmax and Σ ωC (§4.4, ρ=2)".into(),
        },
        (A::SequentialBag, O::GridFairness) | (A::RigidParallel, O::GridFairness) => {
            Recommendation {
                policy: P::BestEffortGrid,
                guarantee: None,
                rationale: "cross-cluster sharing must not delay owners: best-effort \
                            submission with kill-and-resubmit (§5.2)"
                    .into(),
            }
        }
        (A::SequentialBag, _) => Recommendation {
            policy: P::Backfilling,
            guarantee: None,
            rationale: "independent sequential jobs pack greedily; backfilling keeps \
                        utilization high under on-line arrivals (§5.1)"
                .into(),
        },

        // Rigid parallel tasks.
        (A::RigidParallel, O::WeightedCompletion) => Recommendation {
            policy: P::SmartShelves,
            guarantee: Some(8.53),
            rationale: "SMART shelves: power-of-two shelves in Smith order, ratio 8 \
                        unweighted / 8.53 weighted (§4.3)"
                .into(),
        },
        (A::RigidParallel, O::BiCriteria) => Recommendation {
            policy: P::BiCriteriaBatches,
            guarantee: Some(8.0),
            rationale: "rigid jobs enter the first doubling batch they fit (§5.1), \
                        keeping both guarantees (§4.4)"
                .into(),
        },
        (A::RigidParallel, _) => Recommendation {
            policy: P::Backfilling,
            guarantee: None,
            rationale: "fixed-width rectangles with reservations: conservative/EASY \
                        backfilling is the production answer (§5.1)"
                .into(),
        },

        // Moldable tasks — the paper's favourite model.
        (A::Moldable, O::Makespan) => Recommendation {
            policy: P::MrtBatch,
            guarantee: Some(if on_line { 3.0 } else { 1.5 }),
            rationale: if on_line {
                "MRT (3/2+ε) inside Shmoys batches doubles to 3+ε with release \
                 dates (§4.2)"
                    .into()
            } else {
                "MRT two-shelf dual approximation: 3/2+ε off-line (§4.1)".into()
            },
        },
        (A::Moldable, O::WeightedCompletion) | (A::Moldable, O::BiCriteria) => Recommendation {
            policy: P::BiCriteriaBatches,
            guarantee: Some(8.0),
            rationale: "ACmax-driven doubling batches: 4ρ simultaneously on Cmax and \
                        Σ ωC (§4.4) — the algorithm behind Fig. 2"
                .into(),
        },
        (A::Moldable, O::Throughput) => Recommendation {
            policy: P::MrtBatch,
            guarantee: None,
            rationale: "keeping work minimal (canonical allotments) maximizes the \
                        sustainable completion rate (§4.1)"
                .into(),
        },
        (A::Moldable, O::GridFairness) => Recommendation {
            policy: P::BestEffortGrid,
            guarantee: None,
            rationale: "share the grid without disturbing locals: local moldable \
                        scheduling + best-effort exchange (§5.2)"
                .into(),
        },

        // Malleable tasks: "much more easily usable from the scheduling
        // point of view" (§2.2) — equipartition adapts at every event.
        (A::MalleableCapable, O::GridFairness) => Recommendation {
            policy: P::BestEffortGrid,
            guarantee: None,
            rationale: "malleable grid jobs shrink instead of dying when locals \
                        arrive; best-effort submission still rules sharing (§5.2)"
                .into(),
        },
        (A::MalleableCapable, _) => Recommendation {
            policy: P::DynamicEquipartition,
            guarantee: None,
            rationale: "the runtime supports resizing: dynamic equipartition is \
                        work-conserving and adapts to every arrival/completion, \
                        dominating batch reshuffling (§2.2)"
                .into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moldable_makespan_gets_mrt_with_right_guarantee() {
        let off = advise(Application::Moldable, Objective::Makespan, false);
        assert_eq!(off.policy, PolicyChoice::MrtBatch);
        assert_eq!(off.guarantee, Some(1.5));
        let on = advise(Application::Moldable, Objective::Makespan, true);
        assert_eq!(on.policy, PolicyChoice::MrtBatch);
        assert_eq!(on.guarantee, Some(3.0));
    }

    #[test]
    fn rigid_weighted_completion_gets_smart() {
        let r = advise(
            Application::RigidParallel,
            Objective::WeightedCompletion,
            true,
        );
        assert_eq!(r.policy, PolicyChoice::SmartShelves);
        assert_eq!(r.guarantee, Some(8.53));
    }

    #[test]
    fn campaigns_get_dlt_or_best_effort() {
        let t = advise(Application::DivisibleLoad, Objective::Throughput, true);
        assert_eq!(t.policy, PolicyChoice::DivisibleSteadyState);
        let f = advise(Application::DivisibleLoad, Objective::GridFairness, true);
        assert_eq!(f.policy, PolicyChoice::BestEffortGrid);
    }

    #[test]
    fn bicriteria_objective_always_gets_doubling_batches() {
        for app in [
            Application::SequentialBag,
            Application::RigidParallel,
            Application::Moldable,
        ] {
            let r = advise(app, Objective::BiCriteria, true);
            assert_eq!(r.policy, PolicyChoice::BiCriteriaBatches, "{app:?}");
            assert_eq!(r.guarantee, Some(8.0));
        }
    }

    #[test]
    fn every_cell_has_a_rationale() {
        for app in [
            Application::SequentialBag,
            Application::RigidParallel,
            Application::Moldable,
            Application::MalleableCapable,
            Application::DivisibleLoad,
        ] {
            for obj in [
                Objective::Makespan,
                Objective::WeightedCompletion,
                Objective::BiCriteria,
                Objective::Throughput,
                Objective::GridFairness,
            ] {
                for on_line in [false, true] {
                    let r = advise(app, obj, on_line);
                    assert!(r.rationale.len() > 20, "{app:?}/{obj:?}: empty rationale");
                }
            }
        }
    }
}
