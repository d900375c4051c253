//! Machine failure traces: deterministic per-node volatility.
//!
//! The paper's large-scale platform (CiGri harvesting idle cluster nodes
//! with best-effort jobs, §5) lives in a regime where machines come and
//! go; the related grid literature (Yildiz et al.'s "Merit of Simple
//! Policies", Legrand & Touati's volatile bag-of-tasks settings) sweeps
//! policies *against* that churn. This module turns reliability into a
//! first-class workload axis: a [`FailureTraceSpec`] describes per-node
//! failure/repair behaviour declaratively, and [`FailureTraceSpec::generate`]
//! expands it into a concrete, sorted list of [`Outage`]s.
//!
//! Determinism: all draws flow from the [`SimRng`] handed to `generate` in
//! a fixed order — nodes `0..m` sequentially, and per node an alternating
//! (uptime, repair) sequence until the horizon — so a given
//! (spec, m, seed) triple always produces the identical trace. That is the
//! property the campaign cache keys rely on, exactly as for
//! [`crate::open::OpenStreamSpec`].
//!
//! What happens to a job caught by an outage is *not* decided here: that
//! is the executor's [`FailurePolicy`] (kill-and-resubmit from scratch, or
//! restart from the last checkpoint interval).

use serde::{Deserialize, Serialize};

use lsps_des::{Dur, SimRng, Time};

use crate::gen::DistSpec;

/// Per-node uptime law: how long a node runs between repair completion
/// and its next failure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FailureRegime {
    /// Memoryless failures: uptimes are exponential with the given mean
    /// time between failures, seconds.
    Exponential {
        /// Mean uptime (MTBF), seconds.
        mtbf_s: f64,
    },
    /// Weibull uptimes — the classic empirical fit for cluster node
    /// failures (shape < 1: infant mortality / bursty; shape > 1: aging).
    Weibull {
        /// Scale parameter λ, seconds (≈ characteristic life).
        scale_s: f64,
        /// Shape parameter k (> 0).
        shape: f64,
    },
    /// Fully scripted outages — no draws at all; the repair distribution
    /// is ignored. Useful for regression tests and worked examples.
    Scripted {
        /// The literal outage list (validated non-overlapping per node).
        outages: Vec<ScriptedOutage>,
    },
}

/// One scripted node outage, in seconds since the simulation epoch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScriptedOutage {
    /// Node index (validated against the platform size at campaign level).
    pub node: u32,
    /// Failure instant, seconds.
    pub down_s: f64,
    /// Repair-complete instant, seconds (strictly after `down_s`).
    pub up_s: f64,
}

impl ScriptedOutage {
    /// The outage on the tick axis, as the executor runs it: the start
    /// rounds to the nearest tick and a sub-tick outage widens to one tick.
    fn to_ticks(self) -> Outage {
        let start = Time::from_secs_f64(self.down_s);
        let dur = Dur::from_secs_f64(self.up_s - self.down_s).max(Dur::from_ticks(1));
        Outage {
            node: self.node,
            start,
            end: start.saturating_add(dur),
        }
    }
}

/// Declarative failure trace: uptime regime, repair-time law, and the
/// horizon after which no *new* failures are injected (outages already in
/// progress still run to their repair).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureTraceSpec {
    /// Per-node uptime law.
    pub regime: FailureRegime,
    /// Repair (downtime) distribution, seconds. Ignored for
    /// [`FailureRegime::Scripted`].
    pub repair_s: DistSpec,
    /// No failure *starts* at or after this instant, seconds.
    pub horizon_s: f64,
}

/// What the online executor does with a job killed by a node failure.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Best-effort semantics (the CiGri model): all work is lost, the job
    /// is resubmitted at its full length.
    Resubmit,
    /// Coordinated checkpointing every `period_s` seconds of execution:
    /// the resubmitted job only re-runs the work since its last completed
    /// checkpoint. (Checkpoint cost itself is modelled as zero — the knob
    /// isolates the *restart* semantics.)
    Checkpoint {
        /// Checkpoint interval, seconds (> 0).
        period_s: f64,
    },
}

impl FailurePolicy {
    /// Check the policy parameters; returns the problems found (empty =
    /// valid).
    pub fn validate(&self) -> Vec<String> {
        match *self {
            FailurePolicy::Resubmit => Vec::new(),
            FailurePolicy::Checkpoint { period_s } => {
                if period_s > 0.0 && period_s.is_finite() {
                    Vec::new()
                } else {
                    vec![format!("checkpoint period {period_s} must be positive")]
                }
            }
        }
    }

    /// The checkpoint interval in ticks, if any.
    pub fn checkpoint_period(&self) -> Option<Dur> {
        match *self {
            FailurePolicy::Resubmit => None,
            FailurePolicy::Checkpoint { period_s } => {
                Some(Dur::from_secs_f64(period_s).max(Dur::from_ticks(1)))
            }
        }
    }
}

/// One concrete node outage: the node is unavailable on `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// Node index in `0..m`.
    pub node: u32,
    /// Failure instant (ticks).
    pub start: Time,
    /// Repair-complete instant (ticks, strictly after `start`).
    pub end: Time,
}

impl FailureTraceSpec {
    /// Check the spec is realizable; returns the problems found (empty =
    /// valid). Collect-all like the campaign validator so one pass reports
    /// every mistake. Node indices of scripted outages are validated
    /// against the platform size at campaign level (see [`Self::max_node`]).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if !(self.horizon_s > 0.0 && self.horizon_s.is_finite()) {
            errs.push(format!(
                "failure horizon {} must be positive and finite",
                self.horizon_s
            ));
        }
        match &self.regime {
            FailureRegime::Exponential { mtbf_s } => {
                if !(*mtbf_s > 0.0 && mtbf_s.is_finite()) {
                    errs.push(format!("MTBF {mtbf_s} must be positive and finite"));
                }
            }
            FailureRegime::Weibull { scale_s, shape } => {
                if !(*scale_s > 0.0 && scale_s.is_finite()) {
                    errs.push(format!(
                        "Weibull scale {scale_s} must be positive and finite"
                    ));
                }
                if !(*shape > 0.0 && shape.is_finite()) {
                    errs.push(format!("Weibull shape {shape} must be positive and finite"));
                }
            }
            FailureRegime::Scripted { outages } => {
                let mut ticked = Vec::with_capacity(outages.len());
                for (i, o) in outages.iter().enumerate() {
                    if !(o.down_s >= 0.0 && o.down_s.is_finite() && o.up_s.is_finite()) {
                        errs.push(format!(
                            "scripted outage {i}: non-finite or negative instant"
                        ));
                    } else if o.up_s <= o.down_s {
                        errs.push(format!(
                            "scripted outage {i}: up {} must follow down {}",
                            o.up_s, o.down_s
                        ));
                    } else {
                        ticked.push((o.to_ticks(), o));
                    }
                }
                // Per-node non-overlap on the tick intervals `generate`
                // emits: a node cannot fail while down.
                ticked.sort_by_key(|(t, _)| (t.node, t.start, t.end));
                for w in ticked.windows(2) {
                    let ((a, sa), (b, sb)) = (w[0], w[1]);
                    if a.node == b.node && b.start < a.end {
                        errs.push(format!(
                            "node {}: scripted outages overlap ([{}, {}) and [{}, {}) s, \
                             [{:?}, {:?}) and [{:?}, {:?}) in ticks)",
                            a.node,
                            sa.down_s,
                            sa.up_s,
                            sb.down_s,
                            sb.up_s,
                            a.start,
                            a.end,
                            b.start,
                            b.end
                        ));
                    }
                }
            }
        }
        if !matches!(self.regime, FailureRegime::Scripted { .. }) {
            let mean = self.repair_s.mean();
            if !(mean > 0.0 && mean.is_finite()) {
                errs.push(format!(
                    "mean repair time {mean} must be positive and finite"
                ));
            }
        }
        errs
    }

    /// Largest node index a scripted trace touches (None for stochastic
    /// regimes, which adapt to any platform size).
    pub fn max_node(&self) -> Option<u32> {
        match &self.regime {
            FailureRegime::Scripted { outages } => outages.iter().map(|o| o.node).max(),
            _ => None,
        }
    }

    /// Expand the spec into a concrete outage list for an `m`-node
    /// platform. Outages are non-overlapping per node, every outage has
    /// `end > start`, no outage *starts* at or after the horizon, and the
    /// result is sorted by `(start, node)` — the injection order the
    /// online executor schedules events in.
    pub fn generate(&self, m: usize, rng: &mut SimRng) -> Vec<Outage> {
        let mut out = Vec::new();
        let horizon = Time::from_secs_f64(self.horizon_s);
        match &self.regime {
            FailureRegime::Scripted { outages } => {
                out.extend(outages.iter().map(|o| o.to_ticks()));
            }
            regime => {
                for node in 0..m as u32 {
                    let mut t = Time::ZERO;
                    loop {
                        let uptime_s = match regime {
                            FailureRegime::Exponential { mtbf_s } => rng.exp(*mtbf_s),
                            FailureRegime::Weibull { scale_s, shape } => {
                                rng.weibull(*shape, *scale_s)
                            }
                            FailureRegime::Scripted { .. } => unreachable!("handled above"),
                        };
                        // A failure at the very instant of repair would be a
                        // zero-length uptime; advance at least one tick so the
                        // per-node sequence strictly progresses.
                        let down = (t + Dur::from_secs_f64(uptime_s)).max(t + Dur::from_ticks(1));
                        if down >= horizon {
                            break;
                        }
                        let repair =
                            Dur::from_secs_f64(self.repair_s.sample(rng)).max(Dur::from_ticks(1));
                        out.push(Outage {
                            node,
                            start: down,
                            end: down + repair,
                        });
                        t = down + repair;
                    }
                }
            }
        }
        out.sort_by_key(|o| (o.start, o.node));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_spec() -> FailureTraceSpec {
        FailureTraceSpec {
            regime: FailureRegime::Exponential { mtbf_s: 3600.0 },
            repair_s: DistSpec::Exp(600.0),
            horizon_s: 86_400.0,
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = exp_spec();
        let a = spec.generate(8, &mut SimRng::seed_from(42));
        let b = spec.generate(8, &mut SimRng::seed_from(42));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a day at 1h MTBF on 8 nodes must fail");
        let c = spec.generate(8, &mut SimRng::seed_from(43));
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn outages_are_per_node_disjoint_and_inside_horizon() {
        for (name, spec) in [
            ("exp", exp_spec()),
            (
                "weibull",
                FailureTraceSpec {
                    regime: FailureRegime::Weibull {
                        scale_s: 3600.0,
                        shape: 0.7,
                    },
                    repair_s: DistSpec::Uniform(60.0, 1200.0),
                    horizon_s: 86_400.0,
                },
            ),
        ] {
            let spec: FailureTraceSpec = spec;
            let horizon = Time::from_secs(86_400);
            let outages = spec.generate(4, &mut SimRng::seed_from(7));
            assert!(outages.windows(2).all(|w| w[0].start <= w[1].start));
            for o in &outages {
                assert!(o.end > o.start, "{name}: empty outage");
                assert!(o.start < horizon, "{name}: outage starts past horizon");
            }
            for node in 0..4u32 {
                let mut per: Vec<_> = outages.iter().filter(|o| o.node == node).collect();
                per.sort_by_key(|o| o.start);
                for w in per.windows(2) {
                    assert!(w[1].start >= w[0].end, "{name}: node {node} overlaps");
                }
            }
        }
    }

    #[test]
    fn scripted_trace_is_literal() {
        let spec = FailureTraceSpec {
            regime: FailureRegime::Scripted {
                outages: vec![
                    ScriptedOutage {
                        node: 1,
                        down_s: 10.0,
                        up_s: 20.0,
                    },
                    ScriptedOutage {
                        node: 0,
                        down_s: 5.0,
                        up_s: 6.0,
                    },
                ],
            },
            repair_s: DistSpec::Fixed(1.0),
            horizon_s: 100.0,
        };
        assert!(spec.validate().is_empty());
        assert_eq!(spec.max_node(), Some(1));
        let outages = spec.generate(4, &mut SimRng::seed_from(0));
        assert_eq!(
            outages,
            vec![
                Outage {
                    node: 0,
                    start: Time::from_secs(5),
                    end: Time::from_secs(6),
                },
                Outage {
                    node: 1,
                    start: Time::from_secs(10),
                    end: Time::from_secs(20),
                },
            ]
        );
    }

    #[test]
    fn validate_collects_all_problems() {
        let spec = FailureTraceSpec {
            regime: FailureRegime::Weibull {
                scale_s: 0.0,
                shape: -1.0,
            },
            repair_s: DistSpec::Fixed(0.0),
            horizon_s: -5.0,
        };
        let errs = spec.validate();
        assert_eq!(errs.len(), 4, "{errs:?}");

        let overlapping = FailureTraceSpec {
            regime: FailureRegime::Scripted {
                outages: vec![
                    ScriptedOutage {
                        node: 2,
                        down_s: 0.0,
                        up_s: 10.0,
                    },
                    ScriptedOutage {
                        node: 2,
                        down_s: 5.0,
                        up_s: 15.0,
                    },
                ],
            },
            repair_s: DistSpec::Fixed(1.0),
            horizon_s: 100.0,
        };
        let errs = overlapping.validate();
        assert!(
            errs.iter().any(|e| e.contains("overlap")),
            "expected overlap error, got {errs:?}"
        );
    }

    /// Overlap is judged on the tick intervals the executor runs, not on
    /// the seconds: touching outages can collide once the start rounds to
    /// a tick, and a sub-tick outage widens to one tick.
    #[test]
    fn scripted_overlap_is_checked_at_tick_resolution() {
        let scripted = |pairs: [(f64, f64); 2]| FailureTraceSpec {
            regime: FailureRegime::Scripted {
                outages: pairs
                    .iter()
                    .map(|&(down_s, up_s)| ScriptedOutage {
                        node: 0,
                        down_s,
                        up_s,
                    })
                    .collect(),
            },
            repair_s: DistSpec::Fixed(1.0),
            horizon_s: 100.0,
        };
        // Touching in seconds: both start at tick 0, and the first
        // widens from [T0, T0) to [T0, T1).
        let touching = scripted([(0.0, 0.0004), (0.0004, 5.0)]);
        // Apart in seconds: the first rounds to the empty [T1, T1), which
        // only the widening to [T1, T2) makes cover the second's start T1.
        let widened = scripted([(0.0006, 0.0009), (0.0012, 1.0)]);
        // Touching in seconds, no widening: the start rounds up to T2 and
        // the length to 2 ticks, so the first ends at T4, past T3.
        let rounded = scripted([(0.0015, 0.003), (0.003, 1.0)]);
        for spec in [touching, widened, rounded] {
            let errs = spec.validate();
            assert!(
                errs.len() == 1 && errs[0].contains("node 0: scripted outages overlap"),
                "{errs:?}"
            );
        }
        // Exactly touching on tick boundaries is fine.
        assert!(scripted([(0.0, 1.0), (1.0, 2.0)]).validate().is_empty());
    }

    #[test]
    fn checkpoint_policy_knobs() {
        assert!(FailurePolicy::Resubmit.validate().is_empty());
        assert_eq!(FailurePolicy::Resubmit.checkpoint_period(), None);
        let cp = FailurePolicy::Checkpoint { period_s: 300.0 };
        assert!(cp.validate().is_empty());
        assert_eq!(cp.checkpoint_period(), Some(Dur::from_secs(300)));
        assert!(!FailurePolicy::Checkpoint { period_s: 0.0 }
            .validate()
            .is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let spec = exp_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: FailureTraceSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        let pol = FailurePolicy::Checkpoint { period_s: 120.0 };
        let json = serde_json::to_string(&pol).unwrap();
        let back: FailurePolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(pol, back);
    }
}
