//! Worker and plan types shared by every DLT policy.

use serde::{Deserialize, Serialize};

/// One computation resource behind a link, as DLT sees it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    /// Compute speed, in load-units per second.
    pub speed: f64,
    /// Link bandwidth, in load-units per second (bytes/s divided by the
    /// bytes-per-unit density of the application).
    pub bandwidth: f64,
    /// Per-message latency of the link, in seconds.
    pub latency: f64,
}

impl Worker {
    /// A worker with the given speed/bandwidth (units/s) and latency (s).
    pub fn new(speed: f64, bandwidth: f64, latency: f64) -> Worker {
        assert!(speed > 0.0 && bandwidth > 0.0 && latency >= 0.0);
        Worker {
            speed,
            bandwidth,
            latency,
        }
    }

    /// Time to receive `units` of load.
    pub fn recv_time(&self, units: f64) -> f64 {
        assert!(units >= 0.0);
        if units == 0.0 {
            0.0
        } else {
            self.latency + units / self.bandwidth
        }
    }

    /// Time to compute `units` of load.
    pub fn compute_time(&self, units: f64) -> f64 {
        assert!(units >= 0.0);
        units / self.speed
    }
}

/// The outcome of a distribution policy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DltPlan {
    /// Load given to each worker, in units (same order as the input
    /// workers; zero means the worker is not used).
    pub alphas: Vec<f64>,
    /// Completion time of the whole load, in seconds.
    pub makespan: f64,
}

impl DltPlan {
    /// Total load distributed.
    pub fn total(&self) -> f64 {
        self.alphas.iter().sum()
    }

    /// Number of workers actually used.
    pub fn used_workers(&self) -> usize {
        self.alphas.iter().filter(|&&a| a > 0.0).count()
    }

    /// Effective throughput, units per second.
    pub fn throughput(&self) -> f64 {
        assert!(self.makespan > 0.0);
        self.total() / self.makespan
    }

    /// Internal consistency: non-negative chunks summing to `w`.
    pub fn check(&self, w: f64) {
        assert!(self.alphas.iter().all(|&a| a >= -1e-9), "negative chunk");
        let sum = self.total();
        assert!(
            (sum - w).abs() <= 1e-6 * w.max(1.0),
            "chunks sum to {sum}, expected {w}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_times() {
        let w = Worker::new(2.0, 10.0, 0.5);
        assert!((w.recv_time(20.0) - 2.5).abs() < 1e-12);
        assert_eq!(w.recv_time(0.0), 0.0, "empty messages cost nothing");
        assert!((w.compute_time(20.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn plan_accounting() {
        let plan = DltPlan {
            alphas: vec![3.0, 0.0, 7.0],
            makespan: 5.0,
        };
        assert_eq!(plan.total(), 10.0);
        assert_eq!(plan.used_workers(), 2);
        assert!((plan.throughput() - 2.0).abs() < 1e-12);
        plan.check(10.0);
    }

    #[test]
    #[should_panic]
    fn check_catches_bad_sum() {
        DltPlan {
            alphas: vec![1.0],
            makespan: 1.0,
        }
        .check(2.0);
    }
}
