//! The run report every experiment consumes.

use serde::{Deserialize, Serialize};

use flexpipe_metrics::{DisruptionStats, OutcomeLog, OutcomeSummary, Timeline, UtilizationLedger};
use flexpipe_sim::SimTime;

/// Everything measured during one engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Simulated span, seconds.
    pub horizon_secs: f64,
    /// Requests that arrived.
    pub arrived: usize,
    /// Outcome summary over the whole span.
    pub summary: OutcomeSummary,
    /// Raw per-request outcomes.
    pub outcomes: OutcomeLog,
    /// Gateway queue length over time.
    pub queue_timeline: Timeline,
    /// In-system (queued + admitted) request count over time.
    pub inflight_timeline: Timeline,
    /// Total GPUs in the simulated fleet.
    pub fleet_size: u32,
    /// Busy/allocation ledger.
    pub ledger: UtilizationLedger,
    /// Completed refactors.
    pub refactors: u32,
    /// Total switchover pause time, seconds.
    pub refactor_pause_secs: f64,
    /// Instances spawned.
    pub spawns: u32,
    /// Mean instance initialisation latency, seconds.
    pub mean_init_secs: f64,
    /// Mean GPU allocation wait, seconds.
    pub mean_alloc_wait_secs: f64,
    /// Parameter loads served from the host cache or a peer host.
    pub warm_loads: u32,
    /// Parameter loads from persistent storage.
    pub cold_loads: u32,
    /// Capacity-revocation accounting: what was lost and how fast the
    /// deployment recovered.
    pub disruptions: DisruptionStats,
    /// Events processed.
    pub events: u64,
    /// Whether the run hit its event step budget and was cut short (the
    /// fleet watchdog records such cells instead of aborting the grid).
    pub truncated: bool,
}

impl RunReport {
    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Completion rate (completed / arrived).
    pub fn completion_rate(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.completed() as f64 / self.arrived as f64
        }
    }

    /// Mean GPU utilisation of held GPUs over the run.
    pub fn held_utilization(&self) -> f64 {
        self.ledger
            .utilization(SimTime::from_secs_f64(self.horizon_secs))
    }

    /// Mean GPUs held over the run.
    pub fn mean_gpus_held(&self) -> f64 {
        self.ledger
            .mean_allocated(SimTime::from_secs_f64(self.horizon_secs))
    }

    /// Peak GPUs held.
    pub fn peak_gpus_held(&self) -> u32 {
        self.ledger.peak_allocated()
    }

    /// Warm-start fraction of parameter loads.
    pub fn warm_load_fraction(&self) -> f64 {
        let total = self.warm_loads + self.cold_loads;
        if total == 0 {
            0.0
        } else {
            f64::from(self.warm_loads) / f64::from(total)
        }
    }
}
