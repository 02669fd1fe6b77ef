//! Per-request outcome records and goodput accounting.
//!
//! Fig. 8 decomposes end-to-end latency into queue / execution /
//! communication time and reports goodput (completions within SLO) next to
//! it; [`RequestOutcome`] carries exactly those fields and [`OutcomeLog`]
//! aggregates them.

use serde::{Deserialize, Serialize};

use flexpipe_sim::{SimDuration, SimTime};

use crate::digest::Digest;

/// The measured life of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Request id.
    pub id: u64,
    /// Gateway arrival time.
    pub arrival: SimTime,
    /// Completion time of the last output token.
    pub completion: SimTime,
    /// Time spent queued before first execution.
    pub queue: SimDuration,
    /// Time spent in stage compute.
    pub execution: SimDuration,
    /// Time spent in inter-stage communication.
    pub communication: SimDuration,
    /// Time from first execution to last prefill stage completing
    /// (the Fig. 13 metric).
    pub prefill: SimDuration,
    /// The request's SLO.
    pub slo: SimDuration,
    /// Prompt tokens.
    pub prompt_tokens: u32,
    /// Generated tokens.
    pub output_tokens: u32,
}

impl RequestOutcome {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.completion.saturating_since(self.arrival)
    }

    /// Whether the request met its SLO.
    pub fn within_slo(&self) -> bool {
        self.latency() <= self.slo
    }
}

/// Aggregated outcomes of one experiment run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OutcomeLog {
    outcomes: Vec<RequestOutcome>,
}

/// Summary statistics of an [`OutcomeLog`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct OutcomeSummary {
    /// Completed request count.
    pub completed: usize,
    /// Completions within SLO.
    pub within_slo: usize,
    /// Goodput rate: within-SLO completions / completed.
    pub goodput_rate: f64,
    /// Goodput throughput: within-SLO completions per second of span.
    pub goodput_per_sec: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency: f64,
    /// P50 latency, seconds.
    pub p50_latency: f64,
    /// P99 latency, seconds.
    pub p99_latency: f64,
    /// Mean queue time, seconds.
    pub mean_queue: f64,
    /// Mean execution time, seconds.
    pub mean_execution: f64,
    /// Mean communication time, seconds.
    pub mean_communication: f64,
    /// Mean prefill latency, seconds.
    pub mean_prefill: f64,
}

impl OutcomeLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request.
    pub fn record(&mut self, outcome: RequestOutcome) {
        self.outcomes.push(outcome);
    }

    /// All outcomes, in completion order until [`OutcomeLog::canonicalize`]
    /// re-sorts them.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Re-sorts the log by request id. Completion order is a schedule
    /// artifact — two requests finishing at the same virtual instant on
    /// different instances land in pop order — so reports canonicalize
    /// before serializing: equivalent schedules then produce byte-identical
    /// outcome lists and identical float-summation order in the summary
    /// means.
    pub fn canonicalize(&mut self) {
        self.outcomes.sort_by_key(|o| o.id);
    }

    /// Number of completions.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether nothing completed.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Latency digest over all completions.
    pub fn latency_digest(&self) -> Digest {
        let mut d = Digest::new();
        for o in &self.outcomes {
            d.record(o.latency().as_secs_f64());
        }
        d
    }

    /// Latency digest restricted to a completion-time window.
    pub fn latency_digest_in(&self, from: SimTime, to: SimTime) -> Digest {
        let mut d = Digest::new();
        for o in &self.outcomes {
            if o.completion >= from && o.completion < to {
                d.record(o.latency().as_secs_f64());
            }
        }
        d
    }

    /// Full summary over a measurement span of `span_secs` seconds.
    pub fn summarize(&self, span_secs: f64) -> OutcomeSummary {
        if self.outcomes.is_empty() {
            return OutcomeSummary::default();
        }
        let n = self.outcomes.len();
        let within = self.outcomes.iter().filter(|o| o.within_slo()).count();
        let mut lat = self.latency_digest();
        let mean = |f: fn(&RequestOutcome) -> SimDuration| -> f64 {
            self.outcomes
                .iter()
                .map(|o| f(o).as_secs_f64())
                .sum::<f64>()
                / n as f64
        };
        OutcomeSummary {
            completed: n,
            within_slo: within,
            goodput_rate: within as f64 / n as f64,
            goodput_per_sec: if span_secs > 0.0 {
                within as f64 / span_secs
            } else {
                0.0
            },
            mean_latency: lat.mean(),
            p50_latency: lat.quantile(0.5),
            p99_latency: lat.quantile(0.99),
            mean_queue: mean(|o| o.queue),
            mean_execution: mean(|o| o.execution),
            mean_communication: mean(|o| o.communication),
            mean_prefill: mean(|o| o.prefill),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, arrival_s: u64, latency_ms: u64, slo_s: u64) -> RequestOutcome {
        let arrival = SimTime::from_secs(arrival_s);
        RequestOutcome {
            id,
            arrival,
            completion: arrival + SimDuration::from_millis(latency_ms),
            queue: SimDuration::from_millis(latency_ms / 2),
            execution: SimDuration::from_millis(latency_ms / 4),
            communication: SimDuration::from_millis(latency_ms / 4),
            prefill: SimDuration::from_millis(latency_ms / 8),
            slo: SimDuration::from_secs(slo_s),
            prompt_tokens: 128,
            output_tokens: 16,
        }
    }

    #[test]
    fn latency_and_slo() {
        let o = outcome(0, 10, 1500, 1);
        assert_eq!(o.latency(), SimDuration::from_millis(1500));
        assert!(!o.within_slo());
        let ok = outcome(1, 10, 900, 1);
        assert!(ok.within_slo());
    }

    #[test]
    fn summary_accounts_goodput() {
        let mut log = OutcomeLog::new();
        log.record(outcome(0, 0, 500, 1)); // within
        log.record(outcome(1, 1, 2000, 1)); // violate
        log.record(outcome(2, 2, 800, 1)); // within
        let s = log.summarize(10.0);
        assert_eq!(s.completed, 3);
        assert_eq!(s.within_slo, 2);
        assert!((s.goodput_rate - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.goodput_per_sec - 0.2).abs() < 1e-9);
        assert!(s.mean_queue > 0.0);
    }

    #[test]
    fn windowed_digest_filters() {
        let mut log = OutcomeLog::new();
        log.record(outcome(0, 0, 100, 5));
        log.record(outcome(1, 100, 100, 5));
        let d = log.latency_digest_in(SimTime::from_secs(50), SimTime::from_secs(200));
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = OutcomeLog::new().summarize(10.0);
        assert_eq!(s.completed, 0);
        assert_eq!(s.goodput_per_sec, 0.0);
    }
}
