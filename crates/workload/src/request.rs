//! Request records flowing through the serving system.

use serde::{Deserialize, Serialize};

use flexpipe_sim::{SimDuration, SimTime};

/// Identifier of one inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Unique id (dense, in arrival order).
    pub id: RequestId,
    /// Arrival time at the gateway.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Number of tokens to generate (1 for encoder-only models).
    pub output_tokens: u32,
    /// Latency service-level objective for goodput accounting.
    pub slo: SimDuration,
}

impl Request {
    /// Total tokens the request touches (prompt + generated).
    pub fn total_tokens(&self) -> u32 {
        self.prompt_tokens + self.output_tokens
    }
}

/// A complete generated workload: requests sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Workload {
    /// Requests in arrival order.
    pub requests: Vec<Request>,
}

impl Workload {
    /// Builds from parts, asserting arrival order.
    pub fn new(requests: Vec<Request>) -> Self {
        debug_assert!(requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        Workload { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Mean arrival rate over the workload span, requests/second.
    pub fn mean_rate(&self) -> f64 {
        if self.requests.len() < 2 {
            return 0.0;
        }
        let span = self
            .requests
            .last()
            .unwrap()
            .arrival
            .saturating_since(self.requests[0].arrival)
            .as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            (self.requests.len() - 1) as f64 / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, at_ms: u64) -> Request {
        Request {
            id: RequestId(id),
            arrival: SimTime::from_millis(at_ms),
            prompt_tokens: 100,
            output_tokens: 20,
            slo: SimDuration::from_secs(5),
        }
    }

    #[test]
    fn workload_rate() {
        let w = Workload::new(vec![req(0, 0), req(1, 500), req(2, 1000)]);
        assert!((w.mean_rate() - 2.0).abs() < 1e-9);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn empty_workload_rate_is_zero() {
        assert_eq!(Workload::default().mean_rate(), 0.0);
        let single = Workload::new(vec![req(0, 10)]);
        assert_eq!(single.mean_rate(), 0.0);
    }

    #[test]
    fn total_tokens() {
        assert_eq!(req(0, 0).total_tokens(), 120);
    }
}
