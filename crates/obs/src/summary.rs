//! Offline trace consumption: JSONL parsing and run summaries.

use crate::event::TraceRecord;
use crate::registry::EventRegistry;

/// A malformed line in a JSONL trace: which line (1-based) and why.
///
/// Traces are routinely truncated in the wild — a killed recording, a
/// partial download, a ring buffer cut mid-write — so consumers need the
/// position, not just a message, to decide whether the damage is a
/// garbage line in the middle or a clean cut at the tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong on that line (serde decode error text).
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON Lines trace (as produced by
/// [`crate::TraceRecorder::to_jsonl`]). Blank lines are ignored; a
/// malformed or truncated line fails with a [`ParseError`] naming it.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(line).map_err(|e| ParseError {
            line: i + 1,
            reason: format!("{e:?}"),
        })?;
        out.push(rec);
    }
    Ok(out)
}

/// Aggregate view of one parsed trace.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Records in the trace.
    pub records: usize,
    /// Virtual time of the first record, seconds.
    pub first_at: f64,
    /// Virtual time of the last record, seconds.
    pub last_at: f64,
    /// Registry recomputed from the records.
    pub registry: EventRegistry,
}

impl TraceSummary {
    /// Summarizes parsed records (assumed time-ordered, as a recorder
    /// emits them).
    pub fn from_records(records: &[TraceRecord]) -> TraceSummary {
        let mut registry = EventRegistry::new();
        for r in records {
            registry.observe(r.event.kind(), r.at);
        }
        TraceSummary {
            records: records.len(),
            first_at: records.first().map_or(0.0, |r| r.at),
            last_at: records.last().map_or(0.0, |r| r.at),
            registry,
        }
    }

    /// Renders the summary: a header line plus the per-kind table.
    pub fn render(&self, name: &str) -> String {
        let mut out = format!(
            "{name}: {} records spanning [{:.3}s, {:.3}s]\n",
            self.records, self.first_at, self.last_at
        );
        out.push_str(&self.registry.table("events by kind").render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::recorder::{TraceMode, TraceRecorder};
    use flexpipe_sim::SimTime;

    #[test]
    fn summary_matches_live_registry() {
        let mut rec = TraceRecorder::new(TraceMode::Full);
        for i in 0..10u64 {
            rec.record(
                SimTime::from_secs_f64(i as f64),
                TraceEvent::RequestArrival { req: i },
            );
        }
        rec.record(
            SimTime::from_secs_f64(10.0),
            TraceEvent::RequestComplete {
                req: 0,
                instance: 1,
                generated: 8,
            },
        );
        let parsed = parse_jsonl(&rec.to_jsonl()).unwrap();
        let s = TraceSummary::from_records(&parsed);
        assert_eq!(s.records, 11);
        assert_eq!(s.registry.count("request_arrival"), 11 - 1);
        assert_eq!(
            s.registry.count("request_arrival"),
            rec.registry().count("request_arrival")
        );
        assert_eq!(s.last_at, 10.0);
        assert!(s.render("t").contains("request_arrival"));
    }

    #[test]
    fn parse_reports_the_bad_line() {
        let err = parse_jsonl("{\"seq\":0,\"at\":0.0,\"event\":\"RecoveryClosed\"}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn parse_reports_a_truncated_tail() {
        // A recording killed mid-write: the last line is cut inside the
        // event object. The good prefix must not mask the damage.
        let mut rec = TraceRecorder::new(TraceMode::Full);
        rec.record(SimTime::from_secs(1), TraceEvent::RequestArrival { req: 0 });
        rec.record(SimTime::from_secs(2), TraceEvent::RecoveryClosed);
        let full = rec.to_jsonl();
        let cut = &full[..full.len() - 12];
        assert!(!cut.ends_with('\n'), "cut must land mid-line");
        let err = parse_jsonl(cut).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
    }

    #[test]
    fn parse_reports_a_garbage_line_between_records() {
        let text = "{\"seq\":0,\"at\":0.0,\"event\":\"RecoveryClosed\"}\n\
                    {\"seq\":1,\"at\":1.0,\"event\":{\"bogus_kind\":{}}}\n\
                    {\"seq\":2,\"at\":2.0,\"event\":\"RecoveryClosed\"}\n";
        let err = parse_jsonl(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(!err.reason.is_empty());
        // Blank lines are fine and do not shift the numbering.
        let ok = parse_jsonl("\n{\"seq\":0,\"at\":0.0,\"event\":\"RecoveryClosed\"}\n\n").unwrap();
        assert_eq!(ok.len(), 1);
    }
}
