//! The one engine driver: every run — offline, schedule exploration and
//! live serving — fires its events through [`Driver`].
//!
//! - **Offline.** [`Engine::run_observed`] is `Driver::new(engine).finish()`.
//! - **Schedule exploration.** [`Driver::batch`] lists the events tied
//!   at the earliest firing time and [`Driver::step`] fires the chosen
//!   one. Choosing index 0 at every step is the canonical run, bit for
//!   bit; `flexpipe-check` builds its bounded interleaving exploration on
//!   this seam.
//! - **Live serving.** [`Driver::advance_before`] and
//!   [`Driver::push_arrival`] inject arrivals while the run is in
//!   flight. The gateway's shard threads turn a paced request stream into
//!   simulated load this way, and replay re-executes a recording through
//!   the same two calls.
//!
//! # One firing rule
//!
//! The next event fires only if the run has fired fewer than
//! `max_events` events, the event is due at or before the scenario
//! horizon, and — inside [`Driver::advance_before`]`(t)` — it is due
//! strictly before `t`. A run is truncated iff it fired `max_events`
//! events, whichever path drove it.
//!
//! # The injection rule
//!
//! A live run and its replay are byte-identical iff every arrival `i`
//! enters the queue at the same point of the event sequence in both
//! runs. The canonical point: arrival `i` is appended after all events
//! with firing time `< stamp(i)` have fired and before any event with
//! time `>= stamp(i)` fires. Within one instant, injected arrivals sort
//! after already-queued events (insertion order).
//!
//! Arrivals chain exactly as offline: when `Arrival(i)` fires while
//! `workload[i + 1]` already exists, its dispatch schedules
//! `Arrival(i + 1)`. The driver therefore schedules a pushed arrival
//! itself only when the chain is dead — every earlier arrival has
//! already fired — which is the `arrivals_fired == i` test in
//! [`Driver::push_arrival`]. Pushing every arrival up front instead
//! would give each a different sequence number and could reorder
//! same-instant events.

use flexpipe_sim::{EventQueue, SimTime};
use flexpipe_workload::Request;

use std::sync::Arc;

use super::{Engine, Event, ObservedRun, ReqRuntime};

/// Drives an [`Engine`] from priming to its report.
///
/// Attach tracing or profiling to the engine *before* wrapping it:
/// construction primes the queue, and policy init fires observable
/// events. For live injection, build the engine over an *empty*
/// workload; arrivals then come only through [`Driver::push_arrival`].
pub struct Driver {
    engine: Engine,
    queue: EventQueue<Event>,
    /// `Arrival` events fired so far: the chain-alive test.
    arrivals_fired: u64,
}

impl Driver {
    /// Primes `engine` (policy init + seed events) without firing anything.
    pub fn new(mut engine: Engine) -> Driver {
        let mut queue = EventQueue::new();
        engine.prime(&mut queue);
        Driver {
            engine,
            queue,
            arrivals_fired: 0,
        }
    }

    /// Whether the next pending event may fire: budget left, due at or
    /// before the horizon and, when `before` is given, strictly before it.
    fn may_fire(&self, before: Option<SimTime>) -> bool {
        let state = &self.engine.state;
        self.queue.events_fired() < state.config.max_events
            && self
                .queue
                .peek_time()
                .is_some_and(|at| at <= state.horizon && before.is_none_or(|t| at < t))
    }

    fn fire(&mut self, now: SimTime, event: Event) -> &'static str {
        if matches!(event, Event::Arrival(_)) {
            self.arrivals_fired += 1;
        }
        self.engine.handle(now, event, &mut self.queue)
    }

    /// The same-virtual-time batch at the queue front, in canonical
    /// insertion order (index 0 is what the canonical run fires next).
    /// Empty once [`Driver::step`] returns `None`.
    pub fn batch(&self) -> Vec<&Event> {
        if !self.may_fire(None) {
            return Vec::new();
        }
        self.queue.front_batch()
    }

    /// Fires the `choice`-th event of the front batch (insertion order)
    /// and returns its kind, or `None` once the run is over.
    ///
    /// # Panics
    ///
    /// Panics when `choice` is out of range for the front batch;
    /// exploration drivers must read [`Driver::batch`] first.
    pub fn step(&mut self, choice: usize) -> Option<&'static str> {
        if !self.may_fire(None) {
            return None;
        }
        let popped = if choice == 0 {
            self.queue.pop()
        } else {
            self.queue.pop_tied(choice)
        };
        let (now, event) = popped.expect("schedule choice out of range for the front batch");
        Some(self.fire(now, event))
    }

    /// Fires, in canonical order, every event that may fire and is due
    /// strictly before `t`.
    ///
    /// Strictly-before matters twice: an arrival stamped exactly at a
    /// queued event's time must sort *after* it (insertion order), and
    /// an equal-stamp arrival chain must stay alive so the engine's own
    /// dispatch does the scheduling.
    pub fn advance_before(&mut self, t: SimTime) {
        while self.may_fire(Some(t)) {
            let (now, event) = self.queue.pop().expect("may_fire peeked an event");
            self.fire(now, event);
        }
    }

    /// Arrivals accepted so far (fired or still pending).
    pub fn arrivals(&self) -> usize {
        self.engine.state.workload.len()
    }

    /// Injects the next arrival, stamped `req.arrival`.
    ///
    /// The caller must first advance the run past everything earlier
    /// ([`Driver::advance_before`]`(req.arrival)`) — that ordering *is*
    /// the determinism contract. Requests must carry dense ids in push
    /// order and monotone non-decreasing stamps.
    ///
    /// # Panics
    ///
    /// Panics when `req.id` is not the next dense index or the stamp
    /// regresses below an already-pushed arrival's.
    pub fn push_arrival(&mut self, req: Request) {
        let i = self.engine.state.workload.len();
        assert_eq!(
            req.id.0, i as u64,
            "live arrivals must carry dense ids in push order"
        );
        if let Some(last) = self.engine.state.workload.last() {
            assert!(
                req.arrival >= last.arrival,
                "live arrival stamps must be monotone non-decreasing"
            );
        }
        let stamp = req.arrival;
        Arc::make_mut(&mut self.engine.state.workload).push(req);
        self.engine.state.reqs.push(ReqRuntime {
            req,
            admitted: None,
            prefill_done: None,
            generated: 0,
            exec_secs: 0.0,
            comm_secs: 0.0,
            done: false,
        });
        // Chain-dead (every earlier arrival already fired): schedule this
        // one directly. Chain-alive: `Arrival(i - 1)`'s own dispatch will
        // schedule it when it fires — scheduling here too would duplicate
        // the event.
        if self.arrivals_fired == i as u64 {
            self.queue
                .schedule(stamp.max(self.queue.now()), Event::Arrival(i as u32))
                .expect("stamp clamped to now");
        }
    }

    /// Fires everything left in canonical order and folds the run into
    /// its report, trace and profiler.
    pub fn finish(mut self) -> ObservedRun {
        while self.step(0).is_some() {}
        let steps = self.queue.events_fired();
        // The step budget is a first-class watchdog, not an assertion: a
        // fleet sweep must be able to bound runaway cells and report them
        // as truncated rather than abort the whole grid.
        let truncated = steps >= self.engine.state.config.max_events;
        self.engine.finish_observed(truncated, steps)
    }
}
