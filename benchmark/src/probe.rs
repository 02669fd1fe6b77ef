//! A delegating [`ControlPolicy`] that times the policy layer from the
//! outside, so every run still goes through the unmodified engine.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use flexpipe_cluster::GpuId;
use flexpipe_serving::{ControlPolicy, Ctx, DisruptionNotice, InstanceId};
use flexpipe_sim::SimTime;

/// The policy callbacks the probe times, in report order.
pub const CALLBACKS: [&str; 6] = [
    "on_tick",
    "on_arrival",
    "on_instance_ready",
    "on_action",
    "on_revoke_notice",
    "on_disruption",
];

/// What the probe has seen so far.
#[derive(Debug, Default)]
pub struct ProbeStats {
    /// Wall time of `init`.
    pub init: Duration,
    /// When `init` returned: the end of set-up, just before the first
    /// engine event.
    pub init_done: Option<Instant>,
    /// Calls per callback, indexed like [`CALLBACKS`].
    pub calls: [u64; 6],
    /// Total wall time per callback, indexed like [`CALLBACKS`].
    pub total: [Duration; 6],
    /// Every `on_tick` duration, for its tail.
    pub tick_samples: Vec<Duration>,
    /// Policy time since the last [`Probe::take_step_policy`], so an
    /// engine step's self time can exclude the policy it called.
    pub step_policy: Duration,
}

/// Shared handle onto a probe's statistics.
#[derive(Clone, Default)]
pub struct Probe(Arc<Mutex<ProbeStats>>);

impl Probe {
    /// Wraps `inner`. With `callbacks` off only `init` is timed, which is
    /// what an untraced run needs; every other call just delegates.
    pub fn wrap(&self, inner: Box<dyn ControlPolicy>, callbacks: bool) -> Box<dyn ControlPolicy> {
        Box::new(Probed {
            inner,
            probe: self.clone(),
            callbacks,
        })
    }

    /// Locks the statistics.
    pub fn stats(&self) -> MutexGuard<'_, ProbeStats> {
        self.0
            .lock()
            .expect("probe lock is never held across a panic")
    }

    /// Policy time spent since the previous call.
    pub fn take_step_policy(&self) -> Duration {
        std::mem::take(&mut self.stats().step_policy)
    }
}

struct Probed {
    inner: Box<dyn ControlPolicy>,
    probe: Probe,
    callbacks: bool,
}

impl Probed {
    fn timed<R>(&mut self, which: usize, f: impl FnOnce(&mut dyn ControlPolicy) -> R) -> R {
        if !self.callbacks {
            return f(self.inner.as_mut());
        }
        let started = Instant::now();
        let out = f(self.inner.as_mut());
        let took = started.elapsed();
        let mut st = self.probe.stats();
        st.calls[which] += 1;
        st.total[which] += took;
        st.step_policy += took;
        if which == 0 {
            st.tick_samples.push(took);
        }
        out
    }
}

impl ControlPolicy for Probed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let started = Instant::now();
        self.inner.init(ctx);
        let done = Instant::now();
        let mut st = self.probe.stats();
        st.init += done - started;
        st.init_done = Some(done);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(0, |p| p.on_tick(ctx))
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(1, |p| p.on_arrival(ctx))
    }

    fn on_instance_ready(&mut self, ctx: &mut Ctx<'_>, id: InstanceId) {
        self.timed(2, |p| p.on_instance_ready(ctx, id))
    }

    fn on_action(&mut self, ctx: &mut Ctx<'_>, tag: u32) {
        self.timed(3, |p| p.on_action(ctx, tag))
    }

    fn on_revoke_notice(&mut self, ctx: &mut Ctx<'_>, gpus: &[GpuId], deadline: SimTime) {
        self.timed(4, |p| p.on_revoke_notice(ctx, gpus, deadline))
    }

    fn on_disruption(&mut self, ctx: &mut Ctx<'_>, notice: &DisruptionNotice) {
        self.timed(5, |p| p.on_disruption(ctx, notice))
    }
}
