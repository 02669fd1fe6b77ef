//! `fleet worker`: drain one campaign's cell list from N independent
//! processes — or machines — against a shared cache directory.
//!
//! A worker loads the same campaign file as `fleet campaign`, derives
//! the same [`CampaignPlan`] (same cells, same content keys, same salt),
//! and then computes cells *into the cache* without assembling any
//! artifacts. Assembly is a separate, cache-only step
//! ([`crate::campaign::assemble_campaign`], `fleet campaign assemble`)
//! run once the fleet has drained.
//!
//! Workers coordinate through atomic claim markers in the cache
//! ([`crate::store::LocalDiskStore::try_claim`]). Each worker makes
//! repeated passes over the pending cells, in a per-worker shuffled order
//! to keep contention low, through the same cell loop as `fleet
//! campaign`: a cached cell is a hit, a missing one is claimed, re-probed
//! (a peer may have just finished it), computed, stored and released. A
//! claim holds the worker id and is heartbeated (mtime refresh) while the
//! cell computes; claims whose heartbeat is older than `--claim-ttl` are
//! presumed dead and reaped by any live worker between passes.
//!
//! Claims are an **optimization, not a lock**: if two workers ever
//! compute the same cell (a reaped-but-alive worker, claim races on
//! non-POSIX filesystems), both produce byte-identical entries and the
//! atomic last-writer-wins put keeps the cache consistent. Correctness
//! never depends on mutual exclusion — only efficiency does.
//!
//! Mixed-version fleets are rejected by construction: the cell keys are
//! salted with the engine fingerprint, so a worker built from different
//! engine semantics addresses disjoint keys and can neither poison nor
//! satisfy this campaign's cells.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use flexpipe_sim::{fnv1a, FNV_OFFSET};

use crate::cache::CellCache;
use crate::campaign::{CampaignPlan, CampaignSpec, CellJob, Ran};
use crate::runner::FleetError;
use crate::store::{ClaimOutcome, DEFAULT_CLAIM_TTL};
use crate::RunOptions;

/// Configuration of one `fleet worker` process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Worker pool / progress options (shared with sweeps).
    pub run: RunOptions,
    /// This worker's identity, recorded in every claim it takes.
    /// Defaults to `w<pid>`; give each machine a stable, unique id when
    /// running over a shared filesystem.
    pub worker_id: String,
    /// Heartbeat TTL: claims not refreshed within this window are
    /// presumed abandoned and reaped.
    pub claim_ttl: Duration,
    /// Stop after computing this many cells (chunked draining; also how
    /// tests simulate a worker killed mid-campaign). `None` drains.
    pub max_cells: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            run: RunOptions::default(),
            worker_id: format!("w{}", std::process::id()),
            claim_ttl: DEFAULT_CLAIM_TTL,
            max_cells: None,
        }
    }
}

/// What one worker process did. Purely informational (stderr summary):
/// the cache is the only artifact a worker produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerOutcome {
    /// Cells in the campaign.
    pub assigned: usize,
    /// Cells this worker computed and stored.
    pub computed: usize,
    /// Cells already in the cache (here before us, or raced to us).
    pub hits: usize,
    /// Cells that computed truncated/failed and therefore could not be
    /// cached — `assemble` will report these as missing.
    pub uncacheable: usize,
    /// Stale claims this worker reaped from presumed-dead peers.
    pub reaped: usize,
    /// Cells left for other workers when `max_cells` stopped us early.
    pub abandoned: usize,
}

impl WorkerOutcome {
    /// The one-line stderr summary.
    pub fn render(&self, worker_id: &str) -> String {
        format!(
            "worker {worker_id}: {} assigned, {} computed, {} cache hits, {} uncacheable, \
             {} stale claims reaped, {} left to peers",
            self.assigned, self.computed, self.hits, self.uncacheable, self.reaped, self.abandoned
        )
    }
}

/// One worker's side of the claim protocol, consulted by the cell loop
/// around every cache miss: it takes and releases claims, remembers the
/// held ones for the heartbeat, and counts computes against `max_cells`.
pub(crate) struct Claims<'a> {
    cache: &'a CellCache,
    opts: &'a WorkerOptions,
    held: Mutex<BTreeSet<String>>,
    /// Computes spent or reserved so far, across passes.
    computed: AtomicUsize,
}

impl Claims<'_> {
    fn cap(&self) -> usize {
        self.opts.max_cells.unwrap_or(usize::MAX)
    }

    /// Reserves one compute under the cap and claims `job`; `false`
    /// defers the cell (over the cap, held by a peer, or an unreadable
    /// claim file — claiming is best-effort).
    pub(crate) fn claim(&self, job: &CellJob<'_>) -> bool {
        if self.computed.fetch_add(1, Ordering::Relaxed) >= self.cap() {
            self.computed.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        let worker = &self.opts.worker_id;
        match self.cache.try_claim(job.key, worker) {
            Ok(ClaimOutcome::Acquired) => {
                self.held
                    .lock()
                    .expect("held-claims lock")
                    .insert(job.key.to_string());
                return true;
            }
            Ok(ClaimOutcome::Held { worker: peer, .. }) => {
                if !self.opts.run.quiet {
                    eprintln!(
                        "worker {worker} {}:{} held by {peer}",
                        job.entry_name, job.id
                    );
                }
            }
            Err(e) => eprintln!("worker {worker}: claim {} failed: {e}", job.key),
        }
        self.computed.fetch_sub(1, Ordering::Relaxed);
        false
    }

    /// Releases this worker's claim on `job`; `computed` says whether the
    /// reserved compute was spent (a re-probe hit gives it back).
    pub(crate) fn release(&self, job: &CellJob<'_>, computed: bool) {
        if !computed {
            self.computed.fetch_sub(1, Ordering::Relaxed);
        }
        self.held.lock().expect("held-claims lock").remove(job.key);
        let _ = self.cache.release_claim(job.key, &self.opts.worker_id);
    }
}

/// Runs one worker process over `spec`'s cell list against the cache at
/// `cache_dir` (see the module docs). Returns when every cell is
/// resolved — cached (by anyone), computed, or proven uncacheable — or
/// when `max_cells` stops it early.
pub fn run_worker(
    spec: &CampaignSpec,
    base_dir: &Path,
    cache_dir: &Path,
    opts: &WorkerOptions,
) -> Result<WorkerOutcome, FleetError> {
    let plan = CampaignPlan::load(spec, base_dir)?;
    let cache = CellCache::open(cache_dir)
        .map_err(|e| FleetError(format!("cannot open cache {}: {e}", cache_dir.display())))?;
    let n = plan.total_cells();
    if !opts.run.quiet {
        eprintln!(
            "worker {} on campaign `{}`: {n} cells, claim ttl {:?}, cache at {}",
            opts.worker_id,
            spec.name,
            opts.claim_ttl,
            cache.dir().display(),
        );
    }

    let claims = Claims {
        cache: &cache,
        opts,
        held: Mutex::default(),
        computed: AtomicUsize::new(0),
    };
    let label = format!("worker {}", opts.worker_id);
    let mut outcome = WorkerOutcome {
        assigned: n,
        ..Default::default()
    };
    let mut pending: Vec<usize> = (0..n).collect();
    let beat = heartbeat_interval(opts.claim_ttl);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Heartbeat: refresh every claim this worker holds, well inside
        // the TTL, so long cells are never reaped from under us. A failed
        // refresh (claim reaped by a peer) is not fatal: the cell's put is
        // still atomic and byte-identical either way.
        let heartbeat = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::thread::park_timeout(beat);
                let keys: Vec<String> = claims
                    .held
                    .lock()
                    .expect("held-claims lock")
                    .iter()
                    .cloned()
                    .collect();
                for key in keys {
                    let _ = cache.refresh_claim(&key, &opts.worker_id);
                }
            }
        });

        let mut pass = 0u64;
        while !pending.is_empty() && claims.computed.load(Ordering::Relaxed) < claims.cap() {
            pass += 1;
            let order = shuffled(&pending, &opts.worker_id, pass);
            let ran = plan.execute(&order, Some(&cache), Some(&claims), &opts.run, &label);
            let before = pending.len();
            pending.clear();
            for (&i, (ran, _)) in order.iter().zip(ran) {
                match ran {
                    Ran::Hit(_) => outcome.hits += 1,
                    Ran::Computed(_, true) => outcome.computed += 1,
                    Ran::Computed(_, false) => outcome.uncacheable += 1,
                    Ran::Deferred => pending.push(i),
                }
            }
            pending.sort_unstable();

            if !pending.is_empty() && claims.computed.load(Ordering::Relaxed) < claims.cap() {
                // Peers hold everything that's left. Reap the dead, then
                // wait briefly for the living before re-checking.
                match cache.reap_stale_claims(opts.claim_ttl) {
                    Ok(reaped) => {
                        outcome.reaped += reaped;
                        if reaped == 0 && pending.len() == before {
                            std::thread::sleep(beat);
                        }
                    }
                    Err(e) => {
                        eprintln!("worker {}: reap failed: {e}", opts.worker_id);
                        std::thread::sleep(beat);
                    }
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        heartbeat.thread().unpark();
    });
    outcome.abandoned = pending.len();
    if !opts.run.quiet {
        eprintln!("{}", outcome.render(&opts.worker_id));
    }
    Ok(outcome)
}

/// How often held claims are heartbeated: well inside the TTL, but never
/// busier than 4 Hz even under second-scale test TTLs.
fn heartbeat_interval(ttl: Duration) -> Duration {
    (ttl / 4).max(Duration::from_millis(250))
}

/// A deterministic per-(worker, pass) shuffle of the pending list:
/// different workers visit cells in different orders, so claim
/// collisions stay rare without any shared state. Plain FNV-seeded
/// Fisher–Yates — statistical quality is irrelevant here, divergence
/// between workers is the point.
fn shuffled(items: &[usize], worker_id: &str, pass: u64) -> Vec<usize> {
    let mut seed =
        fnv1a(FNV_OFFSET, worker_id.as_bytes()) ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        // xorshift64* step per draw.
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        let j = (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_deterministic_permutations_that_differ_by_worker() {
        let items: Vec<usize> = (0..32).collect();
        let a1 = shuffled(&items, "w1", 1);
        let a2 = shuffled(&items, "w1", 1);
        assert_eq!(a1, a2, "same worker+pass → same order");
        let b = shuffled(&items, "w2", 1);
        let c = shuffled(&items, "w1", 2);
        assert_ne!(a1, b, "distinct workers diverge");
        assert_ne!(a1, c, "distinct passes diverge");
        for perm in [&a1, &b, &c] {
            let mut sorted = (*perm).clone();
            sorted.sort_unstable();
            assert_eq!(sorted, items, "a permutation, nothing lost");
        }
    }

    #[test]
    fn heartbeat_stays_inside_the_ttl_but_bounded() {
        assert_eq!(
            heartbeat_interval(Duration::from_secs(60)),
            Duration::from_secs(15)
        );
        assert_eq!(
            heartbeat_interval(Duration::from_millis(100)),
            Duration::from_millis(250)
        );
    }
}
