//! The fleet coordinator and its remote workers: the one distribution
//! protocol. Workers need only TCP to the coordinator; one process
//! writes the run store and one clock judges every lease.
//!
//! In fleet mode (`iarank serve --fleet`) a `POST /dse` job does not
//! solve points on the job thread. Instead its [`FleetDispatcher`] —
//! an [`ia_dse::PointSolver`] — parks each point in a pending queue,
//! and remote workers (`iarank fleet worker --coordinator <addr>`)
//! pull them over three endpoints:
//!
//! * `POST /fleet/register` — announce a worker id; doubles as the
//!   heartbeat (re-register on the advertised `heartbeat_ms` cadence).
//! * `POST /fleet/claim` — take a point lease: the coordinator hands
//!   back the point's wire-form config, content address, a lease id,
//!   and the lease duration.
//! * `POST /fleet/result` — return the solved point (or the solve
//!   error) for a lease.
//!
//! Failure model: every dispatched point carries a lease. A lease
//! whose deadline passes — or whose holder has stopped heartbeating
//! for a full lease period — is *reclaimed*: the point goes back to
//! the front of the pending queue for the next claimant, and
//! `fleet.reclaimed` ticks. Results are matched by lease id first and
//! content address second, so a slow worker's late result is still
//! accepted when its point has not been re-dispatched, and discarded
//! as `stale` when it has already been solved elsewhere. Solves are
//! deterministic, so a duplicated solve yields an identical value and
//! never corrupts a run.
//!
//! When the fleet is empty (no live worker has heartbeated within two
//! heartbeat periods) or the server is draining, the dispatcher falls
//! back to solving locally — a coordinator without workers degrades to
//! the ordinary in-process engine instead of hanging jobs.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use ia_dse::names;
use ia_dse::spec::{config_from_json, config_to_json};
use ia_dse::store::{solve_from_json, solve_to_json};
use ia_dse::{DseError, Point, PointSolver};
use ia_obs::json::JsonValue;
use ia_obs::log::{self as obs_log, LogLevel};
use ia_obs::{counter_add, Stopwatch};
use ia_rank::sweep::CachedSolve;

use crate::client;
use crate::http::error_body;

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wall-clock milliseconds since the Unix epoch: the coordinator's
/// one clock for heartbeats and lease deadlines.
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// One point awaiting a remote solve: its wire-form configuration, its
/// content address, and the slot the result lands in.
struct Slot {
    key: u128,
    config: JsonValue,
    result: Mutex<Option<Result<CachedSolve, String>>>,
    done: Condvar,
}

impl Slot {
    fn fill(&self, outcome: Result<CachedSolve, String>) {
        *lock(&self.result) = Some(outcome);
        self.done.notify_all();
    }
}

/// A dispatched point: who holds it and until when.
struct Lease {
    worker: String,
    expires_ms: u64,
    slot: Arc<Slot>,
}

struct Inner {
    /// Worker id → last-seen epoch milliseconds (any request from the
    /// worker refreshes it).
    workers: BTreeMap<String, u64>,
    pending: VecDeque<Arc<Slot>>,
    inflight: BTreeMap<u64, Lease>,
    next_lease: u64,
}

/// Coordinator-side fleet bookkeeping, shared by the `/fleet/*`
/// endpoints and every job's [`FleetDispatcher`].
pub struct FleetState {
    lease_ms: u64,
    heartbeat_ms: u64,
    inner: Mutex<Inner>,
}

impl FleetState {
    /// A fresh coordinator with the given lease and heartbeat periods.
    #[must_use]
    pub fn new(lease_ms: u64, heartbeat_ms: u64) -> FleetState {
        FleetState {
            lease_ms: lease_ms.max(1),
            heartbeat_ms: heartbeat_ms.max(1),
            inner: Mutex::new(Inner {
                workers: BTreeMap::new(),
                pending: VecDeque::new(),
                inflight: BTreeMap::new(),
                next_lease: 0,
            }),
        }
    }

    /// `POST /fleet/register`: record (or refresh) a worker and tell it
    /// the heartbeat cadence the coordinator expects.
    pub fn register(&self, body: &[u8]) -> (u16, String) {
        let worker = match parse_worker(body) {
            Ok(worker) => worker,
            Err(err) => return err,
        };
        lock(&self.inner).workers.insert(worker.clone(), now_ms());
        counter_add(names::FLEET_REGISTERED, 1);
        obs_log::log(
            LogLevel::Info,
            "serve.fleet",
            "worker registered",
            vec![("worker", JsonValue::Str(worker))],
        );
        let body = JsonValue::Obj(vec![
            ("status".to_owned(), JsonValue::Str("ok".to_owned())),
            (
                "heartbeat_ms".to_owned(),
                JsonValue::UInt(self.heartbeat_ms),
            ),
            ("lease_ms".to_owned(), JsonValue::UInt(self.lease_ms)),
        ]);
        (200, body.render())
    }

    /// `POST /fleet/claim`: reclaim expired leases, then hand the
    /// caller the next pending point (or `idle` / `draining`).
    pub fn claim(&self, body: &[u8], draining: bool) -> (u16, String) {
        let worker = match parse_worker(body) {
            Ok(worker) => worker,
            Err(err) => return err,
        };
        let now = now_ms();
        let mut inner = lock(&self.inner);
        inner.workers.insert(worker.clone(), now);
        self.reclaim_locked(&mut inner, now);
        if draining {
            let body = JsonValue::Obj(vec![(
                "status".to_owned(),
                JsonValue::Str("draining".to_owned()),
            )]);
            return (200, body.render());
        }
        let Some(slot) = inner.pending.pop_front() else {
            let body = JsonValue::Obj(vec![(
                "status".to_owned(),
                JsonValue::Str("idle".to_owned()),
            )]);
            return (200, body.render());
        };
        inner.next_lease += 1;
        let lease = inner.next_lease;
        let key = slot.key;
        let config = slot.config.clone();
        inner.inflight.insert(
            lease,
            Lease {
                worker,
                expires_ms: now.saturating_add(self.lease_ms),
                slot,
            },
        );
        drop(inner);
        counter_add(names::FLEET_DISPATCHED, 1);
        let body = JsonValue::Obj(vec![
            ("status".to_owned(), JsonValue::Str("lease".to_owned())),
            ("lease".to_owned(), JsonValue::UInt(lease)),
            ("key".to_owned(), JsonValue::Str(format!("{key:032x}"))),
            ("lease_ms".to_owned(), JsonValue::UInt(self.lease_ms)),
            ("config".to_owned(), config),
        ]);
        (200, body.render())
    }

    /// `POST /fleet/result`: accept a worker's solve (or solve error)
    /// for a lease. Late results are matched by content address when
    /// the lease was already reclaimed; points solved elsewhere in the
    /// meantime come back `stale`.
    pub fn result(&self, body: &[u8]) -> (u16, String) {
        let doc = match parse_doc(body) {
            Ok(doc) => doc,
            Err(err) => return err,
        };
        let Some(worker) = doc
            .get("worker")
            .and_then(|v| v.as_str().map(str::to_owned))
        else {
            return (400, error_body("`worker` must be a string"));
        };
        let Some(lease) = doc.get("lease").and_then(JsonValue::as_u64) else {
            return (400, error_body("`lease` must be an integer"));
        };
        let key = match doc
            .get("key")
            .and_then(|v| v.as_str())
            .and_then(|hex| u128::from_str_radix(hex, 16).ok())
        {
            Some(key) => key,
            None => return (400, error_body("`key` must be a 128-bit hex string")),
        };
        let outcome: Result<CachedSolve, String> =
            if let Some(err) = doc.get("error").and_then(|v| v.as_str()) {
                Err(err.to_owned())
            } else {
                let Some(solve_doc) = doc.get("solve") else {
                    return (400, error_body("result needs `solve` or `error`"));
                };
                match solve_from_json(solve_doc) {
                    Ok(solve) => Ok(solve),
                    Err(e) => return (400, error_body(&format!("bad `solve`: {e}"))),
                }
            };
        let mut inner = lock(&self.inner);
        inner.workers.insert(worker, now_ms());
        // Match by lease id first; a reclaimed lease's late result is
        // still useful if the point has not been handed out again.
        let slot = match inner.inflight.remove(&lease) {
            Some(held) if held.slot.key == key => Some(held.slot),
            Some(held) => {
                // A lease id reused for a different point can only be a
                // client bug; put it back and reject.
                inner.inflight.insert(lease, held);
                return (400, error_body("lease/key mismatch"));
            }
            None => {
                let position = inner.pending.iter().position(|slot| slot.key == key);
                position.and_then(|i| inner.pending.remove(i))
            }
        };
        drop(inner);
        match slot {
            Some(slot) => {
                slot.fill(outcome);
                counter_add(names::FLEET_RESULTS, 1);
                let body = JsonValue::Obj(vec![(
                    "status".to_owned(),
                    JsonValue::Str("accepted".to_owned()),
                )]);
                (200, body.render())
            }
            None => {
                let body = JsonValue::Obj(vec![(
                    "status".to_owned(),
                    JsonValue::Str("stale".to_owned()),
                )]);
                (200, body.render())
            }
        }
    }

    /// Moves expired leases — deadline passed, or holder silent for a
    /// full lease period — back to the front of the pending queue.
    fn reclaim_locked(&self, inner: &mut Inner, now: u64) {
        let expired: Vec<u64> = inner
            .inflight
            .iter()
            .filter(|(_, lease)| {
                let silent_since = inner.workers.get(&lease.worker).copied().unwrap_or(0);
                lease.expires_ms <= now || silent_since.saturating_add(self.lease_ms) <= now
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let Some(lease) = inner.inflight.remove(&id) else {
                continue;
            };
            counter_add(names::FLEET_RECLAIMED, 1);
            obs_log::log(
                LogLevel::Warn,
                "serve.fleet",
                "lease reclaimed from dead worker",
                vec![
                    ("worker", JsonValue::Str(lease.worker.clone())),
                    ("key", JsonValue::Str(format!("{:032x}", lease.slot.key))),
                ],
            );
            inner.pending.push_front(lease.slot);
        }
    }

    /// Live workers: heartbeated within two heartbeat periods.
    fn live_workers_locked(&self, inner: &Inner, now: u64) -> usize {
        inner
            .workers
            .values()
            .filter(|&&seen| seen.saturating_add(2 * self.heartbeat_ms) > now)
            .count()
    }

    /// The fleet block rendered on `GET /statz`.
    #[must_use]
    pub fn statz_json(&self) -> JsonValue {
        let now = now_ms();
        let inner = lock(&self.inner);
        let u = |n: usize| JsonValue::UInt(u64::try_from(n).unwrap_or(u64::MAX));
        JsonValue::Obj(vec![
            ("workers".to_owned(), u(inner.workers.len())),
            (
                "live_workers".to_owned(),
                u(self.live_workers_locked(&inner, now)),
            ),
            ("pending".to_owned(), u(inner.pending.len())),
            ("inflight".to_owned(), u(inner.inflight.len())),
            ("lease_ms".to_owned(), JsonValue::UInt(self.lease_ms)),
            (
                "heartbeat_ms".to_owned(),
                JsonValue::UInt(self.heartbeat_ms),
            ),
        ])
    }
}

/// The [`PointSolver`] fleet-mode dse jobs run under: parks each point
/// for remote workers and waits for the result, reclaiming dead
/// workers' leases while it waits, with a local-solve fallback when
/// the fleet is empty or the server is draining.
pub struct FleetDispatcher<'s> {
    state: &'s FleetState,
    stop: &'s AtomicBool,
}

impl<'s> FleetDispatcher<'s> {
    /// A dispatcher over the server's fleet state and stop flag.
    #[must_use]
    pub fn new(state: &'s FleetState, stop: &'s AtomicBool) -> FleetDispatcher<'s> {
        FleetDispatcher { state, stop }
    }
}

impl PointSolver for FleetDispatcher<'_> {
    fn solve_point(&self, point: &Point) -> Result<CachedSolve, DseError> {
        let slot = Arc::new(Slot {
            key: point.key(),
            config: config_to_json(&point.config),
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        lock(&self.state.inner).pending.push_back(Arc::clone(&slot));
        loop {
            {
                let mut guard = lock(&slot.result);
                loop {
                    if let Some(outcome) = guard.take() {
                        return outcome
                            .map_err(|m| DseError::Spec(format!("remote worker failed: {m}")));
                    }
                    let (next, wait) = slot
                        .done
                        .wait_timeout(guard, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner);
                    guard = next;
                    if wait.timed_out() {
                        break;
                    }
                }
            }
            let now = now_ms();
            let stopping = self.stop.load(Ordering::SeqCst);
            let mut inner = lock(&self.state.inner);
            self.state.reclaim_locked(&mut inner, now);
            let live = self.state.live_workers_locked(&inner, now);
            let queued = inner.pending.iter().position(|p| Arc::ptr_eq(p, &slot));
            if stopping || (live == 0 && queued.is_some()) {
                if let Some(i) = queued {
                    inner.pending.remove(i);
                }
                drop(inner);
                // Degrade to the in-process solver: on a drain the
                // engine's cancel check stops the run at the next point
                // boundary; with an empty fleet the job still finishes.
                return point.config.solve().map_err(DseError::Bind);
            }
        }
    }
}

/// Tuning knobs of one remote fleet worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerOptions {
    /// The id leases are held under; must be stable for this process.
    pub worker_id: String,
    /// Poll interval while the coordinator reports `idle`.
    pub poll_ms: u64,
    /// Exit after this long with no work (`0` = keep polling until the
    /// coordinator drains or disappears).
    pub max_idle_ms: u64,
    /// Fault-injection aid: hold each lease this long before solving,
    /// so tests can kill a worker while it provably owns a lease.
    pub stall_ms: u64,
    /// Per-request HTTP deadline.
    pub timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            worker_id: format!("worker-{}", std::process::id()),
            poll_ms: 25,
            max_idle_ms: 0,
            stall_ms: 0,
            timeout: Duration::from_secs(10),
        }
    }
}

/// What a remote worker did before exiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Points solved and successfully returned.
    pub solved: u64,
    /// Points whose solve (or result upload) failed.
    pub failed: u64,
    /// `idle` polls observed.
    pub idle_polls: u64,
}

/// How many consecutive claim failures a worker tolerates before
/// concluding the coordinator is gone.
const MAX_CLAIM_ERRORS: u32 = 5;

/// Runs one remote fleet worker against a coordinator until the
/// coordinator drains, disappears, or `max_idle_ms` passes without
/// work. See the module docs for the protocol.
///
/// # Errors
///
/// Returns a message when registration is rejected or the coordinator
/// answers a claim with a non-fleet response (e.g. fleet mode is
/// disabled).
pub fn run_worker(coordinator: &str, opts: &WorkerOptions) -> Result<WorkerOutcome, String> {
    let register_body = JsonValue::Obj(vec![(
        "worker".to_owned(),
        JsonValue::Str(opts.worker_id.clone()),
    )])
    .render();
    let (status, body) =
        client::post_json(coordinator, "/fleet/register", &register_body, opts.timeout)?;
    if status != 200 {
        return Err(format!("register rejected ({status}): {body}"));
    }
    let heartbeat_ms = JsonValue::parse(&body)
        .ok()
        .and_then(|doc| doc.get("heartbeat_ms").and_then(JsonValue::as_u64))
        .unwrap_or(5_000);
    obs_log::log(
        LogLevel::Info,
        "serve.fleet.worker",
        "registered with coordinator",
        vec![
            ("worker", JsonValue::Str(opts.worker_id.clone())),
            ("coordinator", JsonValue::Str(coordinator.to_owned())),
            ("heartbeat_ms", JsonValue::UInt(heartbeat_ms)),
        ],
    );
    let mut outcome = WorkerOutcome::default();
    let mut idle_since: Option<Stopwatch> = None;
    let mut last_heartbeat = Stopwatch::start();
    let mut claim_errors = 0u32;
    loop {
        if last_heartbeat.elapsed() >= Duration::from_millis(heartbeat_ms) {
            // Heartbeat = re-register; a lost beat only risks an
            // earlier reclaim, so failures are tolerated silently.
            let _ = client::post_json(coordinator, "/fleet/register", &register_body, opts.timeout);
            last_heartbeat = Stopwatch::start();
        }
        let response = client::post_json(coordinator, "/fleet/claim", &register_body, opts.timeout);
        let (status, body) = match response {
            Ok(pair) => pair,
            Err(e) => {
                claim_errors += 1;
                if claim_errors >= MAX_CLAIM_ERRORS {
                    obs_log::log(
                        LogLevel::Warn,
                        "serve.fleet.worker",
                        "coordinator unreachable, exiting",
                        vec![("error", JsonValue::Str(e))],
                    );
                    return Ok(outcome);
                }
                std::thread::sleep(Duration::from_millis(opts.poll_ms));
                continue;
            }
        };
        if status != 200 {
            return Err(format!("claim rejected ({status}): {body}"));
        }
        claim_errors = 0;
        let doc = JsonValue::parse(&body).map_err(|e| format!("bad claim response: {e}"))?;
        match doc.get("status").and_then(|v| v.as_str()) {
            Some("lease") => {
                idle_since = None;
                solve_lease(coordinator, opts, &doc, &mut outcome)?;
            }
            Some("idle") => {
                outcome.idle_polls += 1;
                counter_add(names::FLEET_IDLE_WAITS, 1);
                let began = idle_since.get_or_insert_with(Stopwatch::start);
                if opts.max_idle_ms > 0
                    && began.elapsed() >= Duration::from_millis(opts.max_idle_ms)
                {
                    return Ok(outcome);
                }
                std::thread::sleep(Duration::from_millis(opts.poll_ms));
            }
            Some("draining") => return Ok(outcome),
            other => {
                return Err(format!(
                    "unexpected claim status `{}`",
                    other.unwrap_or("<missing>")
                ))
            }
        }
    }
}

/// Solves one leased point and posts the result back.
fn solve_lease(
    coordinator: &str,
    opts: &WorkerOptions,
    doc: &JsonValue,
    outcome: &mut WorkerOutcome,
) -> Result<(), String> {
    let lease = doc
        .get("lease")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| "lease response is missing `lease`".to_owned())?;
    let key = doc
        .get("key")
        .and_then(|v| v.as_str().map(str::to_owned))
        .ok_or_else(|| "lease response is missing `key`".to_owned())?;
    let config_doc = doc
        .get("config")
        .ok_or_else(|| "lease response is missing `config`".to_owned())?;
    counter_add(names::FLEET_CLAIMED, 1);
    if opts.stall_ms > 0 {
        std::thread::sleep(Duration::from_millis(opts.stall_ms));
    }
    let solved = config_from_json(config_doc)
        .map_err(|e| e.to_string())
        .and_then(|config| config.solve().map_err(|e| e.to_string()));
    let mut fields = vec![
        ("worker".to_owned(), JsonValue::Str(opts.worker_id.clone())),
        ("lease".to_owned(), JsonValue::UInt(lease)),
        ("key".to_owned(), JsonValue::Str(key)),
    ];
    match &solved {
        Ok(solve) => {
            fields.push(("solve".to_owned(), solve_to_json(solve)));
            outcome.solved += 1;
            counter_add(names::POINTS_SOLVED, 1);
        }
        Err(message) => {
            fields.push(("error".to_owned(), JsonValue::Str(message.clone())));
            outcome.failed += 1;
        }
    }
    let body = JsonValue::Obj(fields).render();
    // A lost upload is recoverable — the lease expires and the point
    // is redispatched — but that costs a full duplicate solve, so a
    // brief coordinator outage is ridden out with retries first.
    let _ = upload_result(coordinator, opts, &body);
    Ok(())
}

/// Result-upload attempts before surrendering the point to
/// lease-expiry redispatch.
const MAX_UPLOAD_ATTEMPTS: u32 = 4;

/// Ceiling on the doubling upload-retry backoff.
const MAX_UPLOAD_BACKOFF: Duration = Duration::from_millis(500);

/// Posts one result body, retrying transport errors with capped
/// exponential backoff (starting at `poll_ms`). Any HTTP *response*
/// settles the upload — a stale-lease rejection cannot be revived by
/// retrying — so only connect/read failures burn attempts. Returns
/// whether the coordinator answered.
fn upload_result(coordinator: &str, opts: &WorkerOptions, body: &str) -> bool {
    let mut backoff = Duration::from_millis(opts.poll_ms.max(1));
    for attempt in 1..=MAX_UPLOAD_ATTEMPTS {
        match client::post_json(coordinator, "/fleet/result", body, opts.timeout) {
            Ok(_) => return true,
            Err(error) => {
                if attempt == MAX_UPLOAD_ATTEMPTS {
                    obs_log::log(
                        LogLevel::Warn,
                        "serve.fleet.worker",
                        "result upload abandoned; the lease will expire",
                        vec![
                            ("error", JsonValue::Str(error)),
                            ("attempts", JsonValue::UInt(u64::from(attempt))),
                        ],
                    );
                    break;
                }
                counter_add(names::FLEET_UPLOAD_RETRIES, 1);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_UPLOAD_BACKOFF);
            }
        }
    }
    false
}

/// Parses `{"worker": "<id>"}` request bodies.
fn parse_worker(body: &[u8]) -> Result<String, (u16, String)> {
    let doc = parse_doc(body)?;
    match doc.get("worker").and_then(|v| v.as_str()) {
        Some(worker) if !worker.is_empty() => Ok(worker.to_owned()),
        _ => Err((400, error_body("`worker` must be a non-empty string"))),
    }
}

fn parse_doc(body: &[u8]) -> Result<JsonValue, (u16, String)> {
    let text =
        std::str::from_utf8(body).map_err(|_| (400, error_body("request body is not UTF-8")))?;
    JsonValue::parse(text).map_err(|e| (400, error_body(&format!("malformed JSON: {e}"))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(worker: &str) -> Vec<u8> {
        format!(r#"{{"worker": "{worker}"}}"#).into_bytes()
    }

    fn push_point(state: &FleetState, key: u128) -> Arc<Slot> {
        let slot = Arc::new(Slot {
            key,
            config: JsonValue::Obj(Vec::new()),
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        lock(&state.inner).pending.push_back(Arc::clone(&slot));
        slot
    }

    fn claim_doc(state: &FleetState, worker: &str) -> JsonValue {
        let (status, text) = state.claim(&body(worker), false);
        assert_eq!(status, 200);
        JsonValue::parse(&text).unwrap()
    }

    #[test]
    fn claim_hands_out_a_lease_and_result_fills_the_slot() {
        let state = FleetState::new(30_000, 5_000);
        let slot = push_point(&state, 0xabc);
        let doc = claim_doc(&state, "w1");
        assert_eq!(doc.get("status").unwrap().as_str().unwrap(), "lease");
        let lease = doc.get("lease").unwrap().as_u64().unwrap();
        let key = doc.get("key").unwrap().as_str().unwrap().to_owned();
        assert_eq!(key, format!("{:032x}", 0xabc_u128));
        let solve = ia_rank::canon::BoundConfig {
            gates: 20_000,
            bunch: 2_000,
            ..ia_rank::canon::BoundConfig::default()
        }
        .solve()
        .unwrap();
        let result = JsonValue::Obj(vec![
            ("worker".to_owned(), JsonValue::Str("w1".to_owned())),
            ("lease".to_owned(), JsonValue::UInt(lease)),
            ("key".to_owned(), JsonValue::Str(key)),
            ("solve".to_owned(), solve_to_json(&solve)),
        ])
        .render();
        let (status, text) = state.result(result.as_bytes());
        assert_eq!(status, 200);
        assert!(text.contains("accepted"));
        let landed = lock(&slot.result).take().unwrap().unwrap();
        assert_eq!(landed, solve);
    }

    #[test]
    fn an_empty_queue_reports_idle_and_draining_wins() {
        let state = FleetState::new(30_000, 5_000);
        let doc = claim_doc(&state, "w1");
        assert_eq!(doc.get("status").unwrap().as_str().unwrap(), "idle");
        let (_, text) = state.claim(&body("w1"), true);
        assert!(text.contains("draining"));
    }

    #[test]
    fn an_expired_lease_is_reclaimed_and_redispatched() {
        // lease_ms is clamped to 1; the dispatch below expires within
        // the sleep, so the second claim reclaims and re-leases it.
        let state = FleetState::new(0, 5_000);
        let _slot = push_point(&state, 0x5);
        let doc = claim_doc(&state, "dead");
        assert_eq!(doc.get("status").unwrap().as_str().unwrap(), "lease");
        std::thread::sleep(Duration::from_millis(5));
        let doc = claim_doc(&state, "w2");
        assert_eq!(doc.get("status").unwrap().as_str().unwrap(), "lease");
        assert_eq!(
            doc.get("key").unwrap().as_str().unwrap(),
            format!("{:032x}", 0x5_u128)
        );
        assert_eq!(lock(&state.inner).inflight.len(), 1);
    }

    #[test]
    fn a_stale_result_is_discarded() {
        let state = FleetState::new(30_000, 5_000);
        let result = JsonValue::Obj(vec![
            ("worker".to_owned(), JsonValue::Str("w1".to_owned())),
            ("lease".to_owned(), JsonValue::UInt(99)),
            (
                "key".to_owned(),
                JsonValue::Str(format!("{:032x}", 0x7_u128)),
            ),
            ("error".to_owned(), JsonValue::Str("boom".to_owned())),
        ])
        .render();
        let (status, text) = state.result(result.as_bytes());
        assert_eq!(status, 200);
        assert!(text.contains("stale"));
    }

    #[test]
    fn malformed_fleet_bodies_are_rejected() {
        let state = FleetState::new(30_000, 5_000);
        assert_eq!(state.register(b"not json").0, 400);
        assert_eq!(state.register(br#"{"worker": ""}"#).0, 400);
        assert_eq!(state.claim(br#"{"nope": 1}"#, false).0, 400);
        assert_eq!(state.result(br#"{"worker": "w", "lease": 1}"#).0, 400);
    }

    #[test]
    fn statz_counts_workers_and_queues() {
        let state = FleetState::new(30_000, 5_000);
        let _ = state.register(&body("w1"));
        let _slot = push_point(&state, 0x1);
        let doc = state.statz_json();
        assert_eq!(doc.get("workers").unwrap().as_u64().unwrap(), 1);
        assert_eq!(doc.get("live_workers").unwrap().as_u64().unwrap(), 1);
        assert_eq!(doc.get("pending").unwrap().as_u64().unwrap(), 1);
        assert_eq!(doc.get("inflight").unwrap().as_u64().unwrap(), 0);
    }

    #[test]
    fn result_upload_rides_out_a_brief_coordinator_outage() {
        use std::io::{Read, Write};
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Outage: the first two connections die before any
            // response bytes, which the client reports as transport
            // errors.
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                drop(stream);
            }
            // Recovery: the third attempt gets a real response. Read
            // the whole request first (the client writes its head and
            // its `{}` body separately): closing with unread bytes
            // sends a reset that can destroy the response in flight.
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = Vec::new();
            let mut buf = [0u8; 4096];
            while !request.ends_with(b"{}") {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => request.extend_from_slice(&buf[..n]),
                }
            }
            let body = r#"{"status": "accepted"}"#;
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
        });
        ia_obs::set_enabled(true);
        let before = ia_obs::snapshot()
            .counter(names::FLEET_UPLOAD_RETRIES)
            .unwrap_or(0);
        let opts = WorkerOptions {
            poll_ms: 1,
            ..WorkerOptions::default()
        };
        assert!(upload_result(&addr, &opts, "{}"), "third attempt lands");
        server.join().unwrap();
        let after = ia_obs::snapshot()
            .counter(names::FLEET_UPLOAD_RETRIES)
            .unwrap_or(0);
        assert_eq!(after - before, 2, "one retry per dropped connection");
        // With no listener at all every attempt fails and the upload
        // is abandoned (the lease recovers it server-side).
        assert!(!upload_result(&addr, &opts, "{}"));
    }

    #[test]
    fn dispatcher_falls_back_to_local_solve_when_the_fleet_is_empty() {
        use ia_rank::canon::BoundConfig;
        let state = FleetState::new(30_000, 5_000);
        let stop = AtomicBool::new(false);
        let dispatcher = FleetDispatcher::new(&state, &stop);
        let config = BoundConfig {
            gates: 20_000,
            bunch: 2_000,
            ..BoundConfig::default()
        };
        let point = Point {
            coords: Vec::new(),
            config: config.clone(),
        };
        let solved = dispatcher.solve_point(&point).unwrap();
        assert_eq!(solved, config.solve().unwrap());
        assert!(lock(&state.inner).pending.is_empty());
    }
}
