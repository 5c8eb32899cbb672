//! The multi-tenant compile service.
//!
//! A [`Server`] owns one [`ResidualCache`] behind a mutex and answers
//! batches of [`CompileRequest`]s on a pool of scoped worker threads.
//! The division of labour keeps the lock cold: workers only hold it for
//! map operations (lookup, snapshot fetch, insert); parsing,
//! specialization, and the seven verification passes all run outside
//! it, in parallel across requests.  Concurrent misses on one key are
//! deduplicated in flight: the first worker compiles, later ones wait
//! on a condvar and collect the landed artifact — each request still
//! counts exactly one cache hit *or* miss.
//!
//! Isolation is per request: each request carries its own
//! [`CompileOptions`] whose [`Limits`] are clamped field-by-field
//! against the server ceiling before anything runs — a tenant can lower
//! its own budgets but never raise them past the service's.  Clamping
//! happens *before* fingerprinting, so the cache key always describes
//! the options that actually took effect.
//!
//! Observability: each worker records its request into a private
//! [`CollectingSink`] under a [`Phase::Serve`] span, then publishes the
//! whole balanced event group atomically through a [`SharedSink`] —
//! concurrent requests never interleave events (or JSONL bytes)
//! mid-request.

use crate::cache::{Artifact, CacheStats, ResidualCache};
use crate::fingerprint::{fingerprint, Fingerprint};
use pe_core::{CompileOptions, MemoSnapshot};
use pe_governor::Limits;
use pe_prof::{LatencyClass, MetricsRegistry};
use pe_trace::{CollectingSink, Counter, NullSink, Phase, SharedSink, Sink};
use realistic_pe::Pipeline;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Server-side configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads per [`Server::serve`] batch.
    pub threads: usize,
    /// Artifact-cache capacity (see [`ResidualCache::new`]).
    pub capacity: usize,
    /// Per-request resource ceiling; request limits are clamped to it.
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { threads: 1, capacity: 256, limits: Limits::default() }
    }
}

/// One compile request.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Caller-chosen label, echoed in the response (not part of any
    /// cache key).
    pub name: String,
    /// Subject-language source text.
    pub source: String,
    /// Entry procedure.
    pub entry: String,
    /// Compiler configuration; `opts.limits` is clamped to the server
    /// ceiling.
    pub opts: CompileOptions,
}

impl CompileRequest {
    /// A request with default options.
    #[must_use]
    pub fn new(name: &str, source: &str, entry: &str) -> CompileRequest {
        CompileRequest {
            name: name.to_string(),
            source: source.to_string(),
            entry: entry.to_string(),
            opts: CompileOptions::default(),
        }
    }
}

/// How a request was answered.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Served from the artifact cache; no compilation ran.
    Hit(Artifact),
    /// Compiled (and verified) on this request.
    Compiled {
        /// The freshly produced artifact.
        artifact: Artifact,
        /// True when the specializer replayed from a warm memo
        /// snapshot rather than starting cold.
        warm_started: bool,
    },
    /// The request never produced an artifact.
    Rejected(String),
}

/// The response to one [`CompileRequest`], in request order.
#[derive(Debug, Clone)]
pub struct CompileResponse {
    /// The request's `name`.
    pub name: String,
    /// The content fingerprint, when the source was readable.
    pub fingerprint: Option<Fingerprint>,
    /// What happened.
    pub outcome: Outcome,
}

impl CompileResponse {
    /// The residual source text, if the request succeeded.
    #[must_use]
    pub fn residual_source(&self) -> Option<&str> {
        match &self.outcome {
            Outcome::Hit(a) | Outcome::Compiled { artifact: a, .. } => {
                Some(&a.residual_source)
            }
            Outcome::Rejected(_) => None,
        }
    }

    /// The artifact, if the request succeeded.
    #[must_use]
    pub fn artifact(&self) -> Option<&Artifact> {
        match &self.outcome {
            Outcome::Hit(a) | Outcome::Compiled { artifact: a, .. } => Some(a),
            Outcome::Rejected(_) => None,
        }
    }

    /// True when this response came straight from the artifact cache.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self.outcome, Outcome::Hit(_))
    }
}

/// Saturating nanoseconds since `t0`.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The latency bucket for an outcome; rejections are not latencies of
/// successful service and stay out of the histograms.
fn latency_class(outcome: &Outcome) -> Option<LatencyClass> {
    match outcome {
        Outcome::Hit(_) => Some(LatencyClass::Hit),
        Outcome::Compiled { warm_started: true, .. } => Some(LatencyClass::WarmMiss),
        Outcome::Compiled { warm_started: false, .. } => Some(LatencyClass::ColdMiss),
        Outcome::Rejected(_) => None,
    }
}

/// Clamps request limits to the server ceiling, field by field.
fn clamp_limits(req: &Limits, ceiling: &Limits) -> Limits {
    Limits {
        fuel: req.fuel.min(ceiling.fuel),
        max_call_depth: req.max_call_depth.min(ceiling.max_call_depth),
        max_syntax_depth: req.max_syntax_depth.min(ceiling.max_syntax_depth),
        max_unfold_depth: req.max_unfold_depth.min(ceiling.max_unfold_depth),
        max_heap: req.max_heap.min(ceiling.max_heap),
        max_residual: req.max_residual.min(ceiling.max_residual),
    }
}

/// The mutex-protected server state: the cache plus the set of
/// fingerprints some worker is currently compiling.
struct State {
    cache: ResidualCache,
    in_flight: HashSet<u128>,
}

/// See the module docs.
pub struct Server {
    config: ServerConfig,
    state: Mutex<State>,
    /// Signalled whenever an in-flight compile lands (or fails), so
    /// workers waiting on that key can collect the artifact instead of
    /// duplicating the compile.
    landed: Condvar,
    /// Per-outcome latency histograms and service gauges, on their own
    /// lock so recording never contends with the cache.
    metrics: Mutex<MetricsRegistry>,
}

/// Removes a claimed fingerprint from the in-flight set on drop, so a
/// compile that panics mid-pipeline can never strand its waiters.
struct InFlightClaim<'a> {
    server: &'a Server,
    key: u128,
}

impl Drop for InFlightClaim<'_> {
    fn drop(&mut self) {
        self.server.lock().in_flight.remove(&self.key);
        self.server.landed.notify_all();
    }
}

impl Server {
    /// A server with an empty cache.
    #[must_use]
    pub fn new(config: ServerConfig) -> Server {
        let state = Mutex::new(State {
            cache: ResidualCache::new(config.capacity),
            in_flight: HashSet::new(),
        });
        Server {
            config,
            state,
            landed: Condvar::new(),
            metrics: Mutex::new(MetricsRegistry::new()),
        }
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Cache counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.lock().cache.stats()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A worker that panicked mid-insert leaves only map-level state;
        // the cache has no torn invariants, so keep serving.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn metrics_lock(&self) -> MutexGuard<'_, MetricsRegistry> {
        // Histograms and gauges are always internally consistent; a
        // poisoned lock just means a request died mid-record.
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A point-in-time copy of the service metrics: per-outcome latency
    /// histograms, queue-wait, and in-flight gauges.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.metrics_lock().snapshot()
    }

    /// Publishes the current metrics snapshot through `shared` as one
    /// atomic event group (histograms for each populated outcome class
    /// plus the in-flight gauges).
    pub fn publish_metrics<S: Sink + Send>(&self, shared: &SharedSink<S>) {
        let snap = self.metrics_snapshot();
        let mut local = CollectingSink::new();
        snap.publish(&mut local);
        shared.append(local.events());
    }

    /// Answers `requests` on the configured worker pool, returning
    /// responses in request order.
    pub fn serve(&self, requests: &[CompileRequest]) -> Vec<CompileResponse> {
        self.serve_with(requests, &SharedSink::new(NullSink))
    }

    /// [`Server::serve`] with per-request trace groups published to
    /// `shared` (see the module docs for the atomicity guarantee).
    pub fn serve_with<S: Sink + Send>(
        &self,
        requests: &[CompileRequest],
        shared: &SharedSink<S>,
    ) -> Vec<CompileResponse> {
        if requests.is_empty() {
            return Vec::new();
        }
        let workers = self.config.threads.clamp(1, requests.len());
        let next = AtomicUsize::new(0);
        let batch_start = Instant::now();
        let slots: Vec<Mutex<Option<CompileResponse>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        // The calling thread is one of the workers, so a batch served on
        // one thread spawns none.
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(req) = requests.get(i) else { break };
            // Queue wait: submission (batch start) to pickup.
            {
                let mut m = self.metrics_lock();
                m.record_queue_wait(elapsed_ns(batch_start));
                m.enter_flight();
            }
            let picked_up = Instant::now();
            let resp = self.handle(req, shared);
            let latency = elapsed_ns(picked_up);
            {
                let mut m = self.metrics_lock();
                m.leave_flight();
                if let Some(class) = latency_class(&resp.outcome) {
                    m.record_latency(class, latency);
                }
            }
            *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                Some(resp);
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        slots
            .into_iter()
            .zip(requests)
            .map(|(slot, req)| {
                // Unclaimed slots cannot happen while the worker loop
                // covers every index, but a structured rejection keeps
                // one lost request from sinking the whole batch.
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or_else(|| CompileResponse {
                        name: req.name.clone(),
                        fingerprint: None,
                        outcome: Outcome::Rejected(
                            "request was never claimed by a worker".to_string(),
                        ),
                    })
            })
            .collect()
    }

    /// Handles one request, recording its events privately and
    /// publishing them as one atomic group.
    fn handle<S: Sink + Send>(
        &self,
        req: &CompileRequest,
        shared: &SharedSink<S>,
    ) -> CompileResponse {
        let mut local = CollectingSink::new();
        let t = pe_trace::begin(&mut local, Phase::Serve);
        let resp = self.handle_inner(req, &mut local);
        pe_trace::end(&mut local, t);
        shared.append(local.events());
        resp
    }

    fn handle_inner(&self, req: &CompileRequest, sink: &mut dyn Sink) -> CompileResponse {
        sink.counter(Counter::ServeRequests, 1);
        let mut opts = req.opts.clone();
        opts.limits = clamp_limits(&opts.limits, &self.config.limits);
        let fp = match fingerprint(&req.source, &req.entry, &opts) {
            Ok(fp) => fp,
            Err(e) => {
                return CompileResponse {
                    name: req.name.clone(),
                    fingerprint: None,
                    outcome: Outcome::Rejected(format!("unreadable source: {e}")),
                }
            }
        };
        if let Some(artifact) = self.lock().cache.lookup(fp) {
            sink.counter(Counter::CacheHits, 1);
            return CompileResponse {
                name: req.name.clone(),
                fingerprint: Some(fp),
                outcome: Outcome::Hit(artifact),
            };
        }
        sink.counter(Counter::CacheMisses, 1);
        // In-flight dedup: if another worker is already compiling this
        // key, wait for it to land and collect the artifact rather than
        // duplicating the compile.  The miss above is this request's one
        // counted cache event, so the collect path peeks without
        // counting.  When the leader lands nothing (rejection, or a
        // capacity-0 cache), fall through and compile — warm, if the
        // leader left a snapshot.
        let warm = {
            let mut st = self.lock();
            loop {
                if !st.in_flight.contains(&fp.0) {
                    if let Some(artifact) = st.cache.peek(fp) {
                        drop(st);
                        return CompileResponse {
                            name: req.name.clone(),
                            fingerprint: Some(fp),
                            outcome: Outcome::Hit(artifact),
                        };
                    }
                    st.in_flight.insert(fp.0);
                    break st.cache.warm_snapshot(fp);
                }
                st = self.landed.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let claim = InFlightClaim { server: self, key: fp.0 };
        let warm_started = warm.is_some();
        let outcome = match self.compile(fp, req, &opts, warm.as_ref(), sink) {
            Ok((artifact, snapshot)) => {
                let evicted = self.lock().cache.insert(artifact.clone(), snapshot);
                if evicted > 0 {
                    sink.counter(Counter::CacheEvictions, evicted as u64);
                }
                Outcome::Compiled { artifact, warm_started }
            }
            Err(e) => Outcome::Rejected(e),
        };
        drop(claim);
        CompileResponse { name: req.name.clone(), fingerprint: Some(fp), outcome }
    }

    /// The compile itself — everything that runs outside the lock.
    fn compile(
        &self,
        fp: Fingerprint,
        req: &CompileRequest,
        opts: &CompileOptions,
        warm: Option<&MemoSnapshot>,
        sink: &mut dyn Sink,
    ) -> Result<(Artifact, MemoSnapshot), String> {
        let pipeline = Pipeline::new_traced(&req.source, sink).map_err(|e| e.to_string())?;
        let (s0, snapshot) = pipeline
            .compile_warm(&req.entry, opts, warm, sink)
            .map_err(|e| e.to_string())?;
        let artifact = Artifact {
            fingerprint: fp,
            residual_source: s0.to_source(),
            procs: s0.procs.len(),
            nodes: s0.size(),
            s0,
        };
        Ok((artifact, snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "(define (inc x) (+ x 1))";

    #[test]
    fn duplicate_requests_hit_the_cache() {
        let server = Server::new(ServerConfig::default());
        let reqs = vec![
            CompileRequest::new("a", SRC, "inc"),
            CompileRequest::new("b", SRC, "inc"),
            CompileRequest::new("c", "  (define (inc x)  (+ x 1)) ; same", "inc"),
        ];
        let resps = server.serve(&reqs);
        assert!(matches!(resps[0].outcome, Outcome::Compiled { .. }));
        assert!(resps[1].is_hit());
        assert!(resps[2].is_hit(), "canonicalization unifies layout variants");
        assert_eq!(resps[0].residual_source(), resps[1].residual_source());
        let s = server.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (3, 2, 1));
    }

    #[test]
    fn limits_are_clamped_to_the_server_ceiling() {
        let ceiling = Limits { max_residual: 50, ..Limits::default() };
        let server = Server::new(ServerConfig {
            threads: 1,
            capacity: 8,
            limits: ceiling,
        });
        let mut greedy = CompileRequest::new("greedy", SRC, "inc");
        greedy.opts.limits.max_residual = usize::MAX;
        let mut modest = CompileRequest::new("modest", SRC, "inc");
        modest.opts.limits.max_residual = 50;
        let resps = server.serve(&[greedy, modest]);
        // Clamping happens before fingerprinting: the greedy request and
        // the one that asked for the ceiling share a cache entry.
        assert!(matches!(resps[0].outcome, Outcome::Compiled { .. }));
        assert!(resps[1].is_hit(), "clamped options unify the key");
    }

    #[test]
    fn bad_requests_are_rejected_not_cached() {
        let server = Server::new(ServerConfig::default());
        let resps = server.serve(&[
            CompileRequest::new("unreadable", "(define (f", "f"),
            CompileRequest::new("no-entry", SRC, "ghost"),
            CompileRequest::new("ok", SRC, "inc"),
        ]);
        assert!(matches!(resps[0].outcome, Outcome::Rejected(_)));
        assert!(resps[0].fingerprint.is_none(), "no key for unreadable source");
        assert!(matches!(resps[1].outcome, Outcome::Rejected(_)));
        assert!(matches!(resps[2].outcome, Outcome::Compiled { .. }));
        assert!(server.lock().cache.len() == 1, "only the success was cached");
    }

    #[test]
    fn metrics_classify_every_serviced_request() {
        let server = Server::new(ServerConfig { threads: 2, ..ServerConfig::default() });
        let reqs = vec![
            CompileRequest::new("cold", SRC, "inc"),
            CompileRequest::new("bad", "(define (f", "f"),
        ];
        server.serve(&reqs);
        server.serve(&[CompileRequest::new("hot", SRC, "inc")]);
        let m = server.metrics_snapshot();
        assert_eq!(m.cold_miss.count(), 1);
        assert_eq!(m.hit.count(), 1);
        assert_eq!(m.warm_miss.count(), 0);
        assert_eq!(m.requests(), 2, "the rejection is not a latency sample");
        assert_eq!(m.queue_wait.count(), 3, "every pickup waits in the queue");
        assert_eq!(m.in_flight, 0, "all requests have left service");
        assert!(m.in_flight_peak >= 1);

        // The snapshot publishes as a balanced, replayable event group.
        let shared = SharedSink::new(CollectingSink::new());
        server.publish_metrics(&shared);
        let sink = shared.try_unwrap().expect("sole owner");
        assert!(sink.check_balanced().is_ok());
        let hists = sink
            .events()
            .iter()
            .filter(|e| matches!(e, pe_trace::Event::Hist { .. }))
            .count();
        assert_eq!(hists, 3, "hit, cold-miss, and queue-wait histograms");
    }

    #[test]
    fn eviction_leads_to_warm_restarts() {
        // Capacity 0: artifacts are never stored, so every repeat
        // compiles — warm, after the first.
        let server = Server::new(ServerConfig {
            threads: 1,
            capacity: 0,
            limits: Limits::default(),
        });
        let req = CompileRequest::new("r", SRC, "inc");
        let first = server.serve(std::slice::from_ref(&req));
        let second = server.serve(std::slice::from_ref(&req));
        let (Outcome::Compiled { warm_started: w1, artifact: a1 },
             Outcome::Compiled { warm_started: w2, artifact: a2 }) =
            (&first[0].outcome, &second[0].outcome)
        else {
            panic!("both requests must compile");
        };
        assert!(!w1, "first compile is cold");
        assert!(w2, "second warm-starts from the retained snapshot");
        assert_eq!(
            a1.residual_source, a2.residual_source,
            "warm replay is byte-identical"
        );
        assert_eq!(server.stats().warm_starts, 1);
    }
}
