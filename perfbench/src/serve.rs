//! The serve stage: a closed loop of two clients against one shared
//! `pe_serve::Server`.  Each client sends its next request only after
//! the reply to the previous one (`Server::serve(&[req])`).  Traffic is
//! Zipf-distributed over a fixed popularity ranking and comes in blocks:
//! each block holds every program exactly as often as its Zipf share,
//! in a seeded order, and the timed loop ends at a block boundary.  So
//! the mix of programs is the same for every seed and only the order,
//! and with it the cache's hits and evictions, varies.

use crate::programs::{shuffled, vm_limits, Checks, Program, POOL_SEED};
use pe_interp::Datum;
use pe_serve::{Artifact, CacheStats, CompileRequest, Outcome, Server, ServerConfig};
use pe_siege::rng::Rng;
use pe_vm::Vm;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Artifact-cache capacity of the server, below the pool's 400 programs
/// (the warm-snapshot tier holds four times as many).
pub const CAPACITY: usize = 72;
/// Zipf exponent of the popularity ranking.
pub const ZIPF_S: f64 = 1.0;

/// How a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Served from the artifact cache.
    Hit,
    /// Compiled, warm-started from a memo snapshot.
    Warm,
    /// Compiled cold.
    Cold,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send-to-reply latency.
    pub ms: f64,
    /// How it was answered.
    pub class: Class,
}

/// A server and the traffic to send it.
pub struct ServeSetup {
    server: Server,
    requests: Vec<CompileRequest>,
    /// Requests per block for each pool index: its Zipf share of the
    /// block, rounded by largest remainder.
    counts: Vec<usize>,
}

/// Upper bound on the request rate, used to size the traffic.
const MAX_RPS: f64 = 20_000.0;

impl ServeSetup {
    /// A server for `pool`, where the program at popularity rank `r`
    /// (from 1) has weight `1 / r^ZIPF_S`.  The ranking is a fixed
    /// permutation of the pool.
    #[must_use]
    pub fn new(pool: &[Program]) -> ServeSetup {
        let requests = pool
            .iter()
            .map(|p| CompileRequest::new(&p.name, &p.source, &p.entry))
            .collect();
        let weights: Vec<f64> = (1..=pool.len()).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        // The smallest block in which the least popular program is
        // expected at least once.
        let len = (total / weights[pool.len() - 1]).ceil() as usize;
        let exact: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..pool.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        for &r in by_remainder.iter().take(len - counts.iter().sum::<usize>()) {
            counts[r] += 1;
        }
        // `counts` is by rank; store it by pool index.
        let ranking = shuffled(pool.len(), &mut Rng::new(POOL_SEED));
        let mut by_index = vec![0; pool.len()];
        for (&n, &i) in counts.iter().zip(&ranking) {
            by_index[i] = n;
        }
        ServeSetup {
            server: Server::new(ServerConfig {
                threads: 1,
                capacity: CAPACITY,
                ..ServerConfig::default()
            }),
            requests,
            counts: by_index,
        }
    }

    /// Requests per block.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// `blocks` blocks of traffic, each a seeded permutation of one
    /// block: every block requests each program exactly as often.
    #[must_use]
    pub fn traffic(&self, blocks: usize, rng: &mut Rng) -> Vec<usize> {
        let block: Vec<usize> = self
            .counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .collect();
        (0..blocks)
            .flat_map(|_| shuffled(block.len(), rng).into_iter().map(|j| block[j]))
            .collect()
    }

    /// Fills the caches with `requests` untimed requests.
    pub fn warm_up(&self, requests: usize, rng: &mut Rng) {
        let traffic = self.traffic(requests.div_ceil(self.block_len()), rng);
        let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::default()).collect();
        self.drive(&traffic, &AtomicUsize::new(0), requests, None, &mut logs);
    }

    /// Sends `traffic[next..stop_at]` from the clients, each claiming
    /// the next index only after its previous reply, until the traffic
    /// is used up or `deadline` passes.
    fn drive(
        &self,
        traffic: &[usize],
        next: &AtomicUsize,
        stop_at: usize,
        deadline: Option<Instant>,
        logs: &mut [ClientLog],
    ) {
        std::thread::scope(|s| {
            for log in logs.iter_mut() {
                s.spawn(move || loop {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    let claim = next.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| {
                        (k < stop_at).then_some(k + 1)
                    });
                    let Ok(k) = claim else { break };
                    let i = traffic[k];
                    let t = Instant::now();
                    let resp = self.server.serve(std::slice::from_ref(&self.requests[i]));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    log.record(i, ms, resp.into_iter().next().map(|r| r.outcome));
                });
            }
        });
    }
}

/// One client's view of the loop.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// First artifact per program; later replies must match it byte for byte.
    first: BTreeMap<usize, Artifact>,
    mismatches: Vec<String>,
}

impl ClientLog {
    fn record(&mut self, i: usize, ms: f64, outcome: Option<Outcome>) {
        let (artifact, class) = match outcome {
            Some(Outcome::Hit(a)) => (a, Class::Hit),
            Some(Outcome::Compiled {
                artifact,
                warm_started,
            }) => (
                artifact,
                if warm_started {
                    Class::Warm
                } else {
                    Class::Cold
                },
            ),
            Some(Outcome::Rejected(why)) => {
                self.mismatches.push(format!("request {i} rejected: {why}"));
                return;
            }
            None => {
                self.mismatches.push(format!("request {i} got no response"));
                return;
            }
        };
        self.samples.push(Sample { ms, class });
        match self.first.get(&i) {
            Some(a) if a.residual_source != artifact.residual_source => {
                self.mismatches.push(format!(
                    "request {i}: residual differs from an earlier reply"
                ));
            }
            Some(_) => {}
            None => {
                self.first.insert(i, artifact);
            }
        }
    }
}

/// What the stage measured.
#[derive(Debug, Default)]
pub struct ServeResult {
    /// Every answered request.
    pub samples: Vec<Sample>,
    /// Wall time of the loop in seconds, all slices.
    pub wall_s: f64,
    /// Cache counters accumulated during the timed loop.
    pub stats: CacheStats,
}

/// The serve stage in progress.
pub struct Serve<'a> {
    setup: &'a ServeSetup,
    traffic: Vec<usize>,
    next: AtomicUsize,
    logs: Vec<ClientLog>,
    wall_s: f64,
    before: CacheStats,
}

impl<'a> Serve<'a> {
    /// Draws enough traffic for `budget` of serving.
    #[must_use]
    pub fn new(setup: &'a ServeSetup, budget: Duration, rng: &mut Rng) -> Serve<'a> {
        let blocks = (budget.as_secs_f64() * MAX_RPS / setup.block_len() as f64).ceil() as usize;
        Serve {
            setup,
            traffic: setup.traffic(blocks + 1, rng),
            next: AtomicUsize::new(0),
            logs: (0..CLIENTS).map(|_| ClientLog::default()).collect(),
            wall_s: 0.0,
            before: setup.server.stats(),
        }
    }

    /// Runs the closed loop for `slice`.
    pub fn step(&mut self, slice: Duration) {
        let start = Instant::now();
        let len = self.traffic.len();
        self.setup.drive(
            &self.traffic,
            &self.next,
            len,
            Some(start + slice),
            &mut self.logs,
        );
        self.wall_s += start.elapsed().as_secs_f64();
    }

    /// Serves up to the end of the current block, then loads each
    /// distinct artifact into the VM and compares its result with
    /// `references` (`None` where the reference trapped).
    pub fn finish(
        mut self,
        pool: &[Program],
        references: &[Option<Datum>],
        checks: &mut Checks,
    ) -> ServeResult {
        let start = Instant::now();
        let end = self
            .next
            .load(Ordering::SeqCst)
            .next_multiple_of(self.setup.block_len());
        let end = end.min(self.traffic.len());
        self.setup
            .drive(&self.traffic, &self.next, end, None, &mut self.logs);
        let wall_s = self.wall_s + start.elapsed().as_secs_f64();
        let (before, after) = (self.before, self.setup.server.stats());
        let stats = CacheStats {
            lookups: after.lookups - before.lookups,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            insertions: after.insertions - before.insertions,
            evictions: after.evictions - before.evictions,
            warm_starts: after.warm_starts - before.warm_starts,
        };
        let mut res = ServeResult {
            wall_s,
            stats,
            ..ServeResult::default()
        };
        let mut first: BTreeMap<usize, Artifact> = BTreeMap::new();
        for log in self.logs {
            for m in &log.mismatches {
                checks.check(false, || m.clone());
            }
            checks.pass(log.samples.len() as u64);
            res.samples.extend(log.samples);
            for (i, a) in log.first {
                if let Some(b) = first.get(&i) {
                    checks.check(a.residual_source == b.residual_source, || {
                        format!("{}: clients got different residuals", pool[i].name)
                    });
                } else {
                    first.insert(i, a);
                }
            }
        }
        for (i, a) in &first {
            let Some(want) = &references[*i] else {
                continue;
            };
            let got = Vm::compile(&a.s0)
                .map_err(|e| e.to_string())
                .and_then(|vm| {
                    vm.run(&pool[*i].args, vm_limits())
                        .map(|(v, _)| v)
                        .map_err(|e| e.to_string())
                });
            checks.check(got.as_ref() == Ok(want), || {
                format!(
                    "{}: served artifact gave {got:?}, reference {want}",
                    pool[*i].name
                )
            });
        }
        res
    }
}
