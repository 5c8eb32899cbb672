//! In-memory spans recorded around calls into the crates' public
//! functions.  Nothing inside the compiler is instrumented: a span
//! covers exactly one call made from this benchmark's own code.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.specialize`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The program (or request) this span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only if `on`.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording on or off; spans already recorded stay.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside an open span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn leaf<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, id);
        let r = f();
        self.close();
        r
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of the spans named `name`, with their ids.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u64, f64)> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.id, s.ms()))
    }

    /// Summed duration in ms of the spans named `name`.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).map(|(_, ms)| ms).sum()
    }
}
