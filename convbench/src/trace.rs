//! The traced run's instruments: a counting global allocator and an
//! in-memory span recorder written out as Chrome trace-event JSON.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; the engine is not instrumented.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocations and allocated bytes while [`COUNTING`] is set. The
/// counters are statistics that publish no other data, so `Relaxed`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations and bytes allocated so far (zero until counting starts).
fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// One closed span.
pub struct Span {
    pub name: &'static str,
    pub cycle: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans in memory. Spans nest: a span opened while another is
/// open becomes its child.
pub struct Tracer {
    birth: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub cycle: u64,
}

impl Tracer {
    /// Start the tracer and switch allocation counting on.
    pub fn start() -> Tracer {
        COUNTING.store(true, Ordering::Relaxed);
        Tracer {
            birth: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
            cycle: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.birth.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let (allocs, bytes) = alloc_counters();
        let span = Span {
            name,
            cycle: self.cycle,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs,
            bytes,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let end = self.now_ns();
        let (allocs, bytes) = alloc_counters();
        let i = self.open.pop().expect("exit matches an enter");
        let s = &mut self.spans[i];
        s.end_ns = end;
        s.allocs = allocs - s.allocs;
        s.bytes = bytes - s.bytes;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time (ms), self allocations and self bytes of every span: its
    /// own figures minus those of its direct children.
    pub fn self_costs(&self) -> Vec<(f64, u64, u64)> {
        let mut out: Vec<(f64, u64, u64)> = self
            .spans
            .iter()
            .map(|s| (s.dur_ms(), s.allocs, s.bytes))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p].0 -= s.dur_ms();
                out[p].1 -= s.allocs;
                out[p].2 -= s.bytes;
            }
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-cycle sums of each span name's self costs, keyed by name then
    /// cycle.
    pub fn per_cycle(&self) -> BTreeMap<&'static str, BTreeMap<u64, (f64, u64, u64)>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u64, (f64, u64, u64)>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(self.self_costs()) {
            let e = out
                .entry(s.name)
                .or_default()
                .entry(s.cycle)
                .or_insert((0.0, 0, 0));
            e.0 += c.0;
            e.1 += c.1;
            e.2 += c.2;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete events,
    /// wall-clock microseconds), loadable in Perfetto or chrome://tracing.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"convbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"cycle\":{},\"allocs\":{},\"alloc_bytes\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.cycle,
                s.allocs,
                s.bytes
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::start();
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let costs = t.self_costs();
        let outer = &t.spans()[0];
        let inner = &t.spans()[1];
        assert_eq!(inner.parent, Some(0));
        assert!(inner.dur_ms() >= 5.0);
        assert!((costs[0].0 - (outer.dur_ms() - inner.dur_ms())).abs() < 1e-9);
        assert!(t.to_chrome_json().contains("\"name\":\"inner\""));
    }
}
