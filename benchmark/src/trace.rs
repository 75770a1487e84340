//! Spans recorded around the benchmark's calls into each layer.
//!
//! The client thread records into a thread-local buffer; the socket server's
//! handler shim records into its own buffer (see `shim.rs`). Both stay in
//! memory until the run ends. A span's layer is its name up to the first
//! `.`; its self time is its duration minus the time its direct children
//! cover. When tracing is off, [`span`] only runs its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::samples::Samples;

/// One finished span. `span` ids start at 1; `parent` 0 marks a root.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub span: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    origin: Instant,
    op: u64,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Nanoseconds since `origin`.
pub fn since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording on this thread, timing from `origin`.
pub fn start_recording(origin: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        });
    });
}

/// Stops recording on this thread and returns what was recorded.
pub fn stop_recording() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` as the root span `op` of operation number `op`.
pub fn op<R>(op: u64, f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
    span("op", f)
}

/// Runs `f` inside a span called `name`, a child of the innermost open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(index) = open_span(name) else {
        return f();
    };
    let out = f();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end = since(rec.origin);
            if let Some(s) = rec.spans.get_mut(index) {
                s.end_ns = end;
            }
            rec.open.pop();
        }
    });
    out
}

fn open_span(name: &'static str) -> Option<usize> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let index = rec.spans.len();
        let parent = rec.open.last().map_or(0, |&p| p as u64 + 1);
        let start = since(rec.origin);
        rec.spans.push(Span {
            op: rec.op,
            span: index as u64 + 1,
            parent,
            name,
            start_ns: start,
            end_ns: start,
        });
        rec.open.push(index);
        Some(index)
    })
}

/// The cost of recording one span, in nanoseconds: the median over
/// batches of empty spans recorded into a throwaway buffer. Call it before
/// [`start_recording`]; it leaves the thread not recording.
pub fn span_cost_ns() -> f64 {
    const BATCH: u32 = 1_000;
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            start_recording(Instant::now());
            let t = Instant::now();
            for _ in 0..BATCH {
                span("calibrate", || ());
            }
            let ns = t.elapsed().as_nanos() as f64 / f64::from(BATCH);
            stop_recording();
            ns
        })
        .collect();
    Samples::new(batches).median_or_zero()
}

/// Gives each server-side span the client `net.call` span it overlaps most
/// as parent, clipped to that call, and merges the two sets. The client
/// waits for every reply, so a handler normally lies inside its call; when
/// the chaos proxy cuts a connection, the handler can outlive the call it
/// answers, and the rest of it is time a later call spends waiting. Returns
/// the merged spans and the number of handlers that overlapped no call.
pub fn adopt(mut client: Vec<Span>, server: Vec<Span>) -> (Vec<Span>, usize) {
    // Leaf spans of one thread: disjoint and in start order.
    let calls: Vec<(u64, u64, u64, u64)> = client
        .iter()
        .filter(|s| s.name == "net.call")
        .map(|s| (s.start_ns, s.end_ns, s.span, s.op))
        .collect();
    let overlap =
        |c: &(u64, u64, u64, u64), s: &Span| c.1.min(s.end_ns).saturating_sub(c.0.max(s.start_ns));
    let mut next = client.len() as u64 + 1;
    let mut unmatched = 0;
    for mut s in server {
        let first = calls.partition_point(|c| c.1 <= s.start_ns);
        let best = calls[first..]
            .iter()
            .take_while(|c| c.0 <= s.end_ns)
            .max_by_key(|c| overlap(c, &s));
        let Some(&(start, end, id, op)) = best else {
            unmatched += 1;
            continue;
        };
        s.start_ns = s.start_ns.clamp(start, end);
        s.end_ns = s.end_ns.clamp(s.start_ns, end);
        s.parent = id;
        s.op = op;
        s.span = next;
        next += 1;
        client.push(s);
    }
    (client, unmatched)
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = s
            .parent
            .checked_sub(1)
            .and_then(|p| covered.get_mut(p as usize))
        {
            *c += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-name and per-layer aggregates of one traced run.
#[derive(Default)]
pub struct Breakdown {
    /// Span durations by name, in ns.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// Span self times by name, in ns.
    pub self_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Summed self time by layer, in ns; the `op` layer is time the
    /// benchmark spent between calls into the layers.
    pub layer_self_ns: BTreeMap<&'static str, f64>,
    /// Server-side spans no client call enclosed.
    pub orphans: usize,
}

impl Breakdown {
    pub fn new(spans: &[Span]) -> Self {
        let mut b = Self::default();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            if s.parent == 0 && s.name != "op" {
                b.orphans += 1;
            }
            b.durations
                .entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64);
            b.self_ns.entry(s.name).or_default().push(self_ns as f64);
            *b.layer_self_ns.entry(s.layer()).or_default() += self_ns as f64;
        }
        b
    }

    /// Median duration of spans called `name`, in ns (0 if none ran).
    pub fn p50_ns(&self, name: &str) -> f64 {
        self.percentile_ns(name, 50.0)
    }

    /// Percentile `p` of the durations of spans called `name`, in ns (0 if
    /// none ran).
    pub fn percentile_ns(&self, name: &str, p: f64) -> f64 {
        self.durations
            .get(name)
            .and_then(|v| Samples::new(v.clone()).at_percentile(p))
            .unwrap_or(0.0)
    }

    /// Median self time of spans called `name`, in ns (0 if none ran).
    pub fn self_p50_ns(&self, name: &str) -> f64 {
        self.self_ns
            .get(name)
            .map_or(0.0, |v| Samples::new(v.clone()).median_or_zero())
    }

    /// Total duration of spans called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, Vec::len)
    }

    /// Summed self time of `layer`, in ns.
    pub fn layer_ns(&self, layer: &str) -> f64 {
        self.layer_self_ns.get(layer).copied().unwrap_or(0.0)
    }
}

/// Writes one JSON object per span to `path`.
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"op\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.span, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(span: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            span,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            mk(1, 0, "op", 0, 100),
            mk(2, 1, "net.call", 10, 60),
            mk(3, 2, "cloudsim.audit", 20, 50),
            mk(4, 1, "core.verify", 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        let b = Breakdown::new(&spans);
        let total: f64 = b.layer_self_ns.values().sum();
        assert_eq!(total, 100.0, "layer self times partition the op span");
    }

    #[test]
    fn server_spans_join_the_call_they_overlap_most() {
        let client = vec![
            mk(1, 0, "op", 0, 100),
            mk(2, 1, "net.call", 10, 40),
            mk(3, 1, "net.call", 50, 90),
        ];
        let server = vec![
            mk(0, 0, "cloudsim.audit", 55, 80),
            // Outlives the first call (the proxy cut it) into the second.
            mk(0, 0, "cloudsim.compute", 20, 45),
            // Runs while no call is open.
            mk(0, 0, "cloudsim.store", 92, 95),
        ];
        let (merged, unmatched) = adopt(client, server);
        assert_eq!(unmatched, 1);
        assert_eq!((merged[3].parent, merged[3].span), (3, 4));
        assert_eq!(
            (merged[4].parent, merged[4].start_ns, merged[4].end_ns),
            (2, 20, 40)
        );
        let b = Breakdown::new(&merged);
        assert_eq!(b.orphans, 0);
        assert_eq!(b.layer_self_ns.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn recording_nests_and_stops() {
        start_recording(Instant::now());
        op(7, || span("net.call", || span("inner.x", || ())));
        let spans = stop_recording();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (1, 2));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(
            stop_recording().is_empty(),
            "nothing is recorded once finished"
        );
        assert_eq!(span("x", || 5), 5);
    }
}
