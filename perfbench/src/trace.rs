//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each layer;
//! the library itself carries no tracing. Each client thread owns one
//! [`Recorder`]. A span's self time is its duration minus the part of its
//! interval that its child spans cover. Per-name totals are kept for every
//! span; the first [`KEEP`] spans are also kept whole and written out when
//! the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept whole per recorder for the trace file.
pub const KEEP: usize = 1 << 15;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run: recorder index in the top 16 bits.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The operation the span belongs to.
    pub op: u64,
    /// Layer boundary name, e.g. `txn.read`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Count, total and self time of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl SpanTotal {
    /// Mean self time per span, ns (0 when none were recorded).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// `end - start` minus the part of `[start, end)` covered by the union of
/// `children` (which may overlap, or reach outside the parent). Sorts
/// `children` in place.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

struct Frame {
    id: u64,
    name: &'static str,
    op: u64,
    start: u64,
    /// Where this frame's children start in `Recorder::children`.
    child_base: usize,
}

/// Per-thread span recorder. While `on` is false, `enter`/`exit` return at
/// once; switch it only between operations, with no span open.
pub struct Recorder {
    /// Whether spans are being recorded.
    pub on: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Frame>,
    /// Child intervals of every open frame, innermost last.
    children: Vec<(u64, u64)>,
    totals: BTreeMap<&'static str, SpanTotal>,
    kept: Vec<Span>,
}

impl Recorder {
    /// A recorder numbered `index`, timing from `epoch` (shared by all
    /// recorders of a run so their spans line up).
    pub fn new(index: u16, epoch: Instant) -> Self {
        Recorder {
            on: false,
            epoch,
            next_id: (index as u64) << 48,
            stack: Vec::new(),
            children: Vec::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `op`.
    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        let frame = Frame {
            id: self.next_id,
            name,
            op,
            start: self.now(),
            child_base: self.children.len(),
        };
        self.stack.push(frame);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let f = self.stack.pop().expect("exit matches an enter");
        let own = self_time(f.start, end, &mut self.children[f.child_base..]);
        self.children.truncate(f.child_base);
        if !self.stack.is_empty() {
            self.children.push((f.start, end));
        }
        let t = self.totals.entry(f.name).or_default();
        t.count += 1;
        t.total_ns += end - f.start;
        t.self_ns += own;
        if self.kept.len() < KEEP {
            let parent = self.stack.last().map(|p| p.id);
            self.kept.push(Span {
                id: f.id,
                parent,
                op: f.op,
                name: f.name,
                start: f.start,
                end,
            });
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }
}

/// Every recorder's totals and kept spans, merged at the end of a run.
#[derive(Default)]
pub struct Trace {
    totals: BTreeMap<&'static str, SpanTotal>,
    kept: Vec<Span>,
}

impl Trace {
    /// Folds one recorder in.
    pub fn absorb(&mut self, r: Recorder) {
        assert!(r.stack.is_empty(), "recorder finished with open spans");
        for (name, t) in r.totals {
            let m = self.totals.entry(name).or_default();
            m.count += t.count;
            m.total_ns += t.total_ns;
            m.self_ns += t.self_ns;
        }
        self.kept.extend(r.kept);
    }

    /// Totals for spans named `name` (zero when none were recorded).
    pub fn get(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the kept spans as tab-separated rows to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.kept {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.op, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &mut []), 100);
        assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &mut [(40, 60), (10, 50)]), 50);
        // Nested children count once.
        assert_eq!(self_time(0, 100, &mut [(10, 90), (20, 30)]), 20);
        // Parts outside the parent are clipped.
        assert_eq!(self_time(10, 100, &mut [(0, 20), (90, 200)]), 70);
        // A child covering everything leaves nothing.
        assert_eq!(self_time(10, 20, &mut [(0, 30)]), 0);
    }

    #[test]
    fn recorder_nests_and_attributes_self_time() {
        let mut r = Recorder::new(1, Instant::now());
        r.enter("off", 0);
        r.exit();
        r.on = true;
        r.enter("block", 7);
        r.span("read", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.span("write", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit();
        let mut t = Trace::default();
        t.absorb(r);
        assert_eq!(t.get("off").count, 0);
        let (block, read) = (t.get("block"), t.get("read"));
        assert_eq!((block.count, read.count, t.get("write").count), (1, 1, 1));
        assert_eq!(read.self_ns, read.total_ns, "a leaf is all self time");
        let children = read.total_ns + t.get("write").total_ns;
        assert_eq!(block.self_ns, block.total_ns - children);
        assert!(block.self_ns < block.total_ns / 2);
        assert_eq!(t.kept.len(), 3);
        let root = t.kept.iter().find(|s| s.name == "block").unwrap();
        assert!(t
            .kept
            .iter()
            .filter(|s| s.name != "block")
            .all(|s| s.parent == Some(root.id)));
        assert!(t.kept.iter().all(|s| s.op == 7));
    }
}
