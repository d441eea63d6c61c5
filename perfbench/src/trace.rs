//! The benchmark's own span recorder. Spans wrap the benchmark's calls into
//! each layer's public functions; they are kept in memory and written once
//! as a Chrome trace when the run ends. A disabled recorder records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The request or job the span belongs to.
    pub id: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; close it with [`Recorder::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Recorder {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> Self {
        Recorder { epoch, tid, enabled, spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
            tid: self.tid,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in nesting order");
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Append another recorder's spans (parent indices are rebased).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children of one span never overlap: they nest on
    /// one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Per span name: (number of calls, total self time in ns).
    pub fn self_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += ns;
        }
        out
    }

    /// Self time per (span name, enclosing span's name) over the spans
    /// `keep` selects: (number of calls, total self time in ns).
    pub fn self_by_parent(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<(&'static str, Option<&'static str>), (u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if keep(s) {
                let e = out.entry((s.name, s.parent.map(|p| self.spans[p].name))).or_insert((0, 0));
                e.0 += 1;
                e.1 += ns;
            }
        }
        out
    }

    /// Per span name: durations (including children) in ns, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// The Chrome trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.id,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, true);
        let outer = r.begin("outer", 1);
        r.time("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.end(outer);
        let selfs = r.self_ns();
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(selfs[0], r.spans()[0].dur_ns() - r.spans()[1].dur_ns());
        assert!(r.chrome_json().contains("\"name\":\"inner\""));

        let mut off = Recorder::new(Instant::now(), 0, false);
        let o = off.begin("x", 1);
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
