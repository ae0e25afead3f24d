//! Span recording around the benchmark's own calls into each layer.
//!
//! A [`Recorder`] belongs to one thread and keeps its spans in memory;
//! a disabled recorder never reads the clock, so untraced runs pay
//! nothing. At the end of a phase the recorders are folded into a
//! [`Trace`], which derives per-layer self time (a span's duration
//! minus the time its child spans cover) and is written out as CSV.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// The layers, named after the crates they wrap, plus the load
/// generator itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Loadgen,
    Net,
    Query,
    Core,
    Tx,
    Storage,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Loadgen,
        Layer::Net,
        Layer::Query,
        Layer::Core,
        Layer::Tx,
        Layer::Storage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Loadgen => "loadgen",
            Layer::Net => "net",
            Layer::Query => "query",
            Layer::Core => "core",
            Layer::Tx => "tx",
            Layer::Storage => "storage",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<u32>,
    /// The load-generator operation this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects the span buffers of one phase's threads.
pub struct Tracer {
    phase: &'static str,
    enabled: bool,
    epoch: Instant,
    /// Per-thread span budget; a full recorder stops recording and
    /// reports [`Recorder::full`] so its loop can end the phase.
    cap: usize,
    threads: Mutex<Vec<Vec<Span>>>,
}

impl Tracer {
    pub fn new(phase: &'static str, enabled: bool, cap: usize) -> Self {
        Tracer {
            phase,
            enabled,
            epoch: Instant::now(),
            cap,
            threads: Mutex::new(Vec::new()),
        }
    }

    pub fn recorder(&self) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            cap: self.cap,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn absorb(&self, rec: Recorder) {
        if self.enabled {
            self.threads
                .lock()
                .expect("tracer mutex poisoned")
                .push(rec.spans);
        }
    }

    pub fn finish(self) -> Trace {
        Trace {
            phase: self.phase,
            threads: self.threads.into_inner().expect("tracer mutex poisoned"),
        }
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    /// Stack of open spans (`None` for a span dropped at the cap).
    open: Vec<Option<u32>>,
    op: u64,
}

impl Recorder {
    /// True once the span budget is spent.
    pub fn full(&self) -> bool {
        self.enabled && self.spans.len() >= self.cap
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span for load-generator operation `op`.
    pub fn begin_op(&mut self, name: &'static str, op: u64) {
        self.op = op;
        self.enter(Layer::Loadgen, name);
    }

    pub fn end_op(&mut self) {
        self.exit();
    }

    pub fn enter(&mut self, layer: Layer, name: &'static str) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= self.cap {
            self.open.push(None);
            return;
        }
        let parent = self.open.iter().rev().find_map(|s| *s);
        let start_ns = self.now_ns();
        self.open.push(Some(self.spans.len() as u32));
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(Some(idx)) = self.open.pop() {
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(layer, name);
        let out = f();
        self.exit();
        out
    }
}

/// The spans of one phase, per thread.
pub struct Trace {
    pub phase: &'static str,
    pub threads: Vec<Vec<Span>>,
}

impl Trace {
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.threads.iter().flatten()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Mean duration (µs) of the spans called `name`, 0 if none.
    pub fn mean_us(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations_us(name))
    }

    /// Root spans (load-generator operations).
    pub fn ops(&self) -> usize {
        self.spans().filter(|s| s.parent.is_none()).count()
    }

    /// Total self time (µs) per layer: each span's duration minus the
    /// durations of its children. Children of one span run on the same
    /// thread one after another, so their durations never overlap and
    /// their sum is the time they cover.
    pub fn self_time_us(&self) -> BTreeMap<Layer, f64> {
        let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|l| (*l, 0.0)).collect();
        for spans in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p as usize] += s.end_ns - s.start_ns;
                }
            }
            for (s, covered) in spans.iter().zip(child_ns) {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered);
                *out.entry(s.layer).or_default() += own as f64 / 1e3;
            }
        }
        out
    }

    /// Append this phase's spans as CSV rows
    /// (`phase,thread,op,id,parent,layer,name,start_ns,end_ns`).
    pub fn write_csv(&self, out: &mut String) {
        for (t, spans) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or(String::new(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{},{t},{},{i},{parent},{},{},{},{}",
                    self.phase,
                    s.op,
                    s.layer.name(),
                    s.name,
                    s.start_ns,
                    s.end_ns
                );
            }
        }
    }
}
