//! Host-time spans recorded at the boundaries of the public calls the
//! benchmark makes.
//!
//! A span is (name, start, end, parent, unit): `unit` is the setup round or
//! measured pass the span belongs to. Spans stay in memory and are written
//! once, at exit, in the Chrome trace-event format. A layer's self time is
//! its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span was measured inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// The `n`th set-up round.
    Setup(u32),
    /// The `n`th measured pass.
    Pass(u32),
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    unit: Unit,
}

/// Handle of an open span; `None` while tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

/// The span recorder. While off, `begin`/`end` do nothing and read no clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    unit: Unit,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Host nanoseconds of `sim.run*` self time and the simulated
    /// instructions they executed, per placement class ("hwt", "cpu"), per
    /// unit: the counter side of the ns-per-instruction ratios.
    attributed: BTreeMap<(Unit, &'static str), (u64, u64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            unit: Unit::Setup(0),
            spans: Vec::new(),
            open: Vec::new(),
            attributed: BTreeMap::new(),
        }
    }

    /// Turns recording on or off and names the unit following spans join.
    /// Spans a panic left open are closed here.
    pub fn enter(&mut self, unit: Unit, on: bool) {
        while let Some(id) = self.open.last() {
            self.end(SpanId(Some(*id)));
        }
        self.unit = unit;
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span and returns its self time in ns (0 while off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        let Some(id) = id.0 else { return 0 };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.self_ns(id)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Credits `ns` of host time and `instrs` simulated instructions to a
    /// placement class in the current unit.
    pub fn attribute(&mut self, class: &'static str, ns: u64, instrs: u64) {
        if self.on {
            let e = self.attributed.entry((self.unit, class)).or_default();
            e.0 += ns;
            e.1 += instrs;
        }
    }

    /// Median over traced passes of the per-pass self time (ms) of spans
    /// named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.median_self_ms(name, |u| matches!(u, Unit::Pass(_)))
    }

    /// Median over set-up rounds of the per-round self time (ms) of spans
    /// named `name`.
    pub fn setup_self_ms(&self, name: &str) -> f64 {
        self.median_self_ms(name, |u| matches!(u, Unit::Setup(_)))
    }

    fn median_self_ms(&self, name: &str, keep: impl Fn(Unit) -> bool) -> f64 {
        let mut per_unit: BTreeMap<Unit, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && keep(s.unit) {
                *per_unit.entry(s.unit).or_default() += self.self_ns(i);
            }
        }
        let ms: Vec<f64> = per_unit.values().map(|&ns| ns as f64 / 1e6).collect();
        crate::stats::median(&ms)
    }

    /// Host ns per simulated instruction for a placement class, over
    /// every traced pass (0 when no run of that class was traced).
    pub fn ns_per_instr(&self, class: &str) -> f64 {
        let (ns, instrs) = self
            .attributed
            .iter()
            .filter(|((u, c), _)| matches!(u, Unit::Pass(_)) && *c == class)
            .fold((0, 0), |(a, b), (_, &(ns, n))| (a + ns, b + n));
        crate::stats::ratio(ns as f64, instrs as f64)
    }

    /// Total self time (ns) of spans named `name` inside traced passes.
    pub fn pass_self_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && matches!(s.unit, Unit::Pass(_)))
            .map(|(i, _)| self.self_ns(i))
            .sum()
    }

    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self.spans[id + 1..]
            .iter()
            .take_while(|c| c.start_ns < s.end_ns)
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        s.end_ns - s.start_ns - children
    }

    /// Writes every span as a Chrome trace-event file (`chrome://tracing`,
    /// Perfetto): one complete event per span, with its unit and parent.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let (kind, n) = match s.unit {
                Unit::Setup(n) => ("setup", n),
                Unit::Pass(n) => ("pass", n),
            };
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"{kind}\":{n}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}
