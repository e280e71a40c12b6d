//! In-memory spans around every call the benchmark makes into the
//! library, written out as one Chrome-trace JSON file when the run ends.
//!
//! Host-clock spans time the calls from outside. Each operation span gets
//! one child span per kernel launch, placed on the modeled device clock
//! (launch estimates laid end to end from the operation's start).

use std::time::Instant;

use simt::{Json, LaunchRecord};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Modeled,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Operation id: 0.. for set-up repetitions, then one per operation.
    pub op: u64,
    pub name: String,
    pub clock: Clock,
    /// Seconds since the run started (host) or since the operation
    /// started (modeled).
    pub start_s: f64,
    pub end_s: f64,
}

/// A span that has been opened but not yet recorded.
pub struct Open {
    id: u32,
    parent: Option<u32>,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Span recorder. When disabled it still hands out timings, so the timed
/// code path is the same with tracing on and off; only the `Vec` pushes
/// differ.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    /// Open spans, innermost last: a new span's parent is the top.
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Start a host span inside the innermost open one.
    pub fn open(&mut self) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        Open {
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Finish a span and return its duration in seconds. Spans opened
    /// inside it and never closed (a panic unwound past them) are
    /// dropped.
    pub fn close(&mut self, span: Open, op: u64, name: &str) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(span.start).as_secs_f64();
        if let Some(at) = self.open.iter().rposition(|&id| id == span.id) {
            self.open.truncate(at);
        }
        if self.enabled {
            self.spans.push(Span {
                id: span.id,
                parent: span.parent,
                op,
                name: name.to_string(),
                clock: Clock::Host,
                start_s: span.start.duration_since(self.epoch).as_secs_f64(),
                end_s: end.duration_since(self.epoch).as_secs_f64(),
            });
        }
        secs
    }

    /// Run `f` inside a host span.
    pub fn host<R>(&mut self, op: u64, name: &str, f: impl FnOnce() -> R) -> R {
        let span = self.open();
        let out = f();
        self.close(span, op, name);
        out
    }

    /// One modeled-clock child span per launch of `records`, under the
    /// host span `parent`.
    pub fn launches(&mut self, op: u64, parent: u32, records: &[LaunchRecord]) {
        if !self.enabled {
            return;
        }
        let mut t = 0.0;
        for r in records {
            let id = self.next_id;
            self.next_id += 1;
            self.spans.push(Span {
                id,
                parent: Some(parent),
                op,
                name: r.label.clone(),
                clock: Clock::Modeled,
                start_s: t,
                end_s: t + r.seconds,
            });
            t += r.seconds;
        }
    }

    /// Chrome-trace document: host spans in process 1, modeled spans in
    /// process 2, one thread row per operation. Every event carries its
    /// span id, parent, operation id and clock in `args`.
    pub fn to_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let num = |v: f64| Json::Num(v);
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), num(s.start_s * 1e6)),
                    ("dur".into(), num((s.end_s - s.start_s) * 1e6)),
                    (
                        "pid".into(),
                        Json::int(1 + (s.clock == Clock::Modeled) as u64),
                    ),
                    ("tid".into(), Json::int(s.op)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::int(s.id as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                            ),
                            ("op".into(), Json::int(s.op)),
                            ("clock".into(), Json::Str(s.clock.name().into())),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
    }
}
