//! In-memory span recorder for the traced replay, written out once at the
//! end as a Chrome trace-event file (opens in Perfetto or
//! `chrome://tracing`).
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library; nothing inside the library is instrumented. Each span has a
//! name, start, end, the span that was open when it began (its parent),
//! and the epoch and batch it belongs to. A span's *self time* is its
//! duration minus the durations of its children.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span kind (`sample`, `train`, `fwd`, ...).
    pub name: &'static str,
    /// GNN layer index for per-layer spans.
    pub layer: Option<u8>,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Epoch being replayed.
    pub epoch: u32,
    /// Batch index within the epoch, for per-batch spans.
    pub batch: Option<u32>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Epoch stamped on spans begun from now on.
    pub epoch: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
        }
    }
}

/// A recorder slot that may be absent: the untraced replay runs the same
/// code with `None`, so the difference between the two runs is the cost of
/// recording.
pub type Tracer<'a> = Option<&'a RefCell<Trace>>;

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str, layer: Option<u8>, batch: Option<u32>) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            epoch: self.epoch,
            batch,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds summed per span name, in first-seen order.
    pub fn self_seconds(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.seconds();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = s.seconds() - c;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => slot.1 += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Summed duration of the spans with no parent.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::seconds)
            .sum()
    }

    /// Durations in milliseconds of the spans named `name` (and, when
    /// given, of layer `layer`).
    pub fn durations_ms(&self, name: &str, layer: Option<u8>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (layer.is_none() || s.layer == layer))
            .map(|s| s.seconds() * 1e3)
            .collect()
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per span, timestamps in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = match s.layer {
                Some(l) => format!("{}.l{l}", s.name),
                None => s.name.to_string(),
            };
            let mut args = format!("\"id\": {i}, \"epoch\": {}", s.epoch);
            if let Some(p) = s.parent {
                args.push_str(&format!(", \"parent\": {p}"));
            }
            if let Some(b) = s.batch {
                args.push_str(&format!(", \"batch\": {b}"));
            }
            out.push_str(&format!(
                "{{\"name\": \"{name}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{{args}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Runs `f` inside a span when tracing, or just runs it.
pub fn span<T>(
    tracer: Tracer<'_>,
    name: &'static str,
    layer: Option<u8>,
    batch: Option<u32>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(cell) => {
            let id = cell.borrow_mut().begin(name, layer, batch);
            let out = f();
            cell.borrow_mut().end(id);
            out
        }
    }
}

#[cfg(test)]
pub(crate) mod json {
    //! A minimal JSON reader, enough to check that emitted files parse.

    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
        if b[*i..].starts_with(lit.as_bytes()) {
            *i += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit} at byte {i}"))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        ws(b, i);
        match b.get(*i) {
            None => Err("unexpected end".into()),
            Some(b'n') => expect(b, i, "null").map(|_| Value::Null),
            Some(b't') => expect(b, i, "true").map(|_| Value::Bool(true)),
            Some(b'f') => expect(b, i, "false").map(|_| Value::Bool(false)),
            Some(b'"') => string(b, i).map(Value::Str),
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, i)?);
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {i}")),
                    }
                }
            }
            Some(b'{') => {
                *i += 1;
                let mut kv = Vec::new();
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(kv));
                }
                loop {
                    ws(b, i);
                    let k = string(b, i)?;
                    ws(b, i);
                    expect(b, i, ":")?;
                    kv.push((k, value(b, i)?));
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Value::Obj(kv));
                        }
                        _ => return Err(format!("bad object at byte {i}")),
                    }
                }
            }
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        expect(b, i, "\"")?;
        let start = *i;
        while *i < b.len() && b[*i] != b'"' {
            if b[*i] == b'\\' {
                *i += 1;
            }
            *i += 1;
        }
        let s = std::str::from_utf8(&b[start..(*i).min(b.len())])
            .map_err(|e| e.to_string())?
            .to_string();
        expect(b, i, "\"")?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_sum_up() {
        let cell = RefCell::new(Trace::default());
        span(Some(&cell), "epoch", None, None, || {
            span(Some(&cell), "sample", None, Some(0), || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let t = cell.into_inner();
        let selfs = t.self_seconds();
        let total: f64 = selfs.iter().map(|(_, s)| s).sum();
        assert!((total - t.root_seconds()).abs() < 1e-9);
        let epoch_self = selfs.iter().find(|(n, _)| *n == "epoch").unwrap().1;
        assert!(epoch_self < t.spans()[0].seconds());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].batch, Some(0));
    }

    #[test]
    fn untraced_span_just_runs() {
        assert_eq!(span(None, "x", None, None, || 7), 7);
    }

    #[test]
    fn chrome_json_parses_as_trace_events() {
        let cell = RefCell::new(Trace::default());
        span(Some(&cell), "train", None, Some(3), || {
            span(Some(&cell), "fwd", Some(1), Some(3), || ())
        });
        let text = cell.into_inner().chrome_json();
        let v = json::parse(&text).expect("trace JSON parses");
        let json::Value::Arr(events) = v.get("traceEvents").unwrap() else {
            panic!("traceEvents must be an array");
        };
        assert_eq!(events.len(), 2);
        for e in events {
            for key in ["name", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(e.get(key).is_some(), "event lacks {key}");
            }
            assert_eq!(e.get("ph"), Some(&json::Value::Str("X".into())));
        }
        assert_eq!(
            events[1].get("name"),
            Some(&json::Value::Str("fwd.l1".into()))
        );
    }
}
