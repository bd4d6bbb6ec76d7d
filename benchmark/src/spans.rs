//! In-memory spans for the traced run. Spans are recorded from the
//! benchmark's own files, around calls into each layer's public functions;
//! they are written out once, when the run ends.

use std::time::Instant;

/// One span: a named interval attributed to a layer, with the span that
/// caused it and the number of work items it covered.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Crate name of the layer the interval is charged to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work items covered (elements, events, epochs, bytes — per `name`).
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans; nesting follows `begin`/`end` order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one), records the
    /// number of work items it covered and returns its duration in seconds.
    pub fn end(&mut self, id: usize, count: u64) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
        span.secs()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "    {{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"count\": {}}}",
                    s.name,
                    s.layer,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.count
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_in_begin_end_order() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", "ledger");
        let inner = t.begin("inner", "simnet");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = t.end(inner, 3);
        let outer_s = t.end(outer, 1);
        assert!(outer_s >= inner_s && inner_s > 0.0);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].count, 3);
        assert!(t.to_json().contains("\"parent\": 0"));
    }
}
