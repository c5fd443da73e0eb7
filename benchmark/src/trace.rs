//! The benchmark's own tracer. Nothing inside the program is instrumented:
//! spans are recorded from here, around the calls into each layer, kept in
//! memory and written out when the run ends.

use crate::stats;
use std::time::Instant;
use unet::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The driver's step count when the span began.
    pub step: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    workload: &'static str,
    pub step: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            workload,
            step: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switched off, every method below is a plain call of its closure:
    /// the end-to-end rounds run with the tracer off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span that later spans nest under until it ends.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A span around one call into a layer.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.scope(name, |_| f())
    }

    /// [`leaf`](Self::leaf) that also hands back the call's duration
    /// \[ms\] (0 with the tracer off).
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let out = self.leaf(name, f);
        let ms = if self.on {
            self.spans.last().map_or(0.0, Span::ms)
        } else {
            0.0
        };
        (out, ms)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations \[ms\] of every finished span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn median_ms(&self, name: &str) -> f64 {
        stats::median(&self.durations_ms(name))
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time \[ns\] of every span, in span order.
    fn own_ns(&self) -> Vec<u64> {
        stats::self_times(
            &self
                .spans
                .iter()
                .map(|s| (s.start_ns, s.end_ns, s.parent))
                .collect::<Vec<_>>(),
        )
    }

    /// Summed self time \[ms\] of the spans called `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.own_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum()
    }

    /// The trace document: `{workload, spans: [{name, start_ns, end_ns,
    /// parent, step, self_ns}]}`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .zip(self.own_ns())
            .map(|(s, self_ns)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload".into(), Json::Str(self.workload.into())),
                    ("step".into(), Json::Num(s.step as f64)),
                    ("self_ns".into(), Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("format".into(), Json::Str("asura-benchmark-trace".into())),
            ("workload".into(), Json::Str(self.workload.into())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_an_off_tracer_records_nothing() {
        let mut t = Tracer::new("w");
        assert_eq!(t.leaf("quiet", || 7), 7);
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.step = 3;
        let v = t.scope("outer", |t| t.leaf("inner", || 1) + t.leaf("inner", || 2));
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ns >= s[2].end_ns && s[1].end_ns <= s[2].start_ns);
        assert_eq!(s[2].step, 3);
        assert_eq!(t.durations_ms("inner").len(), 2);
        assert!(t.self_ms("outer") <= t.total_ms("outer"));
        let doc = t.to_json();
        assert_eq!(doc.get("workload").unwrap(), &Json::Str("w".into()));
    }
}
