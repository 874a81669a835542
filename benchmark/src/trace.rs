//! Spans recorded around the benchmark's calls into each layer.
//!
//! Spans nest: a span opened while another is open takes it as parent,
//! and a span's self time is its duration minus its children's. Every
//! span feeds the per-layer aggregates as it closes; only a deterministic
//! sample is kept in memory: every span outside an op, and the spans of
//! one op in [`SAMPLE_EVERY`].

use std::collections::BTreeMap;
use std::time::Instant;

use epcm_trace::json::JsonObject;

/// Keep the spans of the ops whose number is a multiple of this.
pub const SAMPLE_EVERY: u64 = 64;

/// The layers spans are attributed to, named after the crates and
/// modules the wrapped calls enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code: one span per repetition.
    Bench,
    /// A `Machine` call that completed without a fault.
    Kernel,
    /// A `Machine` call that dispatched a fault, a tick or a segment call.
    Machine,
    /// A Table 2 application run on V++, and its compute charge.
    Workloads,
    /// An application run on the Ultrix baseline.
    Baseline,
    /// One `epcm_dbms::engine::run`.
    Dbms,
    /// One `epcm_managers::shard::try_run_with`.
    Shard,
    /// One `epcm_economy::aggregate`.
    Economy,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Bench,
        Layer::Kernel,
        Layer::Machine,
        Layer::Workloads,
        Layer::Baseline,
        Layer::Dbms,
        Layer::Shard,
        Layer::Economy,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Kernel => "kernel",
            Layer::Machine => "machine",
            Layer::Workloads => "workloads",
            Layer::Baseline => "baseline",
            Layer::Dbms => "dbms",
            Layer::Shard => "shard",
            Layer::Economy => "economy",
        }
    }

    /// Index into per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One closed span. Virtual times are on the clock of the machine the
/// span ran on (0 where the layer has no machine clock).
#[derive(Debug, Clone)]
pub struct Span {
    /// Sequential id, from 1.
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer the span is attributed to.
    pub layer: Layer,
    /// The wrapped call or phase.
    pub name: &'static str,
    /// Host start, ns since the tracer was created.
    pub host_start_ns: u64,
    /// Host end, ns since the tracer was created.
    pub host_end_ns: u64,
    /// Virtual start, µs.
    pub virt_start_us: u64,
    /// Virtual end, µs.
    pub virt_end_us: u64,
    /// The op the span belongs to (0 outside ops).
    pub op: u64,
}

impl Span {
    /// The span as one JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("id", self.id)
            .u64("parent", self.parent)
            .string("layer", self.layer.name())
            .string("name", self.name)
            .u64("host_start_ns", self.host_start_ns)
            .u64("host_end_ns", self.host_end_ns)
            .u64("virt_start_us", self.virt_start_us)
            .u64("virt_end_us", self.virt_end_us)
            .u64("op", self.op)
            .finish()
    }
}

#[derive(Debug)]
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    virt_start_us: u64,
    op: u64,
    child_ns: u64,
}

/// The span recorder of one traced repetition.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    self_ns: [u64; Layer::ALL.len()],
    host_ns: BTreeMap<&'static str, Vec<u64>>,
    sampled: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            self_ns: [0; Layer::ALL.len()],
            host_ns: BTreeMap::new(),
            sampled: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; the layer is chosen when it closes.
    pub fn open(&mut self, name: &'static str, virt_us: u64, op: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            parent: self.stack.last().map_or(0, |o| o.id),
            name,
            start: Instant::now(),
            virt_start_us: virt_us,
            op,
            child_ns: 0,
        });
    }

    /// Closes the innermost span, attributing it to `layer`, and returns
    /// its host duration in ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open, which is a bug in the benchmark.
    pub fn close(&mut self, layer: Layer, virt_us: u64) -> u64 {
        let end = Instant::now();
        let o = self.stack.pop().expect("close matches an open span");
        let ns = end.duration_since(o.start).as_nanos() as u64;
        self.self_ns[layer.index()] += ns.saturating_sub(o.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
        if o.op.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.push(Span {
                id: o.id,
                parent: o.parent,
                layer,
                name: o.name,
                host_start_ns: o.start.duration_since(self.epoch).as_nanos() as u64,
                host_end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                virt_start_us: o.virt_start_us,
                virt_end_us: virt_us,
                op: o.op,
            });
        }
        ns
    }

    /// Adds one host duration to the samples behind metric key `key`.
    pub fn record(&mut self, key: &'static str, ns: u64) {
        self.host_ns.entry(key).or_default().push(ns);
    }

    /// The host durations recorded under `key`, ascending.
    pub fn sorted(&mut self, key: &str) -> &[u64] {
        match self.host_ns.get_mut(key) {
            Some(v) => {
                v.sort_unstable();
                v
            }
            None => &[],
        }
    }

    /// Self time of `layer`, ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// The sampled spans, in close order.
    pub fn into_sampled(self) -> Vec<Span> {
        self.sampled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.open("rep", 0, 0);
        t.open("load", 0, 1);
        let child = t.close(Layer::Kernel, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let parent = t.close(Layer::Bench, 0);
        assert_eq!(t.self_ns(Layer::Kernel), child);
        assert_eq!(t.self_ns(Layer::Bench), parent - child);
        assert!(t.self_ns(Layer::Bench) >= 2_000_000);
    }
}
