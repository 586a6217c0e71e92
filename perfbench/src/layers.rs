//! Outside-in instruments of the traced run.
//!
//! Nothing here reaches inside the simulator. Every number comes from a
//! public seam: spans the benchmark records around its own calls into the
//! layers, a [`TimedSf`] decorator installed through
//! `NetworkBuilder::scheduler_factory`, and a [`CountingTap`] installed
//! through `Network::set_frame_tap`.

use std::any::Any;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gtt_engine::{EbInfo, Payload, SchedulingFunction, SfContext};
use gtt_frame::{FrameType, FrameView};
use gtt_net::{FrameTap, NodeId, TapRecord};
use gtt_rpl::RplNode;
use gtt_sixtop::SixtopEvent;

/// The scheduling-function hooks, in the order of [`SfStats`]' arrays.
pub const HOOKS: [&str; 8] = [
    "init",
    "periodic",
    "on_eb",
    "eb_info",
    "on_sixtop_event",
    "dio_rx_free",
    "on_parent_changed",
    "on_dao",
];

/// Per-hook call counts and host nanoseconds, shared by every node's
/// [`TimedSf`]. The counters publish no other data, so `Relaxed` is
/// enough.
#[derive(Default)]
pub struct SfStats {
    calls: [AtomicU64; 8],
    ns: [AtomicU64; 8],
}

impl SfStats {
    fn record(&self, hook: usize, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls[hook].fetch_add(1, Ordering::Relaxed);
        self.ns[hook].fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls of each hook so far.
    pub fn calls(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.calls[i].load(Ordering::Relaxed))
    }

    /// Host nanoseconds spent in each hook so far.
    pub fn ns(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.ns[i].load(Ordering::Relaxed))
    }

    /// Host nanoseconds spent in all hooks so far.
    pub fn total_ns(&self) -> u64 {
        self.ns().iter().sum()
    }
}

/// Times every hook of the wrapped scheduling function. `name` and
/// `as_any` are forwarded, so reports and downcasts see the inner one.
pub struct TimedSf {
    inner: Box<dyn SchedulingFunction>,
    stats: Arc<SfStats>,
}

impl TimedSf {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn SchedulingFunction>, stats: Arc<SfStats>) -> Self {
        TimedSf { inner, stats }
    }
}

impl SchedulingFunction for TimedSf {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn init(&mut self, ctx: &mut SfContext<'_>) {
        let t = Instant::now();
        self.inner.init(ctx);
        self.stats.record(0, t);
    }

    fn periodic(&mut self, ctx: &mut SfContext<'_>) {
        let t = Instant::now();
        self.inner.periodic(ctx);
        self.stats.record(1, t);
    }

    fn on_eb(&mut self, ctx: &mut SfContext<'_>, src: NodeId, eb: &EbInfo) {
        let t = Instant::now();
        self.inner.on_eb(ctx, src, eb);
        self.stats.record(2, t);
    }

    fn eb_info(&self, mac: &gtt_mac::TschMac<Payload>, rpl: &RplNode) -> EbInfo {
        let t = Instant::now();
        let info = self.inner.eb_info(mac, rpl);
        self.stats.record(3, t);
        info
    }

    fn on_sixtop_event(&mut self, ctx: &mut SfContext<'_>, event: &SixtopEvent) {
        let t = Instant::now();
        self.inner.on_sixtop_event(ctx, event);
        self.stats.record(4, t);
    }

    fn dio_rx_free(&self, mac: &gtt_mac::TschMac<Payload>, rpl: &RplNode) -> u16 {
        let t = Instant::now();
        let free = self.inner.dio_rx_free(mac, rpl);
        self.stats.record(5, t);
        free
    }

    fn on_parent_changed(&mut self, ctx: &mut SfContext<'_>, old: Option<NodeId>, new: NodeId) {
        let t = Instant::now();
        self.inner.on_parent_changed(ctx, old, new);
        self.stats.record(6, t);
    }

    fn on_dao(&mut self, ctx: &mut SfContext<'_>, child: NodeId, no_path: bool) {
        let t = Instant::now();
        self.inner.on_dao(ctx, child, no_path);
        self.stats.record(7, t);
    }

    fn debug_summary(&self) -> String {
        self.inner.debug_summary()
    }
}

/// What a [`CountingTap`] saw on the medium.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TapCounts {
    /// Transmissions.
    pub tx: u64,
    /// Slots with at least one transmission.
    pub active_slots: u64,
    /// Unicast attempts.
    pub unicast: u64,
    /// Acknowledged unicast attempts.
    pub acked: u64,
    /// Encoded MPDU bytes.
    pub bytes: u64,
    /// Enhanced beacons.
    pub eb: u64,
    /// RPL DIOs.
    pub dio: u64,
    /// RPL DAOs.
    pub dao: u64,
    /// 6P messages.
    pub sixp: u64,
    /// Application data frames.
    pub data: u64,
    /// Frames that did not parse or carried an unknown payload tag.
    pub unparsed: u64,
}

impl TapCounts {
    fn add(&mut self, o: &TapCounts) {
        self.tx += o.tx;
        self.active_slots += o.active_slots;
        self.unicast += o.unicast;
        self.acked += o.acked;
        self.bytes += o.bytes;
        self.eb += o.eb;
        self.dio += o.dio;
        self.dao += o.dao;
        self.sixp += o.sixp;
        self.data += o.data;
        self.unparsed += o.unparsed;
    }
}

/// A frame tap that counts transmissions and classifies each frame by
/// parsing its wire bytes with [`FrameView`]. Counts are added to the
/// shared total when the tap is dropped (removed from the network).
pub struct CountingTap {
    counts: TapCounts,
    last_asn: Option<u64>,
    out: Arc<Mutex<TapCounts>>,
}

impl CountingTap {
    /// A tap adding into `out` when dropped.
    pub fn new(out: Arc<Mutex<TapCounts>>) -> Self {
        CountingTap {
            counts: TapCounts::default(),
            last_asn: None,
            out,
        }
    }
}

impl FrameTap for CountingTap {
    fn on_transmission(&mut self, r: &TapRecord<'_>) {
        let c = &mut self.counts;
        c.tx += 1;
        if self.last_asn != Some(r.asn) {
            c.active_slots += 1;
            self.last_asn = Some(r.asn);
        }
        if let Some(acked) = r.acked {
            c.unicast += 1;
            c.acked += u64::from(acked);
        }
        c.bytes += r.bytes.len() as u64;
        // Payload tags of `gtt_frame::WirePayload`.
        let kind = FrameView::parse(r.bytes)
            .ok()
            .and_then(|v| match v.fcf().frame_type {
                FrameType::Beacon => Some(&mut c.eb),
                FrameType::Data => match v.body().first() {
                    Some(0x01) => Some(&mut c.data),
                    Some(0x02) => Some(&mut c.dio),
                    Some(0x03) => Some(&mut c.dao),
                    Some(0x04) => Some(&mut c.sixp),
                    _ => None,
                },
                FrameType::Ack => None,
            });
        match kind {
            Some(n) => *n += 1,
            None => c.unparsed += 1,
        }
    }
}

impl Drop for CountingTap {
    fn drop(&mut self) {
        // A poisoned total only loses counts; never panic in drop.
        if let Ok(mut out) = self.out.lock() {
            out.add(&self.counts);
        }
    }
}

/// One timed interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The cell (experiment run) the span belongs to.
    pub cell: u32,
    /// Span name (`setup.network`, `engine.chunk`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Scheduling-function hook time inside the span (its aggregated
    /// children: hooks are too many to record one span each).
    pub hook_ns: u64,
}

impl Span {
    fn non_hook_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.hook_ns)
    }
}

/// An in-memory span recorder plus the shared hook and tap counters.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
    cell: u32,
    /// Hook statistics shared with every [`TimedSf`].
    pub sf: Arc<SfStats>,
    /// Totals of every dropped [`CountingTap`].
    pub tap: Arc<Mutex<TapCounts>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            sf: Arc::default(),
            tap: Arc::default(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Marks the start of a new cell; later spans carry its id.
    pub fn next_cell(&mut self) {
        self.cell += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let i = self.spans.len();
        self.spans.push(Span {
            cell: self.cell,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().map(|&(p, _)| p),
            hook_ns: 0,
        });
        self.open.push((i, self.sf.total_ns()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let (i, hooks_at_start) = self.open.pop().expect("exit matches an enter");
        let hook_ns = self.sf.total_ns() - hooks_at_start;
        let end = self.now_ns();
        let s = &mut self.spans[i];
        s.end_ns = end;
        s.hook_ns = hook_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Sum of the durations of spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Sum of the self times of spans named `name`, in ms. Self time is
    /// a span's duration minus what its child spans and the hook calls
    /// inside it cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.non_hook_ns() as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.non_hook_ns() as i128;
            }
        }
        let ns: i128 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &n)| n.max(0))
            .sum();
        ns as f64 / 1e6
    }

    /// Writes the spans as JSON lines tagged with `repeat`; `parent`
    /// indexes this tracer's spans of the same repeat.
    pub fn write_jsonl(&self, repeat: usize, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"repeat\":{repeat},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"hook_ns\":{}}}",
                s.cell, s.name, s.start_ns, s.end_ns, s.hook_ns
            )?;
        }
        Ok(())
    }
}
