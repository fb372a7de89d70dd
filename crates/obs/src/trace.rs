//! Cross-rank flight recorder and critical-path profiler.
//!
//! Per-rank span trees ([`crate::span`]) answer "where did *this* rank spend
//! its step", but the paper's scaling losses (Tables 3–4) live *between*
//! ranks: whichever rank bounds the step drags everyone else through the
//! next barrier, and only the communication it failed to hide is real cost.
//! This module resolves that:
//!
//! * **Flight recorder** — a bounded per-thread (= per-rank under `mpisim`)
//!   ring buffer of timestamped [`TraceEvent`]s: span intervals (recorded by
//!   [`crate::span::SpanGuard`] whenever a recorder is installed), message
//!   edges (`send` instants and `recv` blocking windows, hooked into the
//!   `mpisim` runtime) and barrier waits. One [`RankStepTrace`] per rank per
//!   step, serialised to one JSONL line next to the [`crate::StepEvent`]
//!   stream.
//! * **Stitcher** — [`TraceSet`] collects the per-rank lines and
//!   [`TraceSet::stitch`] matches every recv edge to its send by
//!   `(src, dst, tag)` FIFO order (the runtime's non-overtaking guarantee
//!   makes the k-th send the k-th recv; the PR 5 tag audit keeps user
//!   triples unique anyway), producing a [`StepDag`] whose happens-before
//!   relation is provably acyclic ([`StepDag::check_acyclic`]).
//! * **Critical path** — [`StepDag::critical_path`] walks backward from the
//!   step's last event, jumping from a blocked receive to its sender and
//!   from a barrier to the last rank entering it. The resulting
//!   [`CriticalPath`] tiles the step's wall-clock with attributed segments:
//!   compute (innermost covering span), exposed communication, barrier
//!   waits, and the late entry of a rank still finishing the previous step. [`TraceReport`] aggregates steps into per-rank slack, bucket /
//!   span shares on the path and a span × rank blame ranking.
//! * **Perfetto export** — [`TraceSet::chrome_trace`] emits Chrome
//!   trace-event JSON (complete events per span, flow arrows per message)
//!   loadable in `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Timestamps are seconds since a process-wide epoch ([`epoch_now`]). Under
//! `mpisim` every rank is a thread of one process, so one monotonic clock
//! orders all ranks exactly — no skew correction is needed, and a recv's
//! completion is always at or after its send's post.

use crate::json::Json;
use crate::span::{Bucket, BucketTotals};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Seconds since the process-wide trace epoch (the first call wins the
/// origin). Monotonic and shared by every rank thread, so cross-rank
/// timestamps are directly comparable.
pub fn epoch_now() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What one trace event records.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A closed span interval (same timing as the span-tree entry).
    Span {
        /// Dotted span name, e.g. `"comm.exposed"`.
        name: String,
        /// Bucket the span's self time folds into.
        bucket: Bucket,
    },
    /// A message post: instantaneous on the sender (`t0 == t1`).
    Send {
        /// Destination rank.
        peer: usize,
        /// Message tag (collective tags are `>= 2^62`).
        tag: u64,
        /// Payload wire size.
        bytes: u64,
    },
    /// A message receive: the interval is the receiver's blocking window,
    /// from entering the receive to returning with the payload.
    Recv {
        /// Source rank.
        peer: usize,
        /// Message tag.
        tag: u64,
        /// Payload wire size.
        bytes: u64,
    },
    /// A barrier wait, from entering to being released.
    Barrier,
}

/// One timestamped event on one rank. `t0 <= t1`, seconds since the epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Interval start (equals `t1` for instantaneous events).
    pub t0: f64,
    /// Interval end; also the instant the event was recorded.
    pub t1: f64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// One rank's drained trace for one step; serialises to one JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStepTrace {
    /// Step index the events belong to.
    pub step: u64,
    /// Recording rank.
    pub rank: usize,
    /// Events evicted by the ring buffer since the last drain (0 means the
    /// capacity was sufficient and the trace is complete).
    pub dropped: u64,
    /// Events in recording order (non-decreasing `t1`).
    pub events: Vec<TraceEvent>,
}

fn event_to_json(ev: &TraceEvent) -> Json {
    // Compact array encoding, one row per event; tags ride as strings
    // because collective tags (>= 2^62) exceed f64's exact-integer range.
    match &ev.kind {
        TraceEventKind::Span { name, bucket } => Json::Arr(vec![
            Json::str("sp"),
            Json::num(ev.t0),
            Json::num(ev.t1),
            Json::str(name.clone()),
            Json::str(bucket.label()),
        ]),
        TraceEventKind::Send { peer, tag, bytes } => Json::Arr(vec![
            Json::str("tx"),
            Json::num(ev.t0),
            Json::num_u64(*peer as u64),
            Json::str(tag.to_string()),
            Json::num_u64(*bytes),
        ]),
        TraceEventKind::Recv { peer, tag, bytes } => Json::Arr(vec![
            Json::str("rx"),
            Json::num(ev.t0),
            Json::num(ev.t1),
            Json::num_u64(*peer as u64),
            Json::str(tag.to_string()),
            Json::num_u64(*bytes),
        ]),
        TraceEventKind::Barrier => {
            Json::Arr(vec![Json::str("br"), Json::num(ev.t0), Json::num(ev.t1)])
        }
    }
}

fn event_from_json(v: &Json) -> Result<TraceEvent, String> {
    let row = v.as_arr().ok_or("trace event is not an array")?;
    let field = |i: usize| -> Result<&Json, String> {
        row.get(i)
            .ok_or_else(|| format!("trace event row too short at {i}"))
    };
    let num = |i: usize| -> Result<f64, String> {
        field(i)?
            .as_f64()
            .ok_or_else(|| format!("trace event field {i} is not a number"))
    };
    let tag_at = |i: usize| -> Result<u64, String> {
        field(i)?
            .as_str()
            .ok_or("trace tag is not a string")?
            .parse::<u64>()
            .map_err(|e| format!("trace tag does not parse: {e}"))
    };
    match field(0)?.as_str() {
        Some("sp") => Ok(TraceEvent {
            t0: num(1)?,
            t1: num(2)?,
            kind: TraceEventKind::Span {
                name: field(3)?.as_str().ok_or("span name missing")?.to_string(),
                bucket: Bucket::from_label(field(4)?.as_str().unwrap_or("other")),
            },
        }),
        Some("tx") => {
            let t = num(1)?;
            Ok(TraceEvent {
                t0: t,
                t1: t,
                kind: TraceEventKind::Send {
                    peer: field(2)?.as_u64().ok_or("send peer missing")? as usize,
                    tag: tag_at(3)?,
                    bytes: field(4)?.as_u64().ok_or("send bytes missing")?,
                },
            })
        }
        Some("rx") => Ok(TraceEvent {
            t0: num(1)?,
            t1: num(2)?,
            kind: TraceEventKind::Recv {
                peer: field(3)?.as_u64().ok_or("recv peer missing")? as usize,
                tag: tag_at(4)?,
                bytes: field(5)?.as_u64().ok_or("recv bytes missing")?,
            },
        }),
        Some("br") => Ok(TraceEvent {
            t0: num(1)?,
            t1: num(2)?,
            kind: TraceEventKind::Barrier,
        }),
        other => Err(format!("unknown trace event kind {other:?}")),
    }
}

impl RankStepTrace {
    /// Encode as a single JSON document tagged `"kind": "trace"` so trace
    /// lines and [`crate::StepEvent`] lines can share one JSONL stream.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str("trace")),
            ("step", Json::num_u64(self.step)),
            ("rank", Json::num_u64(self.rank as u64)),
            ("dropped", Json::num_u64(self.dropped)),
            (
                "events",
                Json::Arr(self.events.iter().map(event_to_json).collect()),
            ),
        ])
    }

    /// Serialise to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parse a line produced by [`RankStepTrace::to_jsonl`]. Errors on
    /// malformed input *and* on non-trace lines (callers that interleave
    /// record kinds should test with [`RankStepTrace::is_trace_json`]).
    pub fn parse(line: &str) -> Result<RankStepTrace, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }

    /// Decode from an already-parsed JSON document.
    pub fn from_json(v: &Json) -> Result<RankStepTrace, String> {
        if !Self::is_trace_json(v) {
            return Err("not a trace record (kind != \"trace\")".to_string());
        }
        Ok(RankStepTrace {
            step: v.get("step").as_u64().ok_or("trace missing step")?,
            rank: v.get("rank").as_u64().ok_or("trace missing rank")? as usize,
            dropped: v.get("dropped").as_u64().unwrap_or(0),
            events: v
                .get("events")
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .map(event_from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Does this parsed JSONL document carry a trace record?
    pub fn is_trace_json(v: &Json) -> bool {
        v.get("kind").as_str() == Some("trace")
    }
}

// ---------------------------------------------------------------------------
// Recorder (per-thread ring buffer)
// ---------------------------------------------------------------------------

struct Recorder {
    step: u64,
    capacity: usize,
    dropped: u64,
    events: VecDeque<TraceEvent>,
}

impl Recorder {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install a flight recorder on the current thread (= the current rank under
/// `mpisim`) with a ring buffer of `capacity` events. Until [`disable`] is
/// called — or the thread exits — span guards and the `mpisim` runtime
/// record into it. Replaces any recorder already installed.
pub fn enable(capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            step: 0,
            capacity: capacity.max(1),
            dropped: 0,
            events: VecDeque::with_capacity(capacity.clamp(1, 1 << 16)),
        });
    });
}

/// Uninstall the current thread's recorder, discarding undrained events.
pub fn disable() {
    RECORDER.with(|r| *r.borrow_mut() = None);
}

/// Is a recorder installed on this thread? One thread-local read — cheap
/// enough for hot paths (the same discipline as [`crate::span::StepScope`]).
pub fn is_active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Tag subsequently recorded events with `step`. Events recorded between
/// steps (e.g. a checkpoint after the step scope closed) ride with whichever
/// step is drained next.
pub fn begin_step(step: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.step = step;
        }
    });
}

/// Take everything recorded since the last drain as one [`RankStepTrace`]
/// (the recorder stays installed). `None` when no recorder is active.
pub fn drain(rank: usize) -> Option<RankStepTrace> {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let rec = slot.as_mut()?;
        let out = RankStepTrace {
            step: rec.step,
            rank,
            dropped: std::mem::take(&mut rec.dropped),
            events: rec.events.drain(..).collect(),
        };
        Some(out)
    })
}

fn push(ev: TraceEvent) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.push(ev);
        }
    });
}

/// Record a closed span of `elapsed` seconds ending now. Called by
/// [`crate::span::SpanGuard`] on drop, with the *same* elapsed value that
/// enters the span tree — trace span durations and tree durations agree
/// exactly, which is what lets the profiler's exposed-comm figure be
/// cross-checked against [`crate::RunReport::comm_overlap`].
pub fn note_span(name: &str, bucket: Bucket, elapsed: f64) {
    if !is_active() {
        return;
    }
    let t1 = epoch_now();
    push(TraceEvent {
        t0: (t1 - elapsed).max(0.0),
        t1,
        kind: TraceEventKind::Span {
            name: name.to_string(),
            bucket,
        },
    });
}

/// Record a message post to `peer`. The caller must invoke this *before*
/// enqueueing the message, so a matching receive's completion can never
/// carry an earlier timestamp than its send (the happens-before edge the
/// stitcher relies on).
pub fn note_send(peer: usize, tag: u64, bytes: u64) {
    if !is_active() {
        return;
    }
    let t = epoch_now();
    push(TraceEvent {
        t0: t,
        t1: t,
        kind: TraceEventKind::Send { peer, tag, bytes },
    });
}

/// Timestamp for the start of a blocking window — `Some(now)` only when a
/// recorder is active, so the disabled path pays one thread-local read and
/// no clock call.
pub fn interval_start() -> Option<f64> {
    is_active().then(epoch_now)
}

/// Record a completed receive from `peer` whose blocking window began at
/// `t0` (from [`interval_start`]).
pub fn note_recv(t0: f64, peer: usize, tag: u64, bytes: u64) {
    if !is_active() {
        return;
    }
    let t1 = epoch_now().max(t0);
    push(TraceEvent {
        t0,
        t1,
        kind: TraceEventKind::Recv { peer, tag, bytes },
    });
}

/// Record a barrier wait that began at `t0` (from [`interval_start`]).
pub fn note_barrier(t0: f64) {
    if !is_active() {
        return;
    }
    let t1 = epoch_now().max(t0);
    push(TraceEvent {
        t0,
        t1,
        kind: TraceEventKind::Barrier,
    });
}

// ---------------------------------------------------------------------------
// TraceSet: collected lines, per step per rank
// ---------------------------------------------------------------------------

/// A run's collected [`RankStepTrace`]s, indexed by step then rank.
#[derive(Debug, Default)]
pub struct TraceSet {
    by_step: BTreeMap<u64, BTreeMap<usize, RankStepTrace>>,
}

impl TraceSet {
    /// New empty set.
    pub fn new() -> TraceSet {
        TraceSet::default()
    }

    /// Add one drained trace. A second trace for the same `(step, rank)`
    /// appends its events (and drop count) to the first.
    pub fn add(&mut self, trace: RankStepTrace) {
        let ranks = self.by_step.entry(trace.step).or_default();
        match ranks.entry(trace.rank) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(trace);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let existing = e.get_mut();
                existing.dropped += trace.dropped;
                existing.events.extend(trace.events);
            }
        }
    }

    /// Feed one JSONL line. Returns `Ok(true)` when the line was a trace
    /// record, `Ok(false)` when it was valid JSON of another kind (e.g. a
    /// [`crate::StepEvent`] line sharing the stream), `Err` on malformed
    /// input.
    pub fn add_jsonl_line(&mut self, line: &str) -> Result<bool, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        if !RankStepTrace::is_trace_json(&v) {
            return Ok(false);
        }
        self.add(RankStepTrace::from_json(&v)?);
        Ok(true)
    }

    /// Step indices present, ascending.
    pub fn steps(&self) -> Vec<u64> {
        self.by_step.keys().copied().collect()
    }

    /// Number of `(step, rank)` traces held.
    pub fn len(&self) -> usize {
        self.by_step.values().map(BTreeMap::len).sum()
    }

    /// True when nothing was added.
    pub fn is_empty(&self) -> bool {
        self.by_step.is_empty()
    }

    /// Events evicted by ring buffers, summed over every trace. Non-zero
    /// means the recorder capacity was too small for a full step and the
    /// analysis below is on an incomplete timeline.
    pub fn total_dropped(&self) -> u64 {
        self.by_step
            .values()
            .flat_map(|ranks| ranks.values())
            .map(|t| t.dropped)
            .sum()
    }

    /// Sum of span durations with `name`, across every rank and step.
    /// `span_seconds("comm.exposed")` is the figure to cross-check against
    /// [`crate::RunReport::comm_overlap`].
    pub fn span_seconds(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for ranks in self.by_step.values() {
            for trace in ranks.values() {
                for ev in &trace.events {
                    if let TraceEventKind::Span { name: n, .. } = &ev.kind {
                        if n == name {
                            total += ev.t1 - ev.t0;
                        }
                    }
                }
            }
        }
        total
    }

    /// Stitch one step's per-rank timelines into a cross-rank
    /// happens-before DAG. `None` when the step is absent.
    pub fn stitch(&self, step: u64) -> Option<StepDag> {
        let ranks = self.by_step.get(&step)?;
        Some(StepDag::build(step, ranks))
    }

    /// Export every step as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object format), loadable in Perfetto or
    /// `chrome://tracing`. Spans become complete (`"X"`) events on
    /// `tid = rank`; matched messages become flow arrows (`"s"`/`"f"`);
    /// receive and barrier waits render as their own `comm` slices.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<Json> = Vec::new();
        let mut seen_ranks: BTreeMap<usize, ()> = BTreeMap::new();
        let us = 1e6;
        let mut flow_id = 0u64;
        for (&step, ranks) in &self.by_step {
            for (&rank, trace) in ranks {
                seen_ranks.entry(rank).or_insert(());
                for ev in &trace.events {
                    let (name, cat) = match &ev.kind {
                        TraceEventKind::Span { name, bucket } => {
                            (name.clone(), bucket.label().to_string())
                        }
                        TraceEventKind::Recv { peer, .. } => {
                            (format!("recv<-{peer}"), "comm".to_string())
                        }
                        TraceEventKind::Barrier => ("barrier".to_string(), "comm".to_string()),
                        TraceEventKind::Send { .. } => continue, // rendered as flows below
                    };
                    events.push(Json::obj([
                        ("ph", Json::str("X")),
                        ("name", Json::str(name)),
                        ("cat", Json::str(cat)),
                        ("pid", Json::num_u64(0)),
                        ("tid", Json::num_u64(rank as u64)),
                        ("ts", Json::num(ev.t0 * us)),
                        ("dur", Json::num((ev.t1 - ev.t0) * us)),
                        ("args", Json::obj([("step", Json::num_u64(step))])),
                    ]));
                }
            }
            // Message flows need both endpoints; reuse the stitcher.
            let dag = StepDag::build(step, ranks);
            for m in &dag.matches {
                flow_id += 1;
                let args = Json::obj([
                    ("tag", Json::str(m.tag.to_string())),
                    ("bytes", Json::num_u64(m.bytes)),
                ]);
                events.push(Json::obj([
                    ("ph", Json::str("s")),
                    ("name", Json::str("msg")),
                    ("cat", Json::str("comm")),
                    ("id", Json::num_u64(flow_id)),
                    ("pid", Json::num_u64(0)),
                    ("tid", Json::num_u64(m.src as u64)),
                    ("ts", Json::num(m.send_t * us)),
                    ("args", args.clone()),
                ]));
                events.push(Json::obj([
                    ("ph", Json::str("f")),
                    ("bp", Json::str("e")),
                    ("name", Json::str("msg")),
                    ("cat", Json::str("comm")),
                    ("id", Json::num_u64(flow_id)),
                    ("pid", Json::num_u64(0)),
                    ("tid", Json::num_u64(m.dst as u64)),
                    ("ts", Json::num(m.recv_t1 * us)),
                    ("args", args),
                ]));
            }
        }
        // Name the rank rows.
        for (&rank, ()) in &seen_ranks {
            events.push(Json::obj([
                ("ph", Json::str("M")),
                ("name", Json::str("thread_name")),
                ("pid", Json::num_u64(0)),
                ("tid", Json::num_u64(rank as u64)),
                (
                    "args",
                    Json::obj([("name", Json::str(format!("rank {rank}")))]),
                ),
            ]));
        }
        Json::obj([("traceEvents", Json::Arr(events))]).to_string_compact()
    }
}

// ---------------------------------------------------------------------------
// Stitched step: matched edges + happens-before DAG
// ---------------------------------------------------------------------------

/// One send edge paired with its receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageMatch {
    /// Sending rank.
    pub src: usize,
    /// Index of the send event in `src`'s timeline.
    pub send_idx: usize,
    /// Post time of the send.
    pub send_t: f64,
    /// Receiving rank.
    pub dst: usize,
    /// Index of the recv event in `dst`'s timeline.
    pub recv_idx: usize,
    /// Completion time of the receive.
    pub recv_t1: f64,
    /// Message tag.
    pub tag: u64,
    /// Payload wire size.
    pub bytes: u64,
}

/// One step's stitched cross-rank view: per-rank timelines (sorted by event
/// end time), the send↔recv matching, and the derived happens-before DAG.
#[derive(Debug)]
pub struct StepDag {
    /// Step index.
    pub step: u64,
    /// Per-rank event timelines, sorted by `(t1, t0)`.
    pub ranks: BTreeMap<usize, Vec<TraceEvent>>,
    /// Matched message edges.
    pub matches: Vec<MessageMatch>,
    /// Send events with no matching receive in this step's traces (a
    /// message received in a later drain window, or dropped by the ring).
    pub unmatched_sends: usize,
    /// Receive events with no matching send in this step's traces.
    pub unmatched_recvs: usize,
}

impl StepDag {
    fn build(step: u64, ranks: &BTreeMap<usize, RankStepTrace>) -> StepDag {
        let mut timelines: BTreeMap<usize, Vec<TraceEvent>> = BTreeMap::new();
        for (&rank, trace) in ranks {
            let mut evs = trace.events.clone();
            evs.sort_by(|a, b| {
                (a.t1, a.t0)
                    .partial_cmp(&(b.t1, b.t0))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            timelines.insert(rank, evs);
        }

        // FIFO matching per (src, dst, tag): the runtime preserves order per
        // (source, tag) queue, so the k-th send on a key completes the k-th
        // recv on the same key.
        type Key = (usize, usize, u64);
        let mut sends: HashMap<Key, VecDeque<(usize, f64)>> = HashMap::new();
        for (&rank, evs) in &timelines {
            for (idx, ev) in evs.iter().enumerate() {
                if let TraceEventKind::Send { peer, tag, .. } = ev.kind {
                    sends
                        .entry((rank, peer, tag))
                        .or_default()
                        .push_back((idx, ev.t0));
                }
            }
        }
        let total_sends: usize = sends.values().map(VecDeque::len).sum();
        let mut matches = Vec::new();
        let mut unmatched_recvs = 0usize;
        for (&rank, evs) in &timelines {
            for (idx, ev) in evs.iter().enumerate() {
                if let TraceEventKind::Recv { peer, tag, bytes } = ev.kind {
                    match sends
                        .get_mut(&(peer, rank, tag))
                        .and_then(VecDeque::pop_front)
                    {
                        Some((send_idx, send_t)) => matches.push(MessageMatch {
                            src: peer,
                            send_idx,
                            send_t,
                            dst: rank,
                            recv_idx: idx,
                            recv_t1: ev.t1,
                            tag,
                            bytes,
                        }),
                        None => unmatched_recvs += 1,
                    }
                }
            }
        }
        let unmatched_sends = total_sends - matches.len();
        StepDag {
            step,
            ranks: timelines,
            matches,
            unmatched_sends,
            unmatched_recvs,
        }
    }

    /// Earliest event start across all ranks (`None` for an empty step).
    pub fn t_start(&self) -> Option<f64> {
        self.ranks
            .values()
            .flat_map(|evs| evs.iter().map(|e| e.t0))
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Latest event end across all ranks.
    pub fn t_end(&self) -> Option<f64> {
        self.ranks
            .values()
            .flat_map(|evs| evs.iter().map(|e| e.t1))
            .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The step's wall-clock as the trace saw it: latest end − earliest
    /// start, 0.0 for an empty step.
    pub fn wall(&self) -> f64 {
        match (self.t_start(), self.t_end()) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => 0.0,
        }
    }

    /// Group barrier events across ranks by occurrence index: the k-th
    /// barrier on every rank is the same synchronisation point (barriers are
    /// collective and every rank passes them in the same order). Returns,
    /// per occurrence, `(rank, enter time, exit time)` tuples.
    fn barrier_groups(&self) -> Vec<Vec<(usize, f64, f64)>> {
        let mut groups: Vec<Vec<(usize, f64, f64)>> = Vec::new();
        for (&rank, evs) in &self.ranks {
            let mut k = 0usize;
            for ev in evs {
                if matches!(ev.kind, TraceEventKind::Barrier) {
                    if groups.len() <= k {
                        groups.push(Vec::new());
                    }
                    groups[k].push((rank, ev.t0, ev.t1));
                    k += 1;
                }
            }
        }
        groups
    }

    /// Verify the stitched happens-before relation is a DAG via topological
    /// sort. Nodes are event start/end points plus one hub per barrier
    /// occurrence; edges are per-rank program order, `start → end` within
    /// each event, matched `send → recv-end` message edges, and
    /// `enter → hub → exit` for barriers. Returns the node count on
    /// success and the description of a cycle participant on failure.
    pub fn check_acyclic(&self) -> Result<usize, String> {
        // Node ids: per (rank, event) two nodes (start = 2i, end = 2i+1) in
        // a per-rank block, then one hub node per barrier occurrence.
        let rank_ids: Vec<usize> = self.ranks.keys().copied().collect();
        let mut base: HashMap<usize, usize> = HashMap::new();
        let mut next = 0usize;
        for &r in &rank_ids {
            base.insert(r, next);
            next += 2 * self.ranks[&r].len();
        }
        let barrier_groups = self.barrier_groups();
        let hub_base = next;
        next += barrier_groups.len();
        let n_nodes = next;

        let node = |rank: usize, idx: usize, end: bool| base[&rank] + 2 * idx + usize::from(end);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
        let mut indeg = vec![0usize; n_nodes];
        let edge = |a: usize, b: usize, adj: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>| {
            adj[a].push(b);
            indeg[b] += 1;
        };

        for (&rank, evs) in &self.ranks {
            let mut k = 0usize; // barrier occurrence counter on this rank
            for (idx, ev) in evs.iter().enumerate() {
                edge(
                    node(rank, idx, false),
                    node(rank, idx, true),
                    &mut adj,
                    &mut indeg,
                );
                if idx + 1 < evs.len() {
                    edge(
                        node(rank, idx, true),
                        node(rank, idx + 1, false),
                        &mut adj,
                        &mut indeg,
                    );
                }
                if matches!(ev.kind, TraceEventKind::Barrier) {
                    edge(node(rank, idx, false), hub_base + k, &mut adj, &mut indeg);
                    edge(hub_base + k, node(rank, idx, true), &mut adj, &mut indeg);
                    k += 1;
                }
            }
        }
        for m in &self.matches {
            edge(
                node(m.src, m.send_idx, true),
                node(m.dst, m.recv_idx, true),
                &mut adj,
                &mut indeg,
            );
        }

        // Kahn's algorithm.
        let mut queue: VecDeque<usize> = (0..n_nodes).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(u) = queue.pop_front() {
            visited += 1;
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        if visited == n_nodes {
            Ok(n_nodes)
        } else {
            Err(format!(
                "happens-before relation has a cycle: {} of {} nodes unreachable by topological sort",
                n_nodes - visited,
                n_nodes
            ))
        }
    }

    /// Seconds each rank spent blocked this step — receive windows that
    /// actually waited on an in-flight message plus barrier waits. The
    /// complement of a rank's slack is the pressure it puts on the critical
    /// path: the rank with the least slack is (usually) the rank on it.
    pub fn rank_slack(&self) -> BTreeMap<usize, f64> {
        let mut slack: BTreeMap<usize, f64> = self.ranks.keys().map(|&r| (r, 0.0)).collect();
        for m in &self.matches {
            if let Some(evs) = self.ranks.get(&m.dst) {
                let w = &evs[m.recv_idx];
                // Blocked only from the later of "entered recv" and "message
                // was sent": a message already waiting costs no slack.
                let blocked = (w.t1 - w.t0.max(m.send_t)).max(0.0);
                if m.send_t > w.t0 {
                    *slack.entry(m.dst).or_insert(0.0) += blocked;
                }
            }
        }
        for group in self.barrier_groups() {
            for &(rank, enter, exit) in &group {
                *slack.entry(rank).or_insert(0.0) += (exit - enter).max(0.0);
            }
        }
        slack
    }

    /// Extract the critical path: the chain of compute segments, exposed
    /// message waits and barrier handoffs that bounds the step's wall-clock.
    ///
    /// The walk starts at the globally last event and goes backward. On a
    /// rank it consumes compute time (attributed to the innermost covering
    /// span); at a receive whose matched send was posted *after* the receive
    /// began — i.e. the rank genuinely waited — it records the exposed
    /// window and jumps to the sender at the send's post time; at a barrier
    /// it jumps to the last rank entering. Receives whose message was
    /// already waiting cost nothing and stay on-rank. Where the walk ends on
    /// a rank whose trace opens after the step's earliest event, the gap is
    /// a [`SegmentKind::LateEntry`]: a step's trace runs from one drain to
    /// the next, so that rank was still in the previous step while the
    /// others had begun this one. By construction the returned segments
    /// tile the step's span, so [`CriticalPath::length`] ≈
    /// [`StepDag::wall`].
    pub fn critical_path(&self) -> CriticalPath {
        let mut path = CriticalPath {
            step: self.step,
            t_start: self.t_start().unwrap_or(0.0),
            t_end: self.t_end().unwrap_or(0.0),
            segments: Vec::new(),
        };
        if self.ranks.is_empty() {
            return path;
        }
        // Matched send lookup for recvs: (dst, recv_idx) -> (src, send_t).
        let send_of: HashMap<(usize, usize), (usize, f64)> = self
            .matches
            .iter()
            .map(|m| ((m.dst, m.recv_idx), (m.src, m.send_t)))
            .collect();
        let barrier_groups = self.barrier_groups();
        // Occurrence index of each barrier event: (rank, idx) -> k.
        let mut barrier_k: HashMap<(usize, usize), usize> = HashMap::new();
        for (&rank, evs) in &self.ranks {
            let mut k = 0usize;
            for (idx, ev) in evs.iter().enumerate() {
                if matches!(ev.kind, TraceEventKind::Barrier) {
                    barrier_k.insert((rank, idx), k);
                    k += 1;
                }
            }
        }

        // Start on the rank owning the globally last event.
        let (mut rank, mut cur) = self
            .ranks
            .iter()
            .map(|(&r, evs)| (r, evs.last().map_or(f64::NEG_INFINITY, |e| e.t1)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("ranks non-empty");

        let mut segments = Vec::new();
        // Hard bound on walk length: each jump strictly decreases `cur`, but
        // a defect in the trace must degrade to truncation, not a hang.
        for _ in 0..1_000_000 {
            let evs = &self.ranks[&rank];
            let mut jump: Option<(usize, f64, PathSegment, f64)> = None;
            for (idx, ev) in evs.iter().enumerate().rev() {
                if ev.t1 > cur {
                    continue;
                }
                match ev.kind {
                    TraceEventKind::Recv { .. } => {
                        if let Some(&(src, send_t)) = send_of.get(&(rank, idx)) {
                            if send_t > ev.t0 && src != rank && send_t < cur {
                                let seg = PathSegment {
                                    rank,
                                    t0: send_t,
                                    t1: ev.t1,
                                    kind: SegmentKind::ExposedComm { from: src },
                                };
                                jump = Some((src, send_t, seg, ev.t1));
                                break;
                            }
                        }
                    }
                    TraceEventKind::Barrier => {
                        if let Some(&k) = barrier_k.get(&(rank, idx)) {
                            if let Some((last_rank, last_t0)) = barrier_groups
                                .get(k)
                                .and_then(|g| {
                                    g.iter().max_by(|a, b| {
                                        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
                                    })
                                })
                                .map(|&(r, t0, _)| (r, t0))
                            {
                                if last_rank != rank && last_t0 > ev.t0 && last_t0 < cur {
                                    let seg = PathSegment {
                                        rank,
                                        t0: last_t0,
                                        t1: ev.t1,
                                        kind: SegmentKind::BarrierWait { from: last_rank },
                                    };
                                    jump = Some((last_rank, last_t0, seg, ev.t1));
                                    break;
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            match jump {
                Some((next_rank, next_cur, wait_seg, wait_end)) => {
                    attribute_compute(evs, rank, wait_end, cur, &mut segments);
                    segments.push(wait_seg);
                    rank = next_rank;
                    cur = next_cur;
                }
                None => {
                    // No causal jump left: compute back to this rank's start.
                    let rank_begin = evs
                        .iter()
                        .map(|e| e.t0)
                        .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                        .unwrap_or(cur);
                    let entry = rank_begin.min(cur);
                    attribute_compute(evs, rank, entry, cur, &mut segments);
                    if entry > path.t_start {
                        segments.push(PathSegment {
                            rank,
                            t0: path.t_start,
                            t1: entry,
                            kind: SegmentKind::LateEntry,
                        });
                    }
                    break;
                }
            }
        }
        segments.reverse();
        path.segments = segments;
        path
    }
}

/// Attribute the compute interval `[a, b]` on `rank` to spans: split at span
/// boundaries and charge each elementary interval to the innermost
/// (shortest) span covering its midpoint; uncovered time is `(untracked)`.
/// Segments are pushed in *backward* order (the caller reverses).
fn attribute_compute(
    evs: &[TraceEvent],
    rank: usize,
    a: f64,
    b: f64,
    segments: &mut Vec<PathSegment>,
) {
    if b - a <= 0.0 {
        return;
    }
    let spans: Vec<(&str, Bucket, f64, f64)> = evs
        .iter()
        .filter_map(|ev| match &ev.kind {
            TraceEventKind::Span { name, bucket } if ev.t1 > a && ev.t0 < b => {
                Some((name.as_str(), *bucket, ev.t0, ev.t1))
            }
            _ => None,
        })
        .collect();
    let mut cuts: Vec<f64> = vec![a, b];
    for &(_, _, t0, t1) in &spans {
        if t0 > a && t0 < b {
            cuts.push(t0);
        }
        if t1 > a && t1 < b {
            cuts.push(t1);
        }
    }
    cuts.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    cuts.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
    // Backward order so the whole path stays reverse-chronological until the
    // caller's final reverse.
    for w in cuts.windows(2).rev() {
        let (x, y) = (w[0], w[1]);
        if y - x <= 0.0 {
            continue;
        }
        let mid = 0.5 * (x + y);
        let innermost = spans
            .iter()
            .filter(|&&(_, _, t0, t1)| t0 <= mid && mid < t1)
            .min_by(|p, q| {
                (p.3 - p.2)
                    .partial_cmp(&(q.3 - q.2))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        let kind = match innermost {
            Some(&(name, bucket, _, _)) => SegmentKind::Compute {
                name: name.to_string(),
                bucket,
            },
            None => SegmentKind::Compute {
                name: "(untracked)".to_string(),
                bucket: Bucket::Other,
            },
        };
        // Merge with the previously pushed (chronologically later) segment
        // when it is the same span on the same rank and abuts this one.
        if let Some(last) = segments.last_mut() {
            if last.rank == rank && (last.t0 - y).abs() < 1e-12 && last.kind == kind {
                last.t0 = x;
                continue;
            }
        }
        segments.push(PathSegment {
            rank,
            t0: x,
            t1: y,
            kind,
        });
    }
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

/// What one critical-path segment was doing.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentKind {
    /// On-rank compute attributed to the innermost covering span
    /// (`"(untracked)"` when no span covered the interval).
    Compute {
        /// Covering span name.
        name: String,
        /// The span's bucket.
        bucket: Bucket,
    },
    /// Waiting on a message still in flight — *exposed* communication.
    ExposedComm {
        /// The sending rank the path jumps to.
        from: usize,
    },
    /// Waiting at a barrier for the last-entering rank.
    BarrierWait {
        /// The rank whose late arrival released the barrier.
        from: usize,
    },
    /// The path's rank had not yet entered this step's trace: it was still
    /// finishing the previous step, whose trace it drained after the step's
    /// earliest event on another rank.
    LateEntry,
}

/// One attributed interval on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Rank the path ran on during this interval.
    pub rank: usize,
    /// Interval start (epoch seconds).
    pub t0: f64,
    /// Interval end.
    pub t1: f64,
    /// Attribution.
    pub kind: SegmentKind,
}

impl PathSegment {
    /// Segment duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.t1 - self.t0).max(0.0)
    }
}

/// The extracted critical path of one step, in chronological order.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Step index.
    pub step: u64,
    /// Earliest event start of the step (path origin reference).
    pub t_start: f64,
    /// Latest event end of the step (where the walk began).
    pub t_end: f64,
    /// Tiling segments, earliest first.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// Total path length — the sum of all segment durations. Reconstructs
    /// the step wall-clock ([`CriticalPath::wall`]) to within the tracing
    /// slop (the acceptance bar is 5%).
    pub fn length(&self) -> f64 {
        self.segments.iter().map(PathSegment::secs).sum()
    }

    /// Step wall-clock as seen by the trace: `t_end - t_start`.
    pub fn wall(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }

    /// `length() / wall()` — 1.0 when the path tiles the step exactly.
    pub fn coverage(&self) -> f64 {
        let w = self.wall();
        if w > 0.0 {
            self.length() / w
        } else {
            0.0
        }
    }

    /// Seconds of exposed (waited-on) communication on the path.
    pub fn exposed_comm(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::ExposedComm { .. }))
            .map(PathSegment::secs)
            .sum()
    }

    /// Seconds of barrier handoff on the path.
    pub fn barrier_wait(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::BarrierWait { .. }))
            .map(PathSegment::secs)
            .sum()
    }

    /// Seconds on the path before its first rank entered the step.
    pub fn late_entry(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::LateEntry))
            .map(PathSegment::secs)
            .sum()
    }

    /// Compute seconds on the path folded by bucket.
    pub fn by_bucket(&self) -> BucketTotals {
        let mut totals = BucketTotals::default();
        for s in &self.segments {
            if let SegmentKind::Compute { bucket, .. } = s.kind {
                totals.add(bucket, s.secs());
            }
        }
        totals
    }

    /// Compute seconds on the path per span name, descending.
    pub fn by_span(&self) -> Vec<(String, f64)> {
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &self.segments {
            if let SegmentKind::Compute { name, .. } = &s.kind {
                *by_name.entry(name.as_str()).or_insert(0.0) += s.secs();
            }
        }
        let mut out: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(n, secs)| (n.to_string(), secs))
            .collect();
        out.sort_by(|p, q| q.1.partial_cmp(&p.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// Blame ranking: `(span name, rank, seconds on the path)`, heaviest
    /// first — "which code on which rank bounds the step".
    pub fn blame(&self, n: usize) -> Vec<(String, usize, f64)> {
        let mut by_pair: BTreeMap<(&str, usize), f64> = BTreeMap::new();
        for s in &self.segments {
            let label = match &s.kind {
                SegmentKind::Compute { name, .. } => name.as_str(),
                SegmentKind::ExposedComm { .. } => "(exposed comm)",
                SegmentKind::BarrierWait { .. } => "(barrier wait)",
                SegmentKind::LateEntry => "(late entry)",
            };
            *by_pair.entry((label, s.rank)).or_insert(0.0) += s.secs();
        }
        let mut out: Vec<(String, usize, f64)> = by_pair
            .into_iter()
            .map(|((name, rank), secs)| (name.to_string(), rank, secs))
            .collect();
        out.sort_by(|p, q| q.2.partial_cmp(&p.2).unwrap_or(std::cmp::Ordering::Equal));
        out.truncate(n);
        out
    }
}

// ---------------------------------------------------------------------------
// Run-level report
// ---------------------------------------------------------------------------

/// Aggregated critical-path attribution over every step of a [`TraceSet`].
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Steps analysed.
    pub steps: usize,
    /// Sum of per-step trace wall-clocks.
    pub wall: f64,
    /// Sum of per-step critical-path lengths.
    pub path: f64,
    /// Exposed-communication seconds on the path.
    pub exposed_on_path: f64,
    /// Barrier-handoff seconds on the path.
    pub barrier_on_path: f64,
    /// Late-entry seconds on the path (see [`SegmentKind::LateEntry`]).
    pub late_entry_on_path: f64,
    /// Compute on the path folded by bucket.
    pub by_bucket: BucketTotals,
    /// Per-rank blocked seconds (slack) summed over steps.
    pub slack: BTreeMap<usize, f64>,
    /// span × rank blame, heaviest first.
    pub blame: Vec<(String, usize, f64)>,
    /// Sum of `comm.exposed` *span* durations across all ranks — the figure
    /// comparable to [`crate::RunReport::comm_overlap`]'s `exposed`.
    pub exposed_span_total: f64,
    /// Sum of `comm.hidden` span durations across all ranks.
    pub hidden_span_total: f64,
    /// Unmatched send + recv edges over all steps (0 for a complete trace).
    pub unmatched_edges: usize,
    /// Ring-buffer evictions over all traces (0 means nothing was lost).
    pub dropped_events: u64,
}

impl TraceReport {
    /// Stitch and analyse every step in `set`.
    pub fn from_set(set: &TraceSet) -> TraceReport {
        let mut report = TraceReport {
            steps: 0,
            wall: 0.0,
            path: 0.0,
            exposed_on_path: 0.0,
            barrier_on_path: 0.0,
            late_entry_on_path: 0.0,
            by_bucket: BucketTotals::default(),
            slack: BTreeMap::new(),
            blame: Vec::new(),
            exposed_span_total: set.span_seconds("comm.exposed"),
            hidden_span_total: set.span_seconds("comm.hidden"),
            unmatched_edges: 0,
            dropped_events: set.total_dropped(),
        };
        let mut blame: BTreeMap<(String, usize), f64> = BTreeMap::new();
        for step in set.steps() {
            let Some(dag) = set.stitch(step) else {
                continue;
            };
            let path = dag.critical_path();
            report.steps += 1;
            report.wall += dag.wall();
            report.path += path.length();
            report.exposed_on_path += path.exposed_comm();
            report.barrier_on_path += path.barrier_wait();
            report.late_entry_on_path += path.late_entry();
            report.by_bucket.accumulate(&path.by_bucket());
            report.unmatched_edges += dag.unmatched_sends + dag.unmatched_recvs;
            for (rank, secs) in dag.rank_slack() {
                *report.slack.entry(rank).or_insert(0.0) += secs;
            }
            for (name, rank, secs) in path.blame(usize::MAX) {
                *blame.entry((name, rank)).or_insert(0.0) += secs;
            }
        }
        report.blame = blame
            .into_iter()
            .map(|((name, rank), secs)| (name, rank, secs))
            .collect();
        report
            .blame
            .sort_by(|p, q| q.2.partial_cmp(&p.2).unwrap_or(std::cmp::Ordering::Equal));
        report
    }

    /// `path / wall` — how much of the measured wall-clock the critical
    /// path reconstructs (the acceptance bar is within 5% of 1.0).
    pub fn coverage(&self) -> f64 {
        if self.wall > 0.0 {
            self.path / self.wall
        } else {
            0.0
        }
    }

    /// Render the attribution tables as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical-path report: {} step(s), wall {:.6} s, path {:.6} s (coverage {:.1}%)",
            self.steps,
            self.wall,
            self.path,
            100.0 * self.coverage()
        );
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "  WARNING: ring buffer evicted {} event(s); timeline incomplete",
                self.dropped_events
            );
        }
        if self.unmatched_edges > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} unmatched message edge(s)",
                self.unmatched_edges
            );
        }
        let _ = writeln!(
            out,
            "  on-path waits: exposed comm {:.6} s, barrier handoff {:.6} s, late entry {:.6} s",
            self.exposed_on_path, self.barrier_on_path, self.late_entry_on_path
        );
        let _ = writeln!(
            out,
            "  span totals:   comm.hidden {:.6} s, comm.exposed {:.6} s (all ranks)",
            self.hidden_span_total, self.exposed_span_total
        );

        out.push_str("\ncritical-path share by bucket\n");
        let compute: f64 = self.by_bucket.total();
        let denom = self.path.max(1e-300);
        for b in Bucket::ALL {
            let secs = self.by_bucket.get(b);
            if secs > 0.0 {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>12.6} s {:>6.1}%",
                    b.label(),
                    secs,
                    100.0 * secs / denom
                );
            }
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>12.6} s {:>6.1}%",
            "waits",
            self.exposed_on_path + self.barrier_on_path + self.late_entry_on_path,
            100.0 * (self.path - compute).max(0.0) / denom
        );

        if !self.slack.is_empty() {
            out.push_str("\nper-rank slack (blocked time off the path)\n");
            for (rank, secs) in &self.slack {
                let _ = writeln!(out, "  rank {rank:<4} {secs:>12.6} s");
            }
        }

        if !self.blame.is_empty() {
            out.push_str("\nblame ranking (span x rank on the critical path)\n");
            let _ = writeln!(
                out,
                "  {:<28} {:>5} {:>12} {:>7}",
                "span", "rank", "secs", "share"
            );
            for (name, rank, secs) in self.blame.iter().take(12) {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>5} {:>12.6} {:>6.1}%",
                    name,
                    rank,
                    secs,
                    100.0 * secs / denom
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn span_ev(t0: f64, t1: f64, name: &str, bucket: Bucket) -> TraceEvent {
        TraceEvent {
            t0,
            t1,
            kind: TraceEventKind::Span {
                name: name.to_string(),
                bucket,
            },
        }
    }

    fn send_ev(t: f64, peer: usize, tag: u64, bytes: u64) -> TraceEvent {
        TraceEvent {
            t0: t,
            t1: t,
            kind: TraceEventKind::Send { peer, tag, bytes },
        }
    }

    fn recv_ev(t0: f64, t1: f64, peer: usize, tag: u64, bytes: u64) -> TraceEvent {
        TraceEvent {
            t0,
            t1,
            kind: TraceEventKind::Recv { peer, tag, bytes },
        }
    }

    fn trace(step: u64, rank: usize, events: Vec<TraceEvent>) -> RankStepTrace {
        RankStepTrace {
            step,
            rank,
            dropped: 0,
            events,
        }
    }

    #[test]
    fn recorder_round_trip_through_thread_local() {
        // Recorder is thread-local: run in a dedicated thread so parallel
        // test execution cannot interfere.
        std::thread::spawn(|| {
            assert!(!is_active());
            assert!(drain(0).is_none());
            enable(16);
            assert!(is_active());
            begin_step(7);
            note_send(1, 42, 800);
            let t0 = interval_start().unwrap();
            note_recv(t0, 2, 43, 1600);
            note_span("gravity.fft", Bucket::Pm, 0.0);
            note_barrier(interval_start().unwrap());
            let out = drain(5).unwrap();
            assert_eq!(out.step, 7);
            assert_eq!(out.rank, 5);
            assert_eq!(out.dropped, 0);
            assert_eq!(out.events.len(), 4);
            assert!(matches!(
                out.events[0].kind,
                TraceEventKind::Send {
                    peer: 1,
                    tag: 42,
                    bytes: 800
                }
            ));
            // Drained: next drain is empty.
            assert!(drain(5).unwrap().events.is_empty());
            disable();
            assert!(!is_active());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn ring_buffer_evicts_and_counts() {
        std::thread::spawn(|| {
            enable(3);
            for i in 0..10 {
                note_send(0, i, 8);
            }
            let out = drain(0).unwrap();
            assert_eq!(out.events.len(), 3);
            assert_eq!(out.dropped, 7);
            // The survivors are the newest three.
            assert!(matches!(
                out.events[0].kind,
                TraceEventKind::Send { tag: 7, .. }
            ));
            disable();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn trace_line_round_trips_including_collective_tags() {
        let t = RankStepTrace {
            step: 3,
            rank: 2,
            dropped: 1,
            events: vec![
                span_ev(0.25, 0.5, "gravity.poisson", Bucket::Pm),
                send_ev(0.3, 1, (1 << 62) + 5, 4096),
                recv_ev(0.31, 0.42, 0, 7, 800),
                TraceEvent {
                    t0: 0.45,
                    t1: 0.5,
                    kind: TraceEventKind::Barrier,
                },
            ],
        };
        let line = t.to_jsonl();
        assert!(!line.contains('\n'));
        let back = RankStepTrace::parse(&line).unwrap();
        assert_eq!(back, t);
        // The collective tag survives exactly (it exceeds 2^53 and would be
        // corrupted by an f64 round-trip).
        assert!(matches!(
            back.events[1].kind,
            TraceEventKind::Send { tag, .. } if tag == (1 << 62) + 5
        ));
    }

    #[test]
    fn step_event_lines_are_not_trace_lines() {
        let mut set = TraceSet::new();
        // A StepEvent-shaped line: valid JSON, different kind.
        assert_eq!(
            set.add_jsonl_line("{\"step\":1,\"rank\":0,\"a\":0.2}"),
            Ok(false)
        );
        assert!(set.is_empty());
        let t = trace(1, 0, vec![send_ev(0.1, 1, 5, 8)]);
        assert_eq!(set.add_jsonl_line(&t.to_jsonl()), Ok(true));
        assert_eq!(set.len(), 1);
        assert!(set.add_jsonl_line("{torn").is_err());
    }

    /// Two ranks: rank 0 computes 1 s then sends; rank 1 computes 0.2 s,
    /// then blocks 0.85 s on the recv, then computes 0.5 s. Critical path:
    /// rank 0's compute (1.0) + exposed wait (0.05) + rank 1's tail (0.5).
    fn blocked_recv_set() -> TraceSet {
        let mut set = TraceSet::new();
        set.add(trace(
            1,
            0,
            vec![
                span_ev(0.0, 1.0, "drift", Bucket::Vlasov),
                send_ev(1.0, 1, 7, 4096),
                span_ev(1.0, 1.3, "tail.a", Bucket::Other),
            ],
        ));
        set.add(trace(
            1,
            1,
            vec![
                span_ev(0.0, 0.2, "setup", Bucket::Other),
                recv_ev(0.2, 1.05, 0, 7, 4096),
                span_ev(1.05, 1.55, "kick", Bucket::Vlasov),
            ],
        ));
        set
    }

    #[test]
    fn matching_pairs_every_edge_and_dag_is_acyclic() {
        let set = blocked_recv_set();
        let dag = set.stitch(1).unwrap();
        assert_eq!(dag.matches.len(), 1);
        assert_eq!(dag.unmatched_sends, 0);
        assert_eq!(dag.unmatched_recvs, 0);
        let m = dag.matches[0];
        assert_eq!((m.src, m.dst, m.tag, m.bytes), (0, 1, 7, 4096));
        assert!(dag.check_acyclic().is_ok());
    }

    #[test]
    fn critical_path_jumps_through_blocked_recv() {
        let set = blocked_recv_set();
        let dag = set.stitch(1).unwrap();
        let path = dag.critical_path();
        // Wall is 1.55 s (0.0 .. 1.55, rank 1 ends last).
        assert!((path.wall() - 1.55).abs() < 1e-9);
        // Path: rank 1 kick (0.5) ← exposed wait (1.0→1.05) ← rank 0 drift
        // (1.0). Length tiles the wall.
        assert!(
            (path.length() - path.wall()).abs() < 1e-9,
            "length {} wall {}",
            path.length(),
            path.wall()
        );
        assert!((path.exposed_comm() - 0.05).abs() < 1e-9);
        // The jump lands on rank 0, attributing its full drift.
        let by_span = path.by_span();
        let drift = by_span.iter().find(|(n, _)| n == "drift").unwrap();
        assert!((drift.1 - 1.0).abs() < 1e-9);
        let kick = by_span.iter().find(|(n, _)| n == "kick").unwrap();
        assert!((kick.1 - 0.5).abs() < 1e-9);
        // Rank 1's blocked window minus the in-flight overlap is its slack.
        let slack = dag.rank_slack();
        assert!((slack[&1] - 0.05).abs() < 1e-9);
        assert_eq!(slack[&0], 0.0);
        // Buckets: 1.0 s Vlasov from drift + 0.5 s from kick.
        assert!((path.by_bucket().vlasov - 1.5).abs() < 1e-9);
        // Blame leads with the biggest on-path contributor.
        let blame = path.blame(3);
        assert_eq!(blame[0].0, "drift");
        assert_eq!(blame[0].1, 0);
    }

    #[test]
    fn non_blocking_recv_stays_on_rank() {
        // Message posted before the recv begins: no jump, path stays local.
        let mut set = TraceSet::new();
        set.add(trace(2, 0, vec![send_ev(0.1, 1, 9, 64)]));
        set.add(trace(
            2,
            1,
            vec![
                span_ev(0.0, 0.6, "drift", Bucket::Vlasov),
                recv_ev(0.6, 0.61, 0, 9, 64),
                span_ev(0.61, 1.0, "kick", Bucket::Vlasov),
            ],
        ));
        let dag = set.stitch(2).unwrap();
        let path = dag.critical_path();
        assert_eq!(path.exposed_comm(), 0.0);
        assert!(path
            .segments
            .iter()
            .all(|s| s.rank == 1 || matches!(s.kind, SegmentKind::Compute { .. })));
        assert_eq!(dag.rank_slack()[&1], 0.0);
    }

    #[test]
    fn barrier_jump_blames_last_entrant() {
        // Rank 0 enters the barrier at 0.2, rank 1 at 0.9; both leave at
        // ~0.9. The path must run through rank 1's compute, not rank 0's
        // wait.
        let mut set = TraceSet::new();
        set.add(trace(
            1,
            0,
            vec![
                span_ev(0.0, 0.2, "fast", Bucket::Other),
                TraceEvent {
                    t0: 0.2,
                    t1: 0.9,
                    kind: TraceEventKind::Barrier,
                },
                span_ev(0.9, 1.0, "tail.b", Bucket::Other),
            ],
        ));
        set.add(trace(
            1,
            1,
            vec![
                span_ev(0.0, 0.9, "slow", Bucket::Pm),
                TraceEvent {
                    t0: 0.9,
                    t1: 0.9,
                    kind: TraceEventKind::Barrier,
                },
            ],
        ));
        let dag = set.stitch(1).unwrap();
        assert!(dag.check_acyclic().is_ok());
        let path = dag.critical_path();
        assert!((path.length() - path.wall()).abs() < 1e-9);
        let by_span = path.by_span();
        assert!(by_span.iter().any(|(n, _)| n == "slow"));
        assert!(!by_span.iter().any(|(n, _)| n == "fast"));
        // Slack: rank 0 waited 0.7 s at the barrier.
        assert!((dag.rank_slack()[&0] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn late_entering_rank_tiles_the_step_with_late_entry() {
        // Rank 1 opens its trace at 0.3 (it drained the previous step late);
        // rank 0 began at 0.0 and blocks on rank 1's first send. The path
        // runs back through rank 1 to its entry, and the 0.3 s before it is
        // that rank's late entry, not lost coverage.
        let mut set = TraceSet::new();
        set.add(trace(
            2,
            0,
            vec![
                span_ev(0.0, 0.1, "fast", Bucket::Other),
                recv_ev(0.1, 0.5, 1, 3, 8),
                span_ev(0.5, 0.9, "kick", Bucket::Vlasov),
            ],
        ));
        set.add(trace(
            2,
            1,
            vec![span_ev(0.3, 0.5, "slow", Bucket::Pm), send_ev(0.5, 0, 3, 8)],
        ));
        let dag = set.stitch(2).unwrap();
        let path = dag.critical_path();
        assert!((path.length() - path.wall()).abs() < 1e-9);
        assert!((path.late_entry() - 0.3).abs() < 1e-9);
        let first = &path.segments[0];
        assert_eq!(first.rank, 1);
        assert_eq!(first.kind, SegmentKind::LateEntry);
        assert!(!path.by_span().iter().any(|(n, _)| n == "fast"));
        let report = TraceReport::from_set(&set);
        assert!((report.late_entry_on_path - 0.3).abs() < 1e-9);
        assert!(report.render().contains("late entry 0.300000 s"));
        // A rank entering with the step adds no late entry.
        assert_eq!(
            blocked_recv_set()
                .stitch(1)
                .unwrap()
                .critical_path()
                .late_entry(),
            0.0
        );
    }

    #[test]
    fn nested_spans_attribute_to_innermost() {
        let mut set = TraceSet::new();
        set.add(trace(
            1,
            0,
            vec![
                span_ev(0.2, 0.8, "gravity.fft", Bucket::Pm),
                span_ev(0.0, 1.0, "gravity", Bucket::Pm),
            ],
        ));
        let path = set.stitch(1).unwrap().critical_path();
        let by_span = path.by_span();
        let fft = by_span.iter().find(|(n, _)| n == "gravity.fft").unwrap();
        let outer = by_span.iter().find(|(n, _)| n == "gravity").unwrap();
        assert!((fft.1 - 0.6).abs() < 1e-9);
        assert!((outer.1 - 0.4).abs() < 1e-9, "self-time only: {}", outer.1);
    }

    #[test]
    fn unmatched_edges_are_reported_not_fatal() {
        let mut set = TraceSet::new();
        set.add(trace(
            1,
            0,
            vec![send_ev(0.0, 1, 1, 8), send_ev(0.1, 1, 2, 8)],
        ));
        set.add(trace(1, 1, vec![recv_ev(0.0, 0.2, 0, 1, 8)]));
        let dag = set.stitch(1).unwrap();
        assert_eq!(dag.matches.len(), 1);
        assert_eq!(dag.unmatched_sends, 1);
        assert_eq!(dag.unmatched_recvs, 0);
        assert!(dag.check_acyclic().is_ok());
    }

    #[test]
    fn report_aggregates_and_renders() {
        let set = blocked_recv_set();
        let report = TraceReport::from_set(&set);
        assert_eq!(report.steps, 1);
        assert!((report.coverage() - 1.0).abs() < 1e-9);
        assert!((report.exposed_on_path - 0.05).abs() < 1e-9);
        assert_eq!(report.unmatched_edges, 0);
        let text = report.render();
        assert!(text.contains("critical-path report"));
        assert!(text.contains("blame ranking"));
        assert!(text.contains("per-rank slack"));
        assert!(text.contains("drift"));
    }

    #[test]
    fn chrome_trace_exports_slices_and_flows() {
        let set = blocked_recv_set();
        let text = set.chrome_trace();
        let v = Json::parse(&text).unwrap();
        let events = v.get("traceEvents").as_arr().unwrap();
        assert!(!events.is_empty());
        let phases: Vec<&str> = events.iter().filter_map(|e| e.get("ph").as_str()).collect();
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"s"));
        assert!(phases.contains(&"f"));
        assert!(phases.contains(&"M"));
        // Timestamps are microseconds.
        let drift = events
            .iter()
            .find(|e| e.get("name").as_str() == Some("drift"))
            .unwrap();
        assert!((drift.get("dur").as_f64().unwrap() - 1e6).abs() < 1.0);
    }

    #[test]
    fn span_seconds_sums_named_spans() {
        let mut set = TraceSet::new();
        set.add(trace(
            1,
            0,
            vec![
                span_ev(0.0, 0.25, "comm.exposed", Bucket::Vlasov),
                span_ev(0.3, 0.4, "comm.hidden", Bucket::Vlasov),
            ],
        ));
        set.add(trace(
            2,
            0,
            vec![span_ev(0.0, 0.5, "comm.exposed", Bucket::Vlasov)],
        ));
        assert!((set.span_seconds("comm.exposed") - 0.75).abs() < 1e-12);
        assert!((set.span_seconds("comm.hidden") - 0.1).abs() < 1e-12);
    }
}
