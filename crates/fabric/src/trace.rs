//! Structured execution tracing: the [`TraceSink`] seam of the simulator.
//!
//! The engine emits one [`TraceEvent`] per observable action — token hops
//! on the serial network, node firings and retirements, mesh operand
//! sends, link traversals and ring boardings of the contended
//! interconnect — through a sink chosen at monomorphization time. The
//! default [`NoopSink`] carries `ACTIVE = false`, so every emission site
//! (`if S::ACTIVE { … }`) folds to nothing and the traced kernel is the
//! untraced kernel, instruction for instruction: the zero-allocation and
//! throughput floors in `tests/alloc.rs` and the bench-smoke job hold
//! with the seam in place.
//!
//! Concrete sinks:
//!
//! * [`RingRecorder`] — a bounded in-memory ring buffer of raw events.
//!   `analysis::trace` replays a recording into Table 21/29-style
//!   numbers and cross-checks them against the live counters, and the
//!   Chrome-trace exporter turns one into a Perfetto-loadable JSON.
//!
//! # Tick semantics
//!
//! Events carry the simulator's **serial tick** clock: the kernel walks
//! the token bundle hop by hop, so a recording shows every delivery at
//! the tick it happened.

use javaflow_bytecode::Value;

use crate::Token;

/// Decline codes paired with `MetricsRegistry` counter names. The kernel
/// has one execution walk and never declines a requested path, so the
/// table is empty; it stays exported because existing readers still sum
/// over it.
pub const WARN_COUNTERS: [(u32, &str); 0] = [];

/// What a [`TraceEvent`] describes. Discriminants are the first byte of
/// the binary record format and must stay stable (`10`, a retired
/// diagnostic kind, is unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A serial-network token send. `node` = sending instruction
    /// (`u32::MAX` = the Anchor's injection), `arg` = receiving
    /// instruction, `data` = [`encode_token`], `aux` = arrival tick.
    TokenSend = 0,
    /// An instruction node fired. `arg` = timing class, `data` =
    /// execution ticks, `aux` = packed placement coordinates
    /// (`x << 32 | y`).
    Fire = 1,
    /// The execution stage of a fired node completed.
    Retire = 2,
    /// A memory/GPP service completed and outputs dispatched.
    ServiceDone = 3,
    /// A mesh operand send. `node` = consumer (relays included), `arg` =
    /// operand side, `data` = packed source coordinates, `aux` = arrival
    /// tick.
    MeshSend = 4,
    /// A relay (inserted move) node fired its fan-out. `data` = packed
    /// relay coordinates, `aux` = fan-out width.
    RelayFire = 5,
    /// One link traversal in the contended mesh. `tick` = entry tick,
    /// `node` = router x, `arg` = router y, `data` = stall ticks,
    /// `aux` = observed queue depth.
    LinkHop = 6,
    /// A request boarded a slotted ring. `arg` = ring (0 = memory,
    /// 1 = GPP), `data` = station wait ticks, `aux` = queued depth.
    RingBoard = 7,
    /// A register token passed a watching node. `arg` = register |
    /// fired-bit 16 | completed-bit 17, `data`/`aux` = [`encode_value`]
    /// bits/tag of the carried value.
    RegObserve = 8,
    /// An ordered array store reached real memory. `arg` = operand count,
    /// `data`/`aux` = bits/tag of the stored value.
    MemObserve = 9,
    /// The run ended. `tick` = final raw tick, `arg` = outcome code
    /// (0 returned / 1 timeout / 2 deadlock / 3 exception), `data` =
    /// ticks per mesh cycle, `aux` = net-report-present bit 0 |
    /// `active_static << 1` (the replay's coverage denominator).
    End = 11,
}

/// One structured trace record. Compact and `Copy`: recording an event
/// is a bounds check and a 33-byte store, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Serial tick the event happened at.
    pub tick: u64,
    /// Event kind; fixes the meaning of the payload fields.
    pub kind: TraceKind,
    /// Primary subject (instruction address, router x, …).
    pub node: u32,
    /// Secondary subject (target address, side, ring id, …).
    pub arg: u32,
    /// Kind-specific payload.
    pub data: u64,
    /// Kind-specific payload.
    pub aux: u64,
}

/// Size of one serialized event record.
pub const EVENT_BYTES: usize = 33;

impl TraceEvent {
    /// Serializes the event into the stable little-endian record format
    /// (`kind`, `tick`, `node`, `arg`, `data`, `aux`).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; EVENT_BYTES] {
        let mut b = [0u8; EVENT_BYTES];
        b[0] = self.kind as u8;
        b[1..9].copy_from_slice(&self.tick.to_le_bytes());
        b[9..13].copy_from_slice(&self.node.to_le_bytes());
        b[13..17].copy_from_slice(&self.arg.to_le_bytes());
        b[17..25].copy_from_slice(&self.data.to_le_bytes());
        b[25..33].copy_from_slice(&self.aux.to_le_bytes());
        b
    }
}

/// Where the simulator sends structured events.
///
/// The sink is a **monomorphization-time** choice: `ACTIVE` is an
/// associated constant, every emission site in the engine is guarded by
/// `if S::ACTIVE`, and the [`NoopSink`] instantiation therefore contains
/// no tracing code at all — not even dead branches.
pub trait TraceSink {
    /// Whether this sink observes events. `false` compiles every
    /// emission site out of the engine.
    const ACTIVE: bool = true;

    /// Receives one event. Must be cheap; the engine calls it from the
    /// event-dispatch hot path.
    fn record(&mut self, ev: &TraceEvent);
}

/// The default sink: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: &TraceEvent) {}
}

/// A bounded in-memory recorder: keeps the most recent `capacity`
/// events, counting (rather than failing on) overflow.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Oldest slot once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> RingRecorder {
        let cap = capacity.max(1);
        RingRecorder { buf: Vec::with_capacity(cap), cap, head: 0, dropped: 0 }
    }

    /// Events recorded and still held, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Events that overflowed the buffer and were discarded (oldest
    /// first discipline).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The whole recording in the stable binary record format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() * EVENT_BYTES);
        for ev in self.events() {
            out.extend_from_slice(&ev.to_bytes());
        }
        out
    }

    /// Forgets all recorded events, keeping the buffer capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, ev: &TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(*ev);
        } else {
            self.buf[self.head] = *ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// Packs mesh coordinates into one event payload field.
#[must_use]
pub fn pack_coords((x, y): (u32, u32)) -> u64 {
    (u64::from(x) << 32) | u64::from(y)
}

/// Reverses [`pack_coords`].
#[must_use]
pub fn unpack_coords(packed: u64) -> (u32, u32) {
    ((packed >> 32) as u32, packed as u32)
}

/// Packs a serial token into the `data` field of a
/// [`TraceKind::TokenSend`] event: low 3 bits are the token kind
/// (0 HEAD, 1 TAIL, 2 MEMORY, 3 REGISTER), the rest the memory order
/// number or register index. Register *values* are not packed — the
/// [`TraceKind::RegObserve`] events carry them.
#[must_use]
pub fn encode_token(t: &Token) -> u64 {
    match t {
        Token::Head => 0,
        Token::Tail => 1,
        Token::Memory(order) => 2 | (order << 3),
        Token::Register { reg, .. } => 3 | (u64::from(*reg) << 3),
    }
}

/// Packs a [`Value`] into `(tag, bits)` for an event payload.
#[must_use]
pub fn encode_value(v: &Value) -> (u64, u64) {
    match v {
        Value::Int(x) => (0, u64::from(*x as u32)),
        Value::Long(x) => (1, *x as u64),
        Value::Float(x) => (2, u64::from(x.to_bits())),
        Value::Double(x) => (3, x.to_bits()),
        Value::Ref(None) => (4, 0),
        Value::Ref(Some(h)) => (5, u64::from(*h)),
        Value::RetAddr(a) => (6, u64::from(*a)),
    }
}

/// Reverses [`encode_value`]. Unknown tags decode to `Int(0)`.
#[must_use]
pub fn decode_value(tag: u64, bits: u64) -> Value {
    match tag {
        0 => Value::Int(bits as u32 as i32),
        1 => Value::Long(bits as i64),
        2 => Value::Float(f32::from_bits(bits as u32)),
        3 => Value::Double(f64::from_bits(bits)),
        4 => Value::NULL,
        5 => Value::Ref(Some(bits as u32)),
        6 => Value::RetAddr(bits as u32),
        _ => Value::Int(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_codec_round_trips() {
        for v in [
            Value::Int(-7),
            Value::Long(1 << 40),
            Value::Float(f32::NAN),
            Value::Double(-0.0),
            Value::NULL,
            Value::Ref(Some(9)),
            Value::RetAddr(3),
        ] {
            let (tag, bits) = encode_value(&v);
            assert!(decode_value(tag, bits).bits_eq(&v), "{v:?}");
        }
    }

    #[test]
    fn token_codes_are_distinct() {
        let codes = [
            encode_token(&Token::Head),
            encode_token(&Token::Tail),
            encode_token(&Token::Memory(0)),
            encode_token(&Token::Register { reg: 0, value: Value::Int(0) }),
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(encode_token(&Token::Memory(5)) & 0b111, 2);
    }

    #[test]
    fn recorder_keeps_most_recent_events() {
        let mut r = RingRecorder::with_capacity(2);
        let ev =
            |tick| TraceEvent { tick, kind: TraceKind::Fire, node: 0, arg: 0, data: 0, aux: 0 };
        for t in 0..5 {
            r.record(&ev(t));
        }
        assert_eq!(r.dropped(), 3);
        let kept: Vec<u64> = r.events().iter().map(|e| e.tick).collect();
        assert_eq!(kept, [3, 4]);
        assert_eq!(r.to_bytes().len(), 2 * EVENT_BYTES);
    }

    #[test]
    fn event_bytes_are_stable() {
        let ev =
            TraceEvent { tick: 0x0102, kind: TraceKind::End, node: 3, arg: 4, data: 5, aux: 6 };
        let b = ev.to_bytes();
        assert_eq!(b[0], 11);
        assert_eq!(b[1], 0x02);
        assert_eq!(b[2], 0x01);
        assert_eq!(b[9], 3);
        assert_eq!(b[13], 4);
        assert_eq!(b[17], 5);
        assert_eq!(b[25], 6);
    }
}
