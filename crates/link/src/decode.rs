//! Host-side streaming frame decoder: resynchronization, CRC
//! verification, and sequence-gap detection.
//!
//! The decoder is push-based: feed it whatever bytes the transport
//! delivered — any split, any alignment — and it emits [`LinkEvent`]s.
//! Its contract is the crate's no-silent-corruption invariant:
//!
//! * A damaged frame never comes out as a [`LinkEvent::Frame`]; the
//!   CRC rejects it and the decoder scans forward to the next sync
//!   word (**resync**).
//! * A damaged length field never stalls the stream: a candidate whose
//!   declared extent wholly contains a CRC-valid frame is rejected as
//!   soon as that inner frame is buffered, not after the declared bytes
//!   arrive (legitimate senders never nest frames).
//! * A missing frame never goes unnoticed; the sequence number jump is
//!   reported as a [`LinkEvent::Gap`] carrying the number of lost
//!   modulator clocks (from the clock-index headers), which is what
//!   the pipeline's gap concealment consumes.
//! * A duplicated or reordered-stale frame is dropped, not replayed.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use tonos_dsp::frame::{
    is_control_kind, CorruptReason, Frame, Nak, ParseOutcome, SeqRange, CRC_LEN, HEADER_LEN,
    NAK_MAX_RANGES, SYNC,
};
use tonos_telemetry::{names, Counter, Telemetry};

/// Keep at most this much undecodable prefix before compacting the
/// internal buffer.
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// Hard ceiling on the reorder window so the pending buffer stays
/// small; windows are typically 16–64 frames.
pub const MAX_REORDER_WINDOW: u32 = 1024;

/// Size of the smallest frame (empty payload): no frame can start
/// closer than this to the end of the extent that must contain it.
const MIN_FRAME_LEN: usize = HEADER_LEN + CRC_LEN;

/// What the decoder tells the layer above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// A CRC-verified, in-order frame.
    Frame(Frame),
    /// One or more frames were lost between the last delivered frame
    /// and the one that follows this event.
    Gap {
        /// Sequence number that was expected.
        expected_seq: u32,
        /// Sequence number that actually arrived.
        got_seq: u32,
        /// Frames missing (`got_seq - expected_seq`, mod 2³²).
        lost_frames: u32,
        /// Modulator clocks missing, from the clock-index headers.
        lost_clocks: u64,
    },
    /// A CRC-verified control frame (handshake or NAK). Control frames
    /// sit outside the data sequence space: they never trigger gaps,
    /// never count as stale, and carry advisory `seq`/`clock` headers.
    Control(Frame),
}

/// Plain (telemetry-independent) decoder statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// Bytes pushed into the decoder.
    pub bytes: u64,
    /// CRC-verified frames delivered in order.
    pub frames: u64,
    /// CRC check failures (includes false syncs found while scanning).
    pub crc_failures: u64,
    /// Candidate frames rejected for their length field: above
    /// `MAX_PAYLOAD_BITS`, or declaring an extent that wholly contains
    /// a CRC-valid frame. Neither shows as a CRC failure.
    pub length_rejects: u64,
    /// Times the decoder lost framing and had to scan for sync.
    pub resyncs: u64,
    /// Sequence-gap events reported.
    pub gap_events: u64,
    /// Total frames lost across all gap events.
    pub lost_frames: u64,
    /// Duplicate or reordered-stale frames dropped.
    pub stale_frames: u64,
    /// Out-of-order frames healed by the reorder buffer (delivered in
    /// order instead of dropped-and-concealed).
    pub reordered_frames: u64,
    /// Previously-NAK'd frames that later arrived (via retransmission
    /// or very late reordering).
    pub retransmits_rx: u64,
    /// Control frames (hello / ack / NAK) delivered.
    pub control_frames: u64,
}

/// Push-based streaming decoder for the link frame format.
///
/// # Example
///
/// The decoder is insensitive to how the transport fragments the byte
/// stream — any split decodes identically:
///
/// ```
/// use tonos_dsp::bits::PackedBits;
/// use tonos_link::{FrameDecoder, FrameEncoder, LinkEvent};
///
/// let mut enc = FrameEncoder::new(0);
/// let chunk: PackedBits = (0..64).map(|i| i % 3 == 0).collect();
/// let mut wire = Vec::new();
/// enc.encode_into(&chunk, &mut wire).unwrap();
///
/// let mut dec = FrameDecoder::new();
/// let mut events = Vec::new();
/// dec.push(&wire[..10], &mut events); // partial frame: buffered
/// assert!(events.is_empty());
/// dec.push(&wire[10..], &mut events); // rest arrives: frame decodes
/// assert!(matches!(events[0], LinkEvent::Frame(_)));
/// ```
#[derive(Debug, Clone)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    /// `(seq, clock)` expected for the next in-order frame; `None`
    /// until the first frame of the stream arrives.
    expect: Option<(u32, u64)>,
    in_resync: bool,
    /// Nested-frame search over the extents declared by the candidates
    /// at `pos`, kept across candidates so no byte is rescanned.
    scan: InteriorScan,
    /// Reorder window in frames; 0 disables the reorder buffer (every
    /// forward seq jump becomes an immediate gap, as in PR 5).
    reorder_window: u32,
    /// Out-of-order frames waiting for their predecessors, each at a
    /// forward seq distance `< reorder_window` when buffered.
    pending: Vec<Frame>,
    /// Sequence numbers already reported by [`FrameDecoder::take_nak`],
    /// for retransmit accounting when they eventually arrive.
    nak_sent: Vec<u32>,
    stats: DecoderStats,
    /// Stats as of the last telemetry flush; counters receive the delta
    /// once per [`FrameDecoder::push`], not one atomic op per frame.
    flushed: DecoderStats,
    frames_rx: Counter,
    bytes_rx: Counter,
    crc_fail: Counter,
    length_rejects: Counter,
    resyncs: Counter,
    gap_events: Counter,
    gap_frames: Counter,
    stale_frames: Counter,
    reordered: Counter,
    retransmits: Counter,
    control: Counter,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder with no telemetry attached.
    pub fn new() -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            expect: None,
            in_resync: false,
            scan: InteriorScan::new(),
            reorder_window: 0,
            pending: Vec::new(),
            nak_sent: Vec::new(),
            stats: DecoderStats::default(),
            flushed: DecoderStats::default(),
            frames_rx: Counter::disabled(),
            bytes_rx: Counter::disabled(),
            crc_fail: Counter::disabled(),
            length_rejects: Counter::disabled(),
            resyncs: Counter::disabled(),
            gap_events: Counter::disabled(),
            gap_frames: Counter::disabled(),
            stale_frames: Counter::disabled(),
            reordered: Counter::disabled(),
            retransmits: Counter::disabled(),
            control: Counter::disabled(),
        }
    }

    /// Enables a reorder buffer of `window` frames (clamped to
    /// [`MAX_REORDER_WINDOW`]; 0 disables it).
    ///
    /// With a window, a frame arriving up to `window - 1` sequence
    /// numbers early is buffered rather than gapped: if the missing
    /// predecessors arrive (late, or retransmitted after a NAK), the
    /// stream heals with **no gap at all** and the samples downstream
    /// are bit-identical to a lossless link. Only when a frame would
    /// land at or beyond the window does the decoder give up on the
    /// oldest missing span and report a [`LinkEvent::Gap`].
    #[must_use]
    pub fn with_reorder_window(mut self, window: u32) -> Self {
        self.reorder_window = window.min(MAX_REORDER_WINDOW);
        self
    }

    /// Reports receive-side counters (`link.frames_rx`, `link.crc_fail`,
    /// `link.length_rejects`, `link.resyncs`, `link.gap_events`, ...)
    /// into the given registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.frames_rx = telemetry.counter(names::LINK_FRAMES_RX);
        self.bytes_rx = telemetry.counter(names::LINK_BYTES_RX);
        self.crc_fail = telemetry.counter(names::LINK_CRC_FAIL);
        self.length_rejects = telemetry.counter(names::LINK_LENGTH_REJECTS);
        self.resyncs = telemetry.counter(names::LINK_RESYNCS);
        self.gap_events = telemetry.counter(names::LINK_GAP_EVENTS);
        self.gap_frames = telemetry.counter(names::LINK_GAP_FRAMES);
        self.stale_frames = telemetry.counter(names::LINK_STALE_FRAMES);
        self.reordered = telemetry.counter(names::LINK_REORDERED_FRAMES);
        self.retransmits = telemetry.counter(names::LINK_RETRANSMITS_RX);
        self.control = telemetry.counter(names::LINK_CONTROL_FRAMES);
        // Counters report activity from attach time on, as before the
        // batched flush: don't credit pre-attach stats to the registry.
        self.flushed = self.stats;
        self
    }

    /// Decoder statistics so far.
    pub fn stats(&self) -> DecoderStats {
        self.stats
    }

    /// Bytes buffered but not yet decodable (partial frame tail).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Feeds transport bytes in, appending decoded events to `events`.
    ///
    /// Any split of the byte stream decodes identically: the decoder
    /// buffers partial frames internally and is insensitive to where
    /// the transport fragments its reads. (The one exception, a
    /// CRC-valid frame whose extent nests another CRC-valid frame, is
    /// accepted whole or rejected by length depending on which is
    /// buffered first; no encoder produces it.)
    pub fn push(&mut self, bytes: &[u8], events: &mut Vec<LinkEvent>) {
        self.stats.bytes += bytes.len() as u64;
        self.buf.extend_from_slice(bytes);
        loop {
            let window = &self.buf[self.pos..];
            if window.is_empty() {
                break;
            }
            // A candidate whose declared extent holds a verified frame
            // is lying about its length. An unfinished one is rejected as
            // soon as such a frame is buffered; a finished one whose CRC
            // fails is rejected by length too, so the counter it lands in
            // does not depend on how the bytes were split.
            let outcome = match Frame::parse(window) {
                ParseOutcome::NeedMore
                | ParseOutcome::Corrupt {
                    reason: CorruptReason::Crc,
                } if self.nests_frame() => ParseOutcome::Corrupt {
                    reason: CorruptReason::Length,
                },
                outcome => outcome,
            };
            match outcome {
                ParseOutcome::NeedMore => break,
                ParseOutcome::Parsed { frame, consumed } => {
                    self.pos += consumed;
                    self.in_resync = false;
                    self.accept(frame, events);
                }
                ParseOutcome::Corrupt { reason } => {
                    if !self.in_resync {
                        self.in_resync = true;
                        self.stats.resyncs += 1;
                    }
                    match reason {
                        CorruptReason::Crc => self.stats.crc_failures += 1,
                        CorruptReason::Length => self.stats.length_rejects += 1,
                        CorruptReason::Sync | CorruptReason::Version => {}
                    }
                    // Scan forward to the next candidate sync byte,
                    // at least one byte ahead of the rejected start.
                    let window = &self.buf[self.pos..];
                    let skip = window[1..]
                        .iter()
                        .position(|&b| b == SYNC[0])
                        .map_or(window.len(), |i| i + 1);
                    self.pos += skip;
                }
            }
        }
        // Reclaim the consumed prefix once it is worth a memmove.
        if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.scan.rebase(self.pos);
            self.pos = 0;
        }
        // Batched telemetry flush: one atomic add per counter per chunk
        // instead of one per frame. At reader chunk sizes (~60 frames)
        // the per-frame atomics were the hot path's single biggest
        // telemetry cost; `stats` already holds exact plain-field
        // totals, so the counters just receive the delta.
        self.frames_rx.add(self.stats.frames - self.flushed.frames);
        self.bytes_rx.add(self.stats.bytes - self.flushed.bytes);
        self.crc_fail
            .add(self.stats.crc_failures - self.flushed.crc_failures);
        self.length_rejects
            .add(self.stats.length_rejects - self.flushed.length_rejects);
        self.resyncs.add(self.stats.resyncs - self.flushed.resyncs);
        self.gap_events
            .add(self.stats.gap_events - self.flushed.gap_events);
        self.gap_frames
            .add(self.stats.lost_frames - self.flushed.lost_frames);
        self.stale_frames
            .add(self.stats.stale_frames - self.flushed.stale_frames);
        self.reordered
            .add(self.stats.reordered_frames - self.flushed.reordered_frames);
        self.retransmits
            .add(self.stats.retransmits_rx - self.flushed.retransmits_rx);
        self.control
            .add(self.stats.control_frames - self.flushed.control_frames);
        self.flushed = self.stats;
    }

    /// Whether the candidate at `pos` declares an extent that wholly
    /// contains a CRC-valid frame, among the bytes buffered so far.
    fn nests_frame(&mut self) -> bool {
        Frame::declared_len(&self.buf[self.pos..])
            .is_some_and(|total| self.scan.finds_frame(&self.buf, self.pos, total))
    }

    /// Reports the sequence ranges currently missing inside the reorder
    /// window, as a [`Nak`] ready to send back to the device — or
    /// `None` when nothing is missing (or the reorder buffer is off).
    ///
    /// Every call returns **all** currently-missing ranges, including
    /// ones reported before: the caller paces NAK traffic, and a
    /// retransmission that was itself lost is re-requested on the next
    /// call rather than waited on forever. Duplicate retransmissions
    /// are harmless — they arrive as stale frames and are dropped.
    pub fn take_nak(&mut self) -> Option<Nak> {
        let (expected_seq, _) = self.expect?;
        if self.reorder_window == 0 || self.pending.is_empty() {
            return None;
        }
        // Distances of buffered frames ahead of the next expected seq;
        // everything between them (and before the first) is missing.
        let mut have: Vec<u32> = self
            .pending
            .iter()
            .map(|f| f.seq.wrapping_sub(expected_seq))
            .collect();
        have.sort_unstable();
        let mut ranges = Vec::new();
        let mut cursor = 0u32;
        for &d in &have {
            if d > cursor {
                ranges.push(SeqRange {
                    first: expected_seq.wrapping_add(cursor),
                    count: d - cursor,
                });
            }
            cursor = d + 1;
        }
        ranges.truncate(NAK_MAX_RANGES);
        if ranges.is_empty() {
            return None;
        }
        for r in &ranges {
            for k in 0..r.count {
                let s = r.first.wrapping_add(k);
                if !self.nak_sent.contains(&s) {
                    self.nak_sent.push(s);
                }
            }
        }
        Some(Nak { ranges })
    }

    fn accept(&mut self, frame: Frame, events: &mut Vec<LinkEvent>) {
        if is_control_kind(frame.kind) {
            // Control frames sit outside the data sequence space:
            // surface them and leave gap/stale tracking untouched.
            self.stats.control_frames += 1;
            events.push(LinkEvent::Control(frame));
            return;
        }
        if self.expect.is_none() {
            if frame.seq != 0 || frame.clock != 0 {
                // The stream was already running when we attached (or
                // its head was lost): everything before this frame is a
                // gap, so downstream sample indices stay aligned to the
                // device clock. Encoders start at sequence 0, clock 0.
                self.stats.gap_events += 1;
                self.stats.lost_frames += u64::from(frame.seq);
                events.push(LinkEvent::Gap {
                    expected_seq: 0,
                    got_seq: frame.seq,
                    lost_frames: frame.seq,
                    lost_clocks: frame.clock,
                });
            }
            self.deliver(frame, events);
            return;
        }
        let (expected_seq, expected_clock) = self.expect.unwrap();
        let diff = frame.seq.wrapping_sub(expected_seq);
        if diff == 0 {
            self.deliver(frame, events);
            self.drain_pending(events);
        } else if diff < 0x8000_0000 {
            // Forward jump. With no reorder window this is an immediate
            // gap (PR 5 behavior); with one, the frame is buffered and
            // the decoder waits — up to the window bound — for the
            // missing predecessors to arrive late or be retransmitted.
            if self.reorder_window == 0 {
                let lost_clocks = frame.clock.saturating_sub(expected_clock);
                self.stats.gap_events += 1;
                self.stats.lost_frames += u64::from(diff);
                events.push(LinkEvent::Gap {
                    expected_seq,
                    got_seq: frame.seq,
                    lost_frames: diff,
                    lost_clocks,
                });
                self.deliver(frame, events);
            } else {
                if self.pending.iter().any(|p| p.seq == frame.seq) {
                    self.stats.stale_frames += 1;
                    return;
                }
                self.pending.push(frame);
                // Give up on the oldest missing span(s) while any
                // buffered frame sits at or past the window edge.
                while self.max_pending_diff() >= u64::from(self.reorder_window) {
                    self.force_advance(events);
                }
            }
        } else {
            // Backward jump: a duplicate or a straggler that already
            // fell out of the window (its span was given up on).
            self.stats.stale_frames += 1;
        }
    }

    /// Largest forward distance of any buffered frame from the next
    /// expected seq (0 when the buffer is empty).
    fn max_pending_diff(&self) -> u64 {
        let expected_seq = self.expect.map_or(0, |(s, _)| s);
        self.pending
            .iter()
            .map(|f| u64::from(f.seq.wrapping_sub(expected_seq)))
            .max()
            .unwrap_or(0)
    }

    /// Declares the span up to the earliest buffered frame lost,
    /// delivers that frame, and drains anything now consecutive.
    fn force_advance(&mut self, events: &mut Vec<LinkEvent>) {
        let (expected_seq, expected_clock) = self.expect.expect("force_advance needs a stream");
        let at = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| f.seq.wrapping_sub(expected_seq))
            .map(|(i, _)| i)
            .expect("force_advance needs pending frames");
        let frame = self.pending.swap_remove(at);
        let diff = frame.seq.wrapping_sub(expected_seq);
        self.stats.gap_events += 1;
        self.stats.lost_frames += u64::from(diff);
        events.push(LinkEvent::Gap {
            expected_seq,
            got_seq: frame.seq,
            lost_frames: diff,
            lost_clocks: frame.clock.saturating_sub(expected_clock),
        });
        // The given-up seqs will never be counted as retransmits.
        let give_up_end = frame.seq;
        self.nak_sent
            .retain(|&s| s.wrapping_sub(give_up_end) < 0x8000_0000);
        self.stats.reordered_frames += 1;
        self.deliver(frame, events);
        self.drain_pending(events);
    }

    /// Delivers every buffered frame that is now consecutive with the
    /// stream head.
    fn drain_pending(&mut self, events: &mut Vec<LinkEvent>) {
        loop {
            let Some((expected_seq, _)) = self.expect else {
                return;
            };
            let Some(at) = self.pending.iter().position(|f| f.seq == expected_seq) else {
                return;
            };
            let frame = self.pending.swap_remove(at);
            self.stats.reordered_frames += 1;
            self.deliver(frame, events);
        }
    }

    /// Emits a frame as the new stream head and advances `expect`.
    fn deliver(&mut self, frame: Frame, events: &mut Vec<LinkEvent>) {
        if let Some(i) = self.nak_sent.iter().position(|&s| s == frame.seq) {
            self.nak_sent.swap_remove(i);
            self.stats.retransmits_rx += 1;
        }
        self.expect = Some((
            frame.seq.wrapping_add(1),
            frame.clock + frame.payload_bits() as u64,
        ));
        self.stats.frames += 1;
        events.push(LinkEvent::Frame(frame));
    }
}

/// Incremental search for a CRC-valid frame nested inside the extent a
/// head candidate declares. Offsets index the decoder's buffer.
///
/// The state outlives each head, since a rejected head is followed by
/// one a few bytes on whose extent overlaps it. The cursor passes every
/// start offset once per stream. A start that declares a frame is
/// CRC-checked at most once, as soon as its bytes are buffered and it
/// lies inside the current head's extent; until then it waits in
/// `waiting`, and a verified one stays there for the heads that follow.
/// So the work is linear in the bytes and candidates seen, whether a
/// legitimate frame is dribbled in a byte at a time or a hostile block
/// packs thousands of overlapping headers.
#[derive(Debug, Clone)]
struct InteriorScan {
    /// First start offset not yet examined.
    next: usize,
    /// Inner candidates as `(end, start, verified)`, earliest end on top:
    /// unchecked ones (bytes missing, or beyond every extent so far) and
    /// verified frames.
    waiting: BinaryHeap<Reverse<(usize, usize, bool)>>,
    /// Inner candidates CRC-checked so far.
    #[cfg(test)]
    crc_checks: usize,
}

impl InteriorScan {
    fn new() -> Self {
        InteriorScan {
            next: 0,
            waiting: BinaryHeap::new(),
            #[cfg(test)]
            crc_checks: 0,
        }
    }

    /// Shifts the offsets after the decoder drops its first `by` bytes.
    /// Starts up to `by` lie at or before the current head and can never
    /// be nested in a later one.
    fn rebase(&mut self, by: usize) {
        self.next = self.next.saturating_sub(by);
        self.waiting = self
            .waiting
            .drain()
            .filter(|&Reverse((_, start, _))| start > by)
            .map(|Reverse((end, start, ok))| Reverse((end - by, start - by, ok)))
            .collect();
    }

    /// Whether a complete, CRC-valid frame lies wholly inside
    /// `buf[head..head + total]`, looking only at what is buffered.
    /// Heads passed in must never move backwards.
    fn finds_frame(&mut self, buf: &[u8], head: usize, total: usize) -> bool {
        let limit = buf.len().min(head + total);
        while let Some(mut top) = self.waiting.peek_mut() {
            let Reverse((end, start, verified)) = *top;
            if end > limit {
                break;
            }
            if start > head {
                if verified {
                    return true;
                }
                #[cfg(test)]
                {
                    self.crc_checks += 1;
                }
                if is_frame(&buf[start..end]) {
                    top.0 .2 = true;
                    return true;
                }
            }
            PeekMut::pop(top);
        }
        // Starts past `total - MIN_FRAME_LEN` cannot fit a whole frame;
        // starts whose header is not yet buffered wait for more bytes.
        self.next = self.next.max(head + 1);
        let stop =
            (head + total + 1 - MIN_FRAME_LEN).min((buf.len() + 1).saturating_sub(HEADER_LEN));
        while self.next < stop {
            let Some(start) = find_sync(buf, self.next, stop) else {
                break;
            };
            self.next = start + 1;
            let Some(len) = Frame::declared_len(&buf[start..]) else {
                continue;
            };
            let end = start + len;
            if end > limit {
                self.waiting.push(Reverse((end, start, false)));
                continue;
            }
            #[cfg(test)]
            {
                self.crc_checks += 1;
            }
            if is_frame(&buf[start..end]) {
                self.waiting.push(Reverse((end, start, true)));
                return true;
            }
        }
        self.next = self.next.max(stop);
        false
    }
}

/// Whether `bytes` is exactly one CRC-valid frame.
fn is_frame(bytes: &[u8]) -> bool {
    matches!(Frame::parse(bytes), ParseOutcome::Parsed { consumed, .. } if consumed == bytes.len())
}

/// First `i` in `from..to` where `hay[i..i + 4]` is the sync word;
/// needs `to + 3 <= hay.len()`.
fn find_sync(hay: &[u8], from: usize, to: usize) -> Option<usize> {
    hay[from..to + SYNC.len() - 1]
        .windows(SYNC.len())
        .position(|w| w == SYNC)
        .map(|i| from + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::FrameEncoder;
    use tonos_dsp::bits::PackedBits;
    use tonos_dsp::frame::MAX_PAYLOAD_BITS;

    fn chunk(n: usize, phase: usize) -> PackedBits {
        (0..n).map(|i| (i + phase).is_multiple_of(3)).collect()
    }

    fn encode_stream(chunks: &[PackedBits]) -> (Vec<u8>, Vec<usize>) {
        let mut enc = FrameEncoder::new(1);
        let mut wire = Vec::new();
        let mut bounds = Vec::new();
        for c in chunks {
            enc.encode_into(c, &mut wire).unwrap();
            bounds.push(wire.len());
        }
        (wire, bounds)
    }

    #[test]
    fn byte_at_a_time_matches_one_shot() {
        let chunks: Vec<PackedBits> = (0..10).map(|i| chunk(100 + i, i)).collect();
        let (wire, _) = encode_stream(&chunks);

        let mut one = Vec::new();
        FrameDecoder::new().push(&wire, &mut one);

        let mut dec = FrameDecoder::new();
        let mut dribble = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b), &mut dribble);
        }
        assert_eq!(one, dribble);
        assert_eq!(one.len(), 10);
        assert_eq!(dec.stats().frames, 10);
        assert_eq!(dec.stats().resyncs, 0);
    }

    #[test]
    fn corrupted_frame_is_rejected_and_framing_recovers() {
        let chunks: Vec<PackedBits> = (0..5).map(|i| chunk(128, i)).collect();
        let (mut wire, bounds) = encode_stream(&chunks);
        // Flip a payload byte inside frame 2.
        wire[bounds[1] + 30] ^= 0x40;

        let mut events = Vec::new();
        let mut dec = FrameDecoder::new();
        dec.push(&wire, &mut events);

        let frames: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                LinkEvent::Frame(f) => Some(f.seq),
                LinkEvent::Gap { .. } | LinkEvent::Control(_) => None,
            })
            .collect();
        assert_eq!(frames, vec![0, 1, 3, 4]);
        let gaps: Vec<(u32, u64)> = events
            .iter()
            .filter_map(|e| match e {
                LinkEvent::Gap {
                    lost_frames,
                    lost_clocks,
                    ..
                } => Some((*lost_frames, *lost_clocks)),
                LinkEvent::Frame(_) | LinkEvent::Control(_) => None,
            })
            .collect();
        assert_eq!(gaps, vec![(1, 128)]);
        assert!(dec.stats().crc_failures >= 1);
        assert_eq!(dec.stats().resyncs, 1);
    }

    #[test]
    fn duplicates_and_stale_frames_are_dropped() {
        let chunks: Vec<PackedBits> = (0..3).map(|i| chunk(64, i)).collect();
        let (wire, bounds) = encode_stream(&chunks);
        // frame0, frame1, frame1 again, frame0 again, frame2.
        let mut replay = wire[..bounds[1]].to_vec();
        replay.extend_from_slice(&wire[bounds[0]..bounds[1]]);
        replay.extend_from_slice(&wire[..bounds[0]]);
        replay.extend_from_slice(&wire[bounds[1]..]);

        let mut events = Vec::new();
        let mut dec = FrameDecoder::new();
        dec.push(&replay, &mut events);
        let seqs: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                LinkEvent::Frame(f) => Some(f.seq),
                LinkEvent::Gap { .. } | LinkEvent::Control(_) => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(dec.stats().stale_frames, 2);
        assert_eq!(dec.stats().gap_events, 0);
    }

    #[test]
    fn garbage_between_frames_is_skipped() {
        let chunks: Vec<PackedBits> = (0..2).map(|i| chunk(64, i)).collect();
        let (wire, bounds) = encode_stream(&chunks);
        let mut noisy = wire[..bounds[0]].to_vec();
        // Garbage that includes sync-first bytes to force false-sync
        // probes.
        noisy.extend_from_slice(&[0x5A, 0x00, 0x5A, 0xDC, 0x13, 0x37, 0xFF]);
        noisy.extend_from_slice(&wire[bounds[0]..]);

        let mut events = Vec::new();
        let mut dec = FrameDecoder::new();
        dec.push(&noisy, &mut events);
        let frames = events
            .iter()
            .filter(|e| matches!(e, LinkEvent::Frame(_)))
            .count();
        assert_eq!(frames, 2);
        assert_eq!(dec.stats().resyncs, 1);
        assert_eq!(dec.stats().gap_events, 0);
    }

    fn delivered_seqs(events: &[LinkEvent]) -> Vec<u32> {
        events
            .iter()
            .filter_map(|e| match e {
                LinkEvent::Frame(f) => Some(f.seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn reorder_window_heals_a_swap_without_a_gap() {
        let chunks: Vec<PackedBits> = (0..4).map(|i| chunk(64, i)).collect();
        let (wire, bounds) = encode_stream(&chunks);
        // Send 0, 2, 1, 3.
        let mut swapped = wire[..bounds[0]].to_vec();
        swapped.extend_from_slice(&wire[bounds[1]..bounds[2]]);
        swapped.extend_from_slice(&wire[bounds[0]..bounds[1]]);
        swapped.extend_from_slice(&wire[bounds[2]..]);

        let mut events = Vec::new();
        let mut dec = FrameDecoder::new().with_reorder_window(8);
        dec.push(&swapped, &mut events);
        assert_eq!(delivered_seqs(&events), vec![0, 1, 2, 3]);
        assert_eq!(dec.stats().gap_events, 0);
        assert_eq!(dec.stats().reordered_frames, 1);
        assert_eq!(dec.stats().stale_frames, 0);
    }

    #[test]
    fn reorder_window_overflow_gives_up_with_a_gap() {
        let chunks: Vec<PackedBits> = (0..6).map(|i| chunk(64, i)).collect();
        let (wire, bounds) = encode_stream(&chunks);
        // Drop frame 1 entirely, then stream 0, 2, 3, 4, 5 with
        // window 3: frame 4 lands at diff 3 ≥ 3, forcing the give-up.
        let mut lossy = wire[..bounds[0]].to_vec();
        lossy.extend_from_slice(&wire[bounds[1]..]);

        let mut events = Vec::new();
        let mut dec = FrameDecoder::new().with_reorder_window(3);
        dec.push(&lossy, &mut events);
        assert_eq!(delivered_seqs(&events), vec![0, 2, 3, 4, 5]);
        assert_eq!(dec.stats().gap_events, 1);
        assert_eq!(dec.stats().lost_frames, 1);
        // The gap is declared before frame 2 is delivered.
        assert!(matches!(
            events[1],
            LinkEvent::Gap {
                expected_seq: 1,
                got_seq: 2,
                lost_frames: 1,
                lost_clocks: 64,
            }
        ));
    }

    #[test]
    fn take_nak_reports_missing_and_counts_retransmits() {
        let chunks: Vec<PackedBits> = (0..4).map(|i| chunk(64, i)).collect();
        let (wire, bounds) = encode_stream(&chunks);
        let mut events = Vec::new();
        let mut dec = FrameDecoder::new().with_reorder_window(8);
        // Deliver 0, then 2 and 3 out of order; 1 is missing.
        dec.push(&wire[..bounds[0]], &mut events);
        dec.push(&wire[bounds[1]..], &mut events);
        let nak = dec.take_nak().expect("frame 1 is missing");
        assert_eq!(nak.ranges.len(), 1);
        assert_eq!((nak.ranges[0].first, nak.ranges[0].count), (1, 1));
        // A second call re-reports the same span (caller-paced re-NAK).
        assert!(dec.take_nak().is_some());

        // The "retransmission" arrives: stream heals, retransmit
        // counted, nothing concealed.
        dec.push(&wire[bounds[0]..bounds[1]], &mut events);
        assert_eq!(delivered_seqs(&events), vec![0, 1, 2, 3]);
        assert_eq!(dec.stats().retransmits_rx, 1);
        assert_eq!(dec.stats().gap_events, 0);
        assert!(dec.take_nak().is_none());
    }

    #[test]
    fn control_frames_bypass_sequence_tracking() {
        use tonos_dsp::frame::{Hello, HelloAck};
        let chunks: Vec<PackedBits> = (0..2).map(|i| chunk(64, i)).collect();
        let (wire, bounds) = encode_stream(&chunks);
        // data0, hello, ack, data1 — control seq=0 must not look stale
        // or gap the data stream.
        let mut mixed = wire[..bounds[0]].to_vec();
        Hello {
            device_id: 9,
            nonce: 1,
            tag: 2,
        }
        .to_frame()
        .encode_into(&mut mixed);
        HelloAck { accepted: true }
            .to_frame()
            .encode_into(&mut mixed);
        mixed.extend_from_slice(&wire[bounds[0]..]);

        let mut events = Vec::new();
        let mut dec = FrameDecoder::new();
        dec.push(&mixed, &mut events);
        assert_eq!(delivered_seqs(&events), vec![0, 1]);
        assert_eq!(dec.stats().control_frames, 2);
        assert_eq!(dec.stats().gap_events, 0);
        assert_eq!(dec.stats().stale_frames, 0);
        let controls = events
            .iter()
            .filter(|e| matches!(e, LinkEvent::Control(_)))
            .count();
        assert_eq!(controls, 2);
    }

    /// Overwrites the payload-length field of the frame starting at
    /// `start` with `bits` (the CRC no longer matches, as on the wire).
    fn lie_about_length(wire: &mut [u8], start: usize, bits: u32) {
        wire[start + 19..start + 23].copy_from_slice(&bits.to_le_bytes());
    }

    #[test]
    fn lying_length_releases_the_next_frame_once_its_bytes_arrive() {
        let chunks: Vec<PackedBits> = (0..4).map(|i| chunk(128, i)).collect();
        let (mut wire, bounds) = encode_stream(&chunks);
        // Frame 1 now claims ~25 KiB, far past the end of the stream.
        lie_about_length(&mut wire, bounds[0], 200_000);

        let mut dec = FrameDecoder::new();
        let mut events = Vec::new();
        // Everything short of frame 2's last byte: frame 0 only.
        dec.push(&wire[..bounds[2] - 1], &mut events);
        assert_eq!(delivered_seqs(&events), vec![0]);
        // Frame 2's last byte: the lying head is rejected and frame 2
        // comes out, without waiting for the declared 25 KiB.
        dec.push(&wire[bounds[2] - 1..bounds[2]], &mut events);
        assert_eq!(delivered_seqs(&events), vec![0, 2]);
        assert!(matches!(
            events[1],
            LinkEvent::Gap {
                expected_seq: 1,
                got_seq: 2,
                lost_frames: 1,
                ..
            }
        ));
        dec.push(&wire[bounds[2]..], &mut events);
        assert_eq!(delivered_seqs(&events), vec![0, 2, 3]);
        let stats = dec.stats();
        assert_eq!(stats.length_rejects, 1);
        assert_eq!(stats.crc_failures, 0);
        assert_eq!(stats.resyncs, 1);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn nested_frame_rejects_a_complete_head_by_length() {
        let chunks: Vec<PackedBits> = (0..3).map(|i| chunk(64, i)).collect();
        let (mut wire, bounds) = encode_stream(&chunks);
        // Frame 0 claims to run to the end of frame 1: a one-shot decode
        // (CRC fails first) and a byte-at-a-time one (frame 1 turns up
        // first) both reject it by length.
        let bits = ((bounds[1] - HEADER_LEN - CRC_LEN) * 8) as u32;
        lie_about_length(&mut wire, 0, bits);
        let mut one = Vec::new();
        let mut dec = FrameDecoder::new();
        dec.push(&wire, &mut one);
        assert_eq!(delivered_seqs(&one), vec![1, 2]);
        assert_eq!(dec.stats().length_rejects, 1);
        assert_eq!(dec.stats().crc_failures, 0);

        let mut split = Vec::new();
        let mut dribbled = FrameDecoder::new();
        for b in &wire {
            dribbled.push(std::slice::from_ref(b), &mut split);
        }
        assert_eq!(one, split);
        assert_eq!(dec.stats(), dribbled.stats());
    }

    #[test]
    fn a_max_size_frame_dribbled_byte_by_byte_decodes_once() {
        // Payload bytes full of sync-first bytes and partial sync words,
        // so the interior scan has candidates to examine and discard.
        let bits: PackedBits = (0..MAX_PAYLOAD_BITS as usize)
            .map(|i| (0x5A_DC_u32 >> (i % 16)) & 1 == 1)
            .collect();
        let (wire, _) = encode_stream(&[bits]);
        let mut dec = FrameDecoder::new();
        let mut events = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b), &mut events);
        }
        assert_eq!(delivered_seqs(&events), vec![0]);
        assert_eq!(dec.stats().resyncs, 0);
        assert_eq!(dec.stats().length_rejects, 0);
    }

    /// `k` sync headers, one every 27 bytes, all declaring the block's
    /// end; zeros elsewhere, so no candidate passes its CRC.
    fn nested_lying_headers(k: usize) -> Vec<u8> {
        let (wire, _) = encode_stream(&[chunk(8, 0)]);
        let len = 27 * k + MIN_FRAME_LEN;
        let mut block = vec![0; len];
        for at in (0..k).map(|j| 27 * j) {
            block[at..at + HEADER_LEN].copy_from_slice(&wire[..HEADER_LEN]);
            lie_about_length(&mut block, at, ((len - at - MIN_FRAME_LEN) * 8) as u32);
        }
        block
    }

    #[test]
    fn nested_lying_headers_are_each_crc_checked_once() {
        // Every head's extent holds all later headers. Restarting the
        // interior search at each head would check ~k²/2 candidates.
        for k in [100, 200, 400] {
            let block = nested_lying_headers(k);
            assert!(block.len() * 8 <= MAX_PAYLOAD_BITS as usize);
            let mut events = Vec::new();
            let mut one = FrameDecoder::new();
            one.push(&block, &mut events);
            let mut dribbled = FrameDecoder::new();
            for piece in block.chunks(7) {
                dribbled.push(piece, &mut events);
            }
            assert!(events.is_empty());
            for dec in [&one, &dribbled] {
                assert_eq!(dec.stats().crc_failures, k as u64);
                assert_eq!(dec.stats().length_rejects, 0);
                assert!(dec.scan.crc_checks < k, "{} checks", dec.scan.crc_checks);
            }
        }
    }

    #[test]
    fn a_verified_inner_frame_rejects_every_head_around_it() {
        // Two lying heads in a row, both claiming far past the stream's
        // end, then a real frame: each head is rejected by length as
        // soon as the frame is buffered, and the frame is checked once.
        let (frame, _) = encode_stream(&[chunk(64, 0)]);
        let mut wire = nested_lying_headers(2);
        lie_about_length(&mut wire, 0, MAX_PAYLOAD_BITS);
        lie_about_length(&mut wire, 27, MAX_PAYLOAD_BITS);
        wire.extend_from_slice(&frame);
        let mut events = Vec::new();
        let mut dec = FrameDecoder::new();
        dec.push(&wire, &mut events);
        assert_eq!(delivered_seqs(&events), vec![0]);
        assert_eq!(dec.stats().length_rejects, 2);
        assert_eq!(dec.stats().crc_failures, 0);
        assert_eq!(dec.scan.crc_checks, 1);
        assert_eq!(dec.buffered(), 0);
    }
}
