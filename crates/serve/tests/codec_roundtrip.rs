//! Satellite 3: property tests over the wire codec.
//!
//! Two families:
//!
//! 1. **Round trip** — every protocol message kind, with randomized
//!    payloads (all query shapes, all reply shapes, all update
//!    variants, all atom types), survives encode → frame → deframe →
//!    decode bit-exactly.
//! 2. **Hostile bytes** — torn frames (every strict prefix), garbage
//!    prefixes, flipped bytes, and raw random input produce clean
//!    typed errors from the decoder, never a panic and never an
//!    allocation blow-up.

use gsdb::{AppliedUpdate, Atom, Label, Oid, Path, Value};
use gsview_obs::telemetry::{CounterPoint, HistogramPoint, Resource, SpanRecord, TelemetryBatch};
use gsview_serve::frame::{encode_frame, FrameDecoder, DEFAULT_MAX_FRAME, HEADER_LEN, MAGIC};
use gsview_serve::msg::{Reply, ReplyBody, Request, RequestBody, ServedStats};
use gsview_warehouse::protocol::{
    ObjectInfo, RootPathInfo, SourceQuery, SourceReply, UpdateReport,
};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// Strategies
// ----------------------------------------------------------------------

/// Short names with a mix of plain ASCII, separators, and non-ASCII —
/// OIDs and labels cross the wire by name, so names are data.
fn name() -> impl Strategy<Value = String> {
    (0..5usize, any::<u64>()).prop_map(|(len, bits)| {
        const ALPHABET: &[&str] = &["a", "B", "7", ".", "-", "_", "é", "日", " ", "\\"];
        let mut s = String::from("n");
        let mut b = bits;
        for _ in 0..len {
            s.push_str(ALPHABET[(b % ALPHABET.len() as u64) as usize]);
            b /= ALPHABET.len() as u64;
        }
        s
    })
}

fn oid() -> impl Strategy<Value = Oid> {
    name().prop_map(|n| Oid::new(&n))
}

fn label() -> impl Strategy<Value = Label> {
    name().prop_map(|n| Label::new(&n))
}

fn path() -> impl Strategy<Value = Path> {
    prop::collection::vec(label(), 0..4).prop_map(Path)
}

fn atom() -> BoxedStrategy<Atom> {
    prop_oneof![
        any::<i64>().prop_map(Atom::Int),
        // Finite reals only: NaN breaks PartialEq, not the codec.
        any::<i32>().prop_map(|v| Atom::Real(v as f64 / 16.0)),
        any::<bool>().prop_map(Atom::Bool),
        name().prop_map(|s| Atom::str(&s)),
        (label(), any::<i64>()).prop_map(|(u, v)| Atom::Tagged(u, v)),
    ]
    .boxed()
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        atom().prop_map(Value::Atom),
        prop::collection::vec(oid(), 0..4).prop_map(Value::set_of),
    ]
    .boxed()
}

fn object_info() -> impl Strategy<Value = ObjectInfo> {
    (oid(), label(), value()).prop_map(|(oid, label, value)| ObjectInfo { oid, label, value })
}

fn source_query() -> BoxedStrategy<SourceQuery> {
    prop_oneof![
        oid().prop_map(SourceQuery::Fetch),
        (oid(), oid()).prop_map(|(root, n)| SourceQuery::PathFromRoot { root, n }),
        (oid(), path()).prop_map(|(n, p)| SourceQuery::Ancestor { n, p }),
        (oid(), path()).prop_map(|(n, p)| SourceQuery::AncestorsAll { n, p }),
        (oid(), path()).prop_map(|(n, p)| SourceQuery::Reach { n, p }),
        oid().prop_map(SourceQuery::LabelOf),
    ]
    .boxed()
}

fn source_reply() -> BoxedStrategy<SourceReply> {
    prop_oneof![
        prop_oneof![Just(None), object_info().prop_map(Some)].prop_map(SourceReply::Object),
        prop_oneof![Just(None), path().prop_map(Some)].prop_map(SourceReply::PathResult),
        prop_oneof![Just(None), oid().prop_map(Some)].prop_map(SourceReply::AncestorResult),
        prop::collection::vec(oid(), 0..4).prop_map(SourceReply::Ancestors),
        prop::collection::vec(object_info(), 0..3).prop_map(SourceReply::Objects),
        prop_oneof![Just(None), label().prop_map(Some)].prop_map(SourceReply::LabelResult),
    ]
    .boxed()
}

fn applied_update() -> BoxedStrategy<AppliedUpdate> {
    prop_oneof![
        (oid(), oid()).prop_map(|(parent, child)| AppliedUpdate::Insert { parent, child }),
        (oid(), oid()).prop_map(|(parent, child)| AppliedUpdate::Delete { parent, child }),
        (oid(), atom(), atom()).prop_map(|(oid, old, new)| AppliedUpdate::Modify { oid, old, new }),
        oid().prop_map(|oid| AppliedUpdate::Create { oid }),
        oid().prop_map(|oid| AppliedUpdate::Remove { oid }),
    ]
    .boxed()
}

fn root_path_info() -> impl Strategy<Value = RootPathInfo> {
    (oid(), path(), prop::collection::vec(oid(), 0..5))
        .prop_map(|(target, path, oids)| RootPathInfo { target, path, oids })
}

fn update_report() -> impl Strategy<Value = UpdateReport> {
    (
        name(),
        any::<u64>(),
        applied_update(),
        prop::collection::vec(object_info(), 0..3),
        prop::collection::vec(root_path_info(), 0..2),
    )
        .prop_map(|(source, seq, update, info, paths)| UpdateReport {
            source,
            seq,
            update,
            info,
            paths,
        })
}

fn served_stats() -> impl Strategy<Value = ServedStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        // Finite means only: NaN breaks PartialEq, not the codec.
        any::<i32>().prop_map(|v| v as f64 / 8.0),
        prop::collection::vec(any::<u64>(), 0..8),
    )
        .prop_map(
            |(
                (epoch, objects, set_objects),
                (atomic_objects, edges, max_fanout),
                mean_fanout,
                shard_occupancy,
            )| {
                ServedStats {
                    epoch,
                    objects,
                    set_objects,
                    atomic_objects,
                    edges,
                    max_fanout,
                    mean_fanout,
                    shard_occupancy,
                }
            },
        )
}

fn span_record() -> impl Strategy<Value = SpanRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        name(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        any::<bool>(),
    )
        .prop_map(
            |((trace, span, parent), nm, (thread, start_ns, elapsed_ns), error)| SpanRecord {
                trace,
                span,
                parent,
                name: nm,
                thread,
                start_ns,
                elapsed_ns,
                error,
            },
        )
}

fn counter_point() -> impl Strategy<Value = CounterPoint> {
    (name(), any::<u64>(), any::<u64>()).prop_map(|(nm, delta, total)| CounterPoint {
        name: nm,
        delta,
        total,
    })
}

fn histogram_point() -> impl Strategy<Value = HistogramPoint> {
    (
        name(),
        any::<u64>(),
        any::<u64>(),
        (any::<u64>(), any::<u64>()),
        prop::collection::vec((0..=64u8, any::<u64>()), 0..6),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(nm, count, sum, (min, max), buckets, (p50, p90, p99))| HistogramPoint {
                name: nm,
                count,
                sum,
                min,
                max,
                buckets,
                p50,
                p90,
                p99,
            },
        )
}

fn telemetry_batch() -> impl Strategy<Value = TelemetryBatch> {
    (
        any::<u64>(),
        any::<u64>(),
        (name(), any::<u32>()),
        prop::collection::vec(span_record(), 0..4),
        prop::collection::vec(counter_point(), 0..4),
        prop::collection::vec(histogram_point(), 0..3),
    )
        .prop_map(
            |(seq, dropped, (service, pid), spans, counters, histograms)| TelemetryBatch {
                seq,
                dropped,
                resource: Resource { service, pid },
                spans,
                counters,
                histograms,
            },
        )
}

fn request() -> impl Strategy<Value = Request> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        prop_oneof![
            source_query().prop_map(RequestBody::Query),
            Just(RequestBody::PollReports),
            Just(RequestBody::Checkpoint),
            Just(RequestBody::Epoch),
            Just(RequestBody::Ping),
            Just(RequestBody::Subscribe),
            Just(RequestBody::Stats),
        ],
    )
        .prop_map(|(id, trace, span, body)| Request {
            id,
            trace,
            span,
            body,
        })
}

fn reply() -> impl Strategy<Value = Reply> {
    (
        any::<u64>(),
        prop_oneof![
            source_reply().prop_map(ReplyBody::Query),
            prop::collection::vec(update_report(), 0..3).prop_map(ReplyBody::Reports),
            (name(), any::<u64>())
                .prop_map(|(source, next_seq)| ReplyBody::Checkpoint { source, next_seq }),
            any::<u64>().prop_map(ReplyBody::Epoch),
            Just(ReplyBody::Pong),
            Just(ReplyBody::Busy),
            name().prop_map(ReplyBody::Err),
            Just(ReplyBody::Subscribed),
            served_stats().prop_map(ReplyBody::Stats),
            telemetry_batch().prop_map(ReplyBody::Telemetry),
        ],
    )
        .prop_map(|(id, body)| Reply { id, body })
}

// ----------------------------------------------------------------------
// Round trips
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn request_roundtrips_through_frame_and_codec(req in request()) {
        let framed = encode_frame(&req.encode());
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&framed);
        let payload = dec.next_frame().unwrap().expect("one whole frame fed");
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
        prop_assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn reply_roundtrips_through_frame_and_codec(rep in reply()) {
        let framed = encode_frame(&rep.encode());
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&framed);
        let payload = dec.next_frame().unwrap().expect("one whole frame fed");
        prop_assert_eq!(Reply::decode(&payload).unwrap(), rep);
    }

    #[test]
    fn split_feeds_reassemble(rep in reply(), cut in any::<u64>()) {
        // Any two-part split of the byte stream reassembles.
        let framed = encode_frame(&rep.encode());
        let cut = (cut as usize) % (framed.len() + 1);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&framed[..cut]);
        if cut < framed.len() {
            prop_assert_eq!(dec.next_frame().unwrap(), None, "frame completed early");
            dec.extend(&framed[cut..]);
        }
        let payload = dec.next_frame().unwrap().expect("whole frame fed");
        prop_assert_eq!(Reply::decode(&payload).unwrap(), rep);
    }
}

// ----------------------------------------------------------------------
// Hostile bytes: torn frames, garbage, corruption — errors, not panics
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn torn_frames_never_complete_and_never_panic(req in request(), keep in any::<u64>()) {
        // A strict prefix either waits for more bytes or (never) errors;
        // it must not yield a frame.
        let framed = encode_frame(&req.encode());
        let keep = (keep as usize) % framed.len(); // strict prefix
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&framed[..keep]);
        match dec.next_frame() {
            Ok(None) => {}
            Ok(Some(_)) => prop_assert!(false, "torn frame decoded as complete"),
            Err(e) => prop_assert!(false, "prefix of a valid frame errored: {e}"),
        }
        prop_assert_eq!(dec.mid_frame(), keep > 0);
    }

    #[test]
    fn garbage_prefix_is_a_typed_error(first in any::<u8>(), rest in prop::collection::vec(any::<u8>(), 0..64)) {
        // Any stream not starting with MAGIC errors immediately.
        let first = if first == MAGIC { first ^ 0xFF } else { first };
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&[first]);
        dec.extend(&rest);
        match dec.next_frame() {
            Err(gsview_serve::FrameError::BadMagic(b)) => prop_assert_eq!(b, first),
            other => prop_assert!(false, "expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn flipped_bytes_are_clean_errors(rep in reply(), pos in any::<u64>(), xor in 1..=255u8) {
        // Corrupt any single byte of a valid frame: the decoder must
        // return a typed error or wait for more bytes — never panic,
        // never hand back a payload that then decodes to a different
        // message *and* passes CRC (the CRC catches payload flips;
        // header flips surface as BadMagic/Oversize/length skew).
        let mut framed = encode_frame(&rep.encode());
        let pos = (pos as usize) % framed.len();
        framed[pos] ^= xor;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&framed);
        loop {
            match dec.next_frame() {
                Ok(Some(payload)) => {
                    // Only a length-field flip can yield a "complete"
                    // frame here, and then only a shorter one whose
                    // CRC happened to be over different bytes — the
                    // reply decode must not panic either way.
                    let _ = Reply::decode(&payload);
                }
                Ok(None) => break,
                Err(_) => break, // typed error: the stream would drop
            }
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut dec = FrameDecoder::new(1 << 16);
        dec.extend(&bytes);
        while let Ok(Some(payload)) = dec.next_frame() {
            let _ = Request::decode(&payload);
            let _ = Reply::decode(&payload);
        }
    }

    #[test]
    fn random_payloads_never_panic_message_decode(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        // Straight to the message layer (as if CRC passed on garbage —
        // possible for an attacker who *computes* the CRC).
        let _ = Request::decode(&bytes);
        let _ = Reply::decode(&bytes);
    }
}

#[test]
fn oversize_header_is_rejected_without_allocation() {
    // Declared length far past the cap: rejected from the 9 header
    // bytes alone — the decoder must not wait for (or allocate) the
    // declared payload.
    let mut hdr = vec![MAGIC];
    hdr.extend_from_slice(&u32::MAX.to_le_bytes());
    hdr.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(hdr.len(), HEADER_LEN);
    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
    dec.extend(&hdr);
    assert!(matches!(
        dec.next_frame(),
        Err(gsview_serve::FrameError::Oversize { .. })
    ));
}
