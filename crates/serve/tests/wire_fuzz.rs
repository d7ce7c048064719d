//! Decode-fuzz suite for the durability wire format.
//!
//! Pins the decoder's *totality* contract: any byte string — truncated
//! at every boundary, bit-flipped, or crafted with lying length/count
//! fields behind a **valid** checksum — produces a typed
//! [`WireError`], never a panic and never an allocation the input's
//! own length cannot justify. Round-trip properties pin the other
//! direction: `decode(encode(x)) == x` bit-exactly for random deltas,
//! the kernel checkpoints they carry, and full scheduler snapshots.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use rvf_core::{CompiledSim, SimBuilder, StateCheckpoint};
use rvf_serve::wire::{
    checksum64, decode_stream, DeltaOp, DeltaRecord, DigestRecord, SchedulerSnapshot,
    SnapshotModel, SnapshotRequest, SnapshotSession, SnapshotSlot, WireError, WireRecord, WireView,
    HEADER_LEN, KIND_DELTA, KIND_SNAPSHOT, MAGIC, WIRE_VERSION,
};
use rvf_serve::{ModelRegistry, Scheduler, ServeConfig};

/// Seeded xorshift64* for mutation positions (independent of the
/// proptest shim's own RNG so mutation counts are explicit).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn model() -> CompiledSim {
    let mut b = SimBuilder::new();
    let stat = b.drive_poly(&[0.0, 0.8, 0.02]);
    let d = b.drive_poly(&[0.0, 1.0, 0.1]);
    b.set_static_drive(stat);
    b.block_real(-1.0e9, d);
    b.block_pair(-0.5e9, 2.0e9, d, stat);
    b.try_build().expect("valid wiring")
}

/// A realistic checkpoint: an actual mid-stream kernel state.
fn live_checkpoint() -> StateCheckpoint {
    let sim = model();
    let mut state = sim.new_state();
    let u: Vec<f64> = (0..13).map(|i| (i as f64 * 0.31).sin()).collect();
    let mut out = vec![0.0; u.len()];
    sim.simulate_into(1.0e-10, &u, &mut state, &mut out).expect("stream");
    state.export()
}

/// A realistic snapshot: an actual scheduler with served and queued
/// work.
fn live_snapshot_bytes() -> Bytes {
    let registry = ModelRegistry::build([("m".to_string(), model())]);
    let mut sched = Scheduler::new(registry, ServeConfig::default());
    let id = sched.registry().id("m").expect("registered");
    let s0 = sched.open_session(id, 1.0e-10, 0).expect("open");
    let s1 = sched.open_session(id, 2.0e-10, 0).expect("open");
    sched.submit(s0, &[0.1, 0.2, 0.3], 0, 100).expect("submit");
    sched.tick(1);
    sched.submit(s0, &[0.4; 5], 2, 100).expect("submit");
    sched.submit(s1, &[-0.2; 2], 2, 100).expect("submit");
    sched.close_session(s1).expect("close");
    sched.snapshot().expect("snapshot")
}

/// One valid encoded exemplar of every record kind and of every delta
/// op that carries samples, plus one that carries none.
fn exemplars() -> Vec<(&'static str, Bytes)> {
    vec![
        ("snapshot", live_snapshot_bytes()),
        (
            "delta-open",
            WireRecord::Delta(DeltaRecord {
                seq: 1,
                op: DeltaOp::SessionOpened {
                    session: 0x0000_0002_0000_0000,
                    model: 0,
                    dt_bits: 1.0e-10f64.to_bits(),
                    last_activity: 12,
                    state: live_checkpoint(),
                },
            })
            .encode(),
        ),
        (
            "delta-admit",
            WireRecord::Delta(DeltaRecord {
                seq: 2,
                op: DeltaOp::Admitted {
                    request: 7,
                    session: 0x0000_0002_0000_0000,
                    deadline: 200,
                    not_before: 13,
                    input: vec![0.5, -0.25, 1.0e-9, -0.0],
                },
            })
            .encode(),
        ),
        (
            "delta-complete",
            WireRecord::Delta(DeltaRecord {
                seq: 3,
                op: DeltaOp::ChunkCompleted {
                    request: 7,
                    session: 0x0000_0002_0000_0000,
                    last_activity: 14,
                    state: live_checkpoint(),
                },
            })
            .encode(),
        ),
        (
            "delta-retry",
            WireRecord::Delta(DeltaRecord {
                seq: 4,
                op: DeltaOp::RequestRetried { request: 8, attempts: 2, not_before: 21 },
            })
            .encode(),
        ),
        (
            "digest",
            WireRecord::Digest(DigestRecord { seq: 2, digest: 0xDEAD_BEEF_0BAD_F00D }).encode(),
        ),
    ]
}

/// Frames an arbitrary payload with a *valid* checksum — the tool for
/// crafting records whose only lie is an inner length/count field.
fn frame_raw(kind: u8, version: u16, payload: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(HEADER_LEN + payload.len() + 8);
    b.put_u32_le(MAGIC);
    b.put_u16_le(version);
    b.put_u8(kind);
    b.put_u8(0);
    b.put_u64_le(payload.len() as u64);
    b.put_slice(payload);
    let body = b.freeze();
    let sum = checksum64(body.as_ref());
    let mut full = BytesMut::with_capacity(body.len() + 8);
    full.put_slice(body.as_ref());
    full.put_u64_le(sum);
    full.freeze()
}

#[test]
fn truncation_at_every_boundary_is_typed() {
    for (what, bytes) in exemplars() {
        let raw = bytes.as_ref();
        for len in 0..raw.len() {
            let cut = Bytes::from(raw[..len].to_vec());
            match WireRecord::decode(&cut) {
                Err(_) => {}
                Ok(_) => panic!("{what}: {len}-byte prefix of a {}-byte record decoded", raw.len()),
            }
        }
        assert!(WireRecord::decode(&bytes).is_ok(), "{what}: the untruncated record decodes");
    }
}

#[test]
fn wrong_magic_version_and_kind_are_typed() {
    for (what, bytes) in exemplars() {
        let raw = bytes.as_ref();
        let mut m = raw.to_vec();
        m[0] = m[0].wrapping_add(1);
        assert!(
            matches!(WireRecord::decode(&Bytes::from(m)), Err(WireError::BadMagic { .. })),
            "{what}"
        );
        let mut v = raw.to_vec();
        v[4] = 0x7F;
        assert!(
            matches!(
                WireRecord::decode(&Bytes::from(v)),
                Err(WireError::UnsupportedVersion { .. })
            ),
            "{what}"
        );
        let mut k = raw.to_vec();
        k[6] = 0;
        assert!(
            matches!(
                WireRecord::decode(&Bytes::from(k)),
                Err(WireError::UnknownRecord { kind: 0 })
            ),
            "{what}"
        );
        // A future version is rejected even with a recomputed checksum:
        // version gates before payload parsing.
        let plen = raw.len() - HEADER_LEN - 8;
        let future = frame_raw(raw[6], WIRE_VERSION + 1, &raw[HEADER_LEN..HEADER_LEN + plen]);
        assert!(
            matches!(WireRecord::decode(&future), Err(WireError::UnsupportedVersion { .. })),
            "{what}"
        );
    }
}

#[test]
fn lying_count_fields_with_valid_checksums_cannot_oom() {
    // For the snapshot and every delta op that carries samples, a
    // payload whose first count/length field claims ~4 billion elements
    // behind a perfectly valid checksum. `BadCount` must fire before
    // any allocation is sized from it.
    let lying_checkpoint = |b: &mut BytesMut| {
        for _ in 0..4 {
            b.put_u64_le(1); // shape
        }
        b.put_u64_le(0); // uprev
        b.put_u8(1); // started
        b.put_u64_le(0); // samples
        b.put_u64_le(u64::MAX); // coef_dt
        b.put_u32_le(u32::MAX); // v0 count lies
    };
    let mut open = BytesMut::new();
    open.put_u64_le(1); // seq
    open.put_u8(1); // OP_OPEN
    open.put_u64_le(2); // session
    open.put_u32_le(0); // model
    open.put_u64_le(1.0e-10f64.to_bits()); // dt_bits
    open.put_u64_le(3); // last_activity
    lying_checkpoint(&mut open);
    let mut complete = BytesMut::new();
    complete.put_u64_le(4); // seq
    complete.put_u8(3); // OP_COMPLETE
    for _ in 0..3 {
        complete.put_u64_le(1); // request, session, last_activity
    }
    lying_checkpoint(&mut complete);
    let mut snap = BytesMut::new();
    for _ in 0..6 {
        snap.put_u64_le(1); // cfg u64 fields
    }
    snap.put_u32_le(1); // max_retries
    snap.put_u64_le(1);
    snap.put_u64_le(1);
    snap.put_u64_le(1);
    snap.put_u64_le(0); // next_request
    snap.put_u64_le(0); // rebuilds
    snap.put_u8(0); // degraded
    snap.put_u32_le(u32::MAX); // model count lies
    let mut delta = BytesMut::new();
    delta.put_u64_le(3); // seq
    delta.put_u8(2); // OP_ADMIT
    for _ in 0..4 {
        delta.put_u64_le(1); // request, session, deadline, not_before
    }
    delta.put_u32_le(u32::MAX); // admitted sample count lies
    for (what, kind, payload) in [
        ("snapshot", KIND_SNAPSHOT, snap),
        ("delta-open", KIND_DELTA, open),
        ("delta-admit", KIND_DELTA, delta),
        ("delta-complete", KIND_DELTA, complete),
    ] {
        let bytes = frame_raw(kind, WIRE_VERSION, payload.freeze().as_ref());
        assert!(
            matches!(WireRecord::decode(&bytes), Err(WireError::BadCount { .. })),
            "{what}: lying count must be rejected before allocation"
        );
    }
}

#[test]
fn lying_payload_length_is_typed() {
    for (what, bytes) in exemplars() {
        let raw = bytes.as_ref();
        let plen = raw.len() - HEADER_LEN - 8;
        let payload = &raw[HEADER_LEN..HEADER_LEN + plen];
        // Declared length one past the actual payload: the trailer
        // bytes get absorbed into the "payload" and the buffer comes up
        // short.
        let mut b = BytesMut::new();
        b.put_u32_le(MAGIC);
        b.put_u16_le(WIRE_VERSION);
        b.put_u8(raw[6]);
        b.put_u8(0);
        b.put_u64_le(plen as u64 + 1);
        b.put_slice(payload);
        let body = b.freeze();
        let sum = checksum64(body.as_ref());
        let mut full = BytesMut::new();
        full.put_slice(body.as_ref());
        full.put_u64_le(sum);
        assert!(
            matches!(WireRecord::decode(&full.freeze()), Err(WireError::Truncated { .. })),
            "{what}: inflated payload_len"
        );
        // Declared length one short: the spare byte trails the record.
        if plen > 0 {
            let mut b = BytesMut::new();
            b.put_u32_le(MAGIC);
            b.put_u16_le(WIRE_VERSION);
            b.put_u8(raw[6]);
            b.put_u8(0);
            b.put_u64_le(plen as u64 - 1);
            b.put_slice(payload);
            let body = b.freeze();
            let sum = checksum64(body.as_ref());
            let mut full = BytesMut::new();
            full.put_slice(body.as_ref());
            full.put_u64_le(sum);
            assert!(
                matches!(WireRecord::decode(&full.freeze()), Err(WireError::TrailingBytes { .. })),
                "{what}: deflated payload_len"
            );
        }
    }
}

/// Every 1-bit and every 2-bit error in `record` is caught: the
/// corrupted bytes decode to a typed error, never to a record. Returns
/// the number of corrupted images tried.
fn assert_low_weight_errors_detected(what: &str, record: &Bytes) -> usize {
    let raw = record.as_ref();
    let bits = 8 * raw.len();
    let mut tried = 0;
    for i in 0..bits {
        for j in i..bits {
            let mut bad = raw.to_vec();
            bad[i / 8] ^= 1 << (i % 8);
            if j != i {
                bad[j / 8] ^= 1 << (j % 8);
            }
            let bad = Bytes::from(bad);
            let decoded = WireRecord::decode(&bad);
            assert!(decoded.is_err(), "{what}: flipping bits {i} and {j} went undetected");
            tried += 1;
        }
    }
    tried
}

/// The checksum's guarantee, checked exhaustively rather than sampled:
/// no error of weight one or two in a digest record (40 bytes: every
/// 1-bit flip and all 51,040 pairs) or in a one-sample admission delta
/// decodes. A weaker checksum — a single-lane word hash, say — leaves
/// some pairs undetected and fails here.
#[test]
fn every_one_and_two_bit_error_is_detected() {
    let digest =
        WireRecord::Digest(DigestRecord { seq: 9, digest: 0x0123_4567_89AB_CDEF }).encode();
    assert_eq!(digest.len(), 40);
    assert_eq!(assert_low_weight_errors_detected("digest", &digest), 320 + 51_040);
    let admitted = WireRecord::Delta(DeltaRecord {
        seq: 5,
        op: DeltaOp::Admitted {
            request: 5,
            session: 0x0000_0001_0000_0002,
            deadline: 77,
            not_before: 3,
            input: vec![0.375],
        },
    })
    .encode();
    assert_eq!(admitted.len(), 77);
    let bits = 8 * admitted.len();
    assert_eq!(assert_low_weight_errors_detected("admitted", &admitted), bits * (bits + 1) / 2);
}

/// Concatenated bytes of every exemplar, in order — a replication-log
/// shaped buffer for the stream-decoding fuzz.
fn exemplar_stream() -> (Vec<Bytes>, Bytes) {
    let records: Vec<Bytes> = exemplars().into_iter().map(|(_, b)| b).collect();
    let mut buf = Vec::new();
    for r in &records {
        buf.extend_from_slice(r.as_ref());
    }
    (records, Bytes::from(buf))
}

/// `decode_stream` over every exemplar back to back: each record comes
/// out bit-identical to its framing, the iterator ends without an
/// error, and the consumed offset is the full buffer.
#[test]
fn stream_decodes_every_kind_to_a_clean_end() {
    let (records, buf) = exemplar_stream();
    let total = buf.len();
    let mut stream = decode_stream(&buf);
    for (i, want) in records.iter().enumerate() {
        let got = stream.next().expect("record present").expect("record decodes");
        assert_eq!(got.encode(), *want, "record {i} did not survive the stream");
    }
    assert!(stream.next().is_none());
    assert_eq!(stream.consumed(), total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cut a multi-record stream at *any* byte: every whole record
    /// before the cut decodes, then the stream stops — never with a
    /// hard error, because a truncated tail is a log caught mid-append,
    /// not corruption. The resume offset is the last boundary: the
    /// whole buffer exactly when the cut is clean, short of it when a
    /// partial record trails.
    #[test]
    fn stream_cut_anywhere_distinguishes_clean_from_partial(seed in 1u64..(1u64 << 48)) {
        let (records, buf) = exemplar_stream();
        let mut rng = Rng::new(seed);
        let cut = rng.below(buf.len() + 1);
        let mut boundary = 0usize;
        let mut whole = 0usize;
        for r in &records {
            if boundary + r.len() > cut {
                break;
            }
            boundary += r.len();
            whole += 1;
        }
        let prefix = Bytes::from(buf.as_ref()[..cut].to_vec());
        let mut stream = decode_stream(&prefix);
        for i in 0..whole {
            let got = stream.next().expect("record present");
            prop_assert!(got.is_ok(), "whole record {i} failed under cut {cut}");
        }
        prop_assert!(stream.next().is_none(), "a cut tail must stop the stream, not fail it");
        prop_assert!(stream.next().is_none(), "a stopped stream stays stopped");
        prop_assert_eq!(stream.consumed(), boundary, "resume offset must be the last boundary");
    }

    /// Bit-flip a multi-record stream anywhere: iteration terminates
    /// with some clean prefix of records followed by either a typed
    /// error, a partial tail, or a clean end. Never a panic, never an
    /// unbounded loop, and the resume offset never passes the buffer.
    #[test]
    fn stream_bit_flips_terminate_typed(seed in 1u64..(1u64 << 48)) {
        let (records, buf) = exemplar_stream();
        let mut rng = Rng::new(seed);
        let mut mutant = buf.as_ref().to_vec();
        for _ in 0..1 + rng.below(4) {
            let bit = rng.below(mutant.len() * 8);
            mutant[bit / 8] ^= 1 << (bit % 8);
        }
        let mutant = Bytes::from(mutant);
        let mut stream = decode_stream(&mutant);
        let mut yielded = 0usize;
        let mut erred = false;
        for item in stream.by_ref() {
            match item {
                Ok(_) => yielded += 1,
                Err(_) => {
                    erred = true;
                    break;
                }
            }
        }
        prop_assert!(yielded <= records.len(), "stream invented records");
        prop_assert!(stream.next().is_none(), "stream did not stop after {}", erred);
        prop_assert!(stream.consumed() <= mutant.len());
    }

    /// ≥ 512 random bit-flip mutations per record type (64 cases × 8
    /// mutations): every mutant decodes to a typed error — or, when the
    /// flips happen to cancel, to the original record. Never a panic.
    #[test]
    fn random_bit_flips_decode_typed(seed in 1u64..(1u64 << 48)) {
        let mut rng = Rng::new(seed);
        for (what, bytes) in exemplars() {
            let raw = bytes.as_ref();
            for _ in 0..8 {
                let mut mutant = raw.to_vec();
                for _ in 0..1 + rng.below(4) {
                    let bit = rng.below(mutant.len() * 8);
                    mutant[bit / 8] ^= 1 << (bit % 8);
                }
                let unchanged = mutant == raw;
                match WireRecord::decode(&Bytes::from(mutant)) {
                    Err(_) => {}
                    Ok(_) => prop_assert!(
                        unchanged,
                        "{what}: a mutated record decoded successfully"
                    ),
                }
            }
        }
    }

    /// Random truncations and random trailing garbage on top of the
    /// exhaustive boundary sweep: still typed.
    #[test]
    fn random_reframings_decode_typed(seed in 1u64..(1u64 << 48)) {
        let mut rng = Rng::new(seed);
        for (_what, bytes) in exemplars() {
            let raw = bytes.as_ref();
            let cut = rng.below(raw.len());
            prop_assert!(WireRecord::decode(&Bytes::from(raw[..cut].to_vec())).is_err());
            let mut long = raw.to_vec();
            long.extend(std::iter::repeat_n(0xA5, 1 + rng.below(9)));
            let long = Bytes::from(long);
            let got = WireRecord::decode(&long);
            let trailing = matches!(got, Err(WireError::TrailingBytes { .. }));
            prop_assert!(trailing, "expected TrailingBytes, got {:?}", got);
        }
    }

    /// Pure-noise buffers decode typed.
    #[test]
    fn random_garbage_decodes_typed(seed in 1u64..(1u64 << 48)) {
        let mut rng = Rng::new(seed);
        let len = rng.below(200);
        let noise: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        prop_assert!(WireRecord::decode(&Bytes::from(noise)).is_err());
    }

    /// Round trip on random admitted chunks, including NaN and ±∞
    /// samples: the wire layer carries raw bit patterns, so re-encoding
    /// the decoded record reproduces the exact bytes, and the view reads
    /// back every sample's bits.
    #[test]
    fn random_chunks_round_trip_bit_exact(seed in 1u64..(1u64 << 48)) {
        let mut rng = Rng::new(seed);
        let mut samples: Vec<f64> = (0..rng.below(24))
            .map(|_| f64::from_bits(rng.next()))
            .collect();
        samples.push(f64::NAN);
        samples.push(f64::NEG_INFINITY);
        let op = DeltaOp::Admitted {
            request: rng.next(),
            session: rng.next(),
            deadline: rng.next(),
            not_before: rng.next(),
            input: samples.clone(),
        };
        let encoded = WireRecord::Delta(DeltaRecord { seq: rng.next(), op }).encode();
        let decoded = WireRecord::decode(&encoded);
        prop_assert!(decoded.is_ok());
        if let Ok(back) = decoded {
            prop_assert_eq!(back.encode(), encoded.clone());
            let WireView::Delta(DeltaRecord { op: DeltaOp::Admitted { input, .. }, .. }) = back
            else {
                panic!("an admission decodes to an admission");
            };
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&input.to_vec()), bits(&samples));
        }
    }

    /// Round trip on random (even shape-inconsistent) checkpoints, in
    /// the deltas that carry them, and on hand-built snapshots:
    /// `decode(encode(x)) == x`. Semantic validation is
    /// `import_state`/`restore`'s job, not the wire's.
    #[test]
    fn random_checkpoints_and_snapshots_round_trip(seed in 1u64..(1u64 << 48)) {
        let mut rng = Rng::new(seed);
        let ckpt = StateCheckpoint {
            shape: [rng.below(5) as u64, rng.below(5) as u64, rng.next() % 4, rng.next() % 3],
            v0: (0..rng.below(6)).map(|_| f64::from_bits(rng.next())).collect(),
            sre: (0..rng.below(6)).map(|_| f64::from_bits(rng.next())).collect(),
            sim: (0..rng.below(6)).map(|_| f64::from_bits(rng.next())).collect(),
            uprev: rng.next(),
            started: rng.next().is_multiple_of(2),
            samples: rng.next(),
            coef_dt: rng.next(),
        };
        let snap = SchedulerSnapshot {
            cfg: ServeConfig {
                max_sessions: rng.below(1 << 20),
                idle_timeout: rng.next(),
                ..ServeConfig::default()
            },
            next_request: rng.next(),
            rebuilds: rng.next() % 8,
            degraded: rng.next().is_multiple_of(2),
            models: vec![SnapshotModel { name: "αβγ-model".to_string(), fingerprint: rng.next() }],
            slots: vec![
                SnapshotSlot { generation: rng.next() as u32, session: None },
                SnapshotSlot {
                    generation: rng.next() as u32,
                    session: Some(SnapshotSession {
                        model: 0,
                        dt_bits: rng.next(),
                        last_activity: rng.next(),
                        state: ckpt.clone(),
                    }),
                },
            ],
            free: vec![0],
            queue: vec![SnapshotRequest {
                id: rng.next(),
                session: rng.next(),
                deadline: rng.next(),
                attempts: rng.next() as u32,
                not_before: rng.next(),
                input: (0..rng.below(8)).map(|_| f64::from_bits(rng.next())).collect(),
            }],
        };
        let open = DeltaOp::SessionOpened {
            session: rng.next(),
            model: rng.next() as u32,
            dt_bits: rng.next(),
            last_activity: rng.next(),
            state: ckpt.clone(),
        };
        let complete = DeltaOp::ChunkCompleted {
            request: rng.next(),
            session: rng.next(),
            last_activity: rng.next(),
            state: ckpt,
        };
        for record in [
            WireRecord::Delta(DeltaRecord { seq: rng.next(), op: open }),
            WireRecord::Delta(DeltaRecord { seq: rng.next(), op: complete }),
            WireRecord::Snapshot(snap),
        ] {
            let encoded = record.encode();
            let decoded = WireRecord::decode(&encoded);
            prop_assert!(decoded.is_ok());
            if let Ok(back) = decoded {
                prop_assert_eq!(back.encode(), encoded);
            }
        }
    }

    /// End to end on random models and states: a kernel state shipped
    /// through the wire in a completion delta (export → encode → decode
    /// → copy out → import, the follower's path) continues
    /// bit-identically to the state that never left the process.
    #[test]
    fn checkpoints_of_random_models_resume_bitwise(
        a in -3.0e9..-0.2e9f64,
        gain in 0.2..2.0f64,
        cut in 1usize..40,
    ) {
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0, gain, 0.05]);
        b.set_static_drive(s);
        b.block_real(a, s);
        let sim = b.try_build().expect("valid wiring");
        let dt = 1.0e-10;
        let u: Vec<f64> = (0..40).map(|i| (i as f64 * 0.23).sin()).collect();
        let want = sim.simulate(dt, &u);
        let mut state = sim.new_state();
        let mut head = vec![0.0; cut];
        sim.simulate_into(dt, &u[..cut], &mut state, &mut head).expect("head");
        let state = state.export();
        let op = DeltaOp::ChunkCompleted { request: 0, session: 0, last_activity: 0, state };
        let bytes = WireRecord::Delta(DeltaRecord { seq: 1, op }).encode();
        let Ok(WireView::Delta(DeltaRecord { op: DeltaOp::ChunkCompleted { state: s, .. }, .. })) =
            WireRecord::decode(&bytes)
        else {
            panic!("checkpoint failed to round trip");
        };
        let ckpt = StateCheckpoint {
            shape: s.shape,
            v0: s.v0.to_vec(),
            sre: s.sre.to_vec(),
            sim: s.sim.to_vec(),
            uprev: s.uprev,
            started: s.started,
            samples: s.samples,
            coef_dt: s.coef_dt,
        };
        let mut resumed = sim.import_state(&ckpt).expect("import");
        let mut tail = vec![0.0; 40 - cut];
        sim.simulate_into(dt, &u[cut..], &mut resumed, &mut tail).expect("tail");
        for (i, (g, w)) in head.iter().chain(&tail).zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "sample {}", i);
        }
    }
}
