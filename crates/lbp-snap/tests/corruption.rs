//! Red fixtures for the two ways a snapshot file gets damaged in the
//! field: a torn write that truncates the container, and bit rot that
//! alters payload bytes under an intact length. Each must be rejected
//! with its *specific* diagnostic — recovery code in `lbp-batch` picks
//! a fallback checkpoint based on which one it sees — and never with a
//! generic parse error or a panic. So must a container of the previous
//! format and one whose intact payload has no machine header.

use std::path::PathBuf;

use lbp_sim::{LbpConfig, Machine, SnapError};
use lbp_snap::{fnv1a64, SnapFileError, CONTAINER_HEADER_BYTES, MAGIC};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbp-snap-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A real mid-run snapshot written through the public API.
fn fixture(name: &str) -> (PathBuf, Vec<u8>) {
    let image = lbp_asm::assemble(
        "main:
            li   t1, 40
            li   t2, 0
        loop:
            addi t2, t2, 1
            bne  t2, t1, loop
            li   t0, -1
            li   a0, 0
            p_ret a0, t0",
    )
    .unwrap();
    let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
    assert!(!m.run_to(20).unwrap(), "fixture program is still running");
    let state = m.snapshot();
    let path = scratch(name);
    lbp_snap::save(&state, &path).unwrap();
    (path.clone(), std::fs::read(&path).unwrap())
}

#[test]
fn truncated_container_reports_short_read_with_byte_counts() {
    let (path, bytes) = fixture("truncated.lbpsnap");
    let total = bytes.len() as u64;
    // A torn write can stop anywhere: inside the header, one byte in,
    // or one byte short of complete. Every cut must classify as a
    // short read carrying the exact byte accounting.
    for cut in [
        0,
        1,
        CONTAINER_HEADER_BYTES - 1,
        CONTAINER_HEADER_BYTES,
        bytes.len() - 1,
    ] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match lbp_snap::load(&path) {
            Err(SnapFileError::ShortRead { expected, got }) => {
                assert_eq!(got, cut as u64, "cut at {cut}: wrong `got`");
                let want = if cut < CONTAINER_HEADER_BYTES {
                    CONTAINER_HEADER_BYTES as u64
                } else {
                    total
                };
                assert_eq!(expected, want, "cut at {cut}: wrong `expected`");
            }
            other => panic!("cut at {cut}: expected ShortRead, got {other:?}"),
        }
    }
    // The message names the failure mode so operators can tell a torn
    // write from bit rot without reading source.
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    let msg = lbp_snap::load(&path).unwrap_err().to_string();
    assert!(msg.contains("truncated"), "diagnostic was: {msg}");
    assert!(msg.contains("torn"), "diagnostic was: {msg}");
}

#[test]
fn bit_flipped_container_reports_hash_mismatch_with_both_hashes() {
    let (path, bytes) = fixture("flipped.lbpsnap");
    // Flip single bits across the payload (first, middle, last byte).
    let first = CONTAINER_HEADER_BYTES;
    let mid = CONTAINER_HEADER_BYTES + (bytes.len() - CONTAINER_HEADER_BYTES) / 2;
    let last = bytes.len() - 1;
    for at in [first, mid, last] {
        let mut damaged = bytes.clone();
        damaged[at] ^= 0x10;
        std::fs::write(&path, &damaged).unwrap();
        match lbp_snap::load(&path) {
            Err(SnapFileError::HashMismatch { expected, got }) => {
                assert_ne!(expected, got, "flip at {at}: hashes must differ");
            }
            other => panic!("flip at {at}: expected HashMismatch, got {other:?}"),
        }
    }
    let mut damaged = bytes.clone();
    damaged[mid] ^= 0x10;
    std::fs::write(&path, &damaged).unwrap();
    let msg = lbp_snap::load(&path).unwrap_err().to_string();
    assert!(
        msg.contains("content-hash mismatch"),
        "diagnostic was: {msg}"
    );

    // Undamaged bytes still load — the fixture itself is green.
    std::fs::write(&path, &bytes).unwrap();
    assert!(lbp_snap::load(&path).is_ok());
}

#[test]
fn header_hash_field_flip_is_a_mismatch_not_a_parse_error() {
    // Flipping the *recorded* hash (the header's last eight bytes) leaves
    // the payload intact; the diagnostic must still be HashMismatch with
    // `expected` carrying the altered header value.
    let (path, bytes) = fixture("header-hash.lbpsnap");
    let mut damaged = bytes.clone();
    damaged[CONTAINER_HEADER_BYTES - 8] ^= 0x01;
    std::fs::write(&path, &damaged).unwrap();
    assert!(matches!(
        lbp_snap::load(&path),
        Err(SnapFileError::HashMismatch { .. })
    ));
}

#[test]
fn a_v2_container_is_refused_as_predating_the_layout() {
    let (path, bytes) = fixture("v2.lbpsnap");
    let payload = &bytes[CONTAINER_HEADER_BYTES..];
    // The v2 header restated the payload's engine, cycle and core count
    // between the version and the length.
    let mut v2 = MAGIC.to_vec();
    v2.extend(2u16.to_le_bytes());
    v2.push(0);
    v2.extend(20u64.to_le_bytes());
    v2.extend(2u64.to_le_bytes());
    v2.extend((payload.len() as u64).to_le_bytes());
    v2.extend(fnv1a64(payload).to_le_bytes());
    v2.extend(payload);
    std::fs::write(&path, &v2).unwrap();
    match lbp_snap::load(&path) {
        Err(SnapFileError::Format(msg)) => {
            assert!(msg.contains("v2 predates"), "diagnostic was: {msg}")
        }
        other => panic!("expected a Format refusal, got {other:?}"),
    }
}

#[test]
fn an_intact_payload_without_a_machine_header_is_a_payload_refusal() {
    let (path, _) = fixture("no-machine.lbpsnap");
    // A container whose length and hash hold, around payloads too short
    // for the machine header or naming no cores.
    for payload in [vec![7u8; 5], vec![0u8; 64]] {
        let mut bytes = MAGIC.to_vec();
        bytes.extend(lbp_snap::FORMAT_VERSION.to_le_bytes());
        bytes.extend((payload.len() as u64).to_le_bytes());
        bytes.extend(fnv1a64(&payload).to_le_bytes());
        bytes.extend(&payload);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(
                lbp_snap::load(&path),
                Err(SnapFileError::Snap(
                    SnapError::Truncated | SnapError::Corrupt(_)
                ))
            ),
            "{} payload bytes",
            payload.len()
        );
    }
}
