//! Which 32-bit words decode, pinned: the count of accepted words and the
//! FNV-1a hash of them in ascending order (each little-endian), over all
//! 2^32 words (`--ignored`, about 15 s in release) and over a strided
//! subset that tier 1 runs. Every accepted word must encode back to itself.

use lbp_isa::Instr;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Decodes every word of `words` in order and returns how many were
/// accepted and the FNV-1a of the accepted ones.
fn sweep(words: impl Iterator<Item = u32>) -> (u64, u64) {
    let mut count = 0;
    let mut hash = FNV_OFFSET;
    for w in words {
        let Ok(instr) = Instr::decode(w) else {
            continue;
        };
        assert_eq!(instr.encode(), Ok(w), "{w:#010x} decodes to `{instr}`");
        count += 1;
        for b in w.to_le_bytes() {
            hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    (count, hash)
}

#[test]
fn strided_words_decode_as_pinned() {
    // An odd stride reaches every major opcode.
    let (count, hash) = sweep((0..=u32::MAX).step_by(4093));
    assert_eq!((count, hash), (49_438, 0x0266_3d86_7d40_1e35));
}

#[test]
#[ignore = "all 2^32 words: run with --release -- --ignored"]
fn every_word_decodes_as_pinned() {
    let (count, hash) = sweep(0..=u32::MAX);
    assert_eq!((count, hash), (202_343_489, 0xc37d_fe05_5fbb_f2be));
}
