//! FNV-1a-64, the one hash of the repository: `Machine::arch_hash`, the
//! snapshot container's integrity field and every content address are
//! this function.

pub(crate) const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// What eight zero bytes multiply the hash by.
const PRIME_POW_8: u64 = pow(PRIME, 8);

/// FNV-1a 64-bit over `bytes`. Non-cryptographic; stable across platforms.
///
/// A step over a zero byte is `h ^ 0` then `· PRIME`, so a run of `n`
/// zero bytes multiplies the hash by `PRIME`ⁿ (mod 2⁶⁴). Zero runs are
/// taken a `u64` word at a time and their power raised by squaring: the
/// result is the byte-serial definition's for every input, and memory
/// banks that are mostly zero hash at the speed they can be read.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    extend(OFFSET_BASIS, bytes)
}

/// Continues the hash `h` of some prefix over the `bytes` that follow it.
pub(crate) fn extend(mut h: u64, bytes: &[u8]) -> u64 {
    let serial = |h: u64, bytes: &[u8]| {
        let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(PRIME);
        bytes.iter().fold(h, step)
    };
    let mut words = bytes.chunks_exact(8);
    let mut zero_words = 0;
    for word in &mut words {
        if *word == [0; 8] {
            zero_words += 1;
        } else {
            h = serial(h.wrapping_mul(pow(PRIME_POW_8, zero_words)), word);
            zero_words = 0;
        }
    }
    serial(
        h.wrapping_mul(pow(PRIME_POW_8, zero_words)),
        words.remainder(),
    )
}

/// `base` to the `exp`, mod 2⁶⁴.
const fn pow(mut base: u64, mut exp: usize) -> u64 {
    let mut acc = 1u64;
    while exp != 0 {
        if exp & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_testutil::Rng;

    /// The definition.
    fn reference(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// `n` seeded bytes that are never zero, so that a zero run between
    /// two of these is exactly as long as asked.
    fn noise(rng: &mut Rng, n: usize) -> Vec<u8> {
        (0..n).map(|_| 1 + (rng.next_u64() % 255) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn agrees_with_the_byte_serial_definition() {
        assert_eq!(fnv1a64(&[]), reference(&[]));
        let mib = vec![0u8; 1 << 20];
        assert_eq!(fnv1a64(&mib), reference(&mib));

        // Noise, a zero run, noise: every run length 0..=70 at every
        // start alignment and with every tail length, 20 seeds each.
        let mut rng = Rng::new(18);
        let mut buffers = 0;
        for run in 0..=70 {
            for align in 0..8 {
                for tail in 0..8 {
                    for _ in 0..20 {
                        let mut buf = noise(&mut rng, align);
                        buf.resize(align + run, 0);
                        buf.extend(noise(&mut rng, tail));
                        assert_eq!(fnv1a64(&buf), reference(&buf), "{run} {align} {tail}");
                        buffers += 1;
                    }
                }
            }
        }
        // Several runs of random lengths between random bytes.
        for _ in 0..2_000 {
            let mut buf = Vec::new();
            for _ in 0..rng.index(6) {
                let n = rng.index(24);
                buf.extend((0..n).map(|_| rng.next_u64() as u8));
                buf.resize(buf.len() + rng.index(71), 0);
            }
            assert_eq!(fnv1a64(&buf), reference(&buf));
            buffers += 1;
        }
        assert!(buffers >= 10_000, "{buffers} buffers");

        // Long runs, 4 KiB to 1 MiB, at every alignment and tail.
        for run in [4 << 10, (64 << 10) + 3, (256 << 10) - 5, 1 << 20] {
            for align in 0..8 {
                for tail in 0..8 {
                    let mut buf = noise(&mut rng, align);
                    buf.resize(align + run, 0);
                    buf.extend(noise(&mut rng, tail));
                    assert_eq!(fnv1a64(&buf), reference(&buf), "{run} {align} {tail}");
                }
            }
        }
    }

    /// 8.5 MB of banks, all zero but the boot hart's registers; the
    /// constant is what the byte-serial hasher this function replaced
    /// made of it (commit e15919a).
    #[test]
    fn arch_hash_of_a_fresh_64_core_machine_is_unchanged() {
        let exit = "main:\n li t0, -1\n li a0, 0\n p_ret a0, t0";
        let image = lbp_asm::assemble(exit).unwrap();
        let m = crate::Machine::new(crate::LbpConfig::cores(64), &image).unwrap();
        assert_eq!(m.arch_hash(), 0xfaa7_c8a7_5753_0c96);
    }

    #[test]
    fn extending_a_prefix_is_hashing_the_whole() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i % 7) as u8 * (i % 3) as u8).collect();
        for cut in [0, 1, 8, 13, 199, 200] {
            let (head, rest) = bytes.split_at(cut);
            assert_eq!(extend(fnv1a64(head), rest), fnv1a64(&bytes));
        }
    }
}
