//! The occupancy set: which cores, links or ports hold something.
//!
//! Every per-cycle loop of the machine walks one of these instead of
//! everything that exists, so a cycle costs what is occupied. Two owners
//! keep one: [`Queues`](crate::queues::Queues), whose set is its
//! non-empty queues, and `Machine::awake`, the cores that tick. Neither
//! is serialized.

/// A set of small indices, one bit each.
#[derive(Debug)]
pub(crate) struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    /// The empty set over `0..len`.
    pub fn new(len: usize) -> IndexSet {
        IndexSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// The members of `0..len` that `member` picks.
    pub fn from_fn(len: usize, member: impl Fn(usize) -> bool) -> IndexSet {
        let mut set = IndexSet::new(len);
        (0..len).filter(|&i| member(i)).for_each(|i| set.insert(i));
        set
    }

    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// How many words of 64 members the set has.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// The members `64 * w..64 * (w + 1)`, one bit each.
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// The members in ascending order, for a walk that changes nothing.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words()).flat_map(|w| members(w, self.word(w)))
    }
}

/// The members that `bits`, the `w`-th word of a set — or of the union of
/// several — stands for, in ascending order.
///
/// The per-cycle loops walk a set as `for w in 0..set.words()` around `for
/// i in members(w, set.word(w))`. The word is read when the walk reaches
/// it, so the body is free to change the set: a member it inserts at or
/// below `i` waits for the next walk, which is what a loop over every
/// index does with a queue that fills behind it. No body inserts or
/// removes above `i`.
#[inline]
pub(crate) fn members(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let i = 64 * w + bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_come_in_ascending_order_across_the_word_boundary() {
        let set = IndexSet::from_fn(68, |i| [0, 5, 63, 64, 67].contains(&i));
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 5, 63, 64, 67]);
        assert_eq!(set.words(), 2);
        assert!(set.contains(64) && !set.contains(65));
        assert_eq!(IndexSet::new(0).words(), 0);
    }

    #[test]
    fn a_walk_leaves_what_is_inserted_behind_it_for_the_next() {
        let mut set = IndexSet::from_fn(130, |i| i == 10 || i == 70);
        let mut seen = Vec::new();
        for w in 0..set.words() {
            for i in members(w, set.word(w)) {
                seen.push(i);
                set.remove(i);
                if i == 70 {
                    set.insert(69); // behind, same word
                    set.insert(3); // behind, a word already walked
                    set.insert(70); // the one being visited
                }
            }
        }
        assert_eq!(seen, [10, 70]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [3, 69, 70]);
    }

    #[test]
    fn a_union_is_walked_once() {
        let a = IndexSet::from_fn(64, |i| i % 2 == 0 && i < 8);
        let b = IndexSet::from_fn(64, |i| i == 2 || i == 63);
        let union: Vec<_> = members(0, a.word(0) | b.word(0)).collect();
        assert_eq!(union, [0, 2, 4, 6, 63]);
    }
}
