//! A family of FIFO queues and its occupancy: every link, inbox and port
//! queue of the machine is one member of a [`Queues`].
//!
//! The family keeps, beside its queues, the [`IndexSet`] of the members
//! that hold something and the number of items in all of them. Every
//! method that can empty or fill a queue keeps both in step, so "member ⇔
//! non-empty" holds by construction and nobody else writes the set. The
//! set and the count are derived state: a snapshot holds the queues only.

use std::collections::VecDeque;
use std::ops::Index;

use crate::index_set::{members, IndexSet};
use crate::snapshot::{SnapError, SnapReader, SnapWriter};

/// Initial capacity of every queue. They are unbounded, but an
/// uncontended run never fills this, so their first-use growth happens in
/// `Machine::new` and not cycle by cycle inside the run.
const QUEUE_DEPTH: usize = 8;

/// `n` FIFO queues, the set of those that hold an item, and the count.
#[derive(Debug)]
pub(crate) struct Queues<T> {
    queues: Vec<VecDeque<T>>,
    busy: IndexSet,
    items: usize,
}

impl<T> Queues<T> {
    /// `n` empty queues.
    pub fn new(n: usize) -> Queues<T> {
        Queues {
            queues: (0..n)
                .map(|_| VecDeque::with_capacity(QUEUE_DEPTH))
                .collect(),
            busy: IndexSet::new(n),
            items: 0,
        }
    }

    /// How many queues the family has.
    pub fn queues(&self) -> usize {
        self.queues.len()
    }

    /// The items in all queues together.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Whether no queue holds an item.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// The queues in index order, for a walk that changes nothing.
    pub fn iter(&self) -> impl Iterator<Item = &VecDeque<T>> {
        self.queues.iter()
    }

    /// How many words of 64 queues the occupancy set has.
    pub fn words(&self) -> usize {
        self.busy.words()
    }

    /// The queues `64 * w..64 * (w + 1)` that hold an item, one bit each.
    pub fn word(&self, w: usize) -> u64 {
        self.busy.word(w)
    }

    /// Appends `item` to queue `i`.
    pub fn push(&mut self, i: usize, item: T) {
        self.queues[i].push_back(item);
        self.busy.insert(i);
        self.items += 1;
    }

    /// Takes the oldest item of queue `i`.
    pub fn pop(&mut self, i: usize) -> Option<T> {
        let item = self.queues[i].pop_front()?;
        self.took(i, 1);
        Some(item)
    }

    /// Moves every item of queue `i` to the end of `out`; the queue keeps
    /// its capacity.
    pub fn drain_into(&mut self, i: usize, out: &mut Vec<T>) {
        let n = self.queues[i].len();
        out.extend(self.queues[i].drain(..));
        self.took(i, n);
    }

    /// Forgets every item of queue `i`; the queue keeps its capacity.
    pub fn clear(&mut self, i: usize) {
        let n = self.queues[i].len();
        self.queues[i].clear();
        self.took(i, n);
    }

    /// The link model, one cycle of it: every queue that holds an item
    /// carries its oldest one, in ascending index order, to the end of
    /// `out` as `(queue, item)`. Returns the contention — the items left
    /// waiting behind the one each queue carried. Nothing is pushed while
    /// the queues are walked, so what the caller routes from `out` onto
    /// one of them moves on the next call, whichever queue it lands on.
    pub fn advance(&mut self, out: &mut Vec<(usize, T)>) -> u64 {
        if self.items == 0 {
            return 0;
        }
        let mut waiting = 0;
        for w in 0..self.busy.words() {
            for i in members(w, self.busy.word(w)) {
                let q = &mut self.queues[i];
                let item = q.pop_front().expect("a busy queue holds an item");
                waiting += q.len() as u64;
                out.push((i, item));
                self.took(i, 1);
            }
        }
        waiting
    }

    /// Accounts for `n` items just taken out of queue `i`.
    fn took(&mut self, i: usize, n: usize) {
        self.items -= n;
        if self.queues[i].is_empty() {
            self.busy.remove(i);
        }
    }

    /// Serializes the queues in index order, each as its length then its
    /// items. The number of queues is the caller's to write, if its
    /// format has it.
    pub(crate) fn snap(&self, w: &mut SnapWriter, put: impl Fn(&T, &mut SnapWriter)) {
        for q in &self.queues {
            w.seq(q.len());
            q.iter().for_each(|item| put(item, w));
        }
    }

    /// Reads back `n` queues written by [`Queues::snap`].
    pub(crate) fn unsnap<'a>(
        r: &mut SnapReader<'a>,
        n: usize,
        get: impl Fn(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Queues<T>, SnapError> {
        let mut queues = Queues::new(n);
        for i in 0..n {
            for _ in 0..r.seq()? {
                queues.push(i, get(r)?);
            }
        }
        Ok(queues)
    }
}

/// Reads queue `i`. Writing goes through the methods, which keep the set.
impl<T> Index<usize> for Queues<T> {
    type Output = VecDeque<T>;

    fn index(&self, i: usize) -> &VecDeque<T> {
        &self.queues[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_testutil::check_cases;

    fn snap_bytes(q: &Queues<u32>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        q.snap(&mut w, |&v, w| w.u32(v));
        w.into_bytes()
    }

    /// The family against a plain `Vec` of queues: the same items in the
    /// same order, the set is the non-empty queues, the count their
    /// total, and a snapshot reads back to the same bytes.
    fn assert_agrees(q: &Queues<u32>, model: &[VecDeque<u32>]) {
        assert!(q.iter().eq(model));
        let busy = (0..q.words()).flat_map(|w| members(w, q.word(w)));
        let non_empty = (0..model.len()).filter(|&i| !model[i].is_empty());
        assert!(busy.eq(non_empty), "the set is not the non-empty queues");
        assert_eq!(q.items(), model.iter().map(VecDeque::len).sum::<usize>());
        assert_eq!(q.is_empty(), q.items() == 0);
        let bytes = snap_bytes(q);
        let mut r = SnapReader::new(&bytes);
        let back = Queues::unsnap(&mut r, q.queues(), |r| r.u32()).unwrap();
        r.finish().unwrap();
        assert_eq!(snap_bytes(&back), bytes);
        assert_eq!(back.items(), q.items());
        assert!((0..q.words()).all(|w| back.word(w) == q.word(w)));
    }

    #[test]
    fn queues_agree_with_a_model_under_random_operations() {
        check_cases(200, 28, |rng, case| {
            // Up to 130 queues: the set spans three words.
            let n = 1 + rng.index(130);
            let mut q = Queues::new(n);
            let mut model = vec![VecDeque::new(); n];
            for _ in 0..200 {
                let i = rng.index(n);
                match rng.weighted(&[6, 2, 1, 1, 2]) {
                    0 => {
                        let v = rng.next_u32();
                        q.push(i, v);
                        model[i].push_back(v);
                    }
                    1 => assert_eq!(q.pop(i), model[i].pop_front(), "case {case}"),
                    2 => {
                        let mut out = vec![7];
                        q.drain_into(i, &mut out);
                        let want: Vec<u32> = [7].into_iter().chain(model[i].drain(..)).collect();
                        assert_eq!(out, want, "case {case}");
                    }
                    3 => {
                        q.clear(i);
                        model[i].clear();
                    }
                    _ => {
                        let mut out = Vec::new();
                        let contention = q.advance(&mut out);
                        let mut want = Vec::new();
                        let mut waiting = 0;
                        for (i, m) in model.iter_mut().enumerate() {
                            if let Some(v) = m.pop_front() {
                                want.push((i, v));
                                waiting += m.len() as u64;
                            }
                        }
                        assert_eq!((out, contention), (want, waiting), "case {case}");
                    }
                }
                assert_agrees(&q, &model);
            }
        });
    }
}
