//! What the B-pass and the M-pass share: the image decoded once, the
//! register-file state both lattices are built on, and the one worklist
//! driver that runs their fixpoints.
//!
//! The driver keeps one abstract state per *instruction* and visits
//! instructions in FIFO order: the first state to reach a pc is stored,
//! a later one is met into it and the pc re-queued if that changed it.
//! This is contract, not accident — the M-pass meet widens one step at a
//! time (point → interval → unknown), so where and in which order states
//! meet decides which subscripts stay provable. Only the storage is free:
//! states live in a dense arena indexed through a per-text-word slot
//! table, cleared and reused from one fixpoint to the next.

use std::collections::VecDeque;

use lbp_asm::Image;
use lbp_isa::{Instr, Reg, CODE_BASE};

/// An image with its text decoded and its symbol table inverted, built
/// once and read by every pass.
pub(crate) struct Program<'a> {
    pub image: &'a Image,
    /// One entry per text word; `None` where the word does not decode.
    pub code: Vec<Option<Instr>>,
    /// `(address, smallest name)` of every labelled address, by address.
    labels: Vec<(u32, &'a str)>,
}

impl<'a> Program<'a> {
    pub fn new(image: &'a Image) -> Program<'a> {
        let mut labels: Vec<(u32, &str)> = image
            .symbols
            .iter()
            .map(|(name, &addr)| (addr, name.as_str()))
            .collect();
        labels.sort_unstable();
        labels.dedup_by_key(|&mut (addr, _)| addr);
        Program {
            image,
            code: image.text.iter().map(|&w| Instr::decode(w).ok()).collect(),
            labels,
        }
    }

    /// The text address of word `index`.
    pub fn pc_of(index: usize) -> u32 {
        CODE_BASE + 4 * index as u32
    }

    /// True when `pc` holds an instruction (not data, not out of text).
    pub fn decodable(&self, pc: u32) -> bool {
        text_index(pc, self.code.len()).is_some_and(|i| self.code[i].is_some())
    }

    /// The source line of a text address, for diagnostics (0 = generated).
    pub fn line(&self, pc: u32) -> usize {
        self.image.line_of(pc).unwrap_or(0)
    }

    /// Every labelled address, ascending (text or not).
    pub fn labelled(&self) -> impl Iterator<Item = u32> + '_ {
        self.labels.iter().map(|&(addr, _)| addr)
    }

    /// The symbol naming `pc`, for messages.
    pub fn name(&self, pc: u32) -> String {
        match self.labels.binary_search_by_key(&pc, |&(addr, _)| addr) {
            Ok(i) => self.labels[i].1.to_owned(),
            Err(_) => format!("{pc:#x}"),
        }
    }
}

/// The index of the text word `pc` names, if aligned and inside a text
/// of `words` words.
fn text_index(pc: u32, words: usize) -> Option<usize> {
    let off = pc.checked_sub(CODE_BASE)?;
    let index = (off / 4) as usize;
    (off.is_multiple_of(4) && index < words).then_some(index)
}

/// What a register can abstractly hold.
pub(crate) trait Value: Copy + PartialEq {
    /// Anything: what a clobbered register holds.
    const UNKNOWN: Self;
    /// What `x0` reads as.
    const ZERO: Self;
    /// The register write that changes nothing: writes to `x0` are dropped.
    const KEEP: (Reg, Self) = (Reg::ZERO, Self::ZERO);
    fn meet(self, other: Self) -> Self;
}

/// The path facts a pass tracks besides the registers.
pub(crate) trait Facts: Copy + PartialEq {
    fn meet(self, other: Self) -> Self;
}

/// The per-program-point abstract state of either pass.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct State<V, F> {
    regs: [V; 32],
    pub facts: F,
}

impl<V: Value, F: Facts> State<V, F> {
    /// No register known.
    pub fn unknown(facts: F) -> State<V, F> {
        State {
            regs: [V::UNKNOWN; 32],
            facts,
        }
    }

    pub fn get(&self, r: Reg) -> V {
        if r.is_zero() {
            V::ZERO
        } else {
            self.regs[r.index()]
        }
    }

    pub fn set(&mut self, r: Reg, v: V) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Meets into `self` the state `pred` with `write` applied and its
    /// facts replaced by `facts`; true if `self` changed.
    fn meet_edited(&mut self, pred: &State<V, F>, write: (Reg, V), facts: F) -> bool {
        let (rd, val) = write;
        let mut changed = false;
        for (i, (mine, &theirs)) in self.regs.iter_mut().zip(&pred.regs).enumerate() {
            let theirs = if i == rd.index() && !rd.is_zero() {
                val
            } else {
                theirs
            };
            let m = mine.meet(theirs);
            changed |= m != *mine;
            *mine = m;
        }
        let f = self.facts.meet(facts);
        changed |= f != self.facts;
        self.facts = f;
        changed
    }

    /// Call effects: caller-saved registers are clobbered. `t0`/`t1` are
    /// preserved — by convention they carry the X_PAR identity words and
    /// no generated or protocol-following function touches them.
    pub fn havoc_call(&mut self) {
        for r in [
            Reg::RA,
            Reg::T2,
            Reg::T3,
            Reg::T4,
            Reg::T5,
            Reg::T6,
            Reg::A0,
            Reg::A1,
            Reg::A2,
            Reg::A3,
            Reg::A4,
            Reg::A5,
            Reg::A6,
            Reg::A7,
        ] {
            self.set(r, V::UNKNOWN);
        }
    }
}

/// How a fixpoint run ended.
pub(crate) struct Ran {
    /// Instructions interpreted.
    pub steps: usize,
    /// The budget ran out with work still queued.
    pub cut: bool,
}

/// The worklist driver: per-instruction states and the FIFO of pcs whose
/// state changed since they were last interpreted.
pub(crate) struct Fixpoint<V, F> {
    /// Per text word: 1 + the arena index of its state, 0 = not reached.
    slot: Vec<u32>,
    arena: Vec<State<V, F>>,
    queue: VecDeque<u32>,
}

impl<V: Value, F: Facts> Fixpoint<V, F> {
    pub fn new(program: &Program<'_>) -> Fixpoint<V, F> {
        Fixpoint {
            slot: vec![0; program.code.len()],
            arena: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Forgets every state, keeping the storage for the next fixpoint.
    pub fn clear(&mut self) {
        self.slot.fill(0);
        self.arena.clear();
        self.queue.clear();
    }

    /// The state stored at a reached pc.
    pub fn state(&self, pc: u32) -> &State<V, F> {
        &self.arena[self
            .arena_index(pc)
            .expect("only reached pcs are asked for")]
    }

    fn arena_index(&self, pc: u32) -> Option<usize> {
        let index = text_index(pc, self.slot.len())?;
        (self.slot[index] as usize).checked_sub(1)
    }

    /// Flows `state` into `pc`: the first visit stores it, a later one
    /// meets it in; either queues `pc` if its state changed. False, and
    /// nothing happens, when `pc` is unaligned or outside the text.
    pub fn push(&mut self, pc: u32, state: State<V, F>) -> bool {
        let Some(index) = text_index(pc, self.slot.len()) else {
            return false;
        };
        let changed = match self.slot[index] {
            0 => {
                self.arena.push(state);
                self.slot[index] = self.arena.len() as u32;
                true
            }
            at => self.arena[at as usize - 1].meet_edited(&state, V::KEEP, state.facts),
        };
        if changed {
            self.queue.push_back(index as u32);
        }
        true
    }

    /// [`Fixpoint::push`] of the state at the reached pc `from` with
    /// `write` applied and its facts replaced by `facts`, read in place:
    /// no state is built unless `pc` is reached for the first time.
    pub fn flow(&mut self, from: u32, pc: u32, write: (Reg, V), facts: F) -> bool {
        let Some(index) = text_index(pc, self.slot.len()) else {
            return false;
        };
        let src = self.arena_index(from).expect("flows start at reached pcs");
        let changed = match self.slot[index] {
            0 => {
                self.arena.extend_from_within(src..=src);
                let state = self.arena.last_mut().expect("just extended");
                state.set(write.0, write.1);
                state.facts = facts;
                self.slot[index] = self.arena.len() as u32;
                true
            }
            at => match self.arena.get_disjoint_mut([src, at as usize - 1]) {
                Ok([pred, into]) => into.meet_edited(pred, write, facts),
                // An instruction that flows into itself.
                Err(_) => {
                    let pred = self.arena[src].clone();
                    self.arena[src].meet_edited(&pred, write, facts)
                }
            },
        };
        if changed {
            self.queue.push_back(index as u32);
        }
        true
    }

    /// Interprets queued instructions until none is left or `budget` of
    /// them have run. `step` gets the pc and its decoded instruction
    /// (`None` for a word that does not decode) and pushes successors.
    pub fn run(
        &mut self,
        program: &Program<'_>,
        budget: usize,
        mut step: impl FnMut(&mut Self, u32, Option<Instr>),
    ) -> Ran {
        let mut steps = 0;
        while let Some(index) = self.queue.pop_front() {
            if steps == budget {
                return Ran { steps, cut: true };
            }
            steps += 1;
            let index = index as usize;
            step(self, Program::pc_of(index), program.code[index]);
        }
        Ran { steps, cut: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest lattice: a register is known to be zero, or not.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Bit {
        Zero,
        Any,
    }

    impl Value for Bit {
        const UNKNOWN: Bit = Bit::Any;
        const ZERO: Bit = Bit::Zero;

        fn meet(self, other: Bit) -> Bit {
            if self == other {
                self
            } else {
                Bit::Any
            }
        }
    }

    impl Facts for () {
        fn meet(self, _: ()) {}
    }

    fn image(source: &str) -> Image {
        lbp_asm::assemble(source).unwrap()
    }

    /// Every instruction falls through, clearing `t1`.
    fn fall_through(fix: &mut Fixpoint<Bit, ()>, pc: u32, _: Option<Instr>) {
        fix.flow(pc, pc + 4, (Reg::T1, Bit::Zero), ());
    }

    #[test]
    fn the_budget_cuts_a_run_and_says_so() {
        let image = image("main:\n    nop\n    nop\n    nop\n    nop\n");
        let program = Program::new(&image);
        let mut fix = Fixpoint::new(&program);
        fix.push(image.entry, State::unknown(()));
        let ran = fix.run(&program, 3, fall_through);
        assert_eq!((ran.steps, ran.cut), (3, true));

        // Exactly enough is not a cut; out-of-text successors are refused
        // at the push and never queued.
        fix.clear();
        fix.push(image.entry, State::unknown(()));
        let ran = fix.run(&program, 4, fall_through);
        assert_eq!((ran.steps, ran.cut), (4, false));
        assert!(!fix.push(image.text_end(), State::unknown(())));
        assert!(!fix.push(image.entry + 2, State::unknown(())));
        assert_eq!(fix.state(image.entry + 12).get(Reg::T1), Bit::Zero);
        assert_eq!(fix.state(image.entry + 12).get(Reg::T2), Bit::Any);
    }

    #[test]
    fn a_flow_is_the_push_of_the_edited_state() {
        let image = image("main:\n    nop\n    nop\n");
        let program = Program::new(&image);
        let (a, b) = (image.entry, image.entry + 4);
        let mut seed = State::unknown(());
        seed.set(Reg::T1, Bit::Zero);
        seed.set(Reg::T2, Bit::Zero);

        let mut flowed = Fixpoint::new(&program);
        let mut pushed = Fixpoint::new(&program);
        for fix in [&mut flowed, &mut pushed] {
            fix.push(a, seed.clone());
            fix.push(b, seed.clone());
            while fix.queue.pop_front().is_some() {}
        }
        // Into another instruction, then into itself.
        for to in [b, a] {
            flowed.flow(a, to, (Reg::T1, Bit::Any), ());
            let mut edited = pushed.state(a).clone();
            edited.set(Reg::T1, Bit::Any);
            pushed.push(to, edited);
            assert_eq!(flowed.state(to), pushed.state(to));
            assert_eq!(flowed.state(to).get(Reg::T1), Bit::Any);
            assert_eq!(flowed.state(to).get(Reg::T2), Bit::Zero);
            assert_eq!(flowed.queue, pushed.queue);
        }
        // A write to x0 is no write.
        flowed.queue.clear();
        flowed.flow(a, b, Bit::KEEP, ());
        assert!(flowed.queue.is_empty());
    }

    #[test]
    fn an_address_is_named_by_its_smallest_label() {
        let image = image("zeta:\nmain:\nalpha:\n    nop\nomega:\n    nop\n");
        let program = Program::new(&image);
        assert_eq!(program.name(image.entry), "alpha");
        assert_eq!(program.name(image.entry + 4), "omega");
        assert_eq!(program.name(image.entry + 8), "0x8");
        assert_eq!(program.labelled().collect::<Vec<_>>(), [0, 4]);
    }
}
