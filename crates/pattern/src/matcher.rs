//! NFA simulation: whole-path matching, incremental state sets for walking
//! nested actorSpaces, and the decision procedures (satisfiability and
//! intersection emptiness) used by the description lattice and by
//! actorSpace managers checking pattern overlap.

use std::collections::VecDeque;

use actorspace_atoms::Atom;

use crate::nfa::{Nfa, State, StateId, Trans};

/// The most NFA states a [`StateSet`] holds without a heap allocation.
/// Every Thompson NFA of a pattern with up to 64 AST nodes fits.
pub const INLINE_STATES: usize = 64 * INLINE_WORDS;

const INLINE_WORDS: usize = 2;

/// A set of NFA states, as a bitset. The working representation of an
/// in-progress match. For an NFA of up to [`INLINE_STATES`] states the bit
/// words are stored inline, so cloning, advancing and epsilon-closing a set
/// allocate nothing and the matching engine can fork it freely when
/// descending into nested actorSpaces; larger NFAs (mostly the lattice's
/// determinized and complemented automata) keep them on the heap. `Hash`
/// supports visited-state deduplication when walking (possibly cyclic)
/// space graphs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StateSet {
    words: Words,
}

/// The storage form is fixed by the NFA's size, so every set of one NFA has
/// the same form and equal sets have equal representations (unused inline
/// bits stay zero).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl StateSet {
    fn empty(n_states: usize) -> StateSet {
        let n = n_states.div_ceil(64);
        let words = if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; n].into_boxed_slice())
        };
        StateSet { words }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    fn insert(&mut self, s: StateId) -> bool {
        set_bit(self.words_mut(), s)
    }

    fn contains(&self, s: StateId) -> bool {
        self.words()[s as usize / 64] & (1 << (s % 64)) != 0
    }

    /// True if no states are live — the match can never succeed, so tree
    /// walks prune here.
    pub fn is_dead(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// True if the accept state is live: the atoms consumed so far form a
    /// complete match.
    pub fn is_accepting(&self, nfa: &Nfa) -> bool {
        self.contains(nfa.accept())
    }

    /// Consumes one atom, returning the successor state set
    /// (epsilon-closed).
    pub fn advance(&self, nfa: &Nfa, atom: Atom) -> StateSet {
        let mut next = StateSet::empty(nfa.len());
        let mut pending = StateSet::empty(nfa.len());
        let (set, work) = (next.words_mut(), pending.words_mut());
        let states = nfa.states();
        for (w, &word) in self.words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (label, to) in &states[s].trans {
                    if label.accepts(atom) && set_bit(set, *to) {
                        set_bit(work, *to);
                    }
                }
            }
        }
        eps_close(states, set, work);
        next
    }
}

/// Sets bit `s`, returning true if it was clear.
fn set_bit(words: &mut [u64], s: StateId) -> bool {
    let (w, bit) = (s as usize / 64, 1u64 << (s % 64));
    let clear = words[w] & bit == 0;
    words[w] |= bit;
    clear
}

/// Adds to `set` every state reachable by epsilon moves from the states in
/// `pending`, draining `pending` as the worklist. Both are bit words of the
/// same form, so closing an inline set allocates nothing.
fn eps_close(states: &[State], set: &mut [u64], pending: &mut [u64]) {
    let mut w = 0;
    while let Some(&word) = pending.get(w) {
        if word == 0 {
            w += 1;
            continue;
        }
        pending[w] = word & (word - 1);
        let s = w * 64 + word.trailing_zeros() as usize;
        for &to in &states[s].eps {
            if set_bit(set, to) {
                set_bit(pending, to);
                w = w.min(to as usize / 64);
            }
        }
    }
}

/// The epsilon-closed start set of `nfa`.
pub fn start(nfa: &Nfa) -> StateSet {
    let mut set = StateSet::empty(nfa.len());
    let mut pending = StateSet::empty(nfa.len());
    set.insert(nfa.start());
    pending.insert(nfa.start());
    eps_close(nfa.states(), set.words_mut(), pending.words_mut());
    set
}

/// Whole-path match: does `nfa` accept exactly the atom sequence `path`?
pub fn matches(nfa: &Nfa, path: &[Atom]) -> bool {
    let mut set = start(nfa);
    for &a in path {
        if set.is_dead() {
            return false;
        }
        set = set.advance(nfa, a);
    }
    set.is_accepting(nfa)
}

/// True if the NFA accepts at least one path. Because the alphabet is open,
/// every transition except `In([])` is traversable, so this is plain
/// reachability.
pub fn is_satisfiable(nfa: &Nfa) -> bool {
    let mut seen = StateSet::empty(nfa.len());
    seen.insert(nfa.start());
    let mut queue = VecDeque::from([nfa.start()]);
    while let Some(s) = queue.pop_front() {
        if s == nfa.accept() {
            return true;
        }
        let st = &nfa.states()[s as usize];
        for &to in &st.eps {
            if seen.insert(to) {
                queue.push_back(to);
            }
        }
        for (label, to) in &st.trans {
            if label.satisfiable() && seen.insert(*to) {
                queue.push_back(*to);
            }
        }
    }
    false
}

/// Can two transition labels consume the *same* atom? Exact for an open
/// (infinite) alphabet: `NotIn × NotIn` is always compatible because some
/// atom outside both finite sets always exists.
fn compatible(a: &Trans, b: &Trans) -> bool {
    use Trans::*;
    match (a, b) {
        (Atom(x), other) | (other, Atom(x)) => other.accepts(*x),
        (Any, other) | (other, Any) => other.satisfiable(),
        (In(s), In(t)) => s.iter().any(|x| t.binary_search(x).is_ok()),
        (In(s), NotIn(t)) | (NotIn(t), In(s)) => s.iter().any(|x| t.binary_search(x).is_err()),
        (NotIn(_), NotIn(_)) => true,
    }
}

/// True if some path is accepted by *both* NFAs: breadth-first search of the
/// product automaton. Exact (not conservative) over the open atom alphabet.
pub fn intersects(a: &Nfa, b: &Nfa) -> bool {
    let idx = |x: StateId, y: StateId| x as usize * b.len() + y as usize;
    let mut seen = vec![false; a.len() * b.len()];
    let mut queue = VecDeque::new();

    let push =
        |x: StateId, y: StateId, seen: &mut Vec<bool>, queue: &mut VecDeque<(StateId, StateId)>| {
            if !seen[idx(x, y)] {
                seen[idx(x, y)] = true;
                queue.push_back((x, y));
            }
        };

    push(a.start(), b.start(), &mut seen, &mut queue);
    while let Some((x, y)) = queue.pop_front() {
        if x == a.accept() && y == b.accept() {
            return true;
        }
        // Epsilon moves on either side.
        for &to in &a.states()[x as usize].eps {
            push(to, y, &mut seen, &mut queue);
        }
        for &to in &b.states()[y as usize].eps {
            push(x, to, &mut seen, &mut queue);
        }
        // Joint consuming moves.
        for (la, ta) in &a.states()[x as usize].trans {
            for (lb, tb) in &b.states()[y as usize].trans {
                if compatible(la, lb) {
                    push(*ta, *tb, &mut seen, &mut queue);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::compile;
    use crate::parse::parse;
    use actorspace_atoms::path;

    fn nfa(s: &str) -> Nfa {
        compile(&parse(s).unwrap())
    }

    fn m(pat: &str, p: &str) -> bool {
        matches(&nfa(pat), path(p).atoms())
    }

    #[test]
    fn literal_matching() {
        assert!(m("a/b/c", "a/b/c"));
        assert!(!m("a/b/c", "a/b"));
        assert!(!m("a/b/c", "a/b/c/d"));
        assert!(!m("a/b/c", "a/x/c"));
    }

    #[test]
    fn empty_pattern_matches_empty_path() {
        assert!(m("", ""));
        assert!(!m("", "a"));
        assert!(!m("a", ""));
    }

    #[test]
    fn single_wildcard() {
        assert!(m("*", "anything"));
        assert!(!m("*", ""));
        assert!(!m("*", "two/atoms"));
        assert!(m("srv/*", "srv/fib"));
        assert!(!m("srv/*", "srv/fib/fast"));
    }

    #[test]
    fn double_wildcard() {
        assert!(m("**", ""));
        assert!(m("**", "a"));
        assert!(m("**", "a/b/c/d"));
        assert!(m("srv/**", "srv"));
        assert!(m("srv/**", "srv/fib/fast"));
        assert!(!m("srv/**", "cli/fib"));
        assert!(m("**/fast", "srv/fib/fast"));
        assert!(m("**/fast", "fast"));
        assert!(!m("**/fast", "fast/slow"));
    }

    #[test]
    fn alternation() {
        assert!(m("{fib, fact}", "fib"));
        assert!(m("{fib, fact}", "fact"));
        assert!(!m("{fib, fact}", "sqrt"));
        assert!(m("srv/{fib, fact}/v1", "srv/fact/v1"));
        assert!(m("a|b/c", "a"));
        assert!(m("a|b/c", "b/c"));
        assert!(!m("a|b/c", "a/c"));
    }

    #[test]
    fn classes() {
        assert!(m("[a b c]", "b"));
        assert!(!m("[a b c]", "d"));
        assert!(m("[^a b]", "c"));
        assert!(!m("[^a b]", "a"));
        assert!(!m("[^a b]", ""));
    }

    #[test]
    fn repetition() {
        assert!(m("a*", ""));
        assert!(m("a*", "a/a/a"));
        assert!(!m("a*", "a/b"));
        assert!(m("a+", "a"));
        assert!(!m("a+", ""));
        assert!(m("(a/b)*", "a/b/a/b"));
        assert!(!m("(a/b)*", "a/b/a"));
        assert!(m("a?", ""));
        assert!(m("a?", "a"));
        assert!(!m("a?", "a/a"));
    }

    #[test]
    fn incremental_state_sets_fork_correctly() {
        use actorspace_atoms::atom;
        let n = nfa("srv/{fib, fact}");
        let s0 = start(&n);
        let s1 = s0.advance(&n, atom("srv"));
        // Fork: both branches continue from the same prefix state.
        let fib = s1.advance(&n, atom("fib"));
        let fact = s1.advance(&n, atom("fact"));
        let nope = s1.advance(&n, atom("sqrt"));
        assert!(fib.is_accepting(&n));
        assert!(fact.is_accepting(&n));
        assert!(nope.is_dead());
        // The original sets are unchanged by advancing a clone.
        assert!(!s1.is_accepting(&n));
        assert!(!s1.is_dead());
    }

    #[test]
    fn dead_state_detection_prunes() {
        use actorspace_atoms::atom;
        let n = nfa("a/b");
        let s = start(&n).advance(&n, atom("x"));
        assert!(s.is_dead());
        // Advancing a dead set stays dead.
        assert!(s.advance(&n, atom("a")).is_dead());
    }

    #[test]
    fn satisfiability() {
        assert!(is_satisfiable(&nfa("a/b")));
        assert!(is_satisfiable(&nfa("**")));
        assert!(is_satisfiable(&nfa("[^a]")));
        assert!(is_satisfiable(&nfa("")));
    }

    #[test]
    fn intersection_basics() {
        assert!(intersects(&nfa("a/b"), &nfa("a/b")));
        assert!(!intersects(&nfa("a/b"), &nfa("a/c")));
        assert!(intersects(&nfa("a/*"), &nfa("*/b")));
        assert!(!intersects(&nfa("a"), &nfa("a/b")));
        assert!(intersects(&nfa("**"), &nfa("x/y/z")));
    }

    #[test]
    fn intersection_with_negated_classes_uses_open_alphabet() {
        // [^a] and [^b] overlap: any third atom works.
        assert!(intersects(&nfa("[^a]"), &nfa("[^b]")));
        // [a] and [^a] cannot overlap.
        assert!(!intersects(&nfa("[a]"), &nfa("[^a]")));
        // [a b] and [^a] overlap on b.
        assert!(intersects(&nfa("[a b]"), &nfa("[^a]")));
        // [a] and [^a b] cannot.
        assert!(!intersects(&nfa("[a]"), &nfa("[^a b]")));
    }

    #[test]
    fn intersection_with_stars() {
        assert!(intersects(&nfa("a*"), &nfa("a/a")));
        assert!(!intersects(&nfa("a*"), &nfa("b")));
        assert!(intersects(&nfa("(a/b)*"), &nfa("**/b")));
        // Both match the empty path.
        assert!(intersects(&nfa("a*"), &nfa("b*")));
        // Nonempty on both sides impossible: a+ vs b+ share nothing.
        assert!(!intersects(&nfa("a+"), &nfa("b+")));
    }

    #[test]
    fn long_paths_do_not_blow_up() {
        // 200-atom path against a pattern with nested stars: linear scan.
        let pat = nfa("(a|b)*");
        let mut p = Vec::new();
        for i in 0..200 {
            p.push(actorspace_atoms::atom(if i % 2 == 0 { "a" } else { "b" }));
        }
        assert!(matches(&pat, &p));
        p.push(actorspace_atoms::atom("c"));
        assert!(!matches(&pat, &p));
    }
}
