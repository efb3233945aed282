//! Property-based tests for the pattern engine.
//!
//! The key oracle is a naive backtracking matcher over the AST, written
//! independently of the NFA pipeline. Random ASTs and random paths over a
//! small alphabet are checked for agreement, and the lattice constructions
//! (determinize / complement / meet / join / subsumes) are validated
//! against their logical definitions on sampled paths.

use actorspace_atoms::{atom, Atom, Path};
use actorspace_pattern::{ast::Ast, lattice, matcher, Pattern};
use proptest::prelude::*;

/// Naive backtracking match: does `ast` accept `path[i..]` exactly?
fn oracle(ast: &Ast, path: &[Atom]) -> bool {
    // Returns the set of suffix offsets reachable after consuming a prefix.
    fn step(ast: &Ast, path: &[Atom], at: usize, out: &mut Vec<usize>) {
        match ast {
            Ast::Empty => out.push(at),
            Ast::Atom(a) => {
                if path.get(at) == Some(a) {
                    out.push(at + 1);
                }
            }
            Ast::AnyAtom => {
                if at < path.len() {
                    out.push(at + 1);
                }
            }
            Ast::Class { atoms, negated } => {
                if let Some(x) = path.get(at) {
                    let inside = atoms.contains(x);
                    if inside != *negated {
                        out.push(at + 1);
                    }
                }
            }
            Ast::Seq(parts) => {
                let mut fronts = vec![at];
                for p in parts {
                    let mut next = Vec::new();
                    for &f in &fronts {
                        step(p, path, f, &mut next);
                    }
                    next.sort_unstable();
                    next.dedup();
                    fronts = next;
                    if fronts.is_empty() {
                        return;
                    }
                }
                out.extend(fronts);
            }
            Ast::Alt(parts) => {
                for p in parts {
                    step(p, path, at, out);
                }
            }
            Ast::Star(inner) => {
                let mut fronts = vec![at];
                let mut seen = vec![at];
                out.push(at);
                while let Some(f) = fronts.pop() {
                    let mut next = Vec::new();
                    step(inner, path, f, &mut next);
                    for n in next {
                        if !seen.contains(&n) {
                            seen.push(n);
                            fronts.push(n);
                            out.push(n);
                        }
                    }
                }
            }
            Ast::Plus(inner) => {
                // p+ = p then p*
                let star = Ast::Star(inner.clone());
                let mut mids = Vec::new();
                step(inner, path, at, &mut mids);
                mids.sort_unstable();
                mids.dedup();
                for m in mids {
                    step(&star, path, m, out);
                }
            }
            Ast::Opt(inner) => {
                out.push(at);
                step(inner, path, at, out);
            }
        }
    }
    let mut out = Vec::new();
    step(ast, path, 0, &mut out);
    out.contains(&path.len())
}

/// A small fixed alphabet so random patterns and paths collide often.
fn alphabet() -> Vec<Atom> {
    ["pa", "pb", "pc", "pd"].iter().map(|s| atom(s)).collect()
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (0usize..4).prop_map(|i| alphabet()[i])
}

fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        arb_atom().prop_map(Ast::Atom),
        Just(Ast::AnyAtom),
        Just(Ast::Empty),
        (proptest::collection::vec(arb_atom(), 1..3), any::<bool>())
            .prop_map(|(atoms, neg)| Ast::class(atoms, neg)),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Ast::seq),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Ast::alt),
            inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Plus(Box::new(a))),
            inner.prop_map(|a| Ast::Opt(Box::new(a))),
        ]
    })
}

fn arb_path() -> impl Strategy<Value = Vec<Atom>> {
    proptest::collection::vec(arb_atom(), 0..6)
}

/// A literal run of `matcher::INLINE_STATES` atoms: ahead of any pattern it
/// takes the Thompson NFA past the inline state-set form, and the lattice's
/// determinized and complemented automata too (one DFA state per prefix
/// atom, plus the accept state).
fn long_prefix() -> Vec<Atom> {
    (0..matcher::INLINE_STATES)
        .map(|i| alphabet()[i % 4])
        .collect()
}

/// `ast` behind [`long_prefix`], and a path that is the prefix (whole, or
/// missing its last atom when `short`) followed by `p`. When `looped`, the
/// pattern is `(prefix/ast)*/pd` and the path runs prefix-and-`p` twice,
/// then `pd`: the star's epsilon moves then run from the highest states
/// back to the lowest, across bit words.
fn behind_long_prefix(ast: Ast, p: Vec<Atom>, short: bool, looped: bool) -> (Ast, Vec<Atom>) {
    let prefix = long_prefix();
    let body = Ast::seq(prefix.iter().copied().map(Ast::Atom).chain([ast]).collect());
    let mut path = prefix;
    if short {
        path.pop();
    }
    path.extend(p);
    if !looped {
        return (body, path);
    }
    let tail = alphabet()[3];
    let ast = Ast::seq(vec![Ast::Star(Box::new(body)), Ast::Atom(tail)]);
    let mut twice = long_prefix();
    twice.extend_from_slice(&path[matcher::INLINE_STATES - usize::from(short)..]);
    twice.extend(path);
    twice.push(tail);
    (ast, twice)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The NFA pipeline agrees with the backtracking oracle.
    #[test]
    fn nfa_matches_oracle(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast.clone());
        let path = Path::from_atoms(p.clone());
        prop_assert_eq!(pat.matches(&path), oracle(&ast, &p));
    }

    /// Every atom no transition label names steps each reachable state set
    /// to the same successor, and an atom whose successor differs from
    /// theirs is one `Pattern::names` reports: the premise that lets a
    /// resolution scan step once for all keys whose next atom is unnamed.
    #[test]
    fn unnamed_atoms_step_alike(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let (x, y) = (atom("p-unnamed-x"), atom("p-unnamed-y"));
        prop_assert!(!pat.names(x) && !pat.names(y));
        let mut st = pat.start();
        for a in p.into_iter().map(Some).chain([None]) {
            let unnamed = st.advance(pat.nfa(), x);
            prop_assert_eq!(&unnamed, &st.advance(pat.nfa(), y));
            for b in alphabet() {
                if st.advance(pat.nfa(), b) != unnamed {
                    prop_assert!(pat.names(b), "{} steps apart but is not named", b);
                }
            }
            if let Some(a) = a {
                st = st.advance(pat.nfa(), a);
            }
        }
    }

    /// The same agreement for NFAs above `matcher::INLINE_STATES`, whose
    /// state sets keep their bits on the heap: the Thompson NFA and the
    /// lattice's determinized and complemented automata of a long literal
    /// prefix ahead of a random pattern.
    #[test]
    fn heap_form_nfas_match_oracle(
        ast in arb_ast(),
        p in arb_path(),
        short in any::<bool>(),
        looped in any::<bool>(),
    ) {
        let (ast, p) = behind_long_prefix(ast, p, short, looped);
        let want = oracle(&ast, &p);
        let pat = Pattern::from_ast(ast);
        let dfa = lattice::determinize(pat.nfa());
        let comp = lattice::complement(pat.nfa());
        for nfa in [pat.nfa(), &dfa, &comp] {
            prop_assert!(nfa.len() > matcher::INLINE_STATES, "{} states", nfa.len());
        }
        prop_assert_eq!(pat.matches(&Path::from_atoms(p.clone())), want);
        prop_assert_eq!(matcher::matches(&dfa, &p), want);
        prop_assert_eq!(matcher::matches(&comp, &p), !want);
    }

    /// Printing a pattern and re-parsing it preserves the language.
    #[test]
    fn display_parse_round_trip_preserves_language(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let reparsed = Pattern::parse(pat.text()).expect("printed pattern must parse");
        let path = Path::from_atoms(p);
        prop_assert_eq!(pat.matches(&path), reparsed.matches(&path));
    }

    /// Determinization preserves the language.
    #[test]
    fn determinize_preserves_language(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let dfa = lattice::determinize(pat.nfa());
        let path = Path::from_atoms(p.clone());
        prop_assert_eq!(matcher::matches(&dfa, &p), pat.matches(&path));
    }

    /// The complement automaton accepts exactly the rejected paths.
    #[test]
    fn complement_is_negation(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let comp = lattice::complement(pat.nfa());
        let path = Path::from_atoms(p.clone());
        prop_assert_eq!(matcher::matches(&comp, &p), !pat.matches(&path));
    }

    /// meet = logical AND, join = logical OR on sampled paths.
    #[test]
    fn meet_and_join_are_and_or(a in arb_ast(), b in arb_ast(), p in arb_path()) {
        let pa = Pattern::from_ast(a);
        let pb = Pattern::from_ast(b);
        let path = Path::from_atoms(p.clone());
        let m = lattice::meet(pa.nfa(), pb.nfa());
        prop_assert_eq!(
            matcher::matches(&m, &p),
            pa.matches(&path) && pb.matches(&path)
        );
        let j = lattice::join(&pa, &pb);
        prop_assert_eq!(
            j.matches(&path),
            pa.matches(&path) || pb.matches(&path)
        );
    }

    /// Subsumption is sound: if `general` subsumes `specific`, every path
    /// matched by `specific` is matched by `general`.
    #[test]
    fn subsumption_soundness(a in arb_ast(), b in arb_ast(), p in arb_path()) {
        let pa = Pattern::from_ast(a);
        let pb = Pattern::from_ast(b);
        if lattice::subsumes(&pa, &pb) {
            let path = Path::from_atoms(p.clone());
            if pb.matches(&path) {
                prop_assert!(pa.matches(&path),
                    "{} subsumes {} but misses {}", pa, pb, path);
            }
        }
    }

    /// Both patterns always subsume their meet and are subsumed by their join.
    #[test]
    fn lattice_order_laws(a in arb_ast(), b in arb_ast()) {
        let pa = Pattern::from_ast(a);
        let pb = Pattern::from_ast(b);
        let j = lattice::join(&pa, &pb);
        prop_assert!(lattice::subsumes(&j, &pa));
        prop_assert!(lattice::subsumes(&j, &pb));
    }

    /// `may_overlap` agrees with a sampled witness: any path matching both
    /// implies overlap is reported.
    #[test]
    fn overlap_soundness(a in arb_ast(), b in arb_ast(), p in arb_path()) {
        let pa = Pattern::from_ast(a);
        let pb = Pattern::from_ast(b);
        let path = Path::from_atoms(p.clone());
        if pa.matches(&path) && pb.matches(&path) {
            prop_assert!(pa.may_overlap(&pb));
        }
    }

    /// Emptiness: a pattern that matched some sampled path is satisfiable.
    #[test]
    fn satisfiability_soundness(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let path = Path::from_atoms(p);
        if pat.matches(&path) {
            prop_assert!(!pat.is_empty_language());
        }
    }
}
