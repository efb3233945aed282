//! The pattern abstract syntax tree.

use std::fmt;

use actorspace_atoms::{Atom, Path};

/// A pattern expression over the atom alphabet.
///
/// The atom alphabet is *open*: new atoms may be interned at any time, so a
/// negated class `[^a b]` matches infinitely many atoms. All analyses in
/// this crate (emptiness, intersection) account for that.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Ast {
    /// Matches the empty path; the identity of sequencing.
    Empty,
    /// A literal atom.
    Atom(Atom),
    /// `*` — any single atom.
    AnyAtom,
    /// `[a b c]` / `[^a b c]` — one atom (not) in the set. The set is kept
    /// sorted and deduplicated by the constructor.
    Class {
        /// Sorted, deduplicated members.
        atoms: Vec<Atom>,
        /// If true, matches atoms *not* in `atoms`.
        negated: bool,
    },
    /// Sequencing: `a/b/c`.
    Seq(Vec<Ast>),
    /// Alternation: `{p, q}` or `p|q`.
    Alt(Vec<Ast>),
    /// Zero or more repetitions: `(p)*`. `**` desugars to `Star(AnyAtom)`.
    Star(Box<Ast>),
    /// One or more repetitions: `(p)+`.
    Plus(Box<Ast>),
    /// Zero or one: `(p)?`.
    Opt(Box<Ast>),
}

impl Ast {
    /// A class node with the member set normalized (sorted, deduplicated).
    pub fn class(mut atoms: Vec<Atom>, negated: bool) -> Ast {
        atoms.sort_unstable();
        atoms.dedup();
        Ast::Class { atoms, negated }
    }

    /// A sequence, flattening nested sequences and dropping `Empty`.
    pub fn seq(parts: Vec<Ast>) -> Ast {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Ast::Empty => {}
                Ast::Seq(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Ast::Empty,
            1 => flat.pop().expect("len checked"),
            _ => Ast::Seq(flat),
        }
    }

    /// An alternation, flattening nested alternations.
    pub fn alt(parts: Vec<Ast>) -> Ast {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Ast::Alt(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Ast::Empty,
            1 => flat.pop().expect("len checked"),
            _ => Ast::Alt(flat),
        }
    }

    /// The exact-path pattern matching precisely `path` and nothing else.
    pub fn literal(path: &Path) -> Ast {
        Ast::seq(path.iter().map(Ast::Atom).collect())
    }

    /// True if this pattern is *star-free and class-free*: a finite union of
    /// literal paths (possibly with `*` wildcards). Lattice subsumption is
    /// exact on this fragment.
    pub fn is_finite_union(&self) -> bool {
        match self {
            Ast::Empty | Ast::Atom(_) | Ast::AnyAtom => true,
            Ast::Class { .. } => true,
            Ast::Seq(ps) | Ast::Alt(ps) => ps.iter().all(Ast::is_finite_union),
            Ast::Opt(p) => p.is_finite_union(),
            Ast::Star(_) | Ast::Plus(_) => false,
        }
    }

    /// The pattern's *literal run* — the leading atoms every matching path
    /// starts with — and whether the run is the whole pattern (a literal:
    /// no wildcards, classes, alternation, or repetition). Ordered
    /// attribute indexes seek on the run.
    pub fn literal_run(&self) -> (Vec<Atom>, bool) {
        fn collect(ast: &Ast, out: &mut Vec<Atom>) -> bool {
            match ast {
                Ast::Empty => true,
                Ast::Atom(a) => {
                    out.push(*a);
                    true
                }
                Ast::Seq(parts) => parts.iter().all(|p| collect(p, out)),
                _ => false,
            }
        }
        let mut atoms = Vec::new();
        let whole = collect(self, &mut atoms);
        (atoms, whole)
    }

    /// Number of AST nodes — a size measure used by benches.
    pub fn size(&self) -> usize {
        match self {
            Ast::Empty | Ast::Atom(_) | Ast::AnyAtom | Ast::Class { .. } => 1,
            Ast::Seq(ps) | Ast::Alt(ps) => 1 + ps.iter().map(Ast::size).sum::<usize>(),
            Ast::Star(p) | Ast::Plus(p) | Ast::Opt(p) => 1 + p.size(),
        }
    }
}

/// Precedence levels for printing: alternation < sequence < postfix atom.
fn fmt_prec(ast: &Ast, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
    match ast {
        Ast::Empty => write!(f, "()"),
        Ast::Atom(a) => write!(f, "{a}"),
        Ast::AnyAtom => write!(f, "*"),
        Ast::Class { atoms, negated } => {
            write!(f, "[")?;
            if *negated {
                write!(f, "^")?;
            }
            for (i, a) in atoms.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "]")
        }
        Ast::Seq(ps) => {
            let need_parens = prec > 1;
            if need_parens {
                write!(f, "(")?;
            }
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    write!(f, "/")?;
                }
                fmt_prec(p, f, 2)?;
            }
            if need_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        Ast::Alt(ps) => {
            write!(f, "{{")?;
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_prec(p, f, 0)?;
            }
            write!(f, "}}")
        }
        Ast::Star(p) => {
            if matches!(**p, Ast::AnyAtom) {
                write!(f, "**")
            } else {
                write!(f, "(")?;
                fmt_prec(p, f, 0)?;
                write!(f, ")*")
            }
        }
        Ast::Plus(p) => {
            write!(f, "(")?;
            fmt_prec(p, f, 0)?;
            write!(f, ")+")
        }
        Ast::Opt(p) => {
            write!(f, "(")?;
            fmt_prec(p, f, 0)?;
            write!(f, ")?")
        }
    }
}

impl fmt::Display for Ast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prec(self, f, 0)
    }
}

impl fmt::Debug for Ast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ast({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorspace_atoms::{atom, path};

    #[test]
    fn seq_flattens_and_drops_empty() {
        let s = Ast::seq(vec![
            Ast::Atom(atom("a")),
            Ast::Empty,
            Ast::seq(vec![Ast::Atom(atom("b")), Ast::Atom(atom("c"))]),
        ]);
        assert_eq!(s.to_string(), "a/b/c");
    }

    #[test]
    fn singleton_seq_collapses() {
        let s = Ast::seq(vec![Ast::Atom(atom("only"))]);
        assert_eq!(s, Ast::Atom(atom("only")));
    }

    #[test]
    fn alt_flattens() {
        let a = Ast::alt(vec![
            Ast::Atom(atom("x")),
            Ast::alt(vec![Ast::Atom(atom("y")), Ast::Atom(atom("z"))]),
        ]);
        assert_eq!(a.to_string(), "{x, y, z}");
    }

    #[test]
    fn class_normalizes() {
        let c1 = Ast::class(vec![atom("b"), atom("a"), atom("b")], false);
        let c2 = Ast::class(vec![atom("a"), atom("b")], false);
        assert_eq!(c1, c2);
    }

    #[test]
    fn literal_of_path() {
        let l = Ast::literal(&path("a/b"));
        assert_eq!(l.to_string(), "a/b");
        assert_eq!(Ast::literal(&path("")), Ast::Empty);
    }

    #[test]
    fn double_star_prints_compactly() {
        let s = Ast::Star(Box::new(Ast::AnyAtom));
        assert_eq!(s.to_string(), "**");
    }

    #[test]
    fn finite_union_classification() {
        assert!(Ast::literal(&path("a/b")).is_finite_union());
        assert!(Ast::alt(vec![Ast::Atom(atom("a")), Ast::AnyAtom]).is_finite_union());
        assert!(!Ast::Star(Box::new(Ast::Atom(atom("a")))).is_finite_union());
        assert!(!Ast::Plus(Box::new(Ast::AnyAtom)).is_finite_union());
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Ast::Atom(atom("a")).size(), 1);
        assert_eq!(Ast::literal(&path("a/b/c")).size(), 4);
    }

    #[test]
    fn a_literal_is_one_whole_run() {
        for p in ["a", "a/b/c", ""] {
            let ast = Ast::literal(&path(p));
            assert_eq!(ast.literal_run(), (path(p).atoms().to_vec(), true), "{p:?}");
        }
    }

    #[test]
    fn literal_run_stops_at_the_first_non_literal() {
        for (text, run, whole) in [
            ("a/b", "a/b", true),
            ("a/b/*", "a/b", false),
            ("a/**/c", "a", false),
            ("**/b", "", false),
            ("{a, b}/c", "", false),
            ("a/[b c]/d", "a", false),
            ("", "", true),
        ] {
            let ast = crate::parse::parse(text).unwrap();
            assert_eq!(
                ast.literal_run(),
                (path(run).atoms().to_vec(), whole),
                "{text:?}"
            );
        }
    }

    #[test]
    fn non_literals_are_not_whole_runs() {
        for (ast, name) in [
            (Ast::AnyAtom, "star"),
            (Ast::Star(Box::new(Ast::AnyAtom)), "double star"),
            (
                Ast::alt(vec![Ast::Atom(atom("a")), Ast::Atom(atom("b"))]),
                "alt",
            ),
            (Ast::class(vec![atom("a")], false), "class"),
            (Ast::Opt(Box::new(Ast::Atom(atom("a")))), "opt"),
            (
                Ast::seq(vec![Ast::Atom(atom("a")), Ast::AnyAtom]),
                "seq with star",
            ),
        ] {
            assert!(!ast.literal_run().1, "{name}");
        }
    }
}
