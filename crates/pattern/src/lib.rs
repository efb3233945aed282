//! Regular expressions over atoms — the destination patterns of ActorSpace.
//!
//! Paper §7.1: "attributes are concatenations of atoms, and patterns are
//! regular expressions over atoms – rather analogous to the structure of
//! files and directories in UNIX."
//!
//! The alphabet of these regular expressions is *atoms* (interned
//! identifiers), not characters. A pattern like `srv/fib/*` has three
//! symbols: the literal atoms `srv` and `fib`, then a wildcard matching any
//! single atom. Patterns are parsed ([`parse`]) into an [`ast::Ast`],
//! compiled ([`nfa`]) into a Thompson NFA over atom ids, and matched
//! ([`matcher`]) with the standard state-set simulation, which is
//! `O(states × path length)` with no pathological backtracking.
//!
//! # Syntax
//!
//! | form | meaning |
//! |---|---|
//! | `ident` | the literal atom `ident` |
//! | `a/b/c` | the atom sequence `a` then `b` then `c` |
//! | `*` | any single atom |
//! | `**` | any sequence of atoms (zero or more) |
//! | `[a b c]` | one atom from the set |
//! | `[^a b c]` | one atom *not* in the set |
//! | `{p, q}` | alternation between sub-patterns |
//! | `p \| q` | alternation (same as `{p, q}`) |
//! | `(p)` | grouping |
//! | `(p)*` `(p)+` `(p)?` | repetition / option (postfix, adjacent) |
//!
//! A postfix operator must be *adjacent* to what it repeats: `(a/b)*`
//! repeats the group, while `a/*` is "atom `a` then any one atom".
//!
//! ```
//! use actorspace_pattern::Pattern;
//! use actorspace_atoms::path;
//!
//! let p = Pattern::parse("srv/{fib, fact}/**").unwrap();
//! assert!(p.matches(&path("srv/fib/fast")));
//! assert!(p.matches(&path("srv/fact")));
//! assert!(!p.matches(&path("srv/sqrt/fast")));
//! ```
//!
//! The [`lattice`] module implements the description-lattice view of
//! attributes from paper §5 (generalization/specialization by conjunction
//! and disjunction) and decision procedures on whole patterns
//! (emptiness-of-intersection, subsumption on star-free patterns).

#![deny(unsafe_code)]

pub mod ast;
pub mod lattice;
pub mod matcher;
pub mod nfa;
pub mod parse;

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use actorspace_atoms::{Atom, Path};

use nfa::Trans;

pub use ast::Ast;
pub use matcher::StateSet;
pub use nfa::Nfa;
pub use parse::ParseError;

/// A compiled destination pattern: parse once, match many times.
///
/// `Pattern` owns both the AST (for display, analysis, and lattice
/// operations) and the compiled NFA (for matching), plus the literal run
/// read once from the AST (for seeking ordered attribute indexes). It is
/// immutable, so clones share one compiled body: cloning a pattern into a
/// delivery's route or a suspended send costs a reference count.
#[derive(Clone)]
pub struct Pattern(Arc<Compiled>);

struct Compiled {
    ast: Ast,
    nfa: Nfa,
    text: String,
    run: Box<[Atom]>,
    literal: bool,
    /// Every atom a transition label names, sorted.
    named: Box<[Atom]>,
}

impl Pattern {
    /// Parses and compiles a pattern.
    pub fn parse(text: &str) -> Result<Pattern, ParseError> {
        let ast = parse::parse(text)?;
        Ok(Pattern::from_ast_with_text(ast, text.to_owned()))
    }

    /// Compiles a pattern from an already-built AST.
    pub fn from_ast(ast: Ast) -> Pattern {
        let text = ast.to_string();
        Pattern::from_ast_with_text(ast, text)
    }

    fn from_ast_with_text(ast: Ast, text: String) -> Pattern {
        let nfa = nfa::compile(&ast);
        let (run, literal) = ast.literal_run();
        let mut named: Vec<Atom> = nfa
            .states()
            .iter()
            .flat_map(|s| &s.trans)
            .flat_map(|(label, _)| match label {
                Trans::Atom(a) => std::slice::from_ref(a),
                Trans::In(set) | Trans::NotIn(set) => set.as_slice(),
                Trans::Any => &[],
            })
            .copied()
            .collect();
        named.sort_unstable();
        named.dedup();
        Pattern(Arc::new(Compiled {
            ast,
            nfa,
            text,
            run: run.into_boxed_slice(),
            literal,
            named: named.into_boxed_slice(),
        }))
    }

    /// The pattern matching *any* attribute — the paper's `*` in
    /// `send(*@ProcPool, job, self)`. Equivalent to `**` here: it matches
    /// every visible actor regardless of its attributes.
    pub fn any() -> Pattern {
        Pattern::parse("**").expect("`**` always parses")
    }

    /// Whether this pattern matches an entire attribute path.
    pub fn matches(&self, path: &Path) -> bool {
        matcher::matches(&self.0.nfa, path.atoms())
    }

    /// Starts an incremental match (used to walk nested actorSpaces without
    /// materializing joined attribute paths).
    pub fn start(&self) -> StateSet {
        matcher::start(&self.0.nfa)
    }

    /// The compiled NFA.
    pub fn nfa(&self) -> &Nfa {
        &self.0.nfa
    }

    /// The pattern's AST.
    pub fn ast(&self) -> &Ast {
        &self.0.ast
    }

    /// The original (or regenerated) pattern text.
    pub fn text(&self) -> &str {
        &self.0.text
    }

    /// The leading literal atoms every matching path starts with (see
    /// [`Ast::literal_run`]).
    pub fn literal_run(&self) -> &[Atom] {
        &self.0.run
    }

    /// Whether some transition label names `atom`. Every label treats the
    /// atoms no label names alike, so [`StateSet::advance`] gives one state
    /// set the same successor for all of them.
    pub fn names(&self, atom: Atom) -> bool {
        self.0.named.binary_search(&atom).is_ok()
    }

    /// True if the pattern matches exactly one literal path (no wildcards,
    /// classes, alternation, or repetition): its literal run.
    pub fn is_literal(&self) -> bool {
        self.0.literal
    }

    /// True if `self` and `other` share one compiled body: one is a clone
    /// of the other. Two parses of the same text are equal (`==`) but not
    /// the same.
    ///
    /// ```
    /// use actorspace_pattern::pattern;
    ///
    /// let p = pattern("svc/*");
    /// assert!(p.same(&p.clone()));
    /// assert!(p == pattern("svc/*") && !p.same(&pattern("svc/*")));
    /// ```
    pub fn same(&self, other: &Pattern) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// True if no path whatsoever can match this pattern.
    pub fn is_empty_language(&self) -> bool {
        !matcher::is_satisfiable(&self.0.nfa)
    }

    /// True if some path matches both `self` and `other`. Decidable for all
    /// patterns (product-NFA emptiness over an open alphabet).
    pub fn may_overlap(&self, other: &Pattern) -> bool {
        matcher::intersects(&self.0.nfa, &other.0.nfa)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.text)
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern({})", self.0.text)
    }
}

impl FromStr for Pattern {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pattern::parse(s)
    }
}

impl PartialEq for Pattern {
    /// Structural equality on the AST (not language equivalence).
    fn eq(&self, other: &Self) -> bool {
        self.0.ast == other.0.ast
    }
}

impl Eq for Pattern {}

/// Shorthand for `Pattern::parse(s).unwrap()` — for literals in examples
/// and tests. Panics on malformed input.
pub fn pattern(s: &str) -> Pattern {
    Pattern::parse(s).expect("invalid pattern literal")
}
