//! [`Path`] — an attribute: a `/`-combined sequence of atoms.
//!
//! Paper §7.1: "attributes are concatenations of atoms … The attributes of
//! actorSpaces and actors may be combined to form a structured attribute
//! (with a special combination operator `/`), much as is the case with file
//! names in a conventional file-system."

use std::borrow::Borrow;
use std::fmt;
use std::ops::Index;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::atom::{atom, Atom};

/// An attribute path such as `srv/fib/fast`.
///
/// Paths are small vectors of [`Atom`]s. They are what actors register as
/// attributes when made visible in an actorSpace, and what patterns are
/// matched against.
///
/// ```
/// use actorspace_atoms::{path, Path};
/// let p = path("srv/fib/fast");
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.to_string(), "srv/fib/fast");
/// let q = p.join(&path("v2"));
/// assert_eq!(q.to_string(), "srv/fib/fast/v2");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Path(Vec<Atom>);

impl Path {
    /// The empty path (zero atoms). Matches only the empty pattern.
    pub fn empty() -> Path {
        Path(Vec::new())
    }

    /// Builds a path from atoms.
    pub fn from_atoms(atoms: impl Into<Vec<Atom>>) -> Path {
        Path(atoms.into())
    }

    /// Parses `a/b/c` into a path. Empty segments are rejected except for
    /// the empty string, which parses to the empty path.
    pub fn parse(s: &str) -> Result<Path, PathError> {
        if s.is_empty() {
            return Ok(Path::empty());
        }
        let mut atoms = Vec::new();
        for seg in s.split('/') {
            if seg.is_empty() {
                return Err(PathError::EmptySegment(s.to_owned()));
            }
            atoms.push(atom(seg));
        }
        Ok(Path(atoms))
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the zero-atom path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The atoms, in order.
    pub fn atoms(&self) -> &[Atom] {
        &self.0
    }

    /// Appends another path: `a/b` joined with `c` is `a/b/c` — the paper's
    /// `/` combination operator for structured attributes.
    pub fn join(&self, other: &Path) -> Path {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Path(v)
    }

    /// Appends a single atom.
    pub fn child(&self, a: Atom) -> Path {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(a);
        Path(v)
    }

    /// True if `prefix` is a (non-strict) prefix of `self`.
    pub fn starts_with(&self, prefix: &Path) -> bool {
        self.0.len() >= prefix.0.len() && self.0[..prefix.0.len()] == prefix.0[..]
    }

    /// Strips `prefix`, returning the remainder if `self` starts with it.
    pub fn strip_prefix(&self, prefix: &Path) -> Option<Path> {
        if self.starts_with(prefix) {
            Some(Path(self.0[prefix.0.len()..].to_vec()))
        } else {
            None
        }
    }

    /// Iterates over the atoms.
    pub fn iter(&self) -> impl Iterator<Item = Atom> + '_ {
        self.0.iter().copied()
    }
}

/// Shorthand for `Path::parse(s).unwrap()` — for literals in examples and
/// tests. Panics on malformed input.
pub fn path(s: &str) -> Path {
    Path::parse(s).expect("invalid path literal")
}

/// Errors from [`Path::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The input contained an empty `/`-segment, e.g. `a//b` or `/a`.
    EmptySegment(String),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::EmptySegment(s) => write!(f, "empty segment in path {s:?}"),
        }
    }
}

impl std::error::Error for PathError {}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            f.write_str(a.as_str())?;
        }
        Ok(())
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path({self})")
    }
}

impl FromStr for Path {
    type Err = PathError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Path::parse(s)
    }
}

impl From<Atom> for Path {
    fn from(a: Atom) -> Self {
        Path(vec![a])
    }
}

impl From<&str> for Path {
    fn from(s: &str) -> Self {
        path(s)
    }
}

impl Index<usize> for Path {
    type Output = Atom;
    fn index(&self, i: usize) -> &Atom {
        &self.0[i]
    }
}

/// Lets ordered maps keyed by `Path` be searched with a borrowed atom
/// slice. Sound because `Path`'s derived `Ord` is the slice order.
impl Borrow<[Atom]> for Path {
    fn borrow(&self) -> &[Atom] {
        &self.0
    }
}

impl FromIterator<Atom> for Path {
    fn from_iter<T: IntoIterator<Item = Atom>>(iter: T) -> Self {
        Path(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["a", "a/b", "srv/fib/fast", "x/y/z/w/v"] {
            assert_eq!(path(s).to_string(), s);
        }
    }

    #[test]
    fn empty_path_parses_and_prints_empty() {
        let p = Path::parse("").unwrap();
        assert!(p.is_empty());
        assert_eq!(p.to_string(), "");
    }

    #[test]
    fn empty_segments_rejected() {
        for s in ["/a", "a/", "a//b", "/"] {
            assert!(Path::parse(s).is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn join_is_concatenation() {
        assert_eq!(path("a/b").join(&path("c/d")), path("a/b/c/d"));
        assert_eq!(path("a").join(&Path::empty()), path("a"));
        assert_eq!(Path::empty().join(&path("a")), path("a"));
    }

    #[test]
    fn child_appends_one_atom() {
        assert_eq!(path("a/b").child(atom("c")), path("a/b/c"));
    }

    #[test]
    fn prefix_relations() {
        let p = path("srv/fib/fast");
        assert!(p.starts_with(&path("srv")));
        assert!(p.starts_with(&path("srv/fib")));
        assert!(p.starts_with(&p));
        assert!(p.starts_with(&Path::empty()));
        assert!(!p.starts_with(&path("srv/fact")));
        assert_eq!(p.strip_prefix(&path("srv")), Some(path("fib/fast")));
        assert_eq!(p.strip_prefix(&path("nope")), None);
    }

    #[test]
    fn indexing_and_iteration() {
        let p = path("a/b/c");
        assert_eq!(p[1], atom("b"));
        let v: Vec<&str> = p.iter().map(|a| a.as_str()).collect();
        assert_eq!(v, ["a", "b", "c"]);
    }

    #[test]
    fn from_iterator_collects() {
        let p: Path = ["x", "y"].into_iter().map(atom).collect();
        assert_eq!(p, path("x/y"));
    }
}
