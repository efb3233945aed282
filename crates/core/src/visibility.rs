//! The visibility relation between actorSpaces, kept acyclic (§5.7).
//!
//! "The consequence of an actorSpace being visible in itself can be quite
//! catastrophic: if its attributes are matched by some broadcast message,
//! an infinite number of messages may be generated … As part of the
//! semantics of make_visible we do not allow an actorSpace to be made
//! visible in itself, or recursively in any contained actorSpace. This
//! avoids cycles in the directed acyclic graph defined by the visibility
//! relation between actorSpaces. In implementation terms, avoiding such
//! cycles means that a visibility relation graph must be constructed
//! before an actorSpace is allowed to be visible."
//!
//! The graph is the coordinator's edge map `parent → visible sub-spaces`
//! (the mirror of the `MemberId::Space` entries in the membership tables):
//! an edge `P → C` exists when space `C` is visible in space `P`.
//! `make_visible(C in P)` is legal iff `P` is not reachable from `C` (and
//! `C ≠ P`).

use std::collections::{HashMap, HashSet};

use crate::ids::{MemberId, SpaceId};

/// All spaces from which `start` is transitively reachable (the spaces
/// whose pattern resolutions can descend into `start`), including `start`
/// itself. Used to decide which suspended-message queues a change may wake.
pub fn ancestors(
    containers: &HashMap<MemberId, HashSet<SpaceId>>,
    start: SpaceId,
) -> HashSet<SpaceId> {
    let mut out = HashSet::new();
    out.insert(start);
    let mut stack = vec![start];
    while let Some(s) = stack.pop() {
        if let Some(parents) = containers.get(&MemberId::Space(s)) {
            for &p in parents {
                if out.insert(p) {
                    stack.push(p);
                }
            }
        }
    }
    out
}

/// Forward reachability over the edge map: every space a pattern
/// resolution scoped to any of `from` can descend into, including `from`
/// themselves — one walk however many sources. The coordinator keeps the
/// edge map in its meta table so lock sets can be computed without
/// touching any shard.
pub fn reachable(
    edges: &HashMap<SpaceId, HashSet<SpaceId>>,
    from: impl IntoIterator<Item = SpaceId>,
) -> HashSet<SpaceId> {
    let mut out: HashSet<SpaceId> = from.into_iter().collect();
    let mut stack: Vec<SpaceId> = out.iter().copied().collect();
    while let Some(s) = stack.pop() {
        if let Some(subs) = edges.get(&s) {
            for &sub in subs {
                if out.insert(sub) {
                    stack.push(sub);
                }
            }
        }
    }
    out
}

/// Would making `child` visible in `parent` create a cycle? True iff
/// `child == parent` or `parent` is reachable from `child`.
pub fn would_cycle(
    edges: &HashMap<SpaceId, HashSet<SpaceId>>,
    child: SpaceId,
    parent: SpaceId,
) -> bool {
    child == parent || reachable(edges, [child]).contains(&parent)
}

/// Is the visibility relation over `nodes` acyclic (Kahn's algorithm)?
/// Checked by property tests and, under `--features lockcheck`, after every
/// topology mutation.
pub fn is_dag(nodes: &HashSet<SpaceId>, edges: &HashMap<SpaceId, HashSet<SpaceId>>) -> bool {
    let mut indegree: HashMap<SpaceId, usize> = nodes.iter().map(|&s| (s, 0)).collect();
    for subs in edges.values() {
        for sub in subs {
            if let Some(d) = indegree.get_mut(sub) {
                *d += 1;
            }
        }
    }
    let mut queue: Vec<SpaceId> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&s, _)| s)
        .collect();
    let mut visited = 0usize;
    while let Some(s) = queue.pop() {
        visited += 1;
        if let Some(subs) = edges.get(&s) {
            for sub in subs {
                if let Some(d) = indegree.get_mut(sub) {
                    *d -= 1;
                    if *d == 0 {
                        queue.push(*sub);
                    }
                }
            }
        }
    }
    visited == nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    type Edges = HashMap<SpaceId, HashSet<SpaceId>>;

    fn mk(n: u64) -> (Edges, HashSet<SpaceId>, Vec<SpaceId>) {
        let ids: Vec<SpaceId> = (0..n).map(SpaceId).collect();
        (Edges::new(), ids.iter().copied().collect(), ids)
    }

    /// `child` becomes visible in `parent`: edge `parent → child`.
    fn link(edges: &mut Edges, child: SpaceId, parent: SpaceId) {
        edges.entry(parent).or_default().insert(child);
    }

    #[test]
    fn self_loop_detected() {
        let (edges, _, ids) = mk(1);
        assert!(would_cycle(&edges, ids[0], ids[0]));
    }

    #[test]
    fn chain_is_fine_but_closing_it_is_not() {
        let (mut edges, nodes, ids) = mk(3);
        // 0 visible in 1, 1 visible in 2: edges 1→0, 2→1.
        link(&mut edges, ids[0], ids[1]);
        link(&mut edges, ids[1], ids[2]);
        assert!(is_dag(&nodes, &edges));
        // Closing the loop: 2 visible in 0 would cycle.
        assert!(would_cycle(&edges, ids[2], ids[0]));
        // A diamond is fine: 0 visible in 2 directly.
        assert!(!would_cycle(&edges, ids[0], ids[2]));
        link(&mut edges, ids[0], ids[2]);
        assert!(is_dag(&nodes, &edges));
    }

    #[test]
    fn deep_chain_reachability() {
        let (mut edges, nodes, ids) = mk(50);
        for w in ids.windows(2) {
            link(&mut edges, w[0], w[1]); // i visible in i+1
        }
        assert!(would_cycle(&edges, *ids.last().unwrap(), ids[0]));
        assert!(!would_cycle(&edges, ids[0], *ids.last().unwrap()));
        assert!(is_dag(&nodes, &edges));
    }

    #[test]
    fn ancestors_walks_reverse_edges() {
        // containers: 0 in {1}, 1 in {2, 3}
        let mut containers: HashMap<MemberId, HashSet<SpaceId>> = HashMap::new();
        containers.insert(MemberId::Space(SpaceId(0)), [SpaceId(1)].into());
        containers.insert(MemberId::Space(SpaceId(1)), [SpaceId(2), SpaceId(3)].into());
        let anc = ancestors(&containers, SpaceId(0));
        assert_eq!(anc, [SpaceId(0), SpaceId(1), SpaceId(2), SpaceId(3)].into());
        let anc1 = ancestors(&containers, SpaceId(2));
        assert_eq!(anc1, [SpaceId(2)].into());
    }

    #[test]
    fn edge_map_helpers_mirror_space_table_walks() {
        // edges: 2 → {1}, 1 → {0} (0 visible in 1, 1 visible in 2)
        let mut edges: Edges = HashMap::new();
        edges.insert(SpaceId(2), [SpaceId(1)].into());
        edges.insert(SpaceId(1), [SpaceId(0)].into());
        let nodes: HashSet<SpaceId> = [SpaceId(0), SpaceId(1), SpaceId(2)].into();

        assert_eq!(
            reachable(&edges, [SpaceId(2)]),
            [SpaceId(0), SpaceId(1), SpaceId(2)].into()
        );
        assert_eq!(reachable(&edges, [SpaceId(0)]), [SpaceId(0)].into());
        assert_eq!(
            reachable(&edges, [SpaceId(1), SpaceId(0)]),
            [SpaceId(0), SpaceId(1)].into()
        );
        assert!(would_cycle(&edges, SpaceId(0), SpaceId(0)));
        assert!(would_cycle(&edges, SpaceId(2), SpaceId(0)));
        assert!(!would_cycle(&edges, SpaceId(0), SpaceId(2)));
        assert!(is_dag(&nodes, &edges));

        edges.get_mut(&SpaceId(1)).unwrap().insert(SpaceId(2));
        assert!(!is_dag(&nodes, &edges));
    }

    #[test]
    fn is_dag_rejects_manufactured_cycle() {
        let (mut edges, nodes, ids) = mk(2);
        // Bypass would_cycle to build a bad graph directly.
        link(&mut edges, ids[0], ids[1]);
        link(&mut edges, ids[1], ids[0]);
        assert!(!is_dag(&nodes, &edges));
    }
}
