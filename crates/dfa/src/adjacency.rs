//! Adjacency over a dense point set: the flow graph's row store.
//!
//! The solvers walk neighbour lists on every solve, and the point graph
//! rebuilds its lists whenever it is built, so the representation is on
//! the hot path twice. A `Vec<Vec<usize>>` pays one heap allocation per
//! point and scatters the lists across the heap. [`Adjacency`] holds them
//! in [`am_ir::rows::Rows`], the one row store the flow graph keeps its
//! blocks, successors and predecessors in: one slab of `u32` targets and
//! one span per point. Built by appending points in index order, it has
//! no holes and no spare room, and is two allocations however many points
//! it has. The block graph's adjacency is a copy of the flow graph's own
//! two edge slabs ([`FlowGraph::edge_rows`](am_ir::FlowGraph::edge_rows)),
//! holes and all, so it is copied, not rebuilt list by list.

use std::ops::Index;

use am_ir::rows::Rows;

/// Neighbor lists of a dense point set, in one slab.
///
/// Point `p`'s neighbors are in the order they were appended — the same
/// order the equivalent `Vec<Vec<usize>>` would hold them. Build one with
/// [`from_lists`] (tests, small graphs), append points in index order with
/// [`start_point`]/[`push_neighbor`] (hot rebuilds into recycled
/// buffers), or copy a flow graph's edge rows with [`From`].
///
/// [`from_lists`]: Adjacency::from_lists
/// [`start_point`]: Adjacency::start_point
/// [`push_neighbor`]: Adjacency::push_neighbor
///
/// # Examples
///
/// ```
/// use am_dfa::Adjacency;
///
/// let adj = Adjacency::from_lists(&[vec![1, 2], vec![2], vec![]]);
/// assert_eq!(adj.len(), 3);
/// assert_eq!(adj.neighbors(0), &[1, 2]);
/// assert_eq!(&adj[1], &[2]);
/// assert!(adj.neighbors(2).is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Adjacency {
    rows: Rows<u32>,
}

impl From<Rows<u32>> for Adjacency {
    fn from(rows: Rows<u32>) -> Self {
        Adjacency { rows }
    }
}

impl Adjacency {
    /// An adjacency with no points.
    pub fn new() -> Self {
        Adjacency::default()
    }

    /// Builds from per-point neighbor lists, preserving list order.
    pub fn from_lists(lists: &[Vec<usize>]) -> Self {
        let mut adj = Adjacency::new();
        adj.reserve(lists.len(), lists.iter().map(Vec::len).sum());
        for list in lists {
            adj.start_point();
            for &q in list {
                adj.push_neighbor(q as u32);
            }
        }
        adj
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the point set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total number of recorded neighbor entries (edges).
    pub fn edge_count(&self) -> usize {
        self.rows.entries()
    }

    /// The neighbors of `p` in append order.
    #[inline]
    pub fn neighbors(&self, p: usize) -> &[u32] {
        self.rows.row(p)
    }

    /// Number of neighbors of `p`.
    pub fn degree(&self, p: usize) -> usize {
        self.rows.row(p).len()
    }

    /// Drops all points, keeping the buffers for reuse.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Reserves room for `points` further points and `edges` further
    /// neighbor entries.
    pub fn reserve(&mut self, points: usize, edges: usize) {
        self.rows.reserve(points, edges);
    }

    /// Opens the next point (index = current [`len`](Self::len)); its
    /// neighbors are whatever is [pushed](Self::push_neighbor) before the
    /// next `start_point`. Points must be appended in index order.
    pub fn start_point(&mut self) {
        self.rows.push_row();
    }

    /// Appends `q` to the most recently started point's neighbors.
    ///
    /// # Panics
    ///
    /// Panics if no point was started.
    pub fn push_neighbor(&mut self, q: u32) {
        let last = self.rows.len().checked_sub(1).expect("no point started");
        self.rows.push(last, q);
    }
}

impl Index<usize> for Adjacency {
    type Output = [u32];

    #[inline]
    fn index(&self, p: usize) -> &[u32] {
        self.neighbors(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_building_matches_from_lists() {
        let lists = vec![vec![3, 1], vec![], vec![0, 2, 3], vec![1]];
        let from_lists = Adjacency::from_lists(&lists);
        let mut appended = Adjacency::new();
        for list in &lists {
            appended.start_point();
            for &q in list {
                appended.push_neighbor(q as u32);
            }
        }
        assert_eq!(appended, from_lists);
        assert_eq!(appended.len(), 4);
        assert_eq!(appended.edge_count(), 6);
        for (p, list) in lists.iter().enumerate() {
            let expect: Vec<u32> = list.iter().map(|&q| q as u32).collect();
            assert_eq!(appended.neighbors(p), expect.as_slice());
            assert_eq!(appended.degree(p), list.len());
        }
    }

    #[test]
    fn clear_recycles_for_a_fresh_build() {
        let mut adj = Adjacency::from_lists(&[vec![1], vec![0]]);
        adj.clear();
        assert!(adj.is_empty());
        assert_eq!(adj.edge_count(), 0);
        adj.start_point();
        adj.push_neighbor(0);
        assert_eq!(adj.len(), 1);
        assert_eq!(&adj[0], &[0]);
    }

    #[test]
    fn empty_points_have_no_neighbors() {
        let adj = Adjacency::from_lists(&[vec![], vec![]]);
        assert_eq!(adj.len(), 2);
        assert!(adj.neighbors(0).is_empty());
        assert_eq!(adj.degree(1), 0);
    }
}
