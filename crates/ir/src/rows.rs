//! Variable-length rows in one flat slab.
//!
//! A flow graph keeps three lists per node: its block's instruction ids,
//! its successors and its predecessors. Held as one `Vec` per node, every
//! node costs three heap objects to build and three to free, and the
//! lists of neighbouring nodes scatter over the heap. [`Rows`] keeps all
//! rows of one kind in a single `Vec` — the slab — and gives each row a
//! [`Span`]: where it starts, how long it is, and how much room it has.
//!
//! * A row grows in place while it fits its room. A row that outgrows it
//!   moves to the end of the slab, with room for twice its new length;
//!   the row that ends the slab grows where it is. Appending to the row
//!   that ends the slab adds no spare room, so rows appended in order are
//!   packed end to end.
//! * A moved row leaves a hole. When the slab's idle entries (holes and
//!   unused room) outnumber the rows' entries by more than a small floor,
//!   the slab is compacted: the rows are copied into a new slab in row
//!   order, each with room for half its length again. So the slab holds
//!   at most about twice the entries it has, plus the floor, after any
//!   growth.
//! * Two `Rows` are equal when their rows are, whatever holes either has.
//!
//! The same type is the solver's adjacency: `am_dfa::BlockGraph` holds
//! a copy of a graph's two edge slabs ([`FlowGraph::edge_rows`]).
//!
//! [`FlowGraph::edge_rows`]: crate::FlowGraph::edge_rows

use std::fmt;

/// Where a row lies in its slab: its start, length and room (`cap`).
/// `slab[start..start + len]` holds the row, and `slab[start..start +
/// cap]` is reserved for it. The three are kept as slab offsets (start,
/// end of the row, end of its room), so reading a row is one slice of
/// the slab with nothing to add.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    start: u32,
    end: u32,
    limit: u32,
}

impl Span {
    /// Number of entries in the row.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the row is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.end == self.start
    }

    fn cap(&self) -> usize {
        (self.limit - self.start) as usize
    }

    #[inline]
    fn live(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    fn room(&self) -> std::ops::Range<usize> {
        self.start as usize..self.limit as usize
    }

    fn set_len(&mut self, len: usize) {
        assert!(len <= self.cap(), "a row fits its room");
        self.end = self.start + len as u32;
    }

    /// Places the row at `start`, with its length and `cap` entries of
    /// room.
    fn place(&mut self, start: usize, cap: usize) {
        let len = self.len();
        let offset = |at: usize| u32::try_from(at).expect("slab fits u32");
        (self.start, self.end, self.limit) =
            (offset(start), offset(start + len), offset(start + cap));
    }
}

pub(crate) mod sealed {
    use super::Span;

    /// A row's head: its [`Span`], and whatever the owner keeps beside it
    /// (a block's write stamp).
    pub trait Head {
        /// The row's place in the slab.
        fn span(&self) -> &Span;
        /// The row's place in the slab, for the slab's own writes.
        fn span_mut(&mut self) -> &mut Span;
    }
}
use sealed::Head;

impl Head for Span {
    #[inline]
    fn span(&self) -> &Span {
        self
    }

    #[inline]
    fn span_mut(&mut self) -> &mut Span {
        self
    }
}

/// How many more idle entries than live ones a slab may hold before it is
/// compacted: small slabs are left alone, since compacting allocates.
const COMPACT_FLOOR: usize = 64;

/// Rows of `T` in one slab, one head `H` per row (see the module docs).
///
/// # Examples
///
/// ```
/// use am_ir::rows::Rows;
///
/// let mut rows: Rows<u32> = Rows::new();
/// let a = rows.push_row();
/// let b = rows.push_row();
/// rows.push(a, 1);
/// rows.push(b, 7);
/// rows.push(a, 2); // `a` outgrows its room and moves past `b`
/// assert_eq!(rows.row(a), [1, 2]);
/// assert_eq!(rows.row(b), [7]);
/// assert_eq!(rows.entries(), 3);
/// ```
#[derive(Clone)]
pub struct Rows<T, H = Span> {
    slab: Vec<T>,
    heads: Vec<H>,
    /// The number of entries over all rows; the rest of the slab is idle.
    live: usize,
}

impl<T, H> Default for Rows<T, H> {
    fn default() -> Self {
        Rows {
            slab: Vec::new(),
            heads: Vec::new(),
            live: 0,
        }
    }
}

impl<T: Copy> Rows<T> {
    /// No rows.
    pub fn new() -> Self {
        Rows::default()
    }

    /// Appends an empty row and returns its index.
    pub fn push_row(&mut self) -> usize {
        self.push_head(Span::default())
    }

    /// A copy whose entries are `f` of these, row for row: the heads are
    /// copied as they are and the slab entry by entry, holes included.
    pub(crate) fn map<U>(&self, f: impl FnMut(T) -> U) -> Rows<U> {
        Rows {
            slab: self.slab.iter().copied().map(f).collect(),
            heads: self.heads.iter().map(|h| *h.span()).collect(),
            live: self.live,
        }
    }
}

impl<T: Copy, H: Head> Rows<T, H> {
    /// Appends a row with head `head`, whose span must be empty, and
    /// returns its index. The row starts at the end of the slab.
    pub(crate) fn push_head(&mut self, mut head: H) -> usize {
        debug_assert_eq!(head.span().cap(), 0, "a new row has no room");
        head.span_mut().place(self.slab.len(), 0);
        self.heads.push(head);
        self.heads.len() - 1
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.slab[self.heads[i].span().live()]
    }

    /// The head of row `i`.
    #[inline]
    pub(crate) fn head(&self, i: usize) -> &H {
        &self.heads[i]
    }

    /// The head of row `i`, mutably. The span must not be changed.
    #[inline]
    pub(crate) fn head_mut(&mut self, i: usize) -> &mut H {
        &mut self.heads[i]
    }

    /// The heads of all rows, in row order.
    pub(crate) fn heads(&self) -> &[H] {
        &self.heads
    }

    /// Row `i`, mutably.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.slab[self.heads[i].span().live()]
    }

    /// Total number of entries over all rows.
    pub fn entries(&self) -> usize {
        self.live
    }

    /// Drops all rows, keeping the buffers for reuse.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.heads.clear();
        self.live = 0;
    }

    /// Sets the length of row `i`, which must fit its room.
    fn set_len(&mut self, i: usize, len: usize) {
        let span = self.heads[i].span_mut();
        self.live = self.live - span.len() + len;
        span.set_len(len);
    }

    /// Reserves room for `rows` more rows and `entries` more slab entries.
    pub fn reserve(&mut self, rows: usize, entries: usize) {
        self.heads.reserve(rows);
        self.slab.reserve(entries);
    }

    /// Appends `x` to row `i`.
    pub fn push(&mut self, i: usize, x: T) {
        let at = self.heads[i].span().len();
        self.insert(i, at, x);
    }

    /// Inserts `x` at position `at` of row `i`, shifting the entries from
    /// there on.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds the row's length.
    pub(crate) fn insert(&mut self, i: usize, at: usize, x: T) {
        let len = self.heads[i].span().len();
        assert!(at <= len, "insertion index {at} past row length {len}");
        self.make_room(i, len + 1, false, x);
        self.set_len(i, len + 1);
        let start = self.heads[i].span().start as usize;
        self.slab
            .copy_within(start + at..start + len, start + at + 1);
        self.slab[start + at] = x;
    }

    /// Removes and returns entry `at` of row `i`, shifting the rest down.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of bounds.
    pub(crate) fn remove(&mut self, i: usize, at: usize) -> T {
        let span = *self.heads[i].span();
        let (start, len) = (span.start as usize, span.len());
        assert!(at < len, "removal index {at} past row length {len}");
        self.set_len(i, len - 1);
        let x = self.slab[start + at];
        self.slab
            .copy_within(start + at + 1..start + len, start + at);
        x
    }

    /// Keeps the entries of row `i` for which `keep` holds, in order.
    pub(crate) fn retain(&mut self, i: usize, mut keep: impl FnMut(T) -> bool) {
        let span = *self.heads[i].span();
        let start = span.start as usize;
        let mut kept = start;
        for j in span.live() {
            let x = self.slab[j];
            if keep(x) {
                self.slab[kept] = x;
                kept += 1;
            }
        }
        self.set_len(i, kept - start);
    }

    /// Empties row `i`, keeping its room.
    pub(crate) fn clear_row(&mut self, i: usize) {
        self.set_len(i, 0);
    }

    /// Replaces row `i` with `new`.
    pub(crate) fn set(&mut self, i: usize, new: &[T]) {
        if let Some(&first) = new.first() {
            self.make_room(i, new.len(), true, first);
        }
        self.set_len(i, new.len());
        let start = self.heads[i].span().start as usize;
        self.slab[start..start + new.len()].copy_from_slice(new);
    }

    /// Makes room for `need` entries in row `i`. A row that does not fit
    /// gets room for `2 * need`: the row that ends the slab where it is,
    /// any other at the end of the slab, leaving its old room as a hole.
    /// Without `spare`, the row that ends the slab grows by just what it
    /// needs, and the slab's own growth amortizes a run of appends. `fill`
    /// fills the new room until entries are written there.
    fn make_room(&mut self, i: usize, need: usize, spare: bool, fill: T) {
        let span = *self.heads[i].span();
        let cap = span.cap();
        if need <= cap {
            return;
        }
        let last = span.room().end == self.slab.len();
        let room = if last && !spare { need } else { 2 * need };
        let start = if last {
            span.start as usize
        } else {
            let start = self.slab.len();
            self.slab.reserve(room);
            self.slab.extend_from_within(span.live());
            start
        };
        self.slab.resize(start + room, fill);
        self.heads[i].span_mut().place(start, room);
        if self.idle() > self.live + COMPACT_FLOOR {
            self.compact(i);
        }
    }

    /// Copies every row into a new slab in row order, dropping the holes:
    /// row `grown` with all its room, every other row with room for half
    /// its length again.
    fn compact(&mut self, grown: usize) {
        let mut slab = Vec::with_capacity(2 * self.live);
        for (j, head) in self.heads.iter_mut().enumerate() {
            let span = head.span_mut();
            let (start, len) = (slab.len(), span.len());
            if j == grown {
                slab.extend_from_slice(&self.slab[span.room()]);
            } else {
                slab.extend_from_slice(&self.slab[span.live()]);
                if let Some(&fill) = slab.last().filter(|_| len > 1) {
                    slab.resize(start + len + len / 2, fill);
                }
            }
            span.place(start, slab.len() - start);
        }
        self.slab = slab;
    }

    /// The number of slab entries outside every row: holes and unused
    /// room.
    fn idle(&self) -> usize {
        self.slab.len() - self.live
    }
}

/// Rows compare row by row; the slab layout (holes, room, order) is not
/// part of the value.
impl<T: Copy + PartialEq, H: Head> PartialEq for Rows<T, H> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.row(i) == other.row(i))
    }
}

impl<T: Copy + Eq, H: Head> Eq for Rows<T, H> {}

impl<T: Copy + fmt::Debug, H: Head> fmt::Debug for Rows<T, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.row(i)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists(rows: &Rows<u32>) -> Vec<Vec<u32>> {
        (0..rows.len()).map(|i| rows.row(i).to_vec()).collect()
    }

    #[test]
    fn rows_grow_past_their_room_and_keep_their_neighbours() {
        let mut rows: Rows<u32> = Rows::new();
        let [a, b, c] = [(); 3].map(|_| rows.push_row());
        for x in 0..10 {
            rows.push(a, x);
            rows.push(b, 100 + x);
            if x % 3 == 0 {
                rows.insert(c, 0, 200 + x);
            }
        }
        assert_eq!(rows.row(a), (0..10).collect::<Vec<_>>());
        assert_eq!(rows.row(b), (100..110).collect::<Vec<_>>());
        assert_eq!(rows.row(c), [209, 206, 203, 200]);
        assert_eq!(rows.remove(b, 0), 100);
        rows.retain(a, |x| x % 2 == 0);
        assert_eq!(rows.row(a), [0, 2, 4, 6, 8]);
        assert_eq!(rows.row(b).len(), 9);
        assert_eq!(rows.entries(), 5 + 9 + 4);
    }

    #[test]
    fn the_last_row_grows_in_place() {
        let mut rows: Rows<u32> = Rows::new();
        let a = rows.push_row();
        let b = rows.push_row();
        rows.push(a, 1);
        for x in 0..100 {
            rows.push(b, x);
        }
        assert_eq!(rows.idle(), 0, "{:?}", rows.heads);
        assert_eq!(rows.slab.len(), 101, "no spare room: appended in order");
        assert_eq!(rows.row(a), [1]);
    }

    #[test]
    fn idle_entries_stay_bounded_by_the_live_ones() {
        // Rows grow one by one, and shrink back every so often, so that
        // their room outlives their entries and the slab compacts.
        let mut rows: Rows<u32> = Rows::new();
        let ids: Vec<usize> = (0..50).map(|_| rows.push_row()).collect();
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); 50];
        let mut compactions = 0;
        for round in 0..400u32 {
            for &i in &ids {
                if (i as u32 + round).is_multiple_of(7) {
                    rows.push(i, round);
                    model[i].push(round);
                }
                if (i as u32 + round).is_multiple_of(61) {
                    let keep = model[i].len() / 4;
                    model[i].truncate(keep);
                    rows.set(i, &model[i]);
                }
            }
            // Right after a row grows past its room, the slab holds at
            // most the floor more idle entries than live ones.
            let i = ids[round as usize % ids.len()];
            let before = rows.slab.len();
            while rows.slab.len() == before {
                rows.push(i, round);
                model[i].push(round);
            }
            compactions += usize::from(rows.slab.len() < before);
            let (idle, live) = (rows.idle(), rows.entries());
            assert!(
                idle <= live + COMPACT_FLOOR,
                "round {round}: {idle} idle entries for {live} live"
            );
            assert_eq!(live, model.iter().map(Vec::len).sum::<usize>());
        }
        assert!(compactions > 10, "the slab compacted {compactions} times");
        assert_eq!(lists(&rows), model);
    }

    #[test]
    fn equality_ignores_the_layout() {
        let mut moved: Rows<u32> = Rows::new();
        let mut tight: Rows<u32> = Rows::new();
        for rows in [&mut moved, &mut tight] {
            rows.push_row();
            rows.push_row();
        }
        moved.push(0, 1);
        moved.push(1, 2);
        moved.push(0, 3);
        tight.set(0, &[1, 3]);
        tight.set(1, &[2]);
        assert_ne!(moved.slab, tight.slab);
        assert_eq!(moved, tight);
        assert_eq!(format!("{moved:?}"), "[[1, 3], [2]]");
        tight.clear_row(1);
        assert_ne!(moved, tight);
    }

    #[test]
    fn map_copies_rows_and_holes() {
        let mut rows: Rows<u32> = Rows::new();
        rows.push_row();
        rows.push_row();
        rows.push(0, 4);
        rows.push(1, 5);
        rows.push(0, 6);
        let copy = rows.map(u64::from);
        assert_eq!(copy.row(0), [4, 6]);
        assert_eq!(copy.row(1), [5]);
        assert_eq!(copy.slab.len(), rows.slab.len());
    }
}
