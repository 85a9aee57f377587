//! Per-block rows kept in one flat buffer.
//!
//! The motion context mirrors the program as one short, variable-length
//! row of interned instruction ids per block. A `Vec` per block would make
//! a cold compile allocate per node and free per node; [`FlatBlocks`]
//! keeps every row in one buffer instead.

use std::ops::{Index, Range};

/// One row of `T`s per block in one flat buffer: block `i` holds the `len`
/// items from `start` of its span, in room for `cap`. A row rewritten
/// within its room is rewritten in place; a longer one moves to the end of
/// the buffer. When the buffer would have to grow, or its dead room
/// outweighs the live rows, the live rows are first copied, in block
/// order, into a spare buffer, the two buffers swap, and the room is grown
/// to twice the live rows if it is smaller. So a table reserved for twice
/// its rows allocates nothing while they fit, rows read in block order are
/// read in buffer order after a compaction, and dropping the table frees
/// two buffers, not one per block.
#[derive(Clone, Debug)]
pub(crate) struct FlatBlocks<T> {
    items: Vec<T>,
    spans: Vec<Span>,
    /// Items inside live spans; the rest of `items` is dead room.
    live: usize,
    /// The buffer the next compaction copies the live rows into.
    spare: Vec<T>,
}

impl<T> Default for FlatBlocks<T> {
    fn default() -> Self {
        FlatBlocks {
            items: Vec::new(),
            spans: Vec::new(),
            live: 0,
            spare: Vec::new(),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

impl<T: Copy> FlatBlocks<T> {
    /// Makes room for `blocks` blocks holding `items` items in total, in
    /// both buffers.
    pub(crate) fn reserve(&mut self, blocks: usize, items: usize) {
        self.spans.reserve(blocks);
        self.items.reserve(items);
        self.spare.reserve(self.items.capacity());
    }

    /// Grows both buffers to twice the live rows (and a little), the room
    /// later rewrites use without allocating.
    pub(crate) fn make_room(&mut self) {
        self.items.reserve(self.live + 64);
        self.spare.reserve(self.items.capacity());
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Resizes to `blocks` blocks; new blocks have empty rows.
    pub(crate) fn resize(&mut self, blocks: usize) {
        for span in self.spans.iter().skip(blocks) {
            self.live -= span.len as usize;
        }
        self.spans.resize(blocks, Span::default());
    }

    /// The row of every block, in block order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.spans.iter().map(|span| &self.items[span.range()])
    }

    /// Makes `row` the row of block `i`.
    pub(crate) fn set(&mut self, i: usize, row: &[T]) {
        let span = &mut self.spans[i];
        self.live = self.live - span.len as usize + row.len();
        let len = u32::try_from(row.len()).expect("row fits u32");
        if len <= span.cap {
            span.len = len;
            self.items[span.range()].copy_from_slice(row);
            return;
        }
        span.len = 0;
        let needed = self.items.len() + row.len();
        if needed > self.items.capacity() || needed > 2 * self.live + 64 {
            self.compact();
            // Room for twice the live rows keeps compactions rare; this
            // allocates only while the live rows outgrow the room.
            self.items.reserve(self.live + 64);
        }
        let start = u32::try_from(self.items.len()).expect("table fits u32");
        self.spans[i] = Span {
            start,
            len,
            cap: len,
        };
        self.items.extend_from_slice(row);
    }

    /// Keeps the items of block `i`'s row that `keep` accepts, in order
    /// (as `Vec::retain`).
    pub(crate) fn retain(&mut self, i: usize, mut keep: impl FnMut(&T) -> bool) {
        let span = &mut self.spans[i];
        let row = &mut self.items[span.range()];
        let mut kept = 0;
        for j in 0..row.len() {
            if keep(&row[j]) {
                row[kept] = row[j];
                kept += 1;
            }
        }
        self.live -= row.len() - kept;
        span.len = kept as u32;
    }

    /// Copies every live row, in block order and with no room between
    /// them, into the spare buffer, and swaps the buffers.
    fn compact(&mut self) {
        let FlatBlocks {
            items,
            spans,
            spare,
            ..
        } = self;
        spare.clear();
        for span in spans.iter_mut() {
            let range = span.range();
            span.start = spare.len() as u32;
            span.cap = span.len;
            spare.extend_from_slice(&items[range]);
        }
        std::mem::swap(items, spare);
    }
}

impl<T> Index<usize> for FlatBlocks<T> {
    type Output = [T];

    fn index(&self, i: usize) -> &[T] {
        &self.items[self.spans[i].range()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `rows` writes on a table and on a `Vec` per block, checking
    /// after each that both hold the same rows.
    #[test]
    fn rows_match_a_vec_per_block_through_moves_and_compaction() {
        let mut flat = FlatBlocks::default();
        let mut reference: Vec<Vec<u32>> = Vec::new();
        let mut compactions = 0;
        let mut seed = 7u64;
        let mut next = move |bound: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % bound
        };
        for step in 0..4000u32 {
            let blocks = 1 + next(40) as usize;
            if step % 500 == 0 {
                flat.resize(blocks);
                reference.resize(blocks, Vec::new());
            }
            let i = next(reference.len() as u64) as usize;
            if next(3) == 0 {
                let mut position = 0;
                let drop = next(4) as usize;
                flat.retain(i, |_| {
                    position += 1;
                    position % 4 != drop
                });
                let mut position = 0;
                reference[i].retain(|_| {
                    position += 1;
                    position % 4 != drop
                });
            } else {
                let row: Vec<u32> = (0..next(12) as u32).map(|k| step * 16 + k).collect();
                let moves = row.len() > flat.spans[i].cap as usize;
                let before = flat.items.len();
                flat.set(i, &row);
                compactions += usize::from(flat.items.len() < before);
                reference[i] = row;
                // A write that moves a row compacts first when the dead
                // room would outgrow the live rows.
                if moves {
                    assert!(
                        flat.items.len() <= 2 * flat.live + 64,
                        "step {step}: dead room"
                    );
                }
            }
            assert_eq!(flat.len(), reference.len());
            for (b, row) in reference.iter().enumerate() {
                assert_eq!(&flat[b], &row[..], "step {step} block {b}");
            }
            assert!(flat.iter().eq(reference.iter().map(Vec::as_slice)));
            assert_eq!(flat.live, reference.iter().map(Vec::len).sum::<usize>());
        }
        assert!(compactions > 0, "the buffer was never compacted");
    }
}
