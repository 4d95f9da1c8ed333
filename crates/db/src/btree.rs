//! B+trees over pager pages: table trees (keyed by rowid, like SQLite's
//! table B-trees) and index trees (keyed by the order-preserving encoded
//! key from [`crate::record`]).
//!
//! Pages are searched where they sit in the pager cache
//! ([`Pager::with_page`]), as SQLite searches its own page format: table
//! interior pages are binary-searched on their fixed 12-byte cells, and
//! leaf and index pages are walked and bounds-checked in place, copying
//! out only the payload asked for. A leaf change that fits its page — an
//! insert, a replacement or a delete — is spliced into the cached bytes
//! ([`Pager::with_page_mut`]). Only nodes that split or merge are decoded
//! into a [`Node`] and re-encoded, and an in-place edit writes exactly
//! the bytes that re-encoding would. Every change still flows through the
//! journal mode under test — B-tree splits are precisely the multi-page
//! updates whose atomicity the paper is about. Large payloads spill to
//! overflow page chains, which is how the Facebook trace's thumbnail
//! blobs (§6.3.2) exercise multi-page writes per insert.

use xftl_ftl::BlockDevice;

use crate::error::{DbError, Result};
use crate::pager::{PageNo, Pager};

const T_TABLE_LEAF: u8 = 1;
const T_TABLE_INT: u8 = 2;
const T_INDEX_LEAF: u8 = 3;
const T_INDEX_INT: u8 = 4;

/// Page header bytes before the cell area.
const HDR: usize = 12;
/// Fixed head of a table-leaf cell: rowid, total and local payload
/// lengths, overflow head.
const LEAF_HEAD: usize = 20;
/// Bytes of a table-interior cell: child page, then separator rowid.
const INT_CELL: usize = 12;

/// A table-leaf payload: a local prefix plus an optional overflow chain.
#[derive(Debug, Clone, PartialEq)]
struct Payload {
    total_len: u32,
    local: Vec<u8>,
    overflow: PageNo, // 0 = none
}

/// Decoded image of one B-tree page, for nodes being restructured.
#[derive(Debug, Clone)]
enum Node {
    TableLeaf {
        cells: Vec<(i64, Payload)>,
    },
    TableInterior {
        right: PageNo,
        cells: Vec<(PageNo, i64)>,
    },
    IndexLeaf {
        cells: Vec<Vec<u8>>,
    },
    IndexInterior {
        right: PageNo,
        cells: Vec<(PageNo, Vec<u8>)>,
    },
}

/// `N` bytes at `off`, or `None` past the end of `buf`.
fn le<const N: usize>(buf: &[u8], off: usize) -> Option<[u8; N]> {
    buf.get(off..off.checked_add(N)?)?.try_into().ok()
}

/// Head of a table-leaf cell.
fn leaf_head(rowid: i64, p: &Payload) -> [u8; LEAF_HEAD] {
    let mut head = [0u8; LEAF_HEAD];
    let fields: [&[u8]; 4] = [
        &rowid.to_le_bytes(),
        &p.total_len.to_le_bytes(),
        &(p.local.len() as u32).to_le_bytes(),
        &p.overflow.to_le_bytes(),
    ];
    let mut at = 0;
    for f in fields {
        head[at..at + f.len()].copy_from_slice(f);
        at += f.len();
    }
    head
}

/// Length prefix of an index key.
fn key_len(key: &[u8]) -> [u8; 2] {
    (key.len() as u16).to_le_bytes()
}

/// Decodes a table-interior cell into (child, separator rowid).
fn int_cell(c: &[u8; INT_CELL]) -> (PageNo, i64) {
    let [p0, p1, p2, p3, k0, k1, k2, k3, k4, k5, k6, k7] = *c;
    (
        u32::from_le_bytes([p0, p1, p2, p3]),
        i64::from_le_bytes([k0, k1, k2, k3, k4, k5, k6, k7]),
    )
}

/// Header of a B-tree page.
#[derive(Debug, Clone, Copy)]
struct Header {
    kind: u8,
    count: usize,
    /// Rightmost child (interior pages).
    right: PageNo,
}

fn header(buf: &[u8]) -> Result<Header> {
    let (Some(&kind), Some(count), Some(right)) = (buf.first(), le::<2>(buf, 2), le::<4>(buf, 4))
    else {
        return Err(DbError::Corrupt("b-tree page header truncated"));
    };
    if !(T_TABLE_LEAF..=T_INDEX_INT).contains(&kind) {
        return Err(DbError::Corrupt("unknown b-tree page type"));
    }
    Ok(Header {
        kind,
        count: usize::from(u16::from_le_bytes(count)),
        right: u32::from_le_bytes(right),
    })
}

fn is_leaf(kind: u8) -> bool {
    kind == T_TABLE_LEAF || kind == T_INDEX_LEAF
}

/// The cells of a table-interior page, bounds-checked as one array.
fn int_cells(buf: &[u8], h: Header) -> Result<&[[u8; INT_CELL]]> {
    let area = buf
        .get(HDR..HDR + INT_CELL * h.count)
        .ok_or(DbError::Corrupt("interior cell overruns page"))?;
    Ok(area.as_chunks().0)
}

/// Position and page of the child of a table-interior page that covers
/// `rowid`: the first separator `>= rowid`, else the rightmost child.
fn int_child(buf: &[u8], h: Header, rowid: i64) -> Result<(usize, PageNo)> {
    let cells = int_cells(buf, h)?;
    let idx = cells.partition_point(|c| int_cell(c).1 < rowid);
    Ok((idx, cells.get(idx).map_or(h.right, |c| int_cell(c).0)))
}

/// One cell, borrowed from its page.
#[derive(Debug, Clone, Copy)]
struct Cell<'a> {
    /// Encoded length in bytes.
    size: usize,
    /// Table cells: the rowid (leaf) or separator (interior).
    rowid: i64,
    /// Child page (interior cells) or overflow head (table leaf, 0 = none).
    ptr: PageNo,
    /// Declared payload length (table leaf).
    total_len: u32,
    /// Local payload prefix (table leaf) or key (index cells).
    bytes: &'a [u8],
}

fn table_leaf_cell(buf: &[u8], at: usize) -> Option<Cell<'_>> {
    let local_len = u32::from_le_bytes(le(buf, at + 12)?) as usize;
    let start = at + LEAF_HEAD;
    Some(Cell {
        size: LEAF_HEAD + local_len,
        rowid: i64::from_le_bytes(le(buf, at)?),
        ptr: u32::from_le_bytes(le(buf, at + 16)?),
        total_len: u32::from_le_bytes(le(buf, at + 8)?),
        bytes: buf.get(start..start.checked_add(local_len)?)?,
    })
}

fn index_cell(buf: &[u8], at: usize, interior: bool) -> Option<Cell<'_>> {
    let (ptr, at_len) = if interior {
        (u32::from_le_bytes(le(buf, at)?), at + 4)
    } else {
        (0, at)
    };
    let len = usize::from(u16::from_le_bytes(le(buf, at_len)?));
    Some(Cell {
        size: at_len - at + 2 + len,
        rowid: 0,
        ptr,
        total_len: 0,
        bytes: buf.get(at_len + 2..at_len + 2 + len)?,
    })
}

/// Parses the cell of a `kind` page that starts at byte `at`. Table
/// interior pages are read as one array instead ([`int_cells`]).
fn parse_cell(buf: &[u8], kind: u8, at: usize) -> Result<Cell<'_>> {
    match kind {
        T_TABLE_LEAF => table_leaf_cell(buf, at).ok_or(DbError::Corrupt("leaf cell overruns page")),
        T_INDEX_LEAF | T_INDEX_INT => index_cell(buf, at, kind == T_INDEX_INT)
            .ok_or(DbError::Corrupt("index cell overruns page")),
        _ => Err(DbError::Corrupt("unknown b-tree page type")),
    }
}

/// Walks `left` cells of a `kind` page from byte `at`, bounds-checking
/// each; yields every cell with its offset, and stops after an error.
struct Cells<'a> {
    buf: &'a [u8],
    kind: u8,
    at: usize,
    left: usize,
}

impl<'a> Cells<'a> {
    fn of(buf: &'a [u8], h: Header) -> Self {
        Cells {
            buf,
            kind: h.kind,
            at: HDR,
            left: h.count,
        }
    }
}

impl<'a> Iterator for Cells<'a> {
    type Item = Result<(usize, Cell<'a>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let at = self.at;
        match parse_cell(self.buf, self.kind, at) {
            Ok(c) => {
                self.at += c.size;
                self.left -= 1;
                Some(Ok((at, c)))
            }
            Err(e) => {
                self.left = 0;
                Some(Err(e))
            }
        }
    }
}

/// Where a search key falls on a page.
#[derive(Debug, Clone, Copy)]
struct Seek<'a> {
    /// Index and byte offset of the first cell not ordered before the
    /// key (`count` and `end` when every cell is).
    idx: usize,
    at: usize,
    /// That cell.
    cell: Option<Cell<'a>>,
    /// Bytes in use: the header plus every cell.
    end: usize,
}

/// Finds the first cell for which `before` is false. Walks and
/// bounds-checks every cell of the page, not only those up to the match,
/// so a search rejects exactly the pages a decode would.
fn seek<'a>(
    buf: &'a [u8],
    h: Header,
    mut before: impl FnMut(&Cell<'a>) -> bool,
) -> Result<Seek<'a>> {
    let mut s = Seek {
        idx: h.count,
        at: HDR,
        cell: None,
        end: HDR,
    };
    for (i, c) in Cells::of(buf, h).enumerate() {
        let (at, c) = c?;
        if s.cell.is_none() && !before(&c) {
            s = Seek {
                idx: i,
                at,
                cell: Some(c),
                ..s
            };
        }
        s.end = at + c.size;
    }
    if s.cell.is_none() {
        s.at = s.end;
    }
    Ok(s)
}

/// Validates every cell of a page; returns its header and bytes in use.
fn used(buf: &[u8]) -> Result<(Header, usize)> {
    let h = header(buf)?;
    if h.kind == T_TABLE_INT {
        return Ok((h, HDR + INT_CELL * int_cells(buf, h)?.len()));
    }
    Ok((h, seek(buf, h, |_| true)?.end))
}

/// Child pointers of an interior page in order, the rightmost last.
fn children(buf: &[u8]) -> Result<Vec<PageNo>> {
    let h = header(buf)?;
    let mut kids = match h.kind {
        T_TABLE_INT => int_cells(buf, h)?.iter().map(|c| int_cell(c).0).collect(),
        T_INDEX_INT => Cells::of(buf, h)
            .map(|c| c.map(|(_, c)| c.ptr))
            .collect::<Result<Vec<_>>>()?,
        _ => return Err(DbError::Corrupt("leaf page where an interior page belongs")),
    };
    kids.push(h.right);
    Ok(kids)
}

/// An in-place cell edit: the `remove` bytes at `at` give way to a new
/// cell, the cells behind it up to `end` move, and the page's cell count
/// becomes `count`.
#[derive(Debug, Clone, Copy)]
struct Splice {
    at: usize,
    remove: usize,
    end: usize,
    count: usize,
}

impl Splice {
    /// True if the page still fits after inserting `len` bytes.
    fn fits(&self, len: usize, page_size: usize) -> bool {
        self.end - self.remove + len <= page_size
    }

    /// Applies the edit; the new cell is `parts` concatenated. Bytes freed
    /// at the end are zeroed, so the page stays exactly what
    /// [`Node::encode`] would write. Callers check [`Splice::fits`].
    fn apply(self, buf: &mut [u8], parts: &[&[u8]]) {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let new_end = self.end - self.remove + len;
        if len != self.remove {
            buf.copy_within(self.at + self.remove..self.end, self.at + len);
        }
        if new_end < self.end {
            buf[new_end..self.end].fill(0);
        }
        let mut at = self.at;
        for p in parts {
            buf[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        buf[2..4].copy_from_slice(&(self.count as u16).to_le_bytes());
    }
}

impl Node {
    fn encode(&self, page_size: usize) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(page_size);
        let (kind, count, right) = match self {
            Node::TableLeaf { cells } => (T_TABLE_LEAF, cells.len(), 0),
            Node::TableInterior { right, cells } => (T_TABLE_INT, cells.len(), *right),
            Node::IndexLeaf { cells } => (T_INDEX_LEAF, cells.len(), 0),
            Node::IndexInterior { right, cells } => (T_INDEX_INT, cells.len(), *right),
        };
        out.push(kind);
        out.push(0);
        out.extend_from_slice(&(count as u16).to_le_bytes());
        out.extend_from_slice(&right.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        match self {
            Node::TableLeaf { cells } => {
                for (rowid, p) in cells {
                    out.extend_from_slice(&leaf_head(*rowid, p));
                    out.extend_from_slice(&p.local);
                }
            }
            Node::TableInterior { cells, .. } => {
                for (child, key) in cells {
                    out.extend_from_slice(&child.to_le_bytes());
                    out.extend_from_slice(&key.to_le_bytes());
                }
            }
            Node::IndexLeaf { cells } => {
                for key in cells {
                    out.extend_from_slice(&key_len(key));
                    out.extend_from_slice(key);
                }
            }
            Node::IndexInterior { cells, .. } => {
                for (child, key) in cells {
                    out.extend_from_slice(&child.to_le_bytes());
                    out.extend_from_slice(&key_len(key));
                    out.extend_from_slice(key);
                }
            }
        }
        if out.len() > page_size {
            return None;
        }
        out.resize(page_size, 0);
        Some(out)
    }

    fn decode(buf: &[u8]) -> Result<Node> {
        let h = header(buf)?;
        if h.kind == T_TABLE_INT {
            let cells = int_cells(buf, h)?.iter().map(int_cell).collect();
            return Ok(Node::TableInterior {
                right: h.right,
                cells,
            });
        }
        let cells = Cells::of(buf, h).map(|c| c.map(|(_, c)| c));
        Ok(match h.kind {
            T_TABLE_LEAF => Node::TableLeaf {
                cells: cells
                    .map(|c| {
                        c.map(|c| {
                            let payload = Payload {
                                total_len: c.total_len,
                                local: c.bytes.to_vec(),
                                overflow: c.ptr,
                            };
                            (c.rowid, payload)
                        })
                    })
                    .collect::<Result<_>>()?,
            },
            T_INDEX_LEAF => Node::IndexLeaf {
                cells: cells
                    .map(|c| c.map(|c| c.bytes.to_vec()))
                    .collect::<Result<_>>()?,
            },
            _ => Node::IndexInterior {
                right: h.right,
                cells: cells
                    .map(|c| c.map(|c| (c.ptr, c.bytes.to_vec())))
                    .collect::<Result<_>>()?,
            },
        })
    }

    /// Applies a delete's fix-up to an interior node (see [`ParentOp`]).
    fn apply(&mut self, op: ParentOp) -> Result<()> {
        match self {
            Node::TableInterior { right, cells } => apply_parent_op(right, cells, op),
            Node::IndexInterior { right, cells } => apply_parent_op(right, cells, op),
            _ => Err(DbError::Corrupt("leaf page where an interior page belongs")),
        }
    }
}

/// A change a delete makes to the parent of the leaf it emptied or
/// merged, in terms of child positions (the rightmost child is position
/// `cells.len()`).
#[derive(Debug, Clone, Copy)]
enum ParentOp {
    /// Child `i` was emptied and freed: drop it with its separator.
    Drop(usize),
    /// Child `i + 1` was merged into child `i`: drop the separator between
    /// them and let child `i`'s page cover both ranges.
    Merge(usize),
}

impl ParentOp {
    /// The same change on the parent's child list.
    fn apply_to(self, kids: &mut Vec<PageNo>) {
        match self {
            ParentOp::Drop(i) => kids.remove(i),
            ParentOp::Merge(i) => kids.remove(i + 1),
        };
    }
}

fn apply_parent_op<K>(
    right: &mut PageNo,
    cells: &mut Vec<(PageNo, K)>,
    op: ParentOp,
) -> Result<()> {
    let i = match op {
        ParentOp::Drop(i) | ParentOp::Merge(i) => i,
    };
    if i > cells.len() || cells.is_empty() {
        return Err(DbError::Corrupt("delete fix-up past the parent's cells"));
    }
    match op {
        ParentOp::Drop(_) if i == cells.len() => {
            if let Some((child, _)) = cells.pop() {
                *right = child;
            }
        }
        ParentOp::Drop(_) => {
            cells.remove(i);
        }
        ParentOp::Merge(_) => {
            let (left, _) = cells.remove(i);
            match cells.get_mut(i) {
                Some(cell) => cell.0 = left,
                None => *right = left,
            }
        }
    }
    Ok(())
}

/// Visitor for table scans: receives the pager (for overflow reads by the
/// caller), the rowid, and the row payload; returns `false` to stop.
pub type TableVisitor<'a, D> = dyn FnMut(&mut Pager<D>, i64, Vec<u8>) -> Result<bool> + 'a;

/// Result of a recursive insert: the child split, promoting a separator.
enum Split<K> {
    None,
    Promoted { sep: K, right: PageNo },
}

/// What a page visit decided: go down to a child (at parent position
/// `idx`), or act on the leaf.
enum Step<T> {
    Down { idx: usize, child: PageNo },
    Leaf(T),
}

/// Runs `f` on page `pgno` where it sits in the pager cache.
fn visit<D: BlockDevice, R>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    f: impl FnOnce(&[u8]) -> Result<R>,
) -> Result<R> {
    pager.with_page(pgno, f)?
}

/// Creates an empty table B-tree, returning its root page.
pub fn create_table_tree<D: BlockDevice>(pager: &mut Pager<D>) -> Result<PageNo> {
    let root = pager.alloc_page()?;
    write_node(pager, root, &Node::TableLeaf { cells: Vec::new() })?;
    Ok(root)
}

/// Creates an empty index B-tree, returning its root page.
pub fn create_index_tree<D: BlockDevice>(pager: &mut Pager<D>) -> Result<PageNo> {
    let root = pager.alloc_page()?;
    write_node(pager, root, &Node::IndexLeaf { cells: Vec::new() })?;
    Ok(root)
}

fn read_node<D: BlockDevice>(pager: &mut Pager<D>, pgno: PageNo) -> Result<Node> {
    visit(pager, pgno, Node::decode)
}

/// Decodes a page the current operation read on its way down, without
/// counting another access.
fn reread_node<D: BlockDevice>(pager: &mut Pager<D>, pgno: PageNo) -> Result<Node> {
    pager.peek(pgno, Node::decode)?
}

fn write_node<D: BlockDevice>(pager: &mut Pager<D>, pgno: PageNo, node: &Node) -> Result<()> {
    let page = node
        .encode(pager.page_size())
        .ok_or(DbError::Corrupt("b-tree node overflows its page"))?;
    pager.put(pgno, page)
}

/// Largest payload prefix stored in-page; the rest goes to overflow pages.
fn max_local(page_size: usize) -> usize {
    page_size / 4
}

/// Split index such that both halves stay within a page even when cell
/// sizes are skewed: accumulate encoded sizes until half the total, while
/// keeping both sides non-empty.
fn split_point_by_size<T>(cells: &[T], size_of: impl Fn(&T) -> usize) -> usize {
    debug_assert!(cells.len() >= 2, "cannot split fewer than two cells");
    let total: usize = cells.iter().map(&size_of).sum();
    let mut acc = 0;
    for (i, c) in cells.iter().enumerate() {
        acc += size_of(c);
        if acc * 2 >= total {
            return (i + 1).min(cells.len() - 1).max(1);
        }
    }
    cells.len() / 2
}

fn write_overflow<D: BlockDevice>(pager: &mut Pager<D>, rest: &[u8]) -> Result<PageNo> {
    // Build the chain back to front so each page knows its successor.
    let ps = pager.page_size();
    let per_page = ps - 8;
    let mut next: PageNo = 0;
    let chunks: Vec<&[u8]> = rest.chunks(per_page).collect();
    for chunk in chunks.iter().rev() {
        let pgno = pager.alloc_page()?;
        let mut page = vec![0u8; ps];
        page[0..4].copy_from_slice(&next.to_le_bytes());
        page[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        page[8..8 + chunk.len()].copy_from_slice(chunk);
        pager.put(pgno, page)?;
        next = pgno;
    }
    Ok(next)
}

/// Next-page pointer of an overflow page.
fn overflow_next(page: &[u8]) -> Result<PageNo> {
    le(page, 0)
        .map(u32::from_le_bytes)
        .ok_or(DbError::Corrupt("overflow page truncated"))
}

/// Completes a payload whose local prefix is `value` by appending its
/// overflow chain from `pgno`, up to the declared `total_len`.
fn read_overflow<D: BlockDevice>(
    pager: &mut Pager<D>,
    mut pgno: PageNo,
    total_len: u32,
    mut value: Vec<u8>,
) -> Result<Vec<u8>> {
    while pgno != 0 {
        pgno = visit(pager, pgno, |page| {
            let chunk = le(page, 4)
                .map(|n| u32::from_le_bytes(n) as usize)
                .and_then(|n| page.get(8..8 + n))
                .ok_or(DbError::Corrupt("overflow page overruns"))?;
            value.extend_from_slice(chunk);
            overflow_next(page)
        })?;
        if value.len() > total_len as usize {
            return Err(DbError::Corrupt("overflow chain longer than its payload"));
        }
    }
    Ok(value)
}

fn free_overflow<D: BlockDevice>(pager: &mut Pager<D>, mut pgno: PageNo) -> Result<()> {
    while pgno != 0 {
        let next = visit(pager, pgno, overflow_next)?;
        pager.free_page(pgno)?;
        pgno = next;
    }
    Ok(())
}

fn make_payload<D: BlockDevice>(pager: &mut Pager<D>, value: &[u8]) -> Result<Payload> {
    let cap = max_local(pager.page_size());
    if value.len() <= cap {
        Ok(Payload {
            total_len: value.len() as u32,
            local: value.to_vec(),
            overflow: 0,
        })
    } else {
        let overflow = write_overflow(pager, &value[cap..])?;
        Ok(Payload {
            total_len: value.len() as u32,
            local: value[..cap].to_vec(),
            overflow,
        })
    }
}

/// The local part of a table-leaf cell's value, with room for the rest.
fn local_value(c: &Cell<'_>) -> Vec<u8> {
    let mut value = Vec::with_capacity(if c.ptr == 0 {
        c.bytes.len()
    } else {
        c.total_len as usize
    });
    value.extend_from_slice(c.bytes);
    value
}

// --- table tree ------------------------------------------------------------

/// Inserts (or replaces) `value` under `rowid`.
pub fn table_insert<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    rowid: i64,
    value: &[u8],
) -> Result<()> {
    pager.retaining_evicted(|pager| {
        let payload = make_payload(pager, value)?;
        match table_insert_rec(pager, root, rowid, payload)? {
            Split::None => Ok(()),
            Split::Promoted { sep, right } => grow_root(pager, root, sep, right),
        }
    })
}

/// A root split: the root keeps its page number, so its (left-half)
/// content moves to a new page and the root page becomes an interior node
/// over the two halves.
fn grow_root<D: BlockDevice, K: Sep>(
    pager: &mut Pager<D>,
    root: PageNo,
    sep: K,
    right: PageNo,
) -> Result<()> {
    let left = pager.alloc_page()?;
    let old = read_node(pager, root)?;
    write_node(pager, left, &old)?;
    write_node(pager, root, &K::interior(right, vec![(left, sep)]))
}

/// What differs between table and index interior nodes.
trait Sep: Sized {
    /// Encoded size of an interior cell holding this separator.
    fn cell_size(&self) -> usize;
    /// Where an overflowing interior node splits.
    fn split_point(cells: &[(PageNo, Self)]) -> usize;
    fn interior(right: PageNo, cells: Vec<(PageNo, Self)>) -> Node;
    fn parts(node: Node) -> Option<(PageNo, Vec<(PageNo, Self)>)>;
}

impl Sep for i64 {
    fn cell_size(&self) -> usize {
        INT_CELL
    }

    fn split_point(cells: &[(PageNo, i64)]) -> usize {
        cells.len() / 2 // interior cells are fixed-size
    }

    fn interior(right: PageNo, cells: Vec<(PageNo, i64)>) -> Node {
        Node::TableInterior { right, cells }
    }

    fn parts(node: Node) -> Option<(PageNo, Vec<(PageNo, i64)>)> {
        match node {
            Node::TableInterior { right, cells } => Some((right, cells)),
            _ => None,
        }
    }
}

impl Sep for Vec<u8> {
    fn cell_size(&self) -> usize {
        6 + self.len()
    }

    fn split_point(cells: &[(PageNo, Vec<u8>)]) -> usize {
        split_point_by_size(cells, |(_, k)| k.cell_size())
    }

    fn interior(right: PageNo, cells: Vec<(PageNo, Vec<u8>)>) -> Node {
        Node::IndexInterior { right, cells }
    }

    fn parts(node: Node) -> Option<(PageNo, Vec<(PageNo, Vec<u8>)>)> {
        match node {
            Node::IndexInterior { right, cells } => Some((right, cells)),
            _ => None,
        }
    }
}

/// Wires a child split into interior page `pgno`, read on the way down:
/// the child at position `idx` kept its lower half and `new_right` holds
/// the upper half. Rewrites the parent, splitting it in turn if it
/// overflows; the middle separator moves up and its child becomes the
/// left node's rightmost.
fn promote<D: BlockDevice, K: Sep>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    idx: usize,
    child: PageNo,
    sep: K,
    new_right: PageNo,
) -> Result<Split<K>> {
    let (mut right, mut cells) = K::parts(reread_node(pager, pgno)?)
        .ok_or(DbError::Corrupt("leaf page where an interior page belongs"))?;
    if idx == cells.len() {
        cells.push((child, sep));
        right = new_right;
    } else {
        cells.insert(idx, (child, sep));
        cells[idx + 1].0 = new_right;
    }
    if HDR + cells.iter().map(|(_, k)| k.cell_size()).sum::<usize>() <= pager.page_size() {
        write_node(pager, pgno, &K::interior(right, cells))?;
        return Ok(Split::None);
    }
    let mut upper = cells.split_off(K::split_point(&cells));
    let (sep_child, sep) = upper.remove(0);
    let new_right = pager.alloc_page()?;
    write_node(pager, new_right, &K::interior(right, upper))?;
    write_node(pager, pgno, &K::interior(sep_child, cells))?;
    Ok(Split::Promoted {
        sep,
        right: new_right,
    })
}

/// A table-leaf change decided on the cached page.
enum LeafPlan {
    /// The change fits: splice it in place after freeing the replaced
    /// payload's overflow chain (0 = none).
    InPlace(Splice, PageNo),
    /// The leaf must split: its decoded cells.
    Split(Vec<(i64, Payload)>),
}

fn table_insert_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    rowid: i64,
    payload: Payload,
) -> Result<Split<i64>> {
    let ps = pager.page_size();
    let step = visit(pager, pgno, |buf| {
        let h = header(buf)?;
        match h.kind {
            T_TABLE_INT => {
                let (idx, child) = int_child(buf, h, rowid)?;
                Ok(Step::Down { idx, child })
            }
            T_TABLE_LEAF => {
                let s = seek(buf, h, |c| c.rowid < rowid)?;
                let old = s.cell.filter(|c| c.rowid == rowid);
                let edit = Splice {
                    at: s.at,
                    remove: old.map_or(0, |c| c.size),
                    end: s.end,
                    count: h.count + usize::from(old.is_none()),
                };
                if edit.fits(LEAF_HEAD + payload.local.len(), ps) {
                    return Ok(Step::Leaf(LeafPlan::InPlace(
                        edit,
                        old.map_or(0, |c| c.ptr),
                    )));
                }
                match Node::decode(buf)? {
                    Node::TableLeaf { cells } => Ok(Step::Leaf(LeafPlan::Split(cells))),
                    _ => Err(DbError::Corrupt("index node in table tree")),
                }
            }
            _ => Err(DbError::Corrupt("index node in table tree")),
        }
    })?;
    match step {
        Step::Leaf(LeafPlan::InPlace(edit, old_overflow)) => {
            if old_overflow != 0 {
                free_overflow(pager, old_overflow)?;
            }
            pager.with_page_mut(pgno, |buf| {
                edit.apply(buf, &[&leaf_head(rowid, &payload), &payload.local]);
            })?;
            Ok(Split::None)
        }
        Step::Leaf(LeafPlan::Split(mut cells)) => {
            match cells.binary_search_by_key(&rowid, |(r, _)| *r) {
                Ok(i) => {
                    if cells[i].1.overflow != 0 {
                        free_overflow(pager, cells[i].1.overflow)?;
                    }
                    cells[i].1 = payload;
                }
                Err(i) => cells.insert(i, (rowid, payload)),
            }
            split_leaf(
                pager,
                pgno,
                cells,
                |(_, p)| LEAF_HEAD + p.local.len(),
                |&(rowid, _)| rowid,
                |cells| Node::TableLeaf { cells },
            )
        }
        Step::Down { idx, child } => match table_insert_rec(pager, child, rowid, payload)? {
            Split::None => Ok(Split::None),
            Split::Promoted { sep, right } => promote(pager, pgno, idx, child, sep, right),
        },
    }
}

/// Splits an overflowing leaf where its encoded size halves: the lower
/// half stays on `pgno` and promotes its last key, the upper half moves
/// to a new page.
fn split_leaf<D: BlockDevice, C, K>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    mut cells: Vec<C>,
    size: impl Fn(&C) -> usize,
    key: impl Fn(&C) -> K,
    leaf: impl Fn(Vec<C>) -> Node,
) -> Result<Split<K>> {
    let mid = split_point_by_size(&cells, size);
    let upper = cells.split_off(mid);
    let sep = cells
        .last()
        .map(key)
        .ok_or(DbError::Corrupt("b-tree split of a single cell"))?;
    let right = pager.alloc_page()?;
    write_node(pager, right, &leaf(upper))?;
    write_node(pager, pgno, &leaf(cells))?;
    Ok(Split::Promoted { sep, right })
}

/// Fetches the value stored under `rowid`.
pub fn table_get<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    rowid: i64,
) -> Result<Option<Vec<u8>>> {
    let mut pgno = root;
    loop {
        let step = visit(pager, pgno, |buf| {
            let h = header(buf)?;
            match h.kind {
                T_TABLE_INT => {
                    let (idx, child) = int_child(buf, h, rowid)?;
                    Ok(Step::Down { idx, child })
                }
                T_TABLE_LEAF => {
                    let s = seek(buf, h, |c| c.rowid < rowid)?;
                    let hit = s.cell.filter(|c| c.rowid == rowid);
                    Ok(Step::Leaf(
                        hit.map(|c| (local_value(&c), c.ptr, c.total_len)),
                    ))
                }
                _ => Err(DbError::Corrupt("index node in table tree")),
            }
        })?;
        match step {
            Step::Down { child, .. } => pgno = child,
            Step::Leaf(None) => return Ok(None),
            Step::Leaf(Some((value, overflow, total_len))) => {
                return read_overflow(pager, overflow, total_len, value).map(Some);
            }
        }
    }
}

/// Walks rows with `rowid >= start` in order; the callback returns `false`
/// to stop.
pub fn table_scan_from<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    start: i64,
    f: &mut TableVisitor<'_, D>,
) -> Result<()> {
    scan_table_rec(pager, root, start, f).map(|_| ())
}

fn scan_table_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    start: i64,
    f: &mut TableVisitor<'_, D>,
) -> Result<bool> {
    let step = visit(pager, pgno, |buf| {
        let h = header(buf)?;
        match h.kind {
            T_TABLE_INT => {
                let cells = int_cells(buf, h)?;
                let from = cells.partition_point(|c| int_cell(c).1 < start);
                let kids = cells[from..].iter().map(|c| int_cell(c).0);
                Ok(Scan::Children(kids.chain([h.right]).collect()))
            }
            T_TABLE_LEAF => {
                let s = seek(buf, h, |c| c.rowid < start)?;
                let run = buf.get(s.at..s.end).unwrap_or_default().to_vec();
                Ok(Scan::Cells(h.count - s.idx, run))
            }
            _ => Err(DbError::Corrupt("index node in table tree")),
        }
    })?;
    match step {
        Scan::Children(kids) => {
            for child in kids {
                if !scan_table_rec(pager, child, start, f)? {
                    return Ok(false);
                }
            }
        }
        Scan::Cells(count, run) => {
            let cells = Cells {
                buf: &run,
                kind: T_TABLE_LEAF,
                at: 0,
                left: count,
            };
            for c in cells {
                let (_, c) = c?;
                let value = read_overflow(pager, c.ptr, c.total_len, local_value(&c))?;
                if !f(pager, c.rowid, value)? {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// What a scan takes from one page: the children to visit, or a leaf's
/// matching cells (count and bytes) copied out as one run — the table
/// visitor needs the pager, so the page cannot stay borrowed.
enum Scan {
    Children(Vec<PageNo>),
    Cells(usize, Vec<u8>),
}

/// Largest rowid in the tree (for rowid assignment).
pub fn table_last_rowid<D: BlockDevice>(pager: &mut Pager<D>, root: PageNo) -> Result<Option<i64>> {
    let mut pgno = root;
    loop {
        let step = visit(pager, pgno, |buf| {
            let h = header(buf)?;
            match h.kind {
                T_TABLE_INT => {
                    int_cells(buf, h)?;
                    Ok(Step::Down {
                        idx: h.count,
                        child: h.right,
                    })
                }
                T_TABLE_LEAF => {
                    let last =
                        Cells::of(buf, h).try_fold(None, |_, c| c.map(|(_, c)| Some(c.rowid)));
                    Ok(Step::Leaf(last?))
                }
                _ => Err(DbError::Corrupt("index node in table tree")),
            }
        })?;
        match step {
            Step::Down { child, .. } => pgno = child,
            Step::Leaf(last) => return Ok(last),
        }
    }
}

/// Deletes `rowid`; returns true if it existed.
pub fn table_delete<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    rowid: i64,
) -> Result<bool> {
    pager.retaining_evicted(|pager| {
        let removed = table_delete_rec(pager, root, rowid)?;
        collapse_root(pager, root)?;
        Ok(removed)
    })
}

fn table_delete_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    rowid: i64,
) -> Result<bool> {
    let step = visit(pager, pgno, |buf| {
        let h = header(buf)?;
        match h.kind {
            T_TABLE_INT => {
                let (idx, child) = int_child(buf, h, rowid)?;
                Ok(Step::Down { idx, child })
            }
            T_TABLE_LEAF => {
                let s = seek(buf, h, |c| c.rowid < rowid)?;
                Ok(Step::Leaf(s.cell.filter(|c| c.rowid == rowid).map(|c| {
                    let edit = Splice {
                        at: s.at,
                        remove: c.size,
                        end: s.end,
                        count: h.count - 1,
                    };
                    (edit, c.ptr)
                })))
            }
            _ => Err(DbError::Corrupt("index node in table tree")),
        }
    })?;
    match step {
        Step::Leaf(None) => Ok(false),
        Step::Leaf(Some((edit, overflow))) => {
            if overflow != 0 {
                free_overflow(pager, overflow)?;
            }
            pager.with_page_mut(pgno, |buf| edit.apply(buf, &[]))?;
            Ok(true)
        }
        Step::Down { idx, child } => {
            let removed = table_delete_rec(pager, child, rowid)?;
            if removed {
                rebalance(pager, pgno, idx, child, T_TABLE_LEAF)?;
            }
            Ok(removed)
        }
    }
}

/// After a delete below interior page `pgno` through its child at
/// position `idx`: frees the child if it is now an empty leaf, then tries
/// to merge an underfull leaf with a neighbour — at its own position, or
/// as the right neighbour of the previous one. The parent is read in
/// place and decoded only if one of these changes it.
fn rebalance<D: BlockDevice>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    idx: usize,
    child: PageNo,
    leaf_kind: u8,
) -> Result<()> {
    let emptied = visit(pager, child, |buf| {
        let (h, _) = used(buf)?;
        Ok(is_leaf(h.kind) && h.count == 0)
    })?;
    let mut kids = pager.peek(pgno, children)??;
    let mut ops = Vec::new();
    if emptied && kids.len() > 1 {
        ops.push(ParentOp::Drop(idx));
        ParentOp::Drop(idx).apply_to(&mut kids);
        pager.free_page(child)?;
    }
    if kids.len() > 1 {
        let anchor = idx.min(kids.len() - 2);
        for at in [Some(anchor), anchor.checked_sub(1)].into_iter().flatten() {
            if merge_leaves(pager, &kids, at, leaf_kind)? {
                ops.push(ParentOp::Merge(at));
                ParentOp::Merge(at).apply_to(&mut kids);
                break;
            }
        }
    }
    if ops.is_empty() {
        return Ok(());
    }
    let mut node = reread_node(pager, pgno)?;
    for op in ops {
        node.apply(op)?;
    }
    write_node(pager, pgno, &node)
}

/// Tries to merge the leaf child at parent position `at` with its right
/// neighbour. Fires only when both are `leaf_kind` leaves, one of them is
/// underfull (under a quarter page) and together they fit in 90 % of a
/// page. On success the neighbour's cells are appended in place to the
/// left page and the neighbour's page is freed.
fn merge_leaves<D: BlockDevice>(
    pager: &mut Pager<D>,
    kids: &[PageNo],
    at: usize,
    leaf_kind: u8,
) -> Result<bool> {
    let (Some(&left_pg), Some(&neighbour_pg)) = (kids.get(at), kids.get(at + 1)) else {
        return Ok(false);
    };
    let ps = pager.page_size();
    let (lh, l_end) = visit(pager, left_pg, used)?;
    let moved = visit(pager, neighbour_pg, |buf| {
        let (rh, r_end) = used(buf)?;
        let merge = lh.kind == leaf_kind
            && rh.kind == leaf_kind
            && (l_end < ps / 4 || r_end < ps / 4)
            && l_end + r_end - HDR <= ps * 9 / 10;
        Ok(merge.then(|| (rh.count, buf[HDR..r_end].to_vec())))
    })?;
    let Some((r_count, cells)) = moved else {
        return Ok(false);
    };
    let edit = Splice {
        at: l_end,
        remove: 0,
        end: l_end,
        count: lh.count + r_count,
    };
    pager.with_page_mut(left_pg, |buf| edit.apply(buf, &[&cells]))?;
    pager.free_page(neighbour_pg)?;
    Ok(true)
}

/// If the root is an interior node with no separators, absorb its only
/// child so the tree shrinks (keeping the root page number stable).
fn collapse_root<D: BlockDevice>(pager: &mut Pager<D>, root: PageNo) -> Result<()> {
    loop {
        let only_child = visit(pager, root, |buf| {
            let (h, _) = used(buf)?;
            Ok((!is_leaf(h.kind) && h.count == 0).then_some(h.right))
        })?;
        let Some(child) = only_child else {
            return Ok(());
        };
        let node = read_node(pager, child)?;
        write_node(pager, root, &node)?;
        pager.free_page(child)?;
    }
}

// --- index tree --------------------------------------------------------------

/// Rejects an index key of a quarter page or more: a split must always
/// leave each half room for the key that caused it.
pub fn check_index_key(page_size: usize, key: &[u8]) -> Result<()> {
    if key.len() < page_size / 4 {
        return Ok(());
    }
    Err(DbError::Constraint(format!(
        "index key of {} bytes exceeds the {}-byte limit",
        key.len(),
        page_size / 4 - 1
    )))
}

/// Inserts an encoded key (keys are unique: they embed the rowid).
pub fn index_insert<D: BlockDevice>(pager: &mut Pager<D>, root: PageNo, key: &[u8]) -> Result<()> {
    check_index_key(pager.page_size(), key)?;
    pager.retaining_evicted(|pager| match index_insert_rec(pager, root, key)? {
        Split::None => Ok(()),
        Split::Promoted { sep, right } => grow_root(pager, root, sep, right),
    })
}

/// An index-leaf insert decided on the cached page.
enum KeyPlan {
    /// The key is already there: the page is rewritten unchanged.
    Present,
    /// The key fits: splice it in place.
    InPlace(Splice),
    /// The leaf must split: its decoded keys.
    Split(Vec<Vec<u8>>),
}

/// Position and page of the child of an index-interior page covering
/// `key`: the first separator `>= key`, else the rightmost child.
fn index_child(buf: &[u8], h: Header, key: &[u8]) -> Result<(usize, PageNo)> {
    let s = seek(buf, h, |c| c.bytes < key)?;
    Ok((s.idx, s.cell.map_or(h.right, |c| c.ptr)))
}

fn index_insert_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    key: &[u8],
) -> Result<Split<Vec<u8>>> {
    let ps = pager.page_size();
    let step = visit(pager, pgno, |buf| {
        let h = header(buf)?;
        match h.kind {
            T_INDEX_INT => {
                let (idx, child) = index_child(buf, h, key)?;
                Ok(Step::Down { idx, child })
            }
            T_INDEX_LEAF => {
                let s = seek(buf, h, |c| c.bytes < key)?;
                if s.cell.is_some_and(|c| c.bytes == key) {
                    return Ok(Step::Leaf(KeyPlan::Present));
                }
                let edit = Splice {
                    at: s.at,
                    remove: 0,
                    end: s.end,
                    count: h.count + 1,
                };
                if edit.fits(2 + key.len(), ps) {
                    return Ok(Step::Leaf(KeyPlan::InPlace(edit)));
                }
                match Node::decode(buf)? {
                    Node::IndexLeaf { cells } => Ok(Step::Leaf(KeyPlan::Split(cells))),
                    _ => Err(DbError::Corrupt("table node in index tree")),
                }
            }
            _ => Err(DbError::Corrupt("table node in index tree")),
        }
    })?;
    match step {
        Step::Leaf(KeyPlan::Present) => {
            pager.with_page_mut(pgno, |_| ())?;
            Ok(Split::None)
        }
        Step::Leaf(KeyPlan::InPlace(edit)) => {
            pager.with_page_mut(pgno, |buf| edit.apply(buf, &[&key_len(key), key]))?;
            Ok(Split::None)
        }
        Step::Leaf(KeyPlan::Split(mut cells)) => {
            let i = cells.partition_point(|c| c.as_slice() < key);
            cells.insert(i, key.to_vec());
            split_leaf(
                pager,
                pgno,
                cells,
                |k| 2 + k.len(),
                Clone::clone,
                |cells| Node::IndexLeaf { cells },
            )
        }
        Step::Down { idx, child } => match index_insert_rec(pager, child, key)? {
            Split::None => Ok(Split::None),
            Split::Promoted { sep, right } => promote(pager, pgno, idx, child, sep, right),
        },
    }
}

/// Deletes an exact key; returns true if it existed.
pub fn index_delete<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    key: &[u8],
) -> Result<bool> {
    pager.retaining_evicted(|pager| {
        let removed = index_delete_rec(pager, root, key)?;
        collapse_root(pager, root)?;
        Ok(removed)
    })
}

fn index_delete_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    key: &[u8],
) -> Result<bool> {
    let step = visit(pager, pgno, |buf| {
        let h = header(buf)?;
        match h.kind {
            T_INDEX_INT => {
                let (idx, child) = index_child(buf, h, key)?;
                Ok(Step::Down { idx, child })
            }
            T_INDEX_LEAF => {
                let s = seek(buf, h, |c| c.bytes < key)?;
                Ok(Step::Leaf(s.cell.filter(|c| c.bytes == key).map(|c| {
                    Splice {
                        at: s.at,
                        remove: c.size,
                        end: s.end,
                        count: h.count - 1,
                    }
                })))
            }
            _ => Err(DbError::Corrupt("table node in index tree")),
        }
    })?;
    match step {
        Step::Leaf(None) => Ok(false),
        Step::Leaf(Some(edit)) => {
            pager.with_page_mut(pgno, |buf| edit.apply(buf, &[]))?;
            Ok(true)
        }
        Step::Down { idx, child } => {
            let removed = index_delete_rec(pager, child, key)?;
            if removed {
                rebalance(pager, pgno, idx, child, T_INDEX_LEAF)?;
            }
            Ok(removed)
        }
    }
}

/// Walks keys `>= start` in order; the callback returns `false` to stop.
pub fn index_scan_from<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    start: &[u8],
    f: &mut dyn FnMut(&[u8]) -> Result<bool>,
) -> Result<()> {
    scan_index_rec(pager, root, start, f).map(|_| ())
}

fn scan_index_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    pgno: PageNo,
    start: &[u8],
    f: &mut dyn FnMut(&[u8]) -> Result<bool>,
) -> Result<bool> {
    // The key visitor needs no pager, so a leaf is visited in place; an
    // interior page hands back the children to visit.
    let step = visit(pager, pgno, |buf| {
        let h = header(buf)?;
        if h.kind != T_INDEX_LEAF && h.kind != T_INDEX_INT {
            return Err(DbError::Corrupt("table node in index tree"));
        }
        let s = seek(buf, h, |c| c.bytes < start)?;
        let from = Cells {
            buf,
            kind: h.kind,
            at: s.at,
            left: h.count - s.idx,
        };
        if h.kind == T_INDEX_INT {
            let kids = from.map(|c| c.map(|(_, c)| c.ptr)).chain([Ok(h.right)]);
            return Ok(Err(kids.collect::<Result<Vec<PageNo>>>()?));
        }
        for c in from {
            if !f(c?.1.bytes)? {
                return Ok(Ok(false));
            }
        }
        Ok(Ok(true))
    })?;
    match step {
        Ok(more) => Ok(more),
        Err(kids) => {
            for child in kids {
                if !scan_index_rec(pager, child, start, f)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
    }
}

/// Frees every page of a tree except the root itself, then resets the
/// root to an empty leaf (DROP TABLE / DROP INDEX).
pub fn clear_tree<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    is_table: bool,
) -> Result<()> {
    clear_rec(pager, root, true)?;
    let node = if is_table {
        Node::TableLeaf { cells: Vec::new() }
    } else {
        Node::IndexLeaf { cells: Vec::new() }
    };
    write_node(pager, root, &node)
}

fn clear_rec<D: BlockDevice>(pager: &mut Pager<D>, pgno: PageNo, is_root: bool) -> Result<()> {
    let (kids, overflows) = visit(pager, pgno, |buf| {
        let h = header(buf)?;
        match h.kind {
            T_TABLE_LEAF => {
                let heads = Cells::of(buf, h).map(|c| c.map(|(_, c)| c.ptr));
                let heads = heads.collect::<Result<Vec<_>>>()?;
                Ok((Vec::new(), heads))
            }
            T_INDEX_LEAF => used(buf).map(|_| (Vec::new(), Vec::new())),
            _ => Ok((children(buf)?, Vec::new())),
        }
    })?;
    for head in overflows.into_iter().filter(|&p| p != 0) {
        free_overflow(pager, head)?;
    }
    for child in kids {
        clear_rec(pager, child, false)?;
    }
    if !is_root {
        pager.free_page(pgno)?;
    }
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{DbJournalMode, SharedFs};
    use std::cell::RefCell;
    use std::rc::Rc;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};
    use xftl_fs::{FileSystem, FsConfig, JournalMode};
    use xftl_ftl::PageMappedFtl;

    fn pager() -> Pager<PageMappedFtl> {
        let chip = FlashChip::new(FlashConfig::tiny(220), SimClock::new());
        let dev = PageMappedFtl::format(chip, 1600).unwrap();
        let fs = FileSystem::mkfs(
            dev,
            JournalMode::Ordered,
            FsConfig {
                inode_count: 16,
                journal_pages: 32,
                cache_pages: 256,
            },
        )
        .unwrap();
        let fs: SharedFs<PageMappedFtl> = Rc::new(RefCell::new(fs));
        Pager::open(fs, "test.db", DbJournalMode::Rollback).unwrap()
    }

    #[test]
    fn insert_get_small() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        table_insert(&mut p, root, 1, b"one").unwrap();
        table_insert(&mut p, root, 2, b"two").unwrap();
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 1).unwrap().unwrap(), b"one");
        assert_eq!(table_get(&mut p, root, 2).unwrap().unwrap(), b"two");
        assert_eq!(table_get(&mut p, root, 3).unwrap(), None);
    }

    #[test]
    fn replace_overwrites() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        table_insert(&mut p, root, 1, b"v1").unwrap();
        table_insert(&mut p, root, 1, b"v2").unwrap();
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 1).unwrap().unwrap(), b"v2");
    }

    #[test]
    fn thousands_of_rows_split_correctly() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        let n = 3000i64;
        for i in 0..n {
            let v = format!("row-{i:06}");
            table_insert(&mut p, root, i, v.as_bytes()).unwrap();
        }
        p.commit().unwrap();
        for i in (0..n).step_by(97) {
            let got = table_get(&mut p, root, i).unwrap().unwrap();
            assert_eq!(got, format!("row-{i:06}").as_bytes());
        }
        assert_eq!(table_last_rowid(&mut p, root).unwrap(), Some(n - 1));
    }

    #[test]
    fn random_order_inserts_scan_sorted() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        // Deterministic pseudo-shuffle.
        let n = 1000i64;
        for i in 0..n {
            let rowid = (i * 7919) % n;
            table_insert(&mut p, root, rowid, format!("{rowid}").as_bytes()).unwrap();
        }
        p.commit().unwrap();
        let mut seen = Vec::new();
        table_scan_from(&mut p, root, 0, &mut |_, rowid, _| {
            seen.push(rowid);
            Ok(true)
        })
        .unwrap();
        let expect: Vec<i64> = (0..n).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scan_from_midpoint_and_early_stop() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..500i64 {
            table_insert(&mut p, root, i, b"x").unwrap();
        }
        p.commit().unwrap();
        let mut seen = Vec::new();
        table_scan_from(&mut p, root, 250, &mut |_, rowid, _| {
            seen.push(rowid);
            Ok(seen.len() < 10)
        })
        .unwrap();
        assert_eq!(seen, (250..260).collect::<Vec<i64>>());
    }

    #[test]
    fn delete_then_get_misses() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..800i64 {
            table_insert(&mut p, root, i, format!("{i}").as_bytes()).unwrap();
        }
        for i in (0..800i64).step_by(2) {
            assert!(table_delete(&mut p, root, i).unwrap());
        }
        assert!(!table_delete(&mut p, root, 0).unwrap());
        p.commit().unwrap();
        for i in 0..800i64 {
            let got = table_get(&mut p, root, i).unwrap();
            if i % 2 == 0 {
                assert!(got.is_none(), "rowid {i} should be gone");
            } else {
                assert_eq!(got.unwrap(), format!("{i}").as_bytes());
            }
        }
    }

    #[test]
    fn delete_everything_leaves_usable_tree() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..600i64 {
            table_insert(&mut p, root, i, b"payload-payload").unwrap();
        }
        for i in 0..600i64 {
            assert!(table_delete(&mut p, root, i).unwrap());
        }
        assert_eq!(table_last_rowid(&mut p, root).unwrap(), None);
        // Reusable after total deletion.
        table_insert(&mut p, root, 42, b"back").unwrap();
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 42).unwrap().unwrap(), b"back");
    }

    #[test]
    fn skewed_cell_sizes_split_by_size() {
        // Many tiny cells plus interleaved near-max-local cells: a split
        // by cell count would leave one half overflowing the page.
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        let big = vec![0xBBu8; max_local(p.page_size())];
        for i in 0..400i64 {
            if i % 10 == 0 {
                table_insert(&mut p, root, i, &big).unwrap();
            } else {
                table_insert(&mut p, root, i, b"t").unwrap();
            }
        }
        p.commit().unwrap();
        for i in (0..400i64).step_by(10) {
            assert_eq!(table_get(&mut p, root, i).unwrap().unwrap(), big);
        }
        assert_eq!(table_get(&mut p, root, 1).unwrap().unwrap(), b"t");
    }

    #[test]
    fn overflow_payload_roundtrip() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        // A blob much larger than a tiny 512-byte page (thumbnail-style).
        let blob: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        table_insert(&mut p, root, 7, &blob).unwrap();
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 7).unwrap().unwrap(), blob);
    }

    #[test]
    fn overflow_pages_freed_on_delete() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        let blob = vec![9u8; 4000];
        table_insert(&mut p, root, 1, &blob).unwrap();
        let grown = p.page_count();
        table_delete(&mut p, root, 1).unwrap();
        // Freed pages are reusable: a second insert must not grow the file.
        table_insert(&mut p, root, 2, &blob).unwrap();
        p.commit().unwrap();
        assert!(p.page_count() <= grown + 1, "overflow chain leaked");
    }

    #[test]
    fn index_insert_scan_ordered() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_index_tree(&mut p).unwrap();
        for i in 0..1200i64 {
            let key =
                crate::record::encode_index_key(&[crate::value::Value::Int((i * 37) % 1200)], i);
            index_insert(&mut p, root, &key).unwrap();
        }
        p.commit().unwrap();
        let mut last: Option<Vec<u8>> = None;
        let mut count = 0;
        index_scan_from(&mut p, root, &[], &mut |k| {
            if let Some(prev) = &last {
                assert!(prev.as_slice() <= k, "index out of order");
            }
            last = Some(k.to_vec());
            count += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(count, 1200);
    }

    #[test]
    fn index_delete_removes_exact_key() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_index_tree(&mut p).unwrap();
        let k1 = crate::record::encode_index_key(&[crate::value::Value::Int(5)], 1);
        let k2 = crate::record::encode_index_key(&[crate::value::Value::Int(5)], 2);
        index_insert(&mut p, root, &k1).unwrap();
        index_insert(&mut p, root, &k2).unwrap();
        assert!(index_delete(&mut p, root, &k1).unwrap());
        assert!(!index_delete(&mut p, root, &k1).unwrap());
        p.commit().unwrap();
        let mut count = 0;
        index_scan_from(&mut p, root, &[], &mut |_| {
            count += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn clear_tree_resets_and_frees() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..500i64 {
            table_insert(&mut p, root, i, b"0123456789abcdef").unwrap();
        }
        clear_tree(&mut p, root, true).unwrap();
        assert_eq!(table_last_rowid(&mut p, root).unwrap(), None);
        // Space was recycled: refilling should not balloon the file.
        let before = p.page_count();
        for i in 0..500i64 {
            table_insert(&mut p, root, i, b"0123456789abcdef").unwrap();
        }
        p.commit().unwrap();
        assert!(p.page_count() <= before + 2);
    }
}

#[cfg(test)]
mod canonical_tests {
    use super::*;
    use crate::pager::{DbJournalMode, SharedFs};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::rc::Rc;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};
    use xftl_fs::{FileSystem, FsConfig, JournalMode};
    use xftl_ftl::PageMappedFtl;

    fn pager() -> Pager<PageMappedFtl> {
        let chip = FlashChip::new(FlashConfig::tiny(400), SimClock::new());
        let dev = PageMappedFtl::format(chip, 3_000).unwrap();
        let fs = FileSystem::mkfs(
            dev,
            JournalMode::Ordered,
            FsConfig {
                inode_count: 16,
                journal_pages: 32,
                cache_pages: 256,
            },
        )
        .unwrap();
        let fs: SharedFs<PageMappedFtl> = Rc::new(RefCell::new(fs));
        Pager::open(fs, "canon.db", DbJournalMode::Rollback).unwrap()
    }

    /// Asserts that every page of the tree under `root` is in canonical
    /// form, `encode(decode(p)) == p`, and returns how many it has.
    fn assert_canonical(p: &mut Pager<PageMappedFtl>, root: PageNo) -> usize {
        let ps = p.page_size();
        let mut todo = vec![root];
        let mut pages = 0;
        while let Some(pgno) = todo.pop() {
            let kids = p
                .with_page(pgno, |buf| {
                    let node = Node::decode(buf).unwrap();
                    assert_eq!(node.encode(ps).unwrap(), buf, "page {pgno} not canonical");
                    match node {
                        Node::TableInterior { .. } | Node::IndexInterior { .. } => {
                            children(buf).unwrap()
                        }
                        _ => Vec::new(),
                    }
                })
                .unwrap();
            todo.extend(kids);
            pages += 1;
        }
        pages
    }

    fn rows(p: &mut Pager<PageMappedFtl>, root: PageNo) -> BTreeMap<i64, Vec<u8>> {
        let mut out = BTreeMap::new();
        table_scan_from(p, root, i64::MIN, &mut |_, rowid, v| {
            assert!(out.insert(rowid, v).is_none(), "rowid {rowid} twice");
            Ok(true)
        })
        .unwrap();
        out
    }

    fn keys(p: &mut Pager<PageMappedFtl>, root: PageNo) -> BTreeSet<Vec<u8>> {
        let mut out = BTreeSet::new();
        index_scan_from(p, root, &[], &mut |k| {
            out.insert(k.to_vec());
            Ok(true)
        })
        .unwrap();
        out
    }

    /// Random inserts, same-size updates, grow/shrink updates and deletes
    /// on 512-byte pages, with payloads both below and above the overflow
    /// threshold, so splits, merges and root collapses all fire. After
    /// every operation each page is canonical — in-place edits wrote what
    /// `encode` would — and table and index match a `BTreeMap` model.
    fn random_edits(seed: u64, cache_pages: usize) {
        let mut p = pager();
        p.set_cache_capacity(cache_pages);
        p.begin().unwrap();
        let table = create_table_tree(&mut p).unwrap();
        let index = create_index_tree(&mut p).unwrap();
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let big = max_local(p.page_size()) * 3;
        let key = |r: i64| crate::record::encode_index_key(&[crate::value::Value::Int(r % 7)], r);
        let (mut prev_pages, mut max_pages, mut shrank) = (0, 0, false);
        for step in 0..1_500 {
            let rowid = rng.gen_range(0..250i64);
            let fill = (step % 251) as u8;
            let len = match rng.gen_range(0..10u32) {
                0 => rng.gen_range(0..=big),
                _ => rng.gen_range(0..60usize),
            };
            match (rng.gen_range(0..4u32), model.get(&rowid).map(Vec::len)) {
                // Same-size update of an existing row.
                (0, Some(old)) => {
                    let v = vec![fill; old];
                    table_insert(&mut p, table, rowid, &v).unwrap();
                    model.insert(rowid, v);
                }
                (1, Some(_)) => {
                    assert!(table_delete(&mut p, table, rowid).unwrap());
                    assert!(index_delete(&mut p, index, &key(rowid)).unwrap());
                    model.remove(&rowid);
                }
                // Insert, or a grow/shrink update.
                _ => {
                    let v = vec![fill; len];
                    table_insert(&mut p, table, rowid, &v).unwrap();
                    index_insert(&mut p, index, &key(rowid)).unwrap();
                    model.insert(rowid, v);
                }
            }
            let pages = assert_canonical(&mut p, table) + assert_canonical(&mut p, index);
            shrank |= pages < prev_pages;
            (prev_pages, max_pages) = (pages, max_pages.max(pages));
            assert_eq!(rows(&mut p, table), model, "step {step}");
            let want: BTreeSet<Vec<u8>> = model.keys().map(|&r| key(r)).collect();
            assert_eq!(keys(&mut p, index), want, "step {step}");
        }
        p.commit().unwrap();
        assert!(max_pages > 10, "trees never split: {max_pages} pages");
        assert!(shrank, "no merge or collapse ever freed a page");
        assert_eq!(rows(&mut p, table), model);
    }

    #[test]
    fn random_edits_stay_canonical_and_match_model() {
        random_edits(0xC0FF_EE01, 256);
    }

    /// A B-tree write that comes back to a page evicted since it read it
    /// gets the image from the pager's eviction stash: no device read that
    /// holding an in-memory copy would not have needed.
    #[test]
    fn returning_to_an_evicted_page_reads_nothing() {
        let mut p = pager();
        p.set_cache_capacity(4);
        p.begin().unwrap();
        let (first, reads) = p
            .retaining_evicted(|p| {
                let first = p.alloc_page()?;
                // Each allocation also rewrites the header page, so with
                // four frames the oldest dirty frame, `first`, is spilled.
                for _ in 0..5 {
                    p.alloc_page()?;
                }
                let before = p.stats().reads;
                assert_eq!(p.peek(first, |b| b[0])?, 0);
                p.with_page_mut(first, |b| b[0] = 7)?;
                Ok((first, p.stats().reads - before))
            })
            .unwrap();
        assert_eq!(reads, 0);
        assert_eq!(p.with_page(first, |b| b[0]).unwrap(), 7);
        p.commit().unwrap();
    }

    /// The same with a four-frame cache: pages a B-tree operation read
    /// are evicted before it writes them back.
    #[test]
    fn random_edits_stay_canonical_under_cache_pressure() {
        random_edits(0xC0FF_EE02, 4);
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use crate::pager::{DbJournalMode, SharedFs};
    use std::cell::RefCell;
    use std::rc::Rc;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};
    use xftl_fs::{FileSystem, FsConfig, JournalMode};
    use xftl_ftl::PageMappedFtl;

    fn pager() -> Pager<PageMappedFtl> {
        let chip = FlashChip::new(FlashConfig::tiny(260), SimClock::new());
        let dev = PageMappedFtl::format(chip, 2_000).unwrap();
        let fs = FileSystem::mkfs(
            dev,
            JournalMode::Ordered,
            FsConfig {
                inode_count: 16,
                journal_pages: 32,
                cache_pages: 256,
            },
        )
        .unwrap();
        let fs: SharedFs<PageMappedFtl> = Rc::new(RefCell::new(fs));
        Pager::open(fs, "merge.db", DbJournalMode::Rollback).unwrap()
    }

    #[test]
    fn mass_delete_merges_leaves_and_reclaims_pages() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..2_000i64 {
            table_insert(&mut p, root, i, b"sixteen-bytes-xx").unwrap();
        }
        let full_pages = p.page_count();
        // Delete 95% of the rows, scattered.
        for i in 0..2_000i64 {
            if i % 20 != 0 {
                table_delete(&mut p, root, i).unwrap();
            }
        }
        // Survivors intact.
        for i in (0..2_000i64).step_by(20) {
            assert!(table_get(&mut p, root, i).unwrap().is_some(), "rowid {i}");
        }
        // Freed pages are reusable: inserting a fresh batch must not grow
        // the file beyond its prior footprint.
        for i in 10_000..11_500i64 {
            table_insert(&mut p, root, i, b"sixteen-bytes-xx").unwrap();
        }
        p.commit().unwrap();
        assert!(
            p.page_count() <= full_pages + 2,
            "merging should have recycled leaves: {} vs {}",
            p.page_count(),
            full_pages
        );
        // Order preserved across merges.
        let mut last = i64::MIN;
        table_scan_from(&mut p, root, i64::MIN, &mut |_, rowid, _| {
            assert!(rowid > last);
            last = rowid;
            Ok(true)
        })
        .unwrap();
    }

    #[test]
    fn index_mass_delete_merges() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_index_tree(&mut p).unwrap();
        let key = |i: i64| crate::record::encode_index_key(&[crate::value::Value::Int(i)], i);
        for i in 0..3_000i64 {
            index_insert(&mut p, root, &key(i)).unwrap();
        }
        for i in 0..3_000i64 {
            if i % 10 != 0 {
                assert!(index_delete(&mut p, root, &key(i)).unwrap());
            }
        }
        p.commit().unwrap();
        let mut n = 0;
        index_scan_from(&mut p, root, &[], &mut |_| {
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, 300);
    }
}
