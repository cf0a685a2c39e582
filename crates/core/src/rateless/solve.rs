//! The one decoder of the rateless path: a streaming sparse GF(2) solver.
//!
//! Both rateless modes hand their equations here.  An equation is a set of
//! unknowns (columns `0..n`) whose XOR equals a value; plain LT feeds the
//! received symbols over its `k` source packets, Raptor feeds the same over
//! its `k + m` intermediates *plus* the precode's `m` checks as zero-valued
//! equations, so the precode is not a second decoder — it is more rows of
//! the same system.
//!
//! The solver is maximum-likelihood: it completes on exactly the equation
//! that brings the system to full column rank (`tests/rateless_oracle.rs`
//! holds it to a dense Gaussian elimination), and it gets there by
//! **inactivation decoding** rather than by eliminating a `n × n` matrix:
//!
//! 1. *Peel.*  While some buffered equation has exactly one unresolved
//!    unknown (the ripple), that unknown is released — the classic LT
//!    decoder, linear time, values XORed at release.
//! 2. *Inactivate.*  When the ripple is empty and at least as many
//!    equations are buffered as unknowns remain (fewer could not determine
//!    them), an unknown of the lowest-degree equation is declared
//!    **inactive**: treated as if known, so peeling continues — but
//!    *symbolically*.  From here on a peeled unknown is "its equation's
//!    value ⊕ some inactive unknowns", the "some" kept as a bit mask.
//! 3. *Solve the small dense system.*  An equation all of whose unknowns
//!    are resolved reduces to a mask over the inactive unknowns alone.
//!    Those rows are kept in echelon form with **persistent pivots**: a new
//!    row is reduced once against the pivots already there and either
//!    becomes one or vanishes — an arrival never restarts anything.
//! 4. *Compute the rest once.*  Only when the masks say every unknown is
//!    determined are the remaining values computed: one sparse pass for the
//!    peeled unknowns' constant parts, one for the dense rows' constants,
//!    one dense pass for the inactive values (≈ `u²/2` XORs for `u`
//!    inactive unknowns), one sparse pass in peel order for the rest.
//!
//! Every value — released at a peel or computed in a pass — is one call of
//! the many-source XOR kernel over all of its sources.
//!
//! Every decision above reads indices, counters and masks — never a value —
//! so a [`crate::Mark`] solver and a payload solver fed the same equations
//! take the same steps and complete on the same one.  Nothing is iterated
//! in an address- or hash-dependent order, so two runs over one stream are
//! identical.
//!
//! **Where the values live.**  In the symbol's store
//! ([`crate::store`]): unknown `c` at index `c` — for a payload, unknowns
//! `0..wanted` are the rows of a buffer laid out as the file — and the
//! value of the equation in row slot `r` at index `n + r`.  An equation's
//! value is copied into the store only once the equation is kept, into the
//! slot of a row let go before it if there is one, so the store holds at
//! most as many equation values as the solver ever held equations at once.
//! The equations' neighbour lists share one arena and the column → row
//! lists one node pool, both reclaimed as rows are let go: once those have
//! grown to what a download holds, an equation costs no allocation.
//!
//! [`INACTIVATION_CAP`] bounds the inactive set.  At the cap the solver
//! stops inactivating and waits for the ripple: further equations still
//! peel (the inactive unknowns count as resolved), so it completes from
//! somewhat more than the ML minimum, and its dense system — hence the work
//! one arrival can cost — stays bounded however large `n` is.

use crate::error::Result;
use crate::store::{StoreShape, SymbolStore};
use crate::symbol::Symbol;
use std::collections::HashSet;

/// Most unknowns the solver will inactivate — the side of its dense system.
///
/// An honest decode at `k` = 4096 inactivates ≈ 100 (plain LT) to ≈ 200
/// (Raptor) unknowns and the count grows roughly with `√k`, so the bound
/// binds only for very large `k` (or a hostile stream), where it keeps each
/// mask at 256 bytes and one row reduction at ≤ 2048 mask XORs.
pub const INACTIVATION_CAP: usize = 2048;

/// Equations are bucketed by unresolved degree so the lowest-degree one is
/// found without a scan; degrees from `BUCKETS - 1` up share the last bucket.
const BUCKETS: usize = 32;

/// "No column" where a column to leave out may be named, and "no node" in a
/// column's row list.
const NONE: u32 = u32::MAX;

/// Arena words let go that the solver tolerates before compacting, beyond
/// as many as are live.
const ARENA_SLACK: usize = 4096;

/// `dst ^= src`; `dst` is at least as long (masks only ever grow, and a row
/// is only reduced by rows made before it).
fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    /// Neither valued nor resolved symbolically.
    Active,
    /// Its value is computed.
    Known,
    /// Resolved symbolically by the equation at this position of `order`.
    Peeled(u32),
    /// Inactive, with this index into the dense system.
    Inactive(u32),
}

/// Whether an unknown has a value in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// Not computed.
    Unset,
    /// Computed, and the XOR of nothing: no row in the store.
    Zero,
    /// Computed, in the store.
    Held,
}

/// An equation's value as [`Solver::add`] is handed it.
pub(crate) enum Value<'a, S: Symbol> {
    /// All zero (a precode check), at any length.
    Zero,
    /// A value the store may keep as it is.
    Owned(S),
    /// A value the store copies if the equation is kept.
    Row(&'a S::Row),
}

#[derive(Debug, Clone)]
struct Row {
    /// Its unknowns are `arena[start..start + len]`; `len` is 0 once the
    /// row has been let go.
    start: usize,
    len: u32,
    /// How many of its unknowns are still [`Col::Active`].
    active: u32,
    /// Its value is in the store at `n + slot` (else it is zero).
    held: bool,
    /// The caller's name for it, for exact-repeat detection.
    tag: Option<u64>,
}

/// Lists of row slots over one shared node pool, so a new list entry costs
/// no allocation of its own once the pool has grown to what a download
/// holds.  List `c < n` is column `c`'s: the buffered rows in which it is
/// still [`Col::Active`], in the order they arrived (appended, then taken
/// whole).  List `n + d` is degree bucket `d`, used as a stack.
#[derive(Debug, Clone, Default)]
struct Lists {
    head: Vec<u32>,
    tail: Vec<u32>,
    len: Vec<u32>,
    /// `(row, next node)`.
    nodes: Vec<(u32, u32)>,
    /// Nodes let go, linked through their `next`.
    free: u32,
}

impl Lists {
    fn new(lists: usize) -> Self {
        Lists {
            head: vec![NONE; lists],
            tail: vec![NONE; lists],
            len: vec![0; lists],
            nodes: Vec::new(),
            free: NONE,
        }
    }

    fn node(&mut self, r: u32, next: u32) -> u32 {
        if self.free == NONE {
            self.nodes.push((r, next));
            return (self.nodes.len() - 1) as u32;
        }
        let node = self.free;
        self.free = self.nodes[node as usize].1;
        self.nodes[node as usize] = (r, next);
        node
    }

    /// Append `r` to list `l`.
    fn push_back(&mut self, l: usize, r: u32) {
        let node = self.node(r, NONE);
        match self.tail[l] {
            NONE => self.head[l] = node,
            tail => self.nodes[tail as usize].1 = node,
        }
        self.tail[l] = node;
        self.len[l] += 1;
    }

    /// Put `r` in front of list `l`.
    fn push_front(&mut self, l: usize, r: u32) {
        let node = self.node(r, self.head[l]);
        if self.head[l] == NONE {
            self.tail[l] = node;
        }
        self.head[l] = node;
        self.len[l] += 1;
    }

    fn front(&self, l: usize) -> Option<u32> {
        let head = self.head[l];
        (head != NONE).then(|| self.nodes[head as usize].0)
    }

    fn pop_front(&mut self, l: usize) -> Option<u32> {
        let mut cursor = self.head[l];
        let r = self.pop(&mut cursor)?;
        self.head[l] = cursor;
        if cursor == NONE {
            self.tail[l] = NONE;
        }
        self.len[l] -= 1;
        Some(r)
    }

    fn len(&self, l: usize) -> usize {
        self.len[l] as usize
    }

    /// Empty list `l`; its rows come out of [`Self::pop`] from the returned
    /// cursor.
    fn take(&mut self, l: usize) -> u32 {
        self.tail[l] = NONE;
        self.len[l] = 0;
        std::mem::replace(&mut self.head[l], NONE)
    }

    /// The next row of a taken list, letting its node go.
    fn pop(&mut self, cursor: &mut u32) -> Option<u32> {
        if *cursor == NONE {
            return None;
        }
        let node = *cursor as usize;
        let (r, next) = self.nodes[node];
        self.nodes[node].1 = self.free;
        self.free = *cursor;
        *cursor = next;
        Some(r)
    }
}

/// How a decode went: the payload XORs it cost, by phase, and how its
/// unknowns were released.  Counted from the solver's decisions, so a
/// [`crate::Mark`] decoder reports what a payload decoder fed the same
/// symbols performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveTrace {
    /// Payload XORs of the values released by peeling as symbols arrived.
    pub peel_xors: u64,
    /// Payload XORs of the four passes that compute the rest at full rank:
    /// the peeled unknowns' constants, the dense rows' constants, the
    /// inactive values, and the peeled unknowns' values.
    pub finish_xors: [u64; 4],
    /// Unknowns released by peeling before anything was inactive.
    pub peeled: usize,
    /// Unknowns peeled symbolically, once something was inactive.
    pub peeled_symbolically: usize,
    /// Of those, the ones whose mask came out empty: their value depends
    /// on no inactive unknown, so it could be computed when they peel.
    pub empty_masks: usize,
}

impl SolveTrace {
    /// Every payload XOR the decode performed.
    pub fn xors(&self) -> u64 {
        self.peel_xors + self.finish_xors.iter().sum::<u64>()
    }
}

/// One row of the dense system over the inactive unknowns; its words live
/// in the solver's `dense_words`, as `(start, length)`.
#[derive(Debug, Clone)]
struct DenseRow {
    /// Inactive unknowns in the row; its lowest bit is its pivot.
    mask: (usize, usize),
    /// Which dense rows' sources XOR to it (bit `i` = dense row `i`).
    combo: (usize, usize),
    /// The buffered equation it entered as.
    source: u32,
}

/// See the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct Solver<S: Symbol> {
    /// Columns `0..wanted` are the ones the caller wants back.
    wanted: usize,
    cols: Vec<Col>,
    vals: Vec<Val>,
    /// Unknown `c`'s value at `c`, row slot `r`'s at `cols.len() + r`.
    store: S::Store,
    /// The column lists and the degree buckets (see [`Lists`]); equations
    /// are bucketed by unresolved degree so the lowest-degree one is found
    /// without a scan.
    lists: Lists,
    rows: Vec<Row>,
    /// Every held row's unknowns, back to back, and the space of rows let
    /// go until [`Self::compact`] reclaims it.
    arena: Vec<u32>,
    /// The arena's other half while it is compacted.
    spare: Vec<u32>,
    /// Words of `arena` that belong to held rows.
    arena_live: usize,
    /// Slots of `rows` that were let go, for the next rows.  A slot is only
    /// handed out between two `settle`s, when nothing but the buckets (which
    /// checks every entry against the row's present state) can still name
    /// its old tenant.
    free_rows: Vec<u32>,
    /// Tags of the buffered rows (membership only, never iterated).
    tags: HashSet<u64>,
    live: usize,
    pending_edges: usize,
    known: usize,
    wanted_known: usize,
    /// Columns still [`Col::Active`].
    unresolved: usize,
    /// Buffered rows with two or more active columns.
    buffered: usize,
    ripple: Vec<u32>,
    /// `(column, row)` in the order columns were peeled symbolically.
    order: Vec<(u32, u32)>,
    /// One mask per entry of `order` (start and length in `masks`), made
    /// for the prefix `..mask_span.len()`.
    mask_span: Vec<(usize, usize)>,
    masks: Vec<u64>,
    /// Inactive columns by dense index; never more than `cap` of them.
    inactive: Vec<u32>,
    /// [`INACTIVATION_CAP`], but for the tests of what happens at it.
    cap: usize,
    /// Rows whose columns are all resolved, waiting to enter `dense`.
    residual: Vec<u32>,
    dense: Vec<DenseRow>,
    /// The dense rows' masks and combos, back to back.
    dense_words: Vec<u64>,
    /// Dense index → the dense row whose pivot it is.
    pivot_of: Vec<Option<u32>>,
    complete: bool,
    trace: SolveTrace,
    /// Scratch: the store indices one value is the XOR of.
    srcs: Vec<usize>,
    /// Scratch: a row's mask and combo while it is reduced.
    mask: Vec<u64>,
    combo: Vec<u64>,
}

impl<S: Symbol> Solver<S> {
    /// A solver over `n` unknowns of which the first `wanted` are asked for.
    pub(crate) fn new(n: usize, wanted: usize) -> Self {
        Solver {
            wanted,
            cols: vec![Col::Active; n],
            vals: vec![Val::Unset; n],
            // Unknowns `0..n`, and about as many equations held at once as
            // an honest decode receives (an eighth more, for small-k tails).
            store: S::Store::empty(StoreShape::uniform(wanted, 2 * n + n / 8 + 64)),
            lists: Lists::new(n + BUCKETS),
            rows: Vec::new(),
            arena: Vec::new(),
            spare: Vec::new(),
            arena_live: 0,
            free_rows: Vec::new(),
            tags: HashSet::new(),
            live: 0,
            pending_edges: 0,
            known: 0,
            wanted_known: 0,
            unresolved: n,
            buffered: 0,
            ripple: Vec::new(),
            order: Vec::new(),
            mask_span: Vec::new(),
            masks: Vec::new(),
            inactive: Vec::new(),
            cap: INACTIVATION_CAP,
            residual: Vec::new(),
            dense: Vec::new(),
            dense_words: Vec::new(),
            pivot_of: Vec::new(),
            complete: false,
            trace: SolveTrace::default(),
            srcs: Vec::new(),
            mask: Vec::new(),
            combo: Vec::new(),
        }
    }

    /// True once every wanted unknown has its value.
    pub(crate) fn is_complete(&self) -> bool {
        self.complete
    }

    /// Unknowns whose value has been computed.
    pub(crate) fn known(&self) -> usize {
        self.known
    }

    /// Equations held.
    pub(crate) fn pending_equations(&self) -> usize {
        self.live
    }

    /// References from held equations to unknowns without a value.
    pub(crate) fn pending_edges(&self) -> usize {
        self.pending_edges
    }

    /// Unknowns inactivated so far.
    pub(crate) fn inactive_columns(&self) -> usize {
        self.inactive.len()
    }

    /// What the decode cost so far (see [`SolveTrace`]).
    pub(crate) fn trace(&self) -> SolveTrace {
        self.trace
    }

    /// True when `tag` names an equation currently held.
    pub(crate) fn holds(&self, tag: u64) -> bool {
        self.tags.contains(&tag)
    }

    /// The value of unknown `index`, once computed.
    pub(crate) fn value(&self, index: usize) -> Option<&S::Row> {
        (*self.vals.get(index)? == Val::Held).then(|| self.store.row(index))
    }

    /// The wanted values in order, once complete and not yet released.
    pub(crate) fn wanted_iter(&self) -> Option<impl Iterator<Item = &S::Row> + '_> {
        let wanted = self.vals.get(..self.wanted)?;
        (self.complete && wanted.iter().all(|&v| v == Val::Held))
            .then(|| (0..self.wanted).map(|c| self.store.row(c)))
    }

    /// Drop every value and equation; counters and completion stay.
    pub(crate) fn release(&mut self) {
        self.drop_equations();
        self.store.clear();
        self.vals = Vec::new();
    }

    /// True once [`Self::release`] has run (`n ≥ 1` until then).
    pub(crate) fn released(&self) -> bool {
        self.vals.is_empty()
    }

    /// Take one equation: the XOR of the unknowns `cols` is `value`.
    /// Returns `false`, changing nothing, when `tag` names an equation
    /// currently held.  Not to be called once complete or released (the
    /// equations' bookkeeping is gone by then).
    ///
    /// # Errors
    ///
    /// The store's, when it refuses the value of an equation that would be
    /// kept (a payload of another length than the first, or a first one
    /// whose reservation fails); nothing changes then.
    pub(crate) fn add(
        &mut self,
        tag: Option<u64>,
        cols: &[u32],
        value: Value<'_, S>,
    ) -> Result<bool> {
        debug_assert!(!self.complete && !self.released());
        if tag.is_some_and(|t| self.tags.contains(&t)) {
            return Ok(false);
        }
        let active = cols
            .iter()
            .filter(|&&c| self.cols[c as usize] == Col::Active)
            .count() as u32;
        let id = self
            .free_rows
            .last()
            .copied()
            .unwrap_or(self.rows.len() as u32);
        // Nothing left to peel in it.  Before any inactivation that means
        // every unknown is valued and the equation says nothing new; after,
        // it is a row of the dense system — kept only if it is independent
        // of the rows already there.
        let pivot = match active {
            0 if self.inactive.is_empty() => return Ok(true),
            0 => match self.reduce(cols) {
                None => return Ok(true),
                pivot => pivot,
            },
            _ => None,
        };
        let slot = self.cols.len() + id as usize;
        let held = match value {
            Value::Zero => false,
            Value::Owned(v) => {
                self.store.insert_owned(slot, v)?;
                true
            }
            Value::Row(v) => {
                self.store.insert(slot, v)?;
                true
            }
        };
        if let Some(bit) = pivot {
            self.dense_push(bit, id);
        }
        for &c in cols {
            if self.cols[c as usize] == Col::Active {
                self.lists.push_back(c as usize, id);
            }
        }
        self.pending_edges += self.unvalued(cols);
        self.live += 1;
        if let Some(t) = tag {
            self.tags.insert(t);
        }
        if self.arena.len() - self.arena_live > self.arena_live + ARENA_SLACK {
            self.compact();
        }
        let row = Row {
            start: self.arena.len(),
            len: cols.len() as u32,
            active,
            held,
            tag,
        };
        self.arena.extend_from_slice(cols);
        self.arena_live += cols.len();
        match self.free_rows.pop() {
            Some(slot) => self.rows[slot as usize] = row,
            None => self.rows.push(row),
        }
        match active {
            0 => {}
            1 => self.ripple.push(id),
            a => {
                self.buffered += 1;
                self.lists.push_front(self.bucket(a), id);
            }
        }
        self.settle();
        Ok(true)
    }

    /// Row `r`'s unknowns.
    fn row_cols(&self, r: u32) -> &[u32] {
        let row = &self.rows[r as usize];
        &self.arena[row.start..row.start + row.len as usize]
    }

    /// Move the held rows' unknowns to the front of the arena's other half,
    /// and make that the arena.
    fn compact(&mut self) {
        let mut spare = std::mem::take(&mut self.spare);
        spare.clear();
        for row in self.rows.iter_mut().filter(|row| row.len > 0) {
            let start = spare.len();
            spare.extend_from_slice(&self.arena[row.start..row.start + row.len as usize]);
            row.start = start;
        }
        self.spare = std::mem::replace(&mut self.arena, spare);
    }

    /// [`Self::pending_edges`] from first principles.
    #[cfg(test)]
    pub(crate) fn recount_pending_edges(&self) -> usize {
        (0..self.rows.len() as u32)
            .map(|r| self.unvalued(self.row_cols(r)))
            .sum()
    }

    fn unvalued(&self, cols: &[u32]) -> usize {
        cols.iter()
            .filter(|&&c| self.cols[c as usize] != Col::Known)
            .count()
    }

    /// Let a buffered row go.
    fn free(&mut self, r: u32) {
        let edges = self.unvalued(self.row_cols(r));
        let row = &mut self.rows[r as usize];
        self.arena_live -= row.len as usize;
        row.len = 0;
        row.held = false;
        if let Some(t) = row.tag {
            self.tags.remove(&t);
        }
        self.live -= 1;
        self.pending_edges -= edges;
        self.free_rows.push(r);
    }

    /// One of row `r`'s active columns has just been resolved.
    fn decrement(&mut self, r: u32) {
        let row = &mut self.rows[r as usize];
        row.active -= 1;
        let active = row.active;
        match active {
            0 if self.inactive.is_empty() => self.free(r),
            0 => self.residual.push(r),
            1 => {
                self.buffered -= 1;
                self.ripple.push(r);
            }
            a if (a as usize) < BUCKETS - 1 => self.lists.push_front(self.bucket(a), r),
            _ => {}
        }
    }

    /// Every row of column `c`'s list, decremented unless it is `skip`; the
    /// list is left empty.
    fn resolve_column(&mut self, c: u32, skip: u32) {
        let mut cursor = self.lists.take(c as usize);
        while let Some(r) = self.lists.pop(&mut cursor) {
            if r != skip {
                self.decrement(r);
            }
        }
    }

    /// Run the ripple dry, inactivate while that can help, and fold what
    /// fell out into the dense system.
    fn settle(&mut self) {
        loop {
            if self.inactive.is_empty() {
                self.peel();
            } else {
                self.peel_symbolically();
            }
            // Columns still active appear only in the buffered rows, so
            // fewer rows than columns cannot determine them: wait.
            if self.complete
                || self.unresolved == 0
                || self.buffered < self.unresolved
                || self.inactive.len() >= self.cap
            {
                break;
            }
            let Some(c) = self.column_to_inactivate() else {
                break;
            };
            self.cols[c as usize] = Col::Inactive(self.inactive.len() as u32);
            self.inactive.push(c);
            self.unresolved -= 1;
            self.resolve_column(c, NONE);
        }
        if self.complete || self.inactive.is_empty() {
            return;
        }
        self.extend_masks();
        let mut residual = std::mem::take(&mut self.residual);
        for &r in &residual {
            let arena = std::mem::take(&mut self.arena);
            let row = &self.rows[r as usize];
            let reduced = self.reduce(&arena[row.start..row.start + row.len as usize]);
            self.arena = arena;
            match reduced {
                Some(bit) => self.dense_push(bit, r),
                None => self.free(r),
            }
        }
        residual.clear();
        self.residual = residual;
        if self.unresolved == 0 && self.dense.len() == self.inactive.len() {
            self.finish();
        }
    }

    /// Whether store index `g` — an unknown, or a row slot past `n` — has
    /// its value in the store.
    fn held(&self, g: usize) -> bool {
        match g.checked_sub(self.cols.len()) {
            Some(r) => self.rows[r].held,
            None => self.vals[g] == Val::Held,
        }
    }

    fn set_held(&mut self, g: usize, held: bool) {
        match g.checked_sub(self.cols.len()) {
            Some(r) => self.rows[r].held = held,
            None => self.vals[g] = if held { Val::Held } else { Val::Zero },
        }
    }

    /// Make `g`'s value the XOR of the store values `srcs` (none: zero).
    /// Returns the payload XORs that took.
    fn put(&mut self, g: usize, srcs: &[usize]) -> u64 {
        if !srcs.is_empty() {
            self.store.combine(g, srcs.iter().copied());
        }
        self.set_held(g, !srcs.is_empty());
        srcs.len().saturating_sub(1) as u64
    }

    /// XOR the store values `srcs` into `g`'s value.  Returns the payload
    /// XORs that took.
    fn put_more(&mut self, g: usize, srcs: &[usize]) -> u64 {
        if srcs.is_empty() {
            0
        } else if self.held(g) {
            self.store.accumulate(g, srcs.iter().copied());
            srcs.len() as u64
        } else {
            self.put(g, srcs)
        }
    }

    /// Gather into `srcs` row `r`'s value, if it has one, and the values
    /// of its unknowns that are `Known` or (for the constant parts)
    /// `Peeled`, `skip` aside; with `all`, every valued unknown but `skip`.
    fn gather_row(&self, srcs: &mut Vec<usize>, r: u32, skip: u32, all: bool) {
        srcs.clear();
        if self.rows[r as usize].held {
            srcs.push(self.cols.len() + r as usize);
        }
        for &c in self.row_cols(r) {
            let counts = all || matches!(self.cols[c as usize], Col::Known | Col::Peeled(_));
            if c != skip && counts && self.vals[c as usize] == Val::Held {
                srcs.push(c as usize);
            }
        }
    }

    /// Degree-one release with values, before anything is inactive.
    fn peel(&mut self) {
        while let Some(r) = self.ripple.pop() {
            if self.rows[r as usize].active != 1 {
                continue; // its last column was released through another row
            }
            let target = self
                .row_cols(r)
                .iter()
                .copied()
                .find(|&c| self.cols[c as usize] == Col::Active);
            if let Some(p) = target {
                let mut srcs = std::mem::take(&mut self.srcs);
                self.gather_row(&mut srcs, r, p, true);
                self.trace.peel_xors += self.put(p as usize, &srcs);
                self.trace.peeled += 1;
                self.srcs = srcs;
            }
            self.free(r);
            let Some(p) = target else { continue };
            self.cols[p as usize] = Col::Known;
            self.known += 1;
            self.wanted_known += usize::from((p as usize) < self.wanted);
            self.unresolved -= 1;
            if self.wanted_known == self.wanted {
                self.complete = true;
                self.drop_equations();
                return;
            }
            let mut cursor = self.lists.take(p as usize);
            while let Some(r2) = self.lists.pop(&mut cursor) {
                if self.rows[r2 as usize].len > 0 {
                    self.pending_edges -= 1;
                    self.decrement(r2);
                }
            }
        }
    }

    /// Degree-one release once something is inactive: the column is tied to
    /// its row and nothing is computed.
    fn peel_symbolically(&mut self) {
        while let Some(r) = self.ripple.pop() {
            if self.rows[r as usize].active != 1 {
                continue; // already a residual row
            }
            let Some(p) = self
                .row_cols(r)
                .iter()
                .copied()
                .find(|&c| self.cols[c as usize] == Col::Active)
            else {
                continue;
            };
            self.cols[p as usize] = Col::Peeled(self.order.len() as u32);
            self.order.push((p, r));
            self.trace.peeled_symbolically += 1;
            self.unresolved -= 1;
            self.resolve_column(p, r);
        }
    }

    /// The lowest-degree buffered row's busiest active column.
    fn column_to_inactivate(&mut self) -> Option<u32> {
        for d in 2..BUCKETS as u32 {
            while let Some(r) = self.lists.front(self.bucket(d)) {
                let row = &self.rows[r as usize];
                if row.active < 2 || self.bucket(row.active) != self.bucket(d) {
                    self.lists.pop_front(self.bucket(d)); // the row has moved on
                    continue;
                }
                return self
                    .row_cols(r)
                    .iter()
                    .copied()
                    .filter(|&c| self.cols[c as usize] == Col::Active)
                    .max_by_key(|&c| self.lists.len(c as usize));
            }
        }
        None
    }

    /// The list of the bucket of rows with `active` active columns.
    fn bucket(&self, active: u32) -> usize {
        self.cols.len() + (active as usize).min(BUCKETS - 1)
    }

    fn fill_mask(&self, mask: &mut [u64], masks: &[u64], cols: &[u32], skip: u32) {
        for &c in cols {
            match self.cols[c as usize] {
                Col::Inactive(i) => mask[i as usize / 64] ^= 1 << (i % 64),
                Col::Peeled(at) if c != skip => {
                    let (start, len) = self.mask_span[at as usize];
                    xor_words(mask, &masks[start..start + len]);
                }
                _ => {}
            }
        }
    }

    /// Give every newly peeled column its mask, in peel order (a row's
    /// other peeled columns were all peeled before the one it resolves).
    fn extend_masks(&mut self) {
        let words = self.inactive.len().div_ceil(64);
        let mut masks = std::mem::take(&mut self.masks);
        for at in self.mask_span.len()..self.order.len() {
            let (p, r) = self.order[at];
            let start = masks.len();
            masks.resize(start + words, 0);
            let (made, mask) = masks.split_at_mut(start);
            self.fill_mask(mask, made, self.row_cols(r), p);
            self.mask_span.push((start, words));
        }
        self.masks = masks;
    }

    /// Reduce the mask of a row over `cols` (the inactive unknowns it comes
    /// to once its peeled columns are substituted) against the pivots, in
    /// the scratch `mask` and `combo`.  Returns the lowest bit left — the
    /// pivot it would be — or `None` if nothing is left.
    fn reduce(&mut self, cols: &[u32]) -> Option<usize> {
        let (mut mask, mut combo) = (
            std::mem::take(&mut self.mask),
            std::mem::take(&mut self.combo),
        );
        mask.clear();
        mask.resize(self.inactive.len().div_ceil(64), 0);
        self.fill_mask(&mut mask, &self.masks, cols, NONE);
        let at = self.dense.len();
        combo.clear();
        combo.resize(at / 64 + 1, 0);
        combo[at / 64] |= 1 << (at % 64);
        let pivot = loop {
            let Some(bit) = set_bits(&mask).next() else {
                break None;
            };
            match self.pivot_of.get(bit).copied().flatten() {
                Some(d) => {
                    let pivot = &self.dense[d as usize];
                    xor_words(&mut mask, self.words(pivot.mask));
                    xor_words(&mut combo, self.words(pivot.combo));
                }
                None => break Some(bit),
            }
        };
        (self.mask, self.combo) = (mask, combo);
        pivot
    }

    /// Make the row [`Self::reduce`] left in the scratch the pivot row of
    /// `bit`, with `source` as the equation behind it.
    fn dense_push(&mut self, bit: usize, source: u32) {
        self.pivot_of.resize(self.inactive.len(), None);
        self.pivot_of[bit] = Some(self.dense.len() as u32);
        let mask = (self.dense_words.len(), self.mask.len());
        self.dense_words.extend_from_slice(&self.mask);
        let combo = (self.dense_words.len(), self.combo.len());
        self.dense_words.extend_from_slice(&self.combo);
        self.dense.push(DenseRow {
            mask,
            combo,
            source,
        });
    }

    /// A dense row's mask or combo.
    fn words(&self, (start, len): (usize, usize)) -> &[u64] {
        &self.dense_words[start..start + len]
    }

    /// The masks say every unknown is determined: compute the values.
    fn finish(&mut self) {
        let n = self.cols.len();
        // Which unknowns the wanted ones depend on.  With a precode an
        // intermediate nobody refers to is fixed by its own check and never
        // has to be computed.
        let mut needed = vec![self.wanted == n; n];
        if self.wanted < n {
            needed[..self.wanted].fill(true);
            for &c in &self.inactive {
                needed[c as usize] = true;
            }
            // Every dense row's source counts; a pivot row counts if the
            // column it resolves does (later peels are seen first).
            let sources = self.dense.iter().map(|d| (NONE, d.source));
            for (p, r) in sources.chain(self.order.iter().rev().copied()) {
                if p == NONE || needed[p as usize] {
                    for &c in self.row_cols(r) {
                        needed[c as usize] = true;
                    }
                }
            }
        }
        self.pivot_of.resize(self.inactive.len(), None);
        let mut srcs = std::mem::take(&mut self.srcs);

        // 1. Constant parts of the peeled unknowns, in peel order: the
        //    row's value and its valued or earlier-peeled neighbours.
        for at in 0..self.order.len() {
            let (p, r) = self.order[at];
            if needed[p as usize] {
                self.gather_row(&mut srcs, r, p, false);
                self.trace.finish_xors[0] += self.put(p as usize, &srcs);
            }
        }
        // 2. The dense rows' sources, likewise reduced to constants, in
        //    their own rows' values.
        for d in 0..self.dense.len() {
            let r = self.dense[d].source;
            self.gather_row(&mut srcs, r, NONE, false);
            let slot = n + r as usize;
            srcs.retain(|&g| g != slot);
            self.trace.finish_xors[1] += self.put_more(slot, &srcs);
        }
        // 3. Back-substitute the echelon rows (highest pivot first, so each
        //    row folded in is already a single unknown) and XOR out the
        //    inactive values.
        //    Row `d`'s solved combo is `solved[d·stride..]`.
        let stride = self.dense.len().div_ceil(64);
        let mut solved = vec![0u64; self.dense.len() * stride];
        for i in (0..self.inactive.len()).rev() {
            let Some(d) = self.pivot_of[i] else { continue };
            let row = &self.dense[d as usize];
            let (done, rest) = solved.split_at_mut(d as usize * stride);
            let (combo, later) = rest.split_at_mut(stride);
            combo[..row.combo.1].copy_from_slice(self.words(row.combo));
            for b in set_bits(self.words(row.mask)).filter(|&b| b > i) {
                if let Some(other) = self.pivot_of[b] {
                    let other = other as usize;
                    let theirs = match other.checked_sub(d as usize + 1) {
                        Some(after) => &later[after * stride..(after + 1) * stride],
                        None => &done[other * stride..(other + 1) * stride],
                    };
                    xor_words(combo, theirs);
                }
            }
            srcs.clear();
            srcs.extend(
                set_bits(combo)
                    .map(|j| n + self.dense[j].source as usize)
                    .filter(|&g| self.held(g)),
            );
            self.trace.finish_xors[2] += self.put(self.inactive[i] as usize, &srcs);
        }
        // 4. The peeled unknowns, in peel order: constant ⊕ the inactive
        //    unknowns of its mask, or the row recomputed from its (now
        //    valued) neighbours — whichever is fewer XORs.
        for at in 0..self.order.len() {
            let (p, r) = self.order[at];
            let (start, len) = self.mask_span[at];
            let mask = &self.masks[start..start + len];
            let weight: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
            self.trace.empty_masks += usize::from(weight == 0);
            if !needed[p as usize] {
                continue;
            }
            self.trace.finish_xors[3] += if weight < self.row_cols(r).len() - 1 {
                srcs.clear();
                srcs.extend(
                    set_bits(mask)
                        .map(|i| self.inactive[i] as usize)
                        .filter(|&c| self.held(c)),
                );
                self.put_more(p as usize, &srcs)
            } else {
                self.gather_row(&mut srcs, r, p, true);
                self.put(p as usize, &srcs)
            };
        }
        self.srcs = srcs;
        for (c, state) in self.cols.iter_mut().enumerate() {
            if needed[c] && *state != Col::Known {
                *state = Col::Known;
                self.known += 1;
            }
        }
        self.wanted_known = self.wanted;
        self.complete = true;
        self.drop_equations();
    }

    /// Everything but the values and the counters of what was computed.
    fn drop_equations(&mut self) {
        self.rows = Vec::new();
        self.arena = Vec::new();
        self.spare = Vec::new();
        self.arena_live = 0;
        self.free_rows = Vec::new();
        self.lists = Lists::default();
        self.tags = HashSet::new();
        self.live = 0;
        self.pending_edges = 0;
        self.buffered = 0;
        self.ripple = Vec::new();
        self.order = Vec::new();
        self.mask_span = Vec::new();
        self.masks = Vec::new();
        self.residual = Vec::new();
        self.dense = Vec::new();
        self.dense_words = Vec::new();
        self.pivot_of = Vec::new();
        self.srcs = Vec::new();
        self.mask = Vec::new();
        self.combo = Vec::new();
    }
}

impl Solver<Vec<u8>> {
    /// Once complete, the wanted values as one buffer — the store's source
    /// rows, truncated to `len` bytes, not a copy — and let go of the rest.
    /// `None` before completion, once released, or if `len` is longer than
    /// the wanted rows.
    pub(crate) fn take_wanted(&mut self, len: usize) -> Option<Vec<u8>> {
        self.wanted_iter().map(drop)?;
        let file = self.store.take_source(len)?;
        self.release();
        Some(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rateless::{LtEncoder, LT_DEFAULT_C, LT_DEFAULT_DELTA};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn at_the_cap_it_stops_inactivating_and_still_completes_by_peeling() {
        // This 600-symbol LT stream wants 26 unknowns inactive and is then
        // determined by its 604th symbol.  Capped at 8 the solver must stop
        // there, keep its dense system that small, and finish — at the
        // 641st, with the same values — once further symbols have peeled
        // the rest.
        let n = 600;
        let lt = LtEncoder::new(n, LT_DEFAULT_C, LT_DEFAULT_DELTA, 8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let values: Vec<Vec<u8>> = (0..n).map(|_| vec![rng.gen(), rng.gen()]).collect();
        let mut capped = Solver::new(n, n);
        capped.cap = 8;
        let mut free = Solver::new(n, n);
        let (mut seed, mut free_done) = (0u64, 0u64);
        while !capped.is_complete() {
            let cols = lt.equation(seed).neighbors;
            let value = lt.encode_symbol(seed, &values).unwrap();
            if !free.is_complete() {
                free.add(Some(seed), &cols, Value::Row(&value[..])).unwrap();
                free_done = seed;
            }
            capped.add(Some(seed), &cols, Value::Owned(value)).unwrap();
            seed += 1;
            assert!(capped.inactive_columns() <= 8 && capped.dense.len() <= 8);
            assert!(seed < 10 * n as u64, "never completed");
        }
        assert!(free.inactive_columns() > 8, "premise: the cap binds");
        assert!(
            seed > free_done + 1,
            "the cap costs symbols past the ML point"
        );
        for solver in [&capped, &free] {
            assert_eq!(solver.known(), n);
            assert!(solver
                .wanted_iter()
                .unwrap()
                .eq(values.iter().map(Vec::as_slice)));
        }
    }

    #[test]
    fn rows_let_go_leave_no_slot_behind() {
        // Equation pairs over the same two unknowns, then the unknowns
        // themselves: every pair is buffered and then let go.  The row
        // table must not remember them.
        let n = 64;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let values: Vec<Vec<u8>> = (0..n).map(|_| vec![rng.gen()]).collect();
        let mut solver = Solver::new(n, n);
        let pair = |a: usize| {
            let mut value = values[a].clone();
            value.xor(&values[a + 1]);
            (vec![a as u32, a as u32 + 1], Value::Owned(value))
        };
        let mut tag = 0u64;
        for a in (0..n / 2).step_by(2) {
            for _ in 0..8 {
                let (cols, value) = pair(a);
                solver.add(Some(tag), &cols, value).unwrap();
                tag += 1;
            }
            assert_eq!(solver.pending_equations(), 8);
            solver
                .add(Some(tag), &[a as u32], Value::Row(&values[a][..]))
                .unwrap();
            tag += 1;
            assert_eq!((solver.pending_equations(), solver.pending_edges()), (0, 0));
            assert!(solver.rows.len() <= 9, "{} slots", solver.rows.len());
        }
        assert_eq!(solver.known(), n / 2);
        assert!((0..n / 2).all(|c| solver.value(c) == Some(&values[c][..])));
    }
}
