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
//! 4. *Touch payloads once.*  Only when the masks say every unknown is
//!    determined are values computed: one sparse pass for the peeled
//!    unknowns' constant parts, one dense pass for the inactive values
//!    (≈ `u²/2` XORs for `u` inactive unknowns), one sparse pass in peel
//!    order for the rest.
//!
//! Every decision above reads indices, counters and masks — never a value —
//! so a [`crate::Mark`] solver and a payload solver fed the same equations
//! take the same steps and complete on the same one.  Nothing is hashed and
//! nothing is iterated in an address-dependent order, so two runs over one
//! stream are identical.
//!
//! [`INACTIVATION_CAP`] bounds the inactive set.  At the cap the solver
//! stops inactivating and waits for the ripple: further equations still
//! peel (the inactive unknowns count as resolved), so it completes from
//! somewhat more than the ML minimum, and its dense system — hence the work
//! one arrival can cost — stays bounded however large `n` is.

use crate::symbol::Symbol;
use std::collections::BTreeSet;

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

/// "No column" where a column to leave out may be named.
const NONE: u32 = u32::MAX;

fn bucket(active: u32) -> usize {
    (active as usize).min(BUCKETS - 1)
}

/// `acc ^= value`, where `None` on either side is the all-zero value (the
/// precode's checks are equations whose value is zero at any length).
fn xor_into<S: Symbol>(acc: &mut Option<S>, value: Option<&S>) {
    match (acc.as_mut(), value) {
        (_, None) => {}
        (Some(a), Some(v)) => a.xor(v),
        (None, Some(v)) => *acc = Some(v.clone()),
    }
}

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
    /// Its value is in `values`.
    Known,
    /// Resolved symbolically by the equation at this position of `order`.
    Peeled(u32),
    /// Inactive, with this index into the dense system.
    Inactive(u32),
}

#[derive(Debug, Clone)]
struct Row<S> {
    /// The equation's unknowns; empty once the row has been let go.
    cols: Vec<u32>,
    /// Its value (`None` is zero), untouched until it is used.
    value: Option<S>,
    /// How many of `cols` are still [`Col::Active`].
    active: u32,
    /// The caller's name for it, for exact-repeat detection.
    tag: Option<u64>,
}

/// One row of the dense system over the inactive unknowns.
#[derive(Debug, Clone)]
struct DenseRow {
    /// Inactive unknowns in the row; its lowest bit is its pivot.
    mask: Vec<u64>,
    /// Which dense rows' sources XOR to it (bit `i` = dense row `i`).
    combo: Vec<u64>,
    /// The buffered equation it entered as.
    source: u32,
}

/// See the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct Solver<S: Symbol> {
    /// Columns `0..wanted` are the ones the caller wants back.
    wanted: usize,
    cols: Vec<Col>,
    values: Vec<Option<S>>,
    /// Column → buffered rows in which it is still [`Col::Active`].
    col_rows: Vec<Vec<u32>>,
    rows: Vec<Row<S>>,
    /// Slots of `rows` that were let go, for the next rows.  A slot is only
    /// handed out between two `settle`s, when nothing but `buckets` (which
    /// checks every entry against the row's present state) can still name
    /// its old tenant.
    free_rows: Vec<u32>,
    /// Tags of the buffered rows.
    tags: BTreeSet<u64>,
    live: usize,
    pending_edges: usize,
    known: usize,
    wanted_known: usize,
    /// Columns still [`Col::Active`].
    unresolved: usize,
    /// Buffered rows with two or more active columns.
    buffered: usize,
    ripple: Vec<u32>,
    buckets: Vec<Vec<u32>>,
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
    /// Dense index → the dense row whose pivot it is.
    pivot_of: Vec<Option<u32>>,
    complete: bool,
}

impl<S: Symbol> Solver<S> {
    /// A solver over `n` unknowns of which the first `wanted` are asked for.
    pub(crate) fn new(n: usize, wanted: usize) -> Self {
        Solver {
            wanted,
            cols: vec![Col::Active; n],
            values: vec![None; n],
            col_rows: vec![Vec::new(); n],
            rows: Vec::new(),
            free_rows: Vec::new(),
            tags: BTreeSet::new(),
            live: 0,
            pending_edges: 0,
            known: 0,
            wanted_known: 0,
            unresolved: n,
            buffered: 0,
            ripple: Vec::new(),
            buckets: vec![Vec::new(); BUCKETS],
            order: Vec::new(),
            mask_span: Vec::new(),
            masks: Vec::new(),
            inactive: Vec::new(),
            cap: INACTIVATION_CAP,
            residual: Vec::new(),
            dense: Vec::new(),
            pivot_of: Vec::new(),
            complete: false,
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

    /// The value of unknown `index`, once computed.
    pub(crate) fn value(&self, index: usize) -> Option<&S> {
        self.values.get(index)?.as_ref()
    }

    /// The wanted values in order, once complete and not yet released.
    pub(crate) fn wanted_iter(&self) -> Option<impl Iterator<Item = &S> + '_> {
        let wanted = self.values.get(..self.wanted)?;
        (self.complete && wanted.iter().all(Option::is_some))
            .then(|| wanted.iter().filter_map(Option::as_ref))
    }

    /// Drop every value and equation; counters and completion stay.
    pub(crate) fn release(&mut self) {
        self.drop_equations();
        self.values = Vec::new();
    }

    /// True once [`Self::release`] has run (`n ≥ 1` until then).
    pub(crate) fn released(&self) -> bool {
        self.values.is_empty()
    }

    /// Take one equation: the XOR of the unknowns `cols` is `value` (`None`
    /// for zero).  Returns `false`, changing nothing, when `tag` names an
    /// equation currently held.  Not to be called once complete or released
    /// (the equations' bookkeeping is gone by then).
    pub(crate) fn add(&mut self, tag: Option<u64>, cols: Vec<u32>, value: Option<S>) -> bool {
        debug_assert!(!self.complete && !self.released());
        if tag.is_some_and(|t| self.tags.contains(&t)) {
            return false;
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
        if active == 0 {
            // Nothing left to peel in it.  Before any inactivation that
            // means every unknown is valued and the equation says nothing
            // new; after, it is a row of the dense system — kept only if
            // it is independent of the rows already there.
            if self.inactive.is_empty() || !self.dense_insert(self.row_mask(&cols, NONE), id) {
                return true;
            }
        }
        for &c in &cols {
            if self.cols[c as usize] == Col::Active {
                self.col_rows[c as usize].push(id);
            }
        }
        self.pending_edges += self.unvalued(&cols);
        self.live += 1;
        if let Some(t) = tag {
            self.tags.insert(t);
        }
        let row = Row {
            cols,
            value,
            active,
            tag,
        };
        match self.free_rows.pop() {
            Some(slot) => self.rows[slot as usize] = row,
            None => self.rows.push(row),
        }
        match active {
            0 => {}
            1 => self.ripple.push(id),
            a => {
                self.buffered += 1;
                self.buckets[bucket(a)].push(id);
            }
        }
        self.settle();
        true
    }

    /// [`Self::pending_edges`] from first principles.
    #[cfg(test)]
    pub(crate) fn recount_pending_edges(&self) -> usize {
        self.rows.iter().map(|row| self.unvalued(&row.cols)).sum()
    }

    fn unvalued(&self, cols: &[u32]) -> usize {
        cols.iter()
            .filter(|&&c| self.cols[c as usize] != Col::Known)
            .count()
    }

    /// Let a buffered row go.
    fn free(&mut self, r: u32) {
        let row = &mut self.rows[r as usize];
        let cols = std::mem::take(&mut row.cols);
        row.value = None;
        if let Some(t) = row.tag {
            self.tags.remove(&t);
        }
        self.live -= 1;
        self.pending_edges -= self.unvalued(&cols);
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
            a if (a as usize) < BUCKETS - 1 => self.buckets[a as usize].push(r),
            _ => {}
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
            for r in std::mem::take(&mut self.col_rows[c as usize]) {
                self.decrement(r);
            }
        }
        if self.complete || self.inactive.is_empty() {
            return;
        }
        self.extend_masks();
        for r in std::mem::take(&mut self.residual) {
            let mask = self.row_mask(&self.rows[r as usize].cols, NONE);
            if !self.dense_insert(mask, r) {
                self.free(r);
            }
        }
        if self.unresolved == 0 && self.dense.len() == self.inactive.len() {
            self.finish();
        }
    }

    /// Degree-one release with values, before anything is inactive.
    fn peel(&mut self) {
        while let Some(r) = self.ripple.pop() {
            let row = &mut self.rows[r as usize];
            if row.active != 1 {
                continue; // its last column was released through another row
            }
            let mut acc = row.value.take();
            let mut target = None;
            for &c in &row.cols {
                match self.cols[c as usize] {
                    Col::Active => target = Some(c),
                    _ => xor_into(&mut acc, self.values[c as usize].as_ref()),
                }
            }
            self.free(r);
            let Some(p) = target else { continue };
            self.cols[p as usize] = Col::Known;
            self.values[p as usize] = acc;
            self.known += 1;
            self.wanted_known += usize::from((p as usize) < self.wanted);
            self.unresolved -= 1;
            if self.wanted_known == self.wanted {
                self.complete = true;
                self.drop_equations();
                return;
            }
            for r2 in std::mem::take(&mut self.col_rows[p as usize]) {
                if !self.rows[r2 as usize].cols.is_empty() {
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
            let row = &self.rows[r as usize];
            if row.active != 1 {
                continue; // already a residual row
            }
            let Some(p) = row
                .cols
                .iter()
                .copied()
                .find(|&c| self.cols[c as usize] == Col::Active)
            else {
                continue;
            };
            self.cols[p as usize] = Col::Peeled(self.order.len() as u32);
            self.order.push((p, r));
            self.unresolved -= 1;
            for r2 in std::mem::take(&mut self.col_rows[p as usize]) {
                if r2 != r {
                    self.decrement(r2);
                }
            }
        }
    }

    /// The lowest-degree buffered row's busiest active column.
    fn column_to_inactivate(&mut self) -> Option<u32> {
        for d in 2..BUCKETS {
            while let Some(&r) = self.buckets[d].last() {
                let row = &self.rows[r as usize];
                if row.active < 2 || bucket(row.active) != d {
                    self.buckets[d].pop(); // the row has moved on
                    continue;
                }
                return row
                    .cols
                    .iter()
                    .copied()
                    .filter(|&c| self.cols[c as usize] == Col::Active)
                    .max_by_key(|&c| self.col_rows[c as usize].len());
            }
        }
        None
    }

    /// The inactive unknowns a row comes to once its peeled columns are
    /// substituted (`skip` is the column the row itself resolves, if any).
    fn row_mask(&self, cols: &[u32], skip: u32) -> Vec<u64> {
        let mut mask = vec![0u64; self.inactive.len().div_ceil(64)];
        self.fill_mask(&mut mask, &self.masks, cols, skip);
        mask
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
            self.fill_mask(mask, made, &self.rows[r as usize].cols, p);
            self.mask_span.push((start, words));
        }
        self.masks = masks;
    }

    /// Reduce `mask` against the pivots; if anything is left it becomes the
    /// pivot row of its lowest bit, with `source` as the equation behind it.
    fn dense_insert(&mut self, mut mask: Vec<u64>, source: u32) -> bool {
        let at = self.dense.len();
        let mut combo = vec![0u64; at / 64 + 1];
        combo[at / 64] |= 1 << (at % 64);
        self.pivot_of.resize(self.inactive.len(), None);
        loop {
            let lowest = set_bits(&mask).next();
            let Some(bit) = lowest else { return false };
            match self.pivot_of[bit] {
                Some(d) => {
                    let pivot = &self.dense[d as usize];
                    xor_words(&mut mask, &pivot.mask);
                    xor_words(&mut combo, &pivot.combo);
                }
                None => {
                    self.pivot_of[bit] = Some(at as u32);
                    self.dense.push(DenseRow {
                        mask,
                        combo,
                        source,
                    });
                    return true;
                }
            }
        }
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
                    for &c in &self.rows[r as usize].cols {
                        needed[c as usize] = true;
                    }
                }
            }
        }

        // 1. Constant parts of the peeled unknowns, in peel order: the
        //    row's value and its valued or earlier-peeled neighbours.
        for &(p, r) in &self.order {
            if needed[p as usize] {
                let row = &self.rows[r as usize];
                let mut acc = row.value.clone();
                self.xor_constants(&mut acc, &row.cols, p);
                self.values[p as usize] = acc;
            }
        }
        // 2. The dense rows' sources, likewise reduced to constants.
        let constants: Vec<Option<S>> = (0..self.dense.len())
            .map(|d| {
                let r = self.dense[d].source as usize;
                let mut acc = self.rows[r].value.take();
                self.xor_constants(&mut acc, &self.rows[r].cols, NONE);
                acc
            })
            .collect();
        // 3. Back-substitute the echelon rows (highest pivot first, so each
        //    row folded in is already a single unknown) and XOR out the
        //    inactive values.
        for i in (0..self.inactive.len()).rev() {
            let Some(d) = self.pivot_of[i] else { continue };
            let mut combo = std::mem::take(&mut self.dense[d as usize].combo);
            combo.resize(self.dense.len().div_ceil(64), 0);
            for b in set_bits(&self.dense[d as usize].mask).filter(|&b| b > i) {
                if let Some(other) = self.pivot_of[b] {
                    xor_words(&mut combo, &self.dense[other as usize].combo);
                }
            }
            let mut acc = None;
            for j in set_bits(&combo) {
                xor_into(&mut acc, constants[j].as_ref());
            }
            self.values[self.inactive[i] as usize] = acc;
            self.dense[d as usize].combo = combo;
        }
        // 4. The peeled unknowns, in peel order: constant ⊕ the inactive
        //    unknowns of its mask, or the row recomputed from its (now
        //    valued) neighbours — whichever is fewer XORs.
        for (at, &(p, r)) in self.order.iter().enumerate() {
            if !needed[p as usize] {
                continue;
            }
            let (start, len) = self.mask_span[at];
            let mask = &self.masks[start..start + len];
            let weight: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
            let row = &mut self.rows[r as usize];
            let mut acc;
            if weight < row.cols.len() - 1 {
                acc = self.values[p as usize].take();
                for i in set_bits(mask) {
                    xor_into(&mut acc, self.values[self.inactive[i] as usize].as_ref());
                }
            } else {
                acc = row.value.take();
                for &c in row.cols.iter().filter(|&&c| c != p) {
                    xor_into(&mut acc, self.values[c as usize].as_ref());
                }
            }
            self.values[p as usize] = acc;
        }
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

    /// `acc ^=` the values of `cols`' valued columns and the constant parts
    /// of its peeled ones, `skip` aside.
    fn xor_constants(&self, acc: &mut Option<S>, cols: &[u32], skip: u32) {
        for &c in cols {
            if c != skip && matches!(self.cols[c as usize], Col::Known | Col::Peeled(_)) {
                xor_into(acc, self.values[c as usize].as_ref());
            }
        }
    }

    /// Everything but the values and the counters of what was computed.
    fn drop_equations(&mut self) {
        self.rows = Vec::new();
        self.free_rows = Vec::new();
        self.col_rows = Vec::new();
        self.tags = BTreeSet::new();
        self.live = 0;
        self.pending_edges = 0;
        self.buffered = 0;
        self.ripple = Vec::new();
        self.buckets = Vec::new();
        self.order = Vec::new();
        self.mask_span = Vec::new();
        self.masks = Vec::new();
        self.residual = Vec::new();
        self.dense = Vec::new();
        self.pivot_of = Vec::new();
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
                free.add(Some(seed), cols.clone(), Some(value.clone()));
                free_done = seed;
            }
            capped.add(Some(seed), cols, Some(value));
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
            assert!(solver.wanted_iter().unwrap().eq(values.iter()));
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
            (vec![a as u32, a as u32 + 1], Some(value))
        };
        let mut tag = 0u64;
        for a in (0..n / 2).step_by(2) {
            for _ in 0..8 {
                let (cols, value) = pair(a);
                solver.add(Some(tag), cols, value);
                tag += 1;
            }
            assert_eq!(solver.pending_equations(), 8);
            solver.add(Some(tag), vec![a as u32], Some(values[a].clone()));
            tag += 1;
            assert_eq!((solver.pending_equations(), solver.pending_edges()), (0, 0));
            assert!(solver.rows.len() <= 9, "{} slots", solver.rows.len());
        }
        assert_eq!(solver.known(), n / 2);
        assert!((0..n / 2).all(|c| solver.value(c) == Some(&values[c])));
    }
}
