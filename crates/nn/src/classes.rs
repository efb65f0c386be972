//! Row classes: the distinct rows of a VM embedding matrix within one
//! forward step.
//!
//! A VM's feature row is `[own cpu/mem per NUMA, fragment delta, host-PM
//! row]` and a cluster has a handful of flavors, so VMs of one flavor
//! and NUMA slot on one PM enter the network as bit-identical rows — and
//! stay bit-identical through the embedding (row-wise) and through every
//! block: the tree-local stage's output for a row depends only on that
//! row and on its tree's members in order, and every later stage maps
//! equal query rows to equal output rows. So the whole stack only has to
//! run once per *class* of equal rows. The forward searches once, right
//! after the embedding, carries one row per class through every block
//! and gives every VM its row back after the last one.
//!
//! [`RowClasses::find`] derives the classes from the rows themselves:
//! rows are compared bit for bit, pairwise inside each
//! [`TreeGroups`] group (rows of different trees differ in their host-PM
//! columns, so the search does not look across trees; two equal rows it
//! misses stay two singleton classes, which costs time, never
//! correctness). Classes are numbered by their first (lowest) member, so
//! representatives ascend and "every class is a singleton" is exactly
//! the identity map.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::infer::TreeGroups;
use crate::scalar::Scalar;

/// Rows seen and distinct rows kept, summed over every forward of the
/// process. `Relaxed`: monotone statistics that publish no other data.
static ROWS_TOTAL: AtomicU64 = AtomicU64::new(0);
static ROWS_DISTINCT: AtomicU64 = AtomicU64::new(0);

/// Process-wide row-class counters, as published by `serve`'s `metrics`
/// op (`nn_rows_total` / `nn_rows_distinct`): their ratio is the share
/// of the blocks' VM rows that still has to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowClassStats {
    /// VM rows entering the blocks, summed over forwards.
    pub rows_total: u64,
    /// Class representatives the blocks actually ran on.
    pub rows_distinct: u64,
}

/// The counters so far.
pub fn stats() -> RowClassStats {
    RowClassStats {
        rows_total: ROWS_TOTAL.load(Relaxed),
        rows_distinct: ROWS_DISTINCT.load(Relaxed),
    }
}

/// The class map of one forward; both buffers are reused across
/// forwards, so a steady-state search allocates nothing.
#[derive(Debug, Default)]
pub struct RowClasses {
    /// Where the classified rows start in the sequence the groups index.
    first: usize,
    /// Row → class, `total()` entries.
    class_of: Vec<u32>,
    /// Class → representative row (its lowest member), ascending.
    reps: Vec<u32>,
}

impl RowClasses {
    /// Rows the map covers (0 before the first search).
    pub fn total(&self) -> usize {
        self.class_of.len()
    }

    /// Number of classes.
    pub fn distinct(&self) -> usize {
        self.reps.len()
    }

    /// True when some class has more than one row; otherwise the map is
    /// the identity and callers skip every gather.
    pub fn shared(&self) -> bool {
        self.reps.len() < self.class_of.len()
    }

    /// Row → class.
    pub fn class_of(&self) -> &[u32] {
        &self.class_of
    }

    /// Class → representative row.
    pub fn reps(&self) -> &[u32] {
        &self.reps
    }

    /// The class of `row`; rows the map does not cover are their own
    /// class (no search has run since the last reset).
    pub fn class(&self, row: usize) -> usize {
        self.class_of.get(row).map_or(row, |&c| c as usize)
    }

    /// Where the classified rows start in the sequence the groups of the
    /// last search indexed (0 before the first search).
    pub fn first(&self) -> usize {
        self.first
    }

    /// Forgets the map (arena reset): every row is its own class again.
    pub fn clear(&mut self) {
        self.first = 0;
        self.class_of.clear();
        self.reps.clear();
    }

    /// Finds the classes of `rows` rows. `groups` lists candidate sets as
    /// indices into a combined sequence in which these rows start at
    /// `first` (members below `first` are skipped); `same(a, b)` says
    /// whether rows `a` and `b` (0-based, `a < b`) are bit-equal. Without
    /// groups every row is its own class.
    pub fn find(
        &mut self,
        rows: usize,
        first: usize,
        groups: Option<&TreeGroups>,
        same: impl Fn(usize, usize) -> bool,
    ) {
        assert!(u32::try_from(rows).is_ok(), "row classes index rows with u32");
        self.first = first;
        // Pass 1: `class_of[j]` = lowest earlier row of j's group equal
        // to row j (else j itself).
        self.class_of.clear();
        self.class_of.extend(0..rows as u32);
        let groups = groups.into_iter().flat_map(|t| (0..t.len()).map(|g| t.group(g)));
        for members in groups {
            for (pos, &member) in members.iter().enumerate() {
                let Some(j) = member.checked_sub(first).filter(|&j| j < rows) else { continue };
                let twin = members[..pos].iter().find_map(|&earlier| {
                    let e = earlier.checked_sub(first)?;
                    // Only a representative below j may adopt it: pass 2
                    // resolves classes in ascending row order.
                    (e < j && self.class_of[e] as usize == e && same(e, j)).then_some(e)
                });
                if let Some(e) = twin {
                    self.class_of[j] = e as u32;
                }
            }
        }
        // Pass 2: number the classes by first member, in place — a row's
        // representative is below it, so already renumbered.
        self.reps.clear();
        self.reps.reserve_exact(rows);
        for j in 0..rows {
            let rep = self.class_of[j] as usize;
            self.class_of[j] = if rep == j {
                self.reps.push(j as u32);
                (self.reps.len() - 1) as u32
            } else {
                self.class_of[rep]
            };
        }
        ROWS_TOTAL.fetch_add(rows as u64, Relaxed);
        ROWS_DISTINCT.fetch_add(self.reps.len() as u64, Relaxed);
    }

    /// Elements reserved by the two maps (arena-growth checks).
    pub fn capacity(&self) -> usize {
        self.class_of.capacity() + self.reps.capacity()
    }
}

/// Bit-equality of two rows (`-0.0` and `0.0` differ, a NaN equals
/// itself): the only notion of "same row" under which sharing a result
/// is exact.
pub(crate) fn same_bits<S: Scalar>(a: &[S], b: &[S]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(rows: &[i32], first: usize, groups: Option<&TreeGroups>) -> RowClasses {
        let mut c = RowClasses::default();
        c.find(rows.len(), first, groups, |a, b| rows[a] == rows[b]);
        c
    }

    #[test]
    fn equal_rows_of_one_group_share_a_class_numbered_by_first_member() {
        // Combined sequence: 2 PMs then 6 VMs; VM rows by value.
        let rows = [7, 5, 7, 5, 7, 9];
        let groups = TreeGroups { starts: vec![0, 5, 8], members: vec![0, 2, 3, 4, 6, 1, 5, 7] };
        let c = find(&rows, 2, Some(&groups));
        // Group 0 holds VMs 0,1,2,4 (7,5,7,7); group 1 holds VMs 3,5 (5,9).
        assert_eq!(c.class_of(), &[0, 1, 0, 2, 0, 3]);
        assert_eq!(c.reps(), &[0, 1, 3, 5]);
        assert!(c.shared());
        assert_eq!((c.total(), c.distinct(), c.class(4), c.class(99)), (6, 4, 0, 99));
    }

    #[test]
    fn equal_rows_of_different_groups_stay_apart() {
        let rows = [4, 4];
        let groups = TreeGroups { starts: vec![0, 1, 2], members: vec![0, 1] };
        let c = find(&rows, 0, Some(&groups));
        assert_eq!(c.class_of(), &[0, 1]);
        assert!(!c.shared());
    }

    #[test]
    fn no_groups_or_uncovered_rows_are_singletons() {
        assert_eq!(find(&[1, 1, 1], 0, None).class_of(), &[0, 1, 2]);
        // Row 2 is in no group; members out of range are ignored.
        let groups = TreeGroups { starts: vec![0, 3], members: vec![0, 1, 40] };
        let c = find(&[1, 1, 1], 0, Some(&groups));
        assert_eq!(c.class_of(), &[0, 0, 1]);
    }

    #[test]
    fn a_descending_group_never_points_a_row_at_a_later_one() {
        let groups = TreeGroups { starts: vec![0, 3], members: vec![2, 1, 0] };
        let c = find(&[3, 3, 3], 0, Some(&groups));
        assert_eq!(c.class_of(), &[0, 1, 2], "malformed order costs sharing, not correctness");
    }

    #[test]
    fn bit_equality_separates_signed_zeros_and_joins_nans() {
        assert!(!same_bits(&[0.0f64], &[-0.0]));
        assert!(same_bits(&[f64::NAN, 1.5], &[f64::NAN, 1.5]));
        assert!(!same_bits(&[0.0f32], &[-0.0]));
        assert!(same_bits(&[f32::NAN], &[f32::NAN]));
    }
}
