// Fixture: raw HashMap iteration in a plan-producing module. D001 must
// fire on the `.keys()`, `.iter()` and `.values()` walks and the
// `for .. in` loop over the hash containers — owned or borrowed — and
// stay quiet on the BTreeMap and on non-iterating methods like `.len()`.

use std::collections::{BTreeMap, HashMap, HashSet};

fn plan_from_index(index: HashMap) -> Vec<u32> {
    let by_pm: HashMap = HashMap::new();
    let seen: HashSet = HashSet::new();
    let ordered: BTreeMap = BTreeMap::new();

    let mut out = Vec::new();
    for k in by_pm.keys() {
        out.push(*k);
    }
    for (k, v) in index.iter() {
        out.push(*k + *v);
    }
    for v in seen.iter() {
        out.push(*v);
    }
    for x in &by_pm {
        out.push(x.0);
    }
    // BTreeMap iteration is ordered — no finding.
    for (k, _) in ordered.iter() {
        out.push(*k);
    }
    // Non-iterating methods on a hash container are fine.
    let _ = by_pm.len();
    out
}

fn total(grads: &HashMap, marks: &mut HashSet) -> f64 {
    let sum = grads.values().sum();
    for m in marks.iter() {
        let _ = m;
    }
    sum
}
