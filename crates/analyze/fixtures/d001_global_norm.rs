// Fixture: the gradient norm as it was before it was made canonical —
// summed over a `HashMap`'s values in the map's per-process order, so
// the clip scale (and every weight of a clipped update) depended on the
// process. D001 must fire once, on `.values()`.

use std::collections::HashMap;

pub fn global_norm(grads: &HashMap<String, Tensor>) -> f64 {
    grads.values().map(|g| g.data().iter().map(|v| v * v).sum::<f64>()).sum::<f64>().sqrt()
}
