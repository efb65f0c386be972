//! Optimizers: Adam with bias correction and global-norm gradient clipping.

use std::collections::HashMap;

use crate::layers::Module;
use crate::tensor::Tensor;

/// Adam configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    /// Optional global-norm clip applied to the full gradient set.
    pub max_grad_norm: Option<f64>,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 3e-4, beta1: 0.9, beta2: 0.999, eps: 1e-8, max_grad_norm: Some(0.5) }
    }
}

/// Adam optimizer with per-parameter-name state.
#[derive(Debug)]
pub struct Adam {
    /// Hyper-parameters; `lr` may be mutated for schedules.
    pub config: AdamConfig,
    t: u64,
    m: HashMap<String, Tensor>,
    v: HashMap<String, Tensor>,
    frozen_prefixes: Vec<String>,
}

impl Adam {
    /// Fresh optimizer.
    pub fn new(config: AdamConfig) -> Self {
        Adam { config, t: 0, m: HashMap::new(), v: HashMap::new(), frozen_prefixes: Vec::new() }
    }

    /// Freezes every parameter whose name starts with one of the given
    /// prefixes — the "top-layer fine-tuning" adaptation strategy the
    /// VMR2L paper recommends for distribution shifts (§7): freeze the
    /// embedding networks and attention blocks, train only the heads.
    pub fn freeze_prefixes(&mut self, prefixes: &[&str]) {
        self.frozen_prefixes = prefixes.iter().map(|p| p.to_string()).collect();
    }

    /// Removes all freezes.
    pub fn unfreeze_all(&mut self) {
        self.frozen_prefixes.clear();
    }

    /// Whether a parameter name is currently frozen.
    pub fn is_frozen(&self, name: &str) -> bool {
        self.frozen_prefixes.iter().any(|p| name.starts_with(p.as_str()))
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update to every parameter of `module` that has a
    /// gradient in `grads`. Parameters without gradients are untouched.
    /// Returns the (pre-clip) global gradient norm.
    pub fn step(&mut self, module: &mut impl Module, grads: &HashMap<String, Tensor>) -> f64 {
        let global_norm = global_norm(grads);
        let clip_scale = match self.config.max_grad_norm {
            Some(max) if global_norm > max && global_norm > 0.0 => max / global_norm,
            _ => 1.0,
        };
        self.t += 1;
        let t = self.t as f64;
        let (b1, b2) = (self.config.beta1, self.config.beta2);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let lr = self.config.lr;
        let eps = self.config.eps;
        let m_map = &mut self.m;
        let v_map = &mut self.v;
        let frozen = &self.frozen_prefixes;
        module.visit_params_mut(&mut |name, param| {
            if frozen.iter().any(|p| name.starts_with(p.as_str())) {
                return;
            }
            let Some(grad) = grads.get(name) else { return };
            let m = m_map
                .entry(name.to_string())
                .or_insert_with(|| Tensor::zeros(param.rows(), param.cols()));
            let v = v_map
                .entry(name.to_string())
                .or_insert_with(|| Tensor::zeros(param.rows(), param.cols()));
            for i in 0..param.len() {
                let g = grad.data()[i] * clip_scale;
                let mi = b1 * m.data()[i] + (1.0 - b1) * g;
                let vi = b2 * v.data()[i] + (1.0 - b2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                param.data_mut()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
        global_norm
    }
}

/// Global L2 norm of a gradient set, summed in ascending name order: a
/// `HashMap`'s iteration order follows its per-process random state, and
/// the clip scale computed from this norm moves every weight of a clipped
/// update, so any other order makes training depend on the process.
pub fn global_norm(grads: &HashMap<String, Tensor>) -> f64 {
    // vmr-analyze: allow(D001) reason="the names are sorted before anything is summed"
    let mut names: Vec<&String> = grads.keys().collect();
    names.sort_unstable();
    names.iter().map(|n| grads[*n].data().iter().map(|v| v * v).sum::<f64>()).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::layers::Linear;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Adam on a convex quadratic must drive the loss down monotonically
    /// (after warmup) and close to zero.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lin = Linear::new("l", 3, 1, &mut rng);
        let x = Tensor::from_vec(
            4,
            3,
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        );
        let target = Tensor::from_vec(4, 1, vec![2.0, -1.0, 0.5, 1.5]);
        let mut opt = Adam::new(AdamConfig { lr: 0.05, max_grad_norm: None, ..Default::default() });
        let mut last = f64::INFINITY;
        for i in 0..400 {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let tv = g.constant(target.clone());
            let y = lin.forward(&mut g, xv);
            let d = g.sub(y, tv);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            g.backward(loss);
            let grads = g.param_grads();
            opt.step(&mut lin, &grads);
            let l = g.value(loss).get(0, 0);
            if i > 300 {
                assert!(l <= last + 1e-6, "loss increased late: {l} > {last}");
            }
            last = l;
        }
        assert!(last < 1e-3, "final loss too high: {last}");
        assert_eq!(opt.steps(), 400);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut lin = Linear::new("l", 2, 1, &mut rng);
        let mut grads = HashMap::new();
        grads.insert("l.w".to_string(), Tensor::from_vec(2, 1, vec![1e6, -1e6]));
        grads.insert("l.b".to_string(), Tensor::from_vec(1, 1, vec![1e6]));
        let norm_before = global_norm(&grads);
        assert!(norm_before > 1e6);
        let mut before = Vec::new();
        lin.visit_params(&mut |_, t| before.extend_from_slice(t.data()));
        let mut opt =
            Adam::new(AdamConfig { lr: 0.01, max_grad_norm: Some(1.0), ..Default::default() });
        opt.step(&mut lin, &grads);
        let mut after = Vec::new();
        lin.visit_params(&mut |_, t| after.extend_from_slice(t.data()));
        for (b, a) in before.iter().zip(after.iter()) {
            // Adam caps each step at ~lr even unclipped, but clipping keeps
            // the moment estimates bounded too; just sanity-check movement.
            assert!((b - a).abs() <= 0.011, "update too large: {} -> {}", b, a);
        }
    }

    #[test]
    fn global_norm_does_not_depend_on_insertion_order() {
        // 200 tensors of uneven values: summed in two different orders
        // their squares round differently. Two maps of equal content built
        // in opposite orders (each with its own hash state, so each walks
        // its entries in its own order) must still agree bit for bit.
        let mut rng = StdRng::seed_from_u64(9);
        let entries: Vec<(String, Tensor)> = (0..200)
            .map(|i| (format!("p{i}"), Tensor::from_vec(1, 3, (0..3).map(|_| rng.gen()).collect())))
            .collect();
        let forward: HashMap<String, Tensor> = entries.iter().cloned().collect();
        let backward: HashMap<String, Tensor> = entries.iter().rev().cloned().collect();
        assert_eq!(global_norm(&forward).to_bits(), global_norm(&backward).to_bits());
    }

    #[test]
    fn frozen_prefixes_are_not_updated() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut lin = Linear::new("body", 2, 2, &mut rng);
        let mut head = Linear::new("head", 2, 1, &mut rng);
        let mut grads = HashMap::new();
        grads.insert("body.w".to_string(), Tensor::full(2, 2, 1.0));
        grads.insert("head.w".to_string(), Tensor::full(2, 1, 1.0));
        let mut opt = Adam::new(AdamConfig { lr: 0.1, max_grad_norm: None, ..Default::default() });
        opt.freeze_prefixes(&["body"]);
        assert!(opt.is_frozen("body.w"));
        assert!(!opt.is_frozen("head.w"));
        let mut body_before = Vec::new();
        lin.visit_params(&mut |_, t| body_before.extend_from_slice(t.data()));
        let mut head_before = Vec::new();
        head.visit_params(&mut |_, t| head_before.extend_from_slice(t.data()));
        opt.step(&mut lin, &grads);
        opt.step(&mut head, &grads);
        let mut body_after = Vec::new();
        lin.visit_params(&mut |_, t| body_after.extend_from_slice(t.data()));
        let mut head_after = Vec::new();
        head.visit_params(&mut |_, t| head_after.extend_from_slice(t.data()));
        assert_eq!(body_before, body_after, "frozen body must not move");
        assert_ne!(head_before, head_after, "unfrozen head must move");
        opt.unfreeze_all();
        assert!(!opt.is_frozen("body.w"));
    }

    #[test]
    fn missing_grads_leave_params_untouched() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lin = Linear::new("l", 2, 2, &mut rng);
        let mut before = Vec::new();
        lin.visit_params(&mut |_, t| before.extend_from_slice(t.data()));
        let mut opt = Adam::new(AdamConfig::default());
        opt.step(&mut lin, &HashMap::new());
        let mut after = Vec::new();
        lin.visit_params(&mut |_, t| after.extend_from_slice(t.data()));
        assert_eq!(before, after);
    }
}
