//! The daily operational rhythm of Figs. 1–3: best-fit VM scheduling
//! runs all day under diurnal churn, fragments accumulate, and a VMR
//! window at the off-peak minute defragments the cluster. Prints the
//! fragment-rate timeline as a sparkline with the VMR windows marked.
//!
//! Run with:
//! ```text
//! cargo run --release -p vmr-e2e --example daily_operations
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_baselines::ha::ha_solve;
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup, VmMix};
use vmr_sim::daycycle::{run_day_cycle, DayCycleConfig};
use vmr_sim::objective::Objective;
use vmr_sim::trace::DiurnalModel;

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-9);
    values.iter().map(|v| BARS[(((v - lo) / range) * 7.0).round() as usize]).collect()
}

fn main() {
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: 20, cpu_per_numa: 44, mem_per_numa: 128 }],
        churn_cycles: 140,
        ..ClusterConfig::tiny()
    };
    let initial = generate_mapping(&cfg, 17).expect("mapping");
    println!(
        "cluster: {} PMs / {} VMs, FR {:.4}",
        initial.num_pms(),
        initial.num_vms(),
        initial.fragment_rate(16)
    );

    let mut cycle = DayCycleConfig::new(VmMix::standard());
    cycle.days = 2;
    cycle.sample_every = 30;
    cycle.mnl = 12;
    // Churn whose equilibrium population matches this 20-PM cluster.
    cycle.model = DiurnalModel { base_rate: 0.5, amplitude: 0.6, peak_minute: 14 * 60 };
    cycle.exit_frac = 0.0035;

    let obj = Objective::default();
    let mut planner =
        |s: &ClusterState, mnl: usize| ha_solve(s, &ConstraintSet::new(s.num_vms()), obj, mnl).plan;
    let mut rng = StdRng::seed_from_u64(5);
    let out = run_day_cycle(&initial, &mut planner, &cycle, &mut rng).expect("day cycle");

    let frs: Vec<f64> = out.samples.iter().map(|s| s.fr).collect();
    println!(
        "\nFR over {} days (one char per {} min, ▼ = VMR window):",
        cycle.days, cycle.sample_every
    );
    let line = sparkline(&frs);
    // Mark VMR windows above the sparkline.
    let mut marks = vec![' '; frs.len()];
    for w in &out.windows {
        let idx = (w.minute / cycle.sample_every) as usize;
        if idx < marks.len() {
            marks[idx] = '▼';
        }
    }
    println!("  {}", marks.iter().collect::<String>());
    println!("  {line}");
    println!(
        "  min {:.4}  max {:.4}  mean {:.4}",
        frs.iter().cloned().fold(f64::INFINITY, f64::min),
        frs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        out.mean_fr()
    );

    println!("\nVMR windows:");
    for w in &out.windows {
        println!(
            "  day {} {:02}:{:02}  FR {:.4} -> {:.4}  ({} applied, {} dropped by churn)",
            w.minute / 1440,
            (w.minute % 1440) / 60,
            w.minute % 60,
            w.fr_before,
            w.fr_after,
            w.applied,
            w.dropped
        );
    }
    println!("\nmean FR {:.4}, mean drop per window {:.4}", out.mean_fr(), out.mean_window_drop());
}
