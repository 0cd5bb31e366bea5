//! Seed-golden figures test: pins the `dreamsim figures` series for the
//! 100/200-node × 500/1000/2000-task grid at the CLI's default seed
//! (2012).
//!
//! If an intentional model change shifts these numbers, regenerate the
//! constants with `cargo test --test figures_golden -- --nocapture`
//! (each failing assert prints the actual CSV).

use dreamsim::sweep::{ExperimentGrid, Figure};

const NODES: [usize; 2] = [100, 200];
const TASKS: [usize; 3] = [500, 1_000, 2_000];
const SEED: u64 = 2012; // `dreamsim figures` default

fn grid() -> ExperimentGrid {
    ExperimentGrid::run(&NODES, &TASKS, SEED, 4)
}

/// Expected `FigureSeries::to_csv` output per figure, in paper order.
const GOLDEN: [(&str, &str); 9] = [
    (
        "6a",
        "tasks,without_partial,with_partial\n\
         500,1275.516,410.082\n\
         1000,1411.771,290.689\n\
         2000,1331.817,170.0095\n",
    ),
    (
        "6b",
        "tasks,without_partial,with_partial\n\
         500,1305.336,719.524\n\
         1000,1351.05,428.436\n\
         2000,1476.495,272.03\n",
    ),
    (
        "7a",
        "tasks,without_partial,with_partial\n\
         500,1.76,4.58\n\
         1000,2.23,8.66\n\
         2000,2.16,15.4\n",
    ),
    (
        "7b",
        "tasks,without_partial,with_partial\n\
         500,1.425,2.385\n\
         1000,1.6,4.415\n\
         2000,1.905,8.15\n",
    ),
    (
        "8a",
        "tasks,without_partial,with_partial\n\
         500,86142.592,21589.798\n\
         1000,203076.676,63029.953\n\
         2000,437123.3725,164689.989\n",
    ),
    (
        "8b",
        "tasks,without_partial,with_partial\n\
         500,26431.77,183.226\n\
         1000,80892.93,15832.101\n\
         2000,195027.169,48440.4135\n",
    ),
    (
        "9a",
        "tasks,without_partial,with_partial\n\
         500,3128.806,723.118\n\
         1000,3805.804,1973.809\n\
         2000,4093.562,2266.655\n",
    ),
    (
        "9b",
        "tasks,without_partial,with_partial\n\
         500,53609869,7121613\n\
         1000,131821881,52905593\n\
         2000,284272083,116071445\n",
    ),
    (
        "10",
        "tasks,without_partial,with_partial\n\
         500,8.624,14.416\n\
         1000,4.994,13.675\n\
         2000,2.71,11.5835\n",
    ),
];

/// Regeneration helper: `cargo test --test figures_golden dump_golden --
/// --ignored --nocapture` prints the constants block to paste above.
#[test]
#[ignore = "regeneration helper, not a check"]
fn dump_golden() {
    let g = grid();
    for (id, _) in GOLDEN {
        let csv = g.figure(Figure::parse(id).unwrap()).to_csv();
        println!("--- figure {id} ---\n{csv}");
    }
}

#[test]
fn figures_grid_matches_golden_series() {
    let g = grid();
    for (id, want) in GOLDEN {
        let fig = Figure::parse(id).unwrap();
        let got = g.figure(fig).to_csv();
        assert_eq!(
            got, want,
            "figure {id}: series drifted from the seed-{SEED} golden \
             values.\nactual CSV:\n{got}"
        );
    }
}
