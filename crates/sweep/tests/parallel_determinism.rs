//! Thread-count invariance suite for the deterministic parallel runner
//! (DESIGN.md §13): the same grid, batch, or figure bundle must come
//! out **byte-identical** at `-j1`, `-j2`, and `-j8` — with fault
//! injection on, and when a point is checkpointed mid-run and resumed.

use dreamsim_engine::{
    read_checkpoint, ReconfigMode, RunOptions, SearchBackend, SimParams, Simulation,
};
use dreamsim_sched::CaseStudyScheduler;
use dreamsim_sweep::{
    cost_descending_order, run_batch, run_ordered, run_point, ExperimentGrid, SweepPoint,
};
use dreamsim_workload::SyntheticSource;
use proptest::prelude::*;

const JOBS_LADDER: [usize; 3] = [1, 2, 8];

#[test]
fn figures_grid_bytes_invariant_across_jobs() {
    let bundle = |jobs| {
        let grid = ExperimentGrid::run(&[100], &[200, 400], 2012, jobs);
        (grid.figures_csv_bundle(&[100]), grid.cells_csv())
    };
    let base = bundle(JOBS_LADDER[0]);
    assert!(!base.0.is_empty() && !base.1.is_empty());
    for jobs in &JOBS_LADDER[1..] {
        assert_eq!(base, bundle(*jobs), "grid diverged at -j{jobs}");
    }
}

#[test]
fn fault_injection_batch_invariant_across_jobs() {
    let points: Vec<SweepPoint> = (0..5)
        .map(|i| {
            let mut p = SimParams::paper(30, 200, ReconfigMode::Partial);
            p.seed = 100 + i;
            p.faults.node_mttf = Some(400);
            p.faults.node_mttr = 100;
            p.faults.reconfig_fail_prob = 0.2;
            p.faults.task_fail_prob = 0.1;
            SweepPoint::new(format!("fault{i}"), p)
        })
        .collect();
    let xmls = |jobs| -> Vec<String> {
        run_batch(&points, jobs)
            .iter()
            .map(|r| r.to_xml())
            .collect()
    };
    let base = xmls(JOBS_LADDER[0]);
    for jobs in &JOBS_LADDER[1..] {
        assert_eq!(base, xmls(*jobs), "fault batch diverged at -j{jobs}");
    }
}

#[test]
fn resume_mid_grid_point_matches_parallel_batch_result() {
    // One grid cell, derived exactly as ExperimentGrid derives it.
    let (seed, nodes, tasks) = (2012u64, 100usize, 300usize);
    let mut params = SimParams::paper(nodes, tasks, ReconfigMode::Partial);
    params.seed = dreamsim_rng::derive_stream(seed, (nodes as u64) << 32 | tasks as u64);

    // The cell as the parallel batch runner produces it.
    let batch = run_batch(&[SweepPoint::new("cell", params.clone())], 2)
        .pop()
        .unwrap();

    // The same cell run standalone with a mid-run checkpoint, then
    // resumed from that checkpoint to completion.
    // lint: allow(r2) -- scratch directory for test artifacts, never simulator state
    let dir = std::env::temp_dir().join(format!("dreamsim-grid-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let source = SyntheticSource::from_params(&params);
    let full = Simulation::new(params.clone(), source, CaseStudyScheduler::new())
        .unwrap()
        .run();
    let mid = full.metrics.total_simulation_time / 2;
    let source = SyntheticSource::from_params(&params);
    let _ = Simulation::new(params.clone(), source, CaseStudyScheduler::new())
        .unwrap()
        .run_with(&RunOptions {
            checkpoint_every: Some(mid.max(1)),
            checkpoint_dir: Some(dir.clone()),
            ..RunOptions::default()
        })
        .unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let cp = read_checkpoint(&dir.join(&names[0])).unwrap();
    let source = SyntheticSource::from_params(&params);
    let resumed = Simulation::resume(cp, source, CaseStudyScheduler::new())
        .unwrap()
        .run();

    assert_eq!(batch.to_xml(), full.report.to_xml(), "batch vs standalone");
    assert_eq!(batch.to_xml(), resumed.report.to_xml(), "batch vs resumed");
}

#[test]
fn auto_backend_matches_both_explicit_reports_byte_for_byte() {
    // Auto resolves to linear at 100 nodes and indexed at 200
    // (AUTO_INDEXED_MIN_NODES); either way its report must equal both
    // explicit backends' reports byte for byte — so in particular it
    // matches the faster one.
    for nodes in [100usize, 200] {
        let mut p = SimParams::paper(nodes, 300, ReconfigMode::Partial);
        p.seed = 42;
        let auto = run_point(&SweepPoint::new("auto", p.clone()));
        let lin = run_point(&SweepPoint::new("lin", p.clone()).with_search(SearchBackend::Linear));
        let idx = run_point(&SweepPoint::new("idx", p).with_search(SearchBackend::Indexed));
        assert_eq!(auto.to_xml(), lin.to_xml(), "{nodes} nodes: auto vs linear");
        assert_eq!(
            auto.to_xml(),
            idx.to_xml(),
            "{nodes} nodes: auto vs indexed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pool's merged output equals the serial point order for any
    /// cost vector (hence any LPT claim permutation) and worker count.
    #[test]
    fn parallel_merge_order_equals_serial_point_order(
        costs in prop::collection::vec(0u64..1_000, 1..40),
        jobs in 1usize..9,
    ) {
        let order = cost_descending_order(&costs);
        let serial: Vec<(usize, u64)> =
            run_ordered(&order, 1, |i| (i, costs[i]));
        let parallel: Vec<(usize, u64)> =
            run_ordered(&order, jobs, |i| (i, costs[i]));
        prop_assert_eq!(&serial, &parallel);
        let indices: Vec<usize> = parallel.iter().map(|&(i, _)| i).collect();
        let expected: Vec<usize> = (0..costs.len()).collect();
        prop_assert_eq!(indices, expected, "merge order is the point order");
    }
}
