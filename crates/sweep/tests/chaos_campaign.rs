//! Chaos-layer integration: the built-in campaign end to end (audits,
//! drills), and deterministic admission-policy behaviour under scripted
//! overload — including byte-identical reports across worker counts.

use dreamsim_engine::{
    AdmissionPolicy, BurstWindow, DomainOutageKind, DomainParams, ReconfigMode, ScriptedOutage,
    SimParams,
};
use dreamsim_sweep::chaos::{parse_campaign, run_campaign, CampaignOptions, BUILTIN_CAMPAIGN};
use dreamsim_sweep::{run_batch, SweepPoint};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    // lint: allow(r2) -- scratch directory for test artifacts, never simulator state
    let d = std::env::temp_dir().join(format!("dreamsim-chaoscamp-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn builtin_campaign_runs_audited_with_drills() {
    let scenarios = parse_campaign(BUILTIN_CAMPAIGN).unwrap();
    let dir = temp_dir("builtin");
    let report = run_campaign(&scenarios, &CampaignOptions::default(), &dir).unwrap();
    assert_eq!(report.cases.len(), 3);

    let rack = &report.cases[0];
    assert_eq!(rack.name, "rack-outage");
    assert_eq!(rack.domain_outages, 2, "both scripted outages fire");
    assert_eq!(rack.domain_restores, 2);
    assert!(rack.domain_downtime.iter().sum::<u64>() >= 1400);

    let storm = &report.cases[1];
    assert_eq!(storm.name, "partition-storm");
    assert!(storm.domain_outages > 0, "stochastic outages fire");
    assert_eq!(storm.domain_outages, storm.domain_restores);

    let shed = &report.cases[2];
    assert_eq!(shed.name, "overload-shed");
    assert!(shed.shed > 0, "the burst must overflow the bounded queue");

    for (c, sc) in report.cases.iter().zip(&scenarios) {
        assert_eq!(
            c.completed + c.discarded,
            sc.params.total_tasks as u64,
            "{}: workload conserved",
            c.name
        );
        let d = c.drill.expect("drills enabled");
        assert!(d.report_identical, "{}: drill must reconverge", c.name);
        assert!(d.checkpoint_at < c.makespan, "{}: snapshot mid-run", c.name);
    }

    // The drill directories hold the surviving snapshots.
    for name in ["rack-outage", "partition-storm", "overload-shed"] {
        assert!(dir.join(name).is_dir(), "{name} drill dir exists");
    }
}

/// A saturating arrival burst into a small cluster with a bounded
/// suspension queue: admission control fires on nearly every arrival.
fn burst_params(admission: AdmissionPolicy) -> SimParams {
    let mut p = SimParams::paper(16, 300, ReconfigMode::Partial);
    p.seed = 2024;
    p.burst = Some(BurstWindow {
        start: 0,
        end: 5_000,
        interval: 2,
    });
    p.suspension_cap = Some(16);
    p.admission = admission;
    p.faults.suspension_deadline = Some(2_000);
    p
}

/// A lightly loaded cluster hit by a scripted partition outage: the
/// eviction flood overflows the queue while survivors still hold idle
/// instances, which is the window where degrade-to-closest-match can
/// actually place overflow instead of shedding it.
fn partition_params(admission: AdmissionPolicy) -> SimParams {
    let mut p = SimParams::paper(16, 300, ReconfigMode::Partial);
    p.seed = 2024;
    p.task_time.hi = 500;
    p.suspension_cap = Some(2);
    p.admission = admission;
    p.faults.suspension_deadline = Some(2_000);
    p.domains = Some(DomainParams {
        count: 2,
        mttf: None,
        mttr: 300,
        kind: DomainOutageKind::Partition,
        scripted: vec![ScriptedOutage {
            domain: 0,
            at: 1_000,
            duration: 800,
        }],
    });
    p
}

const POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::Block,
    AdmissionPolicy::ShedOldest,
    AdmissionPolicy::DegradeClosest,
];

#[test]
fn admission_policies_shed_under_a_saturating_burst() {
    let points: Vec<SweepPoint> = POLICIES
        .iter()
        .map(|&a| SweepPoint::new(a.label(), burst_params(a)))
        .collect();
    let reports = run_batch(&points, 1);
    for (r, a) in reports.iter().zip(POLICIES) {
        let m = &r.metrics;
        assert_eq!(
            m.total_tasks_completed + m.total_discarded_tasks,
            300,
            "{}: workload conserved",
            a.label()
        );
        assert!(m.tasks_shed > 0, "{}: the burst must shed", a.label());
        assert!(m.total_suspensions > 0, "{}", a.label());
    }
    // Shedding the head instead of the newcomer changes which tasks
    // survive, so the two eviction policies must diverge.
    assert_ne!(reports[0].metrics, reports[1].metrics);
    // Under full saturation no idle capacity ever exists, so
    // degrade-to-closest-match degenerates to blocking by design.
    assert_eq!(reports[2].metrics.tasks_degraded, 0);
}

#[test]
fn degrade_places_partition_overflow_on_surviving_capacity() {
    let points: Vec<SweepPoint> = POLICIES
        .iter()
        .map(|&a| SweepPoint::new(a.label(), partition_params(a)))
        .collect();
    let reports = run_batch(&points, 1);
    for (r, a) in reports.iter().zip(POLICIES) {
        let m = &r.metrics;
        assert_eq!(m.domain_outages, 1, "{}", a.label());
        assert_eq!(
            m.total_tasks_completed + m.total_discarded_tasks,
            300,
            "{}: workload conserved",
            a.label()
        );
    }
    let degrade = &reports[2].metrics;
    assert!(
        degrade.tasks_degraded > 0,
        "partition overflow must degrade onto surviving idle slots"
    );
    assert_eq!(reports[0].metrics.tasks_degraded, 0);
    assert_eq!(reports[1].metrics.tasks_degraded, 0);
    // Degrading keeps tasks alive that blocking sheds.
    assert!(degrade.total_tasks_completed > reports[0].metrics.total_tasks_completed);
    assert_ne!(reports[0].metrics, reports[1].metrics);
    assert_ne!(reports[0].metrics, reports[2].metrics);
}

#[test]
fn chaos_batches_are_byte_identical_across_worker_counts() {
    let mut points: Vec<SweepPoint> = Vec::new();
    for &a in &POLICIES {
        points.push(SweepPoint::new(
            format!("burst/{}", a.label()),
            burst_params(a),
        ));
        points.push(SweepPoint::new(
            format!("partition/{}", a.label()),
            partition_params(a),
        ));
    }
    let seq = run_batch(&points, 1);
    let par = run_batch(&points, 4);
    for ((a, b), pt) in seq.iter().zip(&par).zip(&points) {
        assert_eq!(a.metrics, b.metrics, "{}", pt.label);
        assert_eq!(a.to_xml(), b.to_xml(), "{}: -j1 vs -j4 bytes", pt.label);
    }
}
