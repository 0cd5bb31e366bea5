//! Report generation (the output subsystem).
//!
//! The paper's output subsystem "contains an XML simulation report
//! generator which accumulates the statistics associated with various
//! performance metrics". [`Report`] serializes a run's parameters and
//! finalized [`Metrics`] to XML (hand-rolled writer — no external XML
//! dependency), JSON (via serde), and a flat CSV row for sweep
//! aggregation.

use crate::params::SimParams;
use crate::stats::Metrics;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A complete simulation report: the input parameters and the resulting
/// metric set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Parameters the run used.
    pub params: SimParams,
    /// Finalized metrics.
    pub metrics: Metrics,
}

/// Escape the five XML special characters.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

fn elem(out: &mut String, indent: usize, tag: &str, value: impl std::fmt::Display) {
    let _ = writeln!(
        out,
        "{:indent$}<{tag}>{}</{tag}>",
        "",
        xml_escape(&value.to_string()),
        indent = indent
    );
}

impl Report {
    /// Assemble a report.
    #[must_use]
    pub fn new(params: SimParams, metrics: Metrics) -> Self {
        Self { params, metrics }
    }

    /// Pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // INVARIANT: Report is a closed tree of numbers and strings;
        // the serializer has no failure mode for those shapes.
        serde_json::to_string_pretty(self).expect("Report serialization cannot fail")
    }

    /// The paper's XML simulation report.
    #[must_use]
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        let m = &self.metrics;
        let p = &self.params;
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        out.push_str("<dreamsim-report>\n");
        out.push_str("  <parameters>\n");
        elem(&mut out, 4, "total-nodes", p.total_nodes);
        elem(&mut out, 4, "total-configs", p.total_configs);
        elem(&mut out, 4, "total-tasks", p.total_tasks);
        elem(
            &mut out,
            4,
            "next-task-max-interval",
            p.next_task_max_interval,
        );
        elem(
            &mut out,
            4,
            "config-area",
            format_args!("[{}..{}]", p.config_area.lo, p.config_area.hi),
        );
        elem(
            &mut out,
            4,
            "node-area",
            format_args!("[{}..{}]", p.node_area.lo, p.node_area.hi),
        );
        elem(
            &mut out,
            4,
            "task-time",
            format_args!("[{}..{}]", p.task_time.lo, p.task_time.hi),
        );
        elem(
            &mut out,
            4,
            "config-time",
            format_args!("[{}..{}]", p.config_time.lo, p.config_time.hi),
        );
        elem(
            &mut out,
            4,
            "closest-match-fraction",
            p.closest_match_fraction,
        );
        elem(&mut out, 4, "reconfiguration-mode", p.mode);
        elem(&mut out, 4, "placement-model", p.placement.label());
        elem(&mut out, 4, "seed", p.seed);
        out.push_str("  </parameters>\n");
        out.push_str("  <metrics>\n");
        elem(
            &mut out,
            4,
            "total-tasks-generated",
            m.total_tasks_generated,
        );
        elem(
            &mut out,
            4,
            "total-tasks-completed",
            m.total_tasks_completed,
        );
        elem(
            &mut out,
            4,
            "total-discarded-tasks",
            m.total_discarded_tasks,
        );
        elem(
            &mut out,
            4,
            "avg-wasted-area-per-task",
            m.avg_wasted_area_per_task,
        );
        elem(
            &mut out,
            4,
            "wasted-area-snapshot-end",
            m.wasted_area_snapshot_end,
        );
        elem(
            &mut out,
            4,
            "avg-running-time-per-task",
            m.avg_running_time_per_task,
        );
        elem(
            &mut out,
            4,
            "avg-reconfiguration-count-per-node",
            m.avg_reconfig_count_per_node,
        );
        elem(
            &mut out,
            4,
            "avg-config-time-per-task",
            m.avg_config_time_per_task,
        );
        elem(
            &mut out,
            4,
            "avg-waiting-time-per-task",
            m.avg_waiting_time_per_task,
        );
        elem(&mut out, 4, "waiting-time-p50", m.wait_p50);
        elem(&mut out, 4, "waiting-time-p95", m.wait_p95);
        elem(&mut out, 4, "waiting-time-p99", m.wait_p99);
        elem(&mut out, 4, "waiting-time-max", m.wait_max);
        elem(
            &mut out,
            4,
            "avg-scheduling-steps-per-task",
            m.avg_scheduling_steps_per_task,
        );
        elem(
            &mut out,
            4,
            "total-scheduler-workload",
            m.total_scheduler_workload,
        );
        elem(&mut out, 4, "total-used-nodes", m.total_used_nodes);
        elem(
            &mut out,
            4,
            "total-simulation-time",
            m.total_simulation_time,
        );
        elem(&mut out, 4, "total-suspensions", m.total_suspensions);
        elem(&mut out, 4, "suspension-peak-length", m.suspension_peak_len);
        elem(&mut out, 4, "mean-fragmentation", m.mean_fragmentation_end);
        out.push_str("    <placements>\n");
        elem(&mut out, 6, "allocation", m.phases.allocation);
        elem(&mut out, 6, "configuration", m.phases.configuration);
        elem(
            &mut out,
            6,
            "partial-configuration",
            m.phases.partial_configuration,
        );
        elem(
            &mut out,
            6,
            "partial-reconfiguration",
            m.phases.partial_reconfiguration,
        );
        elem(&mut out, 6, "resumed-from-suspension", m.phases.resumed);
        out.push_str("    </placements>\n");
        // Fault-injection block. Emitted only when some fault counter is
        // nonzero, so fault-free reports stay byte-identical to releases
        // that predate the fault model.
        let any_faults = m.node_failures != 0
            || m.failure_killed != 0
            || m.reconfig_failures != 0
            || m.reconfig_retries != 0
            || m.task_failures != 0
            || m.resubmissions != 0
            || m.tasks_lost != 0
            || m.node_downtime != 0;
        if any_faults {
            out.push_str("    <faults>\n");
            elem(&mut out, 6, "node-failures", m.node_failures);
            elem(&mut out, 6, "failure-killed-tasks", m.failure_killed);
            elem(&mut out, 6, "reconfiguration-failures", m.reconfig_failures);
            elem(&mut out, 6, "reconfiguration-retries", m.reconfig_retries);
            elem(&mut out, 6, "task-failures", m.task_failures);
            elem(&mut out, 6, "resubmissions", m.resubmissions);
            elem(&mut out, 6, "tasks-lost", m.tasks_lost);
            elem(&mut out, 6, "node-downtime", m.node_downtime);
            out.push_str("    </faults>\n");
        }
        // Chaos-layer block, gated exactly like <faults>: emitted only
        // when some chaos counter is nonzero, so domain-free runs stay
        // byte-identical to releases that predate the chaos layer.
        let any_chaos = m.domain_outages != 0
            || m.domain_restores != 0
            || m.tasks_shed != 0
            || m.tasks_degraded != 0
            || m.domain_downtime.iter().any(|&d| d != 0);
        if any_chaos {
            out.push_str("    <chaos>\n");
            elem(&mut out, 6, "domain-outages", m.domain_outages);
            elem(&mut out, 6, "domain-restores", m.domain_restores);
            elem(&mut out, 6, "tasks-shed", m.tasks_shed);
            elem(&mut out, 6, "tasks-degraded", m.tasks_degraded);
            elem(&mut out, 6, "mean-time-to-recover", m.mean_time_to_recover);
            for (d, dt) in m.domain_downtime.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "      <domain-downtime domain=\"{d}\">{dt}</domain-downtime>"
                );
            }
            out.push_str("    </chaos>\n");
        }
        // Service-mode block, gated exactly like <faults>/<chaos>:
        // emitted only when the run rolled sliding windows, so batch-mode
        // reports stay byte-identical to releases that predate `serve`.
        let any_service =
            m.windows_closed != 0 || m.window_peak_arrivals != 0 || m.window_peak_completions != 0;
        if any_service {
            out.push_str("    <service>\n");
            elem(&mut out, 6, "windows-closed", m.windows_closed);
            elem(&mut out, 6, "window-peak-arrivals", m.window_peak_arrivals);
            elem(
                &mut out,
                6,
                "window-peak-completions",
                m.window_peak_completions,
            );
            out.push_str("    </service>\n");
        }
        out.push_str("  </metrics>\n");
        out.push_str("</dreamsim-report>\n");
        out
    }

    /// Header row matching [`Report::to_csv_row`].
    #[must_use]
    pub fn csv_header() -> &'static str {
        "mode,nodes,tasks,completed,discarded,avg_wasted_area,avg_running_time,\
         avg_reconfig_count,avg_config_time,avg_waiting_time,avg_sched_steps,\
         total_workload,used_nodes,sim_time,suspensions"
    }

    /// One flat CSV row of the headline metrics.
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        let m = &self.metrics;
        format!(
            "{},{},{},{},{},{:.3},{:.3},{:.3},{:.4},{:.3},{:.3},{},{},{},{}",
            m.mode,
            m.total_nodes,
            m.total_tasks_generated,
            m.total_tasks_completed,
            m.total_discarded_tasks,
            m.avg_wasted_area_per_task,
            m.avg_running_time_per_task,
            m.avg_reconfig_count_per_node,
            m.avg_config_time_per_task,
            m.avg_waiting_time_per_task,
            m.avg_scheduling_steps_per_task,
            m.total_scheduler_workload,
            m.total_used_nodes,
            m.total_simulation_time,
            m.total_suspensions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ReconfigMode;
    use crate::stats::Stats;
    use dreamsim_model::StepCounter;

    fn report() -> Report {
        let params = SimParams::paper(100, 1000, ReconfigMode::Partial);
        let metrics = Stats::default().finalize(
            &params,
            StepCounter {
                scheduling: 10,
                housekeeping: 5,
            },
            999,
            0,
            0,
            0,
            0,
            0,
            0.0,
            0,
        );
        Report::new(params, metrics)
    }

    #[test]
    fn xml_is_well_formed_enough_to_round_trip_tags() {
        let xml = report().to_xml();
        assert!(xml.starts_with("<?xml"));
        // Every opened tag is closed.
        for tag in [
            "dreamsim-report",
            "parameters",
            "metrics",
            "placements",
            "total-scheduler-workload",
            "reconfiguration-mode",
        ] {
            let opens = xml.matches(&format!("<{tag}>")).count();
            let closes = xml.matches(&format!("</{tag}>")).count();
            assert_eq!(opens, closes, "tag {tag}");
            assert!(opens >= 1, "tag {tag} present");
        }
        assert!(xml.contains("<total-scheduler-workload>15</total-scheduler-workload>"));
        assert!(xml.contains("<reconfiguration-mode>partial</reconfiguration-mode>"));
    }

    #[test]
    fn xml_fault_block_only_present_when_counters_nonzero() {
        let clean = report();
        assert!(!clean.to_xml().contains("<faults>"));
        let mut faulty = report();
        faulty.metrics.node_failures = 3;
        faulty.metrics.tasks_lost = 2;
        faulty.metrics.node_downtime = 450;
        let xml = faulty.to_xml();
        assert!(xml.contains("<faults>"));
        assert!(xml.contains("<node-failures>3</node-failures>"));
        assert!(xml.contains("<tasks-lost>2</tasks-lost>"));
        assert!(xml.contains("<node-downtime>450</node-downtime>"));
        assert_eq!(xml.matches("</faults>").count(), 1);
    }

    #[test]
    fn xml_chaos_block_only_present_when_counters_nonzero() {
        let clean = report();
        assert!(!clean.to_xml().contains("<chaos>"));
        let mut chaotic = report();
        chaotic.metrics.domain_outages = 2;
        chaotic.metrics.domain_restores = 2;
        chaotic.metrics.tasks_shed = 5;
        chaotic.metrics.tasks_degraded = 1;
        chaotic.metrics.domain_downtime = vec![0, 340];
        chaotic.metrics.mean_time_to_recover = 170.0;
        let xml = chaotic.to_xml();
        assert!(xml.contains("<chaos>"));
        assert!(xml.contains("<domain-outages>2</domain-outages>"));
        assert!(xml.contains("<tasks-shed>5</tasks-shed>"));
        assert!(xml.contains("<tasks-degraded>1</tasks-degraded>"));
        assert!(xml.contains("<domain-downtime domain=\"0\">0</domain-downtime>"));
        assert!(xml.contains("<domain-downtime domain=\"1\">340</domain-downtime>"));
        assert_eq!(xml.matches("</chaos>").count(), 1);
    }

    #[test]
    fn xml_service_block_only_present_when_counters_nonzero() {
        let clean = report();
        assert!(!clean.to_xml().contains("<service>"));
        let mut served = report();
        served.metrics.windows_closed = 12;
        served.metrics.window_peak_arrivals = 40;
        served.metrics.window_peak_completions = 33;
        let xml = served.to_xml();
        assert!(xml.contains("<service>"));
        assert!(xml.contains("<windows-closed>12</windows-closed>"));
        assert!(xml.contains("<window-peak-arrivals>40</window-peak-arrivals>"));
        assert!(xml.contains("<window-peak-completions>33</window-peak-completions>"));
        assert_eq!(xml.matches("</service>").count(), 1);
    }

    #[test]
    fn xml_escaping() {
        assert_eq!(xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
        assert_eq!(xml_escape("plain"), "plain");
    }

    #[test]
    fn json_round_trips() {
        let r = report();
        let back: Report = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn csv_row_has_header_arity() {
        let r = report();
        let header_cols = Report::csv_header().split(',').count();
        let row_cols = r.to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert!(r.to_csv_row().starts_with("partial,100,"));
    }
}
