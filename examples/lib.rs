//! Shared helpers for the runnable examples.
//!
//! Each example is a small, self-contained binary; the only thing they share is the
//! pretty-printing of query outcomes, which lives here.

use sectopk_core::{PlanDecision, QueryOutcome, ResolvedResult};

/// Render a resolved result list as a small table.
pub fn format_results(results: &[ResolvedResult]) -> String {
    let mut out = String::from("rank | object       | worst (lower bound) | best (upper bound)\n");
    out.push_str("-----+--------------+---------------------+-------------------\n");
    for (i, r) in results.iter().enumerate() {
        let name = match r.object {
            Some(id) => format!("{id}"),
            None => "(placeholder)".to_string(),
        };
        out.push_str(&format!("{:>4} | {:<12} | {:>19} | {:>18}\n", i + 1, name, r.worst, r.best));
    }
    out
}

/// Render the execution statistics of a query outcome.
pub fn format_stats(outcome: &QueryOutcome) -> String {
    let s = &outcome.stats;
    format!(
        "depths scanned: {} (halted: {}), time: {:.3}s ({:.3}s/depth), \
bandwidth: {:.3} MB over {} rounds, tracked list size: {}",
        s.depths_scanned,
        s.halted,
        s.total_seconds,
        s.seconds_per_depth(),
        s.channel.megabytes(),
        s.channel.rounds,
        s.final_tracked_len,
    )
}

/// Render the planner's decision for one query execution.
pub fn format_plan(plan: &PlanDecision) -> String {
    let chooser = if plan.auto { "planner chose" } else { "caller fixed" };
    let p = match plan.batching_parameter() {
        Some(p) => format!(" (p = {p})"),
        None => String::new(),
    };
    format!(
        "{chooser} {}{p} for n = {}, m = {}, k = {} (estimated {} depths)",
        plan.variant_name(),
        plan.inputs.n,
        plan.inputs.m,
        plan.inputs.k,
        plan.estimated_depths,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectopk_core::ResolvedResult;
    use sectopk_storage::ObjectId;

    #[test]
    fn plan_formatting_names_the_variant() {
        use sectopk_core::{plan, PlannerInputs};
        let decision = plan(&PlannerInputs::new(5, 3, 2, 0.0));
        let text = format_plan(&decision);
        assert!(text.contains("planner chose"));
        assert!(text.contains("Qry_F"));
    }

    #[test]
    fn formatting_includes_objects_and_placeholders() {
        let rows = vec![
            ResolvedResult { object: Some(ObjectId(3)), worst: 18, best: 18 },
            ResolvedResult { object: None, worst: -1, best: -1 },
        ];
        let table = format_results(&rows);
        assert!(table.contains("o3"));
        assert!(table.contains("(placeholder)"));
        assert!(table.contains("18"));
    }
}
