use crate::{components, mis, pagerank, pagerank_delta, radii, TracePlan};
use popt_graph::{Direction, Graph};
use popt_trace::TraceSink;

/// The five applications of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum App {
    /// PageRank (GAP): pull-only, dense.
    Pagerank,
    /// Connected Components (GAP, Shiloach-Vishkin): push-only, dense.
    Components,
    /// PageRank-delta (Ligra): pull-mostly, frontier.
    PagerankDelta,
    /// Radii estimation (Ligra): pull-mostly, frontier.
    Radii,
    /// Maximal Independent Set (Ligra): pull-mostly, frontier.
    Mis,
}

impl App {
    /// All applications in the paper's presentation order.
    pub const ALL: [App; 5] = [
        App::Pagerank,
        App::Components,
        App::PagerankDelta,
        App::Radii,
        App::Mis,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            App::Pagerank => "pr",
            App::Components => "cc",
            App::PagerankDelta => "pr-delta",
            App::Radii => "radii",
            App::Mis => "mis",
        }
    }

    /// Traversal direction of the traced iteration; determines which CSR is
    /// the transpose for next-reference purposes (Table II's "Transpose"
    /// row).
    pub fn direction(&self) -> Direction {
        match self {
            App::Components => Direction::Push,
            _ => Direction::Pull,
        }
    }

    /// Whether the application uses a frontier bit-vector (Table II).
    pub fn uses_frontier(&self) -> bool {
        matches!(self, App::PagerankDelta | App::Radii | App::Mis)
    }

    /// Irregular element size in bytes (Table II's "irregData ElemSz").
    pub fn irreg_elem_bytes(&self) -> u64 {
        match self {
            App::Pagerank | App::Components | App::Mis => 4,
            App::PagerankDelta | App::Radii => 8,
        }
    }

    /// Builds the simulated memory layout for a traced run.
    pub fn plan(&self, g: &Graph) -> TracePlan {
        match self {
            App::Pagerank => pagerank::plan(g),
            App::Components => components::plan(g),
            App::PagerankDelta => pagerank_delta::plan(g),
            App::Radii => radii::plan(g),
            App::Mis => mis::plan(g),
        }
    }

    /// Emits the application's sampled-iteration access stream.
    pub fn trace<S: TraceSink>(&self, g: &Graph, plan: &TracePlan, sink: S) {
        match self {
            App::Pagerank => pagerank::trace(g, plan, sink),
            App::Components => components::trace(g, plan, sink),
            App::PagerankDelta => pagerank_delta::trace(g, plan, sink),
            App::Radii => radii::trace(g, plan, sink),
            App::Mis => mis::trace(g, plan, sink),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::generators;
    use popt_trace::CountingSink;

    #[test]
    fn table2_rows_match_the_paper() {
        assert_eq!(App::Pagerank.direction(), Direction::Pull);
        assert_eq!(App::Components.direction(), Direction::Push);
        assert!(!App::Pagerank.uses_frontier());
        assert!(!App::Components.uses_frontier());
        assert!(App::PagerankDelta.uses_frontier());
        assert!(App::Radii.uses_frontier());
        assert!(App::Mis.uses_frontier());
        assert_eq!(App::Pagerank.irreg_elem_bytes(), 4);
        assert_eq!(App::PagerankDelta.irreg_elem_bytes(), 8);
        assert_eq!(App::Radii.irreg_elem_bytes(), 8);
        assert_eq!(App::Mis.irreg_elem_bytes(), 4);
    }

    #[test]
    fn every_app_plans_and_traces() {
        let g = generators::uniform_random(128, 700, 6);
        for app in App::ALL {
            let plan = app.plan(&g);
            let expected_irregs = if app.uses_frontier() { 2 } else { 1 };
            assert_eq!(plan.irregs.len(), expected_irregs, "{app}");
            let mut sink = CountingSink::new();
            app.trace(&g, &plan, &mut sink);
            assert!(sink.reads > 0, "{app} produced no reads");
            assert!(
                sink.vertex_updates > 0,
                "{app} emitted no currVertex updates"
            );
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let g = generators::uniform_random(64, 300, 2);
        for app in App::ALL {
            let plan = app.plan(&g);
            let mut a = popt_trace::RecordingSink::new();
            let mut b = popt_trace::RecordingSink::new();
            app.trace(&g, &plan, &mut a);
            app.trace(&g, &plan, &mut b);
            assert_eq!(a.events(), b.events(), "{app}");
        }
    }
}
