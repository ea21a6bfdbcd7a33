//! The fixpoint driver's audit trail: which rule fired, when, and what it
//! did to the estimated cost.

/// One rule firing recorded by
/// [`crate::Optimizer::optimize_traced`].
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// The firing rule's [`crate::optimizer::OptimizationRule::name`].
    pub rule: &'static str,
    /// 1-based fixpoint pass the firing happened in.
    pub pass: usize,
    /// Root-plan estimated rows before the rewrite (`None` without
    /// statistics).
    pub cost_before: Option<f64>,
    /// Root-plan estimated rows after the rewrite.
    pub cost_after: Option<f64>,
}

/// Ordered trace of an optimization run: every rule firing in driver
/// order, plus how the fixpoint ended.
#[derive(Debug, Clone, Default)]
pub struct OptimizeTrace {
    /// Rule firings, in the order the driver applied them.
    pub entries: Vec<TraceEntry>,
    /// Passes the driver ran (a final all-quiet pass counts).
    pub passes: usize,
    /// `true` when a pass completed with no rule firing — the plan is at
    /// a fixpoint. `false` means the [`crate::Optimizer::MAX_PASSES`]
    /// cap stopped a still-changing plan (only a misbehaving rule gets
    /// there).
    pub converged: bool,
}

impl OptimizeTrace {
    /// How many times the named rule fired — the per-rule fire counter.
    pub fn fires(&self, rule: &str) -> usize {
        self.entries.iter().filter(|e| e.rule == rule).count()
    }

    /// `(rule name, fire count)` pairs ordered by each rule's first
    /// firing.
    pub fn fire_counts(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for e in &self.entries {
            match out.iter_mut().find(|(name, _)| *name == e.rule) {
                Some((_, n)) => *n += 1,
                None => out.push((e.rule, 1)),
            }
        }
        out
    }

    /// Plain-text rendering, one firing per line, closed by the fixpoint
    /// summary — the format the `docs/OPTIMIZER.md` transcript test pins:
    ///
    /// ```text
    /// pass 1  predicate_pushdown  ~3 rows -> ~3 rows
    /// fixpoint after 2 passes (1 firing)
    /// ```
    pub fn render(&self) -> String {
        let fmt = |c: Option<f64>| match c {
            Some(v) => format!("~{v:.0} rows"),
            None => "?".to_string(),
        };
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "pass {}  {:<22}{} -> {}\n",
                e.pass,
                e.rule,
                fmt(e.cost_before),
                fmt(e.cost_after)
            ));
        }
        let firings = self.entries.len();
        let plural = if firings == 1 { "firing" } else { "firings" };
        if self.converged {
            out.push_str(&format!(
                "fixpoint after {} pass{} ({firings} {plural})\n",
                self.passes,
                if self.passes == 1 { "" } else { "es" },
            ));
        } else {
            out.push_str(&format!(
                "stopped at the {}-pass cap ({firings} {plural})\n",
                self.passes,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> OptimizeTrace {
        OptimizeTrace {
            entries: vec![
                TraceEntry {
                    rule: "a",
                    pass: 1,
                    cost_before: Some(10.0),
                    cost_after: Some(5.0),
                },
                TraceEntry {
                    rule: "b",
                    pass: 1,
                    cost_before: None,
                    cost_after: None,
                },
                TraceEntry {
                    rule: "a",
                    pass: 2,
                    cost_before: Some(5.0),
                    cost_after: Some(5.0),
                },
            ],
            passes: 3,
            converged: true,
        }
    }

    #[test]
    fn fire_counters() {
        let t = trace();
        assert_eq!(t.fires("a"), 2);
        assert_eq!(t.fires("b"), 1);
        assert_eq!(t.fires("missing"), 0);
        assert_eq!(t.fire_counts(), vec![("a", 2), ("b", 1)]);
    }

    #[test]
    fn render_shows_costs_and_fixpoint() {
        let s = trace().render();
        assert!(s.contains("pass 1  a"), "{s}");
        assert!(s.contains("~10 rows -> ~5 rows"), "{s}");
        assert!(s.contains("? -> ?"), "{s}");
        assert!(s.contains("fixpoint after 3 passes (3 firings)"), "{s}");
        let capped = OptimizeTrace {
            converged: false,
            ..trace()
        };
        assert!(capped.render().contains("stopped at the 3-pass cap"));
    }
}
