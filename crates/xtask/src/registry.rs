//! The rule registry: the single authoritative list of lint rules.
//!
//! Everything that enumerates rules — the CLI usage text and the
//! `clean (N rules)` summary — derives from [`RULES`] so adding a
//! rule cannot leave a stale count behind.

/// One lint rule's identity; `docs/linting.md` describes each rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable ordinal label (`L1`, `L2`, …).
    pub id: &'static str,
    /// Rule name as used in diagnostics and `// lint:` waivers.
    pub name: &'static str,
}

/// Every lint rule, in ordinal order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "L1",
        name: "crate-header",
    },
    Rule {
        id: "L2",
        name: "no-panic",
    },
    Rule {
        id: "L3",
        name: "raw-f64",
    },
    Rule {
        id: "L4",
        name: "float-cast",
    },
    Rule {
        id: "L5",
        name: "nonfinite",
    },
    Rule {
        id: "L6",
        name: "raw-timing",
    },
    Rule {
        id: "L7",
        name: "thread-registration",
    },
    Rule {
        id: "L8",
        name: "bounded-concurrency",
    },
    Rule {
        id: "L9",
        name: "lock-discipline",
    },
    Rule {
        id: "L10",
        name: "deterministic-iteration",
    },
    Rule {
        id: "L11",
        name: "crate-layering",
    },
    Rule {
        id: "L12",
        name: "no-raw-logging",
    },
];

/// The `L1 name, L2 name, …` list for the CLI usage text.
#[must_use]
pub fn usage_list() -> String {
    let mut out = String::new();
    for (i, rule) in RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(if i % 3 == 0 { ",\n         " } else { ", " });
        }
        out.push_str(rule.id);
        out.push(' ');
        out.push_str(rule.name);
    }
    out
}
