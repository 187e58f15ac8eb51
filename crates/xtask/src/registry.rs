//! The rule registry: the single authoritative list of lint rules.
//!
//! Everything that enumerates rules — the CLI usage text, the
//! `clean (N rules)` summary, the SARIF `tool.driver.rules` table —
//! derives from [`RULES`] so adding a rule cannot leave a stale count
//! or an unexported rule description behind.

/// One lint rule's identity and one-line summary.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable ordinal label (`L1`, `L2`, …).
    pub id: &'static str,
    /// Rule name as used in diagnostics and `// lint:` waivers.
    pub name: &'static str,
    /// One-line summary for usage text and SARIF rule metadata.
    pub summary: &'static str,
}

/// Every lint rule, in ordinal order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "L1",
        name: "crate-header",
        summary: "lib crate roots declare #![forbid(unsafe_code)] and #![warn(missing_docs)]",
    },
    Rule {
        id: "L2",
        name: "no-panic",
        summary: "no .unwrap()/.expect()/panic! in non-test code of model crates",
    },
    Rule {
        id: "L3",
        name: "raw-f64",
        summary: "no raw f64 parameters in pub fn signatures of model crates",
    },
    Rule {
        id: "L4",
        name: "float-cast",
        summary: "no as float-to-int casts outside tests",
    },
    Rule {
        id: "L5",
        name: "nonfinite",
        summary: "f64::INFINITY / f64::NAN literals sit within 3 lines of a finiteness guard",
    },
    Rule {
        id: "L6",
        name: "raw-timing",
        summary: "no direct Instant::now() outside crates/obs; use ia_obs::Stopwatch or spans",
    },
    Rule {
        id: "L7",
        name: "thread-registration",
        summary: "thread::spawn/scope in model crates registers workers with ia_obs",
    },
    Rule {
        id: "L8",
        name: "bounded-concurrency",
        summary: "no unbounded mpsc::channel() and no discarded JoinHandle in model crates",
    },
    Rule {
        id: "L9",
        name: "lock-discipline",
        summary: "no guard held across blocking work; no inconsistent pairwise lock order",
    },
    Rule {
        id: "L10",
        name: "deterministic-iteration",
        summary: "HashMap/HashSet iteration feeding serialize/canon/report paths is sorted first",
    },
    Rule {
        id: "L11",
        name: "crate-layering",
        summary:
            "crate dependencies follow the intended DAG (model below serve/dse/cli; obs a leaf)",
    },
    Rule {
        id: "L12",
        name: "no-raw-logging",
        summary: "no println!/eprintln!/dbg! outside the CLI and bench binaries; \
                  return or count the error, the CLI owns stdout/stderr",
    },
];

/// Findings the pass can emit that are not waivable source rules: the
/// stale-waiver audit and unreadable-file reports. They appear in the
/// SARIF rule table so every emitted `ruleId` resolves.
pub const META_RULES: &[Rule] = &[
    Rule {
        id: "W1",
        name: "stale-waiver",
        summary: "a // lint: waiver comment that no longer suppresses any finding",
    },
    Rule {
        id: "E1",
        name: "io",
        summary: "a workspace source file could not be read",
    },
];

/// Looks a rule up by its diagnostic name, meta rules included.
#[must_use]
pub fn find(name: &str) -> Option<&'static Rule> {
    RULES
        .iter()
        .chain(META_RULES.iter())
        .find(|r| r.name == name)
}

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
