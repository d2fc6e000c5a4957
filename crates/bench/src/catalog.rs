//! The generated scenario catalog (`SCENARIOS.md`).
//!
//! `repro scenarios --md` renders the builtin registry to markdown and
//! `repro scenarios --check` compares the committed file against a
//! fresh render, failing (exit 1) on drift — the catalog can never go
//! stale. The rendering is pure string building (byte-deterministic),
//! so the check is an exact comparison, not a fuzzy one.

use crate::scenario::{Registry, ScenarioDef};

/// Renders the registry's catalog as the exact content of
/// `SCENARIOS.md`.
pub fn render_markdown(registry: &Registry) -> String {
    let mut out = String::new();
    out.push_str("# Scenario catalog\n\n");
    out.push_str(
        "<!-- GENERATED FILE — do not edit by hand. Regenerate with\n     \
         `cargo run --release -p ugache-bench --bin repro -- scenarios --md`\n     \
         (CI gates drift via `repro scenarios --check`). -->\n\n",
    );
    out.push_str(
        "Every workload × platform point the harness measures, as registered\n\
         in `ugache_bench::scenario::registry()`. Names follow\n\
         `<family>/<dataset>[/<model>]@<platform>` (see EXPERIMENTS.md,\n\
         \"Scenario registry and access traces\"). Any scenario below can be\n\
         recorded to an access trace (`repro record <name> --out TRACE`) and\n\
         replayed under any policy (`repro replay TRACE --policy <p>`).\n\n",
    );
    out.push_str("| Scenario | Workload | Platform | Consumed by |\n");
    out.push_str("|---|---|---|---|\n");
    for def in registry.defs() {
        out.push_str(&catalog_row(def));
    }
    out.push_str(
        "\nNotes:\n\n\
         * `table3` (dataset statistics), `fig6` and `fig8` (platform\n  \
         microbenchmarks) consume no scenario: they measure datasets and\n  \
         platforms directly, so they do not appear in the table.\n\
         * `fig16` measures PA at every GNN scale but adds the CF/MAG rows\n  \
         only at `--gnn-scale <= 1024`; their `fig16` listing applies to\n  \
         full-scale runs.\n",
    );
    out
}

/// One `| ... |` table row for a scenario.
fn catalog_row(def: &ScenarioDef) -> String {
    format!(
        "| `{}` | {} | `{}` | {} |\n",
        def.name,
        def.workload.label(),
        def.platform.name(),
        def.consumers.join(" ")
    )
}

/// Compares the committed catalog text against a fresh render.
///
/// Returns `Ok(())` on an exact match and a drift description
/// otherwise (the caller exits 1).
///
/// # Errors
///
/// Returns the first differing line (or a length mismatch note) when
/// the texts differ.
pub fn check(registry: &Registry, committed: &str) -> Result<(), String> {
    check_generated(
        "SCENARIOS.md",
        "registry",
        "repro scenarios --md",
        &render_markdown(registry),
        committed,
    )
}

/// The drift check behind both generated catalogs (`SCENARIOS.md`,
/// `METRICS.md`): `committed` must equal the `fresh` render of `source`
/// exactly.
///
/// # Errors
///
/// Returns the first differing line (or a length mismatch note) and the
/// `regenerate` command when the texts differ.
pub(crate) fn check_generated(
    file: &str,
    source: &str,
    regenerate: &str,
    fresh: &str,
    committed: &str,
) -> Result<(), String> {
    if committed == fresh {
        return Ok(());
    }
    for (i, (a, b)) in fresh.lines().zip(committed.lines()).enumerate() {
        if a != b {
            return Err(format!(
                "{file} drifted from the {source} at line {}:\n  {:<11}{a}\n  committed: {b}\n\
                 regenerate with `{regenerate}`",
                i + 1,
                format!("{source}:")
            ));
        }
    }
    Err(format!(
        "{file} drifted from the {source}: {} committed line(s) vs {} generated; \
         regenerate with `{regenerate}`",
        committed.lines().count(),
        fresh.lines().count()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::registry;

    #[test]
    fn catalog_lists_every_scenario_once() {
        let md = render_markdown(registry());
        for def in registry().defs() {
            assert_eq!(
                md.matches(&format!("| `{}` |", def.name)).count(),
                1,
                "{} appears exactly once",
                def.name
            );
        }
        assert!(md.contains("GENERATED FILE"));
    }

    #[test]
    fn check_accepts_fresh_and_rejects_drift() {
        let fresh = render_markdown(registry());
        assert!(check(registry(), &fresh).is_ok());
        let drifted = fresh.replace("server_c", "server_x");
        let err = check(registry(), &drifted).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
        let truncated: String = fresh.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(check(registry(), &truncated).is_err());
    }
}
