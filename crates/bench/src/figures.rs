//! One module per table/figure of the paper's evaluation, and the one
//! table that declares them as `repro` targets.
//!
//! Every module is split into a pure computation layer and a rendering
//! layer:
//!
//! * `compute(&Scenario)` returns the figure's structured,
//!   serde-serializable result with no printing — this is the canonical
//!   API for shape tests, JSON artifacts, and the parallel runner;
//! * `render(..)` writes the paper-style rows of a precomputed result
//!   into a `String`; `repro` prints it.
//!
//! Shape tests assert on the structured results (who wins, by roughly
//! what factor, where crossovers fall) — never on the rendered text.
//!
//! The `targets!` table at the bottom is the only place a target is
//! declared: [`TARGETS`], [`canonical`], [`Unit`], [`TargetData`] (with
//! its untagged serialization) and [`render`] are all generated from
//! it, so adding a figure is one module plus one row.

use crate::scenario::Scenario;
use serde::{Serialize, Serializer};

pub mod fig02;
pub mod fig04;
pub mod fig06;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig16;
pub mod fig17;
pub mod hotness_sources;
pub mod serve;
pub mod table1;
pub mod table3;

/// Writes a section header.
fn header(out: &mut String, title: &str) -> std::fmt::Result {
    use std::fmt::Write as _;
    writeln!(out, "\n=== {title} ===")
}

/// Formats seconds as milliseconds with 3 decimals.
fn ms(secs: f64) -> String {
    format!("{:.3}", secs * 1e3)
}

/// Declares the repro targets. One row per unit of computation:
///
/// ```text
/// /// doc
/// Variant(PayloadType) = compute_fn {
///     "name" | "cli-alias" => |out, scenario, payload| render,
///     "second-name-sharing-the-computation" => |out, scenario, payload| render,
/// }
/// ```
///
/// Every `"name"` is a target with its own rendering and artifact file;
/// names in one row share the row's computation. A `| "cli-alias"` is
/// accepted on the command line and resolves to the name it follows.
macro_rules! targets {
    ($(
        $(#[$doc:meta])*
        $unit:ident($payload:ty) = $compute:path {
            $( $name:literal $(| $alias:literal)* => $render:expr ),+ $(,)?
        }
    )+) => {
        /// Every target the `repro` CLI accepts (aliases included), in
        /// canonical execution order.
        pub const TARGETS: &[&str] = &[$($( $name, $($alias,)* )+)+];

        /// The name `target` runs and is written under: itself, or the
        /// name it aliases (`fig15` → `fig14`). `None` for unknown names.
        pub fn canonical(target: &str) -> Option<&'static str> {
            match target {
                $($( $name $(| $alias)* => Some($name), )+)+
                _ => None,
            }
        }

        /// One unit of computation (a deduplicated repro target).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Unit {
            $( $(#[$doc])* $unit, )+
        }

        impl Unit {
            /// The unit backing a CLI target name or alias; `None` for
            /// unknown names.
            pub fn for_target(target: &str) -> Option<Unit> {
                match target {
                    $($( $name $(| $alias)* => Some(Unit::$unit), )+)+
                    _ => None,
                }
            }

            /// The target names this unit computes for.
            pub const fn names(self) -> &'static [&'static str] {
                match self {
                    $( Unit::$unit => &[$($name),+], )+
                }
            }

            /// Runs this unit's pure computation.
            pub fn compute(self, s: &Scenario) -> TargetData {
                match self {
                    $( Unit::$unit => TargetData::$unit($compute(s)), )+
                }
            }
        }

        /// The computed result of one repro unit, ready for rendering or
        /// serialization.
        #[derive(Debug, Clone)]
        pub enum TargetData {
            $( $(#[$doc])* $unit($payload), )+
        }

        // Untagged: the artifact envelope's `target` field already names
        // the variant, so the payload serializes as the inner value
        // directly. (The derive shim only handles named-field structs.)
        impl Serialize for TargetData {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                match self {
                    $( TargetData::$unit(v) => v.serialize(serializer), )+
                }
            }
        }

        /// `data` as text, the way the (canonical) `target` shows it.
        ///
        /// # Panics
        ///
        /// Panics when `data` is not the payload of `target`'s unit.
        pub fn render(target: &str, s: &Scenario, data: &TargetData) -> String {
            let mut out = String::new();
            let written = match (target, data) {
                $($( ($name, TargetData::$unit(v)) => {
                    let render: fn(&mut String, &Scenario, &$payload) -> std::fmt::Result =
                        $render;
                    render(&mut out, s, v)
                } )+)+
                (t, _) => unreachable!("target `{t}` paired with wrong data variant"),
            };
            written.expect("a String takes any text");
            out
        }
    };
}

targets! {
    /// Table 1 breakdown.
    Table1(table1::Breakdown) = table1::compute {
        "table1" => |out, _, v| table1::render(out, v),
    }
    /// Table 3 rows.
    Table3(Vec<table3::Row>) = table3::compute {
        "table3" => |out, s, v| table3::render(out, s, v),
    }
    /// Figure 2 points.
    Fig2(Vec<fig02::Point>) = fig02::compute {
        "fig2" => |out, _, v| fig02::render(out, v),
    }
    /// Figure 4 bar groups.
    Fig4(Vec<fig04::Bars>) = fig04::compute {
        "fig4" => |out, _, v| fig04::render(out, v),
    }
    /// Figure 6 series.
    Fig6(Vec<fig06::Series>) = fig06::compute {
        "fig6" => |out, _, v| fig06::render(out, v),
    }
    /// Figure 8 dedication sweep.
    Fig8(Vec<fig08::Dedication>) = fig08::compute {
        "fig8" => |out, _, v| fig08::render(out, v),
    }
    /// Figure 9 block-count study.
    Fig9(fig09::Fig09Data) = fig09::compute {
        "fig9" => |out, _, v| fig09::render(out, v),
    }
    /// Figures 10 and 11 (one computation serves both; each artifact
    /// carries the combined payload).
    Fig10And11(fig10::Data) = fig10::compute {
        "fig10" => |out, _, v| fig10::render_fig10(out, v),
        "fig11" => |out, _, v| fig10::render_fig11(out, v),
    }
    /// Figure 12 points.
    Fig12(Vec<fig12::Point>) = fig12::compute {
        "fig12" => |out, _, v| fig12::render(out, v),
    }
    /// Figure 13 utilizations.
    Fig13(Vec<fig13::Util>) = fig13::compute {
        "fig13" => |out, _, v| fig13::render(out, v),
    }
    /// Figures 14/15 access splits (one combined module).
    Fig14(Vec<fig14::Split>) = fig14::compute {
        "fig14" | "fig15" => |out, _, v| fig14::render(out, v),
    }
    /// Figure 16 gaps.
    Fig16(Vec<fig16::Gap>) = fig16::compute {
        "fig16" => |out, _, v| fig16::render(out, v),
    }
    /// Figure 17 refresh timeline.
    Fig17(fig17::Fig17Data) = fig17::compute {
        "fig17" => |out, _, v| fig17::render(out, v),
    }
    /// Hotness-source study rows.
    Hotness(Vec<hotness_sources::SourceRow>) = hotness_sources::compute {
        "hotness" => |out, _, v| hotness_sources::render(out, v),
    }
    /// Online serving sweep (throughput / latency tails).
    Serve(serve::ServeData) = serve::compute {
        "serve" => |out, _, v| serve::render(out, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_formats() {
        assert_eq!(ms(0.001234), "1.234");
    }

    #[test]
    fn every_name_and_alias_resolves_to_its_rows_unit() {
        for name in TARGETS {
            let canon = canonical(name).expect("listed names resolve");
            assert_eq!(
                canonical(canon),
                Some(canon),
                "{name}: resolution is idempotent"
            );
            let unit = Unit::for_target(name).expect("listed names have a unit");
            assert_eq!(Unit::for_target(canon), Some(unit));
            assert!(unit.names().contains(&canon), "{name} → {canon} ∉ {unit:?}");
        }
        assert_eq!(canonical("fig15"), Some("fig14"));
        assert_eq!(
            canonical("fig11"),
            Some("fig11"),
            "fig11 keeps its own artifact"
        );
        assert_eq!(Unit::for_target("fig11"), Some(Unit::Fig10And11));
        assert_eq!(canonical("fig3"), None);
        assert_eq!(Unit::for_target("fig3"), None);
    }

    #[test]
    fn every_consumer_is_a_cli_target() {
        // Pin the registry's consumer metadata to the target table.
        for def in crate::scenario::registry().defs() {
            for c in &def.consumers {
                assert!(
                    TARGETS.contains(c),
                    "scenario `{}` lists unknown target `{c}`",
                    def.name
                );
            }
        }
    }
}
