//! Figure 6: achieved bandwidth vs concurrent cores per source, on the
//! hard-wired 4×V100 and the switch-based 8×A100 (including the
//! NVSwitch egress-collision series).

use super::header;
use crate::scenario::Scenario;
use gpu_memsim::{microbench, CongestionModel};
use gpu_platform::{Location, Platform};
use serde::Serialize;

/// Number of Server A series at the head of the result (the remainder
/// belong to Server C).
pub const SERVER_A_SERIES: usize = 3;

/// One bandwidth series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Label ("CPU", "Local", "Remote", "Remote (contended)").
    pub label: String,
    /// `(cores, GB/s)` points.
    pub points: Vec<(usize, f64)>,
}

fn print_series(series: &[Series]) {
    print!("{:>6}", "cores");
    for s in series {
        print!(" {:>20}", s.label);
    }
    println!();
    for (i, &(c, _)) in series[0].points.iter().enumerate() {
        print!("{c:>6}");
        for s in series {
            print!(" {:>20.1}", s.points[i].1 / 1e9);
        }
        println!();
    }
}

/// Computes all Figure 6 series (no printing): Server A first
/// ([`SERVER_A_SERIES`] entries), then Server C.
pub fn compute(_s: &Scenario) -> Vec<Series> {
    let model = CongestionModel::default();
    let mut out = Vec::new();

    let a = Platform::server_a();
    let cores_a: Vec<usize> = [1, 2, 4, 8, 12, 16, 20, 27, 40, 60, 80].to_vec();
    let mk = |plat: &Platform,
              label: &str,
              src,
              interf: &[(usize, Location, usize)],
              cores: &[usize]| {
        Series {
            label: label.to_string(),
            points: cores
                .iter()
                .map(|&c| {
                    (
                        c,
                        microbench::bandwidth_with_cores(plat, 0, src, c, interf, model),
                    )
                })
                .collect(),
        }
    };
    out.push(mk(&a, "CPU", Location::Host, &[], &cores_a));
    out.push(mk(&a, "Local", Location::Gpu(0), &[], &cores_a));
    out.push(mk(&a, "Remote", Location::Gpu(1), &[], &cores_a));

    let c = Platform::server_c();
    let cores_c: Vec<usize> = [1, 2, 4, 8, 13, 20, 32, 50, 70, 90, 108].to_vec();
    let contended: Vec<(usize, Location, usize)> = vec![(3, Location::Gpu(4), 60)];
    out.push(mk(&c, "CPU", Location::Host, &[], &cores_c));
    out.push(mk(&c, "Local", Location::Gpu(0), &[], &cores_c));
    out.push(mk(&c, "Remote", Location::Gpu(4), &[], &cores_c));
    out.push(Series {
        label: "Remote (G3 collides)".to_string(),
        points: cores_c
            .iter()
            .map(|&n| {
                (
                    n,
                    microbench::bandwidth_with_cores(&c, 2, Location::Gpu(4), n, &contended, model),
                )
            })
            .collect(),
    });
    out
}

/// Prints Figure 6 from precomputed series.
pub fn render(series: &[Series]) {
    header("Figure 6a: bandwidth vs cores (Server A, 4×V100, hard-wired)");
    print_series(&series[..SERVER_A_SERIES]);
    header("Figure 6b: bandwidth vs cores (Server C, 8×A100, NVSwitch)");
    print_series(&series[SERVER_A_SERIES..]);
}
