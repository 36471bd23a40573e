//! Benchmark harness regenerating the ITSPQ paper's evaluation.
//!
//! Each figure of §III has a binary that reproduces its data series:
//!
//! | Paper artifact | Binary | What it sweeps |
//! |---|---|---|
//! | Figure 4 | `fig4` | search time vs `\|T\| ∈ {4,8,12,16}` at `t` = 12:00 and 8:00 |
//! | Figure 5 | `fig5` | search time vs `δs2t ∈ {1100…1900}` m |
//! | Figure 6 | `fig6` | search time vs `t ∈ {0:00, 2:00, …, 22:00}` |
//! | Figure 7 | `fig7` | memory cost (KB) vs `t` |
//! | Tables I–II | `exp_all` | prints the setup tables and runs every figure |
//! | (beyond the paper) | `throughput` | queries/sec vs worker threads on one shared venue |
//!
//! Binaries print aligned tables and write `results/figN.csv`. The Criterion
//! suite (`cargo bench`) covers the same sweeps plus ablations
//! (PaperPruned vs FullRelax, Asyn Faithful vs Exact, warm vs cold reduced
//! graphs, construction costs).

pub mod alloc_track;
pub mod concurrency;
pub mod figures;
pub mod params;
pub mod runner;

pub use alloc_track::TrackingAllocator;
pub use params::PaperParams;
pub use runner::{measure_query_set, Measurement, MethodKind, Workload};

/// The command line of a sweep binary that takes only `--quick`: whether it
/// was given. Any other argument prints a usage line and exits with status 2
/// before any work starts, so `--help` or a typo cannot run the full sweep
/// and overwrite a committed baseline.
#[must_use]
pub fn quick_flag() -> bool {
    args_or_exit("[--quick]", |args| {
        parse_quick(args).map_err(|arg| format!("unknown argument `{arg}`"))
    })
}

/// A binary's command line (program name excluded) parsed by `parse`. On
/// an error it prints the error and `usage: <bin> <usage>`, then exits with
/// status 2 before any work starts.
#[must_use]
pub fn args_or_exit<T>(usage: &str, parse: impl FnOnce(Vec<String>) -> Result<T, String>) -> T {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse(args.collect()).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {bin} {usage}");
        std::process::exit(2)
    })
}

/// Whether `args` (program name excluded) hold `--quick`; the first other
/// argument is the error.
fn parse_quick(args: impl IntoIterator<Item = String>) -> Result<bool, String> {
    let mut quick = false;
    for arg in args {
        if arg != "--quick" {
            return Err(arg);
        }
        quick = true;
    }
    Ok(quick)
}

#[cfg(test)]
mod tests {
    use super::parse_quick;

    fn parse(args: &[&str]) -> Result<bool, String> {
        parse_quick(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn only_quick_is_accepted() {
        assert_eq!(parse(&[]), Ok(false));
        assert_eq!(parse(&["--quick"]), Ok(true));
        assert_eq!(parse(&["--help"]), Err("--help".to_owned()));
        assert_eq!(parse(&["--quik"]), Err("--quik".to_owned()));
        assert_eq!(parse(&["--quick", "fig5"]), Err("fig5".to_owned()));
    }
}
