//! Runs the complete evaluation of the paper: prints Tables I–II and
//! regenerates Figures 4–7, writing CSVs under `results/`.
//!
//! Usage:
//!   exp_all [--quick] [table1|table2|fig4|fig5|fig6|fig7]...
//!
//! With no selector, everything runs. `--quick` uses the reduced smoke grid.
//! An unknown flag or selector prints the usage line and exits with status
//! 2 before any work starts.

use std::path::Path;

use itspq_bench::{figures, PaperParams, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// The runs a selector can name.
const SELECTORS: [&str; 6] = ["table1", "table2", "fig4", "fig5", "fig6", "fig7"];

/// `--quick` and the named selectors, in order; the first other argument
/// is the error.
fn parse(args: Vec<String>) -> Result<(bool, Vec<String>), String> {
    let mut quick = false;
    let mut selectors = Vec::new();
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if SELECTORS.contains(&arg.as_str()) {
            selectors.push(arg);
        } else {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    Ok((quick, selectors))
}

fn main() {
    let (quick, selectors) =
        itspq_bench::args_or_exit("[--quick] [table1|table2|fig4|fig5|fig6|fig7]...", parse);
    let all = selectors.is_empty();
    let wants = |k: &str| all || selectors.iter().any(|s| s == k);

    let params = if quick {
        PaperParams::smoke()
    } else {
        PaperParams::default()
    };
    let results = Path::new("results");

    if wants("table1") {
        println!("{}", figures::table1());
    }
    if wants("table2") {
        println!("{}\n", params.table2());
    }
    // Figures 6 and 7 plot the same sweep, so it runs once for both.
    let time_sweep = (wants("fig6") || wants("fig7")).then(|| figures::time_sweep(&params));
    let from_sweep = |key| time_sweep.as_ref().filter(|_| wants(key)).cloned();
    for (key, fig) in [
        ("fig4", wants("fig4").then(|| figures::fig4(&params))),
        ("fig5", wants("fig5").then(|| figures::fig5(&params))),
        ("fig6", from_sweep("fig6").map(figures::fig6)),
        ("fig7", from_sweep("fig7").map(figures::fig7)),
    ] {
        if let Some(fig) = fig {
            println!("{}", fig.table());
            match fig.write_csv(results) {
                Ok(path) => println!("wrote {}\n", path.display()),
                Err(e) => eprintln!("could not write {key}.csv: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse;

    fn parse_strs(args: &[&str]) -> Result<(bool, Vec<String>), String> {
        parse(args.iter().map(|a| (*a).to_owned()).collect())
    }

    #[test]
    fn accepts_quick_and_known_selectors_only() {
        assert_eq!(parse_strs(&[]), Ok((false, Vec::new())));
        assert_eq!(
            parse_strs(&["fig5", "--quick", "table1"]),
            Ok((true, vec!["fig5".to_owned(), "table1".to_owned()]))
        );
        assert_eq!(
            parse_strs(&["--quik"]),
            Err("unknown argument `--quik`".to_owned())
        );
        assert_eq!(
            parse_strs(&["--quick", "fig8"]),
            Err("unknown argument `fig8`".to_owned())
        );
        assert_eq!(
            parse_strs(&["--help"]),
            Err("unknown argument `--help`".to_owned())
        );
    }
}
