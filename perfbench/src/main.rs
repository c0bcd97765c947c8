//! `es2-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result as the last line
//! of stdout. `--workload all` runs every workload in this process, one
//! after another, and ends with one result whose metric names carry the
//! workload (`paper_mux/wall_s`). A traced run also writes the Chrome
//! trace of its spans to `$CARGO_TARGET_DIR/perfbench/`
//! (`target/perfbench/` by default).

use std::path::PathBuf;
use std::process::ExitCode;

use es2_perfbench::bench::{self, Args, Report};
use es2_perfbench::cells::{SimWindow, WORKLOADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match bench::parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", bench::USAGE);
            return ExitCode::from(2);
        }
    };
    let workloads = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports: Vec<(&str, Report)> = Vec::new();
    for w in workloads {
        let one = Args {
            workload: w.to_string(),
            ..args
        };
        let report = match bench::run(&one, SimWindow::STANDARD) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        print!("{}", report.text);
        if let Some(chrome) = &report.chrome {
            let dir =
                PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
                    .join("perfbench");
            let path = dir.join(format!("trace-{w}-{}.json", args.seed));
            if let Err(e) =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, chrome))
            {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!("chrome trace: {}", path.display());
        }
        reports.push((w, report));
    }
    if let [(_, report)] = reports.as_slice() {
        println!("{}", report.json());
    } else {
        println!("{}", bench::combined_json(&reports));
    }
    ExitCode::SUCCESS
}
