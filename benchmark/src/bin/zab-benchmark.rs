//! End-to-end run of one workload: the nine end-to-end metrics, measured
//! with no benchmark code between the generator and the replicas.

use std::process::ExitCode;
use zab_benchmark::cli::{self, Measured};
use zab_benchmark::report;
use zab_benchmark::workload;

fn main() -> ExitCode {
    let args = match cli::args_for(false) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zab-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let data_dir = cli::data_dir();
    print!("{}", cli::stamp(&args, &data_dir));
    let ran = cli::attempts(&args, &data_dir, |params| {
        Ok(Measured { attempt: workload::run_end_to_end(params)?, layers: Vec::new() })
    });
    let _ = std::fs::remove_dir_all(&data_dir);
    match ran {
        Ok((summary, _, correct)) => {
            let result = report::result_json(
                correct,
                summary.attempted,
                summary.failed,
                &summary.end_to_end,
            );
            let _ = std::fs::create_dir_all(cli::out_dir());
            let _ = std::fs::write(cli::result_path(args.spec.name), &result);
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("zab-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
