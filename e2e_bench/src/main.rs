//! Runs one workload: `--workload <cold_ask|warm_mixed> --seed <n>
//! --seconds <n> --trace <0|1>`. The last line of standard output is the
//! JSON result; the exit code is 0 only when the answer check passed.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match nlidb_e2e_bench::parse_args(&args).and_then(|a| nlidb_e2e_bench::run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            2
        }
    };
    std::process::exit(code);
}
