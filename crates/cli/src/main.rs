//! `kcenter` — the command-line front end.  All logic lives in the library
//! (`kcenter_cli`); this shim only wires argv, stdout, and exit codes.

use kcenter_cli::{args, commands};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match args::parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if let Err(e) = commands::run(&cli, &mut out) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
