//! The `elfie` command-line entry point. All logic lives in the library
//! crate ([`elfie_cli`]) so it can be tested without process spawning.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match elfie_cli::dispatch(&argv) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            print!("{}", e.report);
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
