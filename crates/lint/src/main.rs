//! The `ups-lint` binary. See `crates/lint/src/lib.rs` and DESIGN.md
//! §13 for what the rules enforce and why.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ups_lint::{find_workspace_root, render, rule_list, Workspace};

const USAGE: &str = "\
ups-lint — workspace determinism static analysis

USAGE:
    ups-lint [--root DIR] [--check] [--list]

MODES (default: --check):
    --check      run the determinism rules over every workspace source file
    --list       print every rule and exit

OPTIONS:
    --root DIR   workspace root (default: walk up from the current directory
                 to the first Cargo.toml declaring [workspace])
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--list" => {
                print!("{}", rule_list());
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a directory"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "ups-lint: no Cargo.toml with [workspace] above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("ups-lint: loading {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let mut findings = ws.check();
    findings.dedup();
    if findings.is_empty() {
        println!("ups-lint: clean ({} files)", ws.files.len());
        ExitCode::SUCCESS
    } else {
        print!("{}", render(&findings));
        println!("ups-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ups-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
