//! Stamps the compiler version and the source revision into the binary for
//! the run manifest. Either may be unavailable (a source tarball has no git
//! metadata); the manifest then says `unknown`.

use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!("cargo:rustc-env=LOOPBENCH_RUSTC={}", output_of(&rustc, &["-V"]));
    println!(
        "cargo:rustc-env=LOOPBENCH_GIT={}",
        output_of("git", &["describe", "--always", "--dirty", "--tags"])
    );
    println!("cargo:rerun-if-changed=build.rs");
}
