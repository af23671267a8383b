//! Records the build as built — profile, optimization level and rustc
//! version — so every result carries the configuration that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    for (key, value) in [
        (
            "PERFBENCH_OPT_LEVEL",
            std::env::var("OPT_LEVEL").unwrap_or_default(),
        ),
        (
            "PERFBENCH_PROFILE",
            std::env::var("PROFILE").unwrap_or_default(),
        ),
        ("PERFBENCH_RUSTC", version.trim().to_string()),
    ] {
        println!("cargo:rustc-env={key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_PROFILE_RELEASE_OPT_LEVEL");
}
