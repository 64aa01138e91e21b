//! Passes the build settings the machine stamp reports into the program:
//! Cargo exposes them to build scripts only.

fn main() {
    for (source, name) in [
        ("CARGO_ENCODED_RUSTFLAGS", "PERF_RUSTFLAGS"),
        ("CARGO_CFG_TARGET_FEATURE", "PERF_TARGET_FEATURES"),
        ("PROFILE", "PERF_PROFILE"),
        ("OPT_LEVEL", "PERF_OPT_LEVEL"),
    ] {
        // Encoded rustflags are separated by 0x1f; print them as typed.
        let value = std::env::var(source)
            .unwrap_or_default()
            .replace('\x1f', " ");
        println!("cargo:rustc-env={name}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
