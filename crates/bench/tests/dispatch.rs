//! The `bench` binary's dispatch: a missing or unknown subcommand is a
//! usage error (exit 2) whose message names every registry entry.

use bench::figures::REGISTRY;

#[test]
fn no_or_unknown_subcommand_exits_2_naming_every_entry() {
    for args in [&[][..], &["no_such_figure"], &["--help"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("spawn bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: bench"), "{args:?}: {stderr}");
        for (name, _) in REGISTRY {
            assert!(stderr.contains(name), "{args:?}: {name} missing");
        }
    }
}
