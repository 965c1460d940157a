//! Sets `SUBCORE_ENGINE_VERSION` to `<crate version>+<digest>`: a 64-bit
//! FNV-1a digest of the `src/` trees that decide `RunStats` (`isa`, `mem`,
//! `trace`, this crate, and `core`, read by path since it depends on this
//! crate). Durable records are stamped with it, so any model edit, even to
//! a comment, turns older records into misses instead of stale hits.

use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for name in ["isa", "mem", "trace", "engine", "core"] {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        let mut files = Vec::new();
        collect_files(&src, &mut files);
        files.sort();
        for file in files {
            let rel = file.strip_prefix(&crates).expect("file lies under crates/");
            for bytes in [rel.to_string_lossy().as_bytes(), &[0], &fs::read(&file).unwrap(), &[0]] {
                for &b in bytes {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
    let version = env!("CARGO_PKG_VERSION");
    println!("cargo:rustc-env=SUBCORE_ENGINE_VERSION={version}+{hash:016x}");
}

/// Every regular file under `dir`, recursively.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("model source tree is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
