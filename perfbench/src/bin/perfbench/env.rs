//! What a result must record about where it ran: cores, worker counts,
//! source identity and toolchain, plus the process's peak memory.

use std::path::Path;

/// The run environment.
#[derive(Debug, Clone)]
pub struct Env {
    /// `std::thread::available_parallelism` — every worker knob of the
    /// program is set to this, and the load generator uses at most this
    /// many threads and one connection.
    pub nproc: usize,
    /// `git rev-parse HEAD` when run from the root of a git checkout, else
    /// `none`.
    pub commit: String,
    /// FNV-1a digest of the workspace sources the benchmark was built
    /// from, so a result can be tied to a tree without git.
    pub source_digest: String,
    /// `rustc --version` at build time.
    pub rustc: &'static str,
}

impl Env {
    /// Probe the environment. The benchmark runs from the repository
    /// root; a directory without `crates/` is not one.
    ///
    /// # Errors
    ///
    /// When `crates/` is missing or unreadable.
    pub fn probe() -> Result<Env, String> {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let source_digest = format!("{:016x}", digest_tree(Path::new("crates"))?);
        // Only a checkout's own `.git` counts: outside one, git would walk
        // up and report whatever repository encloses the directory.
        let commit = Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".to_string());
        Ok(Env {
            nproc,
            commit,
            source_digest,
            rustc: env!("PERFBENCH_RUSTC"),
        })
    }

    /// The `meta` line: one JSON object naming workload, seed, scale and
    /// environment. `fields` are extra `key: value` pairs, values already
    /// in JSON syntax.
    pub fn meta_line(&self, workload: &str, seed: u64, fields: &[(&str, String)]) -> String {
        let mut parts = vec![
            format!("\"workload\": \"{workload}\""),
            format!("\"seed\": {seed}"),
            format!("\"nproc\": {}", self.nproc),
            format!("\"commit\": \"{}\"", self.commit),
            format!("\"source_digest\": \"{}\"", self.source_digest),
            format!("\"rustc\": \"{}\"", self.rustc),
        ];
        parts.extend(fields.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        format!("meta {{{}}}", parts.join(", "))
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a over every `.rs` and `Cargo.toml` file under `dir`, in sorted
/// path order, hashing each relative path and its contents.
fn digest_tree(dir: &Path) -> Result<u64, String> {
    let mut files = Vec::new();
    collect(dir, &mut files)?;
    files.sort();
    let mut hash = Fnv::new();
    for path in files {
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        hash.write(path.to_string_lossy().as_bytes());
        hash.write(&bytes);
    }
    Ok(hash.finish())
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
    Ok(())
}

/// 64-bit FNV-1a, also used for the output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in one line of text plus a terminator, so `["ab", "c"]` and
    /// `["a", "bc"]` differ.
    pub fn line(&mut self, text: &str) {
        self.write(text.as_bytes());
        self.write(b"\n");
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut a = Fnv::new();
        a.line("ab");
        a.line("c");
        let mut b = Fnv::new();
        b.line("a");
        b.line("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
