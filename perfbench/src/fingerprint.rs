//! The machine and build a result was measured on.

use std::path::Path;

use crate::workloads::Workload;

/// Facts recorded next to every result.
#[derive(Debug)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The tensor kernels' thread cap.
    pub kernel_threads: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Commit of the checkout, when it is a git work tree.
    pub git_commit: String,
    /// The run's seed.
    pub seed: u64,
    /// The workload's fixed simulated host→device link, GiB/s.
    pub h2d_gibps: f64,
}

impl Fingerprint {
    /// Collects the fingerprint for a run of `workload` at `seed`, reading
    /// the commit from `root/.git` if there is one.
    pub fn collect(workload: &Workload, seed: u64, root: &Path) -> Self {
        Self {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_threads: neutron_tensor::parallel::max_threads(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
            seed,
            h2d_gibps: workload.h2d_gibps,
        }
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"kernel_threads\": {}, \"profile\": \"{}\", \"git_commit\": \"{}\", \"seed\": {}, \"h2d_gibps\": {}}}",
            self.available_parallelism,
            self.kernel_threads,
            self.profile,
            self.git_commit,
            self.seed,
            self.h2d_gibps
        )
    }
}

/// `HEAD`'s commit from the files under `root/.git`, without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn fingerprint_names_machine_build_seed_and_link() {
        let w = by_name("exact-io").unwrap();
        let fp = Fingerprint::collect(&w, 9, Path::new("no-such-dir"));
        assert_eq!(fp.git_commit, "unknown");
        let json = fp.json();
        let v = crate::trace::json::parse(&json).expect("fingerprint is JSON");
        for key in [
            "available_parallelism",
            "kernel_threads",
            "profile",
            "git_commit",
            "seed",
            "h2d_gibps",
        ] {
            assert!(v.get(key).is_some(), "{key} missing");
        }
        assert_eq!(
            v.get("h2d_gibps"),
            Some(&crate::trace::json::Value::Num(0.2))
        );
    }
}
