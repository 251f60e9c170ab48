//! Run provenance: what a result was measured on, so that runs are
//! only ever compared like with like.

use std::path::Path;

use crate::metrics::Outcome;

/// Environment variables that switch workspace telemetry on.
const TELEMETRY_VARS: [&str; 2] = ["QDI_LOG", "QDI_TRACE"];

/// Reads and clears the telemetry variables, returning what was set.
/// Call before any thread starts.
pub fn take_telemetry_env() -> Vec<(&'static str, Option<String>)> {
    TELEMETRY_VARS
        .iter()
        .map(|&var| {
            let value = std::env::var(var).ok();
            std::env::remove_var(var);
            (var, value)
        })
        .collect()
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance object as JSON.
pub fn collect(outcome: &Outcome, telemetry_env: Vec<(&'static str, Option<String>)>) -> String {
    let available = std::thread::available_parallelism().map_or(0, usize::from);
    let workers: Vec<String> = outcome
        .workers
        .iter()
        .map(|(k, v)| format!("{}:{v}", quoted(k)))
        .collect();
    let env: Vec<String> = telemetry_env
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{}",
                quoted(k),
                v.as_deref().map_or("null".into(), quoted)
            )
        })
        .collect();
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", quoted(k), quoted(v)))
        .collect();
    format!(
        "{{\"available_parallelism\":{available},\"workers\":{{{}}},\"git_revision\":{},\
         \"rustc\":{},\"telemetry_env_cleared\":{{{}}},\"notes\":{{{}}}}}",
        workers.join(","),
        quoted(&git_revision(Path::new("."))),
        quoted(env!("QDI_PERFBENCH_RUSTC")),
        env.join(","),
        notes.join(",")
    )
}

/// The commit checked out at `dir`, read from `.git` without running
/// git; `unknown` outside a git checkout.
pub fn git_revision(dir: &Path) -> String {
    let git = dir.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem holding `path`: the longest mount point of
/// `/proc/self/mounts` that contains it, as `type on mountpoint`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount_point = fields.next()?.replace("\\040", " ");
            let fs_type = fields.next()?;
            path.starts_with(&mount_point)
                .then(|| (mount_point.len(), format!("{fs_type} on {mount_point}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
