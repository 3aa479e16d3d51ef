//! The `sectopk-s2d` child process and `/proc` accounting for it and for the driver.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks of 1/100 s on every
/// supported architecture (`sysconf(_SC_CLK_TCK)`).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by all threads of `pid` (`None` = this
/// process).
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted after its ')'.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / TICKS_PER_SECOND
}

/// Peak resident set size of `pid` (`None` = this process) in MB (`VmHWM`).
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let status = std::fs::read_to_string(proc_path(pid, "status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// A running `sectopk-s2d`, killed and reaped when dropped.  Should the driver itself be
/// killed, the daemon sees its stdin close and exits on its own (`--drain-on-stdin`).
pub struct Daemon {
    child: Child,
    addr: String,
    _stdin: ChildStdin,
    /// Kept open: the daemon keeps printing to it and would die of a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start the daemon on an ephemeral loopback port and wait until it reports the
    /// address it bound.  It inherits the driver's environment, which `main` has already
    /// cleared of `SECTOPK_*` variables.
    pub fn spawn(workers: usize) -> Result<Daemon, String> {
        let binary = daemon_binary()?;
        let mut command = Command::new(&binary);
        command
            .args(["--listen", "127.0.0.1:0", "--workers", &workers.to_string()])
            .args(["--drain-on-stdin", "--drain-grace", "0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child =
            command.spawn().map_err(|e| format!("starting {}: {e}", binary.display()))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line.split("listening on ").nth(1).map(|a| a.trim().to_string()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{} did not report its address: {line:?}", binary.display()));
        };
        Ok(Daemon { child, addr, _stdin: stdin, _stdout: stdout })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `sectopk-s2d` as built by `run.sh`: in the same directory as the driver.
fn daemon_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the driver: {e}"))?;
    let path = exe.with_file_name("sectopk-s2d");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} not found; build it with benchmark/run.sh", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_accounting_is_readable() {
        let before = cpu_seconds(None);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds(None) >= before);
        assert!(peak_rss_mb(None) > 0.0);
        assert_eq!(cpu_seconds(Some(u32::MAX)), 0.0);
    }
}
