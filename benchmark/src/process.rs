//! Child processes of the program under test: spawn, capture, and the
//! resource usage the kernel accounts to each one.
//!
//! `std::process` does not expose a child's rusage, so the harness reaps
//! its children with `wait4(2)` itself. Every child is reaped before the
//! function that spawned it returns, so no process outlives a workload.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::Instant;

/// How one finished child ran.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Whether it exited with status 0.
    pub success: bool,
    /// How it ended, for error messages.
    pub status: String,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// The tail of what it wrote to stderr, for error messages.
    pub stderr_tail: String,
    /// Wall time from spawn to reap, in seconds.
    pub wall_s: f64,
    /// User + system CPU time, in seconds.
    pub cpu_s: f64,
    /// Peak resident set size, in MiB. Linux carries the spawning
    /// process's peak over into the child's, so this is exact only while
    /// the harness's own peak is the smaller one.
    pub peak_rss_mib: f64,
}

/// Usage of a reaped child as `wait4` reports it.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Whether it exited with status 0.
    pub success: bool,
    /// The raw wait status.
    pub raw_status: i32,
    /// User + system CPU time, in seconds.
    pub cpu_s: f64,
    /// Peak resident set size, in MiB.
    pub peak_rss_mib: f64,
}

impl Usage {
    /// How the child ended, in words.
    pub fn describe(&self) -> String {
        let status = self.raw_status;
        if status & 0x7f == 0 {
            format!("exit code {}", (status >> 8) & 0xff)
        } else {
            format!("signal {}", status & 0x7f)
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

/// A CPU mask as the kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The highest-numbered CPU the calling thread may run on. CPU 0 is
/// avoided because it often takes more of the machine's interrupts.
pub fn last_allowed_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is live and writable, and its size is the one passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(format!("sched_getaffinity failed: {}", std::io::Error::last_os_error()));
    }
    (0..mask.len() * 64)
        .rfind(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or_else(|| "sched_getaffinity allows no CPU".to_string())
}

/// Restricts thread `tid` to `cpu` (`tid` 0 is the calling thread).
/// Threads it starts afterwards inherit the restriction. A thread that
/// has already exited is not an error.
pub fn pin_thread(tid: i32, cpu: usize) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is live, and its size is the one passed.
    if unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &mask) } != 0 {
        let error = std::io::Error::last_os_error();
        const ESRCH: i32 = 3;
        if error.raw_os_error() != Some(ESRCH) {
            return Err(format!("cannot pin thread {tid} to CPU {cpu}: {error}"));
        }
    }
    Ok(())
}

/// Reaps `child` and returns its usage. The caller must not wait on it
/// through `std` as well.
pub fn reap(child: &Child) -> std::io::Result<Usage> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as the kernel expects for 64-bit Linux; `pid` is our own child.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Usage {
        success: status == 0,
        raw_status: status,
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
        peak_rss_mib: usage.maxrss as f64 / 1024.0,
    })
}

/// The program under test: the `vlpp` binary plus the environment every
/// invocation shares.
#[derive(Debug, Clone)]
pub struct Program {
    binary: PathBuf,
}

impl Program {
    /// Wraps the binary at `path`, failing early if it is missing.
    pub fn new(path: &Path) -> Result<Program, String> {
        if !path.is_file() {
            return Err(format!("no vlpp binary at {}", path.display()));
        }
        Ok(Program { binary: path.to_path_buf() })
    }

    /// A command for `vlpp <args>`.
    pub fn command(&self, args: &[String]) -> Command {
        let mut command = Command::new(&self.binary);
        command.args(args);
        command
    }

    /// Runs `vlpp <args>` to completion, capturing stdout and timing it
    /// from spawn to reap.
    pub fn run(&self, args: &[String]) -> Result<Finished, String> {
        let started = Instant::now();
        let mut child = self
            .command(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.binary.display()))?;
        let mut stderr = child.stderr.take().expect("stderr is piped");
        let stderr_reader = thread::spawn(move || {
            let mut bytes = Vec::new();
            let _ = stderr.read_to_end(&mut bytes);
            bytes
        });
        let mut stdout = Vec::new();
        let read = child.stdout.take().expect("stdout is piped").read_to_end(&mut stdout);
        let usage = reap(&child).map_err(|e| format!("wait4 failed: {e}"))?;
        let wall_s = started.elapsed().as_secs_f64();
        let stderr = stderr_reader.join().expect("stderr reader does not panic");
        read.map_err(|e| format!("cannot read vlpp stdout: {e}"))?;
        let tail_start = stderr.len().saturating_sub(2000);
        Ok(Finished {
            success: usage.success,
            status: usage.describe(),
            stdout,
            stderr_tail: String::from_utf8_lossy(&stderr[tail_start..]).into_owned(),
            wall_s,
            cpu_s: usage.cpu_s,
            peak_rss_mib: usage.peak_rss_mib,
        })
    }
}

/// A long-running child whose stdout is read line by line.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    reaped: bool,
}

impl Daemon {
    /// Spawns `command` with stdout piped and stderr discarded.
    pub fn spawn(mut command: Command) -> Result<Daemon, String> {
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon { child, stdout, reaped: false })
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Restricts every thread of the process to `cpu`, from
    /// `/proc/<pid>/task`. Threads it starts afterwards inherit the
    /// restriction from the thread that starts them.
    pub fn pin_to(&self, cpu: usize) -> Result<(), String> {
        let path = format!("/proc/{}/task", self.pid());
        let tasks = std::fs::read_dir(&path).map_err(|e| format!("cannot list {path}: {e}"))?;
        for task in tasks {
            let task = task.map_err(|e| format!("cannot list {path}: {e}"))?;
            if let Some(tid) = task.file_name().to_str().and_then(|name| name.parse().ok()) {
                pin_thread(tid, cpu)?;
            }
        }
        Ok(())
    }

    /// Reads the next stdout line (without its newline), or `None` at
    /// end of stream.
    pub fn next_line(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_string())),
            Err(e) => Err(format!("cannot read daemon stdout: {e}")),
        }
    }

    /// User + system CPU seconds the live process has used so far, from
    /// `/proc/<pid>/stat` (clock ticks of 1/100 s on Linux).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, utime 14, stime 15.
        let after = text.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) as f64 / 100.0),
            _ => Err(format!("unexpected format of {path}")),
        }
    }

    /// Peak resident set size so far, in MiB, from `VmHWM` in
    /// `/proc/<pid>/status`. Unlike `wait4`'s `ru_maxrss`, it counts
    /// only the program's own memory, not the spawning harness's.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        text.lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Reads stdout to its end, then reaps the process.
    pub fn finish(mut self) -> Result<(Usage, Vec<String>), String> {
        let mut lines = Vec::new();
        while let Some(line) = self.next_line()? {
            lines.push(line);
        }
        let usage = reap(&self.child).map_err(|e| format!("wait4 failed: {e}"))?;
        self.reaped = true;
        Ok((usage, lines))
    }
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is killed and reaped, so no
    /// process outlives the harness.
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = reap(&self.child);
        }
    }
}
