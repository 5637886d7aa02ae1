//! The `spring serve` child process: spawn, `/proc` readings, the
//! `GET /metrics` scrape, and a kill-and-wait guard.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Clock ticks per second in `/proc/<pid>/stat` (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// A running server; killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin serve` with `args` on an ephemeral loopback port and
    /// waits for its `listening on …` line.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server did not report its address (got {line:?})"
            )));
        };
        Ok(Server { child, addr })
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Server CPU (user + system), seconds.
    pub fn cpu_s(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            f.get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        // `rest` starts at field 3 (state), so field k is index k - 3.
        Ok((ticks(14 - 3)? + ticks(15 - 3)?) / USER_HZ)
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// `GET /metrics`: the Prometheus exposition text.
    pub fn scrape(&self) -> io::Result<String> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.write_all(SCRAPE_REQUEST)?;
        let mut body = String::new();
        s.read_to_string(&mut body)?;
        Ok(body)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The scrape request (its bytes are counted by the server's
/// `spring_conn_read_bytes_total`).
pub const SCRAPE_REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";

/// Sums every series of `family` (all label sets) in a Prometheus text
/// exposition; `None` when the family has no series.
pub fn prom_sum(text: &str, family: &str) -> Option<f64> {
    let mut total = None;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(family) else {
            continue;
        };
        if !(rest.starts_with(' ') || rest.starts_with('{')) {
            continue; // a longer family name sharing the prefix
        }
        let value = rest.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
        if let Some(v) = value {
            *total.get_or_insert(0.0) += v;
        }
    }
    total
}

/// The `features` label of `spring_build_info`.
pub fn build_features(text: &str) -> Option<String> {
    let line = text.lines().find(|l| l.starts_with("spring_build_info{"))?;
    let start = line.find("features=\"")? + "features=\"".len();
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_string())
}
