//! The system under test as a child process: the shipped `invmeas serve`
//! binary, plus the line-oriented connections the generator drives it
//! through.

use invmeas_service::{Response, StatusResponse};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a clean shutdown may take before the process is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(20);

/// A running `invmeas serve` process. Dropping it kills and reaps the
/// process if [`ServerProc::shutdown`] did not already stop it.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    stdout: Option<BufReader<ChildStdout>>,
    /// The bound address, read from the `listening on` line.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `bin serve --addr 127.0.0.1:0 --workers N` plus `extra`
    /// flags and waits for the bound address.
    pub fn spawn(bin: &Path, workers: usize, extra: &[String]) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok())
        });
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                stdout: Some(stdout),
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not report its address (got {line:?})"
                )))
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, in kB.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        vm_hwm_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to drain and exit, then reaps it (killing it if it
    /// overstays [`SHUTDOWN_GRACE`]).
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = LineConn::connect(self.addr)
            .and_then(|mut c| c.call("{\"v\":1,\"op\":\"shutdown\"}").map(|_| ()));
        // Drain stdout so the final counter dump never blocks the exit.
        if let Some(mut out) = self.stdout.take() {
            let mut sink = Vec::new();
            let _ = out.read_to_end(&mut sink);
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        loop {
            if let Some(status) = self.child.try_wait()? {
                asked?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(io::Error::other("server did not drain in time; killed"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` in kB from a `/proc/<pid>/status` file.
pub fn vm_hwm_kb(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A blocking newline-framed connection.
#[derive(Debug)]
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineConn {
    /// Connects with Nagle off (every request is one small write).
    pub fn connect(addr: SocketAddr) -> io::Result<LineConn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(LineConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Wraps an already connected blocking stream.
    pub fn from_stream(stream: TcpStream) -> io::Result<LineConn> {
        Ok(LineConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one line (a newline is appended).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Receives one line, without its newline.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// One request, one response.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// The underlying stream (for non-blocking multiplexed reads).
    pub fn into_stream(self) -> TcpStream {
        self.writer
    }

    /// Fetches a `status` snapshot.
    pub fn status(&mut self) -> io::Result<StatusResponse> {
        let line = self.call("{\"v\":1,\"op\":\"status\"}")?;
        parse_status(&line)
    }
}

/// Parses a `status` response line.
pub fn parse_status(line: &str) -> io::Result<StatusResponse> {
    match Response::from_line(line) {
        Ok(Response::Status(s)) => Ok(s),
        other => Err(io::Error::other(format!(
            "not a status response: {other:?}"
        ))),
    }
}

/// The response with its `latency_us` field removed — the only field
/// that may differ between a live response and its replay.
pub fn strip_latency(line: &str) -> String {
    let key = "\"latency_us\":";
    let Some(at) = line.find(key) else {
        return line.to_string();
    };
    let end = at
        + key.len()
        + line[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .count();
    // Drop one adjoining comma so the remainder stays well formed.
    let (lo, hi) = if line[end..].starts_with(',') {
        (at, end + 1)
    } else if line[..at].ends_with(',') {
        (at - 1, end)
    } else {
        (at, end)
    };
    format!("{}{}", &line[..lo], &line[hi..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_the_only_field_stripped() {
        let a = r#"{"v":1,"ok":true,"cache":"hit","latency_us":1234,"counts":{"00":3}}"#;
        let b = r#"{"v":1,"ok":true,"cache":"hit","latency_us":7,"counts":{"00":3}}"#;
        let c = r#"{"v":1,"ok":true,"cache":"miss","latency_us":7,"counts":{"00":3}}"#;
        assert_eq!(strip_latency(a), strip_latency(b));
        assert_ne!(strip_latency(a), strip_latency(c));
        assert_eq!(
            strip_latency(a),
            r#"{"v":1,"ok":true,"cache":"hit","counts":{"00":3}}"#
        );
        assert_eq!(strip_latency(r#"{"x":1,"latency_us":5}"#), r#"{"x":1}"#);
    }
}
