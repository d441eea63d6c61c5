//! The scoring server as a child process: spawn with a clean environment,
//! discover its ports, scrape `/metrics`, read its peak RSS, stop it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

pub struct ServerProc {
    child: Child,
    pub addr: String,
    pub metrics_addr: String,
}

impl ServerProc {
    /// Start `bin` with the two listen addresses set (ephemeral ports on
    /// loopback) and wait for both banners. It inherits the rest of the
    /// environment, which `run.py` has cleared of `DMML_*` variables.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.env("DMML_SERVE_ADDR", "127.0.0.1:0")
            .env("DMML_METRICS_ADDR", "127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let (mut addr, mut metrics_addr) = (None, None);
        while addr.is_none() || metrics_addr.is_none() {
            let Some(Ok(line)) = lines.next() else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before printing its addresses".to_owned());
            };
            if let Some(a) = line.strip_prefix("scoring listening on ") {
                addr = Some(a.trim().to_owned());
            } else if let Some(a) = line.strip_prefix("metrics listening on http://") {
                metrics_addr = Some(a.trim().trim_end_matches("/metrics").to_owned());
            }
        }
        Ok(ServerProc {
            child,
            addr: addr.expect("loop exits with both set"),
            metrics_addr: metrics_addr.expect("loop exits with both set"),
        })
    }

    pub fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        // A lost response fails the request instead of hanging the run.
        s.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// `VmHWM` of the server process in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Scrape `/metrics`: plain series by name, summary quantiles as
    /// `name{q}` (e.g. `dmml_serve_phase_decode{0.5}`).
    pub fn scrape(&self) -> Result<HashMap<String, f64>, String> {
        let mut s = TcpStream::connect(&self.metrics_addr).map_err(|e| format!("metrics: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
            .map_err(|e| format!("metrics: {e}"))?;
        let mut body = String::new();
        s.read_to_string(&mut body).map_err(|e| format!("metrics: {e}"))?;
        Ok(parse_metrics(&body))
    }

    /// Stop the process (the caller has closed its connections first) and
    /// wait for it to exit.
    pub fn stop(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let s = std::fs::read_to_string(status_path).ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn parse_metrics(body: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((key, val)) = line.rsplit_once(' ') else { continue };
        let Ok(v) = val.trim().parse::<f64>() else { continue };
        let key = match key.split_once("{quantile=\"") {
            Some((name, q)) => format!("{name}{{{}}}", q.trim_end_matches("\"}")),
            None => key.to_owned(),
        };
        out.insert(key, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_parses_series_and_quantiles() {
        let m = parse_metrics(
            "HTTP/1.0 200 OK\r\n\r\n# TYPE a summary\na{quantile=\"0.5\"} 12\na_count 3\nb 7\n",
        );
        assert_eq!(m.get("a{0.5}"), Some(&12.0));
        assert_eq!(m.get("a_count"), Some(&3.0));
        assert_eq!(m.get("b"), Some(&7.0));
    }
}
