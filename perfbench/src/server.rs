//! The `av-serve` child process and client connections to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `av-serve --tcp` child on loopback. Dropping it kills the
/// process and waits for it.
pub struct Server {
    child: Child,
    /// The bound address.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Start `bin` on `data` (durable mode when asked) with otherwise
    /// default settings, and wait until it listens.
    pub fn spawn(bin: &Path, data: &Path, durable: bool) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.arg("--data")
            .arg(data)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if durable {
            cmd.arg("--durable");
        }
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // The reader keeps draining stderr for the child's whole life so
        // the server never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("av-serve: listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                } else if line.contains("error") || line.contains("failed") {
                    eprintln!("[av-serve] {line}");
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr
                    .parse()
                    .map_err(|_| io::Error::other(format!("bad listen address {addr:?}")))?;
                Ok(server)
            }
            Err(_) => Err(io::Error::other("av-serve did not start listening")),
        }
    }

    /// Peak resident set (VmHWM) of the process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILL the process and reap it.
    pub fn kill(mut self) {
        self.stop();
    }

    /// Ask the server to shut down over the protocol; kill it if it has
    /// not exited within a few seconds.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = Conn::open(self.addr) {
            let _ = conn.call("{\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop();
    }

    fn stop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection, counting the bytes it moves.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Request bytes sent (newlines included).
    pub bytes_out: u64,
    /// Response bytes received (newlines included).
    pub bytes_in: u64,
}

impl Conn {
    /// Connect to `addr`.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Send pre-framed bytes (each request ending in `\n`).
    pub fn send(&mut self, framed: &[u8]) -> io::Result<()> {
        self.writer.write_all(framed)?;
        self.bytes_out += framed.len() as u64;
        Ok(())
    }

    /// Read one response line into `line` (newline stripped).
    pub fn recv(&mut self, line: &mut String) -> io::Result<()> {
        line.clear();
        let n = self.reader.read_line(line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.bytes_in += n as u64;
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(())
    }

    /// Send one request line and return its response line.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        let mut framed = Vec::with_capacity(request.len() + 1);
        framed.extend_from_slice(request.as_bytes());
        framed.push(b'\n');
        self.send(&framed)?;
        let mut line = String::new();
        self.recv(&mut line)?;
        Ok(line)
    }
}

/// A scratch directory under the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Create `root/name`, clearing any leftover from an earlier run.
    pub fn create(root: &Path, name: &str) -> io::Result<WorkDir> {
        let path = root.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
