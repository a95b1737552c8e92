//! A JSON-lines client for the sweep service that timestamps every line.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// How many response lines a request ends after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ends {
    /// One line (`ping`, `point`, `health`).
    OneLine,
    /// A `done` line, or any error line (`sweep`, `dynamic`).
    Done,
}

/// One request's response: when it was written, and each line with the time
/// it arrived.
#[derive(Debug)]
pub struct Exchange {
    pub sent: Instant,
    pub lines: Vec<(Instant, String)>,
}

impl Exchange {
    /// Milliseconds from the request's write to line `i`'s arrival.
    pub fn ms_to(&self, i: usize) -> f64 {
        (self.lines[i].0 - self.sent).as_secs_f64() * 1e3
    }

    /// Milliseconds from the request's write to its last line.
    pub fn total_ms(&self) -> f64 {
        self.ms_to(self.lines.len() - 1)
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Writes one request line and reads its response lines.
    pub fn request(&mut self, line: &str, ends: Ends) -> std::io::Result<Exchange> {
        let sent = Instant::now();
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut lines = Vec::new();
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            let at = Instant::now();
            let last = ends == Ends::OneLine
                || buf.contains("\"kind\":\"done\"")
                || buf.contains("\"ok\":false");
            lines.push((at, buf));
            if last {
                return Ok(Exchange { sent, lines });
            }
        }
    }
}
