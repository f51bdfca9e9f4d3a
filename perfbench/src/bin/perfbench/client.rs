//! One line-protocol connection to the serve listener.
//!
//! The benchmark is the daemon's client, so it needs a socket; smart-lint
//! allows sockets only in the listener, hence the reasoned suppressions.

use std::io::{BufRead, BufReader, ErrorKind, Write};
// lint:allow(side-effects) the benchmark drives smart-serve over its real TCP listener, as a client would
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a request may wait for its answer.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A connected line-protocol session.
pub struct Connection {
    // lint:allow(side-effects) the client half of the benchmark's one connection
    stream: TcpStream,
    reader: BufReader<TcpStream>, // lint:allow(side-effects) read half of the same connection
}

impl Connection {
    /// Connect to `addr` with Nagle off, so each request leaves at once.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        // lint:allow(side-effects) opening the benchmark's one client connection
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection { stream, reader })
    }

    /// The underlying stream, for the open-loop generator.
    // lint:allow(side-effects) hands the same connection to the open-loop generator
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Send one request line and read its answer block: every line,
    /// newline-terminated, without the blank terminator line.
    ///
    /// # Errors
    ///
    /// Propagates socket failures and a connection closed mid-answer.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        read_block(&mut self.reader)
    }
}

/// Read one answer block: every line, newline-terminated, without the
/// blank terminator line.
///
/// # Errors
///
/// Propagates socket failures and a connection closed mid-answer.
pub fn read_block<R: BufRead>(reader: &mut R) -> std::io::Result<String> {
    let mut block = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        if line == "\n" {
            return Ok(block);
        }
        block.push_str(&line);
    }
}
