//! A one-connection HTTP/1.1 keep-alive client: the closed-loop caller of
//! the serve workloads (send, wait for the whole reply, send the next).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One response.
#[derive(Clone, Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// The `x-cache` header, when present.
    pub x_cache: Option<String>,
}

/// A keep-alive connection to the server.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// The exact bytes [`Client::get`] sends for `target`.
    pub fn request_bytes(target: &str) -> Vec<u8> {
        format!("GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n").into_bytes()
    }

    /// `GET target` and read the whole reply.
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        self.stream.write_all(&Client::request_bytes(target))?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let mut lines = head.lines();
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = None;
        let mut x_cache = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => len = value.trim().parse::<usize>().ok(),
                    "x-cache" => x_cache = Some(value.trim().to_string()),
                    _ => {}
                }
            }
        }
        let len = len.ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        if self.buf.len() != head_end + len {
            return Err(bad("unexpected bytes after the body"));
        }
        Ok(Reply {
            status,
            body: self.buf[head_end..].to_vec(),
            x_cache,
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}
