//! The frozen transport reference for the read metrics: a frame round
//! trip between two threads of this process over a unix socket pair,
//! with the same framing as the serve protocol (4-byte little-endian
//! length, then the payload) and no server behind it.
//!
//! Served read latency is mostly socket wake-ups, and those swing with
//! the load other tenants put on the machine: across five runs the
//! point p50 moved from 7.8 to 12.5 µs while the reference Tarjan moved
//! only from 31.6 to 39 ms. Read latencies are therefore reported in
//! units of this echo, timed interleaved with the requests on the same
//! client thread, so machine drift moves numerator and denominator
//! alike. No program change can move the echo.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Payload of one echo frame: the size of a point request.
const PAYLOAD: usize = 16;

fn read_frame(s: &mut UnixStream, buf: &mut [u8; PAYLOAD]) -> std::io::Result<bool> {
    let mut first = [0u8; 1];
    if s.read(&mut first)? == 0 {
        return Ok(false);
    }
    let mut rest = [0u8; 3];
    s.read_exact(&mut rest)?;
    let len = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if len != PAYLOAD {
        return Err(std::io::Error::other("echo frame of the wrong length"));
    }
    s.read_exact(buf)?;
    Ok(true)
}

fn write_frame(s: &mut UnixStream, buf: &[u8; PAYLOAD]) -> std::io::Result<()> {
    s.write_all(&(PAYLOAD as u32).to_le_bytes())?;
    s.write_all(buf)?;
    s.flush()
}

/// The client end of an echo and its thread.
pub struct Echo {
    stream: UnixStream,
    buf: [u8; PAYLOAD],
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Echo {
    pub fn start() -> std::io::Result<Echo> {
        let (client, mut server) = UnixStream::pair()?;
        let thread = std::thread::spawn(move || {
            let mut buf = [0u8; PAYLOAD];
            while let Ok(true) = read_frame(&mut server, &mut buf) {
                if write_frame(&mut server, &buf).is_err() {
                    return;
                }
            }
        });
        Ok(Echo {
            stream: client,
            buf: [0u8; PAYLOAD],
            thread: Some(thread),
        })
    }

    /// One timed round trip.
    pub fn round_trip(&mut self) -> std::io::Result<Duration> {
        let t = Instant::now();
        write_frame(&mut self.stream, &self.buf)?;
        if !read_frame(&mut self.stream, &mut self.buf)? {
            return Err(std::io::Error::other("echo thread closed"));
        }
        Ok(t.elapsed())
    }
}

impl Drop for Echo {
    /// Closes the socket, which ends the echo thread, and waits for it.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
