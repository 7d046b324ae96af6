//! A pipelining client over the server's public wire protocol
//! (`optiql_server::proto`): requests are encoded with
//! `Request::encode`, replies decoded with `FrameDecoder`.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use optiql_server::proto::{FrameDecoder, Request, Response};

/// One whole reply: a SCAN's parts are gathered up to its SCAN_END.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// GET result.
    Value(Option<u64>),
    /// SET result (the old value).
    Old(Option<u64>),
    /// SCAN entries, with the total its SCAN_END announced.
    Scan(Vec<(u64, u64)>, u32),
    /// Any other frame, which no request of this benchmark expects.
    Unexpected(Response),
}

pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    buf: Vec<u8>,
    scan: Vec<(u64, u64)>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Clients spin instead of blocking in `read`: a blocked reader
        // halts its vCPU, and on a shared host every halt-and-wake pays
        // the hypervisor's scheduling delay (it shows as steal time and
        // halved closed-loop throughput in measurements).
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::with_capacity(4096),
            buf: vec![0; 64 * 1024],
            scan: Vec::new(),
        })
    }

    /// Stage a request; [`flush`](Self::flush) sends everything staged.
    pub fn queue(&mut self, req: &Request) {
        req.encode(&mut self.out);
    }

    /// Send every staged request, spinning until the kernel took all
    /// bytes.
    pub fn flush(&mut self) -> io::Result<()> {
        let mut pos = 0;
        while pos < self.out.len() {
            match self.stream.write(&self.out[pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => pos += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        Ok(())
    }

    /// Read once without waiting and append every reply completed by the
    /// bytes read to `done`.
    pub fn recv(&mut self, done: &mut Vec<Reply>) -> io::Result<()> {
        match self.stream.read(&mut self.buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.decoder.feed(&self.buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(())
            }
            Err(e) => return Err(e),
        }
        while let Some(resp) = self
            .decoder
            .next_response()
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?
        {
            done.push(match resp {
                Response::Value(v) => Reply::Value(v),
                Response::Old(v) => Reply::Old(v),
                Response::ScanPart(p) => {
                    self.scan.extend(p);
                    continue;
                }
                Response::ScanEnd { total } => Reply::Scan(std::mem::take(&mut self.scan), total),
                other => Reply::Unexpected(other),
            });
        }
        Ok(())
    }
}

/// Drive a closed loop holding `depth` requests in flight. `next` yields
/// the next request and a tag for it, or `None` to stop sending; `done`
/// receives each tag with its reply, its send time and its completion
/// time. Returns when every sent request has been answered.
pub fn closed_loop<T>(
    conn: &mut Conn,
    depth: usize,
    mut next: impl FnMut() -> Option<(Request, T)>,
    mut done: impl FnMut(T, Reply, Instant, Instant),
) -> io::Result<()> {
    let mut inflight: VecDeque<(T, Instant)> = VecDeque::with_capacity(depth);
    let mut replies = Vec::with_capacity(depth);
    let mut sending = true;
    loop {
        let now = Instant::now();
        while sending && inflight.len() < depth {
            match next() {
                Some((req, tag)) => {
                    conn.queue(&req);
                    inflight.push_back((tag, now));
                }
                None => sending = false,
            }
        }
        conn.flush()?;
        if inflight.is_empty() {
            return Ok(());
        }
        conn.recv(&mut replies)?;
        let now = Instant::now();
        for r in replies.drain(..) {
            let (tag, sent) = inflight
                .pop_front()
                .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "reply without request"))?;
            done(tag, r, sent, now);
        }
    }
}
