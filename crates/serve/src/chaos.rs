//! Socket-level faults: the seeded decision and its realization.
//!
//! [`SocketChaosPolicy`] decides, per outbound frame, which
//! [`SocketFault`] to inject, drawing from the workspace's one fault
//! schedule ([`gsview_obs::fault`]) at the socket boundary;
//! [`chaos_write`] carries the fault out against a live client socket:
//!
//! * [`SocketFault::TruncateWrite`] — send a strict prefix of the
//!   frame, then shut the socket down: the server sees a mid-frame
//!   disconnect (its decoder is left `mid_frame`, the connection
//!   drops cleanly).
//! * [`SocketFault::Stall`] — send a strict prefix and then go
//!   silent, socket open: the server's stalled-read sweep must reap
//!   us; the client sees its own read timeout.
//! * [`SocketFault::Disconnect`] — shut down before sending anything.
//!
//! Faults are injected on the **client** side because that is where
//! a real deployment's network sits: the server must survive
//! whatever arrives (or fails to arrive) at its socket.

use gsview_obs::fault::Stream;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};

/// What a socket-chaos injector does to one outbound frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketFault {
    /// Deliver the frame intact.
    None,
    /// Write only the given number of bytes of the frame, then close
    /// the connection — the peer sees a mid-frame disconnect.
    TruncateWrite(usize),
    /// Write a prefix of the frame and then go silent without
    /// closing — the peer's stalled-read sweep must reap the
    /// connection; the sender's read deadline turns into a timeout.
    Stall(usize),
    /// Close the connection before writing anything.
    Disconnect,
}

/// A seeded description of transport unreliability, decided per
/// outbound frame. The faults a policy's [`stream`](Self::stream)
/// yields are a pure function of the seed and the frame's place in the
/// stream, so a failing networked scenario replays exactly from its
/// seed.
#[derive(Clone, Copy, Debug)]
pub struct SocketChaosPolicy {
    /// Schedule seed.
    pub seed: u64,
    /// Probability a frame is truncated mid-write and the connection
    /// closed (mid-frame disconnect at the peer).
    pub p_truncate: f64,
    /// Probability the sender stalls mid-frame without closing.
    pub p_stall: f64,
    /// Probability the connection is closed before the frame is sent.
    pub p_disconnect: f64,
}

impl SocketChaosPolicy {
    /// Equal probability `p` for each fault flavor.
    pub fn uniform(seed: u64, p: f64) -> Self {
        SocketChaosPolicy {
            seed,
            p_truncate: p,
            p_stall: p,
            p_disconnect: p,
        }
    }

    /// The fault schedule this policy decides from, at its first frame.
    pub fn stream(&self) -> Stream {
        Stream::new(self.seed, "socket")
    }

    /// The fault to inject on the next outbound frame of `frame_len`
    /// bytes, drawn from `faults`.
    pub fn decide(&self, faults: &Stream, frame_len: usize) -> SocketFault {
        let d = faults.draw();
        let (fault, kind) = match d.pick(&[self.p_truncate, self.p_stall, self.p_disconnect]) {
            None => return SocketFault::None,
            Some(2) => (SocketFault::Disconnect, "disconnect"),
            Some(i) => {
                // A truncated/stalled frame keeps at least one byte
                // (the peer must observe a *partial* frame, not an
                // empty read) and drops at least one (otherwise it
                // would be a clean delivery).
                let cut = 1 + faults.draw().below(frame_len.max(2) as u64 - 1) as usize;
                match i {
                    0 => (SocketFault::TruncateWrite(cut), "truncate"),
                    _ => (SocketFault::Stall(cut), "stall"),
                }
            }
        };
        gsview_obs::event!(
            "chaos.inject",
            "boundary" = faults.boundary(),
            "kind" = kind,
            "k" = d.k
        );
        fault
    }
}

/// What a chaos-mediated frame write left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The whole frame went out; await the reply normally.
    Sent,
    /// A prefix went out and the socket is still open but will carry
    /// nothing more of this frame: the peer sees a stalled read, we
    /// will see our own read timeout.
    Stalled,
    /// The socket is dead (truncated-then-closed, or closed outright).
    Broken,
}

/// Write `frame` subject to `fault`. Never returns an `Err` for the
/// *injected* failure modes — those are reported through
/// [`WriteOutcome`]; only a genuine unexpected I/O error surfaces.
pub fn chaos_write(
    stream: &mut TcpStream,
    frame: &[u8],
    fault: SocketFault,
) -> io::Result<WriteOutcome> {
    match fault {
        SocketFault::None => {
            stream.write_all(frame)?;
            Ok(WriteOutcome::Sent)
        }
        SocketFault::TruncateWrite(cut) => {
            let cut = cut.min(frame.len().saturating_sub(1));
            let _ = stream.write_all(&frame[..cut]);
            let _ = stream.shutdown(Shutdown::Both);
            Ok(WriteOutcome::Broken)
        }
        SocketFault::Stall(cut) => {
            let cut = cut.min(frame.len().saturating_sub(1));
            stream.write_all(&frame[..cut])?;
            Ok(WriteOutcome::Stalled)
        }
        SocketFault::Disconnect => {
            let _ = stream.shutdown(Shutdown::Both);
            Ok(WriteOutcome::Broken)
        }
    }
}
